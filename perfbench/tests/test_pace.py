"""Times are scaled by the reference work's recent speed."""

from perfbench import pace


def test_scale_follows_the_median_of_recent_reference_times(monkeypatch):
    times = iter([0.004, 0.002, 0.001, 0.001])
    monkeypatch.setattr(pace, "reference_time", lambda: next(times))
    monkeypatch.setattr(pace, "EVERY_S", 0.0)
    speed = pace.Pace()
    speed.tick()
    assert speed.scale() == pace.REFERENCE_S / 0.004
    speed.tick()
    speed.tick()
    assert speed.scale() == pace.REFERENCE_S / 0.002
    speed.tick()  # the oldest sample drops out
    assert speed.scale() == pace.REFERENCE_S / 0.001
    assert speed.samples == [0.004, 0.002, 0.001, 0.001]


def test_tick_samples_at_most_once_per_interval(monkeypatch):
    taken = []
    monkeypatch.setattr(pace, "reference_time", lambda: taken.append(1) or 0.002)
    speed = pace.Pace()
    speed.tick()
    speed.tick()
    assert len(taken) == 1
