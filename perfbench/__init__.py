"""Benchmark harness for the eulertrail package; see run.py."""
