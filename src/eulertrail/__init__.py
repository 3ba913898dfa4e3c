"""Spanning eulerian subdigraphs of semicomplete digraphs.

Decision and construction routines for spanning eulerian subdigraphs
that contain a prescribed arc, avoid a prescribed arc set, or form a
spanning trail between prescribed endpoints, with explicit certificates
on both the positive and the negative side, plus exhaustive oracles for
small instances.
"""

from __future__ import annotations

from .classify import (
    ArcContainment,
    ArcUnavoidability,
    classify_all,
    classify_containment,
    classify_unavoidable,
    taxonomy_labels,
    unavoidable_arcs,
)
from .connectivity import (
    CutCertificate,
    arc_connectivity,
    arc_connectivity_certificate,
    arc_disjoint_paths,
    cut_arcs,
    is_strong,
    strong_components,
)
from .decomposition import (
    Decomposition,
    ignored_sets,
    natural_backward_ordering,
    nice_decomposition,
    one_decomposition,
    verify_structure,
)
from .digraph import (
    Arc,
    Digraph,
    gen_blocked_arc_tournament,
    gen_d3,
    gen_exceptional,
    gen_random_semicomplete,
    is_semicomplete,
    is_tournament,
    parse_json,
    serialize_json,
    to_dot,
)
from .errors import ConstructionError, EulertrailError, ParseError, PreconditionError
from .factor import (
    EulerianFactor,
    NonStrongCut,
    ObstructionPartition,
    eulerian_factor,
    factor_exists_guarantee,
    is_star_set,
    merge_all,
    spanning_eulerian_avoiding,
)
from .hamilton import hamiltonian_cycle
from .trails import (
    EulerianSubdigraph,
    Trail,
    is_eulerian_connected,
    spanning_trail,
)

__all__ = [
    "Arc",
    "ArcContainment",
    "ArcUnavoidability",
    "ConstructionError",
    "CutCertificate",
    "Decomposition",
    "Digraph",
    "EulerianFactor",
    "EulerianSubdigraph",
    "EulertrailError",
    "NonStrongCut",
    "ObstructionPartition",
    "ParseError",
    "PreconditionError",
    "Trail",
    "arc_connectivity",
    "arc_connectivity_certificate",
    "arc_disjoint_paths",
    "classify_all",
    "classify_containment",
    "classify_unavoidable",
    "cut_arcs",
    "eulerian_factor",
    "factor_exists_guarantee",
    "gen_blocked_arc_tournament",
    "gen_d3",
    "gen_exceptional",
    "gen_random_semicomplete",
    "hamiltonian_cycle",
    "ignored_sets",
    "is_eulerian_connected",
    "is_semicomplete",
    "is_star_set",
    "is_strong",
    "is_tournament",
    "merge_all",
    "natural_backward_ordering",
    "nice_decomposition",
    "one_decomposition",
    "parse_json",
    "serialize_json",
    "spanning_eulerian_avoiding",
    "spanning_trail",
    "strong_components",
    "taxonomy_labels",
    "to_dot",
    "unavoidable_arcs",
    "verify_structure",
]
