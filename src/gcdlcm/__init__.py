"""Smallest subsets preserving the gcd or lcm of an integer set.

The library reduces both objectives to minimum cover over a coprime
basis (``reductions.reduce_instance``), solves covers greedily or
exactly, maps solutions back (``solver``), and applies the machinery to
pruning circulant-graph links. Everything, the exact cover search
included, is pure Python.
"""

from gcdlcm.basis import CoprimeBasis, compute_basis, exponent_profile
from gcdlcm.circulant import (
    BFS_NODE_CAP,
    CirculantGraph,
    is_connected_bfs,
    is_connected_gcd,
    prune_links,
)
from gcdlcm.errors import CapExceededError, DomainError, InfeasibleError
from gcdlcm.generate import SplitMix64, generate_instance
from gcdlcm.numeric import NatSet, gcd_set, lcm_set, natset
from gcdlcm.reductions import (
    BEliminationMap,
    CoverImage,
    CoverReduction,
    cover_to_gcd,
    cover_to_lcm,
    reduce_instance,
)
from gcdlcm.setcover import (
    CoverInstance,
    CoverSolution,
    decide_cover,
    exact_cover,
    greedy_cover,
)
from gcdlcm.solver import (
    BRUTE_FORCE_CAP,
    ProblemInstance,
    SolveStats,
    SubsetSolution,
    brute_force,
    decide,
    solve,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the cover-search backend: always "python", the only one."""
    return "python"


__all__ = [
    "BEliminationMap",
    "BFS_NODE_CAP",
    "BRUTE_FORCE_CAP",
    "CapExceededError",
    "CirculantGraph",
    "CoprimeBasis",
    "CoverImage",
    "CoverInstance",
    "CoverReduction",
    "CoverSolution",
    "DomainError",
    "InfeasibleError",
    "NatSet",
    "ProblemInstance",
    "SolveStats",
    "SplitMix64",
    "SubsetSolution",
    "brute_force",
    "compute_basis",
    "cover_to_gcd",
    "cover_to_lcm",
    "decide",
    "decide_cover",
    "exact_cover",
    "exponent_profile",
    "gcd_set",
    "generate_instance",
    "greedy_cover",
    "is_connected_bfs",
    "is_connected_gcd",
    "kernel_backend",
    "lcm_set",
    "natset",
    "prune_links",
    "reduce_instance",
    "solve",
]
