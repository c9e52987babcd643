"""Smallest subsets preserving the gcd or lcm of an integer set.

The library reduces both objectives to minimum cover over a coprime
basis (``reductions.reduce_instance``), solves covers greedily or
exactly, maps solutions back (``solver``), and applies the machinery to
pruning circulant-graph links. Everything, the exact cover search
included, is pure Python.

The package root is lazy (PEP 562): ``import gcdlcm`` loads no
submodule, and a public name imports its module on first access, so a
command-line call loads only what its command runs.
"""

import importlib

# public name -> the module defining it, grouped per module
_EXPORTS = {
    "basis": ("CoprimeBasis", "compute_basis", "exponent_profile"),
    "circulant": (
        "BFS_NODE_CAP",
        "CirculantGraph",
        "is_connected_bfs",
        "is_connected_gcd",
        "prune_links",
    ),
    "errors": ("CapExceededError", "DomainError", "InfeasibleError"),
    "generate": ("SplitMix64", "generate_instance"),
    "numeric": ("NatSet", "ProblemInstance", "gcd_set", "lcm_set", "natset"),
    "reductions": (
        "BEliminationMap",
        "CoverImage",
        "CoverReduction",
        "cover_to_gcd",
        "cover_to_lcm",
        "reduce_instance",
    ),
    "setcover": ("CoverInstance", "CoverSolution", "decide_cover", "exact_cover", "greedy_cover"),
    "solver": (
        "BRUTE_FORCE_CAP",
        "SolveStats",
        "SubsetSolution",
        "brute_force",
        "decide",
        "solve",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted([*_MODULE_OF, "kernel_backend"])


def kernel_backend() -> str:
    """Name of the cover-search backend: always "python", the only one."""
    return "python"


def __getattr__(name: str):
    # not cached here: the root always answers what the module now holds
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
