"""Exact two-point correlators <tau_k tau_{3g-1-k}> of 2D topological gravity.

Two independent computation paths, each run on integer rows over one
per-genus denominator: a genus recursion seeded from the string and dilaton
equations, and a closed form telescoped from binomial differences.  Each
path's row source (``closedform.two_point_closed``, ``recursion.recursive_row``)
hands out L(g) with the integers S(g, k) = N(g) <tau_k tau_{3g-1-k}>, where
N(g) = 24^g g! L(g); rows stay integers up to the printed text, and no
``Fraction`` is built on the way.  ``verification`` checks both paths against
each other and against every recursion they must satisfy, by exact equality.
A layer module loads on first use of one of its names (PEP 562
``__getattr__``).
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYERS = {  # each layer's __all__, in order; each layer reads its own from here
    "closedform": "b_domain_max b_value normalize two_point_closed",
    "combinatorics": "double_factorial_odd odd_lcm rational_str",
    "recursion": "genus_row recursive_row",
    "verification": "CheckFailure CheckReport cross_validate check_symmetry check_bounds "
    "check_residual_tau check_residual_a check_residual_b",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
