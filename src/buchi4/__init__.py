"""Exact arithmetic for length-4 integer sequences whose second difference
of squares is constantly 2: the defining surface and its birational maps,
the polynomial and rational parametrization families, classification of
integer solutions by inverse-map descent, the length-5 extension curves,
and a bounded exhaustive search with a bundled reference table.
"""

from .arith import as_perfect_square, is_perfect_square, isqrt
from .families import (
    Classification,
    classify,
    descent_chain,
    extends,
    extends_left,
    extends_right,
    is_trivial,
    p_eval,
    p_value,
    prop33_solve,
    r_eval,
    r_value,
    xi_closed_form,
    xi_eval,
    xi_poly,
)
from .maps import (
    apply_phi,
    apply_zeta,
    apply_zeta_inv,
    normalize_point,
    on_surface,
    pell,
    zeta_orbit,
)
from .poly import QuadExt, RatFunc, UPoly

__version__ = "0.1.0"

__all__ = [
    "as_perfect_square",
    "is_perfect_square",
    "isqrt",
    "UPoly",
    "RatFunc",
    "QuadExt",
    "on_surface",
    "apply_phi",
    "apply_zeta",
    "apply_zeta_inv",
    "zeta_orbit",
    "pell",
    "normalize_point",
    "verify_group_relations",
    "xi_poly",
    "xi_eval",
    "xi_closed_form",
    "prop33_solve",
    "p_value",
    "p_eval",
    "r_value",
    "r_eval",
    "is_trivial",
    "extends",
    "extends_left",
    "extends_right",
    "Classification",
    "classify",
    "descent_chain",
    "verify_families",
    "CurveSpec",
    "curve_rhs",
    "is_squarefree",
    "scan_integer_points",
    "SearchRecord",
    "enumerate_sequences",
    "run_pipeline",
    "bundled_table",
    "compare_with_table",
    "__version__",
]

# Resolved on first access (PEP 562), so that a caller who needs neither
# the extension curves, the search nor the self-checks does not load them.
_LAZY = {
    "verify_group_relations": "verify",
    "verify_families": "verify",
    "CurveSpec": "curves",
    "curve_rhs": "curves",
    "is_squarefree": "curves",
    "scan_integer_points": "curves",
    "SearchRecord": "search",
    "enumerate_sequences": "search",
    "run_pipeline": "search",
    "bundled_table": "search",
    "compare_with_table": "search",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
