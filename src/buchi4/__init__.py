"""Exact arithmetic for length-4 integer sequences whose second difference
of squares is constantly 2: the defining surface and its birational maps,
the polynomial and rational parametrization families, classification of
integer solutions by inverse-map descent, the length-5 extension curves,
and a bounded exhaustive search with a bundled reference table.
"""

from . import families  # loads maps, poly, arith, polytext, record, assets

__version__ = "0.1.0"

# The public names, by the module that defines them.  Each resolves on
# first access (PEP 562), so that a caller who needs neither the extension
# curves, the search nor the self-checks does not load them.
_EXPORTS = {
    "arith": ("as_perfect_square", "is_perfect_square", "isqrt"),
    "poly": ("UPoly",),
    "maps": (
        "on_surface", "apply_phi", "apply_zeta", "apply_zeta_inv", "zeta_orbit",
        "pell", "normalize_point",
    ),
    "families": (
        "xi_poly", "xi_eval", "xi_closed_form", "prop33_solve", "p_value",
        "p_eval", "r_value", "r_eval", "is_trivial", "extends", "extends_left",
        "extends_right", "Classification", "classify", "descent_chain",
    ),
    "verify": ("verify_group_relations", "verify_families"),
    "curves": ("CurveSpec", "curve_rhs", "is_squarefree", "scan_integer_points"),
    "search": (
        "SearchRecord", "enumerate_sequences", "run_pipeline", "bundled_table",
        "compare_with_table",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            from importlib import import_module

            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
