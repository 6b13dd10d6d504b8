r"""Plain-text polynomial syntax shared by the bundled data files and the CLI.

A polynomial is a sequence of terms, each matched by the pattern

    ([+-][\s+-]*)?(?=[0-9A-Za-z])([0-9]*)\s*((?:[A-Za-z]\s*(?:\^\s*[0-9]+\s*)?)*)

that is, a sign run (its parity is the sign), an integer coefficient and
variable factors `v` or `v^k`, with at least a coefficient or a factor.
Every term but the first starts with a sign; whitespace may sit between
any two tokens.  Terms are matched in turn from the start of the text, and
whatever is left over raises ValueError.  The empty text is zero.  Examples:

    t^4 + 17t^3 + 104t^2 + 262t + 204
    -2ab^3 + ab^2c + 4abc^2 - 5abcd + ab

Only integer coefficients are accepted; everything bundled with the package
is integral, and rational scaling lives in explicit denominators.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

__all__ = ["parse_terms", "parse_coeffs", "parse_upoly", "format_upoly", "format_terms"]

# the module docstring quotes this pattern, and tests/test_poly.py checks it
_TERM = re.compile(
    r"([+-][\s+-]*)?(?=[0-9A-Za-z])([0-9]*)\s*"
    r"((?:[A-Za-z]\s*(?:\^\s*[0-9]+\s*)?)*)"
)
_FACTOR = re.compile(r"([A-Za-z])\s*(?:\^\s*([0-9]+))?")


def parse_terms(text: str, variables: str) -> Dict[Tuple[int, ...], int]:
    """Parse into {exponent vector: coefficient} over the given variables."""
    text = text.strip()
    order = {v: i for i, v in enumerate(variables)}
    terms: Dict[Tuple[int, ...], int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (pos and m[1] is None):
            raise ValueError(f"malformed polynomial at position {pos}: {text!r}")
        signs, coeff, mono = m.groups()
        exps = [0] * len(variables)
        for var, k in _FACTOR.findall(mono):
            if var not in order:
                raise ValueError(f"unknown variable {var!r}: {text!r}")
            exps[order[var]] += int(k or 1)
        key = tuple(exps)
        c = terms.get(key, 0) + (-1) ** (signs or "").count("-") * int(coeff or 1)
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
        pos = m.end()
    return terms


def parse_coeffs(text: str) -> list[int]:
    """Parse a polynomial in t into its integer coefficients, constant
    first, up to the degree ([] for zero)."""
    terms = parse_terms(text, "t")
    coeffs = [0] * (max(k[0] for k in terms) + 1 if terms else 0)
    for (e,), c in terms.items():
        coeffs[e] = c
    return coeffs


def parse_upoly(text: str):
    from .poly import UPoly

    return UPoly(parse_coeffs(text))


def _coeff_str(c) -> str:
    if getattr(c, "denominator", 1) != 1:
        return f"({c.numerator}/{c.denominator})"
    return str(int(c))


def format_terms(terms: Dict[Tuple[int, ...], int], variables: str) -> str:
    """Render with exponent vectors in descending lexicographic order."""
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        mono = "".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(variables, key)
            if e
        )
        if not mono:
            body = _coeff_str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = _coeff_str(abs(c)) + mono
        parts.append(("- " if c < 0 else "+ ") + body)
    head = parts[0]
    head = ("-" + head[2:]) if head.startswith("- ") else head[2:]
    return " ".join([head] + parts[1:])


def format_upoly(p) -> str:
    terms = {(k,): c for k, c in enumerate(p.coeffs) if c}
    return format_terms(terms, "t")
