"""Plain-text polynomial syntax shared by the bundled data files and the CLI.

Grammar, deliberately small: a polynomial is a signed sum of terms, a term is
an optional integer coefficient followed by variable factors `v` or `v^k`.
Whitespace is free.  Examples:

    t^4 + 17t^3 + 104t^2 + 262t + 204
    -2ab^3 + ab^2c + 4abc^2 - 5abcd + ab

Only integer coefficients are accepted; everything bundled with the package
is integral, and rational scaling lives in explicit denominators.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

__all__ = ["parse_terms", "parse_coeffs", "parse_upoly", "format_upoly", "format_terms"]

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z])|(\^)|([+-]))")


def parse_terms(text: str, variables: str) -> Dict[Tuple[int, ...], int]:
    """Parse into {exponent vector: coefficient} over the given variables."""
    text = text.strip()
    order = {v: i for i, v in enumerate(variables)}
    nvars = len(variables)
    terms: Dict[Tuple[int, ...], int] = {}
    pos = 0
    n = len(text)

    def bail(msg: str):
        raise ValueError(f"{msg} at position {pos}: {text!r}")

    sign = 1
    coeff = None
    exps = None
    started = False
    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m:
            bail("unexpected character")
        pos = m.end()
        number, var, caret, op = m.groups()
        if op is not None:
            if not started:
                # sign prefix before the first factor of a term
                if op == "-":
                    sign = -sign
                continue
            _flush(terms, sign, coeff, exps, nvars, bail)
            sign, coeff, exps, started = (1 if op == "+" else -1), None, None, False
        elif number is not None:
            if started:
                bail("misplaced number")
            coeff = int(number)
            started = True
        elif var is not None:
            if var not in order:
                bail(f"unknown variable {var!r}")
            if exps is None:
                exps = [0] * nvars
            k = 1
            m2 = _TOKEN.match(text, pos)
            if m2 and m2.group(3) == "^":
                pos = m2.end()
                m3 = _TOKEN.match(text, pos)
                if not m3 or m3.group(1) is None:
                    bail("exponent expected after '^'")
                k = int(m3.group(1))
                pos = m3.end()
            exps[order[var]] += k
            started = True
        elif caret is not None:
            bail("misplaced '^'")
    if not started:
        if terms or sign != 1:
            bail("dangling sign")
        return terms
    _flush(terms, sign, coeff, exps, nvars, bail)
    return terms


def _flush(terms, sign, coeff, exps, nvars, bail):
    if coeff is None and exps is None:
        bail("empty term")
    c = sign * (1 if coeff is None else coeff)
    key = tuple(exps) if exps is not None else (0,) * nvars
    terms[key] = terms.get(key, 0) + c
    if terms[key] == 0:
        del terms[key]


def parse_coeffs(text: str, variable: str = "t") -> list[int]:
    """Parse a univariate polynomial into its integer coefficients, constant
    first, up to the degree ([] for zero)."""
    terms = parse_terms(text, variable)
    coeffs = [0] * (max(k[0] for k in terms) + 1 if terms else 0)
    for (e,), c in terms.items():
        coeffs[e] = c
    return coeffs


def parse_upoly(text: str, variable: str = "t"):
    from .poly import UPoly

    return UPoly(parse_coeffs(text, variable))


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


def format_upoly(p, variable: str = "t") -> str:
    terms = {(k,): c for k, c in enumerate(p.coeffs) if c}
    return format_terms(terms, variable)
