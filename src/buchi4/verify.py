"""The symbolic self-checks behind `buchi4 verify`.

verify_group_relations() re-proves every claimed relation between the maps
of maps.py, the phi relations as exact normal-form-zero checks in the
quotient ring.  It reads phi off maps._phi_kernel, the compiled function
that every descent step runs, and checks that function against the asset's
polynomials, so the proofs hold of the code that runs and not only of the
parsed asset.  verify_families() checks everything families.py loads or
derives: the xi rows, their link to the degree-growing map, their closed
form and symmetries, the base case of the level floors of the xi inversion,
and every bundled family.  Each returns a RelationReport, one named pass or
fail per check.

The checks live apart from the maps and the families, so that importing
those, as every classification does, does not compile them.
"""

from __future__ import annotations

from typing import Tuple

from .families import (
    _XI1_FLOORS,
    F_POLY,
    _family_table,
    p_family,
    p_value,
    thirds_family,
    trivial_parameter,
    xi_closed_form,
    xi_eval,
    xi_poly,
)
from .maps import (
    MU,
    TAU,
    ZETA_TWIST,
    _phi_kernel,
    apply_zeta,
    mu,
    pell_point,
    phi_map,
    vector_on_surface,
    zeta_orbit,
)
from .mpoly import MPoly4
from .poly import UPoly

__all__ = [
    "RelationReport",
    "verify_group_relations",
    "symmetry_check",
    "negative_t_forms",
    "growth_check",
    "verify_families",
]


class RelationReport:
    """Named checks and whether each one holds."""

    def __init__(self, entries: list[tuple[str, bool]]):
        self.entries = entries

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.entries)

    def failures(self) -> list[str]:
        return [name for name, ok in self.entries if not ok]

    def __str__(self):
        width = max(len(name) for name, _ in self.entries)
        return "\n".join(
            f"{name:<{width}}  {'pass' if ok else 'FAIL'}"
            for name, ok in self.entries
        )


# -- the maps -----------------------------------------------------------------


def verify_group_relations() -> RelationReport:
    """The relations between the maps, with phi read off the compiled
    kernel that every descent step runs: at (a, b, c, d, 1) its forms are
    p1, ..., p4 and q themselves."""
    pm = phi_map()
    kernel = _phi_kernel()
    a, b, c, d = (MPoly4.coordinate(i) for i in (1, 2, 3, 4))
    *p, q = kernel(a, b, c, d, 1)
    entries: list[tuple[str, bool]] = []

    entries.append((
        "sign flips commute pairwise",
        all(
            MU[i].compose(MU[j]) == MU[j].compose(MU[i])
            for i in range(4)
            for j in range(4)
        ),
    ))
    sigma = {0: 3, 1: 2, 2: 1, 3: 0}
    entries.append((
        "reversal conjugates flips by the end-swapping permutation",
        all(
            TAU.compose(MU[i]).compose(TAU) == MU[sigma[i]]
            for i in range(4)
        ),
    ))
    entries.append((
        "reversal-flip composites have order exactly 4",
        all(
            (lambda g: g.compose(g).compose(g).compose(g).is_identity()
             and not g.compose(g).is_identity())(TAU.compose(MU[i]))
            for i in range(4)
        ),
    ))
    entries.append((
        "end-pair and middle-pair flips commute with reversal",
        TAU.compose(mu(1, 4)) == mu(1, 4).compose(TAU)
        and TAU.compose(mu(2, 3)) == mu(2, 3).compose(TAU),
    ))
    entries.append((
        "compiled kernel is the asset's involution",
        tuple(p) == pm.p and q == pm.q,
    ))
    entries.append((
        "denominator factors as stated",
        q == (b - c) ** 2 * (a - 2 * b + c),
    ))
    entries.append((
        "numerators even, denominator odd",
        all(pi.flip_signs((-1, -1, -1, -1)) == pi for pi in p)
        and q.flip_signs((-1, -1, -1, -1)) == -q,
    ))
    entries.append((
        "involution preserves the first surface equation",
        (p[0] ** 2 - 2 * p[1] ** 2 + p[2] ** 2 - 2 * q * q).vanishes_on_surface(),
    ))
    entries.append((
        "involution preserves the second surface equation",
        (p[1] ** 2 - 2 * p[2] ** 2 + p[3] ** 2 - 2 * q * q).vanishes_on_surface(),
    ))
    entries.append((
        "first alternating-sum identity",
        (p[0] - 2 * p[1] + p[2] - (a - 2 * b + c) * q).vanishes_on_surface(),
    ))
    entries.append((
        "second alternating-sum identity",
        (p[1] - 2 * p[2] + p[3] - (b - 2 * c + d) * q).vanishes_on_surface(),
    ))
    # phi(phi(x)) = x: the kernel at (p1, ..., p4, q) gives the forms
    # N_i = q^h p_i(p / q) and Q = q^h q(p / q), and N_i = x_i Q must hold
    # modulo the surface relations
    *nums, den = kernel(*p, q)
    entries.append((
        "involution composed with itself is the identity",
        all(
            (n - xi * den).vanishes_on_surface()
            for n, xi in zip(nums, (a, b, c, d))
        ),
    ))
    q_rev = q.swap_ends()
    entries.append((
        "reversal commutes with the involution",
        all(
            (p[i].swap_ends() * q - p[3 - i] * q_rev).vanishes_on_surface()
            for i in range(4)
        ),
    ))
    # With reversal commuting past phi, conjugating the composite map by the
    # reversal only touches its trivial part; that part is reversal-invariant.
    entries.append((
        "reversal commutes with the degree-growing composite",
        TAU.compose(ZETA_TWIST).compose(TAU) == ZETA_TWIST,
    ))
    # so zeta^-1 = Z zeta Z, and classify() descends in one direction only
    z = ZETA_TWIST
    entries.append((
        "the twist is an involution commuting with -1 and reversal",
        z.compose(z).is_identity()
        and all(z.compose(g) == g.compose(z) for g in (mu(1, 2, 3, 4), TAU)),
    ))
    sample = [(1, 2, 3, 4), (6, 23, 32, 39), (59, 630, 889, 1088)]
    entries.append((
        "composite map conjugation checked on sample points",
        all(
            TAU(apply_zeta(TAU(x))) == apply_zeta(x)
            for x in sample
        ),
    ))
    entries.append((
        "orbit of (1,2,3,4) follows the Pell-driven closed form",
        zeta_orbit((1, 2, 3, 4), 6)
        == [pell_point(n) for n in range(7)],
    ))
    return RelationReport(entries)


# -- structural facts about xi ------------------------------------------------

_NEG_SHIFT = UPoly((-5, -1))  # t -> -t - 5


def symmetry_check(n: int) -> bool:
    """xi4(n, t) = -xi1(n, -t-5) and xi3(n, t) = -xi2(n, -t-5), symbolically."""
    x1, x2, x3, x4 = xi_poly(n)
    return x4 == -(x1(_NEG_SHIFT)) and x3 == -(x2(_NEG_SHIFT))


def negative_t_forms(n: int) -> Tuple[Tuple[int, ...], ...]:
    """xi(n, t) for t = -1, -2, -3, -4: four trivial sequences with simple
    closed forms, asserted against the recurrence before being returned."""
    sign = 1 if n % 2 == 0 else -1
    expected = (
        (-3 * n, 3 * n + 1, 3 * n + 2, 3 * n + 3),
        tuple(sign * v for v in (n - 1, -n, n + 1, n + 2)),
        tuple(sign * v for v in (-n - 2, -n - 1, n, -n + 1)),
        (-3 * n - 3, -3 * n - 2, -3 * n - 1, 3 * n),
    )
    for t, want in zip((-1, -2, -3, -4), expected):
        got = xi_eval(n, t)
        if got != want:
            raise ArithmeticError(f"xi({n}, {t}) = {got}, expected {want}")
        if trivial_parameter(got) is None:
            raise ArithmeticError(f"xi({n}, {t}) is not trivial")
    return expected


def growth_check(n_max: int, t_max: int) -> RelationReport:
    """Exact growth inequalities for 1 <= n <= n_max, 0 <= t <= t_max:
    component ratio > 2t^2 + 10t + 9 per level, the same factor for the
    consecutive gaps, and strict increase/positivity/non-triviality of every
    xi(n, t) in the range."""
    ratio_ok = gap_ok = shape_ok = True
    for t in range(t_max + 1):
        factor = 2 * t * t + 10 * t + 9
        rows = [xi_eval(n, t) for n in range(n_max + 2)]
        for n in range(1, n_max + 1):
            cur, nxt = rows[n], rows[n + 1]
            ratio_ok &= all(b > factor * a for a, b in zip(cur, nxt))
            gap_ok &= all(
                (nxt[i + 1] - nxt[i]) > factor * (cur[i + 1] - cur[i])
                for i in range(3)
            )
        for n in range(n_max + 1):
            row = rows[n]
            shape_ok &= row[0] > 0 and all(row[i] < row[i + 1] for i in range(3))
            shape_ok &= n == 0 or trivial_parameter(row) is None
    return RelationReport([
        ("level-to-level ratio bound", ratio_ok),
        ("consecutive-gap growth bound", gap_ok),
        ("values strictly increasing, positive, non-trivial", shape_ok),
    ])


# -- the families -------------------------------------------------------------


def verify_families() -> RelationReport:
    """Symbolic self-checks of everything families.py loads or derives."""
    table = _family_table()

    def bundled(name: str) -> bool:
        return vector_on_surface(tuple(map(UPoly, table[name])))

    entries = []
    n_hi = 6
    entries.append((
        "xi rows satisfy both defining equations symbolically",
        all(vector_on_surface((*xi_poly(n), 1)) for n in range(n_hi + 1)),
    ))
    entries.append((
        "xi degrees are 2n+1",
        all(
            all(p.degree == 2 * n + 1 for p in xi_poly(n))
            for n in range(n_hi + 1)
        ),
    ))
    entries.append((
        "closed form matches the recurrence",
        all(xi_closed_form(n) == xi_poly(n) for n in range(n_hi + 1)),
    ))
    # the link between the recurrence and the map; n <= 2 keeps it to a
    # few tens of ms, and the acceptance tests take it to n = 4
    entries.append((
        "the degree-growing map carries each xi row to the next",
        all(apply_zeta(xi_poly(n)) == xi_poly(n + 1) for n in range(3)),
    ))
    entries.append((
        "end-reflection symmetry of xi",
        all(symmetry_check(n) for n in range(n_hi + 1)),
    ))
    # the base case of _invert_xi's induction: on t >= 0, f >= 10,
    # f' >= 0, a_1 >= a_0 > 0 and a'_1 >= a'_0 > 0, each read off
    # nonnegative coefficients and a positive value at 0; the integer
    # floors start at a_0(0), a_1(0), and f(0) = 10 drives them
    a0, a1 = xi_poly(0)[0], xi_poly(1)[0]
    d0, d1 = a0.derivative(), a1.derivative()
    entries.append((
        "xi1 increases on t >= 0, its level floors start 1, 6",
        all(
            all(c >= 0 for c in p)
            for p in (F_POLY - 10, F_POLY.derivative(), a0, a1 - a0, d0, d1 - d0)
        )
        and F_POLY(0) == 10
        and d0(0) > 0
        and (a0(0), a1(0)) == _XI1_FLOORS,
    ))
    ok = True
    for n in range(11):
        try:
            negative_t_forms(n)
        except ArithmeticError:
            ok = False
    entries.append(("negative arguments give the four trivial towers", ok))
    entries.append(("growth inequalities", growth_check(10, 10).ok))
    entries.append(("quartic family satisfies both equations", bundled("quartic")))
    _, nums = p_family()
    even_den, even_nums = p_family("quartic-even")
    odd_den, odd_nums = p_family("quartic-odd")
    two_t = UPoly((0, 2))
    four_t1 = UPoly((1, 4))
    entries.append((
        "even/odd integral forms are the quartic at 2t and 4t+1",
        even_den == 1
        and odd_den == 1
        and all(n(two_t) == 4 * e for n, e in zip(nums, even_nums))
        and all(n(four_t1) == 4 * o for n, o in zip(nums, odd_nums)),
    ))
    entries.append(("thirds family satisfies both equations", bundled("thirds")))
    _, tnums = thirds_family()
    entries.append((
        "thirds family numerators never 0 mod 3 together",
        all(
            any(n(t) % 3 for n in tnums)
            for t in range(3)
        ),
    ))
    entries.append((
        "all fifteen rational families satisfy both equations",
        all(bundled(str(i)) for i in range(1, 16)),
    ))
    ok = True
    for t in range(-8, 9):
        integral = all(v.denominator == 1 for v in p_value(t))
        ok &= integral == (t % 4 != 3)
    entries.append(("quartic family integral exactly off t = 3 mod 4", ok))
    return RelationReport(entries)
