"""Topological recursion on the spectral curves of the tau functions.

All four curves share x = z^2/2 with a single simple branch point at
z = 0 and the rational bidifferential B = dz dz'/(z-z')^2; they differ
only in y:

    airy    y = z                  (psi-class intersections)
    bessel  y = 1/z                (Theta-class intersections)
    ck      y = z/(z^2+s^2)        (kappa-class tau function, at z = oo)
    cns     y = cos(2 pi z)/z      (super volumes at s = 0)

The Eynard-Orantin residue recursion is evaluated per coefficient: every
stable correlator is a polynomial in the odd basis xi_k(z_i) = (2k+1)!!
z_i^{-(2k+2)} dz_i with coefficients in Q[s^2] (Q[pi^2] for cns), and in
that basis the kernel is

    K(z_1, z) = 2 sum_k xi_k(z_1) z^{2k+1} G(z) / ((2k+1)!! dz),

with the even series G(z) = 1/(4 z y(z)) computed by series inversion.
Up to the residue orientation, the coefficient of xi_{k_1}(z_1) prod
xi_rest is then 2/(2k_1+1)!! sum_p bracket_p G_{-2k_1-2-p}, where the
bracket depends only on (g, rest) and is built from lower tables
(`_bracket`).  With G reaching down to z^{-2c}, every nonzero
omega_{g,n} entry has |k| <= (1+2c)(g-1) + c n (`_omega_cached`).  G is
exact for airy, bessel and ck, and B is never truncated, so the series
order matters only for cns, which keys the caches by the order the
requested genus needs (`SpectralCurve.series_order`).  The
overall residue orientation is calibrated once so that the airy (0,3)
coefficient is 1; after that every cross-check against the symbolic
correlator tables is a genuine test.

A coefficient sum_e c_e P^e is a sparse {e: c_e} (`Coeff`) in the
curve's one parameter P (s^2 for ck, pi^2 for cns, none for airy and
bessel), from the recursion through the tables to their JSON, where
`OddDifferentialTable.to_json` puts e in the column of its engine's
parameter; the recursion carries e, so the s-power checks stay genuine.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exactcore import (
    ExactCoreError,
    Truncation,
    automorphism_factor,
    double_factorial,
    fixed_sum_multisets,
    labelled_splits,
    rational_to_str,
    shift_expansion,
)

CURVE_LABELS = ("airy", "bessel", "ck", "cns")

#: residue orientation, calibrated by requiring the airy (0,3)
#: coefficient to equal 1 (the kernel carries a leading minus sign)
_KERNEL_SIGN = -1

#: {power e of the curve's parameter: coefficient}, zero terms dropped
Coeff = dict[int, Fraction]


# ---------------------------------------------------------------------------
# spectral curves


@dataclass(frozen=True)
class SpectralCurve:
    """x = z^2/2 with y given as a truncated Laurent series in z."""

    label: str
    order: int

    def series_order(self, gmax: int) -> int:
        """The order the caches are keyed by for tables up to genus gmax.

        G is exact from order 4 on every curve but cns.  On cns (c = 0,
        so omega_{g,n} has |k| <= g - 1) the genus-g residue reads
        G_{-2k_1-2-p} with p >= -2g: a pair term sits at p = -2a-2b-4 with
        a + b <= g - 2, and a B term at p = 2m-2b-2 with b <= g - 1.  So G
        is read up to z^{2g-2}, and order max(4, 2 gmax - 2) gives the
        tables of every higher order.
        """
        if self.label != "cns":
            return 4
        return min(self.order, max(4, 2 * gmax - 2))


def spectral_curve(label: str, order: int = 40) -> SpectralCurve:
    if label not in CURVE_LABELS:
        raise ExactCoreError(f"unknown curve {label!r}")
    if order < 4:
        raise ExactCoreError("series order too small")
    return SpectralCurve(label, order)


def _dot(pairs) -> Coeff:
    """sum x y over the coefficient pairs (x, y), zero terms dropped."""
    acc = {}
    for x, y in pairs:
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _y_series(label: str, order: int) -> dict[int, Coeff]:
    if label == "airy":
        return {1: {0: Fraction(1)}}
    if label == "bessel":
        return {-1: {0: Fraction(1)}}
    if label == "ck":
        # z/(z^2+s^2) expanded at z = oo
        return {-2 * j - 1: {j: Fraction((-1) ** j)} for j in range(order // 2 + 1)}
    if label == "cns":
        # cos(2 pi z)/z with (2 pi)^{2j} stored as 4^j (pi^2)^j
        return {2 * j - 1: {j: Fraction((-4) ** j, factorial(2 * j))} for j in range(order // 2 + 1)}
    raise ExactCoreError(f"unknown curve {label!r}")


def _invert_series(a: dict[int, Coeff], order: int) -> dict[int, Coeff]:
    """1/a for a Laurent series whose terms sit on one side of a leading
    monomial c z^d with constant c; truncated `order` powers past d.

    With a_j the coefficient j powers past d and b_m that of 1/a at m
    powers past -d, the division recurrence is b_0 = 1/a_0 and
    b_m = sum_{j>=1} r_j b_{m-j} with r_j = -a_j/a_0.
    """
    for d, step in ((min(a), 1), (max(a), -1)):
        if set(a[d]) == {0}:
            break
    else:
        raise ExactCoreError("series has no invertible leading term")
    inv = 1 / a[d][0]
    r = {step * (p - d): {e: -c * inv for e, c in v.items()} for p, v in a.items() if p != d}
    b = [{0: inv}]
    for m in range(1, order + 1):
        b.append(_dot((r.get(j, {}), b[m - j]) for j in range(1, m + 1)))
    return {step * m - d: bm for m, bm in enumerate(b) if bm}


@lru_cache(maxsize=None)
def _g_series(label: str, order: int) -> dict[int, Coeff]:
    """G(z) = 1/(4 z y(z)), the even kernel prefactor."""
    four_zy = {p + 1: {e: 4 * c for e, c in v.items()} for p, v in _y_series(label, order).items()}
    return _invert_series(four_zy, order)


# ---------------------------------------------------------------------------
# correlator tables over the odd xi-basis


@dataclass
class OddDifferentialTable:
    """Coefficients of prod xi_{k_i}(z_i) per (g, sorted k), each a `Coeff`
    in the engine's parameter: pi^2 for tr-cns, s^2 for every other."""

    engine: str
    entries: dict[tuple[int, tuple[int, ...]], Coeff] = field(default_factory=dict)

    def get(self, g: int, k) -> Coeff:
        return self.entries.get((g, tuple(sorted(k))), {})

    def to_json(self) -> dict:
        """Rows {g, k, coeff}, each coeff term [s^2 power, pi^2 power, value]."""
        pi2 = self.engine == "tr-cns"
        rows = []
        for (g, k), coeff in sorted(self.entries.items()):
            terms = sorted(
                [0, e, rational_to_str(c)] if pi2 else [e, 0, rational_to_str(c)]
                for e, c in coeff.items()
            )
            rows.append({"g": g, "k": list(k), "coeff": terms})
        return {"engine": self.engine, "entries": rows}


def _df(k: int) -> int:
    """(2k+1)!!"""
    return double_factorial(2 * k + 1)


# ---------------------------------------------------------------------------
# the residue recursion


def _support_bound(c: int, g: int, n: int) -> int:
    """The largest index sum |k| of a nonzero omega_{g,n} entry when G
    reaches down to z^{-2c}."""
    return (1 + 2 * c) * (g - 1) + c * n


def _bracket(label: str, order: int, g: int, rest: tuple[int, ...]) -> dict[int, Coeff]:
    """{p: coefficient of z^p prod xi_rest dz^2} in the bracket

        omega_{g-1,n+1}(z, -z, J) + sum' omega_{g1}(z, I) omega_{g2}(-z, J \\ I)

    of omega_{g,n}, for the sorted indices `rest` of the legs J = 2..n.
    The sum runs over labelled splits of J, B = omega_{0,2} included and
    omega_{0,1} excluded.  With xi_a(z) xi_b(-z) = -(2a+1)!!(2b+1)!!
    z^{-2a-2b-4} dz^2, each stable pair contributes at p = -2a-2b-4.
    B(z, z_j) omega(-z) and its mirror cancel at odd powers of z_j; at
    z_j^{-2m-2} they give -2(2m+1)(2b+1)!!/(2m+1)!! at p = 2m-2b-2.
    Only p <= 2c - 2, the powers the residue against G can see, are kept.
    `_omega_cached` builds each bracket once, for every entry it serves.
    """
    c = -min(_g_series(label, order)) // 2
    n = len(rest) + 1
    acc = {}  # (p, e) -> coefficient

    def add(key: tuple[int, int], value: Fraction) -> None:
        got = acc.get(key)
        acc[key] = value if got is None else got + value

    def rows(gi: int, legs: tuple[int, ...]):
        return _omega_cached(label, order, gi, len(legs) + 1)[1].get(legs, ())

    if (g, n) == (1, 1):
        # omega_{0,2}(z, -z) = -dz^2/(4 z^2)
        add((-2, 0), Fraction(-1, 4))
    elif g >= 1:
        for b in range(_support_bound(c, g - 1, n + 1) - sum(rest) + 1):
            w = -_df(b)
            for a, e, v in rows(g - 1, tuple(sorted(rest + (b,)))):
                add((-2 * a - 2 * b - 4, e), w * v)

    for left, right, weight in labelled_splits(rest):
        for g1 in range(g + 1):
            g2 = g - g1
            # a split and its mirror (g2, right; g1, left) give equal terms
            if (g1, left) > (g2, right) or 2 * g1 + len(left) <= 1 or 2 * g2 + len(right) <= 1:
                continue
            weight2 = -weight if (g1, left) == (g2, right) else -2 * weight
            row2 = rows(g2, right)
            for a, e1, v1 in rows(g1, left):
                w = weight2 * v1
                for b, e2, v2 in row2:
                    add((-2 * a - 2 * b - 4, e1 + e2), w * v2)

    if (g, n) == (0, 3):
        # B(z, z_2) B(-z, z_3) and its mirror, at even powers of z_2 and z_3
        m2, m3 = rest
        add((2 * m2 + 2 * m3, 0), Fraction(-2 * (2 * m2 + 1) * (2 * m3 + 1), _df(m2) * _df(m3)))
    elif n >= 2:
        for m, mult in Counter(rest).items():
            others = list(rest)
            others.remove(m)
            w = Fraction(-2 * mult * (2 * m + 1), _df(m))
            for b, e, v in rows(g, tuple(others)):
                add((2 * m - 2 * b - 2, e), w * v)

    out = {}
    for (p, e), v in acc.items():
        if v and p <= 2 * c - 2:
            out.setdefault(p, {})[e] = v
    # only the cns series is truncated: its G holds z^q for q <= order
    if label == "cns" and out and -2 - min(out) > order:
        raise ExactCoreError("insufficient series order for the requested correlators")
    return out


@lru_cache(maxsize=None)
def _omega_cached(label: str, order: int, g: int, n: int) -> tuple[dict, dict]:
    """({sorted k: coefficient of prod xi_{k_i}(z_i)}, leg rows) of
    omega_{g,n}, nonzero entries only.  The leg rows {sorted rest:
    [(k_1, e, (2k_1+1)!! c)]} hold the z^{-2k_1-2} dz coefficients c P^e of
    omega_{g,n}(z, rest), which is how `_bracket` reads lower tables.

    The kernel K(z_1, z) = 2 sum_k xi_k(z_1) z^{2k+1} G(z)/((2k+1)!! dz)
    turns the residue into coefficient form:

        omega[k_1, rest] = 2 _KERNEL_SIGN/(2k_1+1)!! sum_p bracket_p G_{-2k_1-2-p}

    with the bracket of `_bracket`.  Support: G reaches down to z^{-2c}
    (c = 1 for airy and ck, 0 for bessel and cns), so a bracket term at
    z^p reaches k_1 <= c - 1 - p/2.  Assume the bound below for every
    lower table.  The omega_{g-1,n+1} and split terms sit at p = -2a-2b-4
    with a + b + |rest| <= (1+2c)(g-2) + c(n+1), which gives |k| = k_1 +
    |rest| <= (1+2c)(g-1) + c n.  A B term sits at p = 2m-2b-2, where
    omega_{g,n-1} reads leg m as b, so b - m + |rest| <= (1+2c)(g-1) +
    c(n-1), and k_1 <= c + b - m gives the same bound.  The seeds fit it:
    (1,1) has p = -2, so |k| <= c; (0,3) has p = 2|rest|, so |k| <= c - 1.
    Hence every nonzero entry has

        |k| <= (1+2c)(g-1) + c n,

    which is 3g-3+n for airy and ck and g-1 for bessel and cns.  Each
    entry is evaluated at every distinct first leg; the recursion singles
    that leg out, so equal values are a strong check.
    """
    if 2 * g - 2 + n <= 0 or n < 1 or g < 0:
        raise ExactCoreError(f"({g}, {n}) is not stable")
    gser = _g_series(label, order)
    top = _support_bound(-min(gser) // 2, g, n)
    values: dict[tuple[int, ...], Coeff] = {}
    rows: dict[tuple[int, ...], list] = {}
    for rest in _index_vectors(n - 1, top):
        bracket = _bracket(label, order, g, rest)
        rows[rest] = []
        for k1 in range(top - sum(rest) + 1):
            total = _dot((row, gser.get(-2 * k1 - 2 - p, {})) for p, row in bracket.items())
            rows[rest].extend((k1, e, 2 * _KERNEL_SIGN * v) for e, v in total.items())
            scale = Fraction(2 * _KERNEL_SIGN, _df(k1))
            value = {e: scale * v for e, v in total.items()}
            key = tuple(sorted(rest + (k1,)))
            if values.setdefault(key, value) != value:
                raise ExactCoreError(f"asymmetric correlator at ({g}, {n}): {key}")
    return {k: v for k, v in values.items() if v}, rows


def tr_correlators(curve: SpectralCurve, gmax: int, nmax: int) -> OddDifferentialTable:
    """All stable omega_{g,n} coefficient tables with g <= gmax, n <= nmax.

    Output entries are keyed by (g, sorted k-vector); the value is the
    coefficient of the ordered basis monomial prod xi_{k_i}(z_i), a
    symmetric function of the k_i (asserted per entry by `_omega_cached`).
    """
    if gmax < 0 or nmax < 0:
        raise ExactCoreError("gmax and nmax must be nonnegative")
    out = OddDifferentialTable(engine=f"tr-{curve.label}")
    order = curve.series_order(gmax)
    for g in range(gmax + 1):
        for n in range(1, nmax + 1):
            if 2 * g - 2 + n > 0:
                for k, coeff in _omega_cached(curve.label, order, g, n)[0].items():
                    # a copy, so a caller's edit cannot reach the cache
                    out.entries[(g, k)] = dict(coeff)
    return out


# ---------------------------------------------------------------------------
# cross-checks against the symbolic tables


def _stable_range(chi_bound: int):
    for g in range(chi_bound // 2 + 2):
        for n in range(1, chi_bound - 2 * g + 3):
            if 0 < 2 * g - 2 + n <= chi_bound:
                yield g, n


def compare_to_tables(curve: SpectralCurve, chi_bound: int = 4) -> dict:
    """Exact comparison of TR coefficients with the correlator tables.

    airy <-> psi-class intersections; bessel <-> Theta-class
    intersections; ck <-> kappa-class tau-function entries carrying the
    grading s^{2(1-g+|k|)}.  Every admissible lattice point with
    2g-2+n <= chi_bound is compared in both directions.
    """
    # the routes checked against are imported here, so the TR engine
    # itself loads none of them
    from .kappa import _zk_route_kappa
    from .virasoro import bgw_correlators, kw_correlators

    pairs = list(_stable_range(chi_bound))
    gtop = max(g for g, _ in pairs)
    ntop = max(n for _, n in pairs)
    table = tr_correlators(curve, gtop, ntop)
    mismatches = []
    compared = 0
    if curve.label in ("airy", "bessel"):
        airy = curve.label == "airy"
        if airy:
            ref = kw_correlators(Truncation(gtop, 3 * gtop - 3 + ntop, ntop, 0))
        else:
            ref = bgw_correlators(Truncation(gtop, max(gtop - 1, 0), ntop, 0))

        def index_sum(g: int, n: int) -> int:
            """The index sum of every nonzero psi (airy) or Theta (bessel) entry."""
            return 3 * g - 3 + n if airy else g - 1

        for (g, n) in pairs:
            for k in _index_vectors(n, index_sum(g, n), exact=True):
                expect = _graded(ref.get(g, k), 0)
                compared += 1
                if table.get(g, k) != expect:
                    mismatches.append((g, k, table.get(g, k), expect))
        mismatches.extend(
            (g, k, table.get(g, k), 0)
            for (g, k) in table.entries
            if sum(k) != index_sum(g, len(k))
        )
    elif curve.label == "ck":
        for (g, n) in pairs:
            for k in _index_vectors(n, 3 * g - 3 + n):
                a = 1 - g + sum(k)
                m = 3 * g - 3 + n - sum(k)
                value = _zk_route_kappa(g, n, m, tuple(sorted(k))) if a >= 0 else 0
                expect = _graded(value, a)
                compared += 1
                if table.get(g, k) != expect:
                    mismatches.append((g, k, table.get(g, k), expect))
    else:
        raise ExactCoreError(f"no symbolic reference table for {curve.label!r}")
    return {
        "curve": curve.label,
        "chi_bound": chi_bound,
        "compared": compared,
        "mismatches": mismatches,
    }


def _graded(value, a: int) -> Coeff:
    """value * P^a as a coefficient."""
    return {a: Fraction(value)} if value else {}


def _index_vectors(n: int, total: int, exact: bool = False):
    """Sorted index vectors of length n with sum == total (or <= total)."""
    sums = [total] if exact else range(total + 1)
    return sorted(k for s in sums for k in fixed_sum_multisets(n, s, s))


# ---------------------------------------------------------------------------
# eta re-expansion (spin side of the tau-function identification)


def eta_reexpand(table: OddDifferentialTable, smax: int) -> OddDifferentialTable:
    """Re-expand a ck table in the coordinate eta = (z^2 + s^2)^{1/2}.

    Uses xi^z_k = sum_{j>=0} s^{2j}/(2^j j!) xi^eta_{k+j} per leg
    (the double factorials of the basis absorb the binomial series of
    (z^2+s^2)^{-(k+1)}); terms with s-power beyond smax are dropped, so
    output entries are complete exactly when their own s-power is
    <= smax.
    """
    if table.engine != "tr-ck":
        raise ExactCoreError("eta re-expansion applies to the ck table")
    if smax < 0 or smax % 2:
        raise ExactCoreError("smax must be even and nonnegative (only s**2 ever appears)")
    jmax = smax // 2
    acc = {}  # (g, target, s-power) -> coefficient
    for (g, k), coeff in table.entries.items():
        aut_k = automorphism_factor(Counter(k).values())
        budget = jmax - min(coeff, default=jmax)
        # the expansion is that of t^k; one ordered monomial of the target
        # carries Aut(target)/Aut(k) times its t^target coefficient
        for (target, jtot), n in shift_expansion(k, budget).items():
            aut = automorphism_factor(Counter(target).values())
            w = Fraction(n * aut, aut_k * 2**jtot * factorial(jtot))
            for e, c in coeff.items():
                if e + jtot <= jmax:
                    key = (g, target, e + jtot)
                    acc[key] = acc.get(key, 0) + c * w
    out = OddDifferentialTable(engine="tr-ck-eta")
    for (g, target, e), v in acc.items():
        if v:
            out.entries.setdefault((g, target), {})[e] = v
    return out


def eta_spin_compare(curve: SpectralCurve, chi_bound: int = 3, smax: int = 4) -> dict:
    """Compare the eta re-expansion of the ck table with the spin
    correlators carrying the grading s^{2(1-g+|k|)}."""
    from .supervol import spin_value

    if curve.label != "ck":
        raise ExactCoreError("the eta comparison is defined for the ck curve")
    pairs = list(_stable_range(chi_bound))
    gtop = max(g for g, _ in pairs)
    ntop = max(n for _, n in pairs)
    eta = eta_reexpand(tr_correlators(curve, gtop, ntop), smax)
    mismatches = []
    compared = 0
    for (g, n) in pairs:
        kcap = smax // 2 + g - 1
        for k in _index_vectors(n, max(kcap, 0)):
            a = 1 - g + sum(k)
            if a < 0 or 2 * a > smax:
                continue
            expect = _graded(spin_value(g, k), a)
            compared += 1
            if eta.get(g, k) != expect:
                mismatches.append((g, k, eta.get(g, k), expect))
    return {
        "curve": "ck-eta",
        "chi_bound": chi_bound,
        "smax": smax,
        "compared": compared,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# Laplace-transform check for the cns curve

#: orientation sign of each Laplace variable, calibrated once at (1,1):
#: with -1 each leg contributes +(2k)!! xi_k instead of -(2k)!! xi_k
_LAPLACE_SIGN = -1


def cns_laplace_check(g: int, n: int) -> dict:
    """Check omega^{cns}_{g,n} = prod d/dz_i of the Laplace transform of
    the s = 0 volume polynomial, as an identity in Q[pi^2].

    L{L^{2k}} = (2k)!/z^{2k+1}, so each volume monomial contributes
    -(2k+1)! z^{-2k-2} dz = -(2k)!! xi_k per leg, up to the orientation
    of the Laplace variable; that per-leg sign _LAPLACE_SIGN is
    calibrated at (1,1) and then fixed for all (g, n).
    """
    from .supervol import volume_polynomial

    if 2 * g - 2 + n <= 0:
        raise ExactCoreError(f"({g}, {n}) is not stable")
    curve = spectral_curve("cns")
    table = tr_correlators(curve, g, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vp = volume_polynomial(g, n, 0)
    # the table holds the coefficient of one ordered monomial per sorted
    # key, so each ordering of a volume monomial must carry that same
    # coefficient; orderings that disagree are reported, not summed
    expected: dict[tuple[int, ...], Coeff] = {}
    mismatches = []
    for (a, k), coeff in vp.terms.items():
        if a != 0:
            continue
        scale = Fraction(1)
        for ki in k:
            scale *= -_LAPLACE_SIGN * double_factorial(2 * ki)
        value = {e: scale * c for e, c in coeff.items()}
        first = expected.setdefault(tuple(sorted(k)), value)
        if first != value:
            mismatches.append((k, first, value))
    keys = set(expected) | {k for (gg, k) in table.entries if gg == g and len(k) == n}
    for k in sorted(keys):
        lhs = table.get(g, k)
        rhs = expected.get(k, {})
        if lhs != rhs:
            mismatches.append((k, lhs, rhs))
    return {
        "g": g,
        "n": n,
        "compared": len(keys),
        "mismatches": mismatches,
    }
