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

with the even series G(z) = 1/(4 z y(z)) in closed form (`_g_series`).
Up to the residue orientation, the coefficient of xi_{k_1}(z_1) prod
xi_rest is then 2/(2k_1+1)!! sum_p bracket_p G_{-2k_1-2-p}, where the
bracket depends only on (g, rest) and is built from lower tables
(`_bracket`).  With G reaching down to z^{-2c}, every nonzero
omega_{g,n} entry has |k| <= (1+2c)(g-1) + c n (`_omega_cached`).  The
genus-g residue reads G only through z^{2g-2}, so each genus holds G to
that power: all of it on airy, bessel and ck, the secant series up to it
on cns.  B is never truncated, so every table is exact and a curve is
its label.  The overall residue orientation is calibrated once so that
the airy (0,3) coefficient is 1; after that every cross-check against
the symbolic correlator tables is a genuine test.

A coefficient sum_e c_e P^e is a sparse {e: c_e} (`Coeff`) in the
curve's one parameter P (s^2 for ck, pi^2 for cns, none for airy and
bessel), from the tables to their JSON, where
`OddDifferentialTable.to_json` puts e in the column of its engine's
parameter; the recursion carries e, so the s-power checks stay genuine.
Inside the recursion no Fraction is summed: each omega_{g,n} table keeps
its leg rows as int numerators over one denominator, brackets and the
kernel dot with G run on ints, and a `Coeff` of Fractions is built only
for each output entry.
"""

from __future__ import annotations

import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from .exactcore import (
    ExactCoreError,
    Truncation,
    automorphism_factor,
    double_factorial,
    fixed_sum_multisets,
    labelled_splits,
    mismatches,
    rational_to_str,
    secant_numbers,
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


def spectral_curve(label: str) -> str:
    """The checked label, which is all that names a curve."""
    if label not in CURVE_LABELS:
        raise ExactCoreError(f"unknown curve {label!r}")
    return label


@lru_cache(maxsize=None)
def _g_series(label: str, g: int) -> dict[int, Coeff]:
    """G(z) = 1/(4 z y(z)), the even kernel prefactor, through the power
    z^{2g-2} that the genus-g residue reads: exactly 1/(4z^2) on airy, 1/4
    on bessel and (z^2+s^2)/(4z^2) on ck, and on cns sec(2 pi z)/4 =
    sum_j |E_2j| (2 pi z)^{2j} / (4 (2j)!) for j <= max(g - 1, 0), with
    (2 pi)^{2j} stored as 4^j (pi^2)^j.

    The residue reads G_{-2k_1-2-p} at bracket powers p >= -2g: a pair
    term sits at p = -2a-2b-4 with a + b <= g - 2 (on cns, where
    omega_{g,n} has |k| <= g - 1), a B term at p = 2m-2b-2 with
    b <= g - 1, and the (1,1) and (0,3) seeds at p = -2 and p >= 0.
    """
    if label == "cns":
        return {
            2 * j: {j: Fraction(e * 4**j, 4 * factorial(2 * j))}
            for j, e in enumerate(secant_numbers(max(g - 1, 0)))
        }
    quarter = Fraction(1, 4)
    return {
        "airy": {-2: {0: quarter}},
        "bessel": {0: {0: quarter}},
        "ck": {0: {0: quarter}, -2: {1: quarter}},
    }[label]


# ---------------------------------------------------------------------------
# correlator tables over the odd xi-basis


class OddDifferentialTable:
    """Coefficients of prod xi_{k_i}(z_i) per (g, sorted k), each a `Coeff`
    in the engine's parameter: pi^2 for tr-cns, s^2 for every other."""

    def __init__(self, engine: str) -> None:
        self.engine = engine
        self.entries: dict[tuple[int, tuple[int, ...]], Coeff] = {}

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


def _bracket(label: str, g: int, rest: tuple[int, ...]) -> tuple[int, dict]:
    """(D, {p: {e: N}}): the coefficient N/D P^e of z^p prod xi_rest dz^2
    in the bracket

        omega_{g-1,n+1}(z, -z, J) + sum' omega_{g1}(z, I) omega_{g2}(-z, J \\ I)

    of omega_{g,n}, for the sorted indices `rest` of the legs J = 2..n.
    The sum runs over labelled splits of J, B = omega_{0,2} included and
    omega_{0,1} excluded.  With xi_a(z) xi_b(-z) = -(2a+1)!!(2b+1)!!
    z^{-2a-2b-4} dz^2, each stable pair contributes at p = -2a-2b-4.
    B(z, z_j) omega(-z) and its mirror cancel at odd powers of z_j; at
    z_j^{-2m-2} they give -2(2m+1)(2b+1)!!/(2m+1)!! at p = 2m-2b-2.
    Only p <= 2c - 2, the powers the residue against G can see, are kept.

    The numerators are ints: each term is an int product over the
    denominator of its source (the omega_{g-1,n+1} table; the product of
    a pair's two tables; (2m+1)!! times the omega_{g,n-1} table; 4 and
    (2m_2+1)!!(2m_3+1)!! for the seeds), summed per source denominator,
    and the partial sums are brought to their lcm D once.  Each lower
    (g, n) table is fetched from `_omega_cached` once per bracket, and
    `_omega_cached` builds each bracket once, for every entry it serves.
    """
    c = -min(_g_series(label, g)) // 2
    n = len(rest) + 1
    sums = {}  # source denominator -> {(p, e): numerator}
    lower = {}  # (genus, points) -> the omega_cached triple, fetched once per bracket

    def table(gi: int, points: int):
        got = lower.get((gi, points))
        if got is None:
            got = lower[gi, points] = _omega_cached(label, gi, points)
        return got

    if (g, n) == (1, 1):
        # omega_{0,2}(z, -z) = -dz^2/(4 z^2)
        sums[4] = {(-2, 0): -1}
    elif g >= 1 and (top := _support_bound(c, g - 1, n + 1) - sum(rest)) >= 0:
        _, rows, den = table(g - 1, n + 1)
        acc = sums.setdefault(den, {})
        for b in range(top + 1):
            w = -_df(b)
            for a, e, v in rows.get(tuple(sorted(rest + (b,))), ()):
                key = (-2 * a - 2 * b - 4, e)
                acc[key] = acc.get(key, 0) + w * v

    for left, right, weight in labelled_splits(rest):
        for g1 in range(g + 1):
            g2 = g - g1
            # a split and its mirror (g2, right; g1, left) give equal terms
            if (g1, left) > (g2, right) or 2 * g1 + len(left) <= 1 or 2 * g2 + len(right) <= 1:
                continue
            weight2 = -weight if (g1, left) == (g2, right) else -2 * weight
            _, rows2, den2 = table(g2, len(right) + 1)
            _, rows1, den1 = table(g1, len(left) + 1)
            acc = sums.setdefault(den1 * den2, {})
            row2 = rows2.get(right, ())
            for a, e1, v1 in rows1.get(left, ()):
                w = weight2 * v1
                for b, e2, v2 in row2:
                    key = (-2 * a - 2 * b - 4, e1 + e2)
                    acc[key] = acc.get(key, 0) + w * v2

    if (g, n) == (0, 3):
        # B(z, z_2) B(-z, z_3) and its mirror, at even powers of z_2 and z_3
        m2, m3 = rest
        sums[_df(m2) * _df(m3)] = {(2 * m2 + 2 * m3, 0): -2 * (2 * m2 + 1) * (2 * m3 + 1)}
    elif n >= 2:
        _, rows, den = table(g, n - 1)
        for m, mult in Counter(rest).items():
            others = list(rest)
            others.remove(m)
            w = -2 * mult * (2 * m + 1)
            acc = sums.setdefault(_df(m) * den, {})
            for b, e, v in rows.get(tuple(others), ()):
                key = (2 * m - 2 * b - 2, e)
                acc[key] = acc.get(key, 0) + w * v

    den = lcm(*sums)
    out = {}
    for d, part in sums.items():
        scale = den // d
        for (p, e), v in part.items():
            if p <= 2 * c - 2:
                row = out.setdefault(p, {})
                row[e] = row.get(e, 0) + scale * v
    return den, out


@lru_cache(maxsize=None)
def _omega_cached(label: str, g: int, n: int) -> tuple[dict, dict, int]:
    """({sorted k: coefficient of prod xi_{k_i}(z_i)}, leg rows, D) of
    omega_{g,n}, nonzero entries only.  The leg rows {sorted rest:
    [(k_1, e, N)]} hold the z^{-2k_1-2} dz coefficients N/D P^e of
    omega_{g,n}(z, rest) as int numerators over the one denominator D,
    the lcm of their reduced denominators; this is how `_bracket` reads
    lower tables.  A `Coeff` of Fractions is built only for the entries.

    The kernel K(z_1, z) = 2 sum_k xi_k(z_1) z^{2k+1} G(z)/((2k+1)!! dz)
    turns the residue into coefficient form:

        omega[k_1, rest] = 2 _KERNEL_SIGN/(2k_1+1)!! sum_p bracket_p G_{-2k_1-2-p}

    with the bracket of `_bracket`, dotted with G in ints over one
    denominator per (curve, g).  Support: G reaches down to z^{-2c}
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
    gser = _g_series(label, g)
    # 2 _KERNEL_SIGN G, in ints over gden
    gden = lcm(*(v.denominator for row in gser.values() for v in row.values()))
    gint = [
        (q, [(e, int(2 * _KERNEL_SIGN * gden * v)) for e, v in row.items()])
        for q, row in gser.items()
    ]
    top = _support_bound(-min(gser) // 2, g, n)
    cells = []  # (rest, k_1, {e: numerator over dens[rest]})
    dens = {}  # rest -> the denominator of its bracket times gden
    for rest in _index_vectors(n - 1, top):
        bden, bracket = _bracket(label, g, rest)
        dens[rest] = bden * gden
        for k1 in range(top - sum(rest) + 1):
            total = {}
            for q, grow in gint:
                brow = bracket.get(-2 * k1 - 2 - q)
                if brow:
                    for e1, c1 in brow.items():
                        for e2, c2 in grow:
                            total[e1 + e2] = total.get(e1 + e2, 0) + c1 * c2
            cells.append((rest, k1, total))
    big = lcm(*dens.values())
    common = gcd(big, *(big // dens[rest] * v for rest, _, t in cells for v in t.values()))
    den = big // common
    # an entry N/(D (2k_1+1)!!) is N (2top+1)!!/(2k_1+1)!! over D (2top+1)!!
    stretch = [_df(top) // _df(k) for k in range(top + 1)]
    rows: dict[tuple[int, ...], list] = {}
    values: dict[tuple[int, ...], dict] = {}
    for rest, k1, total in cells:
        scale = big // dens[rest]
        total = {e: scale * v // common for e, v in total.items() if v}
        rows.setdefault(rest, []).extend((k1, e, v) for e, v in total.items())
        value = {e: v * stretch[k1] for e, v in total.items()}
        key = tuple(sorted(rest + (k1,)))
        if values.setdefault(key, value) != value:
            raise ExactCoreError(f"asymmetric correlator at ({g}, {n}): {key}")
    out_den = den * _df(top)
    entries = {k: {e: Fraction(v, out_den) for e, v in c.items()} for k, c in values.items() if c}
    return entries, rows, den


def tr_correlators(curve: str, gmax: int, nmax: int) -> OddDifferentialTable:
    """All stable omega_{g,n} coefficient tables with g <= gmax, n <= nmax.

    Output entries are keyed by (g, sorted k-vector); the value is the
    coefficient of the ordered basis monomial prod xi_{k_i}(z_i), a
    symmetric function of the k_i (asserted per entry by `_omega_cached`).
    An unknown curve label raises `ExactCoreError` (`spectral_curve`).
    """
    curve = spectral_curve(curve)
    if gmax < 0 or nmax < 0:
        raise ExactCoreError("gmax and nmax must be nonnegative")
    return _tr_table(
        curve, [(g, n) for g in range(gmax + 1) for n in range(1, nmax + 1) if 2 * g - 2 + n > 0]
    )


def _tr_table(curve: str, pairs: list) -> OddDifferentialTable:
    """The omega_{g,n} of the stable (g, n) in `pairs`."""
    out = OddDifferentialTable(f"tr-{curve}")
    for g, n in pairs:
        for k, coeff in _omega_cached(curve, g, n)[0].items():
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


def compare_to_tables(curve: str, chi_bound: int = 4) -> dict:
    """Exact comparison of TR coefficients with the correlator tables.

    airy <-> psi-class intersections; bessel <-> Theta-class
    intersections; ck <-> kappa-class tau-function entries carrying the
    grading s^{2(1-g+|k|)}.  Every lattice point |k| <= 3g-3+n with
    2g-2+n <= chi_bound is compared; airy and bessel also compare every
    entry either side holds in the g x n window that both span.
    """
    # the routes checked against are imported here, so the TR engine
    # itself loads none of them
    from .kappa import _zk_route_kappa
    from .virasoro import bgw_correlators, kw_correlators

    pairs = list(_stable_range(chi_bound))
    lattice = [(g, k) for g, n in pairs for k in _index_vectors(n, 3 * g - 3 + n)]
    keys = set(lattice)
    if curve == "ck":
        got = _tr_table(curve, pairs).entries
        # s-power 1 - g + |k|; the kappa degree is 3g-3+n-|k| >= 0
        want = {
            (g, k): {1 - g + sum(k): v}
            for g, k in lattice
            if 1 - g + sum(k) >= 0 and (v := _zk_route_kappa(g, k))
        }
    elif curve in ("airy", "bessel"):
        gtop = max(g for g, _ in pairs)
        ntop = max(n for _, n in pairs)
        got = tr_correlators(curve, gtop, ntop).entries
        if curve == "airy":
            store = kw_correlators(Truncation(gtop, 3 * gtop - 3 + ntop, ntop, 0))
        else:
            store = bgw_correlators(Truncation(gtop, max(gtop - 1, 0), ntop, 0))
        want = {key: {0: value} for key, value in store.entries.items()}
        keys |= got.keys() | want.keys()
    else:
        raise ExactCoreError(f"no symbolic reference table for {curve!r}")
    return {
        "curve": curve,
        "chi_bound": chi_bound,
        "compared": len(keys),
        "mismatches": mismatches(got, want, keys),
    }


def _index_vectors(n: int, total: int):
    """Sorted index vectors of length n with sum <= total."""
    return sorted(k for s in range(total + 1) for k in fixed_sum_multisets(n, s, s))


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
    out = OddDifferentialTable("tr-ck-eta")
    for (g, target, e), v in acc.items():
        if v:
            out.entries.setdefault((g, target), {})[e] = v
    return out


def eta_spin_compare(curve: str, chi_bound: int = 3, smax: int = 4) -> dict:
    """Compare the eta re-expansion of the ck table with the spin
    correlators carrying the grading s^{2(1-g+|k|)}."""
    from .supervol import spin_value

    if curve != "ck":
        raise ExactCoreError("the eta comparison is defined for the ck curve")
    pairs = list(_stable_range(chi_bound))
    eta = eta_reexpand(_tr_table(curve, pairs), smax)
    lattice = [
        (g, k)
        for g, n in pairs
        for k in _index_vectors(n, smax // 2 + g - 1)
        if 1 - g + sum(k) >= 0
    ]
    want = {(g, k): {1 - g + sum(k): v} for g, k in lattice if (v := spin_value(g, k))}
    return {
        "curve": "ck-eta",
        "chi_bound": chi_bound,
        "smax": smax,
        "compared": len(lattice),
        "mismatches": mismatches(eta.entries, want, lattice),
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
    table = _tr_table("cns", [(g, n)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vp = volume_polynomial(g, n, 0)
    # the volume is symmetric, so every ordering of a monomial carries the
    # coefficient that the table holds at its sorted key
    expected: dict[tuple[int, ...], Coeff] = {}
    for (a, k), coeff in vp.terms.items():
        if a == 0:
            scale = prod(-_LAPLACE_SIGN * double_factorial(2 * ki) for ki in k)
            expected[tuple(sorted(k))] = {e: scale * c for e, c in coeff.items()}
    got = {k: coeff for (_, k), coeff in table.entries.items()}
    keys = got.keys() | expected.keys()
    return {
        "g": g,
        "n": n,
        "compared": len(keys),
        "mismatches": mismatches(got, expected, keys),
    }
