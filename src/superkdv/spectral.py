"""Topological recursion on the spectral curves of the tau functions.

All four curves share x = z^2/2 with a single simple branch point at
z = 0 and the rational bidifferential B = dz dz'/(z-z')^2; they differ
only in y:

    airy    y = z                  (psi-class intersections)
    bessel  y = 1/z                (Theta-class intersections)
    ck      y = z/(z^2+s^2)        (kappa-class tau function, at z = oo)
    cns     y = cos(2 pi z)/z      (super volumes at s = 0)

The Eynard-Orantin residue recursion is evaluated by exact Laurent
arithmetic: every stable correlator is a polynomial in the odd basis
xi_k(z_i) = (2k+1)!! z_i^{-(2k+2)} dz_i with coefficients in Q[s^2]
(Q[pi^2] for cns), and the kernel contributes through the even series
G(z) = 1/(4 z y(z)) computed by series inversion.  The overall residue
orientation is calibrated once so that the airy (0,3) coefficient is 1;
after that every cross-check against the symbolic correlator tables is
a genuine test.

The residue step only sees a bracket term z^p with p + q <= -2 for some
power q of G, so the splitting products are formed only on the window
p <= -2 - min q (0 for airy and ck, -2 for bessel and cns).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product as iproduct
from math import factorial

from .exactcore import (
    ExactCoreError,
    FormalPolynomial,
    Truncation,
    double_factorial,
    fixed_sum_multisets,
    rational_from_str,
    rational_to_str,
)
from .kappa import _zk_route_kappa
from .supervol import spin_value, volume_polynomial
from .virasoro import bgw_correlators, kw_correlators

S2 = "s2"
PI2 = "pi2"

CURVE_LABELS = ("airy", "bessel", "ck", "cns")

#: residue orientation, calibrated by requiring the airy (0,3)
#: coefficient to equal 1 (the kernel carries a leading minus sign)
_KERNEL_SIGN = -1


# ---------------------------------------------------------------------------
# spectral curves


@dataclass(frozen=True)
class SpectralCurve:
    """x = z^2/2 with y given as a truncated Laurent series in z."""

    label: str
    order: int

    @property
    def g_series(self) -> dict[int, FormalPolynomial]:
        """G(z) = 1/(4 z y(z)), the even kernel prefactor."""
        return _g_series(self.label, self.order)


def spectral_curve(label: str, order: int = 40) -> SpectralCurve:
    if label not in CURVE_LABELS:
        raise ExactCoreError(f"unknown curve {label!r}")
    if order < 4:
        raise ExactCoreError("series order too small")
    return SpectralCurve(label, order)


@lru_cache(maxsize=None)
def _y_series(label: str, order: int) -> dict[int, FormalPolynomial]:
    one = FormalPolynomial.const(1)
    if label == "airy":
        return {1: one}
    if label == "bessel":
        return {-1: one}
    if label == "ck":
        # z/(z^2+s^2) expanded at z = oo
        return {
            -2 * j - 1: FormalPolynomial.symbol(S2, j).scale(Fraction((-1) ** j))
            if j
            else one
            for j in range(order // 2 + 1)
        }
    if label == "cns":
        # cos(2 pi z)/z with (2 pi)^{2j} stored as 4^j (pi^2)^j
        out = {}
        for j in range(order // 2 + 1):
            c = Fraction((-1) ** j * 4**j, factorial(2 * j))
            out[2 * j - 1] = FormalPolynomial.symbol(PI2, j).scale(c) if j else one
        return out
    raise ExactCoreError(f"unknown curve {label!r}")


def _accumulate(d: dict, key, value: FormalPolynomial) -> None:
    """d[key] += value, dropping the key when the sum is zero."""
    old = d.get(key)
    w = value if old is None else old + value
    if w.is_zero():
        d.pop(key, None)
    else:
        d[key] = w


def _invert_series(a: dict[int, FormalPolynomial], order: int) -> dict[int, FormalPolynomial]:
    """1/a for a Laurent series whose terms sit on one side of a leading
    monomial c z^d with constant c; truncated `order` powers past d."""
    # the leading exponent sits at one end of the support and must have
    # a constant (invertible) coefficient
    powers = sorted(a)
    d = None
    for cand in (powers[0], powers[-1]):
        coeff = a[cand]
        if coeff == coeff.constant() and coeff.constant():
            d = cand
            break
    if d is None:
        raise ExactCoreError("series has no invertible leading term")
    c0 = a[d].constant()
    # z^d/a = c0^{-1} sum_j (-r)^j with r = a/(c0 z^d) - 1
    neg_r = {p - d: v.scale(-1 / c0) for p, v in a.items() if p != d}
    out = {0: FormalPolynomial.const(1 / c0)}
    power = {0: FormalPolynomial.const(1 / c0)}
    for _ in range(order):
        nxt: dict[int, FormalPolynomial] = {}
        for p1, v1 in power.items():
            for p2, v2 in neg_r.items():
                p = p1 + p2
                if abs(p) > order:
                    continue
                _accumulate(nxt, p, v1 * v2)
        if not nxt:
            break
        power = nxt
        for p, v in nxt.items():
            _accumulate(out, p, v)
    return {p - d: v for p, v in out.items()}


@lru_cache(maxsize=None)
def _g_series(label: str, order: int) -> dict[int, FormalPolynomial]:
    y = _y_series(label, order)
    zy = {p + 1: v for p, v in y.items()}
    inv = _invert_series(zy, order)
    return {p: v.scale(Fraction(1, 4)) for p, v in inv.items()}


# ---------------------------------------------------------------------------
# correlator tables over the odd xi-basis


@dataclass
class OddDifferentialTable:
    """Coefficients of prod xi_{k_i}(z_i) per (g, n), in Q[s^2, pi^2]."""

    engine: str
    entries: dict[tuple[int, tuple[int, ...]], FormalPolynomial] = field(
        default_factory=dict
    )

    def get(self, g: int, k) -> FormalPolynomial:
        return self.entries.get((g, tuple(sorted(k))), FormalPolynomial())

    def to_json(self) -> dict:
        rows = []
        for (g, k), poly in sorted(self.entries.items()):
            coeff = sorted(
                [
                    dict(mono).get(S2, 0),
                    dict(mono).get(PI2, 0),
                    rational_to_str(c),
                ]
                for mono, c in poly.terms.items()
            )
            rows.append({"g": g, "k": list(k), "coeff": coeff})
        return {"engine": self.engine, "entries": rows}

    @classmethod
    def from_json(cls, d: dict) -> "OddDifferentialTable":
        table = cls(d["engine"])
        for row in d["entries"]:
            poly = FormalPolynomial()
            for s2p, pi2p, v in row["coeff"]:
                mono = tuple(
                    (name, p) for name, p in ((S2, s2p), (PI2, pi2p)) if p
                )
                poly = poly + FormalPolynomial({mono: rational_from_str(v)})
            table.entries[(row["g"], tuple(row["k"]))] = poly
        return table


def _df(k: int) -> int:
    """(2k+1)!!"""
    return double_factorial(2 * k + 1)


# ---------------------------------------------------------------------------
# the residue recursion

# A "factor" is a Laurent expansion in the residue variable z with the
# external-leg dependence kept symbolic: dict keyed by
# (z-power, tuple of z_j-powers over the external legs 2..n).


def _stable_factor(curve: SpectralCurve, g: int, legs: tuple[int, ...], nlegs: int):
    """omega_{g,len(legs)+1}(z, z_legs) as a factor series (dz stripped)."""
    table = _omega_ordered(curve, g, len(legs) + 1)
    out: dict[tuple[int, tuple[int, ...]], FormalPolynomial] = {}
    for kvec, poly in table.items():
        k0, krest = kvec[0], kvec[1:]
        ext = [0] * nlegs
        scale = _df(k0)
        for slot, ki in zip(legs, krest):
            ext[slot] = -2 * ki - 2
            scale *= _df(ki)
        _accumulate(out, (-2 * k0 - 2, tuple(ext)), poly.scale(scale))
    return out


def _b_factor(slot: int, nlegs: int, lmax: int):
    """omega_{0,2}(z, z_slot) = B as a factor series: coefficient of z^l
    is (l+1) z_slot^{-l-2}."""
    out = {}
    for l in range(lmax + 1):
        ext = [0] * nlegs
        ext[slot] = -l - 2
        out[(l, tuple(ext))] = FormalPolynomial.const(l + 1)
    return out


def _hat(factor):
    """Substitute z -> -z in the first argument (including the sign of dz)."""
    return {
        (p, ext): v.scale(Fraction((-1) ** (p + 1)))
        for (p, ext), v in factor.items()
    }


def _accumulate_product(out, f1, f2, pmax: int) -> None:
    """out += f1 * f2, forming only the terms with z-power p <= pmax."""
    for (p1, e1), v1 in f1.items():
        for (p2, e2), v2 in f2.items():
            if p1 + p2 > pmax:
                continue
            key = (p1 + p2, tuple(a + b for a, b in zip(e1, e2)))
            _accumulate(out, key, v1 * v2)


def _is_excluded(g: int, size: int) -> bool:
    """The inner sum excludes omega_{0,1} factors."""
    return g == 0 and size == 1


@lru_cache(maxsize=None)
def _omega_cached(label: str, order: int, g: int, n: int):
    return _omega_compute(SpectralCurve(label, order), g, n)


def _omega_ordered(curve: SpectralCurve, g: int, n: int):
    return _omega_cached(curve.label, curve.order, g, n)


def _omega_compute(curve: SpectralCurve, g: int, n: int):
    """Ordered coefficient dict {k-vector: poly} of omega_{g,n}."""
    if 2 * g - 2 + n <= 0 or n < 1 or g < 0:
        raise ExactCoreError(f"({g}, {n}) is not stable")
    nlegs = n - 1
    zero_ext = tuple([0] * nlegs)
    bracket: dict[tuple[int, tuple[int, ...]], FormalPolynomial] = {}
    gser = curve.g_series
    # bracket powers above pmax cannot reach z^{-2} against any power of G
    pmax = -2 - min(gser)

    # handle term omega_{g-1,n+1}(z, -z, z_L)
    if g >= 1:
        if (g - 1, n + 1) == (0, 2):
            # omega_{0,2}(z, -z) = -dz^2/(4 z^2)
            minus_quarter = FormalPolynomial.const(Fraction(-1, 4))
            _accumulate(bracket, (-2, zero_ext), minus_quarter)
        else:
            table = _omega_ordered(curve, g - 1, n + 1)
            for kvec, poly in table.items():
                ka, kb, krest = kvec[0], kvec[1], kvec[2:]
                ext = [0] * nlegs
                scale = -_df(ka) * _df(kb)
                for slot, ki in enumerate(krest):
                    ext[slot] = -2 * ki - 2
                    scale *= _df(ki)
                key = (-2 * ka - 2 * kb - 4, tuple(ext))
                _accumulate(bracket, key, poly.scale(scale))

    # splitting terms; each factor is built once and hatted where it is f2
    lmax = curve.order
    factors: dict[tuple[int, tuple[int, ...]], dict] = {}

    def factor(gi: int, legs: tuple[int, ...]):
        key = (gi, legs)
        if key not in factors:
            if gi == 0 and len(legs) == 1:
                factors[key] = _b_factor(legs[0], nlegs, lmax)
            else:
                factors[key] = _stable_factor(curve, gi, legs, nlegs)
        return factors[key]

    for g1 in range(g + 1):
        g2 = g - g1
        for mask in iproduct((0, 1), repeat=nlegs):
            legs1 = tuple(i for i in range(nlegs) if mask[i] == 0)
            legs2 = tuple(i for i in range(nlegs) if mask[i] == 1)
            if _is_excluded(g1, len(legs1) + 1) or _is_excluded(g2, len(legs2) + 1):
                continue
            f1 = factor(g1, legs1)
            f2 = factor(g2, legs2)
            if not f1 or not f2:
                continue
            _accumulate_product(bracket, f1, _hat(f2), pmax)

    # residue extraction: coefficient of z^{-m-1} (m odd) in G * bracket
    if curve.label == "cns" and bracket:
        deepest = -2 - min(p for p, _ in bracket)
        if deepest > curve.order:
            raise ExactCoreError(
                "insufficient series order for the requested correlators"
            )
    result: dict[tuple[int, ...], FormalPolynomial] = {}
    for (p, ext), poly in bracket.items():
        for q, gcoeff in gser.items():
            e = p + q
            if e > -2 or e % 2:
                continue
            k1 = (-e - 2) // 2
            value = (poly * gcoeff).scale(Fraction(2 * _KERNEL_SIGN, _df(k1)))
            _accumulate(result, (k1, ext), value)

    # convert external powers to the xi-basis
    table: dict[tuple[int, ...], FormalPolynomial] = {}
    for (k1, ext), poly in result.items():
        if any(x > -2 or x % 2 for x in ext):
            raise ExactCoreError(
                f"non-odd differential produced at ({g}, {n}): ext powers {ext}"
            )
        ks = tuple((-x - 2) // 2 for x in ext)
        for ki in ks:
            poly = poly.scale(Fraction(1, _df(ki)))
        _accumulate(table, (k1,) + ks, poly)
    return table


def tr_correlators(curve: SpectralCurve, gmax: int, nmax: int) -> OddDifferentialTable:
    """All stable omega_{g,n} coefficient tables with g <= gmax, n <= nmax.

    Output entries are keyed by (g, sorted k-vector); the value is the
    coefficient of the ordered basis monomial prod xi_{k_i}(z_i), a
    symmetric function of the k_i (symmetry of the output is asserted -
    the recursion distinguishes leg 1, so this is a strong check).
    """
    out = OddDifferentialTable(engine=f"tr-{curve.label}")
    for g in range(gmax + 1):
        for n in range(1, nmax + 1):
            if 2 * g - 2 + n <= 0:
                continue
            ordered = _omega_ordered(curve, g, n)
            for kvec, poly in ordered.items():
                skey = tuple(sorted(kvec))
                if (g, skey) in out.entries:
                    continue
                for perm in set(permutations(kvec)):
                    if ordered.get(perm, FormalPolynomial()) != poly:
                        raise ExactCoreError(
                            f"asymmetric correlator at ({g}, {n}): {kvec}"
                        )
                out.entries[(g, skey)] = poly
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
                expect = FormalPolynomial.const(ref.get(g, k))
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
                expect = _graded_const(value, a)
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


def _graded_const(value, a: int) -> FormalPolynomial:
    """value * s^{2a} as a polynomial (plain constant at a = 0)."""
    if not value:
        return FormalPolynomial()
    if a == 0:
        return FormalPolynomial.const(value)
    return FormalPolynomial.symbol(S2, a).scale(value)


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
    out = OddDifferentialTable(engine="tr-ck-eta")
    jmax = smax // 2
    for (g, k), poly in table.entries.items():
        n = len(k)
        for kvec in set(permutations(k)):
            for jvec in iproduct(range(jmax + 1), repeat=n):
                target = tuple(ki + ji for ki, ji in zip(kvec, jvec))
                if target != tuple(sorted(target)):
                    continue
                jtot = sum(jvec)
                scale = Fraction(1)
                for j in jvec:
                    scale /= 2**j * factorial(j)
                shifted = (
                    poly * FormalPolynomial.symbol(S2, jtot)
                    if jtot
                    else poly
                ).scale(scale)
                shifted = FormalPolynomial(
                    {
                        m: v
                        for m, v in shifted.terms.items()
                        if dict(m).get(S2, 0) <= jmax
                    }
                )
                if shifted.is_zero():
                    continue
                _accumulate(out.entries, (g, target), shifted)
    return out


def eta_spin_compare(curve: SpectralCurve, chi_bound: int = 3, smax: int = 4) -> dict:
    """Compare the eta re-expansion of the ck table with the spin
    correlators carrying the grading s^{2(1-g+|k|)}."""
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
            expect = _graded_const(spin_value(g, k), a)
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


def cns_laplace_check(g: int, n: int, order: int = 40) -> dict:
    """Check omega^{cns}_{g,n} = prod d/dz_i of the Laplace transform of
    the s = 0 volume polynomial, as an identity in Q[pi^2].

    L{L^{2k}} = (2k)!/z^{2k+1}, so each volume monomial contributes
    -(2k+1)! z^{-2k-2} dz = -(2k)!! xi_k per leg, up to the orientation
    of the Laplace variable; that per-leg sign _LAPLACE_SIGN is
    calibrated at (1,1) and then fixed for all (g, n).
    """
    if 2 * g - 2 + n <= 0:
        raise ExactCoreError(f"({g}, {n}) is not stable")
    curve = spectral_curve("cns", order)
    table = tr_correlators(curve, g, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vp = volume_polynomial(g, n, 0)
    # the table holds the coefficient of one ordered monomial per sorted
    # key, so each ordering of a volume monomial must carry that same
    # coefficient; orderings that disagree are reported, not summed
    expected: dict[tuple[int, ...], FormalPolynomial] = {}
    mismatches = []
    for (a, k), poly in vp.terms.items():
        if a != 0:
            continue
        scale = Fraction(1)
        for ki in k:
            scale *= -_LAPLACE_SIGN * double_factorial(2 * ki)
        value = poly.scale(scale)
        first = expected.setdefault(tuple(sorted(k)), value)
        if first != value:
            mismatches.append((k, first, value))
    keys = set(expected) | {k for (gg, k) in table.entries if gg == g and len(k) == n}
    for k in sorted(keys):
        lhs = table.get(g, k)
        rhs = expected.get(k, FormalPolynomial())
        if lhs != rhs:
            mismatches.append((k, lhs, rhs))
    return {
        "g": g,
        "n": n,
        "compared": len(keys),
        "mismatches": mismatches,
    }
