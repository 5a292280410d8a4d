"""Virasoro constraints and correlator store of the KW and generalized BGW models.

Both models satisfy constraints of the shape

    (2m + 2c + 1)!! d/dt_{m+c} Z = (L_m + shift) Z,

with c = 1 for KW (m >= -1) and c = 0 for the generalized BGW model
(m >= 0, shift = s**2/(2 hbar) at m = 0), where

    L_m = (hbar/2) sum_{i+j=m-1} (2i+1)!!(2j+1)!! d2/dt_i dt_j
        + sum_i ((2i+2m+1)!!/(2i-1)!!) t_i d/dt_{i+m}
        + (1/8) delta_{m,0} + (t_0**2 / (2 hbar)) delta_{m,-1}.

Read off at the coefficient of t_K in log Z, the constraint with
m = k* - c is a recursion for single correlators (Dijkgraaf-Verlinde-
Verlinde for KW; its analogue for gBGW, Alexandrov arXiv:1608.01627):

    (2k*+1)!! <tau_{k*} tau_K>_g
        = sum_{j in K} (2k_j+2m+1)!!/(2k_j-1)!! <tau_{k_j+m} tau_{K-j}>_g
        + 1/2 sum_{i+j=m-1} (2i+1)!!(2j+1)!! [<tau_i tau_j tau_K>_{g-1}
              + sum_{g1+g2=g, I+J=K} <tau_i tau_I>_{g1} <tau_j tau_J>_{g2}]
        + constants,

where I+J runs over the labelled splittings of K and the constants are
1/8 at (g, K, m) = (1, {}, 0), 1/2 for gBGW at (0, {}, 0) and 1 for KW
at (0, {0, 0}, -1).  The constraint is an identity of Z for every m, so
the recursion holds with k* any index of the entry, not only the
largest.  The store pivots on k* = k_0, the smallest index, when
k_0 <= c, and on the largest index otherwise.  Writing |K| for the
number of points of K and sum K for its index sum, the small pivots
are, for KW, the string equation (k* = 0, m = -1: only the linear
term, with coefficient 1) and the dilaton equation (k* = 1, m = 0:
the factor (|K| + 2 sum K)/3 = 2g-2+|K|), and for gBGW the m = 0
equation <tau_0 tau_K>_g = (|K| + 2 sum K) <tau_K>_g.  None of them has
a quadratic term, so an entry padded with tau_0 and tau_1 (the kappa
pull-back adds up to n + w of them) reduces to entries on fewer points
without the labelled splits of its padding that the largest index
would pay for.  The seeds <tau_0^3>_0, <tau_1>_1 and the gBGW
<tau_0>_0 are the constant terms.

Every entry on the right has a lower genus, fewer points, or (the
gBGW genus-0 one-point factors at the largest pivot) the same genus and
points with a smaller index sum; the small pivots drop n by one.  So
the recursion terminates, and one memoized function of (model, g,
sorted k) is the correlator store of each model.  The tables and the
free energy are views of it.

The recursion sums no Fraction: each term is an int product over the
denominator of its source entries, summed per denominator; the sums are
brought to their lcm once and one Fraction is built per entry.  The
(i, j) and (j, i) quadratic terms are equal, since the labelled splits
are symmetric under swapping I and J with g1 <-> g2, so each unordered
pair i <= j is formed once.

The direct-operator oracle below, the KdV and the homogeneity checks
test the store's output independently on log Z itself: conjugated by
e^F, the constraint operator reads d_i Z / Z = F_i and
d_i d_j Z / Z = F_ij + F_i F_j.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactcore import (
    ExactCoreError,
    GradedSeries,
    Truncation,
    double_factorial,
    fixed_sum_multisets,
    free_energy_series,
    labelled_splits,
)
from .tables import CorrelatorTable

#: c in the constrained derivative d/dt_{m+c}, per model; m >= -c
OFFSET = {"KW": 1, "gBGW": 0}


def quadratic_coefficient(i: int, j: int) -> int:
    """(2i+1)!!(2j+1)!!, the weight of hbar d2/dt_i dt_j in L_m."""
    return double_factorial(2 * i + 1) * double_factorial(2 * j + 1)


def linear_coefficient(i: int, m: int) -> Fraction:
    """(2i+2m+1)!!/(2i-1)!!, the weight of t_i d/dt_{i+m} in L_m."""
    return Fraction(double_factorial(2 * i + 2 * m + 1), double_factorial(2 * i - 1))


# ---------------------------------------------------------------------------
# windows


def solve_truncation(model: str, trunc: Truncation) -> Truncation:
    """Window of `free_energy(model, trunc)`, on which the oracle reads F.

    The constraint at t-degree d reads F at degree d+2 (the hbar d2/dt_i
    dt_j term), so degrees are padded by 2.  The index bound comes from
    gradings: KW entries vanish unless sum k = 3g-3+n, BGW entries unless
    0 <= 2-2g+2|k| <= smax, so no nonzero entry of degree <= dmax_int
    carries an index above kmax_int.
    """
    dmax_int = trunc.dmax + 2
    if model == "KW":
        kmax_int = 3 * trunc.gmax - 3 + dmax_int
        smax_int = 0
    else:
        kmax_int = trunc.smax // 2 + trunc.gmax - 1
        smax_int = trunc.smax
    return Truncation(trunc.gmax, max(kmax_int, 0), dmax_int, smax_int)


def _admissible_sums(model: str, work: Truncation, g: int, n: int) -> list[int]:
    """Values of sum(k) a nonzero entry at (g, n) can carry.

    KW entries need sum k = 3g-3+n exactly (and stability); gBGW entries
    carry s-power 2-2g+2 sum(k), bounded by [0, smax]."""
    if model == "KW":
        s = 3 * g - 3 + n
        return [s] if 2 * g - 2 + n > 0 and s >= 0 else []
    return list(range(max(0, g - 1), g - 1 + work.amax + 1))


# ---------------------------------------------------------------------------
# the correlator store


def _with(k: tuple[int, ...], *extra: int) -> tuple[int, ...]:
    return tuple(sorted(k + extra))


@lru_cache(maxsize=None)
def _correlator(model: str, g: int, k: tuple[int, ...]) -> Fraction:
    """<prod tau_{k_i}>_g of the model, for a sorted index tuple with n >= 1.

    Zero outside the support (KW: 2g-2+n > 0 and |k| = 3g-3+n; gBGW:
    1-g+|k| >= 0).  Inside it, the entry is `_recursion` at one pivot:
    the constraint for m = k* - c holds at the coefficient of every
    t-monomial of log Z, so any index k* of k gives the value.  The
    pivot is k_0 when k_0 <= c (string and dilaton for KW, the m = 0
    factor for gBGW), which leaves one point fewer, and the largest
    index otherwise, which leaves lower genus, fewer points or a smaller
    index sum; so every chain of calls ends at the constant terms.
    """
    if g < 0:
        return Fraction(0)
    if model == "KW":
        if 2 * g - 2 + len(k) <= 0 or sum(k) != 3 * g - 3 + len(k):
            return Fraction(0)
    elif 1 - g + sum(k) < 0:
        return Fraction(0)
    pivot = k[0] if k[0] <= OFFSET[model] else k[-1]
    return _recursion(model, g, k, pivot)


def _recursion(model: str, g: int, k: tuple[int, ...], kstar: int) -> Fraction:
    """The constraint m = kstar - c read off at the entry <tau_k>_g, solved
    for it; `kstar` is any index of the sorted tuple k.

    Each term is an int product over the denominator of its source
    entries, summed per denominator in `sums` (`linear_coefficient` is
    an int since m >= -1); the sums are brought to their lcm once, and
    one Fraction is built for the entry.  Each unordered pair
    i <= j = m-1-i is formed once, with weight (2i+1)!!(2j+1)!!, over 2
    when i = j: the (i, j) and (j, i) terms are equal, since
    `labelled_splits` is symmetric under swapping left and right, and
    the genus sum under g1 <-> g - g1.
    """
    at = k.index(kstar)
    rest = k[:at] + k[at + 1:]
    m = kstar - OFFSET[model]
    sums: dict[int, int] = {}  # source denominator -> numerator
    for kj, e in Counter(rest).items():
        if kj + m >= 0:
            p = rest.index(kj)
            v = _correlator(model, g, _with(rest[:p] + rest[p + 1:], kj + m))
            if v:
                w = e * linear_coefficient(kj, m).numerator
                d = v.denominator
                sums[d] = sums.get(d, 0) + w * v.numerator
    splits = labelled_splits(rest) if m >= 1 else []
    for i in range((m + 1) // 2):
        j = m - 1 - i
        qc = quadratic_coefficient(i, j)
        half = 2 if i == j else 1
        v = _correlator(model, g - 1, _with(rest, i, j))
        if v:
            d = half * v.denominator
            sums[d] = sums.get(d, 0) + qc * v.numerator
        for left, right, w in splits:
            left, right, qw = _with(left, i), _with(right, j), qc * w
            for g1 in range(g + 1):
                lv = _correlator(model, g1, left)
                if lv:
                    rv = _correlator(model, g - g1, right)
                    if rv:
                        d = half * lv.denominator * rv.denominator
                        sums[d] = sums.get(d, 0) + qw * lv.numerator * rv.numerator
    if m == 0 and not rest:
        if g == 1:
            sums[8] = sums.get(8, 0) + 1
        if g == 0 and model == "gBGW":
            sums[2] = sums.get(2, 0) + 1
    if m == -1 and g == 0 and rest == (0, 0):
        sums[1] = sums.get(1, 0) + 1
    den = lcm(*sums)
    return Fraction(sum(den // d * v for d, v in sums.items()), den * double_factorial(2 * kstar + 1))


def _stored_entries(model: str, window: Truncation):
    """(g, k, s**2-power, value) of every nonzero entry in `window`."""
    if model not in OFFSET:
        raise ExactCoreError(f"unknown model {model!r}")
    for g in range(window.gmax + 1):
        for n in range(1, window.dmax + 1):
            for total in _admissible_sums(model, window, g, n):
                a = 0 if model == "KW" else 1 - g + total
                for k in fixed_sum_multisets(n, total, window.kmax):
                    v = _correlator(model, g, k)
                    if v:
                        yield g, k, a, v


@lru_cache(maxsize=16)
def free_energy(model: str, trunc: Truncation) -> GradedSeries:
    """log Z for the model: every nonzero store entry of solve_truncation(model, trunc)."""
    work = solve_truncation(model, trunc)
    return free_energy_series(work, _stored_entries(model, work))


def partition_function(model: str, trunc: Truncation) -> GradedSeries:
    """Z = exp(log Z), complete within trunc.z_window(): the solve window
    holds every entry of degree <= trunc.dmax."""
    return free_energy(model, trunc).restrict(trunc.z_window()).exp()


# ---------------------------------------------------------------------------
# correlator tables


def _table(engine: str, model: str, trunc: Truncation) -> CorrelatorTable:
    table = CorrelatorTable(engine, trunc)
    for g, k, _, v in _stored_entries(model, trunc):
        table.set(g, k, v)
    return table


def kw_correlators(trunc: Truncation) -> CorrelatorTable:
    """Psi-class intersection numbers <prod tau_{k_i}>_g."""
    return _table("kw", "KW", trunc)


def bgw_correlators(trunc: Truncation) -> CorrelatorTable:
    """Generalized BGW correlators, implicit s-power 2 - 2g + 2|k|."""
    return _table("bgw", "gBGW", trunc)


# ---------------------------------------------------------------------------
# direct-operator oracle and residual checks


def apply_virasoro_oracle(F: GradedSeries, model: str, m: int) -> GradedSeries:
    """Residual e^{-F} ((2m+2c+1)!! d/dt_{m+c} - L_m - shift) e^F of a
    free energy F, read on F through d_i Z/Z = F_i and d_i d_j Z/Z =
    F_ij + F_i F_j:

        lhs F_{m+c} - sum_{i+j=m-1} (qc/2) hbar (F_ij + F_i F_j)
            - sum_i lin(i, m) t_i F_{i+m} - constants.

    A constant term of F cancels under the conjugation.  The result is
    exact on keys two t-degrees below F's window and where F holds every
    index the linear terms read; callers certify via a restriction.
    """
    c = OFFSET[model]
    if m < -c:
        raise ExactCoreError(f"m={m} below model minimum {-c}")
    tr = F.trunc
    derived: dict[int, GradedSeries] = {}

    def d(i: int) -> GradedSeries:
        if i not in derived:
            derived[i] = F.derive(i)
        return derived[i]

    res = d(m + c).scale(double_factorial(2 * m + 2 * c + 1))
    # F_i F_j only on the degrees the result is exact on
    low = tr._replace(dmax=max(tr.dmax - 2, 0))
    # the (i, j) and (j, i) terms are equal: form each unordered pair once
    for i in range((m + 1) // 2):
        j = m - 1 - i
        second = d(i).derive(j) + (d(i).restrict(low) * d(j).restrict(low)).with_window(tr)
        weight = Fraction(quadratic_coefficient(i, j), 2 if i == j else 1)
        res = res - second.shift(dh=1).scale(weight)
    for i in range(max(-m, 0), tr.kmax - m + 1):
        res = res - d(i + m).times_t(i).scale(linear_coefficient(i, m))
    if m == 0:
        res = res - GradedSeries.term(tr, Fraction(1, 8))
        if model == "gBGW":
            res = res - GradedSeries.term(tr, Fraction(1, 2), h=-1, a=1)
    if m == -1:
        res = res - GradedSeries.term(tr, Fraction(1, 2), h=-1, t=(0, 0))
    return res


def virasoro_oracle_residual(model: str, trunc: Truncation, m: int) -> GradedSeries:
    """Certified-zero oracle residual for the solved log Z of `model`.

    Applies the constraint, conjugated by e^F, to the free energy on the
    solve window and restricts to `trunc` (s-free for KW).  The window
    holds F to degree trunc.dmax + 2, which every residual key of degree
    <= trunc.dmax reads, and by the gradings no nonzero entry of that
    degree has an index above the window's kmax: every index the linear
    and derivative terms read is present, so the residual is complete on
    indices up to min(trunc.kmax, kmax of the solve window).
    """
    F = free_energy(model, trunc)
    cert = Truncation(
        trunc.gmax,
        min(trunc.kmax, F.trunc.kmax),
        trunc.dmax,
        trunc.smax if model == "gBGW" else 0,
    )
    return apply_virasoro_oracle(F, model, m).restrict(cert)


def check_homogeneity(F: GradedSeries) -> GradedSeries:
    """Residual of (d/dt_0 - sum (2k+1) t_k d/dt_k) F - s**2/(2 hbar) - 1/8
    for a free energy F = log Z.

    Complete on keys with one t-degree of margin; restricted accordingly.
    """
    tr = F.trunc
    if tr.dmax < 1:
        raise ExactCoreError("truncation too small to certify any homogeneity order")
    res = F.derive(0)
    for k in range(tr.kmax + 1):
        res = res - F.derive(k).times_t(k).scale(2 * k + 1)
    res = res - GradedSeries.term(tr, Fraction(1, 2), h=-1, a=1)
    res = res - GradedSeries.term(tr, Fraction(1, 8))
    cert = Truncation(tr.gmax, tr.kmax, tr.dmax - 1, tr.smax)
    return res.restrict(cert)


def kdv_residual(F: GradedSeries) -> tuple[GradedSeries, int]:
    """Residual of U_{t_1} - U U_{t_0} - (hbar/12) U_{t_0 t_0 t_0} for
    U = hbar d2/dt_0^2 F and a free energy F = log Z.

    Returns (residual, certified t-degree): the residual is complete and
    exact for t-degrees up to dmax - 5.  F's own window suffices: U has
    hbar-power >= 0, so no product term reaches the certified keys from
    outside it.
    """
    tr = F.trunc
    cert_deg = tr.dmax - 5
    if cert_deg < 0 or tr.kmax < 1:
        raise ExactCoreError("truncation too small to certify any KdV order")
    U = F.derive(0).derive(0).shift(dh=1)
    res = (
        U.derive(1)
        - U * U.derive(0)
        - U.derive(0).derive(0).derive(0).shift(dh=1).scale(Fraction(1, 12))
    )
    cert = Truncation(tr.gmax, tr.kmax, cert_deg, tr.smax)
    return res.restrict(cert), cert_deg
