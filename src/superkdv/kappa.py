"""Kappa-class machinery: mixed kappa-psi intersection numbers.

The combination class K_m is the degree-m part of exp(sum sigma_i
kappa_i t^i), where the sigma_i are fixed by requiring exp(-sum sigma_i
t^i) to equal the alternating double-factorial series
sum (-1)^k (2k+1)!! t^k.  Expanding the exponential factor by factor
gives it in closed form, one term per partition lambda of m:
K_m = sum prod sigma_{lambda_i} kappa_{lambda_i} / |Aut lambda|
(Kaufmann-Manin-Zagier).

Mixed numbers int kappa_1^{a_1} kappa_2^{a_2} ... prod psi_i^{k_i} are
computed by the pushforward recursion: int kappa_a Y = int psi^{a+1}
pullback(Y) on one more point, with kappa_b pulling back to
kappa_b - psi^b, trades one kappa factor at a time for a psi power on a
new point until only a Kontsevich-Witten correlator is left.

Two correlator tables are exposed, each computed by two independent
routes that must agree exactly.  The "zk" table integrates the full
kappa class against psi monomials, by (a) the pushforward recursion on
the kappa monomials of K_m and (b) the constant translation
t_j -> t_j + (-1)^j (2j-1)!! of the KW correlators.  The "zk-bracket"
table is in the bracketed-psi basis psi^{(k)} = sum_j psi^{k-j}/(2^j j!),
by (a) `bracket_expansion` of each entry and (b) the index shift of the
free energy.  Route (a) places the slots one at a time and merges equal
sorted partial targets, with int weights over prod 2^{k_i} k_i!; it
drops a target whose index sum passes the budget 3g-3+n, since later
slots only add and every kappa-class correlator above the dimension is 0.
Neither route function of the "zk" table is memoized: the table reads
each entry once, and the super volumes read the gBGW store of `virasoro`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .exactcore import (
    ExactCoreError,
    GradedSeries,
    Truncation,
    automorphism_factor,
    double_factorial,
    fixed_sum_multisets,
    free_energy_series,
    labelled_splits,
    partitions,
    useries_log,
)
from .tables import CorrelatorTable
from .virasoro import _correlator

# ---------------------------------------------------------------------------
# the combination classes K_m


@lru_cache(maxsize=None)
def sigma_coefficients(N: int) -> tuple[Fraction, ...]:
    """sigma_1..sigma_N with exp(-sum sigma_i t^i) = sum (-1)^k (2k+1)!! t^k."""
    if N < 1:
        raise ExactCoreError("sigma_coefficients requires N >= 1")
    series = [Fraction((-1) ** k * double_factorial(2 * k + 1)) for k in range(N + 1)]
    return tuple(-c for c in useries_log(series, order=N)[1:])


@lru_cache(maxsize=None)
def _k_m_terms(m: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """K_m as (lambda, coefficient) pairs, one per partition lambda of m:
    the kappa monomial prod kappa_{lambda_i} with coefficient
    prod sigma_{lambda_i} / |Aut lambda|."""
    if m < 0:
        raise ExactCoreError(f"K_m requires m >= 0, got {m}")
    sigma = sigma_coefficients(m) if m else ()
    return tuple(
        (lam, Fraction(prod(sigma[x - 1] for x in lam), automorphism_factor(lam)))
        for lam in partitions(m)
    )


# ---------------------------------------------------------------------------
# mixed kappa-psi numbers


def _kw_table(g: int, k) -> Fraction:
    """<prod tau_{k_i}>_g from the KW correlator store, for indices in any
    order: the one KW read of both kappa routes.  The name stays because
    `perfbench/tracer.py` binds it."""
    return _correlator("KW", g, tuple(sorted(k)))


def _normalize_kappa(kappa_exponents) -> tuple[int, ...]:
    kappa = tuple(int(e) for e in kappa_exponents)
    if any(e < 0 for e in kappa):
        raise ExactCoreError("kappa exponents must be nonnegative")
    return kappa


def kappa_psi_number(g: int, n: int, kappa_exponents, psi_exponents=()) -> Fraction:
    """int kappa_1^{a_1} kappa_2^{a_2} ... prod psi_i^{k_i} at genus g.

    `kappa_exponents` lists a_j for j = 1, 2, ...; `psi_exponents` gives
    one exponent per marked point (length n).  Returns 0 when the total
    weighted degree misses the dimension 3g - 3 + n; rejects unstable
    (g, n).
    """
    kappa = tuple(j for j, e in enumerate(_normalize_kappa(kappa_exponents), 1) for _ in range(e))
    psi = tuple(sorted(int(k) for k in psi_exponents))
    if len(psi) != n:
        raise ExactCoreError("psi_exponents must list one exponent per point")
    if any(k < 0 for k in psi):
        raise ExactCoreError("psi exponents must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise ExactCoreError(f"(g, n) = ({g}, {n}) is unstable")
    if sum(kappa) + sum(psi) != 3 * g - 3 + n:
        return Fraction(0)
    return _kappa_psi(g, kappa, psi)


@lru_cache(maxsize=None)
def _kappa_psi(g: int, kappa: tuple[int, ...], psi: tuple[int, ...]) -> Fraction:
    """On sorted multisets of kappa indices and psi powers: the KW entry
    when no kappa is left; otherwise push the highest kappa_a forward:
    int kappa_a Y = int psi^{a+1} pullback(Y) on one more point, with
    kappa_b pulling back to kappa_b - psi^b, one term per labelled split of
    the other kappas into pulled and kept (psi powers of the other points
    are unaffected under the integral against a positive power of the new psi)."""
    if not kappa:
        return _kw_table(g, psi)
    a = kappa[-1]
    total = Fraction(0)
    for pulled, kept, w in labelled_splits(kappa[:-1]):
        extra = a + 1 + sum(pulled)
        total += (-1) ** len(pulled) * w * _kappa_psi(g, kept, tuple(sorted(psi + (extra,))))
    return total


# ---------------------------------------------------------------------------
# correlator tables of the full kappa class


def _zk_route_kappa(g: int, k: tuple[int, ...]) -> Fraction:
    """Route (a): expand K_m, m = 3g - 3 + n - |k|, into kappa monomials
    and integrate each by the pushforward recursion."""
    n = len(k)
    m = 3 * g - 3 + n - sum(k)
    if m < 0:
        return Fraction(0)
    return k_m_integral(g, n, m, psi_exponents=k)


def _zk_route_shift(g: int, k: tuple[int, ...]) -> Fraction:
    """Route (b): the constant translation t_j -> t_j + (-1)^j (2j-1)!! for
    j >= 2 of the KW correlators, summed over the partitions of the kappa
    degree m into extra insertions tau_{x+1}."""
    m = 3 * g - 3 + len(k) - sum(k)
    if m < 0:
        return Fraction(0)
    total = Fraction(0)
    for parts in partitions(m):
        insertions = tuple(x + 1 for x in parts)
        signed = prod((-1) ** j * double_factorial(2 * j - 1) for j in insertions)
        weight = Fraction(signed, automorphism_factor(parts))
        total += weight * _kw_table(g, k + insertions)
    return total


@lru_cache(maxsize=16)
def zk_correlators(trunc: Truncation) -> CorrelatorTable:
    """Integrals of the full kappa class against psi monomials.

    Entry (g, k) is int K_m prod psi^{k_i} with m = 3g - 3 + n - |k|,
    computed by two independent routes that must agree: (a) the
    pushforward recursion on each kappa monomial of K_m and (b) the
    constant translation of the KW correlators.  The loop starts at
    n = 0, so the vacuum entries (g, ()) for g >= 2 are int K_{3g-3}
    over the unpointed space, computed like every other entry; they
    equal the orbifold Euler characteristic chi(M_g) (Harer-Zagier).
    """
    table = CorrelatorTable("zk", trunc)
    for g in range(trunc.gmax + 1):
        for n in range(trunc.dmax + 1):
            if 2 * g - 2 + n <= 0:
                continue
            dim = 3 * g - 3 + n
            for total in range(0, min(dim, n * trunc.kmax) + 1):
                for k in fixed_sum_multisets(n, total, trunc.kmax):
                    va = _zk_route_kappa(g, k)
                    vb = _zk_route_shift(g, k)
                    if va != vb:
                        raise ExactCoreError(
                            f"kappa-table route disagreement at (g={g}, k={k}):"
                            f" {va} != {vb}"
                        )
                    table.set(g, k, va)
    return table


def zk_free_energy(trunc: Truncation, graded: bool = True) -> GradedSeries:
    """log of the kappa-class tau function, without t-free terms.

    With `graded` the entries carry their s-powers 2 - 2g + 2|k| (the
    reconstruction from the s = 1 specialisation); without it the series
    is the s = 1 specialisation itself, every entry at s-power zero.
    The vacuum entries (g, ()) are left out: they would only multiply Z
    by the t-free factor exp(chi(hbar s^{-2})), which the operator D
    removes again.
    """
    entries = zk_correlators(trunc).entries.items()
    return free_energy_series(
        trunc, ((g, k, 1 - g + sum(k) if graded else 0, v) for (g, k), v in entries if k)
    )


def zk_partition_function(trunc: Truncation) -> GradedSeries:
    """Z^K = exp of the graded kappa-class free energy on the z-ready
    window, normalized to Z^K(0) = 1."""
    return zk_free_energy(trunc).with_window(trunc.z_window()).exp()


# ---------------------------------------------------------------------------
# bracketed-psi basis


def bracket_expansion(k: tuple[int, ...], value, budget: int) -> Fraction:
    """Expand each psi^{(k_i)} = sum_j psi^{k_i-j} / (2^j j!) and combine,
    by the int walk of the module docstring: drop j in slot k_i weighs
    2^{k_i-j} k_i!/j!, and targets past `budget` are dropped.  `value`
    maps each distinct sorted target to its correlator, read once; route
    (a) of the "zk-bracket" table is its one package reader."""
    level, den = {(): 1}, 1
    for ki in k:
        den *= 2**ki * factorial(ki)
        weights = [2 ** (ki - j) * factorial(ki) // factorial(j) for j in range(ki + 1)]
        merged = {}
        for target, w in level.items():
            for j in range(max(0, ki - budget + sum(target)), ki + 1):
                t = tuple(sorted(target + (ki - j,)))
                merged[t] = merged.get(t, 0) + w * weights[j]
        level = merged
    return Fraction(sum(w * value(t) for t, w in level.items()), den)


def bracket_psi_correlators(trunc: Truncation) -> CorrelatorTable:
    """Kappa-class correlators in the bracketed-psi basis.

    Computed by the per-entry linear combination and by the variable
    shift t_k -> sum_m t_{k+m} / (2^m m!) on the free energy; the two
    routes must agree on every entry.
    """
    zk = zk_correlators(trunc)
    shifted = zk_free_energy(trunc, graded=False).substitute(0)
    table = CorrelatorTable("zk-bracket", trunc)
    for g in range(trunc.gmax + 1):
        # route (a) sums ints: the genus-g entries over their lcm denominator
        here = {d: v for (h, d), v in zk.entries.items() if h == g}
        den = lcm(*(v.denominator for v in here.values()))
        ints = {d: v.numerator * (den // v.denominator) for d, v in here.items()}
        for n in range(1, trunc.dmax + 1):
            if 2 * g - 2 + n <= 0:
                continue
            # any index sum can be nonzero: the drops absorb an excess
            # over the dimension and the kappa class fills a deficit
            for total in range(0, n * trunc.kmax + 1):
                for k in fixed_sum_multisets(n, total, trunc.kmax):
                    va = bracket_expansion(k, lambda d: ints.get(d, 0), 3 * g - 3 + n) / den
                    vb = shifted.coefficient(g - 1, 0, k) * automorphism_factor(k)
                    if va != vb:
                        raise ExactCoreError(
                            f"bracket route disagreement at (g={g}, k={k}): {va} != {vb}"
                        )
                    table.set(g, k, va)
        if g >= 2:
            table.set(g, (), zk.get(g, ()))
    return table


# ---------------------------------------------------------------------------
# vanishing theorem


def k_m_integral(g: int, n: int, m: int, companion_kappa=(), psi_exponents=()) -> Fraction:
    """int K_m * prod kappa_j^{a_j} * prod psi_i^{k_i} at genus g."""
    companion = _normalize_kappa(companion_kappa)
    total = Fraction(0)
    for lam, coeff in _k_m_terms(m):
        exps = list(companion) + [0] * (max(lam, default=0) - len(companion))
        for x in lam:
            exps[x - 1] += 1
        total += coeff * kappa_psi_number(g, n, exps, psi_exponents)
    return total


def vanishing_check(g: int, n: int, m: int, companion_kappa=(), psi_exponents=()) -> Fraction:
    """Evaluate int K_m * companion, expected zero for m > 2g - 2 + n.

    The pair (m, n) = (3g - 3, 0) is the genuine exception where the
    integral is the Euler-characteristic constant, so it is rejected.
    """
    if (m, n) == (3 * g - 3, 0):
        raise ExactCoreError(
            f"(m, n) = ({m}, 0) is the exceptional pair at genus {g}: the "
            "integral equals the Euler-characteristic constant, not zero"
        )
    if m <= 2 * g - 2 + n:
        raise ExactCoreError(
            f"m = {m} is not in the vanishing range m > 2g - 2 + n = {2 * g - 2 + n}"
        )
    return k_m_integral(g, n, m, companion_kappa, psi_exponents)
