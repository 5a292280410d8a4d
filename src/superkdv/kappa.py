"""Kappa-class machinery: mixed kappa-psi intersection numbers.

The generating polynomials K_m are produced by exponentiating the
sigma-weighted kappa series, where the sigma_i are fixed by requiring
exp(-sum sigma_i t^i) to equal the alternating double-factorial series
sum (-1)^k (2k+1)!! t^k.

Mixed numbers int kappa_1^{a_1} kappa_2^{a_2} ... prod psi_i^{k_i} are
computed by the pushforward recursion: int kappa_a Y = int psi^{a+1}
pullback(Y) on one more point, with kappa_b pulling back to
kappa_b - psi^b, trades one kappa factor at a time for a psi power on a
new point until only a Kontsevich-Witten correlator is left.

Two correlator tables are exposed: the "zk" table of integrals of the
full kappa class against psi monomials, and the "zk-bracket" table in
the bracketed-psi basis psi^{(k)} = sum_j psi^{k-j} / (2^j j!).  Each is
computed by two independent routes that must agree exactly; for "zk"
they are (a) the pushforward recursion on the kappa monomials of K_m and
(b) the constant translation t_j -> t_j + (-1)^j (2j-1)!! of the KW
correlators.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from itertools import product as iproduct

from .exactcore import (
    ExactCoreError,
    FormalPolynomial,
    GradedSeries,
    Truncation,
    automorphism_factor,
    double_factorial,
    euler_characteristic_constant,
    fixed_sum_multisets,
    free_energy_series,
    mono_from_dict,
    partitions,
    useries_exp_poly,
    useries_log,
)
from .tables import CorrelatorTable
from .virasoro import _correlator

# ---------------------------------------------------------------------------
# generating polynomials


@lru_cache(maxsize=None)
def sigma_coefficients(N: int) -> tuple[Fraction, ...]:
    """sigma_1..sigma_N with exp(-sum sigma_i t^i) = sum (-1)^k (2k+1)!! t^k."""
    if N < 1:
        raise ExactCoreError("sigma_coefficients requires N >= 1")
    series = [Fraction((-1) ** k * double_factorial(2 * k + 1)) for k in range(N + 1)]
    return tuple(-c for c in useries_log(series, order=N)[1:])


@lru_cache(maxsize=None)
def k_polynomials(N: int) -> tuple[FormalPolynomial, ...]:
    """K_0..K_N, homogeneous of weighted degree m in kappa_1..kappa_m.

    Generated by sum K_m t^m = exp(sum sigma_i kappa_i t^i); symbols are
    named "k1", "k2", ... with weight j for "kj".
    """
    if N < 0:
        raise ExactCoreError("k_polynomials requires N >= 0")
    sigma = sigma_coefficients(N) if N >= 1 else ()
    gen = [FormalPolynomial()] + [
        FormalPolynomial.symbol(f"k{i}").scale(sigma[i - 1]) for i in range(1, N + 1)
    ]
    return tuple(useries_exp_poly(gen, order=N))


# ---------------------------------------------------------------------------
# mixed kappa-psi numbers


def _kw_table(g: int, k) -> Fraction:
    """<prod tau_{k_i}>_g from the KW correlator store, for indices in any
    order: the one KW read of both kappa routes.  The name stays because
    `perfbench/tracer.py` binds it."""
    return _correlator("KW", g, tuple(sorted(k)))


def _kappa_weight(kappa: tuple[int, ...]) -> int:
    return sum((i + 1) * e for i, e in enumerate(kappa))


def _normalize_kappa(kappa_exponents) -> tuple[int, ...]:
    kappa = tuple(int(e) for e in kappa_exponents)
    if any(e < 0 for e in kappa):
        raise ExactCoreError("kappa exponents must be nonnegative")
    while kappa and kappa[-1] == 0:
        kappa = kappa[:-1]
    return kappa


def kappa_psi_number(g: int, n: int, kappa_exponents, psi_exponents=()) -> Fraction:
    """int kappa_1^{a_1} kappa_2^{a_2} ... prod psi_i^{k_i} at genus g.

    `kappa_exponents` lists a_j for j = 1, 2, ...; `psi_exponents` gives
    one exponent per marked point (length n).  Returns 0 when the total
    weighted degree misses the dimension 3g - 3 + n; rejects unstable
    (g, n).
    """
    kappa = _normalize_kappa(kappa_exponents)
    psi = tuple(sorted(int(k) for k in psi_exponents))
    if len(psi) != n:
        raise ExactCoreError("psi_exponents must list one exponent per point")
    if any(k < 0 for k in psi):
        raise ExactCoreError("psi exponents must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise ExactCoreError(f"(g, n) = ({g}, {n}) is unstable")
    if _kappa_weight(kappa) + sum(psi) != 3 * g - 3 + n:
        return Fraction(0)
    return _kappa_psi(g, kappa, psi)


@lru_cache(maxsize=None)
def _kappa_psi(g: int, kappa: tuple[int, ...], psi: tuple[int, ...]) -> Fraction:
    """The KW entry when no kappa is left; otherwise push the highest kappa
    factor forward: int kappa_a Y = int psi^{a+1} pullback(Y) on one more
    point, with kappa_b pulling back to kappa_b - psi^b (psi powers of the
    other points are unaffected under the integral against a positive
    power of the new psi)."""
    if not kappa:
        return _kw_table(g, psi)
    a = len(kappa)  # kappa normalized: last exponent positive
    remaining = list(kappa)
    remaining[a - 1] -= 1
    total = Fraction(0)
    for choice in iproduct(*[range(e + 1) for e in remaining]):
        coeff = 1
        for e, c in zip(remaining, choice):
            coeff *= comb(e, c) * (-1) ** c
        reduced = _normalize_kappa(e - c for e, c in zip(remaining, choice))
        extra = a + 1 + sum((b + 1) * c for b, c in enumerate(choice))
        total += coeff * _kappa_psi(g, reduced, tuple(sorted(psi + (extra,))))
    return total


# ---------------------------------------------------------------------------
# correlator tables of the full kappa class


@lru_cache(maxsize=None)
def _zk_route_kappa(g: int, n: int, m: int, k: tuple[int, ...]) -> Fraction:
    """Route (a): expand K_m into kappa monomials and integrate each by the
    pushforward recursion."""
    if m < 0:
        return Fraction(0)
    return k_m_integral(g, n, m, psi_exponents=k)


def _zk_route_shift(g: int, n: int, k: tuple[int, ...]) -> Fraction:
    """Route (b): the constant translation t_j -> t_j + (-1)^j (2j-1)!! for
    j >= 2 of the KW correlators, summed over the partitions of the kappa
    degree m into extra insertions tau_{x+1}."""
    m = 3 * g - 3 + n - sum(k)
    if m < 0:
        return Fraction(0)
    total = Fraction(0)
    for parts in partitions(m):
        insertions = tuple(x + 1 for x in parts)
        weight = Fraction(1)
        for j in insertions:
            weight *= (-1) ** j * double_factorial(2 * j - 1)
        weight /= automorphism_factor(Counter(parts).values())
        total += weight * _kw_table(g, k + insertions)
    return total


@lru_cache(maxsize=16)
def zk_correlators(trunc: Truncation) -> CorrelatorTable:
    """Integrals of the full kappa class against psi monomials.

    Entry (g, k) is int K_m prod psi^{k_i} with m = 3g - 3 + n - |k|,
    computed by two independent routes that must agree: (a) the
    pushforward recursion on each kappa monomial of K_m and (b) the
    constant translation of the KW correlators.  Vacuum entries (g, ())
    for g >= 2 hold int K_{3g-3} over the unpointed space, equal to the
    negated absolute orbifold Euler characteristic.
    """
    table = CorrelatorTable("zk", trunc)
    for g in range(trunc.gmax + 1):
        for n in range(1, trunc.dmax + 1):
            if 2 * g - 2 + n <= 0:
                continue
            dim = 3 * g - 3 + n
            for total in range(0, min(dim, n * trunc.kmax) + 1):
                for k in fixed_sum_multisets(n, total, trunc.kmax):
                    va = _zk_route_kappa(g, n, dim - total, k)
                    vb = _zk_route_shift(g, n, k)
                    if va != vb:
                        raise ExactCoreError(
                            f"kappa-table route disagreement at (g={g}, k={k}):"
                            f" {va} != {vb}"
                        )
                    table.set(g, k, va)
        if g >= 2:
            table.set(g, (), euler_characteristic_constant(g))
    return table


def zk_free_energy(
    trunc: Truncation, graded: bool = True, vacuum: bool = True
) -> GradedSeries:
    """log of the kappa-class tau function.

    With `graded` the entries carry their s-powers 2 - 2g + 2|k| (the
    reconstruction from the s = 1 specialisation); without it the series
    is the s = 1 specialisation itself, every entry at s-power zero.
    Without `vacuum` the t-free normalization constants are dropped;
    they multiply Z by a t-free factor, so nothing that depends on log Z
    only through t-derivatives (such as the KdV residual) changes.
    """
    entries = zk_correlators(trunc).entries.items()
    return free_energy_series(
        trunc,
        ((g, k, 1 - g + sum(k) if graded else 0, v) for (g, k), v in entries if k or vacuum),
    )


def zk_partition_function(trunc: Truncation) -> GradedSeries:
    """exp of the graded kappa-class free energy with its vacuum terms, on
    the z-ready window."""
    return zk_free_energy(trunc).with_window(trunc.z_window()).exp()


# ---------------------------------------------------------------------------
# bracketed-psi basis


def bracket_expansion(k: tuple[int, ...], value) -> Fraction:
    """Expand each psi^{(k_i)} = sum_j psi^{k_i-j} / (2^j j!) and combine.

    `value` maps an index tuple (in slot order, not sorted) to its
    correlator; the caller chooses where those correlators come from.
    """
    total = Fraction(0)
    for drops in iproduct(*[range(ki + 1) for ki in k]):
        v = value(tuple(ki - j for ki, j in zip(k, drops)))
        if v:
            weight = 1
            for j in drops:
                weight *= 2**j * factorial(j)
            total += Fraction(1, weight) * v
    return total


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
        for n in range(1, trunc.dmax + 1):
            if 2 * g - 2 + n <= 0:
                continue
            # any index sum can be nonzero: the drops absorb an excess
            # over the dimension and the kappa class fills a deficit
            for total in range(0, n * trunc.kmax + 1):
                for k in fixed_sum_multisets(n, total, trunc.kmax):
                    va = bracket_expansion(k, lambda d: zk.get(g, d))
                    counts = Counter(k)
                    aut = automorphism_factor(counts.values())
                    vb = shifted.coefficient(g - 1, 0, mono_from_dict(counts))
                    if va != vb * aut:
                        raise ExactCoreError(
                            f"bracket route disagreement at (g={g}, k={k}):"
                            f" {va} != {vb * aut}"
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
    poly = k_polynomials(m)[m]
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        exps: dict[int, int] = {int(name[1:]): e for name, e in mono}
        for j, e in enumerate(companion):
            if e:
                exps[j + 1] = exps.get(j + 1, 0) + e
        top = max(exps, default=0)
        kappa = tuple(exps.get(j, 0) for j in range(1, top + 1))
        total += coeff * kappa_psi_number(g, n, kappa, psi_exponents)
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
