"""Kappa-class machinery: mixed kappa-psi intersection numbers.

The generating polynomials K_m are produced by exponentiating the
sigma-weighted kappa series, where the sigma_i are fixed by requiring
exp(-sum sigma_i t^i) to equal the alternating double-factorial series
sum (-1)^k (2k+1)!! t^k.

Mixed numbers int kappa_1^{a_1} kappa_2^{a_2} ... prod psi_i^{k_i} are
computed by translating the Kontsevich-Witten correlators: shifting
t_j -> t_j + p_{j-1}(b) for j >= 2, where the p_j are the weighted
homogeneous polynomials of 1 - exp(-sum b_i z^i), and extracting the
coefficient of the b-monomial matching the kappa exponents.  The sum is
finite because each extra insertion tau_j costs translation weight
j - 1 and the total weight equals the kappa degree.

Two correlator tables are exposed: the "zk" table of integrals of the
full kappa class against psi monomials, and the "zk-bracket" table in
the bracketed-psi basis psi^{(k)} = sum_j psi^{k-j} / (2^j j!).  Each is
computed by two independent routes that must agree exactly.
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
from .virasoro import kw_correlators

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


@lru_cache(maxsize=None)
def translation_polynomials(N: int) -> tuple[FormalPolynomial, ...]:
    """p_0..p_N with 1 - exp(-sum b_i z^i) = sum p_j z^j.

    p_j is weighted homogeneous of degree j in b_1..b_j (weight i for
    "bi"); p_0 = 0.
    """
    if N < 0:
        raise ExactCoreError("translation_polynomials requires N >= 0")
    gen = [FormalPolynomial()] + [
        FormalPolynomial.symbol(f"b{i}").scale(-1) for i in range(1, N + 1)
    ]
    e = useries_exp_poly(gen, order=N)
    return tuple(FormalPolynomial() if j == 0 else -p for j, p in enumerate(e))


# ---------------------------------------------------------------------------
# mixed kappa-psi numbers


@lru_cache(maxsize=None)
def _kw_table(g: int, npoints: int) -> CorrelatorTable:
    """KW correlators on up to `npoints` insertions at genus g."""
    kmax = max(3 * g - 3 + npoints, 0)
    return kw_correlators(Truncation(g, kmax, npoints, 0))


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
    n = len(psi)
    w = _kappa_weight(kappa)
    if n == 0:
        # push one kappa_a forward: int kappa_a Y = int psi^{a+1} pullback(Y)
        # on one more point, with kappa_b pulling back to kappa_b - psi^b
        # (psi powers of the other points are unaffected under the
        # integral against a positive power of the new psi)
        return _pushforward_step(g, kappa, psi)
    table = _kw_table(g, n + w)
    target = tuple(
        sorted((f"b{i + 1}", e) for i, e in enumerate(kappa) if e)
    )
    total = Fraction(0)
    for parts in partitions(w):
        coeff = _translation_product(parts).coefficient(target)
        if not coeff:
            continue
        insertions = tuple(x + 1 for x in parts)
        total += (
            coeff
            * table.get(g, psi + insertions)
            / automorphism_factor(Counter(parts).values())
        )
    return total * automorphism_factor(kappa)


@lru_cache(maxsize=4096)
def _translation_product(parts: tuple[int, ...]) -> FormalPolynomial:
    """prod p_x over a nondecreasing tuple of parts, from its prefix's product."""
    if not parts:
        return FormalPolynomial.const(1)
    x = parts[-1]
    return _translation_product(parts[:-1]) * translation_polynomials(x)[x]


def _pushforward_step(g: int, kappa: tuple[int, ...], psi: tuple[int, ...]) -> Fraction:
    """Trade the highest kappa factor for a psi power on a new point."""
    a = len(kappa)  # kappa normalized: last exponent positive
    remaining = list(kappa)
    remaining[a - 1] -= 1
    total = Fraction(0)
    ranges = [range(e + 1) for e in remaining]
    for choice in iproduct(*ranges):
        coeff = 1
        for e, c in zip(remaining, choice):
            coeff *= comb(e, c) * (-1) ** c
        reduced = _normalize_kappa(
            e - c for e, c in zip(remaining, choice)
        )
        extra = a + 1 + sum((b + 1) * c for b, c in enumerate(choice))
        total += coeff * _kappa_psi(g, reduced, tuple(sorted(psi + (extra,))))
    return total


# ---------------------------------------------------------------------------
# correlator tables of the full kappa class


@lru_cache(maxsize=None)
def _zk_route_kappa(g: int, n: int, m: int, k: tuple[int, ...]) -> Fraction:
    """Route (a): expand K_m into kappa monomials and integrate each."""
    if m < 0:
        return Fraction(0)
    return k_m_integral(g, n, m, psi_exponents=k)


def _zk_route_shift(g: int, n: int, k: tuple[int, ...]) -> Fraction:
    """Route (b): constant shift t_j -> t_j + (-1)^j (2j-1)!! for j >= 2."""
    m = 3 * g - 3 + n - sum(k)
    if m < 0:
        return Fraction(0)
    table = _kw_table(g, n + m)
    total = Fraction(0)
    for parts in partitions(m):
        insertions = tuple(x + 1 for x in parts)
        weight = Fraction(1)
        for j in insertions:
            weight *= (-1) ** j * double_factorial(2 * j - 1)
        weight /= automorphism_factor(Counter(parts).values())
        total += weight * table.get(g, k + insertions)
    return total


@lru_cache(maxsize=16)
def zk_correlators(trunc: Truncation) -> CorrelatorTable:
    """Integrals of the full kappa class against psi monomials.

    Entry (g, k) is int K_m prod psi^{k_i} with m = 3g - 3 + n - |k|,
    computed by two independent routes (kappa-monomial expansion and the
    constant variable shift) that must agree.  Vacuum entries (g, ())
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
