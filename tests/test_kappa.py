"""Tests for the kappa-class machinery.

Frozen values come from independent sources: the Arbarello-Cornalba
identity between psi powers on forgotten points and kappa classes,
literature constants for low-genus kappa volumes, and the orbifold Euler
characteristics of the unpointed moduli spaces.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import pytest

from superkdv.exactcore import (
    ExactCoreError,
    Truncation,
    double_factorial,
    euler_characteristic_constant,
)
from superkdv.kappa import (
    _k_m_terms,
    bracket_expansion,
    bracket_psi_correlators,
    k_m_integral,
    kappa_psi_number,
    sigma_coefficients,
    vanishing_check,
    zk_correlators,
    zk_free_energy,
)
from superkdv.virasoro import kdv_residual, kw_correlators

TRK = Truncation(gmax=2, kmax=3, dmax=3, smax=6)


@pytest.fixture(scope="module")
def zk_table():
    return zk_correlators(TRK)


@pytest.fixture(scope="module")
def bracket_table():
    return bracket_psi_correlators(TRK)


def cycle_kappa(a, perm):
    """Kappa exponents of prod over the cycles c of perm of kappa_{sum_{j in c} a_j}."""
    weights = Counter()
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        j, w = start, 0
        while j not in seen:
            seen.add(j)
            w += a[j]
            j = perm[j]
        weights[w] += 1
    return tuple(weights[i] for i in range(1, max(weights) + 1))


def fraction_series_exp(a, order):
    """exp of a Fraction series with a[0] == 0 through t^order, by the
    derivative recurrence m e_m = sum_j j a_j e_{m-j}."""
    e = [Fraction(1)]
    for m in range(1, order + 1):
        e.append(sum(j * a[j] * e[m - j] for j in range(1, m + 1)) / m)
    return e


def generating_k_polynomials(N):
    """K_0..K_N from their definition sum K_m t^m = exp(sum sigma_i kappa_i t^i),
    by the same recurrence over polynomials in kappa_1..kappa_N; a monomial
    is the sorted tuple of its kappa indices (kappa_1^2 kappa_3 is (1, 1, 3))."""

    def times(p, q):
        out = Counter()
        for m1, v1 in p.items():
            for m2, v2 in q.items():
                out[tuple(sorted(m1 + m2))] += v1 * v2
        return {m: v for m, v in out.items() if v}

    sigma = sigma_coefficients(N)
    a = [{}] + [{(i,): sigma[i - 1]} for i in range(1, N + 1)]
    e = [{(): Fraction(1)}]
    for m in range(1, N + 1):
        acc = Counter()
        for j in range(1, m + 1):
            for mono, v in times(a[j], e[m - j]).items():
                acc[mono] += j * v
        e.append({mono: v / m for mono, v in acc.items() if v})
    return e


class TestGeneratingPolynomials:
    def test_sigma_values(self):
        sigma = sigma_coefficients(2)
        assert sigma[0] == 3
        assert sigma[1] == Fraction(-21, 2)

    def test_sigma_defining_identity(self):
        # exp(-sum sigma_i t^i) must re-expand to sum (-1)^k (2k+1)!! t^k
        N = 6
        back = fraction_series_exp([Fraction(0)] + [-s for s in sigma_coefficients(N)], N)
        assert back == [(-1) ** k * double_factorial(2 * k + 1) for k in range(N + 1)]

    def test_k_polynomials_displayed(self):
        K = {m: dict(_k_m_terms(m)) for m in range(5)}
        assert K[0] == {(): 1}
        assert K[1] == {(1,): 3}
        assert K[2] == {(1, 1): Fraction(9, 2), (2,): Fraction(-21, 2)}
        assert K[4] == {
            (1, 1, 1, 1): Fraction(27, 8),
            (1, 1, 2): Fraction(-189, 4),
            (2, 2): Fraction(441, 8),
            (1, 3): 207,
            (4,): Fraction(-2529, 4),
        }

    def test_partition_sum_matches_generating_function(self):
        # the closed form over partitions is the exponential's expansion
        reference = generating_k_polynomials(9)
        for m in range(10):
            assert dict(_k_m_terms(m)) == reference[m], m

    def test_k_homogeneity(self):
        # one term per partition of m, each of weighted degree m
        for m in range(7):
            lams = [lam for lam, _ in _k_m_terms(m)]
            assert len(set(lams)) == len(lams)
            assert all(sum(lam) == m and list(lam) == sorted(lam) for lam in lams)
        assert [len(_k_m_terms(m)) for m in range(7)] == [1, 1, 2, 3, 5, 7, 11]

    def test_negative_degree_rejected(self):
        # no partition of m < 0 exists, but K_m is undefined there, not 0
        with pytest.raises(ExactCoreError):
            k_m_integral(2, 0, -1)
        with pytest.raises(ExactCoreError):
            k_m_integral(1, 1, -2, psi_exponents=(3,))


class TestKappaPsiNumbers:
    def test_seed_values(self):
        assert kappa_psi_number(1, 1, (1,), (0,)) == Fraction(1, 24)
        # a trailing zero exponent names no kappa factor
        assert kappa_psi_number(1, 1, (1, 0), (0,)) == Fraction(1, 24)
        assert kappa_psi_number(0, 4, (1,), (0, 0, 0, 0)) == 1
        assert kappa_psi_number(0, 3, (), (0, 0, 0)) == 1

    def test_genus0_kappa1_powers(self):
        # int kappa_1^{n-3} over the n-pointed genus-0 space: 1, 1, 5, 61
        assert kappa_psi_number(0, 5, (2,), (0,) * 5) == 5
        assert kappa_psi_number(0, 6, (3,), (0,) * 6) == 61

    def test_unpointed_genus2(self):
        # kappa_3 equals the pushed-forward psi^4 one-point number;
        # kappa_1^3 is the classical genus-2 constant 43/2880
        assert kappa_psi_number(2, 0, (0, 0, 1)) == Fraction(1, 1152)
        assert kappa_psi_number(2, 0, (3,)) == Fraction(43, 2880)
        assert kappa_psi_number(2, 0, (1, 1)) == Fraction(1, 240)

    def test_dimension_mismatch_is_zero(self):
        assert kappa_psi_number(1, 1, (1,), (1,)) == 0
        assert kappa_psi_number(0, 4, (2,), (0, 0, 0, 0)) == 0

    def test_unstable_rejected(self):
        with pytest.raises(ExactCoreError):
            kappa_psi_number(0, 2, (), (0, 0))
        with pytest.raises(ExactCoreError):
            kappa_psi_number(1, 0, ())

    def test_arbarello_cornalba_identity(self):
        # <prod tau_{k_i} prod_{j<=m} tau_{a_j+1}>_g equals the sum over the
        # permutations sigma of S_m of int psi^k prod_{cycles c of sigma}
        # kappa_{sum_{j in c} a_j}, for a_j >= 1
        kw = kw_correlators(Truncation(gmax=3, kmax=12, dmax=6, smax=0))
        checked = 0
        for g in range(4):
            for n in range(4):
                if 2 * g - 2 + n <= 0:
                    continue
                dim = 3 * g - 3 + n
                for m in (1, 2, 3):
                    for a in combinations_with_replacement(range(1, 5), m):
                        rest = dim - sum(a)
                        if rest < 0:
                            continue
                        for psi in combinations_with_replacement(range(rest + 1), n):
                            if sum(psi) != rest:
                                continue
                            lhs = kw.get(g, psi + tuple(x + 1 for x in a))
                            rhs = sum(
                                kappa_psi_number(g, n, cycle_kappa(a, perm), psi)
                                for perm in permutations(range(m))
                            )
                            assert lhs == rhs, (g, psi, a)
                            checked += 1
        assert checked == 284


class TestZkTable:
    def test_values(self, zk_table):
        assert zk_table.get(1, (0,)) == Fraction(1, 8)
        assert zk_table.get(0, (0, 0, 0)) == 1
        assert zk_table.get(1, (1,)) == Fraction(1, 24)

    def test_vacuum_constants(self, zk_table):
        assert zk_table.get(2, ()) == Fraction(-1, 240)
        assert zk_table.get(2, ()) == euler_characteristic_constant(2)

    def test_vacuum_entries_are_euler_characteristics(self):
        # a window with no t-variable holds only the vacuum entries
        # int K_{3g-3} over M_g, computed by both routes (Harer-Zagier)
        table = zk_correlators(Truncation(4, 0, 0, 0))
        assert table.entries == {(g, ()): euler_characteristic_constant(g) for g in (2, 3, 4)}

    def test_free_energy_has_no_t_free_term(self, zk_table):
        F = zk_free_energy(zk_table.trunc)
        assert zk_table.get(2, ()) and all(t for _, _, t in F.terms)

    def test_vanishing_entry(self, zk_table):
        # the degree-4 part of the kappa class already vanishes on the
        # one-point genus-2 space
        assert zk_table.get(2, (0,)) == 0

    def test_free_energy_grading(self):
        # s-window wide enough that no graded entry is cut, so the
        # graded series is exactly the reindexed s = 1 specialisation
        wide = Truncation(gmax=TRK.gmax, kmax=TRK.kmax, dmax=TRK.dmax, smax=16)
        graded = zk_free_energy(wide, graded=True)
        flat = zk_free_energy(wide, graded=False)
        assert {(h, t): v for (h, a, t), v in graded.terms.items()} == {
            (h, t): v for (h, a, t), v in flat.terms.items()
        }
        for (h, a, t), _ in graded.terms.items():
            assert a == -h + sum(t)

    def test_kdv(self):
        tr = Truncation(gmax=1, kmax=2, dmax=5, smax=0)
        F = zk_free_energy(tr, graded=False)
        res, deg = kdv_residual(F)
        assert deg == 0
        assert res.is_zero()


class TestBracketTable:
    def test_values(self, bracket_table):
        assert bracket_table.get(0, (1, 0, 0)) == Fraction(1, 2)
        assert bracket_table.get(1, (1,)) == Fraction(5, 48)
        assert bracket_table.get(1, (0,)) == Fraction(1, 8)

    def test_linear_expansion_by_hand(self, zk_table, bracket_table):
        # psi^{(2)} = psi^2 + psi/2 + 1/8 on a one-point genus-1 space
        expected = (
            zk_table.get(1, (2,))
            + zk_table.get(1, (1,)) / 2
            + zk_table.get(1, (0,)) / 8
        )
        assert bracket_table.get(1, (2,)) == expected


def ordered_drop_reference(k, value):
    """The bracket expansion as one lookup per ordered drop vector."""
    total = Fraction(0)
    for drops in product(*[range(ki + 1) for ki in k]):
        v = value(tuple(ki - j for ki, j in zip(k, drops)))
        if v:
            weight = 1
            for j in drops:
                weight *= 2**j * factorial(j)
            total += Fraction(1, weight) * v
    return total


def fraction_lookup(d):
    d = sorted(d)
    return Fraction(sum((i + 2) * x * x for i, x in enumerate(d)) - 7, 3 + len(d) + sum(d))


def int_lookup(d):
    d = sorted(d)
    return sum(x ** (i + 1) for i, x in enumerate(d)) - 5 * len(d)


class TestBracketExpansion:
    """The merged int walk against one lookup per ordered drop vector."""

    SLOTS = [(0,), (6,), (6, 0, 3), (2, 5, 1, 6, 0), (6, 6, 6, 6, 6)] + [
        tuple(random.Random(seed).choices(range(7), k=1 + seed % 5)) for seed in range(30)
    ]

    @pytest.mark.parametrize("value", [fraction_lookup, int_lookup])
    def test_matches_ordered_drops(self, value):
        for k in self.SLOTS:
            # the budget sum(k) prunes nothing
            assert bracket_expansion(k, value, sum(k)) == ordered_drop_reference(k, value), k

    @pytest.mark.parametrize("value", [fraction_lookup, int_lookup])
    def test_pruning_at_the_budget_is_exact(self, value):
        for k in self.SLOTS:
            for budget in (0, sum(k) // 3, sum(k) // 2, sum(k) - 1):
                # zero above the budget, as a correlator is above the dimension
                def capped(d):
                    return value(d) if sum(d) <= budget else 0

                got = bracket_expansion(k, capped, budget)
                assert got == ordered_drop_reference(k, capped), (k, budget)

    def test_int_lookup_gives_a_fraction(self):
        # bracket_psi_correlators divides the result by an int denominator
        assert isinstance(bracket_expansion((2, 1), int_lookup, 3), Fraction)


class TestVanishing:
    def test_one_point_genus2(self):
        assert vanishing_check(2, 1, 4, psi_exponents=(0,)) == 0

    def test_unpointed_genus3(self):
        assert vanishing_check(3, 0, 5, companion_kappa=(1,)) == 0

    def test_exceptional_pair_rejected(self):
        with pytest.raises(ExactCoreError):
            vanishing_check(2, 0, 3)

    def test_range_guard(self):
        with pytest.raises(ExactCoreError):
            vanishing_check(2, 1, 3, psi_exponents=(1,))

    def test_exceptional_value(self):
        assert k_m_integral(2, 0, 3) == Fraction(-1, 240)
        assert k_m_integral(2, 0, 3) == euler_characteristic_constant(2)
