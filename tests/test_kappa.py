"""Tests for the kappa-class machinery.

Frozen values come from independent sources: the Arbarello-Cornalba
identity between psi powers on forgotten points and kappa classes,
literature constants for low-genus kappa volumes, and the orbifold Euler
characteristics of the unpointed moduli spaces.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from superkdv.exactcore import (
    ExactCoreError,
    FormalPolynomial,
    Truncation,
    euler_characteristic_constant,
)
from superkdv.kappa import (
    bracket_psi_correlators,
    k_m_integral,
    k_polynomials,
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


class TestGeneratingPolynomials:
    def test_sigma_values(self):
        sigma = sigma_coefficients(2)
        assert sigma[0] == 3
        assert sigma[1] == Fraction(-21, 2)

    def test_sigma_defining_identity(self):
        # exp(-sum sigma_i t^i) must re-expand to sum (-1)^k (2k+1)!! t^k
        from superkdv.exactcore import double_factorial, useries_exp_poly

        N = 6
        sigma = sigma_coefficients(N)
        gen = [FormalPolynomial()] + [
            FormalPolynomial.const(-s) for s in sigma
        ]
        back = useries_exp_poly(gen, order=N)
        for k in range(N + 1):
            assert back[k].terms.get((), 0) == (-1) ** k * double_factorial(2 * k + 1)

    def test_k_polynomials_displayed(self):
        K = k_polynomials(4)
        k1 = FormalPolynomial.symbol("k1")
        k2 = FormalPolynomial.symbol("k2")
        k3 = FormalPolynomial.symbol("k3")
        k4 = FormalPolynomial.symbol("k4")
        assert K[0] == 1
        assert K[1] == k1.scale(3)
        assert K[2] == (k1 * k1.scale(3) - k2.scale(7)).scale(Fraction(3, 2))
        expected4 = (
            (k1**4).scale(3)
            - (k1 * k1 * k2).scale(42)
            + (k2 * k2).scale(49)
            + (k1 * k3).scale(184)
            - k4.scale(562)
        ).scale(Fraction(9, 8))
        assert K[4] == expected4

    def test_k_homogeneity(self):
        for m, poly in enumerate(k_polynomials(6)):
            for mono in poly.terms:
                assert sum(int(name[1:]) * e for name, e in mono) == m


class TestKappaPsiNumbers:
    def test_seed_values(self):
        assert kappa_psi_number(1, 1, (1,), (0,)) == Fraction(1, 24)
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
            weight = sum(idx * e for idx, e in t)
            assert a == -h + weight

    def test_kdv(self):
        tr = Truncation(gmax=1, kmax=2, dmax=5, smax=0)
        F = zk_free_energy(tr, graded=False, vacuum=False)
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
