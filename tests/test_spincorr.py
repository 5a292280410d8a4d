"""Tests for the spin correlators and the tau-function assembly.

Genus-0 values are triple-checked (recursion, closed form, bracketed
kappa table); the assembled tau function is compared exactly against
the Virasoro-solved BGW tau function and the operator image of the
kappa tau function.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from superkdv.exactcore import (
    GradedSeries,
    Truncation,
    euler_characteristic_constant,
    fixed_sum_multisets,
    labelled_splits,
    mismatches,
)
from superkdv.kappa import zk_correlators, zk_free_energy, zk_partition_function
from superkdv.spincorr import (
    _spin_genus0,
    alpha_coefficient,
    assemble_z_omega,
    d_operator_apply,
    genus0_closed_form,
    spin_correlators,
    spin_free_energy,
    triple_route_compare,
    unstable_series,
)
from superkdv.virasoro import bgw_correlators
from test_exactcore import reference_exp

TRS = Truncation(gmax=2, kmax=3, dmax=3, smax=6)


@pytest.fixture(scope="module")
def spin_table():
    return spin_correlators(TRS)


class TestGenusZero:
    def test_seeds(self):
        assert alpha_coefficient(0) == Fraction(1, 2)
        assert alpha_coefficient(1) == Fraction(1, 8)
        assert alpha_coefficient(2) == Fraction(1, 48)

    def test_recursion_values(self):
        assert _spin_genus0((0, 0, 0)) == 1
        assert _spin_genus0((0, 0, 1)) == Fraction(1, 2)
        assert _spin_genus0((0, 0, 0, 0)) == 3

    def test_one_point_closed_form(self):
        assert genus0_closed_form((0,)) == Fraction(1, 2)
        assert genus0_closed_form((1,)) == Fraction(1, 24)

    def test_two_point_closed_form_matches_seeds(self):
        for k in range(5):
            assert genus0_closed_form((0, k)) == alpha_coefficient(k)

    def test_closed_form_vs_trr_batch(self):
        checked = 0
        for n in range(3, 6):
            for m in combinations_with_replacement(range(5), n):
                if sum(m) > 4:
                    continue
                assert _spin_genus0(tuple(sorted(m))) == genus0_closed_form(m), m
                checked += 1
        assert checked >= 15

    def test_closed_form_vs_trr_past_the_verify_range(self):
        # n = 6 and 7 with |k| <= 6, beyond `verify trr`'s n <= 5: the
        # points the TRR distributes repeat an index three or more times,
        # so labelled_splits weighs some splits by 3 or more
        top = 0
        for n in (6, 7):
            for total in range(7):
                for k in fixed_sum_multisets(n, total, total):
                    assert _spin_genus0(k) == genus0_closed_form(k), k
                    top = max([top] + [w for _, _, w in labelled_splits(k[:-3])])
        assert top >= 3


class TestSpinTable:
    def test_values(self, spin_table):
        assert spin_table.get(1, (0,)) == Fraction(1, 8)
        assert spin_table.get(1, (1,)) == Fraction(5, 48)
        assert spin_table.get(2, (1,)) == Fraction(3, 128)

    def test_admissibility(self, spin_table):
        # nonzero entries sit at nonnegative s-power 2 - 2g + 2|k|
        for (g, k), v in spin_table.entries.items():
            assert 2 - 2 * g + 2 * sum(k) >= 0, (g, k, v)

    def test_dilaton_identity(self, spin_table):
        # removing a tau_0 insertion divides by n + 2|k|
        checked = 0
        for (g, k), v in spin_table.entries.items():
            if len(k) < 2 or k[0] != 0 or (g, len(k)) == (0, 3):
                continue
            rest = k[1:]
            if 2 * g - 2 + len(rest) <= 0:
                continue
            factor = len(rest) + 2 * sum(rest)
            assert v == factor * spin_table.get(g, rest), (g, k)
            checked += 1
        assert checked > 5

    def test_s_zero_slice_is_theta(self, spin_table):
        # entries at s-power zero are the Theta-class intersections,
        # which the BGW tau function computes at s = 0
        theta = bgw_correlators(Truncation(gmax=2, kmax=3, dmax=3, smax=0))
        checked = 0
        for (g, k), v in spin_table.entries.items():
            if 2 - 2 * g + 2 * sum(k) == 0:
                assert v == theta.get(g, k), (g, k)
                checked += 1
        assert checked >= 3
        assert spin_table.get(1, (0,)) == Fraction(1, 8)


class TestUnstableSeries:
    def test_alpha_equals_one_point(self):
        for m in range(6):
            assert alpha_coefficient(m) / (2 * m + 1) == genus0_closed_form((m,))

    def test_f02_displayed_coefficients(self):
        # F02/2 with F02 an ordered double sum: t0^2 gets <tau_0 tau_0>_0 / 2
        # and t0 t1, which F02 holds twice, gets <tau_0 tau_1>_0
        unstable = unstable_series(TRS)
        assert unstable.terms[(-1, 1, ((0, 2),))] == Fraction(1, 4)
        assert unstable.terms[(-1, 2, ((0, 1), (1, 1)))] == Fraction(1, 8)


class TestAssembly:
    def test_free_energy_unstable_pieces(self):
        F = spin_free_energy(TRS)
        assert F.terms[(-1, 1, ((0, 1),))] == Fraction(1, 2)
        assert F.terms[(-1, 1, ((0, 2),))] == Fraction(1, 4)

    def test_partition_function_normalized(self):
        Z = assemble_z_omega(TRS)
        assert not any(not key[2] and key != (0, 0, ()) for key in Z.terms)
        assert Z.terms[(0, 0, ())] == 1
        assert Z.terms[(-1, 1, ((0, 1),))] == Fraction(1, 2)

    @pytest.mark.parametrize("trunc", [Truncation(2, 3, 2, 4), Truncation(2, 3, 3, 6)])
    def test_d_operator_matches_the_literal_chain(self, trunc):
        # the paper's D = e^chi e^{S_alpha/hbar} e^{F02/(2 hbar)} e^{(s^2/2) L_{-1}}
        # on Z^K with its vacuum exp(-chi) put back, every exp summed as a
        # power series; chi lowers the s-power, so Z^K is built on an
        # s-widened window and the product formed on a padded one
        wide = trunc._replace(amax=trunc.amax + trunc.gmax - 1 + trunc.dmax).z_window()
        work = wide.padded(wide.dmax + wide.gmax + 2)
        genera = range(2, trunc.gmax + 1)
        vacuum = {(g - 1, 1 - g, ()): zk_correlators(wide).get(g, ()) for g in genera}
        chi = {(g - 1, 1 - g, ()): -euler_characteristic_constant(g) for g in genera}
        f_k = zk_free_energy(wide) + GradedSeries(wide, vacuum)
        z_k = reference_exp(f_k, 2 * f_k._exp_pad()).with_window(work)
        exponent = unstable_series(wide).with_window(work) + GradedSeries(work, chi)
        literal = reference_exp(exponent, 2 * exponent._exp_pad()) * z_k.substitute(1)
        got = d_operator_apply(zk_partition_function(trunc), trunc)
        assert got == literal.restrict(trunc)
        assert len(got.terms) > 20


class TestTripleRoute:
    def test_compare_is_exact(self):
        report = triple_route_compare(TRS)
        assert report["mismatches"] == []
        assert report["nonzero"] > 50

    def test_windows_below_the_two_point_degree(self):
        # the unstable series keep only keys their window holds, so the
        # assembly works where t-degree 1 or 2 lies outside it
        for dmax in (0, 1):
            trunc = Truncation(gmax=1, kmax=2, dmax=dmax, smax=4)
            assert all(trunc.contains(*key) for key in unstable_series(trunc).terms)
        report = triple_route_compare(Truncation(gmax=1, kmax=1, dmax=1, smax=2))
        assert (report["compared"], report["nonzero"], report["mismatches"]) == (4, 4, [])

    def test_comparator_detects_perturbation(self):
        Z = assemble_z_omega(TRS)
        key = (-1, 1, ((0, 1),))
        perturbed = GradedSeries(
            Z.trunc,
            {k: (v + 1 if k == key else v) for k, v in Z.terms.items()},
        )
        assert mismatches(Z.terms, perturbed.terms, Z.terms) == [
            (key, Z.terms[key], Z.terms[key] + 1)
        ]
