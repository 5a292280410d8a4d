"""Tests for the super Weil-Petersson volumes and recursion checks.

Exact coefficients are frozen from independent derivations (spin
correlator values times translation weights computed by hand); the
numeric kernel moments, by tanh-sinh quadrature, are checked against
their exact closed forms, the sech moments of
D(x, u, 0) = (sech((x-u)/4) - sech((x+u)/4)) / 2.
"""

from fractions import Fraction
import hashlib
import warnings
from itertools import permutations

import mpmath as mp
import pytest

from superkdv.exactcore import ExactCoreError, GradedSeries, Truncation
from superkdv import supervol, swnumeric
from superkdv.kappa import _kappa_psi, _zk_route_shift, bracket_expansion
from superkdv.cli import canonical_bytes
from superkdv.spincorr import genus0_closed_form, spin_correlators, spin_free_energy
from superkdv.supervol import (
    _volume_terms,
    spin_value,
    translated_virasoro_check,
    volume_polynomial,
)
from superkdv.swnumeric import kernel_moment, recursion_residual_orders
from superkdv.virasoro import _correlator, apply_virasoro_oracle


class TestSpinValue:
    def test_frozen_values(self):
        assert spin_value(1, (0,)) == Fraction(1, 8)
        assert spin_value(1, (1,)) == Fraction(5, 48)
        assert spin_value(2, (1,)) == Fraction(3, 128)
        assert spin_value(0, (0, 0, 0)) == 1

    def test_matches_table_route(self):
        table = spin_correlators(Truncation(gmax=2, kmax=3, dmax=3, smax=6))
        checked = 0
        for (g, k), v in table.entries.items():
            assert spin_value(g, k) == v, (g, k)
            checked += 1
        assert checked > 20

    def test_volume_reads_one_cache_entry_per_multiset(self):
        # the volume sum reaches each correlator in many slot orders;
        # 154 orderings of 33 distinct multisets at (2, 4, 6)
        spin_value.cache_clear()
        _volume_terms.cache_clear()
        volume_polynomial(2, 4, 6)
        assert spin_value.cache_info().currsize == 33

    def test_store_matches_shift_route_on_volume_entries(self, monkeypatch):
        # the volumes read the gBGW store; the route they read before (the
        # genus-0 closed form, else bracketed psi over the KW shift route)
        # checks every entry that (3, 2, 6), (4, 1, 4) and (0, 6, 4) read
        read = set()

        def record(model, g, k):
            read.add((g, k))
            return _correlator(model, g, k)

        monkeypatch.setattr(supervol, "_correlator", record)
        spin_value.cache_clear()
        _volume_terms.cache_clear()
        volume_polynomial(3, 2, 6)
        volume_polynomial(4, 1, 4)
        volume_polynomial(0, 6, 4)
        assert len(read) == 80
        for g, k in sorted(read):
            if g == 0:
                old = genus0_closed_form(k)
            else:
                old = bracket_expansion(k, lambda d: _zk_route_shift(g, d), 3 * g - 3 + len(k))
            assert _correlator("gBGW", g, k) == old, (g, k)

    def test_volume_leaves_the_pushforward_memo_empty(self):
        # the volumes read the gBGW store, which no kappa route feeds, so
        # the pushforward recursion keeps no entry for them
        _kappa_psi.cache_clear()
        _volume_terms.cache_clear()
        spin_value.cache_clear()
        volume_polynomial(3, 1, 6)
        assert _kappa_psi.cache_info().currsize == 0

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ExactCoreError):
            spin_value(1, ())
        with pytest.raises(ExactCoreError):
            spin_value(0, (-1,))


class TestVolumePolynomial:
    def test_one_one(self):
        vp = volume_polynomial(1, 1, 4)
        # coefficients are {power of pi^2: value}
        assert vp.terms.get((0, (0,)), {}) == {0: Fraction(1, 8)}
        assert vp.terms.get((1, (1,)), {}) == {0: Fraction(5, 96)}
        assert vp.terms.get((1, (0,)), {}) == {1: Fraction(5, 8)}

    def test_zero_three(self):
        vp = volume_polynomial(0, 3, 4)
        assert vp.terms.get((1, (0, 0, 0)), {}) == {0: 1}

    def test_one_two_s_zero_constant(self):
        vp = volume_polynomial(1, 2, 2)
        assert vp.terms.get((0, (0, 0)), {}) == {0: Fraction(1, 8)}
        # s^0 slice is constant in L for g = 1
        assert all(k == (0, 0) for (a, k) in vp.terms if a == 0)

    @pytest.mark.parametrize("g, n, smax", [(0, 4, 4), (2, 2, 2), (1, 3, 2)])
    def test_symmetry_under_slot_permutation(self, g, n, smax):
        vp = volume_polynomial(g, n, smax)
        seen = 0
        for (a, k), poly in vp.terms.items():
            for perm in permutations(k):
                assert vp.terms.get((a, perm), {}) == poly
                seen += 1
        assert seen > 10

    def test_unstable_pieces_exist(self):
        v01 = volume_polynomial(0, 1, 4)
        v02 = volume_polynomial(0, 2, 4)
        assert not v01.terms.get((0, (0,)))  # no s^0 disk term
        assert v02.terms.get((1, (0, 0)), {}) == {0: Fraction(1, 2)}

    def test_edit_does_not_reach_the_cache(self):
        vp = volume_polynomial(1, 1, 2)
        vp.terms[(0, (0,))][0] += 1
        vp.terms[(1, (1,))] = {0: Fraction(7)}
        again = volume_polynomial(1, 1, 2)
        assert again.terms.get((0, (0,)), {}) == {0: Fraction(1, 8)}
        assert again.terms.get((1, (1,)), {}) == {0: Fraction(5, 96)}

    @pytest.mark.parametrize("g, n", [(0, 3), (0, 4)])
    def test_empty_volume_warns_on_every_call(self, g, n):
        # the terms are cached; the warning must not depend on cache warmth
        message = rf"no admissible terms for \(g, n\) = \({g}, {n}\) at smax = 0"
        for _ in range(2):
            with pytest.warns(UserWarning, match=message):
                assert volume_polynomial(g, n, 0).terms == {}

    def test_invalid_inputs(self):
        with pytest.raises(ExactCoreError):
            volume_polynomial(1, 0, 4)
        with pytest.raises(ExactCoreError):
            volume_polynomial(1, 1, 3)

    @pytest.mark.parametrize(
        "g, n, smax, digest",
        [
            (3, 1, 6, "d5f30901df08efc9536e4112cafbfb6e37819b98a3e27cbbaa7eb9751197e86f"),
            (3, 2, 4, "f6e57cd65f8d181245ee9bc9c444ce189382eb619aaf43ef59b4ab641bd39de5"),
            (4, 1, 4, "0b0ff6bf63975eb6deda139b4f0fdd290eeb2862ffae5d72d12c63c0d788f755"),
            (5, 1, 4, "90df7e694a9811eee9d0dce52a0fb69cacad7731a3f151a0fdf047f73cf20d7e"),
            (4, 2, 4, "0be26094b90a78eb6e49840b085b0403a05bc5913d940af4d6ef08ba3470b79a"),
            (3, 3, 6, "79d70233ba1a19fe89841b0502c6d1331cae05ac738d3fa3393c9bbf74fae929"),
            (2, 3, 6, "2c9c4d3e7896e58d45321fbcb4c16a9623143a57306bb225d592b644df8a85a7"),
        ],
        ids=["3-1-6", "3-2-4", "4-1-4", "5-1-4", "4-2-4", "3-3-6", "2-3-6"],
    )
    def test_frozen_bytes_genus_3_and_4(self, g, n, smax, digest):
        # sha256 of the canonical JSON bytes, frozen when mixed kappa-psi
        # numbers were still computed by the symbolic translation (the
        # first three) or read through the KW shift route (the rest)
        payload = canonical_bytes(volume_polynomial(g, n, smax).to_json())
        assert hashlib.sha256(payload).hexdigest() == digest

    def test_json_schema(self):
        data = volume_polynomial(1, 1, 2).to_json()
        assert data["g"] == 1 and data["n"] == 1
        entry = next(t for t in data["terms"] if t["s2"] == 0)
        assert entry["k"] == [0]
        assert entry["pi2"] == [[0, "1/8"]]


class TestExactRoute:
    def test_translated_virasoro_all_zero(self):
        report = translated_virasoro_check(Truncation(1, 2, 3, 4))
        assert report["all_zero"]
        assert report["m_checked"] == [0, 1, 2]

    def test_perturbation_sensitivity(self):
        # log Z^Omega on the window translated_virasoro_check pads
        # (1, 2, 3, 4) to; one wrong genus-0 coefficient breaks L_0
        trunc = Truncation(1, 2, 3, 4)
        F = spin_free_energy(Truncation(1, 4, 5, 6))
        assert apply_virasoro_oracle(F, "gBGW", [0], trunc)[0].is_zero()
        bad = dict(F.terms)
        key = (-1, 1, (0,))
        bad[key] += Fraction(1, 7)
        res = apply_virasoro_oracle(GradedSeries(F.trunc, bad), "gBGW", [0], trunc)
        assert not res[0].is_zero()


class TestKernelMoments:
    def test_zero_at_zero_length(self):
        assert abs(kernel_moment("R", (0, 0), (0,))) < mp.mpf(10) ** -12
        assert abs(kernel_moment("D", (0,), (0, 0))) < mp.mpf(10) ** -12

    def test_exact_closed_forms(self):
        # M_m(x) = 2 pi sum_i C(m, 2i) (2 pi)^{2i} |E_{2i}| x^{m-2i} for
        # odd m (E the Euler numbers), from the sech moments of
        # D(x, u, 0) = (sech((x-u)/4) - sech((x+u)/4)) / 2
        with mp.workdps(50):
            for l1 in (0.5, 1.0, 2.0):
                r = kernel_moment("R", (l1, 0.7), (0,))
                assert abs(r - 2 * mp.pi * mp.mpf(l1)) < mp.mpf(10) ** -11
            l1, lj = mp.mpf(1.0), mp.mpf(0.7)
            r = kernel_moment("R", (l1, lj), (1,))
            expected = 2 * mp.pi * (l1**3 + 3 * l1 * lj**2 + 12 * mp.pi**2 * l1)
            assert abs(r - expected) < mp.mpf(10) ** -11
            d = kernel_moment("D", (l1,), (0, 0))
            expected = 2 * mp.pi * (l1**3 / 6 + 2 * mp.pi**2 * l1)
            assert abs(d - expected) < mp.mpf(10) ** -11
            d = kernel_moment("D", (l1,), (1, 0))
            expected = (
                mp.pi
                / 10
                * (l1**5 + 40 * mp.pi**2 * l1**3 + 400 * mp.pi**4 * l1)
            )
            assert abs(d - expected) < mp.mpf(10) ** -11

    def test_bad_inputs(self):
        with pytest.raises(ExactCoreError):
            kernel_moment("R", (1.0, 1.0), (-1,))
        with pytest.raises(ExactCoreError):
            kernel_moment("Q", (1.0,), (0,))


class TestRecursionResidual:
    def test_zero_one_delta_identity(self):
        orders = recursion_residual_orders(0, 1, [1.3], smax=2)
        assert abs(orders[1]) < mp.mpf(10) ** -9

    def test_passing_convention_through_s4(self):
        cases = [
            (0, 1, [1.3]), (0, 2, [1.0, 0.7]), (1, 1, [1.0]), (0, 3, [1.0, 0.7, 1.3]),
            (1, 2, [1.0, 0.7]), (2, 1, [1.1]), (2, 2, [1.0, 0.7]), (3, 1, [1.1]),
            # equal lengths; at (0,3) the equal pair splits once, counted twice
            (0, 3, [1.0, 0.7, 0.7]), (1, 2, [1.0, 1.0]),
        ]
        for g, n, L in cases:
            orders = recursion_residual_orders(g, n, L, smax=4)
            for a, v in orders.items():
                assert abs(v) < mp.mpf(10) ** -8, (g, n, a)

    @pytest.mark.parametrize(
        "dropped",
        [{(0, 2)}, {(0, 1)}, {(0, 1), (0, 2)}],
        ids=["no-v02", "no-v01", "neither"],
    )
    def test_failing_convention_is_large(self, monkeypatch, dropped):
        # dropping the unstable V_{0,1}, V_{0,2} or both from the right-hand
        # side leaves an order-1 residual of 1.2 to 6.2, so the check is not
        # vacuous and both factors are needed
        real = swnumeric.volume_polynomial

        def without_unstable(g, n, smax):
            if (g, n) in dropped:
                return supervol.VolumePolynomial(g, n, smax, {})
            return real(g, n, smax)

        monkeypatch.setattr(swnumeric, "volume_polynomial", without_unstable)
        orders = recursion_residual_orders(1, 1, [1.0], smax=2)
        assert abs(orders[1]) > 1

    def test_genus0_four_points_has_no_handle_term(self, monkeypatch):
        # the handle-splitting term would need genus -1; at smax = 0 every
        # genus-0 volume is empty, so no kernel moment is ever needed
        def no_quadrature(*args, **kwargs):
            raise AssertionError("unexpected kernel quadrature")

        monkeypatch.setattr(swnumeric, "kernel_moment", no_quadrature)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            orders = recursion_residual_orders(0, 4, [1.0, 0.7, 1.3, 0.9], smax=0)
        assert orders == {0: 0}
