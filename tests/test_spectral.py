"""Tests for the topological-recursion engine.

The kernel orientation is calibrated once (airy (0,3) = 1); every
other value compared here is an independent check against the symbolic
correlator tables or a frozen literature constant.
"""

from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from superkdv import spectral
from superkdv.exactcore import ExactCoreError
from superkdv.spectral import (
    CURVE_LABELS,
    OddDifferentialTable,
    cns_laplace_check,
    compare_to_tables,
    eta_reexpand,
    eta_spin_compare,
    spectral_curve,
    tr_correlators,
)
from superkdv.tables import canonical_bytes


class TestCurves:
    def test_bad_inputs(self):
        with pytest.raises(ExactCoreError):
            spectral_curve("cubic")
        with pytest.raises(ExactCoreError):
            spectral_curve("airy", 2)

    def test_kernel_prefactor_exact(self):
        # G = 1/(4 z y): airy 1/(4z^2), bessel 1/4, ck 1/4 + s^2/(4z^2)
        # as {power of z: {power of the curve's parameter: coefficient}}
        assert spectral._g_series("airy", 12) == {-2: {0: Fraction(1, 4)}}
        assert spectral._g_series("bessel", 12) == {0: {0: Fraction(1, 4)}}
        assert spectral._g_series("ck", 12) == {0: {0: Fraction(1, 4)}, -2: {1: Fraction(1, 4)}}

    def test_cns_prefactor_series(self):
        # (1/4) sec(2 pi z) = 1/4 + (pi^2/2) z^2 + (5 pi^4/6) z^4 + ...
        g = spectral._g_series("cns", 12)
        assert g[0] == {0: Fraction(1, 4)}
        assert g[2] == {1: Fraction(1, 2)}
        assert g[4] == {2: Fraction(5, 6)}

    @pytest.mark.parametrize("order", [4, 40, 120])
    @pytest.mark.parametrize("label", CURVE_LABELS)
    def test_kernel_prefactor_inverts_4zy(self, label, order):
        # G * 4 z y = 1 at every power within `order` of z^0, whatever the
        # inversion algorithm; coefficients are {parameter power: value}
        out = {}
        for p1, g1 in spectral._g_series(label, order).items():
            for p2, y2 in spectral._y_series(label, order).items():
                for e1, c1 in g1.items():
                    for e2, c2 in y2.items():
                        row = out.setdefault(p1 + p2 + 1, {})
                        row[e1 + e2] = row.get(e1 + e2, 0) + 4 * c1 * c2
        for p in range(-order, order + 1):
            nonzero = {e: c for e, c in out.get(p, {}).items() if c}
            assert nonzero == ({0: 1} if p == 0 else {}), (label, order, p)


class TestTrTables:
    def test_airy_values(self):
        t = tr_correlators(spectral_curve("airy", 16), 1, 3)
        # coefficients are {power of the curve's parameter: value}
        assert t.get(0, (0, 0, 0)) == {0: 1}
        assert t.get(1, (1,)) == {0: Fraction(1, 24)}
        assert t.get(1, (0, 2)) == {0: Fraction(1, 24)}
        assert t.get(1, (1, 1)) == {0: Fraction(1, 24)}

    def test_bessel_values(self):
        t = tr_correlators(spectral_curve("bessel", 16), 2, 2)
        assert t.get(1, (0,)) == {0: Fraction(1, 8)}
        assert t.get(2, (1,)) == {0: Fraction(3, 128)}
        # no genus-0 output: Theta-class degree exceeds the dimension
        assert not any(g == 0 for (g, _) in t.entries)

    def test_ck_values(self):
        t = tr_correlators(spectral_curve("ck", 16), 1, 1)
        assert t.get(1, (0,)) == {0: Fraction(1, 8)}
        assert t.get(1, (1,)) == {1: Fraction(1, 24)}  # s^2/24

    def test_ck_at_s_zero_is_bessel(self):
        ck = tr_correlators(spectral_curve("ck", 16), 2, 2)
        bes = tr_correlators(spectral_curve("bessel", 16), 2, 2)
        slice0 = {key: {0: c[0]} for key, c in ck.entries.items() if c.get(0)}
        assert slice0 == bes.entries

    def test_order_stability(self):
        # --order truncates y; G is still exact for airy, bessel and ck,
        # and cns at order 4 holds every G coefficient up to (3,1)
        for label in CURVE_LABELS:
            for gmax, nmax in ((3, 1), (2, 3)):
                big = tr_correlators(spectral_curve(label, 40), gmax, nmax)
                for order in (4, 16):
                    small = tr_correlators(spectral_curve(label, order), gmax, nmax)
                    assert small.entries == big.entries, (label, order, gmax, nmax)

    def test_entries_do_not_alias_the_cache(self):
        # editing a returned table must not change the next call's table
        curve = spectral_curve("ck", 16)
        first = tr_correlators(curve, 1, 2)
        expect = {key: dict(coeff) for key, coeff in first.entries.items()}
        first.entries[(1, (1,))][1] += 1
        first.entries[(1, (0, 0))].clear()
        assert tr_correlators(curve, 1, 2).entries == expect

    def test_cns_insufficient_order(self):
        # (4,1) needs the z^6 coefficient of G; order 4 holds it to z^4
        with pytest.raises(ExactCoreError, match="insufficient series order"):
            tr_correlators(spectral_curve("cns", 4), 4, 1)

    def test_corrupted_bracket_is_asymmetric(self, monkeypatch):
        # <tau_0 tau_2>_1 is read with first leg 0 and with first leg 2;
        # a change to the bracket behind one of them must be caught
        original = spectral._bracket

        def corrupted(label, order, g, rest):
            out = dict(original(label, order, g, rest))
            if (g, rest) == (1, (2,)):
                # {z power: {parameter power: coefficient}}
                row = dict(out.get(0, {}))
                row[0] = row.get(0, 0) + 1
                out[0] = row
            return out

        monkeypatch.setattr(spectral, "_bracket", corrupted)
        spectral._omega_cached.cache_clear()
        try:
            with pytest.raises(ExactCoreError, match="asymmetric correlator"):
                tr_correlators(spectral_curve("airy", 16), 1, 2)
        finally:
            spectral._omega_cached.cache_clear()

    def test_caches_keyed_by_needed_order(self):
        # G is exact on airy, bessel and ck, and cns reads G only up to
        # z^{2g-2}, so a sweep over --order past what the request needs
        # must neither grow the caches nor change a table
        caches = (spectral._omega_cached, spectral._g_series)
        for label, orders in (
            ("airy", range(5, 105)),
            ("bessel", range(5, 105)),
            ("ck", range(5, 105)),
            ("cns", range(8, 108)),
        ):
            first = tr_correlators(spectral_curve(label, orders[0]), 3, 3)
            sizes = [f.cache_info().currsize for f in caches]
            for order in orders[1:]:
                again = tr_correlators(spectral_curve(label, order), 3, 3)
                assert again.entries == first.entries, (label, order)
            assert [f.cache_info().currsize for f in caches] == sizes, label


class TestTableComparison:
    def test_airy_matches_psi_intersections(self):
        rep = compare_to_tables(spectral_curve("airy", 24), chi_bound=3)
        assert rep["mismatches"] == []
        assert rep["compared"] >= 10

    def test_bessel_matches_theta_intersections(self):
        rep = compare_to_tables(spectral_curve("bessel", 24), chi_bound=3)
        assert rep["mismatches"] == []
        assert rep["compared"] >= 4

    def test_ck_matches_kappa_entries(self):
        rep = compare_to_tables(spectral_curve("ck", 24), chi_bound=3)
        assert rep["mismatches"] == []
        assert rep["compared"] >= 20

    def test_no_reference_for_cns(self):
        with pytest.raises(ExactCoreError):
            compare_to_tables(spectral_curve("cns", 16))


class TestEtaReexpansion:
    def test_worked_example(self):
        eta = eta_reexpand(tr_correlators(spectral_curve("ck", 16), 1, 1), smax=2)
        assert eta.get(1, (0,)) == {0: Fraction(1, 8)}
        assert eta.get(1, (1,)) == {1: Fraction(5, 48)}  # 5 s^2/48

    def test_s_zero_slice_unchanged(self):
        ck = tr_correlators(spectral_curve("ck", 16), 1, 2)
        eta = eta_reexpand(ck, smax=4)
        for key, coeff in ck.entries.items():
            assert eta.entries[key].get(0, 0) == coeff.get(0, 0)

    def test_matches_spin_correlators(self):
        rep = eta_spin_compare(spectral_curve("ck", 24), chi_bound=3, smax=4)
        assert rep["mismatches"] == []
        assert rep["compared"] >= 15

    @pytest.mark.parametrize("gmax, nmax, smax", [(2, 3, 6), (3, 4, 8)])
    def test_matches_brute_force(self, gmax, nmax, smax):
        # every ordering of each key times every j-vector in [0, smax/2]^n,
        # kept when the shifted key is sorted: the sum the walk prunes
        table = tr_correlators(spectral_curve("ck", 40), gmax, nmax)
        jmax = smax // 2
        ref = {}
        for (g, k), coeff in table.entries.items():
            for kvec in set(permutations(k)):
                for jvec in product(range(jmax + 1), repeat=len(k)):
                    target = tuple(a + j for a, j in zip(kvec, jvec))
                    if list(target) != sorted(target):
                        continue
                    den = 1
                    for j in jvec:
                        den *= 2**j * factorial(j)
                    row = ref.setdefault((g, target), {})
                    for e, v in coeff.items():
                        e += sum(jvec)
                        if e <= jmax:
                            row[e] = row.get(e, 0) + v / den
        nonzero = {key: {e: v for e, v in row.items() if v} for key, row in ref.items()}
        expect = OddDifferentialTable("tr-ck-eta", {k: v for k, v in nonzero.items() if v})
        got = eta_reexpand(table, smax)
        assert canonical_bytes(got.to_json()) == canonical_bytes(expect.to_json())

    def test_rejects_wrong_engine(self):
        t = tr_correlators(spectral_curve("airy", 16), 1, 1)
        with pytest.raises(ExactCoreError):
            eta_reexpand(t, smax=2)


class TestLaplaceCheck:
    def test_calibration_and_consequences(self):
        for g, n in [(1, 1), (0, 3), (1, 2), (2, 1), (2, 2)]:
            rep = cns_laplace_check(g, n)
            assert rep["mismatches"] == [], (g, n)

    def test_rejects_unstable(self):
        with pytest.raises(ExactCoreError):
            cns_laplace_check(0, 2)
