"""Tests for the topological-recursion engine.

The kernel orientation is calibrated once (airy (0,3) = 1); every
other value compared here is an independent check against the symbolic
correlator tables or a frozen literature constant.
"""

import hashlib
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from superkdv import spectral
from superkdv.cli import canonical_bytes
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


def y_series(label: str, order: int) -> dict:
    """y(z) of each curve as {power of z: {power of the curve's parameter:
    coefficient}}, up to `order` powers of z past its leading term."""
    if label == "airy":
        return {1: {0: Fraction(1)}}
    if label == "bessel":
        return {-1: {0: Fraction(1)}}
    if label == "ck":
        # z/(z^2+s^2) expanded at z = oo
        return {-2 * j - 1: {j: Fraction((-1) ** j)} for j in range(order // 2 + 1)}
    # cns: cos(2 pi z)/z with (2 pi)^{2j} stored as 4^j (pi^2)^j
    return {2 * j - 1: {j: Fraction((-4) ** j, factorial(2 * j))} for j in range(order // 2 + 1)}


class TestCurves:
    def test_bad_inputs(self):
        with pytest.raises(ExactCoreError):
            spectral_curve("cubic")
        assert spectral_curve("cns") == "cns"
        # checked before any kernel prefactor is looked up by label
        with pytest.raises(ExactCoreError, match="unknown curve 'cubic'"):
            tr_correlators("cubic", 1, 1)

    def test_kernel_prefactor_exact(self):
        # G = 1/(4 z y): airy 1/(4z^2), bessel 1/4, ck 1/4 + s^2/(4z^2)
        # as {power of z: {power of the curve's parameter: coefficient}},
        # whole at every genus
        for g in range(5):
            assert spectral._g_series("airy", g) == {-2: {0: Fraction(1, 4)}}
            assert spectral._g_series("bessel", g) == {0: {0: Fraction(1, 4)}}
            assert spectral._g_series("ck", g) == {0: {0: Fraction(1, 4)}, -2: {1: Fraction(1, 4)}}

    def test_cns_prefactor_series(self):
        # (1/4) sec(2 pi z) = 1/4 + (pi^2/2) z^2 + (5 pi^4/6) z^4 + ...,
        # held at genus g through z^{2g-2}, the power its residue reads
        terms = [{0: Fraction(1, 4)}, {1: Fraction(1, 2)}, {2: Fraction(5, 6)}]
        for g in range(5):
            got = spectral._g_series("cns", g)
            assert sorted(got) == list(range(0, max(2 * g - 2, 0) + 1, 2)), g
            for p, want in enumerate(terms[: len(got)]):
                assert got[2 * p] == want, (g, p)

    @pytest.mark.parametrize("top", [4, 40, 120])
    @pytest.mark.parametrize("label", CURVE_LABELS)
    def test_kernel_prefactor_inverts_4zy(self, label, top):
        # G * 4 z y = 1 at every power within `top` of z^0, for the
        # closed-form G of the genus that reads it through z^top against
        # the curve's own y series
        out = {}
        for p1, g1 in spectral._g_series(label, top // 2 + 1).items():
            for p2, y2 in y_series(label, top).items():
                for e1, c1 in g1.items():
                    for e2, c2 in y2.items():
                        row = out.setdefault(p1 + p2 + 1, {})
                        row[e1 + e2] = row.get(e1 + e2, 0) + 4 * c1 * c2
        for p in range(-top, top + 1):
            nonzero = {e: c for e, c in out.get(p, {}).items() if c}
            assert nonzero == ({0: 1} if p == 0 else {}), (label, top, p)


class TestTrTables:
    def test_airy_values(self):
        t = tr_correlators(spectral_curve("airy"), 1, 3)
        # coefficients are {power of the curve's parameter: value}
        assert t.entries[(0, (0, 0, 0))] == {0: 1}
        assert t.entries[(1, (1,))] == {0: Fraction(1, 24)}
        assert t.entries[(1, (0, 2))] == {0: Fraction(1, 24)}
        assert t.entries[(1, (1, 1))] == {0: Fraction(1, 24)}

    def test_bessel_values(self):
        t = tr_correlators(spectral_curve("bessel"), 2, 2)
        assert t.entries[(1, (0,))] == {0: Fraction(1, 8)}
        assert t.entries[(2, (1,))] == {0: Fraction(3, 128)}
        # no genus-0 output: Theta-class degree exceeds the dimension
        assert not any(g == 0 for (g, _) in t.entries)

    def test_ck_values(self):
        t = tr_correlators(spectral_curve("ck"), 1, 1)
        assert t.entries[(1, (0,))] == {0: Fraction(1, 8)}
        assert t.entries[(1, (1,))] == {1: Fraction(1, 24)}  # s^2/24

    def test_ck_at_s_zero_is_bessel(self):
        ck = tr_correlators(spectral_curve("ck"), 2, 2)
        bes = tr_correlators(spectral_curve("bessel"), 2, 2)
        slice0 = {key: {0: c[0]} for key, c in ck.entries.items() if c.get(0)}
        assert slice0 == bes.entries

    @pytest.mark.parametrize("label", CURVE_LABELS)
    def test_longer_prefactor_changes_nothing(self, label, monkeypatch):
        # each genus reads G through z^{2g-2}; ten more powers of z in
        # every genus's G (five more secant terms on cns) leave every
        # table through genus 4 as it is
        exact = tr_correlators(label, 4, 2).entries
        original = spectral._g_series
        assert len(original("cns", 9)) == len(original("cns", 4)) + 5
        monkeypatch.setattr(spectral, "_g_series", lambda curve, g: original(curve, g + 5))
        spectral._omega_cached.cache_clear()
        try:
            assert tr_correlators(label, 4, 2).entries == exact
        finally:
            spectral._omega_cached.cache_clear()

    def test_entries_do_not_alias_the_cache(self):
        # editing a returned table must not change the next call's table
        curve = spectral_curve("ck")
        first = tr_correlators(curve, 1, 2)
        expect = {key: dict(coeff) for key, coeff in first.entries.items()}
        first.entries[(1, (1,))][1] += 1
        first.entries[(1, (0, 0))].clear()
        assert tr_correlators(curve, 1, 2).entries == expect

    def test_corrupted_bracket_is_asymmetric(self, monkeypatch):
        # <tau_0 tau_2>_1 is read with first leg 0 and with first leg 2;
        # a change to the bracket behind one of them must be caught
        original = spectral._bracket

        def corrupted(label, g, rest):
            den, out = original(label, g, rest)
            out = dict(out)
            if (g, rest) == (1, (2,)):
                # {z power: {parameter power: int numerator over den}}; +1
                row = dict(out.get(0, {}))
                row[0] = row.get(0, 0) + den
                out[0] = row
            return den, out

        monkeypatch.setattr(spectral, "_bracket", corrupted)
        spectral._omega_cached.cache_clear()
        try:
            with pytest.raises(ExactCoreError, match="asymmetric correlator"):
                tr_correlators(spectral_curve("airy"), 1, 2)
        finally:
            spectral._omega_cached.cache_clear()

    @pytest.mark.parametrize(
        "label, g, n, digest",
        [
            ("ck", 4, 4, "42c3aa4d6f3b945a9650c23fdcf66685f4b3af286ed8b5449236cc16c8d08b54"),
            ("airy", 5, 3, "f242056b3865a13bb3f11cc7a9d86f9c156f473e6dc94a84f5a54585f95628a1"),
            ("cns", 5, 3, "cb75e1aa5aad3730c79590f78513a78da8a5e7dd52c86030fe01c356ca927051"),
            ("bessel", 6, 6, "f87dd2f1806436a74434eac4c3f2c408bcfe2082d26bbf48c6e7c614a349b7f1"),
        ],
        ids=["ck-4-4", "airy-5-3", "cns-5-3", "bessel-6-6"],
    )
    def test_frozen_bytes(self, label, g, n, digest):
        # sha256 of the canonical JSON bytes, frozen while the recursion
        # still summed Fractions term by term
        payload = canonical_bytes(tr_correlators(label, g, n).to_json())
        assert hashlib.sha256(payload).hexdigest() == digest


class TestTableComparison:
    def test_airy_matches_psi_intersections(self):
        rep = compare_to_tables(spectral_curve("airy"), chi_bound=3)
        assert rep["mismatches"] == []
        assert rep["compared"] >= 10

    def test_bessel_matches_theta_intersections(self):
        rep = compare_to_tables(spectral_curve("bessel"), chi_bound=3)
        assert rep["mismatches"] == []
        assert rep["compared"] >= 4

    def test_ck_matches_kappa_entries(self):
        rep = compare_to_tables(spectral_curve("ck"), chi_bound=3)
        assert rep["mismatches"] == []
        assert rep["compared"] >= 20

    @pytest.mark.parametrize("label", ["airy", "bessel"])
    def test_entry_beyond_chi_bound_is_compared(self, label, monkeypatch):
        # (1, 5) lies past chi_bound 3 but inside the g x n window both
        # sides span; the planted entry sits below the dimension there
        built = tr_correlators

        def planted(curve, gmax, nmax):
            table = built(curve, gmax, nmax)
            table.entries[(1, (0, 0, 0, 0, 1))] = {0: Fraction(1)}
            return table

        monkeypatch.setattr(spectral, "tr_correlators", planted)
        rep = compare_to_tables(spectral_curve(label), chi_bound=3)
        assert rep["mismatches"] == [((1, (0, 0, 0, 0, 1)), {0: Fraction(1)}, None)]

    def test_no_reference_for_cns(self):
        with pytest.raises(ExactCoreError):
            compare_to_tables(spectral_curve("cns"))


class TestEtaReexpansion:
    def test_worked_example(self):
        eta = eta_reexpand(tr_correlators(spectral_curve("ck"), 1, 1), smax=2)
        assert eta.entries[(1, (0,))] == {0: Fraction(1, 8)}
        assert eta.entries[(1, (1,))] == {1: Fraction(5, 48)}  # 5 s^2/48

    def test_s_zero_slice_unchanged(self):
        ck = tr_correlators(spectral_curve("ck"), 1, 2)
        eta = eta_reexpand(ck, smax=4)
        for key, coeff in ck.entries.items():
            assert eta.entries[key].get(0, 0) == coeff.get(0, 0)

    def test_matches_spin_correlators(self):
        rep = eta_spin_compare(spectral_curve("ck"), chi_bound=3, smax=4)
        assert rep["mismatches"] == []
        assert rep["compared"] >= 15

    @pytest.mark.parametrize("gmax, nmax, smax", [(2, 3, 6), (3, 4, 8)])
    def test_matches_brute_force(self, gmax, nmax, smax):
        # every ordering of each key times every j-vector in [0, smax/2]^n,
        # kept when the shifted key is sorted: the sum the walk prunes
        table = tr_correlators(spectral_curve("ck"), gmax, nmax)
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
        expect = OddDifferentialTable("tr-ck-eta")
        expect.entries = {k: v for k, v in nonzero.items() if v}
        got = eta_reexpand(table, smax)
        assert canonical_bytes(got.to_json()) == canonical_bytes(expect.to_json())

    def test_rejects_wrong_engine(self):
        t = tr_correlators(spectral_curve("airy"), 1, 1)
        with pytest.raises(ExactCoreError):
            eta_reexpand(t, smax=2)


class TestLaplaceCheck:
    def test_calibration_and_consequences(self):
        for g, n in [(1, 1), (0, 3), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
            rep = cns_laplace_check(g, n)
            assert rep["mismatches"] == [], (g, n)

    def test_rejects_unstable(self):
        with pytest.raises(ExactCoreError):
            cns_laplace_check(0, 2)
