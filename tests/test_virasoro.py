"""Tests for the Virasoro constraint solver and its oracles.

Frozen numeric values come from independent sources: closed-form genus-0
and genus-1 formulas, the string/dilaton recursions evaluated by hand,
and literature constants for low-genus psi-class integrals.
"""

from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from superkdv.exactcore import (
    ExactCoreError,
    GradedSeries,
    Truncation,
    double_factorial,
    fixed_sum_multisets,
    labelled_splits,
)
from superkdv.kappa import zk_correlators
from superkdv.spincorr import spin_correlators
from superkdv.virasoro import (
    OFFSET,
    apply_virasoro_oracle,
    bgw_correlators,
    check_homogeneity,
    free_energy,
    kdv_residual,
    kw_correlators,
    linear_coefficient,
    quadratic_coefficient,
    virasoro_oracle_residual,
    _admissible_sums,
    _correlator,
    _recursion,
    _with,
)

TR = Truncation(gmax=2, kmax=6, dmax=4, smax=6)
TRSMALL = Truncation(gmax=2, kmax=4, dmax=3, smax=4)


TR5 = Truncation(gmax=2, kmax=6, dmax=5, smax=6)


#: the windows the store is checked on entry by entry, per model
PIVOT_WINDOWS = [("KW", Truncation(3, 12, 7, 0), 1174), ("gBGW", Truncation(3, 5, 5, 10), 720)]


def fraction_recursion(model, g, k, kstar):
    """The store's recursion as it was written first, kept as a reference:
    Fraction arithmetic throughout, every ordered pair (i, j) formed, no
    common denominator."""
    at = k.index(kstar)
    rest = k[:at] + k[at + 1:]
    m = kstar - OFFSET[model]
    val = Fraction(0)
    for kj, e in Counter(rest).items():
        if kj + m >= 0:
            p = rest.index(kj)
            lowered = _with(rest[:p] + rest[p + 1:], kj + m)
            val += e * linear_coefficient(kj, m) * _correlator(model, g, lowered)
    splits = labelled_splits(rest) if m >= 1 else []
    for i in range(m):
        j = m - 1 - i
        piece = _correlator(model, g - 1, _with(rest, i, j))
        for left, right, w in splits:
            for g1 in range(g + 1):
                lv = _correlator(model, g1, _with(left, i))
                if lv:
                    piece += w * lv * _correlator(model, g - g1, _with(right, j))
        val += Fraction(quadratic_coefficient(i, j), 2) * piece
    if m == 0 and not rest:
        if g == 1:
            val += Fraction(1, 8)
        if g == 0 and model == "gBGW":
            val += Fraction(1, 2)
    if m == -1 and g == 0 and rest == (0, 0):
        val += 1
    return val / double_factorial(2 * kstar + 1)


def window_keys(model, window):
    """(g, k) of every entry of `window` the store enumerates, in the
    order of its tables."""
    return [
        (g, k)
        for g in range(window.gmax + 1)
        for n in range(1, window.dmax + 1)
        for total in _admissible_sums(model, window, g, n)
        for k in fixed_sum_multisets(n, total, window.kmax)
    ]


@pytest.fixture(scope="module")
def kw_table():
    return kw_correlators(TR5)


@pytest.fixture(scope="module")
def bgw_table():
    return bgw_correlators(TR)


class TestKWValues:
    def test_seed(self, kw_table):
        assert kw_table.get(0, (0, 0, 0)) == 1

    def test_genus0(self, kw_table):
        # string-equation chain from <tau_0^3> = 1
        assert kw_table.get(0, (0, 0, 0, 1)) == 1
        assert kw_table.get(0, (0, 0, 0, 0, 2)) == 1
        assert kw_table.get(0, (0, 0, 0, 1, 1)) == 2

    def test_genus1(self, kw_table):
        assert kw_table.get(1, (1,)) == Fraction(1, 24)
        assert kw_table.get(1, (0, 2)) == Fraction(1, 24)
        assert kw_table.get(1, (1, 1)) == Fraction(1, 24)
        assert kw_table.get(1, (0, 1, 2)) == Fraction(1, 12)
        assert kw_table.get(1, (1, 1, 1)) == Fraction(1, 12)

    def test_genus2(self, kw_table):
        # literature constants
        assert kw_table.get(2, (4,)) == Fraction(1, 1152)
        assert kw_table.get(2, (0, 5)) == Fraction(1, 1152)
        assert kw_table.get(2, (2, 3)) == Fraction(29, 5760)
        # dilaton: <tau_1 X>_g = (2g-2+n) <X>_g
        assert kw_table.get(2, (1, 4)) == 3 * kw_table.get(2, (4,))

    def test_dimension_constraint(self, kw_table):
        for (g, k) in kw_table.entries:
            assert sum(k) == 3 * g - 3 + len(k)
            assert 2 * g - 2 + len(k) > 0

    def test_string_equation_everywhere(self, kw_table):
        # <tau_0 prod> = sum_i <prod with one k_i lowered>, on all entries.
        # The store pivots on tau_0 by this very identity, so this restates
        # it; TestStore.test_every_pivot_agrees is the independent check.
        checked = 0
        for (g, k), v in kw_table.entries.items():
            if not k or k[0] != 0 or len(k) == 1:
                continue
            if (g, k) == (0, (0, 0, 0)):
                continue  # covered by the t_0^2/2 anomaly, not the sum
            rest = k[1:]
            rhs = sum(
                (kw_table.get(g, rest[:i] + (rest[i] - 1,) + rest[i + 1:])
                 for i in range(len(rest)) if rest[i] >= 1),
                Fraction(0),
            )
            assert v == rhs, (g, k)
            checked += 1
        assert checked > 20


class TestBGWValues:
    def test_free_energy_seeds(self):
        F = free_energy("gBGW", TR)
        assert F.coefficient(-1, 1, (0,)) == Fraction(1, 2)
        assert F.coefficient(0, 0, (0,)) == Fraction(1, 8)
        assert F.coefficient(0, 1, (1,)) == Fraction(5, 48)

    def test_genus0_one_and_two_point(self, bgw_table):
        # closed forms derived by iterating the constraints by hand:
        # <tau_m>_0 = 2^-(m+1) / ((m+1)(2m+1)), <tau_0 tau_1>_0 = 1/8
        assert bgw_table.get(0, (0,)) == Fraction(1, 2)
        assert bgw_table.get(0, (1,)) == Fraction(1, 24)
        assert bgw_table.get(0, (2,)) == Fraction(1, 240)
        assert bgw_table.get(0, (0, 1)) == Fraction(1, 8)

    def test_genus1_log_series(self, bgw_table):
        # F_1 = -(1/8) log(1 - t_0) at s = 0: <tau_0^n>_1 = (n-1)!/8
        for n in range(1, 5):
            assert bgw_table.get(1, (0,) * n) == Fraction(factorial(n - 1), 8)

    def test_genus2(self, bgw_table):
        # literature constant for the Theta-class one-point number
        assert bgw_table.get(2, (1,)) == Fraction(3, 128)

    def test_s_grading(self, bgw_table):
        for (g, k) in bgw_table.entries:
            assert 0 <= 2 - 2 * g + 2 * sum(k) <= TR.smax

    def test_dilaton_factor(self, bgw_table):
        # m=0 constraint at correlator level: factor n + 2|k|.  The store
        # pivots on tau_0 by this very identity, so this restates it;
        # TestStore.test_every_pivot_agrees is the independent check.
        checked = 0
        for (g, k), v in bgw_table.entries.items():
            if not k or k[0] != 0 or len(k) == 1:
                continue
            rest = k[1:]
            if (g, rest) in ((0, (0,)),):
                continue
            assert v == (len(rest) + 2 * sum(rest)) * bgw_table.get(g, rest), (g, k)
            checked += 1
        assert checked > 10


class TestStore:
    @pytest.mark.parametrize("model", ["KW", "gBGW"])
    def test_windows_read_one_store(self, model):
        # a table is a view: a small window holds exactly the entries of a
        # larger one that fall inside it, whatever was computed before
        view = kw_correlators if model == "KW" else bgw_correlators
        small, large = view(Truncation(1, 3, 3, 4)), view(TR5)
        inside = {
            (g, k): v
            for (g, k), v in large.entries.items()
            if g <= 1 and len(k) <= 3 and max(k) <= 3
            and (model == "KW" or 2 - 2 * g + 2 * sum(k) <= 4)
        }
        assert small.entries and small.entries == inside

    @pytest.mark.parametrize("model, trunc, pivots", PIVOT_WINDOWS, ids=["KW", "gBGW"])
    def test_every_pivot_agrees(self, model, trunc, pivots):
        # the recursion holds at every index of an entry, the store uses
        # one per entry; the others must give the same value, so the
        # table meets every constraint L_m the window reaches.  The
        # Fraction reference gives it too, from the same lower entries.
        view = kw_correlators if model == "KW" else bgw_correlators
        checked = 0
        for (g, k), v in view(trunc).entries.items():
            for p in set(k):
                assert _recursion(model, g, k, p) == v, (g, k, p)
                assert fraction_recursion(model, g, k, p) == v, (g, k, p)
                checked += 1
        assert checked == pivots

    def test_results_do_not_depend_on_call_order(self):
        # a store filled from the top of each window down holds the same
        # entries as one filled from the bottom up
        def fill(order):
            _correlator.cache_clear()
            return {
                (model, g, k): _correlator(model, g, k)
                for model, trunc, _ in PIVOT_WINDOWS
                for g, k in order(window_keys(model, trunc))
            }

        backward = fill(lambda keys: keys[::-1])
        forward = fill(list)
        assert backward == forward
        assert len(forward) == 377 + 327 and all(forward.values())

    def test_one_point_closed_forms(self):
        # one-point entries up to genus 12, past every table window of the
        # package: <tau_{3g-2}>_g = 1/(24^g g!) for KW, and
        # <tau_{g-1}>_g = (2g-1)!!(2g-3)!!/(8^g g!) for gBGW (Do-Norbury)
        for g in range(1, 13):
            assert _correlator("KW", g, (3 * g - 2,)) == Fraction(1, 24**g * factorial(g)), g
            bgw = Fraction(double_factorial(2 * g - 1) * double_factorial(2 * g - 3), 8**g * factorial(g))
            assert _correlator("gBGW", g, (g - 1,)) == bgw, g

    @pytest.mark.parametrize(
        "cached, args",
        [
            (free_energy, ("KW",)),
            (free_energy, ("gBGW",)),
            (zk_correlators, ()),
            (spin_correlators, ()),
        ],
        ids=["free_energy-KW", "free_energy-gBGW", "zk_correlators", "spin_correlators"],
    )
    def test_result_survives_eviction(self, cached, args):
        # the caches keyed by Truncation are bounded; a truncation pushed
        # out by others is rebuilt from the per-entry stores unchanged
        def as_data(result):
            return result.terms if isinstance(result, GradedSeries) else result.to_json()

        target = Truncation(2, 3, 2, 4)
        first = cached(*args, target)
        others = [Truncation(1, k, 2, s) for k in range(1, 5) for s in (0, 2, 4, 6)]
        assert len(others) >= cached.cache_info().maxsize
        for t in others:
            cached(*args, t)
        misses = cached.cache_info().misses
        again = cached(*args, target)
        assert cached.cache_info().misses == misses + 1
        assert again is not first and as_data(again) == as_data(first)


class TestOracle:
    @pytest.mark.parametrize("m", range(-1, 5))
    def test_kw_residual_zero(self, m):
        assert virasoro_oracle_residual("KW", TR, m).is_zero()

    @pytest.mark.parametrize("m", range(0, 5))
    def test_bgw_residual_zero(self, m):
        assert virasoro_oracle_residual("gBGW", TRSMALL, m).is_zero()

    def test_perturbed_f_detected(self):
        F = free_energy("KW", TRSMALL)
        bad = dict(F.terms)
        key = (0, 0, (1,))
        assert bad[key] == Fraction(1, 24)
        bad[key] = Fraction(1, 23)
        res = apply_virasoro_oracle(GradedSeries(F.trunc, bad), "KW", 0)
        assert not res.restrict(TRSMALL).is_zero()

    def test_m_below_range_rejected(self):
        F = free_energy("gBGW", TRSMALL)
        with pytest.raises(ExactCoreError):
            apply_virasoro_oracle(F, "gBGW", -1)


def z_level_residual(Z: GradedSeries, model: str, m: int) -> GradedSeries:
    """((2m+2c+1)!! d/dt_{m+c} - L_m - shift) Z, the constraint applied to Z itself."""
    c = OFFSET[model]
    res = Z.derive(m + c).scale(double_factorial(2 * m + 2 * c + 1))
    for i in range(m):
        j = m - 1 - i
        qc = quadratic_coefficient(i, j)
        res = res - Z.derive(i).derive(j).shift(dh=1).scale(Fraction(qc, 2))
    for i in range(max(-m, 0), Z.trunc.kmax - m + 1):
        res = res - Z.derive(i + m).times_t(i).scale(linear_coefficient(i, m))
    if m == 0:
        res = res - Z.scale(Fraction(1, 8))
        if model == "gBGW":
            res = res - (Z * GradedSeries.term(Z.trunc, 1, h=-1, a=1)).scale(Fraction(1, 2))
    if m == -1:
        res = res - Z.times_t(0).times_t(0).shift(dh=-1).scale(Fraction(1, 2))
    return res


class TestConjugation:
    """The F-level oracle is e^{-F} (constraint) e^F.  Checked against the
    constraint applied to Z = exp F and multiplied by exp(-F), for a
    perturbed F, so the identity is tested rather than the store."""

    @pytest.mark.parametrize(
        "model, m",
        [("KW", m) for m in range(-1, 4)] + [("gBGW", m) for m in range(0, 4)],
    )
    def test_matches_z_level_route(self, model, m):
        trunc = Truncation(2, 3, 2, 4 if model == "gBGW" else 0)
        F = free_energy(model, trunc)
        bad = dict(F.terms)
        for i, k in enumerate(sorted(bad)[::3]):
            bad[k] += Fraction(1, 7 + i)
        F = GradedSeries(F.trunc, bad)
        Fz = F.with_window(F.trunc.z_window())
        cert = Truncation(trunc.gmax, min(trunc.kmax, F.trunc.kmax), trunc.dmax, trunc.smax)
        z_level = (z_level_residual(Fz.exp(), model, m) * (-Fz).exp()).restrict(cert)
        f_level = apply_virasoro_oracle(F, model, m).restrict(cert)
        assert f_level.terms == z_level.terms
        assert not f_level.is_zero()


class TestHomogeneity:
    def test_bgw_zero(self):
        assert check_homogeneity(free_energy("gBGW", TRSMALL).restrict(TRSMALL)).is_zero()

    def test_kw_nonzero(self):
        assert not check_homogeneity(free_energy("KW", TRSMALL).restrict(TRSMALL)).is_zero()

    def test_sensitivity(self):
        # one wrong gBGW coefficient breaks the grading it must satisfy
        F = free_energy("gBGW", TRSMALL).restrict(TRSMALL)
        bad = dict(F.terms)
        key = (0, 0, (0,))
        assert bad[key] == Fraction(1, 8)
        bad[key] = Fraction(1, 7)
        assert not check_homogeneity(GradedSeries(F.trunc, bad)).is_zero()


class TestKdV:
    @pytest.mark.parametrize("model", ["KW", "gBGW"])
    def test_zero(self, model):
        res, deg = kdv_residual(free_energy(model, TR5).restrict(TR5))
        assert deg == 0
        assert res.is_zero()

    def test_sensitivity(self):
        # plant a spurious coefficient that the degree-0 slice of the
        # residual sees through d2/dt_0^2 d/dt_1
        F = free_energy("KW", TR5).restrict(TR5)
        bad = dict(F.terms)
        bad[(0, 0, (0, 0, 1))] = Fraction(1, 1000)
        assert not kdv_residual(GradedSeries(F.trunc, bad))[0].is_zero()

    def test_too_small_rejected(self):
        with pytest.raises(ExactCoreError):
            small = Truncation(1, 2, 4, 0)
            kdv_residual(free_energy("KW", small).restrict(small))

