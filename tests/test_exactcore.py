"""Tests for the exact-arithmetic core."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superkdv.exactcore import (
    ExactCoreError,
    FormalPolynomial,
    GradedSeries,
    Truncation,
    automorphism_factor,
    bernoulli,
    double_factorial,
    euler_characteristic_constant,
    mono_from_dict,
    shift_expansion,
    useries_exp_poly,
    useries_log,
)
from superkdv.kappa import zk_free_energy, zk_partition_function
from superkdv.spincorr import _chi_series
from superkdv.virasoro import free_energy, solve_truncation


class TestConstants:
    def test_double_factorial_small(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105
        assert double_factorial(6) == 48

    def test_double_factorial_rejects(self):
        with pytest.raises(ExactCoreError):
            double_factorial(-2)

    def test_automorphism_factor(self):
        # t_0^2 t_3 t_5^3: 2! 1! 3!
        assert automorphism_factor([2, 1, 3]) == 12
        assert automorphism_factor([]) == 1

    def test_bernoulli_against_recurrence(self):
        # independent oracle: sum_{k=0}^{n} C(n+1,k) B_k = 0
        b = {0: Fraction(1), 1: Fraction(-1, 2)}
        for n in range(2, 21):
            b[n] = -sum(comb(n + 1, k) * b[k] for k in range(n)) / (n + 1)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(8) == Fraction(-1, 30)
        for n in range(2, 21, 2):
            assert bernoulli(n) == b[n]

    def test_bernoulli_rejects(self):
        for n in (0, 1, 3, -2):
            with pytest.raises(ExactCoreError):
                bernoulli(n)

    def test_euler_characteristic(self):
        assert euler_characteristic_constant(2) == Fraction(-1, 240)
        assert euler_characteristic_constant(3) == Fraction(-1, 1008)
        assert _chi_series(Truncation(2, 0, 0, 0)).terms == {(1, -1, ()): Fraction(1, 240)}
        with pytest.raises(ExactCoreError):
            euler_characteristic_constant(1)


TR = Truncation(gmax=2, kmax=3, dmax=4, smax=4)
TRSMALL = Truncation(gmax=2, kmax=2, dmax=3, smax=2)


def sparse_series(trunc=TRSMALL, max_terms=4):
    keys = st.tuples(
        st.integers(-1, trunc.hmax),
        st.integers(0, trunc.amax),
        st.lists(
            st.tuples(st.integers(0, trunc.kmax), st.integers(1, 2)),
            max_size=2,
            unique_by=lambda p: p[0],
        ).map(lambda ps: mono_from_dict(dict(ps))),
    )
    values = st.fractions(
        min_value=-5, max_value=5, max_denominator=12
    ).filter(lambda v: v != 0)

    def build(pairs):
        out = GradedSeries.zero(trunc)
        for (h, a, t), v in pairs:
            out = out + GradedSeries.term(trunc, v, h, a, t)
        return out

    return st.lists(st.tuples(keys, values), max_size=max_terms).map(build)


def no_constant(series):
    # strip any weightless t-free key so exp/log are defined
    bad = [k for k in series.terms if not k[2] and k[0] <= 0 and k[1] <= 0]
    cleaned = dict(series.terms)
    for k in bad:
        del cleaned[k]
    return GradedSeries(series.trunc, cleaned)


# a small window with negative h and a, so random keys often sit on its
# edges and products often leave it
TREDGE = Truncation(gmax=2, kmax=2, dmax=3, smax=4, h_lo=-2, h_hi=2, a_lo=-2, a_hi=2)
BIG_DEN = 2**64 + 13  # larger than any machine word


def window_series(trunc=TREDGE, max_terms=6):
    """Series with keys anywhere in the window (edges included) and
    coefficients whose denominators may exceed 2**64."""
    monos = st.lists(
        st.tuples(st.integers(0, trunc.kmax), st.integers(1, trunc.dmax)),
        max_size=2,
        unique_by=lambda p: p[0],
    ).map(lambda ps: mono_from_dict(dict(ps)))
    keys = st.tuples(
        st.integers(trunc.hmin, trunc.hmax),
        st.integers(trunc.amin, trunc.amax),
        monos.filter(lambda t: sum(e for _, e in t) <= trunc.dmax),
    )
    values = st.builds(
        Fraction,
        st.integers(-(10**25), 10**25).filter(bool),
        st.sampled_from([1, 2, 3, 12, BIG_DEN, 3**45, BIG_DEN * 7**30]),
    )
    return st.dictionaries(keys, values, max_size=max_terms).map(
        lambda d: GradedSeries(trunc, d)
    )


def naive_mul(x: GradedSeries, y: GradedSeries) -> dict:
    """All pairs, summed, then kept only where the window contains the key."""
    out: dict = {}
    for (h1, a1, t1), v1 in x.terms.items():
        for (h2, a2, t2), v2 in y.terms.items():
            t = mono_from_dict(Counter(dict(t1)) + Counter(dict(t2)))
            key = (h1 + h2, a1 + a2, t)
            out[key] = out.get(key, 0) + v1 * v2
    return {k: v for k, v in out.items() if v and x.trunc.contains(*k)}


class TestSeriesProduct:
    # two routes into the same key with opposite signs: t0 t1 cancels
    CANCEL = (
        GradedSeries(TREDGE, {(0, 0, ((0, 1),)): Fraction(1), (0, 0, ((1, 1),)): Fraction(1)}),
        GradedSeries(TREDGE, {(0, 0, ((0, 1),)): Fraction(1), (0, 0, ((1, 1),)): Fraction(-1)}),
    )
    # keys on every corner of the h/a window, and a degree-dmax key
    EDGES = (
        GradedSeries(
            TREDGE,
            {
                (2, -2, ()): Fraction(1, BIG_DEN),
                (-2, 2, ((0, 1),)): Fraction(-3, 7),
                (0, 0, ((2, 3),)): Fraction(5),
            },
        ),
        GradedSeries(
            TREDGE,
            {(0, 0, ()): Fraction(BIG_DEN, 3**45), (-2, -2, ((1, 1),)): Fraction(2)},
        ),
    )

    @given(window_series(), window_series())
    @settings(max_examples=200, deadline=None)
    @example(*CANCEL)
    @example(*EDGES)
    @example(GradedSeries(TREDGE), EDGES[0])
    @example(EDGES[1], GradedSeries(TREDGE))
    def test_matches_all_pairs_reference(self, x, y):
        got = (x * y).terms
        assert got == naive_mul(x, y)
        assert all(got.values())

    @given(window_series(), window_series())
    @settings(max_examples=50, deadline=None)
    def test_commutes(self, x, y):
        assert x * y == y * x

    def test_cancellation_drops_the_key(self):
        got = (self.CANCEL[0] * self.CANCEL[1]).terms
        assert got == {(0, 0, ((0, 2),)): 1, (0, 0, ((1, 2),)): -1}


class TestGradedSeries:
    def test_term_and_coefficient(self):
        s = GradedSeries.term(TR, Fraction(3, 2), h=1, a=0, t=((0, 2),))
        assert s.coefficient(1, 0, ((0, 2),)) == Fraction(3, 2)
        assert s.coefficient(0, 0, ()) == 0

    def test_derive_basic(self):
        # d/dt_0 of t_0^2/2 = t_0
        s = GradedSeries.term(TR, Fraction(1, 2), t=((0, 2),))
        assert s.derive(0) == GradedSeries.term(TR, 1, t=((0, 1),))

    def test_mul_truncates_degree(self):
        cubic = GradedSeries.term(TR, 1, t=((0, 3),))
        sq = cubic * cubic  # degree 6 > dmax
        assert sq.is_zero()

    def test_exp_log_roundtrip_simple(self):
        s = GradedSeries.term(TR, 2, t=((1, 1),)) + GradedSeries.term(
            TR, Fraction(-1, 3), h=1
        )
        assert s.exp().log() == s

    def test_exp_rejects_weightless_constant(self):
        with pytest.raises(ExactCoreError):
            GradedSeries.term(TR, 1).exp()

    def test_log_requires_unit(self):
        with pytest.raises(ExactCoreError):
            GradedSeries.term(TR, 2).log()

    # Ring identities hold exactly once all arithmetic happens in a window
    # wide enough that nothing real is pruned mid-computation; compute in a
    # padded window, then compare restricted to the original one.

    @given(sparse_series(), sparse_series())
    @settings(max_examples=25, deadline=None)
    def test_exp_is_homomorphism(self, a, b):
        work = TRSMALL.padded(TRSMALL.dmax + 2)
        a, b = no_constant(a).with_window(work), no_constant(b).with_window(work)
        lhs = (a + b).exp().restrict(TRSMALL)
        rhs = (a.exp() * b.exp()).restrict(TRSMALL)
        assert lhs == rhs

    @given(sparse_series(), sparse_series(), st.integers(0, TRSMALL.kmax))
    @settings(max_examples=25, deadline=None)
    def test_leibniz(self, a, b, k):
        # window wide enough that the polynomial product is never pruned,
        # so the derivation identity is exact
        big = Truncation(gmax=2, kmax=2, dmax=6, smax=4, h_lo=-4, h_hi=4, a_lo=0, a_hi=4)
        a, b = a.with_window(big), b.with_window(big)
        lhs = (a * b).derive(k)
        rhs = a.derive(k) * b + a * b.derive(k)
        assert lhs == rhs

    @given(sparse_series())
    @settings(max_examples=25, deadline=None)
    def test_log_exp_roundtrip(self, a):
        work = TRSMALL.padded(TRSMALL.dmax + 2)
        a = no_constant(a).with_window(work)
        assert a.exp().log().restrict(TRSMALL) == a.restrict(TRSMALL)

    def test_truncation_monotonicity(self):
        small = Truncation(gmax=1, kmax=2, dmax=3, smax=2)
        big = Truncation(gmax=2, kmax=3, dmax=5, smax=4)
        mk = lambda tr: (
            GradedSeries.term(tr, 1, h=-1, a=1, t=((0, 1),))
            + GradedSeries.term(tr, Fraction(1, 2), t=((1, 1), (2, 1)))
        ).exp()
        assert mk(big).restrict(small) == mk(small)


def reference_exp(x: GradedSeries, pad: int) -> GradedSeries:
    """sum_p x^p / p! in the window widened by `pad`, restricted back."""
    work = x.trunc.padded(pad)
    xw = x.with_window(work)
    total = power = GradedSeries.one(work)
    p = 0
    while not power.is_zero():
        p += 1
        power = (power * xw).scale(Fraction(1, p))
        total = total + power
    return total.restrict(x.trunc)


def reference_substitute(x: GradedSeries, s2_step: int) -> GradedSeries:
    """t_k -> sum_m (s^2)^{s2_step m} t_{k+m} / (2^m m!) by series products:
    each t_k^e becomes the e-th power of its image, summed in a padded
    window and restricted back."""
    tr = x.trunc
    work = tr.padded(x._exp_pad())
    images = {}
    for k in range(tr.kmax + 1):
        images[k] = GradedSeries.zero(work)
        for m in range(tr.kmax - k + 1):
            images[k] = images[k] + GradedSeries.term(
                work, Fraction(1, 2**m * factorial(m)), a=s2_step * m, t=((k + m, 1),)
            )
    out = GradedSeries.zero(work)
    for (h, a, t), v in x.terms.items():
        piece = GradedSeries.term(work, v, h, a)
        for k, e in t:
            for _ in range(e):
                piece = piece * images[k]
        out = out + piece
    return out.restrict(tr)


def solved_free_energy(model, trunc):
    """log Z as the store solves it, on the z-window of its solve window."""
    return free_energy(model, trunc).with_window(solve_truncation(model, trunc).z_window())


def zk_vacuum(trunc):
    return zk_free_energy(trunc, vacuum=True).with_window(trunc.z_window())


class TestSubstitute:
    """`substitute` expands each t-monomial once; the reference multiplies
    the images of its legs as series."""

    ZK, ZK0 = Truncation(2, 4, 4, 6), Truncation(0, 4, 4, 4)
    CASES = {
        "Z^K": lambda: zk_partition_function(TestSubstitute.ZK),
        "Z^K on the D window": lambda: zk_partition_function(TestSubstitute.ZK).with_window(
            TestSubstitute.ZK.padded(TestSubstitute.ZK.dmax + TestSubstitute.ZK.gmax + 2)
        ),
        "F^K graded": lambda: zk_free_energy(TestSubstitute.ZK),
        "F^K at s = 1": lambda: zk_free_energy(TestSubstitute.ZK, graded=False),
        "Z^K gmax 0": lambda: zk_partition_function(TestSubstitute.ZK0),
        "F^K gmax 0 at s = 1": lambda: zk_free_energy(TestSubstitute.ZK0, graded=False),
    }

    @pytest.mark.parametrize("s2_step", [0, 1])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_series_products(self, case, s2_step):
        x = self.CASES[case]()
        got = x.substitute(s2_step)
        assert got == reference_substitute(x, s2_step)
        assert got != x

    def test_shift_expansion_matches_j_vectors(self):
        # every j-vector with |j| <= budget and legs kept <= cap
        legs, budget, cap = (0, 1, 1, 3), 4, 4
        ref = {}
        for jvec in product(range(budget + 1), repeat=len(legs)):
            target = tuple(sorted(k + j for k, j in zip(legs, jvec)))
            if sum(jvec) <= budget and max(target) <= cap:
                w = Fraction(1)
                for j in jvec:
                    w /= 2**j * factorial(j)
                key = (target, sum(jvec))
                ref[key] = ref.get(key, 0) + w
        got = shift_expansion(legs, budget, cap)
        assert {k: Fraction(n, 2**k[1] * factorial(k[1])) for k, n in got.items()} == ref


class TestExp:
    """`exp` runs the t-degree recurrence and prunes keys that cannot
    reach the window; the reference sums the power series in a window
    twice as wide as the padding `exp` itself uses."""

    KW2, BGW2, ZK3 = Truncation(2, 2, 4, 0), Truncation(2, 2, 4, 6), Truncation(3, 3, 3, 6)
    # name -> (series, a window its exp(x) exp(-x) is complete on); the
    # zk free energy has t-free vacuum terms at negative s-powers, and
    # chi has no t-graded terms at all
    CASES = {
        "KW genus 2": lambda: (solved_free_energy("KW", TestExp.KW2), TestExp.KW2),
        "gBGW genus 2, smax 6": lambda: (solved_free_energy("gBGW", TestExp.BGW2), TestExp.BGW2),
        "zk with vacuum": lambda: (zk_vacuum(TestExp.ZK3), TestExp.ZK3),
        "minus chi": lambda: (-_chi_series(TestExp.ZK3.z_window()), TestExp.ZK3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_power_series_reference(self, case):
        x, _ = self.CASES[case]()
        for y in (x, -x):
            assert y.exp() == reference_exp(y, 2 * y._exp_pad())

    @pytest.mark.parametrize("case", CASES)
    def test_inverse(self, case):
        # the zk vacuum terms lower the s-power, so terms above the
        # window's s-bound come back into it: multiply on a wider window
        x, cert = self.CASES[case]()
        x = x.with_window(x.trunc.padded(x._exp_pad()))
        assert (x.exp() * (-x).exp()).restrict(cert) == GradedSeries.one(cert)

    @given(sparse_series(max_terms=5))
    @settings(max_examples=50, deadline=None)
    def test_random_series_match_reference(self, a):
        a = no_constant(a)
        assert a.exp() == reference_exp(a, 2 * a._exp_pad())

    # hbar^-4 t_0^2 and s^-4 t_0^2 leave the window at t-degree 2, and one
    # more factor brings them back; s^4 t_0^3 in the third needs the term
    # s^16 of exp(s^2), beyond the pad of the t-free part
    @given(window_series())
    @settings(max_examples=100, deadline=None)
    @example(GradedSeries(TREDGE, {(-2, 0, ((0, 1),)): Fraction(1), (2, 0, ((1, 1),)): Fraction(1)}))
    @example(GradedSeries(TREDGE, {(0, -2, ((0, 1),)): Fraction(1), (0, 2, ((1, 1),)): Fraction(1)}))
    @example(GradedSeries(TREDGE, {(0, 1, ()): Fraction(1), (0, -2, ((0, 1),)): Fraction(1)}))
    def test_edge_series_match_reference(self, a):
        # t-graded keys anywhere on TREDGE, so Z_m keys leave the window on
        # every side and must come back; t-free keys kept at h, a >= 0 so
        # that both sums terminate
        a = GradedSeries(a.trunc, {
            (h, s, t): v for (h, s, t), v in a.terms.items()
            if t or (h >= 0 and s >= 0 and h + s > 0)
        })
        assert a.exp() == reference_exp(a, 2 * a._exp_pad())


class TestFormalPolynomial:
    def test_arith(self):
        k1 = FormalPolynomial.symbol("k1")
        k2 = FormalPolynomial.symbol("k2")
        p = (k1 + k2) * (k1 - k2)
        assert p == k1 * k1 - k2 * k2
        assert p.terms[(("k1", 2),)] == 1

    def test_pow(self):
        x = FormalPolynomial.symbol("x")
        assert (x + FormalPolynomial.const(1)) ** 2 == x * x + x.scale(2) + FormalPolynomial.const(1)

    def test_constant_operands(self):
        c = FormalPolynomial.const(Fraction(-2, 3))
        p = FormalPolynomial({(("a", 1), ("b", 2)): Fraction(3), (): Fraction(1, 2)})
        assert (c * p).terms == (p * c).terms == {
            (("a", 1), ("b", 2)): Fraction(-2),
            (): Fraction(-1, 3),
        }
        assert (c * c).terms == {(): Fraction(4, 9)}
        assert (c * FormalPolynomial()).is_zero() and (FormalPolynomial() * c).is_zero()

    def test_no_zero_coefficients(self):
        x = FormalPolynomial.symbol("x")
        one = FormalPolynomial.const(1)
        assert ((x + one) * (x - one)).terms == {(("x", 2),): 1, (): -1}
        assert (x + one + (-x)).terms == {(): 1}
        assert ((x - x) * one).is_zero()


class TestUnivariateSeries:
    def test_log_exp_inverse(self):
        # exp(log(A)) == A for a unit-constant Fraction series, done through
        # the polynomial-exp helper with a dummy symbol-free ring
        a = [Fraction(1), Fraction(-3), Fraction(15), Fraction(-105, 1)]
        l = useries_log(a, order=3)
        lp = [FormalPolynomial.const(c) for c in l]
        back = useries_exp_poly(lp, order=3)
        assert [c.terms.get((), 0) for c in back] == a
