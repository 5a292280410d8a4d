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
    accumulate,
    automorphism_factor,
    bernoulli,
    double_factorial,
    euler_characteristic_constant,
    mismatches,
    secant_numbers,
    shift_expansion,
    useries_log,
)
from superkdv.kappa import zk_free_energy, zk_partition_function
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
        # t_0^2 t_1 t_2^3: 2! 1! 3!, in any order of the multiset
        assert automorphism_factor((0, 0, 1, 2, 2, 2)) == 12
        assert automorphism_factor((2, 0, 2, 1, 0, 2)) == 12
        assert automorphism_factor(()) == 1

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

    def test_secant_numbers(self):
        # |E_0|, ..., |E_12| (OEIS A000364)
        assert secant_numbers(6) == (1, 1, 5, 61, 1385, 50521, 2702765)
        assert secant_numbers(0) == (1,)

    def test_accumulate_drops_zero_sums(self):
        out = {"a": Fraction(1, 2), "b": 3}
        got = accumulate(out, [("a", Fraction(-1, 2)), ("c", 0), ("b", 1), ("a", 2)])
        assert got is out
        assert out == {"b": 4, "a": 2}

    def test_mismatches_one_sided_and_sorted(self):
        got = {(1, 2): Fraction(1, 2), (0, 3): 5, (2,): 7}
        want = {(0, 3): 5, (0, 1): {1: Fraction(1, 3)}, (2,): 8}
        # (0, 1) only in want, (1, 2) only in got, (0, 0) in neither map
        keys = {(1, 2), (0, 3), (2,), (0, 1), (0, 0)}
        assert mismatches(got, want, keys) == [
            ((0, 1), None, {1: Fraction(1, 3)}),
            ((1, 2), Fraction(1, 2), None),
            ((2,), 7, 8),
        ]
        assert mismatches(got, got, keys) == []
        # a stored zero or empty map equals a key the other map lacks
        zeros = {(0, 0): Fraction(0), (0, 1): {}}
        assert mismatches(zeros, {}, keys) == mismatches({}, zeros, keys) == []

    def test_euler_characteristic(self):
        assert euler_characteristic_constant(2) == Fraction(-1, 240)
        assert euler_characteristic_constant(3) == Fraction(-1, 1008)
        with pytest.raises(ExactCoreError):
            euler_characteristic_constant(1)


class TestTruncation:
    def test_equal_windows_share_a_cache_entry(self):
        # the Truncation is the key of the correlator and free-energy caches
        first = Truncation(1, 2, 2, 0, hmin=-4, hmax=0, amin=-2, amax=0)
        second = Truncation(1, 2, 2, 0, hmin=-4, hmax=0, amin=-2, amax=0)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != first.padded(1)
        value = free_energy("KW", first)
        hits = free_energy.cache_info().hits
        assert free_energy("KW", second) is value
        assert free_energy.cache_info().hits == hits + 1

    def test_default_window_is_stored(self):
        # the default h/a window is the spelled-out one, and replacing a
        # bound it defaults from keeps it
        trunc = Truncation(1, 2, 2, 0)
        spelled = Truncation(1, 2, 2, 0, hmin=-4, hmax=0, amin=-2, amax=0)
        assert trunc == spelled and hash(trunc) == hash(spelled)
        wider = trunc._replace(dmax=5)
        assert wider == Truncation(1, 2, 5, 0, hmin=-4, hmax=0, amin=-2, amax=0)

    @pytest.mark.parametrize(
        "trunc, pad, z_bounds, padded_bounds",
        [
            (Truncation(1, 2, 2, 0), 2, (-4, 2, -2, 0), (-6, 2, -4, 2)),
            (Truncation(2, 3, 4, 4), 3, (-6, 5, -5, 2), (-9, 4, -6, 5)),
        ],
    )
    def test_z_window_and_padded_bounds(self, trunc, pad, z_bounds, padded_bounds):
        for window, bounds in [(trunc.z_window(), z_bounds), (trunc.padded(pad), padded_bounds)]:
            assert window[:4] == trunc[:4]
            assert (window.hmin, window.hmax, window.amin, window.amax) == bounds

    def test_fields_are_read_only(self):
        trunc = Truncation(1, 2, 2, 0)
        with pytest.raises(AttributeError):
            trunc.dmax = 3
        with pytest.raises(AttributeError):
            trunc.extra = 1
        assert trunc == Truncation(1, 2, 2, 0)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((-1, 2, 2, 0), "truncation bounds must be nonnegative"),
            ((1, -1, 2, 0), "truncation bounds must be nonnegative"),
            ((1, 2, -1, 0), "truncation bounds must be nonnegative"),
            ((1, 2, 2, -2), "truncation bounds must be nonnegative"),
            ((1, 2, 2, 3), r"smax must be even \(only s\*\*2 ever appears\)"),
        ],
    )
    def test_invalid_bounds_raise(self, bounds, message):
        with pytest.raises(ExactCoreError, match=f"^{message}$"):
            Truncation(*bounds)
        with pytest.raises(ExactCoreError, match=f"^{message}$"):
            Truncation(*bounds, hmin=-1, hmax=1, amin=-1, amax=1)
        with pytest.raises(ExactCoreError, match=f"^{message}$"):
            Truncation(1, 2, 2, 0)._replace(**dict(zip(Truncation._fields, bounds)))


TR = Truncation(gmax=2, kmax=3, dmax=4, smax=4)
TRSMALL = Truncation(gmax=2, kmax=2, dmax=3, smax=2)


def multiset_monomials(kmax, emax):
    """t-monomials of up to two distinct indices <= kmax, each with an
    exponent in [1, emax], as sorted index tuples."""
    return st.lists(
        st.tuples(st.integers(0, kmax), st.integers(1, emax)),
        max_size=2,
        unique_by=lambda p: p[0],
    ).map(lambda ps: tuple(sorted(k for k, e in ps for _ in range(e))))


def sparse_series(trunc=TRSMALL, max_terms=4):
    keys = st.tuples(
        st.integers(-1, trunc.hmax),
        st.integers(0, trunc.amax),
        multiset_monomials(trunc.kmax, 2),
    )
    values = st.fractions(
        min_value=-5, max_value=5, max_denominator=12
    ).filter(lambda v: v != 0)

    def build(pairs):
        out = GradedSeries(trunc)
        for (h, a, t), v in pairs:
            out = out + GradedSeries.term(trunc, v, h, a, t)
        return out

    return st.lists(st.tuples(keys, values), max_size=max_terms).map(build)


def t_graded(series):
    # keep only the keys with t-degree >= 1, the series exp is defined on
    return GradedSeries(series.trunc, {k: v for k, v in series.terms.items() if k[2]})


# a small window with negative h and a, so random keys often sit on its
# edges and products often leave it
TREDGE = Truncation(gmax=2, kmax=2, dmax=3, smax=4, hmin=-2, hmax=2, amin=-2, amax=2)
BIG_DEN = 2**64 + 13  # larger than any machine word


def window_series(trunc=TREDGE, max_terms=6):
    """Series with keys anywhere in the window (edges included) and
    coefficients whose denominators may exceed 2**64."""
    keys = st.tuples(
        st.integers(trunc.hmin, trunc.hmax),
        st.integers(trunc.amin, trunc.amax),
        multiset_monomials(trunc.kmax, trunc.dmax).filter(lambda t: len(t) <= trunc.dmax),
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
    """All pairs, summed, then kept only where the window contains the key;
    the monomials multiply as Counters, not through `mono_mul`."""
    out: dict = {}
    for (h1, a1, t1), v1 in x.terms.items():
        for (h2, a2, t2), v2 in y.terms.items():
            t = tuple(sorted((Counter(t1) + Counter(t2)).elements()))
            key = (h1 + h2, a1 + a2, t)
            out[key] = out.get(key, 0) + v1 * v2
    return {k: v for k, v in out.items() if v and x.trunc.contains(*k)}


class TestSeriesProduct:
    # two routes into the same key with opposite signs: t0 t1 cancels
    CANCEL = (
        GradedSeries(TREDGE, {(0, 0, (0,)): Fraction(1), (0, 0, (1,)): Fraction(1)}),
        GradedSeries(TREDGE, {(0, 0, (0,)): Fraction(1), (0, 0, (1,)): Fraction(-1)}),
    )
    # keys on every corner of the h/a window, and a degree-dmax key
    EDGES = (
        GradedSeries(
            TREDGE,
            {
                (2, -2, ()): Fraction(1, BIG_DEN),
                (-2, 2, (0,)): Fraction(-3, 7),
                (0, 0, (2, 2, 2)): Fraction(5),
            },
        ),
        GradedSeries(
            TREDGE,
            {(0, 0, ()): Fraction(BIG_DEN, 3**45), (-2, -2, (1,)): Fraction(2)},
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
        assert got == {(0, 0, (0, 0)): 1, (0, 0, (1, 1)): -1}


class TestGradedSeries:
    def test_term_and_coefficient(self):
        s = GradedSeries.term(TR, Fraction(3, 2), h=1, a=0, t=(0, 0))
        assert s.coefficient(1, 0, (0, 0)) == Fraction(3, 2)
        assert s.coefficient(0, 0, ()) == 0

    def test_derive_basic(self):
        # d/dt_0 of t_0^2/2 = t_0
        s = GradedSeries.term(TR, Fraction(1, 2), t=(0, 0))
        assert s.derive(0) == GradedSeries.term(TR, 1, t=(0,))

    @given(window_series(), st.integers(0, TREDGE.kmax))
    @settings(max_examples=100, deadline=None)
    def test_derive_and_times_t_match_counter_reference(self, x, k):
        # on exponent counts: d/dt_k removes one t_k and multiplies by its
        # count, times t_k adds one and drops a key past the window's dmax
        derived, times = {}, {}
        for (h, a, t), v in x.terms.items():
            counts = Counter(t)
            if counts[k]:
                fewer = counts - Counter({k: 1})
                derived[(h, a, tuple(sorted(fewer.elements())))] = v * counts[k]
            if len(t) < x.trunc.dmax:
                more = counts + Counter({k: 1})
                times[(h, a, tuple(sorted(more.elements())))] = v
        assert x.derive(k).terms == derived
        assert x.times_t(k).terms == times

    def test_mul_truncates_degree(self):
        cubic = GradedSeries.term(TR, 1, t=(0, 0, 0))
        sq = cubic * cubic  # degree 6 > dmax
        assert sq.is_zero()

    def test_exp_log_roundtrip_simple(self):
        s = GradedSeries.term(TR, 2, t=(1,)) + GradedSeries.term(
            TR, Fraction(-1, 3), h=1, t=(0,)
        )
        assert s.exp().log() == s

    def test_exp_rejects_weightless_constant(self):
        # exp takes t-graded series only: any t-free term is rejected,
        # whatever its hbar- and s-power
        t0 = GradedSeries.term(TR, 1, t=(0,))
        for h, a in ((0, 0), (1, 0), (0, 1), (1, -1), (-1, 1)):
            with pytest.raises(ExactCoreError):
                (t0 + GradedSeries.term(TR, 1, h=h, a=a)).exp()

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
        a, b = t_graded(a).with_window(work), t_graded(b).with_window(work)
        lhs = (a + b).exp().restrict(TRSMALL)
        rhs = (a.exp() * b.exp()).restrict(TRSMALL)
        assert lhs == rhs

    @given(sparse_series(), sparse_series(), st.integers(0, TRSMALL.kmax))
    @settings(max_examples=25, deadline=None)
    def test_leibniz(self, a, b, k):
        # window wide enough that the polynomial product is never pruned,
        # so the derivation identity is exact
        big = Truncation(gmax=2, kmax=2, dmax=6, smax=4, hmin=-4, hmax=4, amin=0, amax=4)
        a, b = a.with_window(big), b.with_window(big)
        lhs = (a * b).derive(k)
        rhs = a.derive(k) * b + a * b.derive(k)
        assert lhs == rhs

    @given(sparse_series())
    @settings(max_examples=25, deadline=None)
    def test_log_exp_roundtrip(self, a):
        work = TRSMALL.padded(TRSMALL.dmax + 2)
        a = t_graded(a).with_window(work)
        assert a.exp().log().restrict(TRSMALL) == a.restrict(TRSMALL)

    def test_truncation_monotonicity(self):
        small = Truncation(gmax=1, kmax=2, dmax=3, smax=2)
        big = Truncation(gmax=2, kmax=3, dmax=5, smax=4)
        mk = lambda tr: (
            GradedSeries.term(tr, 1, h=-1, a=1, t=(0,))
            + GradedSeries.term(tr, Fraction(1, 2), t=(1, 2))
        ).exp()
        assert mk(big).restrict(small) == mk(small)


def reference_exp(x: GradedSeries, pad: int) -> GradedSeries:
    """sum_p x^p / p! in the window widened by `pad`, restricted back."""
    work = x.trunc.padded(pad)
    xw = x.with_window(work)
    total = power = GradedSeries.term(work, 1)
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
        images[k] = GradedSeries(work)
        for m in range(tr.kmax - k + 1):
            images[k] = images[k] + GradedSeries.term(
                work, Fraction(1, 2**m * factorial(m)), a=s2_step * m, t=(k + m,)
            )
    out = GradedSeries(work)
    for (h, a, t), v in x.terms.items():
        piece = GradedSeries.term(work, v, h, a)
        for k in t:
            piece = piece * images[k]
        out = out + piece
    return out.restrict(tr)


def solved_free_energy(model, trunc):
    """log Z as the store solves it, on the z-window of its solve window."""
    return free_energy(model, trunc).with_window(solve_truncation(model, trunc).z_window())




class TestSubstitute:
    """`substitute` expands each t-monomial once; the reference multiplies
    the images of its legs as series."""

    ZK, ZK0 = Truncation(2, 4, 4, 6), Truncation(0, 4, 4, 4)
    CASES = {
        "Z^K": lambda: zk_partition_function(TestSubstitute.ZK),
        "Z^K on a padded window": lambda: zk_partition_function(TestSubstitute.ZK).with_window(
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
    # name -> (series, a window its exp(x) exp(-x) is complete on)
    CASES = {
        "KW genus 2": lambda: (solved_free_energy("KW", TestExp.KW2), TestExp.KW2),
        "gBGW genus 2, smax 6": lambda: (solved_free_energy("gBGW", TestExp.BGW2), TestExp.BGW2),
        "zk genus 3": lambda: (
            zk_free_energy(TestExp.ZK3).with_window(TestExp.ZK3.z_window()),
            TestExp.ZK3,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_power_series_reference(self, case):
        x, _ = self.CASES[case]()
        for y in (x, -x):
            assert y.exp() == reference_exp(y, 2 * y._exp_pad())

    @pytest.mark.parametrize("case", CASES)
    def test_inverse(self, case):
        # hbar^{-1} factors bring terms above the window's hbar-bound
        # back into it: multiply on a wider window
        x, cert = self.CASES[case]()
        x = x.with_window(x.trunc.padded(x._exp_pad()))
        assert (x.exp() * (-x).exp()).restrict(cert) == GradedSeries.term(cert, 1)

    @given(sparse_series(max_terms=5))
    @settings(max_examples=50, deadline=None)
    def test_random_series_match_reference(self, a):
        a = t_graded(a)
        assert a.exp() == reference_exp(a, 2 * a._exp_pad())

    # hbar^-4 t_0^2 and s^-4 t_0^2 leave the window at t-degree 2, and one
    # more factor brings them back
    @given(window_series())
    @settings(max_examples=100, deadline=None)
    @example(GradedSeries(TREDGE, {(-2, 0, (0,)): Fraction(1), (2, 0, (1,)): Fraction(1)}))
    @example(GradedSeries(TREDGE, {(0, -2, (0,)): Fraction(1), (0, 2, (1,)): Fraction(1)}))
    def test_edge_series_match_reference(self, a):
        # t-graded keys anywhere on TREDGE, so Z_m keys leave the window on
        # every side and must come back
        a = t_graded(a)
        assert a.exp() == reference_exp(a, 2 * a._exp_pad())


def symbol(name):
    return FormalPolynomial({(name,): Fraction(1)})


class TestFormalPolynomial:
    def test_arith(self):
        k1 = symbol("k1")
        k2 = symbol("k2")
        p = (k1 + k2) * (k1 - k2)
        assert p == k1 * k1 - k2 * k2
        assert p.terms[("k1", "k1")] == 1

    def test_pow(self):
        x = symbol("x")
        assert (x + FormalPolynomial.const(1)) ** 2 == x * x + x.scale(2) + FormalPolynomial.const(1)

    def test_constant_operands(self):
        c = FormalPolynomial.const(Fraction(-2, 3))
        p = FormalPolynomial({("a", "b", "b"): Fraction(3), (): Fraction(1, 2)})
        assert (c * p).terms == (p * c).terms == {
            ("a", "b", "b"): Fraction(-2),
            (): Fraction(-1, 3),
        }
        assert (c * c).terms == {(): Fraction(4, 9)}
        assert (c * FormalPolynomial()).is_zero() and (FormalPolynomial() * c).is_zero()

    def test_no_zero_coefficients(self):
        x = symbol("x")
        one = FormalPolynomial.const(1)
        assert ((x + one) * (x - one)).terms == {("x", "x"): 1, (): -1}
        assert (x + one + (-x)).terms == {(): 1}
        assert ((x - x) * one).is_zero()


class TestUnivariateSeries:
    def test_log_exp_inverse(self):
        # exp(log(A)) == A for a unit-constant Fraction series, the exp by
        # the derivative recurrence m e_m = sum_j j l_j e_{m-j}
        a = [Fraction(1), Fraction(-3), Fraction(15), Fraction(-105, 1)]
        l = useries_log(a, order=3)
        back = [Fraction(1)]
        for m in range(1, 4):
            back.append(sum(j * l[j] * back[m - j] for j in range(1, m + 1)) / m)
        assert back == a
