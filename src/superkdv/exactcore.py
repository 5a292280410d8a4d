"""Exact rational arithmetic and the graded truncated-series ring.

Every symbolic computation in this package happens over `Fraction`
(arbitrary precision, always in lowest terms).  The central object is
`GradedSeries`: a sparse truncated series in the variables

    hbar (tracked by its integer power h),
    s**2 (tracked by its integer power a, possibly negative),
    t_0, t_1, ..., t_K (tracked by a sorted exponent monomial),

supporting ring arithmetic, exp/log, differentiation in t_k and the
index shift t_k -> sum_j (s**2)^j t_{k+j} / (2^j j!) (`substitute`, which
expands each t-monomial leg by leg with `shift_expansion` and forms no
series product).  A product scales each operand once to int
numerators over the lcm of its denominators, grouped by t-monomial in
increasing t-degree, so the inner loop multiplies ints, stops at dmax
and builds one Fraction per output key.

`exp` shares that int kernel: it takes series whose every term has
t-degree >= 1, runs the t-degree recurrence n Z_n = sum_k k x_k Z_{n-k}
from Z_0 = 1, and each Z_m keeps only the keys that the remaining
dmax - m t-degrees can still bring into the window.  Only `log` works
in a padded window (`_exp_pad`) and restricts at the end; it keeps its
power series as an independent check of `exp`.

`FormalPolynomial` is a small sparse polynomial ring over Fraction in
named symbols, used for the kappa-class polynomials K_m of `kappa`, which
need several symbols; it deliberately stays tiny -- no general computer
algebra.  A coefficient in one parameter (s^2 or pi^2) in the TR tables
and the volume polynomials is a plain {power: Fraction} instead.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, floor, gcd, lcm


class ExactCoreError(ValueError):
    """Raised for domain violations in the exact-arithmetic layer."""


TMono = tuple[tuple[int, int], ...]  # sorted ((index, exponent), ...)
Key = tuple[int, int, TMono]  # (h, a, t-monomial)


# ---------------------------------------------------------------------------
# combinatorial constants


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)...; (-1)!! = 0!! = 1."""
    if n < -1:
        raise ExactCoreError(f"double_factorial undefined for n={n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def fixed_sum_multisets(n: int, total: int, kmax: int, low: int = 0):
    """Nondecreasing index tuples of length n in [low, kmax] with given sum."""
    if n == 0:
        if total == 0:
            yield ()
        return
    if total < n * low or total > n * kmax:
        return
    for first in range(low, min(kmax, total) + 1):
        for rest in fixed_sum_multisets(n - 1, total - first, kmax, first):
            yield (first,) + rest


def labelled_splits(k: tuple[int, ...]) -> list[tuple[tuple, tuple, int]]:
    """(I, J, number of labelled splittings of k into I and J), per sub-multiset I."""
    out = [((), (), 1)]
    for idx, e in sorted(Counter(k).items()):
        out = [
            (left + (idx,) * c, right + (idx,) * (e - c), w * comb(e, c))
            for left, right, w in out
            for c in range(e + 1)
        ]
    return out


def shift_expansion(legs: tuple[int, ...], budget: int, cap: int | None = None) -> dict:
    """prod_i sum_j s^{2j} t_{k_i+j} / (2^j j!) over the legs k_i, expanded.

    Returns {(sorted target, |j|): n}: the term s^{2|j|} t_target has
    coefficient n / (2^|j| |j|!), the int n summing the multinomials
    |j|! / prod j_i!.  Only |j| <= budget is kept, and every target index
    stays <= cap when a cap is given.  The legs are placed one at a time
    and equal keys merge after each leg, so the orderings of a target
    are never walked one by one.
    """
    out = {((), 0): 1}
    for v in legs:
        top = budget if cap is None else min(budget, cap - v)
        step: dict = {}
        for (target, jtot), n in out.items():
            for j in range(min(top, budget - jtot) + 1):
                key = (tuple(sorted(target + (v + j,))), jtot + j)
                step[key] = step.get(key, 0) + n * comb(jtot + j, j)
        out = step
    return out


def partitions(w: int):
    """Partitions of w >= 0 as nondecreasing tuples of positive parts, by
    increasing number of parts; partitions(0) yields the empty tuple."""
    for r in range(w + 1):
        yield from fixed_sum_multisets(r, w, w, low=1)


def automorphism_factor(exponents) -> int:
    """prod e! over the exponents of a monomial, i.e. over the
    multiplicities of a multiset: its number of symmetries."""
    out = 1
    for e in exponents:
        out *= factorial(e)
    return out


@lru_cache(maxsize=None)
def _bernoulli_upto(n: int) -> tuple[Fraction, ...]:
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1, with B_0 = 1.
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum((comb(m + 1, k) * b[k] for k in range(m)), Fraction(0))
        b.append(-acc / (m + 1))
    return tuple(b)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for even n >= 2 (convention B_2 = 1/6)."""
    if n < 2 or n % 2:
        raise ExactCoreError(f"bernoulli requires even n >= 2, got {n}")
    return _bernoulli_upto(n)[n]


def secant_numbers(n: int) -> tuple[int, ...]:
    """|E_0|, |E_2|, ..., |E_2n|: the Euler numbers, by absolute value, that
    give sec x = sum_k |E_2k| x^{2k} / (2k)!."""
    # sum_{k=0}^{m} C(2m, 2k) E_2k = 0 for m >= 1, with E_0 = 1.
    e = [1]
    for m in range(1, n + 1):
        e.append(-sum(comb(2 * m, 2 * k) * e[k] for k in range(m)))
    return tuple(abs(x) for x in e)


def euler_characteristic_constant(g: int) -> Fraction:
    """Orbifold Euler characteristic of the genus-g moduli space, g >= 2.

    Returns (-1)^g B_{2g} / (2g(2g-2)), which is negative for all g >= 2.
    """
    if g < 2:
        raise ExactCoreError(f"euler_characteristic_constant requires g >= 2, got {g}")
    return (-1) ** g * bernoulli(2 * g) / (2 * g * (2 * g - 2))


def accumulate(out: dict, pairs) -> dict:
    """Add each (key, value) of `pairs` into `out`, dropping every key whose
    sum is zero; returns `out`."""
    for k, v in pairs:
        got = out.get(k)
        w = v if got is None else got + v
        if w:
            out[k] = w
        elif got is not None:
            del out[k]
    return out


def mismatches(got: dict, want: dict, keys) -> list:
    """(key, got.get(key), want.get(key)) for each key of `keys` where the
    two sparse maps differ, in sorted key order; a key a map lacks, or
    holds as a zero or an empty map, is zero there."""
    return [(k, a, b) for k in sorted(keys) if ((a := got.get(k)) or 0) != ((b := want.get(k)) or 0)]


# ---------------------------------------------------------------------------
# rational serialization


def rational_to_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# t-monomials


def mono_from_dict(d: dict[int, int]) -> TMono:
    return tuple(sorted((k, e) for k, e in d.items() if e))


def mono_mul(a: TMono, b: TMono) -> TMono:
    """Product of two sorted (variable, exponent) monomials: t-monomials,
    and the named-symbol monomials of `FormalPolynomial`."""
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for k, e in b:
        d[k] = d.get(k, 0) + e
    return mono_from_dict(d)


def mono_degree(m: TMono) -> int:
    return sum(e for _, e in m)


def mono_max_index(m: TMono) -> int:
    return max((k for k, _ in m), default=-1)


# ---------------------------------------------------------------------------
# truncation windows


class Truncation(namedtuple("Truncation", "gmax kmax dmax smax hmin hmax amin amax")):
    """Bounds for GradedSeries keys, an immutable record.

    gmax, kmax, dmax, smax are the user-facing bounds: max genus, max
    t-index, max total t-degree, max power of s (so a <= smax // 2).
    The h/a window is stored as given, by default -(dmax+2) <= h <= gmax-1
    and -(gmax+1) <= a <= smax//2, wide enough for free energies and their
    exponentials.  Equality and hashing are the tuple's, so equal windows
    share one entry of every cache keyed by them, however spelled.
    """

    __slots__ = ()

    def __new__(
        cls,
        gmax: int,
        kmax: int,
        dmax: int,
        smax: int,
        hmin: int | None = None,
        hmax: int | None = None,
        amin: int | None = None,
        amax: int | None = None,
    ) -> "Truncation":
        if min(gmax, kmax, dmax, smax) < 0:
            raise ExactCoreError("truncation bounds must be nonnegative")
        if smax % 2:
            raise ExactCoreError("smax must be even (only s**2 ever appears)")
        hmin = -(dmax + 2) if hmin is None else hmin
        hmax = gmax - 1 if hmax is None else hmax
        amin = -(gmax + 1) if amin is None else amin
        amax = smax // 2 if amax is None else amax
        return super().__new__(cls, gmax, kmax, dmax, smax, hmin, hmax, amin, amax)

    def _replace(self, **fields) -> "Truncation":
        """namedtuple's `_replace`, through the constructor's checks."""
        return Truncation(*super()._replace(**fields))

    def contains(self, h: int, a: int, t: TMono) -> bool:
        return (
            self.hmin <= h <= self.hmax
            and self.amin <= a <= self.amax
            and mono_degree(t) <= self.dmax
            and mono_max_index(t) <= self.kmax
        )

    def z_window(self) -> "Truncation":
        """Window for partition functions Z = exp(F).

        Products of positive-hbar free-energy terms push h above
        gmax - 1; each such term carries t-degree >= 1, so dmax extra
        levels suffice.  Every s-graded free-energy term satisfies
        a >= -h, an invariant products preserve, so the a window reaches
        down to -hmax: a high-h product at a < 0 is kept for the later
        products against hbar^{-1} factors.  In the kappa-class and spin
        series every such key is zero only by the vanishing theorem, and
        the window does not assume it, so a failure of the theorem shows
        as a mismatch instead of being cut away.
        """
        hmax = self.hmax + self.dmax
        return self._replace(hmax=hmax, amin=min(self.amin, -hmax))

    def padded(self, pad: int) -> "Truncation":
        """Widen the h and a windows by `pad`."""
        return self._replace(
            hmin=self.hmin - pad,
            hmax=self.hmax + pad,
            amin=self.amin - pad,
            amax=self.amax + pad,
        )

    def to_json(self) -> dict:
        return {"gmax": self.gmax, "kmax": self.kmax, "dmax": self.dmax, "smax": self.smax}


# ---------------------------------------------------------------------------
# graded series


def _int_groups(terms: dict[Key, Fraction]):
    """One operand of a series product, prepared once.

    Returns (D, groups): D is the lcm of the denominators, and groups
    lists (t-degree, t, [(h, a, n), ...]) per t-monomial in increasing
    t-degree, where each coefficient equals n / D with n an int.
    """
    den = lcm(*(v.denominator for v in terms.values()))
    by_mono: dict[TMono, list[tuple[int, int, int]]] = {}
    for (h, a, t), v in terms.items():
        by_mono.setdefault(t, []).append((h, a, v.numerator * (den // v.denominator)))
    return den, sorted((mono_degree(t), t, hs) for t, hs in by_mono.items())


def _int_product(acc, left, right, dmax: int, bounds, scale: int = 1) -> None:
    """Add scale * (left * right) into `acc`, both operands from `_int_groups`.

    Pairs past t-degree dmax are skipped, and a key is formed only when
    its h and a lie in bounds = (hmin, hmax, amin, amax).
    """
    hmin, hmax, amin, amax = bounds
    for deg1, t1, terms1 in left:
        room = dmax - deg1
        if room < 0:
            break
        for deg2, t2, terms2 in right:
            if deg2 > room:
                break
            t = mono_mul(t1, t2)
            for h1, a1, n1 in terms1:
                n1 *= scale
                h_lo, h_hi = hmin - h1, hmax - h1
                a_lo, a_hi = amin - a1, amax - a1
                for h2, a2, n2 in terms2:
                    if h_lo <= h2 <= h_hi and a_lo <= a2 <= a_hi:
                        key = (h1 + h2, a1 + a2, t)
                        got = acc.get(key)
                        acc[key] = n1 * n2 if got is None else got + n1 * n2


def _lowest_terms(acc: dict[Key, int], den: int):
    """`_int_groups` of the series acc / den for int numerators: zeros
    dropped, numerators and den divided by their gcd (so den becomes the
    lcm of the reduced denominators).  The groups stay unsorted, which
    `_int_product` allows only because all keys share one t-degree."""
    acc = {k: n for k, n in acc.items() if n}
    g = gcd(den, *acc.values())
    by_mono: dict[TMono, list[tuple[int, int, int]]] = {}
    for (h, a, t), n in acc.items():
        by_mono.setdefault(t, []).append((h, a, n // g))
    return den // g, [(mono_degree(t), t, hs) for t, hs in by_mono.items()]


class GradedSeries:
    """Sparse truncated series in hbar, s**2 and t_0..t_K over Fraction."""

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: Truncation, terms: dict[Key, Fraction] | None = None):
        self.trunc = trunc
        self.terms: dict[Key, Fraction] = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(
        cls,
        trunc: Truncation,
        value: Fraction | int,
        h: int = 0,
        a: int = 0,
        t: TMono = (),
    ) -> "GradedSeries":
        value = Fraction(value)
        if value == 0 or not trunc.contains(h, a, t):
            return cls(trunc)
        return cls(trunc, {(h, a, t): value})

    # -- plumbing ----------------------------------------------------------

    def _require_same(self, other: "GradedSeries") -> None:
        if self.trunc != other.trunc:
            raise ExactCoreError("operands have mismatched truncations")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, h: int = 0, a: int = 0, t: TMono = ()) -> Fraction:
        return self.terms.get((h, a, t), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedSeries)
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def restrict(self, trunc: Truncation) -> "GradedSeries":
        """Drop every key outside `trunc` and adopt it as the new window."""
        return GradedSeries(
            trunc, {k: v for k, v in self.terms.items() if trunc.contains(*k)}
        )

    def with_window(self, trunc: Truncation) -> "GradedSeries":
        """Adopt a strictly wider window without touching any term."""
        for k in self.terms:
            if not trunc.contains(*k):
                raise ExactCoreError("with_window would drop terms; use restrict")
        return GradedSeries(trunc, dict(self.terms))

    # -- linear ops --------------------------------------------------------

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        self._require_same(other)
        return GradedSeries(self.trunc, accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "GradedSeries":
        return GradedSeries(self.trunc, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def scale(self, c: Fraction | int) -> "GradedSeries":
        c = Fraction(c)
        if c == 0:
            return GradedSeries(self.trunc)
        return GradedSeries(self.trunc, {k: c * v for k, v in self.terms.items()})

    def shift(self, dh: int) -> "GradedSeries":
        """Multiply by hbar^dh."""
        tr = self.trunc
        out = {}
        for (h, a, t), v in self.terms.items():
            if tr.contains(h + dh, a, t):
                out[(h + dh, a, t)] = v
        return GradedSeries(tr, out)

    # -- multiplicative ops ------------------------------------------------

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        self._require_same(other)
        tr = self.trunc
        d_left, left = _int_groups(self.terms)
        d_right, right = _int_groups(other.terms)
        acc: dict[Key, int] = {}
        _int_product(acc, left, right, tr.dmax, (tr.hmin, tr.hmax, tr.amin, tr.amax))
        den = d_left * d_right
        return GradedSeries(tr, {k: Fraction(n, den) for k, n in acc.items() if n})

    def derive(self, k: int) -> "GradedSeries":
        """d/dt_k."""
        out: dict[Key, Fraction] = {}
        for (h, a, t), v in self.terms.items():
            d = dict(t)
            e = d.get(k)
            if not e:
                continue
            d[k] = e - 1
            out[(h, a, mono_from_dict(d))] = v * e
        return GradedSeries(self.trunc, out)

    def times_t(self, k: int) -> "GradedSeries":
        """Multiply by t_k."""
        tr = self.trunc
        out = {}
        for (h, a, t), v in self.terms.items():
            t2 = mono_mul(t, ((k, 1),))
            if tr.contains(h, a, t2):
                out[(h, a, t2)] = v
        return GradedSeries(tr, out)

    def _exp_pad(self) -> int:
        # Partial products inside log can leave the h/a window and
        # re-enter it: an hbar^{-1} factor carries t-degree >= 1, so at
        # most dmax of them act, and each t-free factor has h >= 1 or
        # a >= 1 bounded by the window.  A pad linear in dmax covers
        # every excursion that can return.  (exp needs no pad: its
        # per-degree bounds keep every key that can still return.)
        tr = self.trunc
        return tr.dmax * max(tr.gmax - 1, 1) + 2

    def exp(self) -> "GradedSeries":
        """exp of a series whose every term has t-degree >= 1.

        With x = x_1 + x_2 + ... graded by t-degree, Z = exp(x) obeys
        n Z_n = sum_{k=1..n} k x_k Z_{n-k} from Z_0 = 1.  A product of
        x-terms of total t-degree D moves h within D times the extreme
        slopes h/deg of x's terms (a likewise), so Z_m keeps only the
        keys that D <= dmax - m can still bring into the window; a
        dropped key only ever feeds keys that are dropped in turn.
        """
        for (h, a, t) in self.terms:
            if not t:
                raise ExactCoreError(
                    f"exp requires every term to carry a t-variable; offending key {(h, a, t)}"
                )
        base = self.trunc
        sh = [Fraction(h, mono_degree(t)) for h, _, t in self.terms] or [0]
        sa = [Fraction(a, mono_degree(t)) for _, a, t in self.terms] or [0]

        def reach(m: int) -> tuple[int, int, int, int]:
            # (hmin, hmax, amin, amax) of the keys of Z_m worth keeping
            r = base.dmax - m
            return (
                base.hmin - max(0, floor(r * max(sh))),
                base.hmax + max(0, floor(-r * min(sh))),
                base.amin - max(0, floor(r * max(sa))),
                base.amax + max(0, floor(-r * min(sa))),
            )

        zs = [(1, [(0, (), [(0, 0, 1)])])]  # Z_0 = 1, as (den, groups)
        d_x, x_groups = _int_groups(self.terms)
        slices: dict[int, list] = {}
        for group in x_groups:
            slices.setdefault(group[0], []).append(group)
        for n in range(1, base.dmax + 1):
            pieces = [
                (k, slices[k], zs[n - k])
                for k in range(1, n + 1)
                if k in slices and zs[n - k][1]
            ]
            den = lcm(*(d for _, _, (d, _) in pieces))
            acc: dict[Key, int] = {}
            bounds = reach(n)
            for k, x_k, (d, z) in pieces:
                _int_product(acc, x_k, z, base.dmax, bounds, k * (den // d))
            zs.append(_lowest_terms(acc, n * d_x * den))

        hmin, hmax, amin, amax = base.hmin, base.hmax, base.amin, base.amax
        out: dict[Key, Fraction] = {}
        for den, groups in zs:
            for _, t, hs in groups:
                for h, a, n in hs:
                    if hmin <= h <= hmax and amin <= a <= amax:
                        out[(h, a, t)] = Fraction(n, den)
        return GradedSeries(base, out)

    def log(self) -> "GradedSeries":
        """log of a series with constant term exactly 1."""
        if self.coefficient() != 1:
            raise ExactCoreError("log requires constant term 1")
        base = self.trunc
        work = base.padded(self._exp_pad())
        power = one = GradedSeries.term(work, 1)
        u = self.with_window(work) - one
        result = GradedSeries(work)
        for p in range(1, 10_000):
            power = power * u
            if power.is_zero():
                break
            result = result + power.scale(Fraction((-1) ** (p + 1), p))
        else:  # pragma: no cover
            raise ExactCoreError("log failed to terminate")
        return result.restrict(base)

    def substitute(self, s2_step: int) -> "GradedSeries":
        """Apply t_k -> sum_j (s**2)^{s2_step j} t_{k+j} / (2^j j!) for every k:
        s2_step = 1 for the shift in the operator D, 0 for the same shift
        at s = 1.  Each t-monomial is expanded once (`shift_expansion`) and
        read off inside the window; no series product is formed.
        """
        tr = self.trunc
        top = tr.dmax * tr.kmax  # no shift inside the window moves further
        unit = 2**top * factorial(top)
        den, groups = _int_groups(self.terms)
        acc: dict[Key, int] = {}
        for _, t, hs in groups:
            legs = tuple(k for k, e in t for _ in range(e))
            budget = tr.amax - min(a for _, a, _ in hs) if s2_step else top
            for (target, jt), n in shift_expansion(legs, budget, tr.kmax).items():
                n *= unit // (2**jt * factorial(jt))
                mono = mono_from_dict(Counter(target))
                for h, a, m in hs:
                    a += s2_step * jt
                    if a <= tr.amax:
                        acc[h, a, mono] = acc.get((h, a, mono), 0) + n * m
        den *= unit
        return GradedSeries(tr, {k: Fraction(n, den) for k, n in acc.items() if n})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GradedSeries({len(self.terms)} terms, trunc={self.trunc})"


def free_energy_series(trunc: Truncation, entries) -> GradedSeries:
    """log Z from correlator entries (g, k, a, v): each sits at
    hbar^{g-1} s^{2a} t^k with factor 1/|Aut k|; keys outside `trunc`
    are dropped."""
    terms = {}
    for g, k, a, v in entries:
        mono = mono_from_dict(Counter(k))
        if trunc.contains(g - 1, a, mono):
            terms[(g - 1, a, mono)] = v / automorphism_factor(e for _, e in mono)
    return GradedSeries(trunc, terms)


# ---------------------------------------------------------------------------
# formal polynomials (the kappa-class polynomials K_m)

PMono = tuple[tuple[str, int], ...]


class FormalPolynomial:
    """Sparse polynomial over Fraction in named formal symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[PMono, Fraction] | None = None):
        self.terms: dict[PMono, Fraction] = terms or {}

    @classmethod
    def const(cls, v: Fraction | int) -> "FormalPolynomial":
        v = Fraction(v)
        return cls({(): v} if v else {})

    @classmethod
    def symbol(cls, name: str) -> "FormalPolynomial":
        return cls({((name, 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FormalPolynomial.const(other)
        return isinstance(other, FormalPolynomial) and self.terms == other.terms

    def __add__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        return FormalPolynomial(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "FormalPolynomial":
        return FormalPolynomial({m: -v for m, v in self.terms.items()})

    def __sub__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        return self + (-other)

    def __mul__(self, other: "FormalPolynomial") -> "FormalPolynomial":
        products = (
            (mono_mul(m1, m2), v1 * v2)
            for m1, v1 in self.terms.items()
            for m2, v2 in other.terms.items()
        )
        return FormalPolynomial(accumulate({}, products))

    def scale(self, c: Fraction | int) -> "FormalPolynomial":
        c = Fraction(c)
        if c == 0:
            return FormalPolynomial()
        return FormalPolynomial({m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "FormalPolynomial":
        out = FormalPolynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:  # pragma: no cover
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            mono = "*".join(f"{s}^{e}" if e > 1 else s for s, e in m) or "1"
            bits.append(f"{rational_to_str(self.terms[m])}*{mono}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# univariate truncated series helpers (generic coefficient ring)


def useries_exp_poly(a: list[FormalPolynomial], order: int) -> list[FormalPolynomial]:
    """exp of a FormalPolynomial-coefficient series with a[0] == 0.

    Uses the derivative recurrence m*e_m = sum_j j*a_j*e_{m-j}.
    """
    if a and not a[0].is_zero():
        raise ExactCoreError("useries_exp_poly requires zero constant term")
    e = [FormalPolynomial.const(1)] + [FormalPolynomial() for _ in range(order)]
    for m in range(1, order + 1):
        acc = FormalPolynomial()
        for j in range(1, m + 1):
            if j < len(a):
                acc = acc + (a[j] * e[m - j]).scale(j)
        e[m] = acc.scale(Fraction(1, m))
    return e


def useries_log(a: list, order: int) -> list[Fraction]:
    """log of a Fraction-coefficient series with a[0] == 1."""
    if a[0] != 1:
        raise ExactCoreError("useries_log requires unit constant term")
    l = [Fraction(0) for _ in range(order + 1)]
    for m in range(1, order + 1):
        am = a[m] if m < len(a) else Fraction(0)
        acc = Fraction(0)
        for j in range(1, m):
            acc += j * l[j] * (a[m - j] if m - j < len(a) else Fraction(0))
        l[m] = am - acc / m
    return l
