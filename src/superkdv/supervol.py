"""Super Weil-Petersson volume polynomials and the exact recursion check.

The volume polynomial V_{g,n}(s, L_1..L_n) collects spin-class
intersection numbers with an exponential kappa_1 insertion of weight
2 pi^2 and psi-class boundary insertions L_i^2/2.  Its s^{2a}
coefficients are polynomials in the L_i^2 with coefficients in
Q[pi^2].  By the theorem that Z^Omega is the generalised BGW tau
function (checked by `verify theorem1`), each spin correlator is an
entry of the one gBGW correlator store of `virasoro`.

The exact route for the Stanford-Witten recursion checks the Virasoro
constraints

    ((2m+1)!! d/dt_m - L_m - s^2/(2 hbar) delta_{m,0}) Z^Omega = 0

in rational arithmetic, read on log Z^Omega; the recursion is their
conjugation by the kappa_1 translation, so all-zero residuals certify
it.  The numeric route, the integral form of the recursion by
quadrature, is in `swnumeric`.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial, prod

from .exactcore import (
    ExactCoreError,
    Truncation,
    automorphism_factor,
    partitions,
    rational_to_str,
)
from .virasoro import _correlator, apply_virasoro_oracle


# ---------------------------------------------------------------------------
# per-entry spin correlators (any stable or Ramond-stabilized entry)


@lru_cache(maxsize=None)
def spin_value(g: int, k: tuple[int, ...]) -> Fraction:
    """Spin correlator <prod tau_{k_i}>_g for n >= 1: the entry of the
    gBGW correlator store, which by the theorem Z^Omega = Z^BGW equals it
    (the unstable genus-0 one- and two-point entries included).  Cached:
    the volume sum reads each sorted multiset many times.
    """
    k = tuple(sorted(int(x) for x in k))
    if not k:
        raise ExactCoreError("spin correlators here need at least one point")
    if any(x < 0 for x in k):
        raise ExactCoreError("indices must be nonnegative")
    if g < 0:
        raise ExactCoreError("genus must be nonnegative")
    return _correlator("gBGW", g, k)


# ---------------------------------------------------------------------------
# volume polynomials


def _insertion_weight(parts: tuple[int, ...]) -> Fraction:
    """prod_j (-(-2)^j/j!) over a multiset of kappa_1-translation slots,
    divided by the multiset symmetry factor; the pi^2 power is sum(parts)."""
    weight = Fraction(1)
    for j in parts:
        weight *= Fraction((-1) ** (j + 1) * 2**j, factorial(j))
    return weight / automorphism_factor(parts)


class VolumePolynomial:
    """V_{g,n}(s, L) as a map (s^2-power a, L^2-exponents k) -> {pi^2-power: value}."""

    def __init__(self, g: int, n: int, smax: int, terms: dict) -> None:
        self.g = g
        self.n = n
        self.smax = smax
        self.terms = terms

    def to_json(self) -> dict:
        out = []
        for (a, k), coeff in sorted(self.terms.items()):
            pi2 = [[p, rational_to_str(c)] for p, c in sorted(coeff.items())]
            out.append(dict(s2=a, k=list(k), pi2=pi2))
        return {"g": self.g, "n": self.n, "smax": self.smax, "terms": out}


def volume_polynomial(g: int, n: int, smax: int) -> VolumePolynomial:
    """V_{g,n}(s, L) through s^smax, with its own copy of the cached
    terms, so a caller's edit cannot reach the cache.  An empty
    polynomial warns on every call, cached or not."""
    terms = _volume_terms(g, n, smax)
    if not terms:
        warnings.warn(
            f"no admissible terms for (g, n) = ({g}, {n}) at smax = {smax}",
            stacklevel=2,
        )
    return VolumePolynomial(g, n, smax, {key: dict(coeff) for key, coeff in terms.items()})


@lru_cache(maxsize=None)
def _volume_terms(g: int, n: int, smax: int) -> dict:
    """The terms of V_{g,n}(s, L) through s^smax.

    The coefficient of s^{2a} prod L_i^{2k_i} is
    1/prod(2^{k_i} k_i!) times the sum over multisets of kappa_1
    insertion slots j >= 1 with sum j = a - 1 + g - |k| of the
    insertion weights times the spin correlator with those extra
    insertions; the pi^2 power equals that sum.
    """
    if g < 0 or n < 0 or smax < 0:
        raise ExactCoreError("g, n, smax must be nonnegative")
    if smax % 2:
        raise ExactCoreError("smax must be even")
    if n == 0:
        raise ExactCoreError(f"(g, n) = ({g}, {n}) is not supported")
    terms = {}
    amax = smax // 2
    for a in range(amax + 1):
        kcap = a + g - 1
        if kcap < 0:
            continue
        for k in iproduct(range(kcap + 1), repeat=n):
            w = a - 1 + g - sum(k)
            if w < 0:
                continue
            rational = Fraction(0)
            for parts in partitions(w):
                rational += _insertion_weight(parts) * spin_value(g, tuple(sorted(k + parts)))
            if rational:
                terms[(a, k)] = {w: rational / prod(2**ki * factorial(ki) for ki in k)}
    return terms


# ---------------------------------------------------------------------------
# exact route: Virasoro constraints on the spin tau function


def translated_virasoro_check(trunc: Truncation) -> dict:
    """Whether the Virasoro constraints on Z^Omega hold exactly.

    The Stanford-Witten recursion is the conjugation of these
    constraints by the kappa_1 translation of the times, so all-zero
    residuals on the geometric assembly certify the recursion in its
    proven-equivalent form.  The residual is the constraint conjugated
    by e^F and read on F = log Z^Omega, with no exponential.  The
    assembly is padded so every slot a key of `trunc` reads is present:
    two t-degrees for the second derivatives and mmax = min(kmax, 3)
    indices for d/dt_m and t_i d/dt_{i+m}, m = 0..mmax.  One more
    s^2-power keeps F_i F_j complete against a term at s^{-2}, which
    log Z^Omega should not have.
    """
    from .spincorr import spin_free_energy  # here, so `volume` loads no spincorr or kappa

    mmax = min(trunc.kmax, 3)
    work = Truncation(
        trunc.gmax,
        trunc.kmax + mmax,
        trunc.dmax + 2,
        trunc.smax + 2,
    )
    residuals = apply_virasoro_oracle(spin_free_energy(work), "gBGW", range(mmax + 1), trunc)
    return {
        "trunc": trunc.to_json(),
        "m_checked": list(residuals),
        "all_zero": all(res.is_zero() for res in residuals.values()),
    }
