"""Numeric route for the Stanford-Witten recursion.

Evaluates the integral form of the recursion on the exact volume
polynomials of `supervol`, with the kernels

    D(x,y,z) = sinh(x/4) sinh((y+z)/4)
               / (cosh((x-y-z)/4) cosh((x+y+z)/4)),
    R(x,y,z) = (D(x+y,z,0) + D(x-y,z,0)) / 2.

D depends on y and z only through u = y + z, and R is a mean of two
D(., u, 0), so every kernel moment the recursion needs is a multiple of
one 1D moment M_m(x) = integral over u > 0 of u^m D(x, u, 0), computed
by high-precision quadrature.  It checks the exact route
(`supervol.translated_virasoro_check`) independently.

This is the only module that imports `mpmath`; the command line loads
it only for `verify recursion`.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

from .exactcore import ExactCoreError, labelled_splits
from .supervol import VolumePolynomial, volume_polynomial


# ---------------------------------------------------------------------------
# Stanford-Witten kernels and quadrature


def kernel_d(x, y, z):
    """D(x,y,z) at mpmath precision."""
    x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
    return (
        mp.sinh(x / 4)
        * mp.sinh((y + z) / 4)
        / (mp.cosh((x - y - z) / 4) * mp.cosh((x + y + z) / 4))
    )


#: Distinct moments M_m(x) kept by `_moment`.  The recursion checks of
#: (g, n) = (0,1), (1,1), (0,3), (1,2), (2,1) and (0,4), with the first
#: n lengths of (1.0, 0.7, 1.3, 0.9), need 19 of them together at
#: smax 4 and 27 at smax 6.
_MOMENT_CACHE_SIZE = 64


def _tail_radius(m: int, x, tol) -> mp.mpf:
    """Radius beyond which the tail of u^m D(x, u, 0) is below tol/10.

    D(x, u, 0) = (sech((x-u)/4) - sech((x+u)/4)) / 2 and sech t <= 2 e^{-|t|},
    so |D(x, u, 0)| <= e^{|x|/4} e^{-u/4}.  The tail of u^m times that
    bound is e^{|x|/4} 4^{m+1} Gamma(m+1, R/4), which is solved for R by
    doubling.
    """
    c = mp.exp(abs(x) / 4) * 4 ** (m + 1)
    radius = mp.mpf(40)
    while c * mp.gammainc(m + 1, radius / 4) > tol / 10:
        radius *= 2
        if radius > 1e6:
            raise ExactCoreError("tail bound does not reach tolerance")
    return radius


@lru_cache(maxsize=_MOMENT_CACHE_SIZE)
def _moment(m: int, x) -> mp.mpf:
    """M_m(x) = integral over u > 0 of u^m D(x, u, 0), by tanh-sinh
    quadrature (`mp.quad`'s default)."""
    radius = _tail_radius(m, x, mp.mpf(10) ** (-12))

    def integrand(u):
        return u**m * kernel_d(x, u, 0)

    return mp.quad(integrand, [0, radius / 2, radius])


def kernel_moment(kernel: str, fixed, powers):
    """Moment of a recursion kernel against odd monomial weights.

    kernel "R": integral over x of x^{2a+1} R(l1, lj, x) with
    fixed = (l1, lj) and powers = (a,).  kernel "D": double integral of
    x^{2a+1} y^{2b+1} D(l1, x, y) with fixed = (l1,) and
    powers = (a, b).  Both reduce to the 1D moments M_m of `_moment`:
    R is the mean of M_{2a+1} at l1 + lj and l1 - lj, and D depends on
    x and y only through u = x + y, whose Beta integral over the simplex
    gives (2a+1)! (2b+1)! / (2a+2b+3)! M_{2a+2b+3}(l1).
    """
    powers = tuple(int(p) for p in powers)
    if any(p < 0 for p in powers):
        raise ExactCoreError("moment powers must be nonnegative")
    with mp.workdps(max(mp.mp.dps, 50)):
        fixed = tuple(mp.mpf(v) for v in fixed)
        if kernel == "R":
            (a,) = powers
            l1, lj = fixed
            m = 2 * a + 1
            return (_moment(m, l1 + lj) + _moment(m, l1 - lj)) / 2
        if kernel == "D":
            a, b = powers
            (l1,) = fixed
            m = 2 * a + 2 * b + 3
            beta = mp.factorial(2 * a + 1) * mp.factorial(2 * b + 1) / mp.factorial(m)
            return beta * _moment(m, l1)
    raise ExactCoreError(f"unknown kernel {kernel!r}")


# ---------------------------------------------------------------------------
# the recursion residual


def _slot_terms(vp: VolumePolynomial, nfree: int, L_rest):
    """Collapse a volume polynomial to {(a, k_free): coeff}: the fixed
    boundary lengths and pi^2 evaluated numerically, the s^{2a} order
    and the exponents of the first `nfree` slots kept symbolic."""
    pi2 = mp.pi**2
    out: dict[tuple, mp.mpf] = {}
    for (a, k), coeff in vp.terms.items():
        value = mp.mpf(0)
        for power, c in coeff.items():
            value += mp.mpf(c.numerator) / c.denominator * pi2**power
        for ki, li in zip(k[nfree:], L_rest):
            value *= mp.mpf(li) ** (2 * ki)
        key = (a, k[:nfree])
        out[key] = out.get(key, mp.mpf(0)) + value
    return out


def recursion_residual_orders(g: int, n: int, L, smax: int = 4) -> dict:
    """LHS - RHS of the Stanford-Witten recursion, per s^2-order.

    LHS = L_1 V_{g,n}(s, L).  RHS integrates the D kernel against
    P_{g,n+1} (one handle-splitting term plus genus/boundary
    splittings, the unstable V_{0,1} and V_{0,2} factors included) and
    the R kernel against the volumes with one boundary removed, plus
    the disk/torus delta terms.  All volume factors are polynomials in
    the squared integration variables, so the integrals reduce to
    finitely many kernel moments, and every piece carries a definite
    s^2-order, so the residual splits exactly by order (orders above
    smax are truncation-incomplete and not reported).

    Each kernel term carries a measure normalization 1/(2 pi).  It
    comes from the lowest moment M_1(x) = 2 pi x: every M_m(x) is 2 pi
    times a polynomial in x and pi^2, so the R moment at a = 0 is
    2 pi L_1 and the D moment at (0, 0) is M_3(L_1)/6
    = 2 pi (L_1^3/6 + 2 pi^2 L_1).  So the normalization is derived
    from these closed forms, not calibrated against a residual.
    """
    if len(L) != n or n < 1:
        raise ExactCoreError("need boundary lengths matching n")
    with mp.workdps(max(mp.mp.dps, 50)):
        L = [mp.mpf(x) for x in L]
        l1, rest = L[0], L[1:]
        amax = smax // 2
        orders = {a: mp.mpf(0) for a in range(amax + 1)}
        for (a, _), coeff in _slot_terms(volume_polynomial(g, n, smax), 0, L).items():
            if a <= amax:
                orders[a] += l1 * coeff

        # handle-splitting and splitting terms through the D kernel; both
        # sides of a split have g >= 0 and n >= 1, so every split is a volume
        pieces = []
        if g >= 1:
            pieces.append(_slot_terms(volume_polynomial(g - 1, n + 1, smax), 2, rest))
        for g1 in range(g + 1):
            for part_i, part_j, w in labelled_splits(tuple(rest)):
                va = volume_polynomial(g1, len(part_i) + 1, smax)
                vb = volume_polynomial(g - g1, len(part_j) + 1, smax)
                combined: dict[tuple, mp.mpf] = {}
                terms_b = _slot_terms(vb, 1, part_j).items()
                for (a1, (ka,)), ca in _slot_terms(va, 1, part_i).items():
                    for (a2, (kb,)), cb in terms_b:
                        key = (a1 + a2, (ka, kb))
                        combined[key] = combined.get(key, mp.mpf(0)) + w * ca * cb
                pieces.append(combined)
        two_pi = 2 * mp.pi
        for piece in pieces:
            for (a, (ka, kb)), coeff in piece.items():
                if a <= amax:
                    orders[a] -= coeff * kernel_moment("D", (l1,), (ka, kb)) / (2 * two_pi)
        # boundary-joining terms through the R kernel
        if n >= 2:
            vr = volume_polynomial(g, n - 1, smax)
            for j, lj in enumerate(rest):
                others = tuple(x for idx, x in enumerate(rest) if idx != j)
                for (a, (kx,)), coeff in _slot_terms(vr, 1, others).items():
                    if a <= amax:
                        orders[a] -= coeff * kernel_moment("R", (l1, lj), (kx,)) / two_pi
        # disk and torus delta terms
        if n == 1:
            if g == 0:
                orders[1] -= l1 / 2
            if g == 1:
                orders[0] -= l1 / 8
        return orders
