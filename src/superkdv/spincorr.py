"""Spin-class correlators and the assembly of the spin tau function.

The spin correlators <prod tau_{k_i}>_g average the spin class over the
Ramond points, whose number m = 2 - 2g + 2|k| is forced by homogeneity.
Stable entries coincide with the bracketed-psi kappa correlators; the
genus-0 slice is additionally pinned down by a topological recursion
relation (TRR) from two-point seeds and by a closed-form evaluation, and
all three routes are required to agree.

The tau function Z^Omega assembles the stable entries at s-power
2 - 2g + 2|k| together with the unstable genus-0 one- and two-point
series; Z^Omega(t=0) = 1.  The operator chain D maps the kappa-class
tau function to the same object:

    D Z^K = e^chi * e^{S_alpha / hbar} * e^{F02 / (2 hbar)}
            * Z^K(t_k -> sum_m (s^2/2)^m t_{k+m} / m!).

The factor e^chi only cancels the t-free vacuum exp(-chi) of the full
kappa-class tau function, so D is applied to Z^K normalized to
Z^K(0) = 1 and neither is formed.  The three-way comparison with the
Virasoro-solved BGW tau function is exposed as a report.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

from .exactcore import (
    ExactCoreError,
    GradedSeries,
    Truncation,
    free_energy_series,
    labelled_splits,
    mismatches,
)
from .kappa import bracket_psi_correlators, zk_partition_function
from .tables import CorrelatorTable
from .virasoro import partition_function


# ---------------------------------------------------------------------------
# genus-0 slice: seeds, TRR, closed form


def alpha_coefficient(m: int) -> Fraction:
    """alpha_m = (s^2/2)^{m+1} / (m+1)! as the rational prefactor; it is
    also the two-point seed <tau_m tau_0>_0."""
    return Fraction(1, 2 ** (m + 1) * factorial(m + 1))


@lru_cache(maxsize=None)
def _spin_genus0(k: tuple[int, ...]) -> Fraction:
    """Genus-0 spin correlator by the TRR, on a sorted index tuple."""
    n = len(k)
    if n == 2:
        if min(k) != 0:
            raise ExactCoreError(f"two-point correlator {k} is not a seed")
        return alpha_coefficient(max(k))
    if n == 3 and k == (0, 0, 0):
        return Fraction(1)
    if k[-1] == 0:
        # all indices zero: remove one tau_0 by the dilaton identity,
        # <tau_0 X>_0 = (n + 2|k|) <X>_0
        return (n - 1) * _spin_genus0(k[:-1])
    # TRR on the largest index: distribute the remaining n - 3 points,
    # each labelled split of them once, weighted by its multiplicity
    k1, k2, k3 = k[-1], k[-2], k[-3]
    total = Fraction(0)
    for chosen, other, w in labelled_splits(k[:-3]):
        f1 = _spin_genus0(tuple(sorted((0, k1 - 1) + chosen)))
        f2 = _spin_genus0(tuple(sorted((0, k2, k3) + other)))
        total += w * f1 * f2
    return total


def genus0_closed_form(m) -> Fraction:
    """Genus-0 spin correlator in closed form, for any n >= 1.

    For n >= 3: 2^{-|m|-1} * 2 (2|m|+n-1)! / (2|m|+2)! * prod 1/m_i!.
    For n = 1 and n = 2 the values are the displayed one- and two-point
    series coefficients.
    """
    m = tuple(int(x) for x in m)
    if any(x < 0 for x in m):
        raise ExactCoreError("indices must be nonnegative")
    n = len(m)
    w = sum(m)
    if n == 0:
        raise ExactCoreError("empty index")
    if n == 1:
        return Fraction(1, 2 ** (w + 1) * (w + 1) * (2 * w + 1) * factorial(w))
    if n == 2:
        value = Fraction(1, 2 ** (w + 1) * (w + 1))
        for x in m:
            value /= factorial(x)
        return value
    value = Fraction(2 * factorial(2 * w + n - 1), 2 ** (w + 1) * factorial(2 * w + 2))
    for x in m:
        value /= factorial(x)
    return value


# ---------------------------------------------------------------------------
# all-genus table


@lru_cache(maxsize=16)
def spin_correlators(trunc: Truncation) -> CorrelatorTable:
    """Spin correlators for stable (g, n): the bracketed-kappa values.

    The genus-0 slice is verified against both the TRR route and the
    closed form; disagreement raises.
    """
    bracket = bracket_psi_correlators(trunc)
    table = CorrelatorTable("spin", trunc)
    for (g, k), v in bracket.entries.items():
        n = len(k)
        if n == 0 or 2 * g - 2 + n <= 0:
            continue
        if g == 0:
            trr = _spin_genus0(k)
            closed = genus0_closed_form(k)
            if not v == trr == closed:
                raise ExactCoreError(
                    f"genus-0 route disagreement at {k}: "
                    f"bracket {v}, TRR {trr}, closed form {closed}"
                )
        table.set(g, k, v)
    return table


# ---------------------------------------------------------------------------
# unstable genus-0 data


def unstable_series(trunc: Truncation) -> GradedSeries:
    """The unstable genus-0 terms S_alpha/hbar + F02/(2 hbar) as free-energy
    entries: each one- and two-point closed form at s-power 1 + |k|, the
    stable entries' 1 - g + |k| at g = 0.  The half of F02/2 is the
    1/|Aut k| of `free_energy_series`, as F02 sums over both orderings."""
    ks = (k for n in (1, 2) for k in combinations_with_replacement(range(trunc.kmax + 1), n))
    return free_energy_series(trunc, ((0, k, 1 + sum(k), genus0_closed_form(k)) for k in ks))


# ---------------------------------------------------------------------------
# tau-function assembly


def spin_free_energy(trunc: Truncation) -> GradedSeries:
    """log Z^Omega: stable entries at s-power 2 - 2g + 2|k| plus the
    unstable hbar^{-1} pieces (one-point plus half the two-point)."""
    entries = spin_correlators(trunc).entries.items()
    F = free_energy_series(trunc, ((g, k, 1 - g + sum(k), v) for (g, k), v in entries))
    return F + unstable_series(trunc)


def assemble_z_omega(trunc: Truncation) -> GradedSeries:
    """Z^Omega = exp(log Z^Omega) on the z-ready window; Z^Omega(0) = 1."""
    return spin_free_energy(trunc).with_window(trunc.z_window()).exp()


# ---------------------------------------------------------------------------
# the operator chain D


def d_operator_apply(zk: GradedSeries, target: Truncation) -> GradedSeries:
    """Apply D = e^{S_alpha/hbar} e^{(s^2/2) L_{-1}} to Z^K with Z^K(0) = 1.

    The shift part acts as t_k -> sum_m (s^2/2)^m t_{k+m} / m!
    (`GradedSeries.substitute` with one s^2 per step), and the
    quadratic part of the conjugated shift contributes the factor
    e^{F02/(2 hbar)}.  Each term of the factor has an hbar-power
    between minus its t-degree and 0 and a nonnegative s-power, so a key
    of `target` reads the input only at hbar-powers up to hmax + dmax
    and at s-powers up to its own: the product is formed on the input's
    z-window, and `target` selects the window of interest.
    """
    tr = zk.trunc
    # S_alpha / hbar = sum alpha_m t_m / (2m+1) / hbar is the one-point part
    return (unstable_series(tr).exp() * zk.substitute(1)).restrict(target)


# ---------------------------------------------------------------------------
# three-way comparison


def triple_route_compare(trunc: Truncation) -> dict:
    """Exact three-way comparison Z^BGW = Z^Omega = D Z^K.

    The BGW and spin assemblies exponentiate identically truncated free
    energies, so they are compared on the whole exp window.  D's
    hbar^{-1} prefactors pull data down from higher hbar-powers, so the
    D leg is compared on the genus-complete slots h <= gmax - 1.  Returns
    a report with the number of keys compared, the number of nonzero
    coefficients among them, and any mismatching keys (expected none).
    """
    z_bgw = partition_function("gBGW", trunc)
    z_omega = assemble_z_omega(trunc)
    d_zk = d_operator_apply(zk_partition_function(trunc), trunc)
    both = z_bgw.terms.keys() | z_omega.terms.keys()
    sliced = {key for key in z_bgw.terms.keys() | d_zk.terms.keys() if key[0] < trunc.gmax}
    mism = mismatches(z_bgw.terms, z_omega.terms, both)
    mism += mismatches(z_bgw.terms, d_zk.terms, sliced)
    keys = both | sliced
    nonzero = {key for key in keys if z_bgw.terms.get(key)}
    return {
        "trunc": trunc.to_json(),
        "compared": len(keys),
        "nonzero": len(nonzero),
        "mismatches": mism,
    }
