"""Fraction operations on `GradedSeries` for the tests' references.

The package takes t-derivatives and multiplies by hbar and t_k only inside
the int kernels of its residual checks; these are the same operations one
`Fraction` at a time, on whole series, as the package first wrote them.
"""

from fractions import Fraction

from superkdv.exactcore import GradedSeries, mono_mul


def monomial(trunc, value, h=0, a=0, t=()) -> GradedSeries:
    """value * hbar^h s^{2a} t, empty when `trunc` does not hold the key."""
    value = Fraction(value)
    if value == 0 or not trunc.contains(h, a, t):
        return GradedSeries(trunc)
    return GradedSeries(trunc, {(h, a, t): value})


def derive(x: GradedSeries, k: int) -> GradedSeries:
    """d/dt_k."""
    out = {}
    for (h, a, t), v in x.terms.items():
        e = t.count(k)
        if e:
            i = t.index(k)
            out[(h, a, t[:i] + t[i + 1:])] = v * e
    return GradedSeries(x.trunc, out)


def times_t(x: GradedSeries, k: int) -> GradedSeries:
    """Multiply by t_k, dropping the keys the window does not hold."""
    out = {}
    for (h, a, t), v in x.terms.items():
        t2 = mono_mul(t, (k,))
        if x.trunc.contains(h, a, t2):
            out[(h, a, t2)] = v
    return GradedSeries(x.trunc, out)


def shift(x: GradedSeries, dh: int) -> GradedSeries:
    """Multiply by hbar^dh, dropping the keys the window does not hold."""
    out = {}
    for (h, a, t), v in x.terms.items():
        if x.trunc.contains(h + dh, a, t):
            out[(h + dh, a, t)] = v
    return GradedSeries(x.trunc, out)
