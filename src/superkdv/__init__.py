"""Exact intersection-number correlators, KdV tau functions, super volumes
and topological recursion on their spectral curves."""

from .exactcore import (
    FormalPolynomial,
    GradedSeries,
    Truncation,
    bernoulli,
    double_factorial,
    euler_characteristic_constant,
)
from .tables import CorrelatorTable

__all__ = [
    "CorrelatorTable",
    "FormalPolynomial",
    "GradedSeries",
    "Truncation",
    "bernoulli",
    "double_factorial",
    "euler_characteristic_constant",
]

__version__ = "0.1.0"
