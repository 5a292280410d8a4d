"""Exact intersection-number correlators, KdV tau functions, super volumes
and topological recursion on their spectral curves."""

__version__ = "0.1.0"
