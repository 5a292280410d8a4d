"""Correlator tables: exact values keyed by (genus, sorted multi-index)."""

from __future__ import annotations

from fractions import Fraction

from .exactcore import Truncation, rational_to_str


class CorrelatorTable:
    def __init__(self, engine: str, trunc: Truncation) -> None:
        self.engine = engine
        self.trunc = trunc
        self.entries: dict[tuple[int, tuple[int, ...]], Fraction] = {}

    def key(self, g: int, k) -> tuple[int, tuple[int, ...]]:
        return (g, tuple(sorted(k)))

    def get(self, g: int, k) -> Fraction:
        return self.entries.get(self.key(g, k), Fraction(0))

    def set(self, g: int, k, value: Fraction) -> None:
        if value:
            self.entries[self.key(g, k)] = value

    def to_json(self) -> dict:
        rows = [
            {"g": g, "k": list(k), "v": rational_to_str(v)}
            for (g, k), v in sorted(self.entries.items())
        ]
        return {"engine": self.engine, "trunc": self.trunc.to_json(), "entries": rows}
