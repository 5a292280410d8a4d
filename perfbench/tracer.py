"""Span tracing for the benchmark's traced run.

The wrappers live in the benchmark, not in the package: `install` replaces
the public functions of each superkdv layer, at every place they are bound
(module globals and the command tables `cli.ENGINES` / `cli.VERIFY_IMPL`),
with a wrapper that records one span per call.  Spans stay in memory and
are written as JSON lines at the end of the job, one array per line:

    [job, id, parent, name, start, end]

with `parent` the id of the enclosing span (null at the root) and times
from `time.perf_counter`.  Counters (series sizes, cache hits and misses,
`lru_cache` misses read as `cache_info()` deltas) are kept beside them.

This module imports nothing from superkdv at import time, so `run.py`
can use `self_times` / `aggregate` without loading the package.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# Layers in the order they are reported; a span name starts with its layer.
LAYERS = ("exactcore", "virasoro", "kappa", "spincorr", "supervol", "spectral", "tables", "cli")


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._lru_marks: list = []  # (counter, lru function, misses at start)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the current one (used for the import)."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append([len(self.spans), parent, name, start, end])

    def wrap(self, name: str, fn, pre=None, post=None):
        """Return `fn` wrapped in a span.

        `pre()` runs before the call and its value is handed to
        `post(counters, args, result, pre_value)` after it.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre() if pre else None
            span = [len(spans), stack[-1] if stack else None, name, clock(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if post:
                post(counters, args, result, state)
            return result

        return traced

    def mark_lru(self, counter: str, lru_fn) -> None:
        """Count `lru_fn` cache misses from now until `close` under `counter`."""
        self._lru_marks.append((counter, lru_fn, lru_fn.cache_info().misses))

    def close(self) -> None:
        for counter, lru_fn, start in self._lru_marks:
            self.counters[counter] += lru_fn.cache_info().misses - start
        self._lru_marks = []

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([self.job, sid, parent, name, start, end]) + "\n")


# ---------------------------------------------------------------------------
# installing the wrappers


def _rebind(modules, tables, orig, replacement) -> int:
    """Replace every binding of `orig` in module globals and dict values."""
    n = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                n += 1
    for table in tables:
        for key, value in table.items():
            if value is orig:
                table[key] = replacement
                n += 1
    return n


def _misses(lru_fn):
    return lambda: lru_fn.cache_info().misses


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions; call after importing superkdv.cli."""
    from superkdv import cli, exactcore, kappa, spectral, spincorr, supervol, tables, virasoro

    modules = (cli, exactcore, kappa, spectral, spincorr, supervol, tables, virasoro)
    command_tables = (cli.ENGINES, cli.VERIFY_IMPL)

    def series_mul_counts(c, args, result, _):
        c["exactcore.series_mul.pairs"] += len(args[0].terms) * len(args[1].terms)
        c["exactcore.series_mul.out_terms"] += len(result.terms)

    fe = virasoro.free_energy

    def free_energy_counts(c, args, result, misses_before):
        if fe.cache_info().misses > misses_before:
            c["virasoro.free_energy.terms"] += len(result.terms)

    def kw_table_counts(c, args, result, misses_before):
        c["kappa.kw_table.solves"] += fe.cache_info().misses - misses_before

    def to_json_counts(c, args, result, _):
        c["tables.entries"] += len(result.get("entries", result.get("terms", ())))

    def fetch_counts(c, args, result, _):
        payload, source = result
        c["cli.cache.hits" if source == "hit" else "cli.cache.misses"] += 1
        c["tables.payload_bytes"] += len(payload)

    methods = [
        (exactcore.GradedSeries, "__mul__", "exactcore.series_mul", None, series_mul_counts),
        (exactcore.GradedSeries, "exp", "exactcore.series_exp", None, None),
        (exactcore.GradedSeries, "log", "exactcore.series_log", None, None),
        (exactcore.GradedSeries, "substitute", "exactcore.series_substitute", None, None),
        (exactcore.FormalPolynomial, "__mul__", "exactcore.poly_mul", None, None),
        (tables.CorrelatorTable, "to_json", "tables.to_json", None, to_json_counts),
        (spectral.OddDifferentialTable, "to_json", "tables.to_json", None, to_json_counts),
        (supervol.VolumePolynomial, "to_json", "tables.to_json", None, to_json_counts),
    ]
    for cls, attr, name, pre, post in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), pre, post))

    functions = [
        (virasoro.free_energy, "virasoro.free_energy", _misses(fe), free_energy_counts),
        (virasoro.partition_function, "virasoro.partition_function", None, None),
        (virasoro.kw_correlators, "virasoro.kw_correlators", None, None),
        (virasoro.bgw_correlators, "virasoro.bgw_correlators", None, None),
        (virasoro.virasoro_oracle_residual, "virasoro.oracle", None, None),
        (virasoro.apply_virasoro_oracle, "virasoro.oracle", None, None),
        (virasoro.kdv_residual, "virasoro.kdv_residual", None, None),
        (virasoro.check_homogeneity, "virasoro.homogeneity", None, None),
        (kappa.zk_correlators, "kappa.zk_correlators", None, None),
        (kappa.zk_free_energy, "kappa.zk_free_energy", None, None),
        (kappa.zk_partition_function, "kappa.zk_partition_function", None, None),
        (kappa.bracket_psi_correlators, "kappa.bracket_psi_correlators", None, None),
        (kappa.kappa_psi_number, "kappa.kappa_psi_number", None, None),
        (kappa._kw_table, "kappa.kw_table", _misses(fe), kw_table_counts),
        (spincorr.spin_correlators, "spincorr.spin_correlators", None, None),
        (spincorr.spin_free_energy, "spincorr.spin_free_energy", None, None),
        (spincorr.assemble_z_omega, "spincorr.assemble_z_omega", None, None),
        (spincorr.d_operator_apply, "spincorr.d_operator_apply", None, None),
        (spincorr.triple_route_compare, "spincorr.triple_route_compare", None, None),
        (supervol.volume_polynomial, "supervol.volume_polynomial", None, None),
        (supervol.translated_virasoro_check, "supervol.translated_virasoro_check", None, None),
        (spectral.spectral_curve, "spectral.spectral_curve", None, None),
        (spectral.tr_correlators, "spectral.tr_correlators", None, None),
        (spectral.eta_reexpand, "spectral.eta_reexpand", None, None),
        (spectral.cns_laplace_check, "spectral.laplace_check", None, None),
        (cli.fetch_or_compute, "cli.fetch_or_compute", None, fetch_counts),
    ]
    for fn, name, pre, post in functions:
        if not _rebind(modules, command_tables, fn, tracer.wrap(name, fn, pre, post)):
            raise RuntimeError(f"no binding site found for {name}")

    tracer.mark_lru("virasoro.free_energy.solves", fe)
    tracer.mark_lru("supervol.spin_value.misses", supervol.spin_value)
    tracer.mark_lru("spectral.omega.computed", spectral._omega_cached)


# ---------------------------------------------------------------------------
# self time and per-layer aggregation


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  `spans` holds (id, parent, name, start, end)
    of one job."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[sid]):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


def aggregate(spans) -> tuple[Counter, Counter]:
    """Per span name: (summed self seconds, call count) over one job's spans."""
    own = self_times(spans)
    seconds, calls = Counter(), Counter()
    for sid, _parent, name, _start, _end in spans:
        seconds[name] += own[sid]
        calls[name] += 1
    return seconds, calls
