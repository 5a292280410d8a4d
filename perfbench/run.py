"""superkdv benchmark: fixed CLI jobs, each in a fresh interpreter.

    python3 perfbench/run.py --workload kappa-tables --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28     # every workload in turn

One parent process runs one child at a time (a closed loop with one
client), the way a CLI user gets results.  A run repeats passes over the
workload's jobs until `--seconds` would be exceeded; the first pass always
runs.  A pass uses a fresh cache directory: every job runs once as a cache
miss, then through real `python -m superkdv.cli` processes as cache hits,
at least HIT_SAMPLES of them per pass.  The seed permutes the order of the
jobs in each phase of each pass; the payloads never depend on it.  Before
the first pass and after each pass, a few set-up probes (fresh
interpreters importing `superkdv.cli`) are timed too.

A job's time is its median over all its samples in the run.  Each time is
scaled to the reference speed: it is multiplied by REF_SECONDS over the
mean time of a fixed reference loop run just before and just after the
child, which cancels the drift of the host's speed (see RATIONALE.md).

Every op (one child process) must exit 0, print exactly the bytes whose
sha256 is recorded in `digests.json`, say `# cache fresh` on a miss and
`# cache hit` on a hit, and for `verify` jobs carry `"ok": true`.  Any
other outcome is a failed op.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the exit code is 1 if
an op failed.

With `--trace 1`, untraced passes alternate with traced ones, which have
the layer wrappers of `tracer.py` installed in every child.  The metrics
are then the per-layer ones (medians over the traced passes), the tracing
overhead and the host factor.  The spans are written to
`.perfbench/trace-<workload>.jsonl`, and the CLI arguments of each job id
to `.perfbench/trace-<workload>.jobs.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3  # at the start and after every pass
# Hit processes are short and their times noisy, so each pass replays every
# job's hit often enough to give at least this many hit samples.
HIT_SAMPLES = 18
# The reference loop's time on the 2-core Xeon host the baseline was taken
# on, when that host ran at full speed; see RATIONALE.md.
REF_SECONDS = 0.015
PROBE = "import time, superkdv.cli; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"


@dataclass(frozen=True)
class Workload:
    jobs: tuple[str, ...]
    # compute workloads report the summed job time; cli-cache the summed
    # process time, with its misses run through real CLI processes too
    compute_timed: bool = True


WORKLOADS = {
    "kappa-tables": Workload(
        (
            "verify theorem1 --gmax 2 --kmax 3 --dmax 2 --smax 4",
            "correlators zk --gmax 2 --kmax 4 --dmax 2 --smax 4",
            "correlators spin --gmax 2 --kmax 3 --dmax 2 --smax 4",
            "correlators kw --gmax 3 --kmax 9 --dmax 4 --smax 0",
            "correlators bgw --gmax 3 --kmax 4 --dmax 4 --smax 8",
            "volume --g 1 --n 2 --smax 4 --format json",
        )
    ),
    "tau-series": Workload(
        (
            "verify virasoro --gmax 1 --kmax 5 --dmax 3 --smax 6",
            "verify virasoro --gmax 1 --kmax 6 --dmax 4 --smax 4",
            "verify kdv --gmax 1 --kmax 5 --dmax 5 --smax 4",
            "verify homogeneity --gmax 1 --kmax 6 --dmax 5 --smax 6",
        )
    ),
    "tr-curves": Workload(
        (
            "tr --curve ck --gmax 3 --nmax 3 --order 24",
            "tr --curve ck --gmax 2 --nmax 4 --order 24",
            "tr --curve airy --gmax 2 --nmax 4 --order 24",
            "tr --curve bessel --gmax 3 --nmax 5 --order 24",
            "tr --curve cns --gmax 2 --nmax 4 --order 40",
            "tr --curve ck --gmax 2 --nmax 3 --order 40 --eta --smax 6",
            "verify laplace",
        )
    ),
    "cli-cache": Workload(
        (
            "volume --g 0 --n 3 --smax 4",
            "volume --g 0 --n 4 --smax 4",
            "volume --g 0 --n 5 --smax 2",
            "volume --g 1 --n 1 --smax 4 --format json",
            "volume --g 1 --n 1 --smax 6 --format json",
            "volume --g 1 --n 2 --smax 2 --format json",
            "correlators kw --gmax 1 --kmax 4 --dmax 3 --smax 0",
            "correlators kw --gmax 2 --kmax 6 --dmax 3 --smax 0",
            "correlators kw --gmax 3 --kmax 6 --dmax 2 --smax 0",
            "correlators bgw --gmax 1 --kmax 3 --dmax 3 --smax 4",
            "correlators bgw --gmax 2 --kmax 4 --dmax 3 --smax 6",
            "correlators bgw --gmax 2 --kmax 3 --dmax 2 --smax 4 --format csv",
            "tr --curve airy --gmax 1 --nmax 3 --order 24",
            "tr --curve bessel --gmax 1 --nmax 3 --order 24",
            "tr --curve ck --gmax 1 --nmax 2 --order 24",
            "tr --curve cns --gmax 1 --nmax 2 --order 24",
            "tr --curve airy --gmax 1 --nmax 2 --order 40 --format text",
            "tr --curve bessel --gmax 1 --nmax 4 --order 40",
            "tr --curve cns --gmax 1 --nmax 3 --order 40",
            "tr --curve ck --gmax 1 --nmax 2 --order 40 --eta --smax 4",
            "verify trr",
            "verify laplace",
        ),
        compute_timed=False,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "hit_ms.p50": "ms",
    "miss_ms.p50": "ms",
}

# per-layer metrics read from span self times (.s) and call counts (.calls)
SPAN_METRICS = (
    "exactcore.series_mul.calls",
    "exactcore.series_mul.s",
    "exactcore.series_exp.calls",
    "exactcore.series_exp.s",
    "exactcore.series_log.s",
    "exactcore.series_substitute.s",
    "exactcore.poly_mul.calls",
    "exactcore.poly_mul.s",
    "virasoro.free_energy.calls",
    "virasoro.free_energy.s",
    "virasoro.oracle.s",
    "virasoro.kdv_residual.s",
    "virasoro.homogeneity.s",
    "kappa.zk_correlators.s",
    "kappa.bracket_psi_correlators.s",
    "kappa.kappa_psi_number.calls",
    "spincorr.spin_correlators.s",
    "spincorr.assemble_z_omega.s",
    "spincorr.d_operator_apply.s",
    "spincorr.triple_route_compare.s",
    "supervol.volume_polynomial.calls",
    "supervol.volume_polynomial.s",
    "spectral.tr_correlators.s",
    "spectral.eta_reexpand.s",
    "spectral.laplace_check.s",
    "tables.to_json.s",
    "cli.import.s",
    "cli.fetch_or_compute.s",
)
# per-layer metrics counted by the wrappers and cache_info() deltas
COUNTER_METRICS = (
    "exactcore.series_mul.pairs",
    "exactcore.series_mul.out_terms",
    "virasoro.free_energy.solves",
    "virasoro.free_energy.terms",
    "kappa.kw_table.solves",
    "supervol.spin_value.misses",
    "spectral.omega.computed",
    "tables.entries",
    "tables.payload_bytes",
    "cli.cache.hits",
    "cli.cache.misses",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_METRICS:
        units[name] = "s" if name.endswith(".s") else "count"
    for name in COUNTER_METRICS:
        units[name] = "bytes" if name.endswith("bytes") else "count"
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["host.factor"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# one op


def reference_seconds() -> float:
    """Time a fixed pure-Python Fraction and dict workload, which probes the
    host's current speed and runs no superkdv code."""
    t0 = time.perf_counter()
    total, counts = Fraction(0), {}
    for k in range(1, 6000):
        total += Fraction(k % 7 + 1, k % 97 + 1)
        counts[k % 31] = counts.get(k % 31, 0) + 1
    return time.perf_counter() - t0


@dataclass
class Proc:
    returncode: int
    stdout: bytes
    stderr: bytes
    spawned: float  # CLOCK_MONOTONIC at spawn
    seconds: float  # spawn to exit
    maxrss_mb: float


def spawn(argv: list[str], env: dict, scratch: Path) -> Proc:
    """Run one child to completion; its output goes through files."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
        spawned,
        seconds,
        usage.ru_maxrss / 1024,
    )


def check(job: str, proc: Proc, digest: str | None, source: str) -> str | None:
    """Why this op failed, or None when its output is verified."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}"
    if digest is None:
        return "no recorded digest"
    if hashlib.sha256(proc.stdout).hexdigest() != digest:
        return "payload digest mismatch"
    if job.startswith("verify ") and json.loads(proc.stdout).get("ok") is not True:
        return 'report without "ok": true'
    if f"# cache {source}" not in proc.stderr.decode(errors="replace").splitlines():
        return f"stderr lacks '# cache {source}'"
    return None


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Pass:
    # per job, a list of (seconds, host scale): compute time (fetch_or_compute
    # in the miss child) and process time of the misses and of the hits
    compute: dict = field(default_factory=dict)
    miss: dict = field(default_factory=dict)
    hit: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    failures: list = field(default_factory=list)  # (job id, reason)
    attempted: int = 0
    layer: dict = field(default_factory=dict)


class Runner:
    def __init__(self, name: str, seed: int, work: Path, digests: dict):
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.work = work
        self.digests = digests
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.passes = 0
        self.setup: list[tuple] = []  # (set-up seconds, host scale) around every pass
        self.scales: list[float] = []  # host scale of every child
        self.last_ref = None
        self.job_names: dict[str, str] = {}  # job id -> CLI arguments

    def timed_spawn(self, argv: list[str]) -> tuple[Proc, float]:
        """Run one child between two runs of the reference loop, and return it
        with its host scale: REF_SECONDS over the mean reference time around
        it.  The reference after one child is the one before the next."""
        before = self.last_ref or reference_seconds()
        proc = spawn(argv, self.env, self.work)
        self.last_ref = reference_seconds()
        scale = 2 * REF_SECONDS / (before + self.last_ref)
        self.scales.append(scale)
        return proc, scale

    def probe_setup(self, n: int) -> None:
        """Time n fresh interpreters from spawn until superkdv.cli is imported."""
        for _ in range(n):
            proc, scale = self.timed_spawn([sys.executable, "-c", PROBE])
            if proc.returncode != 0:
                raise SystemExit(
                    "perfbench: cannot import superkdv.cli from src/:\n"
                    + proc.stderr.decode(errors="replace")
                )
            self.setup.append((float(proc.stdout) - proc.spawned, scale))

    def run_pass(self, traced: bool, spans_out=None) -> Pass:
        k = self.passes
        self.passes += 1
        cache = self.work / f"cache-{k}"
        jobs = self.workload.jobs
        result = Pass()
        seconds = Counter()
        calls = Counter()
        counters = Counter()
        spans = 0
        hit_repeats = -(-HIT_SAMPLES // len(jobs))
        for phase, source, repeats in (("miss", "fresh", 1), ("hit", "hit", hit_repeats)):
            order = self.rng.sample(jobs * repeats, len(jobs) * repeats)
            for i, job in enumerate(order):
                job_id = f"p{k}.{phase}.{i}"
                self.job_names[job_id] = job
                cli_args = ["--cache-dir", str(cache), *job.split()]
                use_child = traced or (phase == "miss" and self.workload.compute_timed)
                report = self.work / "report.json"
                report.unlink(missing_ok=True)
                if use_child:
                    argv = [sys.executable, str(CHILD), str(report), job_id, str(int(traced))]
                else:
                    argv = [sys.executable, "-m", "superkdv.cli"]
                proc, scale = self.timed_spawn(argv + cli_args)
                result.attempted += 1
                reason = check(job, proc, self.digests.get(job), source)
                data = {}
                if use_child:
                    if report.exists():
                        data = json.loads(report.read_text())
                    elif reason is None:
                        reason = "child wrote no report"
                if reason:
                    result.failures.append((job_id, reason))
                getattr(result, phase).setdefault(job, []).append((proc.seconds, scale))
                if "fetch_s" in data and phase == "miss":
                    result.compute.setdefault(job, []).append((data["fetch_s"], scale))
                result.peak_rss_mb = max(result.peak_rss_mb, proc.maxrss_mb)
                if traced and data:
                    counters.update(data.get("counters", {}))
                    lines = Path(str(report) + ".spans").read_text()
                    job_spans = [json.loads(line)[1:] for line in lines.splitlines()]
                    s, c = tracing.aggregate(job_spans)
                    seconds.update(s)
                    calls.update(c)
                    spans += len(job_spans)
                    if spans_out is not None:
                        spans_out.write(lines)
        if traced:
            result.layer = layer_metrics(seconds, calls, counters, spans)
        shutil.rmtree(cache, ignore_errors=True)
        return result


def layer_metrics(seconds: Counter, calls: Counter, counters: Counter, spans: int) -> dict:
    out = {}
    for name in SPAN_METRICS:
        base, kind = name.rsplit(".", 1)
        out[name] = seconds[base] if kind == "s" else calls[base]
    for name in COUNTER_METRICS:
        out[name] = counters[name]
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in seconds.items() if k.split(".")[0] == layer)
    out["trace.spans"] = spans
    return out


# ---------------------------------------------------------------------------
# one run


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    digests = json.loads(DIGESTS.read_text())["digests"]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        deadline = time.perf_counter() + seconds
        runner = Runner(name, seed, work, digests)
        runner.probe_setup(1)  # warm-up: writes the bytecode caches
        runner.setup.clear()
        runner.probe_setup(SETUP_PROBES)
        plain: list[Pass] = []
        traced: list[Pass] = []
        spans_out = open(OUT / f"trace-{name}.jsonl", "w") if trace else None
        try:
            # with tracing, untraced and traced passes alternate
            while True:
                t0 = time.perf_counter()
                if trace and len(traced) < len(plain):
                    traced.append(runner.run_pass(True, spans_out))
                else:
                    plain.append(runner.run_pass(False))
                runner.probe_setup(SETUP_PROBES)
                took = time.perf_counter() - t0
                if trace and not traced:
                    continue
                if time.perf_counter() + took > deadline:
                    break
        finally:
            if spans_out:
                spans_out.close()
                (OUT / f"trace-{name}.jobs.json").write_text(json.dumps(runner.job_names, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    compute_timed = WORKLOADS[name].compute_timed
    # every reported time is scaled to the reference speed; the host's speed
    # drifts by up to 2x within and between runs (RATIONALE.md)
    factor = 1 / statistics.median(runner.scales)
    raw = {}
    if trace:
        values = {m: statistics.median(p.layer[m] for p in traced) for m in traced[0].layer}
        values["trace.overhead_s"] = wall_seconds(traced, compute_timed) - wall_seconds(
            plain, compute_timed
        )
        values["host.factor"] = factor
        units = per_layer_units()
    else:
        raw = end_to_end_times(runner.setup, plain, compute_timed, scaled=False)
        values = end_to_end_times(runner.setup, plain, compute_timed, scaled=True)
        values["peak_rss_mb"] = max(p.peak_rss_mb for p in plain)
        units = END_TO_END
    return {
        "workload": name,
        "passes": len(passes),
        "setup_samples": len(runner.setup),
        "host_factor": factor,
        "raw": raw,
        "failures": [f for p in passes for f in p.failures],
        "attempted": sum(p.attempted for p in passes),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def per_job(passes: list[Pass], kind: str, scaled: bool = True) -> dict[str, float]:
    """Each job's median time of one kind over the passes of a run, scaled to
    the reference speed unless `scaled` is false."""
    samples: dict[str, list] = {}
    for p in passes:
        for job, taken in getattr(p, kind).items():
            samples.setdefault(job, []).extend(t * s if scaled else t for t, s in taken)
    return {job: statistics.median(ts) for job, ts in samples.items()}


def end_to_end_times(setup: list, passes: list[Pass], compute_timed: bool, scaled: bool) -> dict:
    return {
        "setup_s": statistics.median(t * s if scaled else t for t, s in setup),
        "wall_s": wall_seconds(passes, compute_timed, scaled),
        "hit_ms.p50": 1000 * statistics.median(per_job(passes, "hit", scaled).values()),
        "miss_ms.p50": 1000 * statistics.median(per_job(passes, "miss", scaled).values()),
    }


def wall_seconds(passes: list[Pass], compute_timed: bool, scaled: bool = True) -> float:
    """One pass over the jobs at each job's median time in the run: the summed
    compute time, or for cli-cache the summed miss and hit process times."""
    if compute_timed:
        return sum(per_job(passes, "compute", scaled).values())
    return sum(per_job(passes, "miss", scaled).values()) + sum(
        per_job(passes, "hit", scaled).values()
    )


def summary_lines(res: dict) -> list[str]:
    name = res["workload"]
    lines = [
        f"{name}: {res['passes']} pass(es), {res['setup_samples']} set-up samples,"
        f" host factor {res['host_factor']:.3f}"
    ]
    for job_id, reason in res["failures"]:
        lines.append(f"{name}: FAILED {job_id}: {reason}")
    rate = len(res["failures"]) / res["attempted"]
    lines.append(f"{name}  error_rate  {rate:.4g} ratio  ({len(res['failures'])}/{res['attempted']} ops)")
    for metric, v in res["metrics"].items():
        line = f"{name}  {metric}  {v['value']:.6g} {v['unit']}"
        if metric in res["raw"]:
            line += f"  (as timed: {res['raw'][metric]:.6g})"
        lines.append(line)
    layers = {m[: -len(".self_s")]: v["value"] for m, v in res["metrics"].items() if m.endswith(".self_s")}
    if layers and sum(layers.values()) > 0:
        top = max(layers, key=layers.get)
        share = layers[top] / sum(layers.values())
        lines.append(f"{name}: largest self-time layer {top} ({share:.0%} of traced self time)")
    return lines


def result_line(results: list[dict]) -> str:
    failed = sum(len(r["failures"]) for r in results)
    attempted = sum(r["attempted"] for r in results)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()
    }
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "superkdv" / "cli.py").is_file():
        print(f"perfbench: no superkdv source under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(res)
        print("\n".join(summary_lines(res)), flush=True)
    print(result_line(results), flush=True)
    return 0 if all(not r["failures"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
