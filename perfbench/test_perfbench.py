"""Tests of the benchmark's own logic: self time, and what counts as a failed op."""

import hashlib
import json
from collections import Counter

import pytest

import run
import tracer

PAYLOAD = b'{"ok":true}\n'

# Stands in for superkdv.cli: prints PAYLOAD, says fresh on the first call
# per cache dir and job and hit after; job "flip" changes one payload byte,
# job "exit" exits 3.
FAKE_CLI = '''
import sys
from pathlib import Path
args = sys.argv[1:]
cache, job = Path(args[args.index("--cache-dir") + 1]), args[-1]
cache.mkdir(parents=True, exist_ok=True)
marker = cache / job
sys.stderr.write("# cache hit\\n" if marker.exists() else "# cache fresh\\n")
marker.touch()
out = PAYLOAD
if job == "flip":
    out = out.replace(b"t", b"T", 1)
sys.stdout.buffer.write(out)
sys.exit(3 if job == "exit" else 0)
'''


def test_self_time_on_synthetic_span_tree():
    # (id, parent, name, start, end)
    spans = [
        (0, None, "cli.main", 0.0, 10.0),
        (1, 0, "kappa.a", 1.0, 4.0),
        (2, 1, "exactcore.m", 2.0, 3.0),
        (3, 0, "kappa.a", 3.0, 6.0),  # overlaps span 1: covered once
        (4, 0, "exactcore.m", 9.0, 12.0),  # runs past its parent: clipped
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 1, 1: 3 - 1, 2: 1, 3: 3, 4: 3})
    seconds, calls = tracer.aggregate(spans)
    assert seconds == pytest.approx({"cli.main": 4, "kappa.a": 5, "exactcore.m": 4})
    assert calls == {"cli.main": 1, "kappa.a": 2, "exactcore.m": 2}


def _proc(stdout, stderr=b"# cache fresh\n", code=0):
    return run.Proc(code, stdout, stderr, 0.0, 0.1, 10.0)


def test_check_gates():
    digest = hashlib.sha256(PAYLOAD).hexdigest()
    assert run.check("verify trr", _proc(PAYLOAD), digest, "fresh") is None
    flipped = PAYLOAD.replace(b"t", b"T", 1)
    assert run.check("verify trr", _proc(flipped), digest, "fresh") == "payload digest mismatch"
    assert run.check("verify trr", _proc(PAYLOAD, code=1), digest, "fresh") == "exit code 1"
    assert run.check("verify trr", _proc(PAYLOAD), digest, "hit").startswith("stderr lacks")
    bad = b'{"ok":false}\n'
    not_ok = run.check("verify trr", _proc(bad), hashlib.sha256(bad).hexdigest(), "fresh")
    assert not_ok == 'report without "ok": true'
    assert run.check("verify trr", _proc(PAYLOAD), None, "fresh") == "no recorded digest"


def test_changed_byte_and_nonzero_exit_count_as_failed_ops(tmp_path, monkeypatch):
    src = tmp_path / "src"
    (src / "superkdv").mkdir(parents=True)
    (src / "superkdv" / "__init__.py").write_text("")
    (src / "superkdv" / "cli.py").write_text(f"PAYLOAD = {PAYLOAD!r}\n" + FAKE_CLI)
    monkeypatch.setattr(run, "SRC", src)
    jobs = ("good", "flip", "exit")
    monkeypatch.setitem(run.WORKLOADS, "fake", run.Workload(jobs, compute_timed=False))
    digest = hashlib.sha256(PAYLOAD).hexdigest()
    work = tmp_path / "work"
    work.mkdir()

    runner = run.Runner("fake", 0, work, {job: digest for job in jobs})
    result = runner.run_pass(traced=False)

    hits = -(-run.HIT_SAMPLES // len(jobs))  # hit replays of each job
    assert result.attempted == len(jobs) * (1 + hits)
    failed = Counter((runner.job_names[job_id], reason) for job_id, reason in result.failures)
    assert failed == {
        ("exit", "exit code 3"): 1 + hits,
        ("flip", "payload digest mismatch"): 1 + hits,
    }
    assert set(result.miss) == set(result.hit) == set(jobs)


def test_every_job_has_a_recorded_digest():
    digests = json.loads(run.DIGESTS.read_text())["digests"]
    assert {job for w in run.WORKLOADS.values() for job in w.jobs} == set(digests)
