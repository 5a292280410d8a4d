"""Every benchmark job's output against the digest recorded for it.

`perfbench/digests.json` holds the sha256 of the stdout of each job the
benchmark runs, recorded from fresh uncached processes.  Here all jobs run
in this one process, forwards and then in reverse, so a result that
depends on the order of calls or on what earlier calls left in the
in-memory caches shows as a changed digest.
"""

import hashlib
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from superkdv import cli

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)["digests"]


def stdout_digest(job: str) -> str:
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        cli.main(["--no-cache", *job.split()], standalone_mode=False)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_jobs_reproduce_their_digests_in_either_order():
    jobs = sorted(DIGESTS)
    assert len(jobs) == 38
    changed = [
        (order, job)
        for order, sequence in (("forwards", jobs), ("reverse", jobs[::-1]))
        for job in sequence
        if stdout_digest(job) != DIGESTS[job]
    ]
    assert changed == []
