"""Record the sha256 of every benchmark job's stdout into digests.json.

    python3 perfbench/record_digests.py COMMIT

Each job runs once, uncached, through `python -m superkdv.cli` and must
exit 0.  The digests are the correctness gate of `run.py`: record them
only from a commit whose outputs are trusted, and name that commit.
"""

import hashlib
import json
import os
import subprocess
import sys

from run import DIGESTS, ROOT, SRC, WORKLOADS


def main() -> int:
    commit = sys.argv[1]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    digests = {}
    for job in sorted({job for w in WORKLOADS.values() for job in w.jobs}):
        proc = subprocess.run(
            [sys.executable, "-m", "superkdv.cli", "--no-cache", *job.split()],
            capture_output=True, env=env, cwd=ROOT, check=True,
        )
        digests[job] = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digests[job][:12]}  {job}", flush=True)
    DIGESTS.write_text(json.dumps({"commit": commit, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
