"""The benchmark's span tracer still binds every function it wraps.

`perfbench/child.py` with TRACE = 1 imports `perfbench/tracer.py` and
runs `install`, which raises "no binding site found" when a wrapped name
(`tr_correlators`, `eta_reexpand`, `cns_laplace_check`, `spectral_curve`,
`OddDifferentialTable.to_json`, ...) is no longer bound where it looks.
"""

import json
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_traced_tr_job(tmp_path, cli_child_env):
    report = tmp_path / "report.json"
    args = ["--no-cache", "tr", "--curve", "airy", "--gmax", "1", "--nmax", "2", "--order", "4"]
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(report), "tr-airy", "1", *args],
        env=cli_child_env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"engine":"tr-airy"' in proc.stdout
    with open(f"{report}.spans") as fh:
        names = {json.loads(line)[3] for line in fh}
    assert {"cli.main", "spectral.spectral_curve", "spectral.tr_correlators", "tables.to_json"} <= names
    assert json.loads(report.read_text())["counters"]["spectral.omega.computed"] > 0
