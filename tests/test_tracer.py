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


def traced_job(tmp_path, env, name, args):
    """Run one CLI job under the tracer; return its stdout, the span
    names it recorded and its report."""
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(report), name, "1", "--no-cache", *args],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(f"{report}.spans") as fh:
        names = {json.loads(line)[3] for line in fh}
    return proc.stdout, names, json.loads(report.read_text())


def test_traced_tr_job(tmp_path, cli_child_env):
    args = ["tr", "--curve", "airy", "--gmax", "1", "--nmax", "2", "--order", "4"]
    stdout, names, report = traced_job(tmp_path, cli_child_env, "tr-airy", args)
    assert '"engine":"tr-airy"' in stdout
    assert {"cli.main", "spectral.spectral_curve", "spectral.tr_correlators", "tables.to_json"} <= names
    assert report["counters"]["spectral.omega.computed"] > 0


def test_traced_theorem1_job(tmp_path, cli_child_env):
    args = ["verify", "theorem1", "--gmax", "1", "--kmax", "2", "--dmax", "2", "--smax", "4"]
    stdout, names, _ = traced_job(tmp_path, cli_child_env, "theorem1", args)
    assert '"ok":true' in stdout
    assert {"spincorr.d_operator_apply", "kappa.zk_partition_function"} <= names


def test_traced_correlators_job(tmp_path, cli_child_env):
    # `correlators` looks its engine up by (module, name) when it runs, so
    # it must find the wrapper that `install` put in the engine's module
    args = ["correlators", "kw", "--gmax", "1", "--kmax", "3", "--dmax", "2", "--smax", "0"]
    stdout, names, _ = traced_job(tmp_path, cli_child_env, "kw", args)
    assert '"engine":"kw"' in stdout
    assert {"virasoro.kw_correlators", "tables.to_json"} <= names
