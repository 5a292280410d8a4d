"""Tests for the command-line front end and the artifact cache."""

import json
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from types import SimpleNamespace

import mpmath as mp
import pytest
from click.testing import CliRunner

import superkdv
from superkdv import cli, spectral, supervol, swnumeric
from superkdv.exactcore import GradedSeries, Truncation


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, tmp_path=None):
    prefix = ["--cache-dir", str(tmp_path)] if tmp_path else ["--no-cache"]
    return runner.invoke(cli.main, prefix + args)


class TestComputeCommands:
    def test_volume_text(self, runner):
        result = invoke(runner, ["volume", "--g", "1", "--n", "1", "--smax", "2"])
        assert result.exit_code == 0
        assert (
            result.stdout.strip()
            == "V[1,1] = 1/8 + s^2*(5/8*pi^2 + 5/96*L1^2) + O(s^4)"
        )

    def test_correlators_json(self, runner):
        result = invoke(
            runner,
            ["correlators", "kw", "--gmax", "1", "--kmax", "3", "--dmax", "3",
             "--smax", "0", "--format", "json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert {"g": 0, "k": [0, 0, 0], "v": "1"} in data["entries"]

    def test_correlators_csv(self, runner):
        result = invoke(
            runner,
            ["correlators", "kw", "--gmax", "1", "--kmax", "3", "--dmax", "3",
             "--smax", "0", "--format", "csv"],
        )
        assert result.stdout.splitlines()[0] == "g,k,v"
        assert "0,0;0;0,1" in result.stdout.splitlines()

    def test_tr_table(self, runner):
        result = invoke(
            runner,
            ["tr", "--curve", "ck", "--gmax", "1", "--nmax", "1", "--format", "json"],
        )
        data = json.loads(result.stdout)
        assert data["engine"] == "tr-ck"
        assert {"coeff": [[1, 0, "1/24"]], "g": 1, "k": [1]} in data["entries"]

    def test_tr_eta(self, runner):
        result = invoke(
            runner,
            ["tr", "--curve", "ck", "--gmax", "1", "--nmax", "1", "--eta",
             "--smax", "2", "--format", "json"],
        )
        data = json.loads(result.stdout)
        assert data["engine"] == "tr-ck-eta"
        assert {"coeff": [[1, 0, "5/48"]], "g": 1, "k": [1]} in data["entries"]

    @pytest.mark.parametrize("engine", ["spin", "zk-bracket"])
    def test_bracket_engines_at_genus_zero(self, runner, engine):
        # a gmax-0 window has hmax = -1, below the hbar^0 shift images of
        # the bracket route; at genus 0 only <tau_0^3> = 1 survives, so
        # <psi^(k1) psi^(k2) psi^(k3)> = prod 1 / (2^k k!)
        result = invoke(
            runner,
            ["correlators", engine, "--gmax", "0", "--kmax", "2", "--dmax", "3",
             "--smax", "0", "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        entries = json.loads(result.stdout)["entries"]
        assert len(entries) == 10
        for e in entries:
            assert e["g"] == 0
            assert Fraction(e["v"]) == Fraction(1, prod(2**k * factorial(k) for k in e["k"]))

    def test_usage_errors_exit_2(self, runner):
        assert invoke(runner, ["correlators", "cubic"]).exit_code == 2
        assert invoke(runner, ["volume", "--g", "1", "--n", "0"]).exit_code == 2
        assert invoke(runner, ["volume", "--g", "1", "--n", "1", "--smax", "3"]).exit_code == 2
        assert invoke(runner, ["tr", "--curve", "cns", "--gmax", "4", "--nmax", "1", "--order", "4"]).exit_code == 2
        assert invoke(runner, ["tr", "--curve", "airy", "--gmax", "-1"]).exit_code == 2
        assert invoke(runner, ["tr", "--curve", "airy", "--nmax", "-1"]).exit_code == 2
        assert invoke(runner, ["tr", "--curve", "ck", "--eta", "--smax", "3"]).exit_code == 2
        assert invoke(runner, ["tr", "--curve", "bogus"]).exit_code == 2
        # a bad window is a usage error, not a failed check (exit 1)
        assert invoke(runner, ["verify", "kdv", "--smax", "3"]).exit_code == 2
        assert invoke(runner, ["correlators", "kw", "--gmax", "-1"]).exit_code == 2
        # dmax 0 certifies no homogeneity order; at gmax 0 and dmax <= 2
        # the KW negative control has no key that can be nonzero
        assert invoke(runner, ["verify", "homogeneity", "--gmax", "1", "--dmax", "0"]).exit_code == 2
        result = invoke(runner, ["verify", "homogeneity", "--gmax", "0", "--dmax", "2"])
        assert result.exit_code == 2 and "KW negative control" in result.output
        # a window with no key to compare would pass vacuously
        result = invoke(
            runner,
            ["verify", "theorem1", "--gmax", "0", "--kmax", "0", "--dmax", "0", "--smax", "0"],
        )
        assert result.exit_code == 2 and "compares no coefficient" in result.output

    def test_curve_choice_is_spectral_curve_labels(self):
        # `tr --curve` spells the labels out so that the command table
        # loads no layer; they must stay the ones `spectral` accepts
        (curve,) = [p for p in cli.tr.params if p.name == "curve"]
        assert tuple(curve.type.choices) == spectral.CURVE_LABELS


class TestVerify:
    def test_trr_passes(self, runner):
        result = invoke(runner, ["verify", "trr"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["ok"] and report["mismatches"] == 0

    def test_vanishing_passes(self, runner):
        result = invoke(runner, ["verify", "vanishing"])
        assert result.exit_code == 0

    def test_laplace_passes(self, runner):
        result = invoke(runner, ["verify", "laplace"])
        assert result.exit_code == 0

    def test_failure_exits_1(self, runner, monkeypatch):
        monkeypatch.setitem(
            cli.VERIFY_IMPL, "trr", lambda trunc: {"ok": False, "mismatches": 1}
        )
        result = invoke(runner, ["verify", "trr"])
        assert result.exit_code == 1

    def test_unknown_suite_exits_2(self, runner):
        assert invoke(runner, ["verify", "everything"]).exit_code == 2

    def test_kdv_and_homogeneity_read_log_z(self, monkeypatch):
        # both checks are statements about log Z, which the free energies
        # already are: exponentiating them only to take the log again is waste
        def refuse(self):
            raise AssertionError("exp/log called")

        monkeypatch.setattr(GradedSeries, "exp", refuse)
        monkeypatch.setattr(GradedSeries, "log", refuse)
        assert cli._verify_kdv(Truncation(1, 3, 5, 4))["ok"]
        assert cli._verify_homogeneity(Truncation(1, 3, 3, 4))["ok"]


class TestVerifyRecursion:
    """The `verify recursion` wiring, with the numeric route replaced by
    fixed residuals so the suite runs in well under a second."""

    ARGS = ["verify", "recursion", "--gmax", "1", "--kmax", "2", "--dmax", "2", "--smax", "2"]

    @pytest.fixture
    def fake_route(self, monkeypatch):
        """The fake numeric route: `values` maps "g,n" to the residual it
        reports at every s^2-order, `calls` records its arguments."""
        route = SimpleNamespace(
            values={"0,1": 1e-12, "1,1": 1e-12, "0,3": 1e-12}, calls=[]
        )

        def fake_orders(g, n, L, smax=4, **flags):
            route.calls.append((g, n, len(L), smax, flags))
            value = mp.mpf(route.values[f"{g},{n}"])
            return {a: (-1) ** a * value for a in range(smax // 2 + 1)}

        monkeypatch.setattr(swnumeric, "recursion_residual_orders", fake_orders)
        return route

    def test_small_residuals_pass(self, runner, fake_route):
        result = invoke(runner, self.ARGS)
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert set(report) == {
            "suite", "exact_trunc", "exact_all_zero", "m_checked",
            "convention", "numeric", "ok",
        }
        assert report["ok"] and report["exact_all_zero"]
        assert report["convention"] == swnumeric.PASSING_CONVENTION
        assert set(report["numeric"]) == {"0,1", "1,1", "0,3"}
        for case in report["numeric"].values():
            assert isinstance(case["max_residual"], float)
            assert case["max_residual"] == 1e-12 and case["ok"]
        assert [c[:4] for c in fake_route.calls] == [
            (0, 1, 1, 4), (1, 1, 1, 4), (0, 3, 3, 4)
        ]
        assert all(c[4] == swnumeric.PASSING_CONVENTION for c in fake_route.calls)

    def test_residual_above_tolerance_exits_1(self, runner, fake_route):
        fake_route.values["1,1"] = 2e-8  # tolerance 1e-8
        result = invoke(runner, self.ARGS)
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert not report["numeric"]["1,1"]["ok"]
        assert report["numeric"]["0,1"]["ok"] and report["numeric"]["0,3"]["ok"]

    def test_exact_route_failure_exits_1(self, runner, fake_route, monkeypatch):
        monkeypatch.setattr(
            supervol,
            "translated_virasoro_check",
            lambda trunc: {"all_zero": False, "m_checked": [0, 1, 2]},
        )
        result = invoke(runner, self.ARGS)
        assert result.exit_code == 1
        assert not json.loads(result.stdout)["exact_all_zero"]


def _imported_modules(verbose_stderr: str) -> list[str]:
    """Module names from the `import 'name'` lines that `python -v` writes to
    stderr for every module it loads, also through `importlib.import_module`
    (which `-X importtime` does not report)."""
    return [
        line.split("'")[1]
        for line in verbose_stderr.splitlines()
        if line.startswith("import '")
    ]


LAYERS = {"kappa", "spectral", "spincorr", "supervol", "virasoro", "swnumeric"}


def test_cli_processes_do_not_import_mpmath(cli_child_env):
    # only `verify recursion` needs the numeric route, so no other process
    # loads mpmath; and each command loads only the layers it computes with
    python = [sys.executable, "-v"]
    cli_args = python + ["-m", "superkdv.cli"]
    volume = ["volume", "--g", "1", "--n", "1", "--smax", "2"]
    kw = ["correlators", "kw", "--gmax", "1", "--kmax", "3", "--dmax", "2", "--smax", "0"]
    tr = ["tr", "--curve", "airy", "--gmax", "1", "--nmax", "2", "--order", "24"]
    supervol_layers = {"kappa", "spincorr", "supervol", "virasoro"}
    runs = [
        (python + ["-c", "import superkdv.cli"], None, set()),
        (cli_args + volume, "# cache fresh", supervol_layers),
        (cli_args + volume, "# cache hit", supervol_layers),
        (cli_args + kw, "# cache fresh", {"virasoro"}),
        (cli_args + kw, "# cache hit", {"virasoro"}),
        (cli_args + tr, "# cache fresh", {"spectral"}),
        (cli_args + tr, "# cache hit", {"spectral"}),
    ]
    for args, cache_line, layers in runs:
        proc = subprocess.run(args, capture_output=True, text=True, env=cli_child_env)
        assert proc.returncode == 0, proc.stderr
        if cache_line:
            assert cache_line in proc.stderr
        modules = _imported_modules(proc.stderr)
        # `python -m` loads superkdv.cli as __main__, under no module name;
        # superkdv.tables, which it imports, shows that the trace is there
        assert "superkdv.tables" in modules
        loaded = {m.removeprefix("superkdv.") for m in modules}
        assert loaded & LAYERS == layers, args
        assert [m for m in modules if m.split(".")[0] == "mpmath"] == [], args


# The benchmark times `fetch_or_compute` as a job's compute, so each command
# imports its layers before the call; the child reports the modules that the
# call imported first.
FIRST_IMPORTS = """
import json, sys
import superkdv.cli as cli

fetch = cli.fetch_or_compute

def watched(*args):
    before = set(sys.modules)
    try:
        return fetch(*args)
    finally:
        print("# first imports " + json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)

cli.fetch_or_compute = watched
cli.main(sys.argv[1:], prog_name="superkdv")
"""

SMALL_WINDOW = ["--gmax", "1", "--kmax", "2", "--dmax", "2", "--smax", "2"]


@pytest.mark.parametrize(
    "args",
    [["correlators", engine, *SMALL_WINDOW] for engine in sorted(cli.ENGINES)]
    + [
        ["volume", "--g", "1", "--n", "1", "--smax", "2"],
        ["tr", "--curve", "ck", "--gmax", "1", "--nmax", "2", "--order", "8"],
        ["tr", "--curve", "ck", "--gmax", "1", "--nmax", "1", "--eta", "--smax", "2"],
    ]
    # recursion imports swnumeric as it computes, to keep mpmath out of the rest
    + [["verify", suite, *SMALL_WINDOW] for suite in cli.VERIFY_IMPL if suite != "recursion"],
    ids=" ".join,
)
def test_cache_miss_compute_imports_no_module(cli_child_env, args):
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORTS, *args],
        capture_output=True,
        text=True,
        env=cli_child_env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert "# cache fresh" in lines
    (report,) = [line for line in lines if line.startswith("# first imports ")]
    assert json.loads(report.removeprefix("# first imports ")) == []


def test_cli_child_env_passes_bytecode_setting(monkeypatch, request):
    # without it the CLI children write bytecode caches into the source tree
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = request.getfixturevalue("cli_child_env")
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"


def truncate_payload(text: str) -> str:
    data = json.loads(text)
    data["payload"] = data["payload"][:-5] + "oops]"
    return json.dumps(data)


class TestCache:
    ARGS = ["volume", "--g", "1", "--n", "1", "--smax", "2", "--format", "json"]

    def test_roundtrip_byte_identical(self, runner, tmp_path):
        first = invoke(runner, self.ARGS, tmp_path)
        second = invoke(runner, self.ARGS, tmp_path)
        assert "# cache fresh" in first.stderr
        assert "# cache hit" in second.stderr
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "corrupt",
        # a damaged payload, then valid JSON that is not an entry object
        [truncate_payload, lambda _: "[]", lambda _: "null", lambda _: '"x"'],
        ids=["truncated-payload", "list", "null", "string"],
    )
    def test_corrupted_entry_recomputed(self, runner, tmp_path, corrupt):
        first = invoke(runner, self.ARGS, tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text(corrupt(entry.read_text()))
        again = invoke(runner, self.ARGS, tmp_path)
        assert "# cache fresh" in again.stderr
        assert again.stdout == first.stdout

    def test_schema_bump_misses(self, runner, tmp_path, monkeypatch):
        invoke(runner, self.ARGS, tmp_path)
        monkeypatch.setattr(cli, "SCHEMA_VERSION", cli.SCHEMA_VERSION + 1)
        result = invoke(runner, self.ARGS, tmp_path)
        assert "# cache fresh" in result.stderr

    def test_code_fingerprint_change_misses(self, runner, tmp_path, monkeypatch):
        invoke(runner, self.ARGS, tmp_path)
        monkeypatch.setattr(cli, "_code_fingerprint", lambda: "0.0.0+other-source")
        result = invoke(runner, self.ARGS, tmp_path)
        assert "# cache fresh" in result.stderr

    def test_entry_records_code_fingerprint(self, runner, tmp_path):
        invoke(runner, self.ARGS, tmp_path)
        entry = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert entry["request"]["code"] == cli._code_fingerprint()
        assert entry["request"]["code"].startswith(superkdv.__version__ + "+")

    def test_squatted_temp_name_still_caches(self, runner, tmp_path):
        invoke(runner, self.ARGS, tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.unlink()
        entry.with_suffix(".tmp").mkdir()
        first = invoke(runner, self.ARGS, tmp_path)
        second = invoke(runner, self.ARGS, tmp_path)
        assert "# cache fresh" in first.stderr
        assert "# cache hit" in second.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [entry.name, entry.with_suffix(".tmp").name]
        )

    def test_unwritable_directory_warns_and_proceeds(self, runner, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        with pytest.warns(UserWarning, match="not writable"):
            result = runner.invoke(
                cli.main, ["--cache-dir", str(blocker)] + self.ARGS
            )
        assert result.exit_code == 0
        assert "V[1,1]" not in result.stdout  # json format requested
        assert json.loads(result.stdout)["g"] == 1

    def test_windowless_suite_has_one_entry(self, runner, tmp_path):
        # verify trr reads no window, so --gmax must not split its cache key
        first = invoke(runner, ["verify", "trr", "--gmax", "1"], tmp_path)
        second = invoke(runner, ["verify", "trr", "--gmax", "3"], tmp_path)
        assert "# cache fresh" in first.stderr
        assert "# cache hit" in second.stderr
        assert first.stdout == second.stdout
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_env_var_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPERKDV_CACHE_DIR", str(tmp_path / "envcache"))
        result = runner.invoke(cli.main, self.ARGS)
        assert result.exit_code == 0
        assert (tmp_path / "envcache").exists()
