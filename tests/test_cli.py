"""Tests for the command-line front end and the artifact cache."""

import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from math import factorial, prod
from types import SimpleNamespace

import mpmath as mp
import pytest

import superkdv
from superkdv import cli, kappa, spectral, spincorr, supervol, swnumeric, virasoro
from superkdv.exactcore import GradedSeries, Truncation
from series_ops import derive, shift


def run_cli(argv):
    """Run `cli.main` in this process; return its exit code and output."""
    out, err = StringIO(), StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(argv, prog_name="superkdv", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(
        exit_code=code,
        stdout=out.getvalue(),
        stderr=err.getvalue(),
        output=out.getvalue() + err.getvalue(),
    )


def invoke(args, tmp_path=None):
    prefix = ["--cache-dir", str(tmp_path)] if tmp_path else ["--no-cache"]
    return run_cli(prefix + args)


class TestComputeCommands:
    def test_volume_text(self):
        result = invoke(["volume", "--g", "1", "--n", "1", "--smax", "2"])
        assert result.exit_code == 0
        assert (
            result.stdout.strip()
            == "V[1,1] = 1/8 + s^2*(5/8*pi^2 + 5/96*L1^2) + O(s^4)"
        )

    def test_correlators_json(self):
        result = invoke(
            ["correlators", "kw", "--gmax", "1", "--kmax", "3", "--dmax", "3",
             "--smax", "0", "--format", "json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert {"g": 0, "k": [0, 0, 0], "v": "1"} in data["entries"]

    def test_correlators_csv(self):
        result = invoke(
            ["correlators", "kw", "--gmax", "1", "--kmax", "3", "--dmax", "3",
             "--smax", "0", "--format", "csv"],
        )
        assert result.stdout.splitlines()[0] == "g,k,v"
        assert "0,0;0;0,1" in result.stdout.splitlines()

    def test_tr_table(self):
        result = invoke(
            ["tr", "--curve", "ck", "--gmax", "1", "--nmax", "1", "--format", "json"],
        )
        data = json.loads(result.stdout)
        assert data["engine"] == "tr-ck"
        assert {"coeff": [[1, 0, "1/24"]], "g": 1, "k": [1]} in data["entries"]

    def test_tr_eta(self):
        result = invoke(
            ["tr", "--curve", "ck", "--gmax", "1", "--nmax", "1", "--eta",
             "--smax", "2", "--format", "json"],
        )
        data = json.loads(result.stdout)
        assert data["engine"] == "tr-ck-eta"
        assert {"coeff": [[1, 0, "5/48"]], "g": 1, "k": [1]} in data["entries"]

    @pytest.mark.parametrize("engine", ["spin", "zk-bracket"])
    def test_bracket_engines_at_genus_zero(self, engine):
        # a gmax-0 window has hmax = -1, below the hbar^0 shift images of
        # the bracket route; at genus 0 only <tau_0^3> = 1 survives, so
        # <psi^(k1) psi^(k2) psi^(k3)> = prod 1 / (2^k k!)
        result = invoke(
            ["correlators", engine, "--gmax", "0", "--kmax", "2", "--dmax", "3",
             "--smax", "0", "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        entries = json.loads(result.stdout)["entries"]
        assert len(entries) == 10
        for e in entries:
            assert e["g"] == 0
            assert Fraction(e["v"]) == Fraction(1, prod(2**k * factorial(k) for k in e["k"]))

    def test_tr_order_selects_nothing(self):
        # each genus reads the curve exactly, so --order only parses; cns
        # (4,1) reads the secant series through z^6, past an order of 4
        base = ["tr", "--curve", "cns", "--gmax", "4", "--nmax", "1"]
        outputs = [invoke(base + extra) for extra in (["--order", "4"], ["--order", "40"], [])]
        assert [r.exit_code for r in outputs] == [0, 0, 0]
        assert outputs[0].stdout == outputs[1].stdout == outputs[2].stdout
        assert '"g":4' in outputs[0].stdout

    def test_usage_errors_exit_2(self):
        assert_usage_errors()

    def test_usage_errors_exit_2_on_a_warm_cache(self, tmp_path):
        # a cache hit must not hide a usage error: an invalid request never
        # gets an entry, and the windowless suites, whose key leaves the
        # window out, check it before the lookup
        for args in WARM_REQUESTS:
            assert invoke(args, tmp_path).exit_code == 0, args
        assert_usage_errors(tmp_path)

    def test_curve_choice_is_spectral_curve_labels(self):
        # `tr --curve` spells the labels out so that parsing loads no
        # layer; they must stay the ones `spectral` accepts
        assert cli.CURVES == spectral.CURVE_LABELS


def assert_usage_errors(cache_dir=None):
    for args, message in USAGE_ERRORS:
        result = invoke(args, cache_dir)
        assert result.exit_code == 2, args
        assert message in result.output, args


# (arguments, text of the error message)
USAGE_ERRORS = [
    (["correlators", "cubic"], ""),
    (["volume", "--g", "1", "--n", "0"], ""),
    (["volume", "--g", "1", "--n", "1", "--smax", "3"], ""),
    (["tr", "--curve", "airy", "--gmax", "-1"], ""),
    (["tr", "--curve", "airy", "--nmax", "-1"], ""),
    (["tr", "--curve", "ck", "--eta", "--smax", "3"], ""),
    (["tr", "--curve", "bogus"], ""),
    # a bad window is a usage error, not a failed check (exit 1)
    (["verify", "kdv", "--smax", "3"], ""),
    (["correlators", "kw", "--gmax", "-1"], ""),
    (["verify", "trr", "--smax", "3"], "smax must be even"),
    (["verify", "vanishing", "--gmax", "-1"], ""),
    (["verify", "laplace", "--smax", "3"], ""),
    # dmax 0 certifies no homogeneity order; at gmax 0 and dmax <= 2
    # the KW negative control has no key that can be nonzero
    (["verify", "homogeneity", "--gmax", "1", "--dmax", "0"], ""),
    (["verify", "homogeneity", "--gmax", "0", "--dmax", "2"], "KW negative control"),
    # a window with no key to compare would pass vacuously
    (
        ["verify", "theorem1", "--gmax", "0", "--kmax", "0", "--dmax", "0", "--smax", "0"],
        "compares no coefficient",
    ),
]
# valid neighbours of the cases above, each cached before they run
WARM_REQUESTS = [
    ["verify", "trr"],
    ["verify", "vanishing"],
    ["verify", "laplace"],
    ["correlators", "kw", "--gmax", "1", "--kmax", "3", "--dmax", "3", "--smax", "0"],
    ["volume", "--g", "1", "--n", "1", "--smax", "2"],
    ["tr", "--curve", "ck", "--gmax", "1", "--nmax", "1", "--eta", "--smax", "2"],
]


class TestVerify:
    def test_trr_passes(self):
        result = invoke(["verify", "trr"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["ok"] and report["mismatches"] == 0

    def test_vanishing_passes(self):
        result = invoke(["verify", "vanishing"])
        assert result.exit_code == 0

    def test_laplace_passes(self):
        result = invoke(["verify", "laplace"])
        assert result.exit_code == 0

    def test_tr_passes(self):
        result = invoke(["verify", "tr"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["ok"] is True
        assert all(c["compared"] and not c["mismatches"] for c in report["cases"].values())

    @pytest.mark.parametrize(
        "check, edit",
        [
            ("compare_to_tables", {"mismatches": [((0, (0, 0, 0)), {0: 1}, {0: 2})]}),
            # a case that compares no key fails too
            ("cns_laplace_check", {"compared": 0}),
        ],
        ids=["mismatch", "nothing-compared"],
    )
    def test_tr_failure_exits_1(self, monkeypatch, check, edit):
        original = getattr(spectral, check)
        monkeypatch.setattr(spectral, check, lambda *args: {**original(*args), **edit})
        result = invoke(["verify", "tr"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["ok"] is False

    def test_failure_exits_1(self, monkeypatch):
        monkeypatch.setitem(
            cli.VERIFY_IMPL, "trr", lambda trunc: {"ok": False, "mismatches": 1}
        )
        result = invoke(["verify", "trr"])
        assert result.exit_code == 1

    def test_unknown_suite_exits_2(self):
        assert invoke(["verify", "everything"]).exit_code == 2

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

        def fake_orders(g, n, L, smax=4):
            route.calls.append((g, n, len(L), smax))
            value = mp.mpf(route.values[f"{g},{n}"])
            return {a: (-1) ** a * value for a in range(smax // 2 + 1)}

        monkeypatch.setattr(swnumeric, "recursion_residual_orders", fake_orders)
        return route

    def test_small_residuals_pass(self, fake_route):
        result = invoke(self.ARGS)
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert set(report) == {
            "suite", "exact_trunc", "exact_all_zero", "m_checked", "numeric", "ok",
        }
        assert report["ok"] and report["exact_all_zero"]
        assert set(report["numeric"]) == {"0,1", "1,1", "0,3"}
        for case in report["numeric"].values():
            assert isinstance(case["max_residual"], float)
            assert case["max_residual"] == 1e-12 and case["ok"]
        assert fake_route.calls == [(0, 1, 1, 4), (1, 1, 1, 4), (0, 3, 3, 4)]

    def test_residual_above_tolerance_exits_1(self, fake_route):
        fake_route.values["1,1"] = 2e-8  # tolerance 1e-8
        result = invoke(self.ARGS)
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert not report["numeric"]["1,1"]["ok"]
        assert report["numeric"]["0,1"]["ok"] and report["numeric"]["0,3"]["ok"]

    def test_exact_route_failure_exits_1(self, fake_route, monkeypatch):
        monkeypatch.setattr(
            supervol,
            "translated_virasoro_check",
            lambda trunc: {"all_zero": False, "m_checked": [0, 1, 2]},
        )
        result = invoke(self.ARGS)
        assert result.exit_code == 1
        assert not json.loads(result.stdout)["exact_all_zero"]

    def test_window_with_no_exact_term_exits_2(self, fake_route, monkeypatch):
        # a genus-0 entry of log Z^Omega carries s^2 or more: at gmax 0 and
        # smax 0 the exact check reads no d/dt_m F term and would pass vacuously
        def refuse(*args, **kwargs):
            raise AssertionError("a refused window ran a check")

        window = ["verify", "recursion", "--gmax", "0", "--smax"]
        assert invoke(window + ["2"]).exit_code == 0
        monkeypatch.setattr(swnumeric, "recursion_residual_orders", refuse)
        monkeypatch.setattr(supervol, "translated_virasoro_check", refuse)
        result = invoke(window + ["0"])
        assert result.exit_code == 2
        assert "needs gmax >= 1 or smax >= 2" in result.output


class TestVerifyVirasoroWindow:
    """At gmax 0, the KW constraint reads a coefficient of log Z only from
    dmax 2 and the gBGW one only from smax 2; below either, `verify virasoro`
    refuses the window (exit 2) instead of passing on nothing."""

    @pytest.mark.parametrize(
        "dmax, smax", [(1, 2), (2, 0), (1, 0), (2, 2)], ids=["kw", "gbgw", "both", "neither"]
    )
    def test_refused_exactly_when_a_model_reads_nothing(self, dmax, smax):
        # count the d/dt_{m+c} F terms inside the window that
        # `virasoro_oracle_residual` certifies, per model
        reads = []
        for model, c in virasoro.OFFSET.items():
            work = virasoro.solve_truncation(model, Truncation(0, 2, dmax, smax))
            F = virasoro.free_energy(model, work)
            cert = Truncation(0, min(2, work.kmax), dmax, smax if c == 0 else 0)
            reads.append(sum(len(derive(F, m + c).restrict(cert).terms) for m in range(-c, 5)))
        args = ["verify", "virasoro", "--gmax", "0", "--kmax", "2"]
        result = invoke(args + ["--dmax", str(dmax), "--smax", str(smax)])
        assert result.exit_code == (2 if 0 in reads else 0), reads
        if 0 in reads:
            assert "needs gmax >= 1, or dmax >= 2 and smax >= 2" in result.output


class TestVerifyKdvAndHomogeneityWindows:
    """`verify kdv` reads U = hbar F_00 and `verify homogeneity` reads F
    itself; where one of their cases reads no term of it, the suite refuses
    the window (exit 2) instead of passing on nothing."""

    @pytest.mark.parametrize("gmax, smax", [(0, 0), (0, 4), (1, 0), (1, 2), (2, 0)])
    def test_kdv_refused_exactly_when_a_case_reads_nothing(self, gmax, smax):
        # the four cases on the windows `verify kdv` builds them on
        trunc, kw = Truncation(gmax, 3, 5, smax), Truncation(gmax, 3, 5, 0)
        cases = [
            virasoro.free_energy("KW", kw),
            virasoro.free_energy("gBGW", trunc),
            kappa.zk_free_energy(trunc, graded=False),
            spincorr.spin_free_energy(Truncation(gmax, 2, 5, min(smax, 6))),
        ]
        reads = [len(shift(derive(derive(F, 0), 0), 1).terms) for F in cases]
        args = ["verify", "kdv", "--gmax", str(gmax), "--kmax", "3", "--dmax", "5"]
        result = invoke(args + ["--smax", str(smax)])
        assert result.exit_code == (2 if 0 in reads else 0), reads
        if 0 in reads:
            assert "needs gmax >= 2, or gmax 1 and smax >= 2" in result.output

    @pytest.mark.parametrize("gmax, smax", [(0, 0), (0, 2), (1, 0)])
    def test_homogeneity_refused_exactly_when_a_case_reads_nothing(self, gmax, smax):
        # the gBGW and spin cases; at dmax 3 the KW negative control reads a term
        trunc = Truncation(gmax, 3, 3, smax)
        cases = [
            virasoro.free_energy("gBGW", trunc),
            spincorr.spin_free_energy(Truncation(gmax, 3, 3, min(smax, 6))),
        ]
        reads = [len(F.terms) for F in cases]
        args = ["verify", "homogeneity", "--gmax", str(gmax), "--kmax", "3", "--dmax", "3"]
        result = invoke(args + ["--smax", str(smax)])
        assert result.exit_code == (2 if 0 in reads else 0), reads
        if 0 in reads:
            assert "need gmax >= 1 or smax >= 2" in result.output


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
    # loads mpmath; a miss loads exactly the layers its command computes
    # with, and the import and a hit load no layer, nor exactcore or tables,
    # except a windowless verify hit, which loads exactcore to check its
    # window.  dataclasses pulls in inspect, ast, dis and tokenize, which no
    # process needs: none loads them beyond a bare interpreter.
    python = [sys.executable, "-v"]
    bare = subprocess.run(
        python + ["-c", "pass"], capture_output=True, text=True, env=cli_child_env
    )
    assert bare.returncode == 0, bare.stderr
    baseline = set(_imported_modules(bare.stderr))
    cli_args = python + ["-m", "superkdv.cli"]
    volume = ["volume", "--g", "1", "--n", "1", "--smax", "2"]
    kw = ["correlators", "kw", "--gmax", "1", "--kmax", "3", "--dmax", "2", "--smax", "0"]
    tr = ["tr", "--curve", "airy", "--gmax", "1", "--nmax", "2", "--order", "24"]
    trr = ["verify", "trr"]
    supervol_layers = {"supervol", "virasoro"}
    runs = [
        (python + ["-c", "import superkdv.cli"], None, None),
        (cli_args + volume, "# cache fresh", supervol_layers),
        (cli_args + volume, "# cache hit", None),
        (cli_args + kw, "# cache fresh", {"virasoro"}),
        (cli_args + kw, "# cache hit", None),
        (cli_args + tr, "# cache fresh", {"spectral"}),
        (cli_args + tr, "# cache hit", None),
        (cli_args + trr, "# cache fresh", {"kappa", "spincorr", "virasoro"}),
        (cli_args + trr, "# cache hit", set()),
    ]
    for args, cache_line, layers in runs:
        proc = subprocess.run(args, capture_output=True, text=True, env=cli_child_env)
        assert proc.returncode == 0, proc.stderr
        if cache_line:
            assert cache_line in proc.stderr
        modules = _imported_modules(proc.stderr)
        # `python -m` loads superkdv.cli as __main__, under no module name;
        # its package, which it imports first, shows that the trace is there
        assert "superkdv" in modules
        top_level = {m.split(".")[0] for m in modules}
        assert not {"click", "mpmath"} & top_level, args
        assert not {"dataclasses", "inspect"} & (set(modules) - baseline), args
        loaded = {m.removeprefix("superkdv.") for m in modules}
        if layers is None:
            assert not loaded & (LAYERS | {"exactcore", "tables"}), args
        else:
            assert loaded & LAYERS == layers, args
            assert "exactcore" in loaded, args


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

    def test_roundtrip_byte_identical(self, tmp_path):
        first = invoke(self.ARGS, tmp_path)
        second = invoke(self.ARGS, tmp_path)
        assert "# cache fresh" in first.stderr
        assert "# cache hit" in second.stderr
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "corrupt",
        # a damaged payload, then valid JSON that is not an entry object
        [truncate_payload, lambda _: "[]", lambda _: "null", lambda _: '"x"'],
        ids=["truncated-payload", "list", "null", "string"],
    )
    def test_corrupted_entry_recomputed(self, tmp_path, corrupt):
        first = invoke(self.ARGS, tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text(corrupt(entry.read_text()))
        again = invoke(self.ARGS, tmp_path)
        assert "# cache fresh" in again.stderr
        assert again.stdout == first.stdout

    def test_schema_bump_misses(self, tmp_path, monkeypatch):
        invoke(self.ARGS, tmp_path)
        monkeypatch.setattr(cli, "SCHEMA_VERSION", cli.SCHEMA_VERSION + 1)
        result = invoke(self.ARGS, tmp_path)
        assert "# cache fresh" in result.stderr

    def test_code_fingerprint_change_misses(self, tmp_path, monkeypatch):
        invoke(self.ARGS, tmp_path)
        monkeypatch.setattr(cli, "_code_fingerprint", lambda: "0.0.0+other-source")
        result = invoke(self.ARGS, tmp_path)
        assert "# cache fresh" in result.stderr

    def test_entry_records_code_fingerprint(self, tmp_path):
        invoke(self.ARGS, tmp_path)
        entry = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert entry["request"]["code"] == cli._code_fingerprint()
        assert entry["request"]["code"].startswith(superkdv.__version__ + "+")

    def test_squatted_temp_name_still_caches(self, tmp_path):
        invoke(self.ARGS, tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.unlink()
        entry.with_suffix(".tmp").mkdir()
        first = invoke(self.ARGS, tmp_path)
        second = invoke(self.ARGS, tmp_path)
        assert "# cache fresh" in first.stderr
        assert "# cache hit" in second.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [entry.name, entry.with_suffix(".tmp").name]
        )

    def test_unwritable_directory_warns_and_proceeds(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        with pytest.warns(UserWarning, match="not writable"):
            result = run_cli(["--cache-dir", str(blocker)] + self.ARGS)
        assert result.exit_code == 0
        assert "V[1,1]" not in result.stdout  # json format requested
        assert json.loads(result.stdout)["g"] == 1

    def test_windowless_suite_has_one_entry(self, tmp_path):
        # verify trr reads no window, so --gmax must not split its cache key
        first = invoke(["verify", "trr", "--gmax", "1"], tmp_path)
        second = invoke(["verify", "trr", "--gmax", "3"], tmp_path)
        assert "# cache fresh" in first.stderr
        assert "# cache hit" in second.stderr
        assert first.stdout == second.stdout
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPERKDV_CACHE_DIR", str(tmp_path / "envcache"))
        result = run_cli(self.ARGS)
        assert result.exit_code == 0
        assert (tmp_path / "envcache").exists()
