"""Tests for the command-line front end and the artifact cache."""

import json

import pytest
from click.testing import CliRunner

import superkdv
from superkdv import cli


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

    def test_usage_errors_exit_2(self, runner):
        assert invoke(runner, ["correlators", "cubic"]).exit_code == 2
        assert invoke(runner, ["volume", "--g", "1", "--n", "0"]).exit_code == 2
        assert invoke(runner, ["volume", "--g", "1", "--n", "1", "--smax", "3"]).exit_code == 2


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


class TestCache:
    ARGS = ["volume", "--g", "1", "--n", "1", "--smax", "2", "--format", "json"]

    def test_roundtrip_byte_identical(self, runner, tmp_path):
        first = invoke(runner, self.ARGS, tmp_path)
        second = invoke(runner, self.ARGS, tmp_path)
        assert "# cache fresh" in first.stderr
        assert "# cache hit" in second.stderr
        assert first.stdout == second.stdout

    def test_corrupted_entry_recomputed(self, runner, tmp_path):
        first = invoke(runner, self.ARGS, tmp_path)
        entry = next(tmp_path.glob("*.json"))
        data = json.loads(entry.read_text())
        data["payload"] = data["payload"][:-5] + "oops]"
        entry.write_text(json.dumps(data))
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
        result = runner.invoke(
            cli.main, ["--cache-dir", str(blocker)] + self.ARGS
        )
        assert result.exit_code == 0
        assert "V[1,1]" not in result.stdout  # json format requested
        assert json.loads(result.stdout)["g"] == 1

    def test_env_var_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPERKDV_CACHE_DIR", str(tmp_path / "envcache"))
        result = runner.invoke(cli.main, self.ARGS)
        assert result.exit_code == 0
        assert (tmp_path / "envcache").exists()
