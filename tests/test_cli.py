"""Command-line interface: config handling, artifacts, exit statuses."""

import json
import os

import pytest

from hankellab.cli import RunConfig, main
from hankellab.grid import Grid


def run_cli(args):
    return main(args)


class TestConfigHandling:
    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "n = 640\nR = 18.0  # comment\n"
            "symbol = laplace_type{phi=imag_power:gamma=2.0}\n")
        out = tmp_path / "out"
        code = run_cli(["lp-probe", "--config", str(cfg_file),
                        "--n", "512", "--output", str(out)])
        assert code == 0
        data = json.loads((out / "report-lp-probe.json").read_text())
        assert data["config"]["n"] == 512       # flag wins
        assert data["config"]["R"] == 18.0      # file value survives
        assert data["config"]["symbol"] == \
            "laplace_type{phi=imag_power:gamma=2.0}"

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("not_a_key = 1\n")
        assert run_cli(["lp-probe", "--config", str(cfg_file)]) == 64

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run_cli(["lp-probe", "--config",
                        str(tmp_path / "nope.cfg")]) == 64

    def test_malformed_line_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("just a dangling token\n")
        assert run_cli(["lp-probe", "--config", str(cfg_file)]) == 64

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli(["definitely-not-a-suite"]) == 64

    def test_unknown_suite_name_is_usage_error(self, tmp_path):
        assert run_cli(["suite", "bogus,lp-probe",
                        "--output", str(tmp_path)]) == 64

    def test_config_hash_tracks_effective_config(self):
        a = RunConfig(n=512)
        b = RunConfig(n=640)
        assert a.digest() != b.digest()
        assert a.digest() == RunConfig(n=512).digest()

    @pytest.mark.parametrize("argv,named", [
        (["multiplier-check", "--symbol", "oscillatory"], "k="),
        (["transform-selftest", "--alpha=-0.7"], "-0.7"),
        (["transform-selftest", "--n", "8"], "n = 8"),
        (["transform-selftest", "--R", "0"], "R = 0.0"),
        (["lp-probe", "--p", "1"], "p = 1.0"),
        (["heat-selftest", "--R", "10"], "R = 10.0"),
        (["suite", "transform-selftest,heat-selftest", "--R", "12"],
         "R = 12.0"),
        (["cz-check", "--dims", "2"], "dims = 2"),
        (["h1-check", "--alpha", "0.5,1.3"], "dims = 2"),
        (["multiplier-check", "--jmin", "5", "--jmax", "-5"], "jmin = 5"),
        (["multiplier-check", "--symbol", "heat{tt=2}"], "tt"),
        (["multiplier-check", "--symbol", "bump{k=3}"], "not take k"),
    ], ids=["symbol-without-k", "alpha-below-half", "n-below-one-panel",
            "R-zero", "p-one", "heat-R-10", "suite-heat-R-12", "cz-dims-2",
            "h1-two-alphas", "jmin-above-jmax", "heat-unknown-key",
            "bump-unknown-key"])
    def test_bad_input_refused_before_any_grid(self, argv, named, tmp_path,
                                               monkeypatch, capsys):
        built = []
        monkeypatch.setattr(Grid, "build",
                            staticmethod(lambda *a, **k: built.append(a)))
        assert run_cli(argv + ["--output", str(tmp_path)]) == 64
        assert not built
        assert named in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-out")
    code = run_cli(["transform-selftest", "--output", str(out)])
    assert code == 0
    return out


class TestArtifacts:

    def test_report_json_carries_version_and_hash(self, run_dir):
        data = json.loads(
            (run_dir / "report-transform-selftest.json").read_text())
        assert data["tool"] == "hankellab"
        assert len(data["config_hash"]) == 12
        assert data["reports"][0]["verdict"] == "pass"

    def test_csv_written_with_header(self, run_dir):
        text = (run_dir / "data-transform-selftest.csv").read_text()
        assert text.splitlines()[0].startswith("# hankellab")
        assert "report,descriptor,value" in text

    def test_summary_lists_verdicts(self, run_dir):
        text = (run_dir / "summary.txt").read_text()
        assert "PASS" in text and "transform_selftest" in text

    def test_rerun_is_idempotent(self, run_dir):
        before = (run_dir / "report-transform-selftest.json").read_text()
        assert run_cli(["transform-selftest", "--output", str(run_dir)]) == 0
        after = (run_dir / "report-transform-selftest.json").read_text()
        assert before == after


class TestExitStatuses:
    def test_memory_refusal(self, tmp_path, capsys):
        code = run_cli(["transform-selftest", "--n", "99999999",
                        "--output", str(tmp_path)])
        assert code == 1
        assert "refusing" in capsys.readouterr().err

    def test_failing_suite_returns_one(self, tmp_path):
        # declared-bound violation inside lp-probe => fail verdict
        code = run_cli(["multiplier-check", "--symbol", "divergent",
                        "--jmin", "-8", "--jmax", "0",
                        "--output", str(tmp_path)])
        assert code == 1

    def test_suite_all_runs_multiple(self, tmp_path):
        code = run_cli(["suite", "transform-selftest,heat-selftest",
                        "--output", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report-transform-selftest.json").exists()
        assert (tmp_path / "report-heat-selftest.json").exists()
        summary = (tmp_path / "summary.txt").read_text()
        assert "transform_selftest" in summary
        assert "heat_selftest" in summary
