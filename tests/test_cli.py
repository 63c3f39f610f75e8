"""Command-line interface: config handling, artifacts, exit statuses."""

import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankellab import cli, heat, sobolev, transform
from hankellab.cli import (CONFIG_KEYS, RunConfig, _SUITE_FNS, _SUITE_READS,
                           _make_parser, _parse_config_file, build_config,
                           main)
from hankellab.grid import (MIN_PPW, Grid, GridFunction, axis_rule,
                            axis_size, norm, points_per_wavelength)
from hankellab.heat import HeatKernelEval, heat_apply
from hankellab.multiplier import _symbol_values, apply_multiplier
from hankellab.sobolev import SpectralTailWarning
from hankellab.specfun import MultiIndex
from hankellab.symbols import parse_symbol
from hankellab.transform import TransformPlan, hankel_transform, inverse_hankel
from hankellab.verify import h1_atom_check, make_battery

from paper_checks import battery_functions


def run_cli(args):
    return main(args)


def config_reads(fn):
    """The RunConfig fields fn reads: its cfg.<field> attributes, symbol and
    dims when it uses sym (parsed from them), and the fields of the cli
    helpers it passes cfg to."""
    reads = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"):
            reads.add(node.attr)
        elif isinstance(node, ast.Name) and node.id == "sym":
            reads |= {"symbol", "dims"}
        elif isinstance(node, ast.Call) and any(
                isinstance(a, ast.Name) and a.id == "cfg" for a in node.args):
            callee = ast.unparse(node.func).removeprefix("cli.")
            reads |= config_reads(getattr(cli, callee))
    return reads


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

    def test_config_hash_skips_output_and_unread_options(self, tmp_path):
        def hash_of(*flags, out="a"):
            code = run_cli(["transform-selftest", "--n", "128", "--R", "8",
                            *flags, "--output", str(tmp_path / out)])
            assert code in (0, 1)
            report = tmp_path / out / "report-transform-selftest.json"
            return json.loads(report.read_text())["config_hash"]

        base = hash_of()
        # transform-selftest reads no beta and writes anywhere
        assert hash_of("--beta", "5", out="b") == base
        assert hash_of(out="c") == base
        assert hash_of("--n", "160", out="d") != base

    def test_every_suite_declares_the_fields_it_reads(self):
        assert set(_SUITE_READS) == set(_SUITE_FNS)
        for name, fn in _SUITE_FNS.items():
            assert set(_SUITE_READS[name]) == config_reads(fn), name
            assert set(_SUITE_READS[name]) <= set(CONFIG_KEYS) - {"output"}

    def test_config_reads_follows_helpers_and_the_symbol(self):
        def suite(cfg, sym):
            return cli._plan(cfg), sym, cfg.p

        assert config_reads(suite) == {"alpha", "dims", "n", "R", "symbol",
                                       "p"}

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
        (["multiplier-check", "--symbol", "heat{t=1,t=2}"], "t twice"),
        (["multiplier-check", "--symbol",
          "laplace_type{phi=imag_power:gamma=1,gamma=2}"], "gamma twice"),
        (["transform-selftest", "--dims", "0"], "dims = 0"),
        (["transform-selftest", "--dims", "7"], "dims = 7"),
        (["multiplier-check", "--beta", "-1"], "beta = -1.0"),
        (["multiplier-check", "--beta", "nan"], "beta = nan"),
        (["transform-selftest", "--seed", "-1"], "seed = -1"),
        (["transform-selftest", "--R", "inf"], "R = inf"),
        (["transform-selftest", "--alpha", "0.5,1.3", "--dims", "3"],
         "dims = 3"),
        (["transform-selftest", "--alpha", "0.5,1.3", "--dims", "1"],
         "dims = 1"),
        (["transform-selftest", "--n", "abc"], "n = 'abc'"),
        (["multiplier-check", "--jmin", "2.5"], "jmin = '2.5'"),
        (["multiplier-check", "--beta", "two"], "beta = 'two'"),
        (["suite", "transform-selftest,transform-selftest", "--n", "64",
          "--R", "12"], "named twice: ['transform-selftest']"),
        (["lp-probe", "--n", "256", "--symbol", "const{value=2}"],
         "n = 256, R = 24.0: the Lambda = R plan of lp-probe has ~2.8 "
         "points per wavelength, below 4"),
        (["lp-probe", "--R", "5e-324"], "R = 5e-324"),
        (["transform-selftest", "--R", "1e-310"], "R = 1e-310"),
        (["lp-probe", "--R", "4"], "R = 4.0: lp-probe draws"),
        (["cz-check", "--alpha", "50"], "alpha = (50.0,), cz-check"),
        (["h1-check", "--alpha", "64"], "alpha = (64.0,), h1-check"),
        (["transform-selftest", "--alpha", "60", "--R", "4", "--n", "64"],
         "alpha = (60.0,), n = 64"),
        (["transform-selftest", "--alpha", "80", "--R", "2"],
         "alpha = (80.0,): the Bessel kernel table"),
        (["multiplier-check", "--jmin", "600", "--jmax", "600"],
         "jmin = 600, jmax = 600"),
        (["multiplier-check", "--jmin", "1100", "--jmax", "1100"],
         "jmin = 1100, jmax = 1100"),
        (["multiplier-check", "--jmin", "-1100", "--jmax", "-1100"],
         "jmin = -1100, jmax = -1100"),
        (["lp-probe", "--n", "256", "--R", "12", "--symbol",
          "const{value=inf}"], "value = 'inf'"),
        (["lp-probe", "--n", "256", "--R", "12", "--symbol",
          "oscillatory{k=nan}"], "k = 'nan'"),
        (["multiplier-check", "--symbol", "heat{t=-1}"], "t = '-1'"),
        (["multiplier-check", "--symbol", "potential{s=-0.1,h=bump}"],
         "s = '-0.1'"),
        (["multiplier-check", "--symbol", "heat{t=abc}"], "t = 'abc'"),
        (["heat-selftest", "--R", "12.000001", "--n", "64"],
         "R = 12.000001, n = 64"),
        (["heat-selftest", "--R", "12.000001"], "R = 12.000001, n = 1024"),
        (["heat-selftest", "--R", "12.0001", "--n", "64"],
         "R = 12.0001, n = 64"),
        (["multiplier-check", "--beta", "59.19"], "beta = 59.19"),
        (["multiplier-check", "--dims", "2", "--beta", "62.82"],
         "beta = 62.82"),
        (["suite", "transform-selftest,multiplier-check", "--dims", "3",
          "--n", "16", "--R", "13"],
         "refusing to run multiplier-check at dims = 3, n = 16"),
        (["heat-selftest", "--n", "9" * 401],
         "refusing to run heat-selftest at dims = 1, n = 999"),
        (["suite", "all", "--n", "9" * 401],
         "refusing to run transform-selftest at dims = 1, n = 999"),
        (["lp-probe", "--dims", "3", "--n", "1024"],
         "refusing to run lp-probe at dims = 3, n = 1024"),
        (["transform-selftest", "--alpha", "57,57", "--n", "512"],
         "the product 7.855e+155 x 7.855e+155 of the axes' largest"),
        (["lp-probe", "--p", "3", "--alpha", "60,60", "--n", "512"],
         "alpha = (60.0, 60.0), R = 24.0, n = 512, the Lambda = R plan of "
         "lp-probe: the largest entry of the weight tensor"),
        (["transform-selftest", "--alpha", "0.5,0.5", "--R", "1e-100", "--n",
          "64"], "3.745e-202 x 3.745e-202 of the axes' largest quadrature "
         "weights, is ~1e-402.9"),
        (["suite", "setup-probe"], "unknown suites: ['setup-probe']"),
    ], ids=["symbol-without-k", "alpha-below-half", "n-below-one-panel",
            "R-zero", "p-one", "heat-R-10", "suite-heat-R-12", "cz-dims-2",
            "h1-two-alphas", "jmin-above-jmax", "heat-unknown-key",
            "bump-unknown-key", "heat-repeated-key", "gamma-repeated-key",
            "dims-zero", "dims-above-max", "beta-negative", "beta-nan",
            "seed-negative", "R-inf", "dims-above-alpha-count",
            "dims-below-alpha-count", "n-not-an-int", "jmin-not-an-int",
            "beta-not-a-float", "suite-named-twice",
            "lp-under-resolved", "lp-R-subnormal", "R-subnormal",
            "lp-R-below-8", "cz-alpha-50", "h1-alpha-64",
            "weight-unresolved-near-R", "kernel-table-above-cap",
            "j-600-overflows", "j-1100-out-of-range", "j-minus-1100-is-0",
            "const-value-inf", "oscillatory-k-nan", "heat-t-negative",
            "potential-s-negative", "heat-t-not-a-number",
            "heat-R-just-above-12-n-64", "heat-R-just-above-12-n-1024",
            "heat-R-12.0001-n-64", "beta-59.19-overflows",
            "beta-62.82-overflows-at-d-2", "box-refused-after-a-fitting-suite",
            "heat-n-401-digits", "all-n-401-digits", "lp-dims-3-n-1024",
            "weight-tensor-57-at-d-2", "lp-p-3-weight-tensor-60-at-d-2",
            "weight-tensor-underflows-at-d-2",
            "unknown-suite"])
    def test_bad_input_refused_before_any_grid(self, argv, named, tmp_path,
                                               monkeypatch, capsys):
        built, ran = [], []
        monkeypatch.setattr(Grid, "build",
                            staticmethod(lambda *a, **k: built.append(a)))
        for name in _SUITE_FNS:
            monkeypatch.setitem(_SUITE_FNS, name,
                                lambda cfg, sym: ran.append(cfg.suite) or [])
        assert run_cli(argv + ["--output", str(tmp_path)]) == 64
        assert not built and not ran
        assert not any(tmp_path.iterdir())
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["a-file", "a-file/sub"],
                             ids=["a-file", "under-a-file"])
    def test_output_directory_refused_before_any_grid(self, output, tmp_path,
                                                      monkeypatch, capsys):
        # a file where the directory, or one of its parents, should be
        def no_grid(*a, **k):
            raise AssertionError("Grid.build called")

        monkeypatch.setattr(Grid, "build", staticmethod(no_grid))
        (tmp_path / "a-file").write_text("")
        assert run_cli(["suite", "transform-selftest,lp-probe",
                        "--output", str(tmp_path / output)]) == 64
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["lp-probe", "--dims", "3", "--n", "64", "--R", "13"], "dims = 3"),
        (["multiplier-check", "--alpha", "0.5,0.5,0.5,0.5"], "dims = 4"),
    ], ids=["lp-probe-dims-3", "multiplier-check-dims-4"])
    def test_potential_refused_where_its_table_cannot_fit(
            self, argv, named, tmp_path, monkeypatch, capsys):
        # the table has BOX_SAMPLES^dims points, 512^3 at dims = 3; a
        # missing refusal reaches the builder, which fails the test before
        # it allocates anything
        def no_table(*args):
            raise AssertionError("the potential table was built")

        monkeypatch.setattr(sobolev, "potential_symbol", no_table)
        argv = argv + ["--symbol", "potential{s=1,h=bump}",
                       "--output", str(tmp_path)]
        assert run_cli(argv) == 64
        err = capsys.readouterr().err
        assert "potential" in err and named in err

    def test_potential_table_gate_admits_two_dims(self, monkeypatch):
        monkeypatch.setattr(sobolev, "potential_symbol", lambda *a: "table")
        cfg = RunConfig(alpha=(0.5, 0.5), dims=2,
                        symbol="potential{s=1,h=bump}")
        assert cli._check_config(cfg, ["multiplier-check"]) == "table"

    @pytest.mark.parametrize("rows,named", [
        (["0,0,1,0", "1,0,1,0", "0,1,1,0"], "3 rows"),
        (["0,0,1,0", "1,0,1,0", "0,1,1,0", "1,1,1,0", "1,1,1,0"], "5 rows"),
        (["0,0,1,0", "1,0,1,0", "0,1,1,0", "1,1,nan,0"], "finite"),
    ], ids=["missing-node", "repeated-node", "non-finite-value"])
    def test_malformed_tabulated_file_is_refused(self, rows, named, tmp_path,
                                                 capsys):
        # the coordinates span a 2 x 2 box grid; each node needs one row
        path = tmp_path / "tab.csv"
        path.write_text("\n".join(["u1,u2,re_n,im_n"] + rows) + "\n")
        argv = ["multiplier-check", "--alpha", "0.5,1.3",
                "--symbol", f"tabulated{{path={path}}}",
                "--output", str(tmp_path)]
        assert run_cli(argv) == 64
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("suite,R", [("lp-probe", 8.0),
                                         ("transform-selftest", 1e-150)])
    def test_smallest_runnable_R_is_accepted(self, suite, R):
        # R = 8 gives lp-probe's bump widths the single value 1; at
        # R = 1e-150, R^2 and (R/8)^2 are still normal floats
        cli._check_config(RunConfig(R=R, n=64), [suite])

    def test_heat_gate_is_where_the_compared_rows_hold_a_node(self, tmp_path):
        # at n = 64 the axis's smallest node lies between 1e-4 and 1e-3, so
        # the rows x < R - 12 hold it at R = 12.001 but not at R = 12.0001
        assert 1e-4 < axis_rule(0.5, 12.001, 64)[0][0] < 1e-3
        assert run_cli(["heat-selftest", "--R", "12.001", "--n", "64",
                        "--output", str(tmp_path)]) == 0

    @pytest.mark.parametrize("dims,last,first", [(1, 59.1804, 59.1805),
                                                 (2, 62.8104, 62.8105)])
    def test_beta_gate_is_where_the_box_weight_overflows(self, dims, last,
                                                          first):
        # (1+|xi|^2)^beta is largest at the box's top frequency on every
        # axis: the last beta the gate admits, to 4 decimals, gives a finite
        # norm, and the first it refuses does not
        cfg = RunConfig(alpha=(0.5,) * dims, dims=dims)
        cfg.beta = last
        cli._check_config(cfg, ["multiplier-check"])
        cfg.beta = first
        with pytest.raises(ValueError, match=f"beta = {first}: multiplier"):
            cli._check_config(cfg, ["multiplier-check"])
        sym = parse_symbol(cfg.symbol, dims)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the tail, and the overflow
            assert np.isfinite(sobolev.local_sobolev_norm(sym, 0, last))
            assert not np.isfinite(sobolev.local_sobolev_norm(sym, 0, first))

    def test_lp_probe_reaches_a_verdict_at_large_p(self, tmp_path, capsys):
        # |f|^2000 underflows to 0 for |f| < 0.7; the norms are taken
        # relative to the largest |f|, so the ratios stay finite
        assert run_cli(["lp-probe", "--p", "2000", "--output",
                        str(tmp_path)]) == 0
        assert "suite error" not in capsys.readouterr().err
        report = json.loads((tmp_path / "report-lp-probe.json").read_text())
        probe = report["reports"][0]
        assert probe["verdict"] == "pass"
        assert 0 < probe["fitted_constants"]["max_ratio"] < np.inf

    def test_j_gate_is_where_the_window_radii_leave_the_normals(self):
        # |2^j u|^2 at the window radii u = 1/2 and 2 is 2^(2j-2) and
        # 2^(2j+2): normal floats for |j| <= 510, not from |j| = 511
        tiny = np.finfo(float).tiny
        for j in (-510, 510):
            cli._check_config(RunConfig(jmin=j, jmax=j), ["multiplier-check"])
            assert tiny <= (2.0**j * 0.5) ** 2
            assert (2.0**j * 2.0) ** 2 < np.inf
        assert (2.0**-511 * 0.5) ** 2 < tiny
        with pytest.raises(OverflowError):
            (2.0**511 * 2.0) ** 2
        for jmin, jmax in ((-511, 0), (0, 511)):
            with pytest.raises(ValueError, match=f"jmin = {jmin}, jmax = "
                               f"{jmax}: multiplier-check"):
                cli._check_config(RunConfig(jmin=jmin, jmax=jmax),
                                  ["multiplier-check"])

    @pytest.mark.parametrize("suite", ["cz-check", "h1-check"])
    def test_sweeps_accept_alpha_20(self, suite):
        # their largest radii, 4.6e5 (cz) and 260 (h1), raised to
        # 2 alpha + 1 = 41 are still normal floats
        cli._check_config(RunConfig(alpha=(20.0,)), [suite])

    def test_h1_check_runs_at_alpha_50(self, tmp_path):
        # the sweep's largest radius is the coarse spatial axis at 20 + 240
        # = 260, and 260^101 is a normal float
        assert run_cli(["h1-check", "--alpha", "50",
                        "--output", str(tmp_path)]) == 0

    def test_weight_tensor_gate_admits_alpha_56_at_d_2(self, tmp_path):
        # each axis's largest weight is 1.372e153 at alpha = 56 and 7.855e155
        # at 57: only the product of the second pair leaves the normal floats
        for suite in ("transform-selftest", "heat-selftest", "lp-probe"):
            cli._check_config(RunConfig(alpha=(56.0, 56.0), dims=2, n=512),
                              [suite])
        assert run_cli(["transform-selftest", "--alpha", "56,56", "--n",
                        "512", "--output", str(tmp_path)]) == 0
        rep, = json.loads((tmp_path / "report-transform-selftest.json")
                          .read_text())["reports"]
        assert rep["fitted_constants"]["max_inversion_error"] < 1e-9
        assert rep["fitted_constants"]["max_plancherel_deviation"] < 1e-12

    def test_h1_gate_refuses_where_the_sweep_overflows(self):
        # 260^(2 alpha + 1), the coarse spatial axis at 20 + 240, leaves
        # the normal floats from alpha = 63.3216: the gate admits the last
        # alpha below and the sweep itself overflows at the first refused one
        cli._check_config(RunConfig(alpha=(63.3215,)), ["h1-check"])
        with pytest.raises(ValueError, match="normal floats"):
            cli._check_config(RunConfig(alpha=(63.3216,)), ["h1-check"])
        with pytest.raises(OverflowError):
            h1_atom_check(MultiIndex((63.3216,)), parse_symbol(
                RunConfig().symbol, 1))

    @pytest.mark.parametrize("line", [
        "digest = abc", "__class__ = x", "suite = h1-check"],
        ids=["method", "dunder", "suite"])
    def test_only_settable_fields_are_config_keys(self, line, tmp_path,
                                                   monkeypatch, capsys):
        built = []
        monkeypatch.setattr(Grid, "build",
                            staticmethod(lambda *a, **k: built.append(a)))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        assert run_cli(["transform-selftest", "--config", str(cfg_file),
                        "--output", str(tmp_path)]) == 64
        assert not built
        key = line.split("=")[0].strip()
        assert f"unknown config key: {key}" in capsys.readouterr().err

    def test_repeated_config_key_is_refused(self, tmp_path, monkeypatch,
                                            capsys):
        built = []
        monkeypatch.setattr(Grid, "build",
                            staticmethod(lambda *a, **k: built.append(a)))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 512\nR = 12\nn = 64\n")
        assert run_cli(["transform-selftest", "--config", str(cfg_file),
                        "--output", str(tmp_path)]) == 64
        assert not built
        assert f"{cfg_file}:3: n given twice" in capsys.readouterr().err

    def test_dims_disagreeing_with_alpha_in_the_file_is_refused(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("alpha = 0.5,1.3\ndims = 3\n")
        with pytest.raises(ValueError, match="dims = 3"):
            build_config(argparse.Namespace(config=str(cfg_file)))


# a value other than the default for every settable key, as a flag gives it,
# and the RunConfig value it must produce
_FLAG_VALUES = {
    "alpha": ("0.5,1.3", (0.5, 1.3)), "dims": ("2", 2), "n": ("512", 512),
    "R": ("18.5", 18.5), "symbol": ("bump", "bump"),
    "beta": ("1.5", 1.5), "jmin": ("-3", -3), "jmax": ("4", 4),
    "p": ("3", 3.0), "seed": ("7", 7), "output": ("elsewhere", "elsewhere"),
}


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_every_config_key_is_a_flag(key):
    text, want = _FLAG_VALUES[key]
    assert want != getattr(RunConfig(), key)
    args = _make_parser().parse_args(["transform-selftest", f"--{key}", text])
    assert getattr(build_config(args), key) == want


@pytest.mark.parametrize("given", ["flag", "file"])
def test_grading_is_not_an_option(given, tmp_path, monkeypatch, capsys):
    # the axis layout is fixed in grid; a run that asks for another is
    # refused, not silently given the fixed one
    built = []
    monkeypatch.setattr(Grid, "build",
                        staticmethod(lambda *a, **k: built.append(a)))
    argv = ["transform-selftest", "--output", str(tmp_path)]
    if given == "flag":
        argv += ["--grading", "10"]
    else:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("grading = 10\n")
        argv += ["--config", str(cfg_file)]
    assert run_cli(argv) == 64
    assert not built
    assert "grading" in capsys.readouterr().err


_CONFIG_KEYS = ["alpha", "dims", "n", "R", "grading", "symbol", "beta",
                "jmin", "jmax", "p", "seed", "output", "suite", "digest",
                "__class__", "threads"]
_CONFIG_VALUES = st.one_of(
    st.integers(-10, 10**6).map(str), st.floats().map(repr),
    st.text(st.characters(exclude_characters="\n\r"), max_size=12),
    st.sampled_from(["0.5,1.3", "0.5,", "1e999", "nan", "-0.7", "bump"]))
_CONFIG_LINES = st.builds(
    lambda k, v: f"{k} = {v}",
    st.one_of(st.sampled_from(_CONFIG_KEYS), st.text(max_size=6)),
    _CONFIG_VALUES)
_CONFIG_TEXTS = st.one_of(
    st.text(), st.lists(_CONFIG_LINES, max_size=5).map("\n".join))


@given(text=_CONFIG_TEXTS)
@example(text="digest = abc")
@example(text="__class__ = x")
@example(text="suite = h1-check")
@example(text="alpha = \ud800")
@settings(max_examples=300, deadline=None)
def test_config_file_gives_run_config_or_value_error(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    # a lone surrogate gives bytes that are not UTF-8, which the parser
    # refuses with UnicodeDecodeError, a ValueError
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    args = argparse.Namespace(config=str(path))
    try:
        cfg = build_config(args)
    except ValueError:
        return
    assert isinstance(cfg, RunConfig)
    assert set(_parse_config_file(str(path))) <= set(vars(cfg)) - {"suite"}
    assert len(cfg.alpha) == cfg.dims


def test_multiplier_check_drops_only_spectral_tail_warnings(monkeypatch):
    # the default symbol's own profile at j = 0 raises a SpectralTailWarning
    hormander_sup = cli.hormander_sup

    def noisy_profile(*args):
        warnings.warn("not a tail warning", RuntimeWarning)
        return hormander_sup(*args)

    monkeypatch.setattr(cli, "hormander_sup", noisy_profile)
    cfg = RunConfig(jmin=0, jmax=0)
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        cli.suite_multiplier_check(cfg, parse_symbol(cfg.symbol, cfg.dims))
    assert [w.category for w in escaped] == [RuntimeWarning]
    with pytest.warns(SpectralTailWarning):
        hormander_sup(parse_symbol(cfg.symbol, cfg.dims), cfg.beta, (0, 0))


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
    def test_a_nan_norm_fails_transform_selftest(self, tmp_path,
                                                 monkeypatch):
        # one Plancherel deviation reads NaN; a running max(0.0, nan)
        # would keep 0.0 and the suite PASS
        calls = []

        def nan_once(f, *args):
            calls.append(f)
            return np.nan if len(calls) == 1 else norm(f, *args)

        monkeypatch.setattr(cli, "norm", nan_once)
        assert run_cli(["transform-selftest", "--n", "512",
                        "--output", str(tmp_path)]) == 1
        rep, = json.loads((tmp_path / "report-transform-selftest.json")
                          .read_text())["reports"]
        assert math.isnan(rep["fitted_constants"]["max_plancherel_deviation"])
        assert rep["verdict"] == "fail"

    def test_memory_refusal(self, tmp_path, capsys):
        code = run_cli(["transform-selftest", "--n", "99999999",
                        "--output", str(tmp_path)])
        assert code == 64
        assert "refusing" in capsys.readouterr().err

    def test_memory_refusal_counts_the_grid_values(self, tmp_path,
                                                   monkeypatch, capsys):
        # 3 x 1024^2 floats of kernel matrices are ~25 MB, but one complex
        # value tensor on the 1024^3 grid is ~17 GB
        def no_grid(*a, **k):
            raise AssertionError("Grid.build called")

        monkeypatch.setattr(Grid, "build", staticmethod(no_grid))
        code = run_cli(["transform-selftest", "--dims", "3", "--n", "1024",
                        "--output", str(tmp_path)])
        assert code == 64
        assert "refusing to run" in capsys.readouterr().err

    def test_memory_refusal_for_an_n_too_large_for_a_float(
            self, tmp_path, monkeypatch, capsys):
        def no_grid(*a, **k):
            raise AssertionError("Grid.build called")

        monkeypatch.setattr(Grid, "build", staticmethod(no_grid))
        code = run_cli(["transform-selftest", "--n", "9" * 401,
                        "--output", str(tmp_path)])
        assert code == 64
        assert "refusing to run" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["transform-selftest", "heat-selftest",
                                       "lp-probe"])
    @pytest.mark.parametrize("dims,n,keep", [(1, 1024, None), (2, 160, None),
                                             (3, 16, 48)],
                             ids=["d1", "d2", "d3"])
    def test_memory_estimate_covers_the_suite_peak(self, suite, dims, n, keep,
                                                   monkeypatch):
        # the d = 3 grid keeps 48 of the 160 nodes of each axis, since the
        # full one would hold 65 MB per value tensor
        build = Grid.build

        def small(*a, **k):
            grid = build(*a, **k)
            return grid if keep is None else grid.restrict(
                [np.linspace(0, ax.n - 1, keep).astype(int)
                 for ax in grid.axes])

        monkeypatch.setattr(Grid, "build", staticmethod(small))
        cfg = RunConfig(alpha=(0.5, 1.3, 0.8)[:dims], dims=dims, n=n, R=14.0)
        sym = parse_symbol(cfg.symbol, dims)
        tracemalloc.start()
        try:
            _SUITE_FNS[suite](cfg, sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cli._estimate_run_bytes(suite, dims,
                                              keep or axis_size(n))

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_heat_estimate_covers_the_widest_admitted_axis(self, n):
        # heat-selftest's kernel rows x < R - HEAT_MARGIN sqrt(t) cover the
        # most of the axis at the largest R the ppw gate admits for n, so
        # its peak is largest there
        N = axis_size(n)
        R = math.sqrt(math.pi * N / 2.0)
        while points_per_wavelength(N, R, R) < MIN_PPW:
            R = math.nextafter(R, 0.0)
        cfg = RunConfig(alpha=(0.5,), dims=1, n=n, R=R)
        sym = cli._check_config(cfg, ["heat-selftest"])
        with pytest.raises(ValueError, match="points per wavelength"):
            cli._check_config(RunConfig(alpha=(0.5,), dims=1, n=n,
                                        R=math.nextafter(R, np.inf)),
                              ["heat-selftest"])
        tracemalloc.start()
        try:
            cli.suite_heat_selftest(cfg, sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cli._estimate_run_bytes("heat-selftest", 1, N)

    @pytest.mark.parametrize("symbol,p", [(None, None), ("divergent", None),
                                          (None, "3")],
                             ids=["default", "divergent", "default-p-3"])
    def test_memory_estimate_covers_the_lapack_workspace(self, tmp_path,
                                                         symbol, p):
        # tracemalloc sees numpy's arrays, not the workspace that LAPACK and
        # BLAS allocate for themselves, so the growth of the largest resident
        # set of a fresh interpreter is held to the budget too, on the d = 2
        # lp-probe, whose factorization is the largest such call: sketched
        # for the default symbol, the SVD of the whole symbol matrix for
        # divergent (rank 169 at 512 nodes); with one BLAS thread, since
        # per-thread buffers grow with the host's cores, not with the grid
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1")
        argv = ["lp-probe", "--dims", "2", "--alpha", "0.5,1.3", "--n", "512",
                "--output", str(tmp_path)]
        if symbol:
            argv += ["--symbol", symbol]
        if p:
            # at p = 2 no image is formed; p = 3 forms one per function
            argv += ["--p", p]
        code = ("import resource\n"
                "import hankellab.cli\n"
                "def peak():\n"
                "    return resource.getrusage(\n"
                "        resource.RUSAGE_SELF).ru_maxrss\n"
                "before = peak()\n"
                f"code = hankellab.cli.main({argv!r})\n"
                "print(code, peak() - before)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        exit_code, grown = map(int, out.splitlines()[-1].split())
        assert exit_code == 0
        # ru_maxrss counts bytes on macOS, KiB elsewhere
        grown *= 1 if sys.platform == "darwin" else 1024
        assert grown <= cli._estimate_run_bytes("lp-probe", 2, axis_size(512))

    def test_memory_refusal_of_the_sobolev_box(self, tmp_path, monkeypatch,
                                               capsys):
        # the 512^3 box points of multiplier-check at d = 3: its mesh alone
        # would be 3.2 GB
        def no_box(*a, **k):
            raise AssertionError("_box_geometry called")

        monkeypatch.setattr(sobolev, "_box_geometry", no_box)
        code = run_cli(["multiplier-check", "--dims", "3",
                        "--output", str(tmp_path)])
        assert code == 64
        assert "refusing to run" in capsys.readouterr().err

    @pytest.mark.parametrize("dims,samples", [(1, 2048), (2, 1024)])
    def test_box_estimate_covers_the_multiplier_check_peak(self, dims,
                                                           samples):
        assert sobolev.box_samples(dims) == samples
        cfg = RunConfig(alpha=(0.5,) * dims, dims=dims)
        sym = parse_symbol(cfg.symbol, dims)
        sobolev._windowed_box.cache_clear()  # the peak includes its build
        tracemalloc.start()
        try:
            cli.suite_multiplier_check(cfg, sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cli._estimate_box_bytes(dims)

    @pytest.mark.parametrize("suite,fits", [("transform-selftest", True),
                                            ("lp-probe", True),
                                            ("heat-selftest", False)])
    def test_memory_gate_budgets_the_requested_suite(self, suite, fits,
                                                     monkeypatch):
        # 10,000 nodes at d = 1: two kernel matrices are 1.6 GB, but
        # heat-selftest's three would be 2.4 GB
        def no_grid(*a, **k):
            raise AssertionError("Grid.build called")

        monkeypatch.setattr(Grid, "build", staticmethod(no_grid))
        cfg = RunConfig(alpha=(0.5,), dims=1, n=10000, R=14.0)
        assert axis_size(cfg.n) == 10000
        if fits:
            cli._check_config(cfg, [suite])
        else:
            with pytest.raises(ValueError, match=f"refusing to run {suite}"):
                cli._check_config(cfg, [suite])

    def test_failing_suite_returns_one(self, tmp_path):
        # declared-bound violation inside lp-probe => fail verdict
        code = run_cli(["multiplier-check", "--symbol", "divergent",
                        "--jmin", "-8", "--jmax", "0",
                        "--output", str(tmp_path)])
        assert code == 1

    def test_zero_multiplier_gets_a_verdict(self, tmp_path, capsys):
        # q_sharp / q_base is 0 / 0 for the zero multiplier
        code = run_cli(["lp-probe", "--symbol", "const{value=0}",
                        "--n", "256", "--R", "12", "--output", str(tmp_path)])
        assert "suite error" not in capsys.readouterr().err
        assert code == 0
        assert "PASS           weak_11_probe" in \
            (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize("argv", [
        ["transform-selftest", "--alpha=-0.2"],
        ["heat-selftest", "--alpha=-0.3"],
        ["cz-check", "--alpha", "-0.3"],
    ], ids=lambda argv: argv[0])
    def test_alpha_below_zero_gets_a_report(self, argv, tmp_path, capsys):
        # every alpha_k > -1/2 runs: the kernel order alpha_k - 1/2 < -1/2
        code = run_cli(argv + ["--output", str(tmp_path)])
        assert "suite error" not in capsys.readouterr().err
        assert code == 0
        data = json.loads((tmp_path / f"report-{argv[0]}.json").read_text())
        assert {r["verdict"] for r in data["reports"]} == {"pass"}

    def test_suite_all_runs_multiple(self, tmp_path):
        code = run_cli(["suite", "transform-selftest,heat-selftest",
                        "--output", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report-transform-selftest.json").exists()
        assert (tmp_path / "report-heat-selftest.json").exists()
        summary = (tmp_path / "summary.txt").read_text()
        assert "transform_selftest" in summary
        assert "heat_selftest" in summary

    def test_summary_stamps_each_line_with_its_reports_hash(self, tmp_path):
        suites = ["transform-selftest", "heat-selftest"]
        # the n = 128 transform selftest fails; only the stamps matter here
        code = run_cli(["suite", ",".join(suites), "--n", "128", "--R", "14",
                        "--output", str(tmp_path)])
        assert code in (0, 1)
        want = []
        for suite in suites:
            data = json.loads((tmp_path / f"report-{suite}.json").read_text())
            want += [(r["name"], data["config_hash"]) for r in data["reports"]]
        assert len({h for _, h in want}) == 2
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        got = [(line.split()[1], line.split()[-1]) for line in lines[1:]]
        assert got == want


def _dense_transform_selftest(cfg, plan):
    """transform-selftest's measurements by the dense route: each Gaussian
    sampled on the whole grid and transformed as one value tensor."""
    grid = plan.grid
    rng = np.random.default_rng(cfg.seed)
    out = []
    for i in range(8):
        c = rng.uniform(cfg.R / 8, cfg.R / 3, size=cfg.dims)
        w = rng.uniform(0.8, 2.0)
        f = grid.sample(lambda *xs: np.exp(
            -np.sum(((np.stack(xs, axis=-1) - c) / w) ** 2, axis=-1)))
        g = hankel_transform(plan, f)
        back = inverse_hankel(plan, g)
        out += [(f"plancherel_dev@f{i}",
                 abs(norm(g, 2.0) / norm(f, 2.0) - 1.0)),
                (f"inversion_err@f{i}", norm(back - f, 2.0) / norm(f, 2.0))]
    return out


def _dense_heat_selftest(cfg, plan):
    """heat-selftest's route deviations by the dense route: the kernel
    applied to the whole grid's values, the Gaussian multiplier on the
    whole dual grid, compared on the interior mask."""
    grid = plan.grid
    hk = HeatKernelEval(MultiIndex(cfg.alpha))
    mesh = np.stack(grid.meshgrid(), axis=-1)
    f = grid.sample(lambda *xs: np.exp(
        -np.sum((np.stack(xs, axis=-1) - 2.0) ** 2, axis=-1)))
    spec = hankel_transform(plan, f)
    lam2 = plan.dual_grid.squared_mesh().sum(axis=-1)
    out = []
    for t in cli.HEAT_TIMES:
        kern = heat_apply(hk, t, f).values
        spect = inverse_hankel(plan, GridFunction(
            plan.dual_grid, spec.values * np.exp(-t * lam2))).values
        interior = np.all(mesh < cfg.R - cli.HEAT_MARGIN * np.sqrt(t),
                          axis=-1)
        out.append((f"route_deviation@t={t}",
                    float(np.max(np.abs((kern - spect)[interior])))))
    return out


def _dense_lp_probe(cfg, plan):
    """lp-probe's ratios by the dense route: each battery function formed
    on the whole grid, and T_m applied to it as one value tensor."""
    mvals = _symbol_values(plan.dual_grid, parse_symbol(cfg.symbol, cfg.dims))
    functions = battery_functions(plan.grid, make_battery(plan, cfg.seed))
    return [(f"ratio@f{i}", norm(apply_multiplier(plan, mvals, f), cfg.p)
             / norm(f, cfg.p)) for i, f in zip(range(8), functions)]


class TestSelfTestRoutes:
    """The self-tests and the L^p probe transform their product inputs axis
    by axis."""

    @staticmethod
    def _small_grids(monkeypatch, keep):
        build = Grid.build

        def small(*a, **k):
            grid = build(*a, **k)
            return grid if keep is None else grid.restrict(
                [np.linspace(0, ax.n - 1, keep).astype(int)
                 for ax in grid.axes])

        monkeypatch.setattr(Grid, "build", staticmethod(small))

    @pytest.mark.parametrize("suite", ["transform-selftest", "heat-selftest"])
    def test_no_contraction_takes_more_than_one_grid_axis(self, suite,
                                                          monkeypatch):
        ndims = []
        for mod in (cli, transform, heat):
            if hasattr(mod, "_contract"):
                def recording(mats, values, _inner=mod._contract):
                    ndims.append(len(mats))
                    return _inner(mats, values)

                monkeypatch.setattr(mod, "_contract", recording)
        cfg = RunConfig(alpha=(0.5, 1.3), dims=2, n=64, R=14.0)
        _SUITE_FNS[suite](cfg, parse_symbol(cfg.symbol, cfg.dims))
        assert ndims and set(ndims) == {1}

    @pytest.mark.parametrize("suite,dense", [
        ("transform-selftest", _dense_transform_selftest),
        ("heat-selftest", _dense_heat_selftest),
        ("lp-probe", _dense_lp_probe)])
    @pytest.mark.parametrize("dims,keep", [(1, None), (2, None), (3, 32)],
                             ids=["d1", "d2", "d3"])
    def test_measurements_match_the_dense_route(self, suite, dense, dims,
                                                keep, monkeypatch):
        # the d = 3 grid keeps 32 of the 160 nodes per axis
        self._small_grids(monkeypatch, keep)
        cfg = RunConfig(alpha=(0.5, 1.3, 0.0)[:dims], dims=dims, n=64,
                        R=14.0, seed=1001)
        got = _SUITE_FNS[suite](cfg, parse_symbol(cfg.symbol, dims))[0]
        plan = TransformPlan.build(Grid.build(cfg.alpha, R=cfg.R, n=cfg.n))
        want = dense(cfg, plan)
        assert [name for name, _ in got.measurements] == \
            [name for name, _ in want]
        for (name, g), (_, w) in zip(got.measurements, want):
            assert abs(g - w) <= 1e-15 + 1e-12 * abs(w), name
