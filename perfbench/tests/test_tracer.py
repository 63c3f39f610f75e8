"""Tests of the benchmark's tracer, correctness gate and metric names.

    python3 -m pytest -q perfbench/tests

The end-to-end tests run two cheap CLI invocations (the d=1 grid suites and
cz-check at alpha=0.5) in child processes, about 20 s in all.
"""

import filecmp
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import tracer  # noqa: E402

INVOCATIONS = [["suite", "transform-selftest,heat-selftest,lp-probe,"
                "multiplier-check"], ["cz-check"]]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_synthetic_tree():
    clock = FakeClock()
    tr = tracer.Tracer("inv-1", clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle(depth):
        clock.advance(1.0)
        if depth:
            mid(depth - 1)  # recursion: busy time must not count twice
        wleaf()
        clock.advance(0.5)

    wleaf = tr.wrap("specfun.leaf", leaf)
    mid = tr.wrap("transform.middle", middle)
    root = tr.wrap("cli.main", lambda: (clock.advance(3.0), mid(1),
                                        wleaf(), clock.advance(0.25)))
    root()

    assert [s.name for s in tr.spans] == [
        "cli.main", "transform.middle", "transform.middle", "specfun.leaf",
        "specfun.leaf", "specfun.leaf"]
    assert {s.invocation for s in tr.spans} == {"inv-1"}
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 2, 1, 0]

    summ = tracer.summarize(tr.spans)
    names = summ["names"]
    # middle(1) = 1 + [middle(0) = 1 + 2 + 0.5] + 2 + 0.5 = 7
    assert names["transform.middle"]["calls"] == 2
    assert names["transform.middle"]["busy_s"] == pytest.approx(7.0)
    assert names["transform.middle"]["self_s"] == pytest.approx(3.0)
    assert names["specfun.leaf"]["calls"] == 3
    assert names["specfun.leaf"]["busy_s"] == pytest.approx(6.0)
    assert names["specfun.leaf"]["self_s"] == pytest.approx(6.0)
    assert names["cli.main"]["busy_s"] == pytest.approx(3.0 + 7.0 + 2.0 + 0.25)
    assert names["cli.main"]["self_s"] == pytest.approx(3.25)
    assert summ["layers"]["transform"] == pytest.approx(3.0)
    assert summ["layers"]["specfun"] == pytest.approx(6.0)
    assert summ["layers"]["cli"] == pytest.approx(3.25)
    assert sum(summ["layers"].values()) == pytest.approx(
        names["cli.main"]["busy_s"])
    assert tracer.children_named(tr.spans, "transform.middle",
                                 "specfun.leaf") == 2


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = tracer.Tracer("inv", clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("k")

    with pytest.raises(KeyError):
        tr.wrap("verify.boom", boom)()
    assert tr.spans[0].end - tr.spans[0].start == 1.0
    assert tr.wrap("verify.ok", lambda: 7)() == 7
    assert tr.spans[1].parent == -1


def test_install_rebinds_every_reference():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import hankellab.cli as cli, hankellab.transform as t\n"
        "import hankellab.verify as v, hankellab.multiplier as m\n"
        "import hankellab.symbols as s, hankellab, tracer\n"
        "orig = t._contract\n"
        "main = tracer.install(tracer.Tracer('x'))\n"
        "assert t._contract is not orig\n"
        "assert v._contract is m._contract is t._contract\n"
        "assert all(f.__wrapped__ for f in cli._SUITE_FNS.values())\n"
        "assert hankellab.TransformPlan.build.__wrapped__\n"
        "assert s.Symbol.__call__.__wrapped__\n"
        "assert cli.main is main\n"
    )
    subprocess.run([sys.executable, "-c", code, str(run.SRC), str(HERE.parent)],
                   check=True, timeout=120)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and two traced passes over INVOCATIONS.  Every pass
    writes to the same output path, because the report records it."""
    base = tmp_path_factory.mktemp("passes")
    out = {}
    for label, mode in (("untraced", "run"), ("traced1", "trace"),
                        ("traced2", "trace")):
        records = []
        for i, argv in enumerate(INVOCATIONS):
            outdir = base / "out" / str(i)
            shutil.rmtree(outdir, ignore_errors=True)
            full = argv + ["--seed", "1001", "--output", str(outdir)]
            res, _, err = run.spawn(mode, full, f"test/{label}/{i}",
                                    base / "result.json",
                                    time.monotonic() + 170.0)
            assert err is None, err
            shutil.copytree(outdir, base / label / str(i))
            records.append({"argv": argv, "result": res, "error": None})
        out[label] = records
    out["dir"] = base
    return out


def test_tracing_leaves_reports_byte_identical(passes):
    base = passes["dir"]
    for i in range(len(INVOCATIONS)):
        ref = base / "untraced" / str(i)
        names = sorted(p.name for p in ref.iterdir())
        assert any(n.startswith("report-") for n in names)
        for label in ("traced1", "traced2"):
            got = base / label / str(i)
            assert sorted(p.name for p in got.iterdir()) == names
            match, mismatch, errors = filecmp.cmpfiles(ref, got, names,
                                                       shallow=False)
            assert mismatch == [] and errors == []


COUNT_SUFFIXES = (".calls", ".points", ".madds_computed", ".complex_frac",
                  ".matrix_bytes_computed", ".fft_points_computed",
                  ".time_steps", ".time_steps_contracted", ".distinct_keys",
                  ".bytes", ".spans")


def test_computed_counts_repeat_exactly(passes):
    wall = run.pass_wall(passes["untraced"])
    m1 = run.per_layer_metrics(passes["traced1"], wall)
    m2 = run.per_layer_metrics(passes["traced2"], wall)
    counts = [k for k in m1 if k.endswith(COUNT_SUFFIXES)]
    assert len(counts) > 20
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    # the invocations do exercise the counted layers
    for k in ("transform._contract.madds_computed",
              "verify.adapted_plan.distinct_keys",
              "transform.TransformPlan.build.matrix_bytes_computed",
              "sobolev.local_sobolev_norm.fft_points_computed",
              "specfun.inorm_scaled.points", "cli._write_artifacts.bytes"):
        assert m1[k] > 0, k


def test_metric_names_match_benchmark_json(passes):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    m = run.per_layer_metrics(passes["traced1"], run.pass_wall(
        passes["untraced"]))
    declared = {x["name"]: x["unit"] for x in bench["per_layer"]}
    assert declared == {k: run.unit_of(k) for k in m}
    assert [x["name"] for x in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert [x["name"] for x in bench["workloads"]] == list(run.WORKLOADS)


def test_gate_flags_drift_and_verdict_changes():
    ref = {"exit": 1, "reports": {"s": [{
        "name": "r", "verdict": "fail", "measurements": [["a", 2.0],
                                                         ["tiny", 1e-14]],
        "fitted_constants": {"c": 5.0}}]}}
    same = json.loads(json.dumps(ref))
    same["reports"]["s"][0]["measurements"][0][1] = 2.0 * (1 + 1e-9)
    same["reports"]["s"][0]["measurements"][1][1] = 3e-14
    assert run.compare(same, ref) == []
    drift = json.loads(json.dumps(ref))
    drift["reports"]["s"][0]["fitted_constants"]["c"] = 5.0 * (1 + 1e-4)
    assert len(run.compare(drift, ref)) == 1
    flipped = json.loads(json.dumps(ref))
    flipped["exit"] = 0
    flipped["reports"]["s"][0]["verdict"] = "pass"
    assert len(run.compare(flipped, ref)) == 2


def test_describe_percentile_needs_ten_samples_beyond():
    assert run.describe([1.0] * 10)["p_high"] is None
    d = run.describe([float(x) for x in range(1, 21)])
    assert d["n"] == 20 and d["median"] == 10.5
    assert d["p_high"] == {"percentile": 50, "value": 10.0}
