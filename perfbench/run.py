"""End-to-end benchmark of the hankellab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each CLI invocation runs in a fresh
interpreter (perfbench/child.py) that imports the package from ``src/``, so
no plan or lru cache carries from one invocation to the next.  One parent
process sends the invocations in a closed loop, one at a time.  Every
invocation's exit code, verdicts and report numbers are compared with the
reference recorded at the seed commit (perfbench/reference/).

With ``--trace 0`` the run prints the end-to-end metrics: ``wall_s`` (one
pass of the workload, timed inside each process around ``cli.main`` and
summed), ``setup_s`` (interpreter start, imports and config parsing) and
``peak_rss_mb``.  With ``--trace 1`` it runs one untraced and one traced
pass and prints the per-layer metrics.  The last line of standard output is
the JSON result; the line before it holds the samples and the host record.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-run"
REFERENCE = HERE / "reference"

# Single-threaded BLAS: the plain baseline run of the problem, and steady
# on a shared host.  It is set before the child interpreter starts.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")

_GRID_SUITES = "transform-selftest,heat-selftest,lp-probe,multiplier-check"
WORKLOADS = {
    "atom-sweep": [["h1-check"]],
    "cz-sweep": [["cz-check", "--alpha", "1.3"], ["cz-check"]],
    "grid-suites": [["suite", _GRID_SUITES],
                    ["suite", _GRID_SUITES, "--alpha", "0.5,1.3",
                     "--n", "512"]],
}
# The benchmark seed picks one of these CLI seeds, for which the reference
# outputs were recorded; only the grid suites draw random inputs from it.
CLI_SEEDS = tuple(range(1001, 1009))
SETUP_PROBES = 9
DEADLINE_S = 170.0
# An invocation fails when a number differs from the reference by more
# than RTOL * |reference| + ATOL.  ATOL covers measurements that are at
# round-off level (deviations of 1e-13 and below), whose digits change
# with any reordering of the arithmetic.
RTOL = 1e-6
ATOL = 1e-9


def cli_seed(seed):
    return CLI_SEEDS[seed % len(CLI_SEEDS)]


def invocation_argv(argv, seed, outdir):
    return list(argv) + ["--seed", str(cli_seed(seed)), "--output", str(outdir)]


def child_env():
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode, argv, inv_id, result_path, deadline):
    """Run one child; return (its result dict or None, spawn time, error)."""
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
           inv_id, mode, "--"] + argv
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, t_spawn, "timed out"
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, t_spawn, f"child exit {proc.returncode}: {tail}"
    with open(result_path) as fh:
        return json.load(fh), t_spawn, None


# ---------------------------------------------------------------------------
# outputs and the reference

def read_outputs(exit_code, outdir):
    """Exit code plus, per report file, each report's verdict and numbers."""
    reports = {}
    for path in sorted(Path(outdir).glob("report-*.json")):
        with open(path) as fh:
            payload = json.load(fh)
        suite = path.name[len("report-"):-len(".json")]
        reports[suite] = [
            {"name": r["name"], "verdict": r["verdict"],
             "measurements": r["measurements"],
             "fitted_constants": r["fitted_constants"]}
            for r in payload["reports"]
        ]
    return {"exit": exit_code, "reports": reports}


def _close(got, ref):
    if got == ref:
        return True
    if not (isinstance(got, (int, float)) and isinstance(ref, (int, float))):
        return False
    if got != got and ref != ref:  # both NaN
        return True
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def compare(got, ref):
    """List of differences between an invocation's outputs and the
    reference; empty when they agree within tolerance."""
    diffs = []
    if got["exit"] != ref["exit"]:
        diffs.append(f"exit {got['exit']} != {ref['exit']}")
    if sorted(got["reports"]) != sorted(ref["reports"]):
        return diffs + [f"report files {sorted(got['reports'])} != "
                        f"{sorted(ref['reports'])}"]
    for suite, ref_reps in ref["reports"].items():
        got_reps = got["reports"][suite]
        if [r["name"] for r in got_reps] != [r["name"] for r in ref_reps]:
            diffs.append(f"{suite}: report names differ")
            continue
        for g, r in zip(got_reps, ref_reps):
            where = f"{suite}/{r['name']}"
            if g["verdict"] != r["verdict"]:
                diffs.append(f"{where}: verdict {g['verdict']} != {r['verdict']}")
            if [d for d, _ in g["measurements"]] != \
                    [d for d, _ in r["measurements"]]:
                diffs.append(f"{where}: measurement descriptors differ")
            else:
                for (d, gv), (_, rv) in zip(g["measurements"],
                                            r["measurements"]):
                    if not _close(gv, rv):
                        diffs.append(f"{where}: {d} = {gv!r}, reference {rv!r}")
            if sorted(g["fitted_constants"]) != sorted(r["fitted_constants"]):
                diffs.append(f"{where}: fitted constant names differ")
            else:
                for k, rv in r["fitted_constants"].items():
                    if not _close(g["fitted_constants"][k], rv):
                        diffs.append(f"{where}: {k} = "
                                     f"{g['fitted_constants'][k]!r}, "
                                     f"reference {rv!r}")
    return diffs


def load_reference(workload, seed):
    with open(REFERENCE / f"{workload}.json") as fh:
        return json.load(fh)["seeds"][str(cli_seed(seed))]


# ---------------------------------------------------------------------------
# passes

def run_pass(workload, seed, mode, tag, deadline):
    """One pass: the workload's invocations in order, each in a fresh
    process.  Returns one record per invocation."""
    records = []
    for i, argv in enumerate(WORKLOADS[workload]):
        inv_id = f"{workload}/{tag}/{i}"
        outdir = WORK / workload / str(i)
        shutil.rmtree(outdir, ignore_errors=True)
        full = invocation_argv(argv, seed, outdir.relative_to(ROOT))
        res, _, err = spawn(mode, full, inv_id, WORK / f"result-{i}.json",
                            deadline)
        rec = {"argv": argv, "result": res, "error": err}
        if res is not None:
            rec["outputs"] = read_outputs(res["exit"], outdir)
        records.append(rec)
        if err is not None:
            break
    return records


def setup_probe(workload, seed, k, deadline):
    """Set-up time of one CLI run: a fresh interpreter imports hankellab
    (with numpy and scipy) and parses the workload's options; asking for
    an unknown suite makes cli.main return 64 right after config parsing,
    before any suite is called."""
    first = WORKLOADS[workload][0]
    opts = first[2:] if first[0] == "suite" else first[1:]
    argv = invocation_argv(["suite", "setup-probe"] + opts, seed,
                           (WORK / "probe").relative_to(ROOT))
    res, t_spawn, err = spawn("probe", argv, f"{workload}/probe/{k}",
                              WORK / "probe.json", deadline)
    if err is None and res["exit"] != 64:
        err = f"probe exit {res['exit']}, expected 64"
    return (None if err else res["t_done"] - t_spawn), res, err


def check_pass(records, reference):
    """Count failed invocations of a pass against the reference."""
    failed, problems = 0, []
    for rec, ref in zip(records, reference):
        if rec["error"] is not None:
            diffs = [rec["error"]]
        else:
            diffs = compare(rec["outputs"], ref)
        if diffs:
            failed += 1
            problems.append({"argv": rec["argv"], "diffs": diffs[:10]})
    return failed, problems


def pass_wall(records):
    return sum(r["result"]["wall_s"] for r in records)


def pass_rss_mb(records):
    return max(r["result"]["maxrss_kb"] for r in records) / 1024.0


# ---------------------------------------------------------------------------
# statistics

def describe(samples):
    """Median, quartiles, the highest percentile with at least ten samples
    beyond it (nearest rank; None below 11 samples) and the count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        out["q1"], out["q3"] = q1, q3
    if n >= 11:
        p = int(100 * (n - 10) / n)
        out["p_high"] = {"percentile": p, "value": xs[max(0, -(-p * n // 100) - 1)]}
    else:
        out["p_high"] = None
    return out


def per_layer_metrics(traced, untraced_wall):
    """Per-layer metrics of one traced pass (list of invocation records)."""
    names, layers = {}, dict.fromkeys(tracer.LAYERS, 0.0)
    distinct_keys = steps_contracted = 0
    contract_busy = {1: 0.0, 2: 0.0}
    for rec in traced:
        spans = [tracer.Span.from_list(rec["result"]["invocation"], row)
                 for row in rec["result"]["spans"]]
        summ = tracer.summarize(spans)
        for name, st in summ["names"].items():
            acc = names.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0, "attrs": {}})
            for key in ("calls", "busy_s", "self_s"):
                acc[key] += st[key]
            for key, val in st["attrs"].items():
                acc["attrs"][key] = acc["attrs"].get(key, 0) + val
        for layer, val in summ["layers"].items():
            layers[layer] += val
        distinct_keys += len({json.dumps(s.attrs["key"]) for s in spans
                              if s.name == "verify.adapted_plan"})
        steps_contracted += tracer.children_named(
            spans, "verify._maximal_field", "transform._contract")
        for s in spans:
            if s.name == "transform._contract" and s.attrs["ndim"] in (1, 2):
                contract_busy[s.attrs["ndim"]] += s.end - s.start

    def st(name, key):
        return names.get(name, {}).get(key, 0)

    def attr(name, key):
        return names.get(name, {}).get("attrs", {}).get(key, 0)

    c = "transform._contract"
    m = {
        f"{c}.calls": st(c, "calls"),
        f"{c}.busy_s": st(c, "busy_s"),
        f"{c}.self_s": st(c, "self_s"),
        f"{c}.madds_computed": attr(c, "madds"),
        f"{c}.complex_frac": attr(c, "complex") / max(1, st(c, "calls")),
        f"{c}.d1.busy_s": contract_busy[1],
        f"{c}.d2.busy_s": contract_busy[2],
    }
    mf = "verify._maximal_field"
    m.update({
        f"{mf}.calls": st(mf, "calls"),
        f"{mf}.self_s": st(mf, "self_s"),
        f"{mf}.time_steps": attr(mf, "time_steps"),
        f"{mf}.time_steps_contracted": steps_contracted,
        "verify.adapted_plan.calls": st("verify.adapted_plan", "calls"),
        "verify.adapted_plan.distinct_keys": distinct_keys,
        "verify.adapted_plan.busy_s": st("verify.adapted_plan", "busy_s"),
    })
    pb = "transform.TransformPlan.build"
    m.update({
        f"{pb}.calls": st(pb, "calls"),
        f"{pb}.self_s": st(pb, "self_s"),
        f"{pb}.matrix_bytes_computed": attr(pb, "matrix_bytes"),
    })
    for name in ("specfun.e_kernel_axis", "specfun.inorm_scaled",
                 "symbols.Symbol.__call__"):
        m.update({f"{name}.calls": st(name, "calls"),
                  f"{name}.points": attr(name, "points"),
                  f"{name}.busy_s": st(name, "busy_s")})
    m["heat.HeatKernelEval.init.busy_s"] = st("heat.HeatKernelEval.init",
                                              "busy_s")
    for name, key in (("heat.heat_apply", "self_s"),
                      ("grid.Grid.build", "busy_s"),
                      ("dyadic.DyadicPartition.__call__", "busy_s"),
                      ("multiplier._symbol_values", "busy_s"),
                      ("multiplier.apply_multiplier", "self_s")):
        m.update({f"{name}.calls": st(name, "calls"),
                  f"{name}.{key}": st(name, key)})
    sn = "sobolev.local_sobolev_norm"
    m.update({f"{sn}.calls": st(sn, "calls"),
              f"{sn}.fft_points_computed": attr(sn, "fft_points"),
              f"{sn}.self_s": st(sn, "self_s")})
    for suite in ("transform_selftest", "heat_selftest", "multiplier_check",
                  "cz_check", "h1_check", "lp_probe"):
        m[f"cli.suite_{suite}.busy_s"] = st(f"cli.suite_{suite}", "busy_s")
    wa = "cli._write_artifacts"
    m.update({f"{wa}.calls": st(wa, "calls"), f"{wa}.busy_s": st(wa, "busy_s"),
              f"{wa}.bytes": attr(wa, "bytes")})
    for layer in tracer.LAYERS:
        m[f"layer.{layer}.self_s"] = layers[layer]
    m["trace.spans"] = sum(v["calls"] for v in names.values())
    m["trace.overhead_frac"] = pass_wall(traced) / untraced_wall - 1.0
    return m


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "points": "count",
         "madds_computed": "madd", "complex_frac": "frac",
         "time_steps": "count", "time_steps_contracted": "count",
         "distinct_keys": "count", "matrix_bytes_computed": "B",
         "fft_points_computed": "count", "bytes": "B", "spans": "count",
         "overhead_frac": "frac"}


def unit_of(metric):
    return UNITS[metric.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Tally:
    """Invocations attempted and failed against the reference, and the
    last host record seen."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = 0
        self.problems = []
        self.host = None

    def add(self, records):
        """Check one pass; True when every invocation matched."""
        n_failed, problems = check_pass(records, self.reference)
        self.attempted += len(records)
        self.failed += n_failed
        self.problems += problems
        for rec in records:
            if rec["result"] is not None:
                self.host = rec["result"]["host"]
        return n_failed == 0


def probe_setup(args, tally, deadline, ks, setups):
    """Run set-up probes number ks, appending their times to setups."""
    for k in ks:
        dt, res, err = setup_probe(args.workload, args.seed, k, deadline)
        if err is not None:
            tally.attempted += 1
            tally.failed += 1
            tally.problems.append({"probe": k, "diffs": [err]})
            return False
        setups.append(dt)
        tally.host = res["host"]
    return True


def measure(args, tally, deadline, detail):
    """Whole passes while another fits in the window, with the set-up probes
    split before and after them so that they sample the whole run.  Returns
    the end-to-end metrics, or {} when an invocation failed."""
    setups, before = [], range(SETUP_PROBES // 2 + 1)
    if not probe_setup(args, tally, deadline, before, setups):
        return {}
    walls, rss, inv_walls = [], [], []
    t_measure = time.monotonic()
    while True:
        t_pass = time.monotonic()
        records = run_pass(args.workload, args.seed, "run",
                           f"pass{len(walls)}", deadline)
        if not tally.add(records):
            return {}
        walls.append(pass_wall(records))
        rss.append(pass_rss_mb(records))
        inv_walls += [r["result"]["wall_s"] for r in records]
        now = time.monotonic()
        if now - t_measure + (now - t_pass) > args.seconds:
            break
    if not probe_setup(args, tally, deadline,
                       range(len(before), SETUP_PROBES), setups):
        return {}
    detail.update({"wall_s": describe(walls),
                   "invocation_wall_s": describe(inv_walls),
                   "setup_s": describe(setups), "peak_rss_mb_per_pass": rss})
    return {"wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups), "peak_rss_mb": max(rss)}


def measure_traced(args, tally, deadline, detail):
    """One untraced pass, for the tracing overhead, then one traced pass.
    Returns the per-layer metrics, or {} when an invocation failed."""
    untraced = run_pass(args.workload, args.seed, "run", "untraced", deadline)
    if not tally.add(untraced):
        return {}
    traced = run_pass(args.workload, args.seed, "trace", "traced", deadline)
    if not tally.add(traced):
        return {}
    detail["wall_s_untraced"] = pass_wall(untraced)
    detail["wall_s_traced"] = pass_wall(traced)
    return per_layer_metrics(traced, pass_wall(untraced))


def main(argv=None):
    args = parse_args(argv)
    t_start = time.monotonic()
    if not (SRC / "hankellab" / "cli.py").is_file():
        print(f"perfbench: no hankellab sources under {SRC}", file=sys.stderr)
        return 2
    tally = Tally(load_reference(args.workload, args.seed))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    detail = {"workload": args.workload, "seed": args.seed,
              "cli_seed": cli_seed(args.seed), "trace": args.trace,
              "blas_threads_requested": int(BLAS_THREADS)}
    if args.trace:
        metrics = measure_traced(args, tally, t_start + DEADLINE_S, detail)
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = measure(args, tally, t_start + DEADLINE_S, detail)
        units = E2E_UNITS
    detail.update({"failed_frac": tally.failed / tally.attempted,
                   "problems": tally.problems, "host": tally.host,
                   "elapsed_s": time.monotonic() - t_start})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
