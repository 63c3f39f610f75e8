"""Record the reference outputs that perfbench/run.py checks against.

    python3 perfbench/record_reference.py COMMIT [WORKLOAD ...]

Runs every invocation of each workload once per CLI seed and stores its
exit code, verdicts, measurements and fitted constants in
perfbench/reference/<workload>.json.  Run it only on the commit whose
behaviour is the reference (COMMIT names it in the file), never to make
a failing benchmark pass.
"""

import json
import shutil
import sys
import time

import run


def record(workload, commit):
    seeds = {}
    for k, s in enumerate(run.CLI_SEEDS):  # benchmark seed k selects s
        records = run.run_pass(workload, k, "run", f"record{k}",
                               time.monotonic() + 600.0)
        for rec in records:
            if rec["error"] is not None:
                raise SystemExit(f"{workload} seed {s}: {rec['error']}")
        seeds[str(s)] = [rec["outputs"] for rec in records]
        print(f"{workload} cli seed {s}: exits "
              f"{[r['exit'] for r in seeds[str(s)]]}", flush=True)
    payload = {"commit": commit, "rtol": run.RTOL, "atol": run.ATOL,
               "invocations": run.WORKLOADS[workload], "seeds": seeds}
    run.REFERENCE.mkdir(exist_ok=True)
    with open(run.REFERENCE / f"{workload}.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__)
    commit, workloads = argv[1], argv[2:] or sorted(run.WORKLOADS)
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    for workload in workloads:
        record(workload, commit)
    shutil.rmtree(run.WORK, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv)
