"""One hankellab CLI invocation in a fresh interpreter, timed from inside.

    python3 perfbench/child.py SRC RESULT INVOCATION MODE -- CLI-ARGS...

MODE is ``run`` (time ``cli.main``), ``trace`` (the same with spans around
every layer entry point) or ``probe`` (stop after config parsing, to time
set-up).  The parent fixes the BLAS thread count in the environment before
this interpreter starts, so it is in effect before numpy is imported.  The
result goes to the JSON file RESULT; the CLI's own output is left alone.
"""

import json
import os
import resource
import sys
import time


def blas_threads():
    """Thread count reported by each OpenBLAS copy loaded in this process."""
    import ctypes
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = fn()
                break
    return found


def host_record():
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_effect": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv):
    src, result_path, invocation, mode = argv[1:5]
    if argv[5] != "--":
        raise SystemExit("usage: child.py SRC RESULT INVOCATION MODE -- ARGS")
    cli_args = argv[6:]
    sys.path.insert(0, src)
    import hankellab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"hankellab imported from {cli.__file__}, not {src}")
    out = {"invocation": invocation, "mode": mode}
    main_fn = cli.main
    tracer = None
    if mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(invocation)
        main_fn = tracer_mod.install(tracer)
    t0 = time.perf_counter()
    out["exit"] = main_fn(cli_args)
    out["wall_s"] = time.perf_counter() - t0
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # spawn time from this to get the set-up time of a probe
    out["t_done"] = time.monotonic()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["host"] = host_record()
    if tracer is not None:
        out["spans"] = [s.to_list() for s in tracer.spans]
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv)
