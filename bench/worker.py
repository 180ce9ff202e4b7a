"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR
                            [--traced] [--smoke] [--inject-failure] [--setup-only]

Protocol on stdout, one JSON object a line: ``{"event": "ready", ...}`` once
``import fpsum`` is done and the inputs exist (run.py stops the set-up clock
there), then ``{"event": "done", ...}`` with the pass: the wall time of the
op loop, each op's latency and verdict, the calibration samples, and for a
traced pass the layer counters and spans.  The ops run back to back (a
closed loop with one client); their checks run after the loop, outside the
timing.  Before the first op, before each op that starts ``CAL_EVERY_S``
or more seconds after the last round, and once after the last op, the loop
times the reference kernels of calibrate.py; that time is not part of
``wall_s`` or of any op.
"""

import argparse
import json
import math
import os
import sys
import time

_start = time.perf_counter()
import fpsum  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import workloads  # noqa: E402

# measure the checkout's own source tree, never an installed copy
if workloads.ROOT / "src" not in workloads.Path(fpsum.__file__).resolve().parents:
    sys.exit(f"bench: fpsum imported from {fpsum.__file__}, not from {workloads.ROOT / 'src'}")
import calibrate  # noqa: E402
from tracing import Tracer, merge_summaries  # noqa: E402

# op time between two calibration rounds; a round takes about 0.06 s
CAL_EVERY_S = 1.0


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _environment() -> dict:
    """Library versions and BLAS threads as found in this process."""
    import ctypes
    import scipy

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
    return {
        "fpsum": fpsum.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed, args.smoke, args.workdir, args.traced)
    if args.inject_failure:
        ops.append(workloads.injected_failure())
    _emit({"event": "ready", "import_s": IMPORT_S})
    if args.setup_only:
        # one calibration round, so that the host scale also samples the
        # stretch of the run that the set-ups fill
        _emit({"event": "done", "cals": [calibrate.measure()]})
        return 0

    tracer = Tracer() if args.traced and args.workload != "cli" else None
    if tracer:
        tracer.install()
    outputs, latencies, cals = [], [], []
    cal_s = 0.0  # time spent calibrating, kept out of wall_s
    last_cal = -math.inf
    pass_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        if t0 - last_cal >= CAL_EVERY_S:
            cals.append(calibrate.measure())
            last_cal = time.perf_counter()
            cal_s += last_cal - t0
            t0 = last_cal
        try:
            outputs.append((op.run(), None))
        except Exception as exc:  # a failed op is counted, never fatal
            outputs.append((None, f"raised {type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - pass_start - cal_s
    cals.append(calibrate.measure())
    if tracer:
        tracer.restore()

    results = []
    for op, (output, error), seconds in zip(ops, outputs, latencies):
        if error is None:
            try:
                op.check(output)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"[:500]
        results.append({"name": op.name, "seconds": seconds, "ok": error is None,
                        "error": error,
                        "known_defect": op.known_defect if op.exempt(error) else None})

    done = {"event": "done", "wall_s": wall_s, "ops": results, "cals": cals,
            "env": _environment()}
    commands = [out for out, _ in outputs if isinstance(out, workloads.CommandResult)]
    if commands:
        done["child_peak_rss_kb"] = max(c.max_rss_kb for c in commands)
        done["bytes_out"] = sum(c.stdout.stat().st_size for c in commands)
        done["command_errors"] = sum(c.returncode != 0 for c in commands)
        for c in commands:
            c.stdout.unlink()
            c.stderr.unlink()
    if args.traced:
        if tracer:
            summary, spans, import_times = tracer.summary(), tracer.spans, [IMPORT_S]
        else:
            traces = [c.trace for c in commands if c.trace]
            summary = merge_summaries(t["summary"] for t in traces)
            spans = [span for t in traces for span in t["spans"]]
            import_times = [t["import_s"] for t in traces]
        done["trace"] = {"summary": summary, "import_s": import_times, "spans": spans}
    _emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
