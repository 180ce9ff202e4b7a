"""fpsum benchmark: one workload (or all), end-to-end or traced.

    python3 bench/run.py --workload mc_table --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each pass of a workload runs in a fresh interpreter (bench/worker.py): one
client, closed loop, ops back to back.  Passes repeat with the same seed
until ``--seconds`` is used up; extra set-up-only interpreters are started
until at least ``MIN_SETUPS`` set-ups were timed.  The end-to-end timings
are medians over the run, scaled to a nominal host speed by the reference
kernels of calibrate.py.  With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced and it holds the
per-layer metrics.  Every metric is also printed by name with its unit, and
a result file with provenance goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# workloads.py imports fpsum: take it from the checkout's own src/
sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402

import calibrate  # noqa: E402

MIN_SETUPS = 11
PASS_TIMEOUT_S = 150.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

LAYER_UNITS = {
    "estimation.self_s": "s",
    "estimation.fits": "count",
    "estimation.h_calls_per_fit": "count",
    "estimation.h_inverse_calls_per_fit": "count",
    "estimation.interior_ratio": "1",
    "distributions.self_s": "s",
    "distributions.eval_points": "count",
    "distributions.cache_misses": "count",
    "distributions.draws": "count",
    "distributions.errors": "count",
    "distributions.calls": "count",
    "special_functions.self_s": "s",
    "special_functions.calls": "count",
    "special_functions.points": "count",
    "special_functions.cache_misses": "count",
    "random_sums.self_s": "s",
    "random_sums.calls": "count",
    "random_sums.ks_points": "count",
    "random_sums.cache_misses": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.errors": "count",
    "cli.calls": "count",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.glue_s": "s",
    "trace.overhead_ratio": "1",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not an op failure)."""


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(workload, seed, workdir, *, traced=False, setup_only=False,
               smoke=False, inject=False) -> dict:
    """Start one worker, time its set-up, collect its pass and peak RSS."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    cmd += [flag for flag, on in (("--traced", traced), ("--setup-only", setup_only),
                                  ("--smoke", smoke), ("--inject-failure", inject)) if on]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    # own process group, so that a timeout also stops the cli children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    timer = threading.Timer(PASS_TIMEOUT_S, _kill_group, (proc,))
    timer.start()
    try:
        ready = json.loads(proc.stdout.readline() or "null")
        setup_s = time.perf_counter() - start
        done = json.loads(proc.stdout.readline() or "null")
        proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        _kill_group(proc)
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or done is None:
        raise HarnessError(f"worker {' '.join(cmd[1:])} exited with {proc.returncode}")
    return {"setup_s": setup_s, "import_s": ready["import_s"], "done": done,
            "rss_kb": usage.ru_maxrss}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(done: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    trace = done["trace"]
    s = trace["summary"]
    fn = s["fn_calls"]
    fits = fn.get("estimation.mm_fit", 0)

    def per_fit(count):
        return count / fits if fits else 0.0

    self_total = sum(s["self_s"].values())
    return {
        "estimation.self_s": s["self_s"]["estimation"],
        "estimation.fits": fits,
        "estimation.h_calls_per_fit": per_fit(fn.get("estimation.h", 0)),
        "estimation.h_inverse_calls_per_fit": per_fit(fn.get("estimation.h_inverse", 0)),
        "estimation.interior_ratio": per_fit(s["interior_fits"]),
        "distributions.self_s": s["self_s"]["distributions"],
        "distributions.eval_points": s["points"]["distributions"],
        "distributions.cache_misses": s["cache_misses"]["distributions"],
        "distributions.draws": s["draws"],
        "distributions.errors": s["errors"]["distributions"],
        "distributions.calls": s["calls"]["distributions"],
        "special_functions.self_s": s["self_s"]["special_functions"],
        "special_functions.calls": s["calls"]["special_functions"],
        "special_functions.points": s["points"]["special_functions"],
        "special_functions.cache_misses": s["cache_misses"]["special_functions"],
        "random_sums.self_s": s["self_s"]["random_sums"],
        "random_sums.calls": s["calls"]["random_sums"],
        "random_sums.ks_points": s["ks_points"],
        "random_sums.cache_misses": s["cache_misses"]["random_sums"],
        "cli.self_s": s["self_s"]["cli"],
        "cli.bytes_out": done.get("bytes_out", 0),
        "cli.errors": s["errors"]["cli"] + done.get("command_errors", 0),
        "cli.calls": s["calls"]["cli"],
        "cli.import_s": statistics.median(trace["import_s"]),
        "trace.wall_s": done["wall_s"],
        "trace.glue_s": done["wall_s"] - self_total,
    }


def summarize(workload, passes, setups, cals, trace) -> dict:
    plain = [p["done"] for p in passes if "trace" not in p["done"]]
    traced = [p["done"] for p in passes if "trace" in p["done"]]
    ops = [op for p in passes for op in p["done"]["ops"]]
    failed = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failed if not op["known_defect"]]
    rss_kb = [p["done"].get("child_peak_rss_kb", p["rss_kb"]) for p in passes
              if "trace" not in p["done"]]
    unscaled = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(d["wall_s"] for d in plain),
        "op_p50_s": statistics.median(op["seconds"] for d in plain for op in d["ops"]),
    }
    host_scale = calibrate.scale(cals)
    e2e = {
        **{name: value * host_scale for name, value in unscaled.items()},
        "peak_rss_mb": statistics.median(rss_kb) / 1024.0,
        "ok_ratio": 1.0 - len(failed) / len(ops),
    }
    out = {
        "workload": workload,
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(ops),
        "ops_per_pass": len(passes[0]["done"]["ops"]),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setups": len(setups),
        "host_scale": host_scale,
        "end_to_end": e2e,
        "unscaled": unscaled,
        "failures": sorted({(op["name"], op["error"], op["known_defect"]) for op in failed}),
    }
    if trace:
        per_pass = [layer_metrics(d) for d in traced]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in LAYER_UNITS
                  if name != "trace.overhead_ratio"}
        layers["trace.overhead_ratio"] = (
            statistics.median(d["wall_s"] for d in traced) / unscaled["wall_s"])
        out["per_layer"] = layers
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, smoke=False, inject=False) -> dict:
    workdir = BENCH / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        passes, start = [], time.perf_counter()
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            passes.append(run_worker(workload, seed, workdir, traced=traced,
                                     smoke=smoke, inject=inject))
            elapsed = time.perf_counter() - start
            typical = elapsed / len(passes)
            if len(passes) >= (2 if trace else 1) and elapsed + typical > seconds:
                break
        setups = [p["setup_s"] for p in passes]
        cals = [c for p in passes for c in p["done"]["cals"]]
        while len(setups) < MIN_SETUPS:
            extra = run_worker(workload, seed, workdir, setup_only=True, smoke=smoke)
            setups.append(extra["setup_s"])
            cals += extra["done"]["cals"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = summarize(workload, passes, setups, cals, trace)
    spans = [p["done"]["trace"].pop("spans") for p in passes if "trace" in p["done"]]
    result["provenance"] = provenance(workload, seed, seconds, trace, smoke,
                                      passes[0]["done"]["env"], result["ops_per_pass"])
    result["raw"] = {"setups_s": setups, "cals": cals, "passes": [p["done"] for p in passes],
                     "rss_kb": [p["rss_kb"] for p in passes]}
    write_results(result, spans)
    return result


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, seconds, trace, smoke, env, ops_per_pass) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        **env,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "ops_per_pass": ops_per_pass,
        "jsonschema": metadata.version("jsonschema"),
    }


def write_results(result, spans) -> None:
    RESULTS.mkdir(exist_ok=True)
    p = result["provenance"]
    stem = f"{p['workload']}-seed{p['seed']}-trace{p['trace']}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    if spans:
        with open(RESULTS / f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump({"columns": ["layer", "function", "start", "end", "parent"],
                       "passes": spans}, handle)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def print_report(result) -> None:
    p = result["provenance"]
    print(f"# {result['workload']}: seed {p['seed']}, {result['passes']} untraced and "
          f"{result['traced_passes']} traced passes of {result['ops_per_pass']} ops, "
          f"{result['setups']} set-ups; {result['attempted']} ops attempted")
    print(f"  host_scale{'':<26} {result['host_scale']:.6g} 1"
          f"  (timings below are scaled by it; unscaled: "
          + ", ".join(f"{k} {v:.6g} s" for k, v in result["unscaled"].items()) + ")")
    print(f"  fail_ratio{'':<26} {result['fail_ratio']:.6g} 1"
          f"  ({result['failed']} of {result['attempted']} failed)")
    for name, error, known in result["failures"]:
        tag = f" [known defect: {known}]" if known else ""
        print(f"    failed {name}: {error}{tag}")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<36} {value:.6g} {E2E_UNITS[name]}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<36} {value:.6g} {LAYER_UNITS[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="append an op that always fails its check (self-test)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, args.trace,
                                args.smoke, args.inject_failure) for name in names]
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_report(result)
    key = "per_layer" if args.trace else "end_to_end"
    units = LAYER_UNITS if args.trace else E2E_UNITS
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units[name]}
            for r in results for name, value in r[key].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
