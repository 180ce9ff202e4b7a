"""Self-test of the benchmark harness (not of fpsum).

    python3 bench/selftest.py

Runs every workload in smoke mode (tiny sizes), untraced and traced, and
checks that the result line has exactly the contract keys, that every
metric of BENCHMARK.json appears in it and in the printed report with its
unit, and that ``fail_ratio`` is printed.  Then checks that an injected
failing operation is counted without aborting the run, and that it makes
``correct`` false although it names a known defect (its error is not that
defect's).  Last, it checks that the benchmark exits non-zero, printing
no result, in a directory holding only BENCHMARK.json and bench/.  Exits 0
when every check passes.
"""

import json
import shutil
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def run_bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines, err = run_bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                                    "--trace", trace, "--smoke"])
            label = f"{workload} trace {trace}"
            check(code == 0, f"{label}: exit code {code} {err[-300:]}", failures)
            if code != 0:
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}", failures)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{label}: metric names and units match BENCHMARK.json", failures)
            report = "\n".join(lines[:-1])
            printed = all(f"{name} " in report and f" {unit}" in report
                          for name, unit in want.items())
            check(printed and "fail_ratio" in report,
                  f"{label}: report prints every metric with its unit and fail_ratio", failures)
            check(result["attempted"] >= 1 and result["correct"],
                  f"{label}: {result['attempted']} ops, correct={result['correct']}", failures)

    code, lines, err = run_bench(["--workload", "tabulate", "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--smoke", "--inject-failure"])
    check(code == 0, f"injected failure: run completes (exit {code})", failures)
    if code == 0:
        result = json.loads(lines[-1])
        fail_line = next(line for line in lines if line.strip().startswith("fail_ratio"))
        check(result["failed"] >= 1 and not result["correct"]
              and result["metrics"]["ok_ratio"]["value"] < 1.0
              and float(fail_line.split()[1]) > 0,
              f"injected failure: counted ({result['failed']} failed, {fail_line.strip()})",
              failures)

    stripped = BENCH / ".work" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH, stripped / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        code, lines, err = run_bench(["--workload", "mc_table", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=stripped)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          f"without the program: exit code {code}, no result line", failures)

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
