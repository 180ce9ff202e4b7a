"""fpsum needs numpy alone at run time: scipy is a test dependency.

Each test starts a fresh interpreter, since this one has scipy loaded.
"""

import datetime
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# sys.modules["scipy"] = None makes every scipy import raise ImportError
_RUN_COMMANDS = """
import json, sys
sys.modules["scipy"] = None
from fpsum.cli import main
out_dir, commands = sys.argv[1], json.loads(sys.argv[2])
codes = {name: main(argv + ["--out", f"{out_dir}/{name}.out"]) for name, argv in commands.items()}
print(json.dumps(codes))
"""

_LOADED_SCIPY = """
import json, sys
import fpsum, fpsum.cli
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def _python(code, *args):
    """Run ``code`` in a fresh interpreter; (its last stdout line as JSON, stderr)."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=600, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_import_loads_no_scipy():
    loaded, _ = _python(_LOADED_SCIPY)
    assert loaded == []


def test_every_command_runs_without_scipy(tmp_path):
    prices = tmp_path / "prices.csv"
    closes = 100.0 * np.exp(np.cumsum(np.random.default_rng(4).normal(0.0, 0.01, 300)))
    start = datetime.date(2020, 1, 1)
    prices.write_text("date,close\n" + "".join(
        f"{start + datetime.timedelta(days=i)},{p!r}\n" for i, p in enumerate(closes.tolist())
    ))
    commands = {
        "ml-eval": ["ml-eval", "--kappa", "0.5", "--grid", "-2:2:0.5"],
        "density-nml": ["density", "--dist", "nml", "--kappa", "0.5", "--grid", "-3:3:1"],
        "density-ml": ["density", "--dist", "ml", "--kappa", "0.5", "--grid", "0.5:3:0.5"],
        "pmf-fp": ["pmf", "--dist", "fp", "--nu", "2", "--kappa", "0.7", "--max", "10"],
        "pmf-comp": ["pmf", "--dist", "comp", "--lam", "3", "--eta", "1.5", "--max", "10"],
        "sample": ["sample", "--dist", "nml", "--kappa", "0.5", "--n", "1000", "--seed", "1"],
        "fit-demo": ["fit", "--demo"],
        "returns": ["returns", str(prices)],
        "mc-tables": ["mc-tables", "--kappa", "0.5", "--n", "200", "--reps", "20",
                      "--seed", "1"],
        "converge-fp": ["converge", "fp", "--kappa", "0.5", "--grid", "10,100",
                        "--draws", "2000", "--seed", "1"],
        "converge-comp": ["converge", "comp", "--eta", "1.5", "--grid", "10,100",
                          "--draws", "2000", "--seed", "1"],
    }
    codes, stderr = _python(_RUN_COMMANDS, str(tmp_path), json.dumps(commands))
    assert codes == {name: 0 for name in commands}, stderr
