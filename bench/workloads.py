"""The four benchmark workloads: inputs from a seed, operations, checks.

``build(name, seed, ...)`` is the set-up phase: it makes the inputs and
returns the list of ``Op``s that one timed pass runs in order.  Each op's
``run`` is timed; its ``check`` runs after the pass, outside the timing, and
raises ``CheckFailed`` (or anything else) when the output is wrong.

Library calls go through ``fpsum`` module attributes so that a traced pass
sees them (see tracing.py).
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fpsum
import fpsum.random_sums
import fpsum.special_functions

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE = ROOT / "tests" / "data" / "reference.json"
SCHEMA = ROOT / "src" / "fpsum" / "schemas" / "fpsum_output.schema.json"

class CheckFailed(Exception):
    """An operation's output broke a property it must have."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # a defect of the program this op is known to expose, and the start of
    # the error message that defect produces; a failure with that message
    # still counts, but does not make the run's ``correct`` flag false
    known_defect: str | None = None
    known_error: str | None = None

    def exempt(self, error: str | None) -> bool:
        """Whether ``error`` is this op's known defect and nothing else."""
        return bool(error and self.known_error and error.startswith(self.known_error))


def _seeds(seed: int, count: int) -> list[int]:
    """Independent 64-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


# ---------------------------------------------------------------------------
# mc_table: the paper's Table 1/2 harness
# ---------------------------------------------------------------------------

MC_REPS = 200

# mean kappa_hat of the paper's Table 1 at these (kappa, n) cells
TABLE1_KAPPA_MEANS = {
    (0.2, 200): 0.5138, (0.2, 2000): 0.3056,
    (0.5, 200): 0.5998, (0.5, 2000): 0.5102,
    (0.8, 200): 0.7690, (0.8, 2000): 0.8032,
}


def _check_table1_mean(want, got, se, replications, clamped_low, clamped_high) -> None:
    """Mean kappa_hat within the band test_table1_full_reproduction uses."""
    kept = replications - clamped_low - clamped_high
    band = max(0.02, 5.0 * se * math.sqrt(2.0 / kept))
    expect(abs(got - want) <= band, f"mean kappa {got:.4f} vs {want:.4f} (band {band:.4f})")


def _check_cell(want: float, cells) -> None:
    expect(len(cells) == 1, f"expected one cell, got {len(cells)}")
    cell = cells[0]
    _check_table1_mean(want, cell.mean_est["kappa"], cell.se_empirical["kappa"],
                       cell.replications, cell.clamped_low, cell.clamped_high)


def build_mc_table(seed, smoke, workdir, traced):
    reps = 10 if smoke else MC_REPS
    ops = []
    for base_seed, ((kappa, n), want) in zip(_seeds(seed, 6), TABLE1_KAPPA_MEANS.items()):
        config = fpsum.McExperimentConfig(
            kappa_grid=(kappa,), sample_sizes=(n,), replications=reps, base_seed=base_seed
        )
        ops.append(Op(f"cell-k{kappa}-n{n}",
                      partial(lambda c: fpsum.random_sums.run_mc_tables(c), config),
                      partial(_check_cell, want)))
    return ops


# ---------------------------------------------------------------------------
# weak_limit: KS sweeps toward the NML and normal limits
# ---------------------------------------------------------------------------

SWEEP_GRID = (10.0, 100.0, 1000.0, 10000.0)
SWEEP_DRAWS = 100_000
KS_LIMIT = 0.02  # acceptance criterion 8, at the largest rate

# normal-summand fp sweeps come first: each builds its kappa's cdf grid cold;
# the rademacher sweeps then reuse it
SWEEPS = (
    ("fp", "kappa", 0.3, "standard_normal"),
    ("fp", "kappa", 0.5, "standard_normal"),
    ("fp", "kappa", 0.8, "standard_normal"),
    ("fp", "kappa", 0.3, "rademacher"),
    ("fp", "kappa", 0.5, "rademacher"),
    ("comp", "eta", 0.75, "standard_normal"),
    ("comp", "eta", 1.5, "standard_normal"),
    ("comp", "eta", 2.0, "standard_normal"),
)


def _sweep(kind, param, value, summands, draws, seed):
    return fpsum.random_sums.convergence_sweep(
        kind, SWEEP_GRID, fpsum.SummandSpec(summands), draws,
        fpsum.RngStream(seed), **{param: value},
    )


def _check_sweep(report) -> None:
    d = np.asarray(report.distances)
    expect(d.size == len(SWEEP_GRID), "one distance per rate")
    expect(np.all((d >= 0) & (d <= 1)), "KS distances lie in [0, 1]")
    expect(d[-1] <= KS_LIMIT, f"KS {d[-1]:.4f} at the largest rate exceeds {KS_LIMIT}")


def build_weak_limit(seed, smoke, workdir, traced):
    sweeps = (SWEEPS[1], SWEEPS[-1]) if smoke else SWEEPS
    draws = 20_000 if smoke else SWEEP_DRAWS
    return [
        Op(f"{kind}-{param}{value}-{summands}",
           partial(_sweep, kind, param, value, summands, draws, s),
           _check_sweep)
        for s, (kind, param, value, summands) in zip(_seeds(seed, len(sweeps)), sweeps)
    ]


# ---------------------------------------------------------------------------
# tabulate: library users evaluating the laws directly
# ---------------------------------------------------------------------------

GRID_KAPPAS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def _ml(kappa, z):
    return fpsum.special_functions.mittag_leffler(kappa, z)


def _check_close(want, rtol, got) -> None:
    expect(abs(got - want) <= rtol * abs(want), f"{got!r} vs oracle {want!r} (rtol {rtol})")


def _check_ml_scalar(z, got) -> None:
    if z <= 0:
        expect(0.0 < got <= 1.0, f"E_k({z}) = {got!r} outside (0, 1]")
    else:
        expect(1.0 <= got < math.inf, f"E_k({z}) = {got!r} outside [1, inf)")


def _ml_grid(kappa):
    """Ascending z grid through every E_k branch: asymptotic, spectral (or its
    log-step form), series, positive series, mgf integral, positive asymptotic."""
    neg = -np.geomspace(1e3, 1e-3, 1500)
    pos = np.geomspace(1e-3, 500.0**kappa, 500)
    return np.concatenate((neg, [0.0], pos))


def _check_ml_grid(kappa, z, values) -> None:
    values = np.asarray(values)
    neg, pos = values[z <= 0], values[z >= 0]
    # exp(z) underflows to 0 below z ~ -745; E_k(-x) for kappa < 1 decays
    # only like 1/x and must stay positive
    low = neg > 0 if kappa < 1 else neg >= 0
    expect(np.all(low & (neg <= 1)), "E_k outside (0, 1] on the negative axis")
    expect(np.all(np.isfinite(pos) & (pos >= 1)), "E_k outside [1, inf) on the positive axis")
    expect(np.all(np.diff(values) >= 0), "E_k is not nondecreasing in z")


def _check_density(values) -> None:
    values = np.asarray(values)
    expect(np.all(np.isfinite(values)), "density has non-finite values")
    expect(np.all(values >= 0), f"density goes negative (min {values.min():.3e})")


def _check_pmf(values, total_close_to_one=False) -> None:
    values = np.asarray(values)
    expect(np.all((values >= 0) & (values <= 1)), "pmf outside [0, 1]")
    total = values.sum()
    expect(total <= 1 + 1e-9, f"pmf sums to {total!r} > 1")
    if total_close_to_one:
        expect(abs(total - 1) <= 1e-9, f"pmf over the whole support sums to {total!r}")


def _check_pgf(s, value) -> None:
    expect(abs(value) <= 1 + 1e-12, f"|pgf({s})| = {abs(value)!r} > 1")
    if s >= 0:
        expect(value >= 0, f"pgf({s}) = {value!r} < 0")


def _comp_table(lam, eta):
    law = fpsum.CompLaw(lam, eta)
    support = law.pmf(np.arange(int(lam ** (1 / eta) * 3 + 60)))
    return support, law.log_normalizer()


def _check_comp(values) -> None:
    pmf, log_h = values
    expect(math.isfinite(log_h), "log normalizer is not finite")
    _check_pmf(pmf, total_close_to_one=True)


def build_tabulate(seed, smoke, workdir, traced):
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    rng = np.random.default_rng(seed)
    n_scalar, n_pgf = (20, 10) if smoke else (1000, 200)
    ops = []
    # frozen mpmath oracle points, with the tolerances the unit tests use
    for section, rtol in (("ml", 1e-11), ("ml_pos", 1e-10)):
        for kappa, z, want in reference[section][: 5 if smoke else None]:
            ops.append(Op(f"oracle-{section}-k{kappa}-z{z}", partial(_ml, kappa, z),
                          partial(_check_close, want, rtol)))
    for kappa, u, want in reference["mixing"][: 5 if smoke else None]:
        ops.append(Op(f"oracle-mixing-k{kappa}-u{u}",
                      partial(lambda k, x: fpsum.MittagLefflerLaw(k).density(x), kappa, u),
                      partial(_check_close, want, 1e-9)))
    for lam, eta, want in reference["comp_logh"]:
        ops.append(Op(f"oracle-comp-logh-lam{lam}-eta{eta}",
                      partial(lambda a, b: fpsum.CompLaw(a, b).log_normalizer(), lam, eta),
                      partial(_check_close, want, 1e-10)))
    # scalar E_k calls at seeded points around the scalar profile of
    # ROADMAP.md's baseline (kappa 0.5, z = -1): |z|**(1/kappa) <= 1.5**2.5,
    # well inside the series budget of 4.6, so every call runs the
    # power-series loop (the other branches are covered by the grids below)
    kappas = rng.uniform(0.4, 0.6, n_scalar)
    z = -rng.uniform(0.5, 1.5, n_scalar)
    for kappa, zi in zip(kappas.tolist(), z.tolist()):
        ops.append(Op(f"ml-k{kappa:.4f}-z{zi:.4f}", partial(_ml, kappa, zi),
                      partial(_check_ml_scalar, zi)))
    # pgf calls at seeded laws and points
    for nu, kappa, s in zip(rng.uniform(0.5, 20.0, n_pgf).tolist(),
                            rng.uniform(0.1, 1.0, n_pgf).tolist(),
                            rng.uniform(-1.0, 1.0, n_pgf).tolist()):
        ops.append(Op(f"pgf-nu{nu:.3f}-k{kappa:.3f}-s{s:.3f}",
                      partial(lambda a, b, c: fpsum.FractionalPoissonLaw(a, b).pgf(c), nu, kappa, s),
                      partial(_check_pgf, s)))
    # the grid and table operations below have fixed parameters, so that the
    # seed changes which scalar points are evaluated but not how much work
    # a pass does
    for kappa in GRID_KAPPAS[:2] if smoke else GRID_KAPPAS:
        zg = _ml_grid(kappa)
        ops.append(Op(f"ml-grid-k{kappa}", partial(_ml, kappa, zg),
                      partial(_check_ml_grid, kappa, zg)))
    # mixing-law density grids (series and stable-integral branches)
    u = np.geomspace(1e-3, 30.0, 1000)
    for kappa in (0.2, 0.5) if smoke else (0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        ops.append(Op(f"ml-density-grid-k{kappa}",
                      partial(lambda k: fpsum.MittagLefflerLaw(k).density(u), kappa),
                      _check_density))
    # fractional Poisson pmf tables: forced series, cold forced mixture, auto
    counts = np.arange(0, 41)
    fp_tables = ((1.0, 0.6, "series"), (1.5, 0.8, "series"), (5.0, 0.5, "mixture"),
                 (1.0, 0.6, "mixture"), (2.0, 0.7, "auto"), (6.0, 0.45, "auto"))
    for nu, kappa, branch in fp_tables[:2] if smoke else fp_tables:
        ops.append(Op(f"fp-pmf-{branch}-nu{nu}-k{kappa}",
                      partial(lambda a, b, c: fpsum.FractionalPoissonLaw(a, b).pmf(counts, branch=c),
                              nu, kappa, branch),
                      _check_pmf))
    # COMP pmf tables and normalizers
    comp_laws = ((0.5, 0.6), (3.0, 1.5), (10.0, 1.0), (25.0, 2.0), (50.0, 3.0), (40.0, 0.8))
    for lam, eta in comp_laws[:2] if smoke else comp_laws:
        ops.append(Op(f"comp-pmf-lam{lam}-eta{eta}", partial(_comp_table, lam, eta),
                      _check_comp))
    return ops


# ---------------------------------------------------------------------------
# cli: fpsum commands, each in a fresh process
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    returncode: int
    stdout: Path
    stderr: Path
    max_rss_kb: int
    trace: dict | None = None


def _command(argv, workdir: Path, tag: str, traced: bool) -> CommandResult:
    """Run ``fpsum <argv>`` in a fresh interpreter, stdout to a file."""
    stdout, stderr = workdir / f"{tag}.out", workdir / f"{tag}.err"
    trace_path = workdir / f"{tag}.trace.json"
    entry = [sys.executable, str(BENCH / "cli_entry.py")]
    if traced:
        entry += ["--trace-out", str(trace_path)]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(entry + list(argv), stdout=out, stderr=err, cwd=workdir)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
    return CommandResult(proc.returncode, stdout, stderr, usage.ru_maxrss, trace)


@functools.cache
def _schema_validator():
    import jsonschema

    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def _report(result: CommandResult) -> dict:
    """Exit code 0 and a schema-valid JSON report on stdout."""
    expect(result.returncode == 0, f"exit code {result.returncode}: "
           + result.stderr.read_text(encoding="utf-8", errors="replace")[-300:])
    payload = json.loads(result.stdout.read_text(encoding="utf-8"))
    errors = sorted(_schema_validator().iter_errors(payload), key=lambda e: list(e.path))
    expect(not errors, f"schema: {errors[0].message[:200]}" if errors else "")
    return payload


def _check_moments(values, kappa, size) -> None:
    """Sample of NmlLaw(0, 1, kappa): size, finiteness, mean and variance
    (within six standard errors of the closed-form moments)."""
    values = np.asarray(values, dtype=float)
    expect(values.size == size, f"{values.size} values, expected {size}")
    expect(np.all(np.isfinite(values)), "non-finite samples")
    var = 1.0 / math.gamma(kappa + 1.0)
    fourth = 6.0 / math.gamma(2.0 * kappa + 1.0)
    var_sd = math.sqrt((fourth - var**2) / values.size)
    expect(abs(values.mean()) <= 6.0 * math.sqrt(var / values.size), "sample mean off")
    expect(abs(values.var() - var) <= 6.0 * var_sd, f"sample variance {values.var():.4f} vs {var:.4f}")


def _check_sample_json(kappa, size, result) -> None:
    _check_moments(_report(result)["values"], kappa, size)


def _check_sample_csv(kappa, size, result) -> None:
    expect(result.returncode == 0, f"exit code {result.returncode}")
    lines = result.stdout.read_text(encoding="utf-8").splitlines()
    expect(lines[0] == "value", f"header {lines[0]!r}")
    _check_moments([float(v) for v in lines[1:]], kappa, size)


def _check_density_report(mass_range, result) -> None:
    payload = _report(result)
    x, f = np.asarray(payload["x"]), np.asarray(payload["density"])
    _check_density(f)
    if mass_range is not None:
        mass = np.trapezoid(f, x)
        expect(mass_range[0] <= mass <= mass_range[1], f"mass {mass:.6f} outside {mass_range}")


def _check_pmf_report(result) -> None:
    _check_pmf(_report(result)["pmf"])


def _check_ml_eval(result) -> None:
    payload = _report(result)
    _check_ml_grid(payload["kappa"], np.asarray(payload["z"]),
                   np.asarray(payload["value"], dtype=float))


def _check_demo_fit(result) -> None:
    nml = _report(result)["models"][0]
    # one RMSE band around the demo kappa, as acceptance criterion 9 uses
    expect(abs(nml["estimates"]["kappa"] - 0.49123) <= 0.1148, "demo kappa off")


def _prices_returns(prices_csv: Path) -> np.ndarray:
    rows = prices_csv.read_text(encoding="utf-8").splitlines()[1:]
    return np.diff(np.log([float(r.split(",")[1]) for r in rows]))


def _check_returns(prices_csv, result) -> None:
    values = np.asarray(_report(result)["values"])
    want = _prices_returns(prices_csv)
    expect(values.shape == want.shape, f"{values.size} returns, expected {want.size}")
    expect(np.allclose(values, want, rtol=1e-12, atol=1e-15), "returns differ from log-price diffs")


def _check_prices_fit(prices_csv, result) -> None:
    payload = _report(result)
    want = _prices_returns(prices_csv)
    expect(payload["n"] == want.size, "fit sample size")
    models = {m["model"]: m for m in payload["models"]}
    expect(set(models) == {"nml", "normal", "laplace"}, f"models {sorted(models)}")
    expect(abs(models["normal"]["estimates"]["mu"] - want.mean()) <= 1e-12, "normal mu")
    nml = models["nml"]
    expect(0 < nml["estimates"]["kappa"] <= 1, "nml kappa outside (0, 1]")
    expect(abs(nml["estimates"]["sigma2"]) > 0, "nml sigma2")


def _check_mc_report(result) -> None:
    cell = _report(result)["cells"][0]
    _check_table1_mean(TABLE1_KAPPA_MEANS[(0.8, 2000)], cell["mean_est"]["kappa"],
                       cell["se_empirical"]["kappa"], cell["replications"],
                       cell["clamped_low"], cell["clamped_high"])


def _check_converge(result) -> None:
    ks = _report(result)["ks"]
    expect(ks[-1] <= KS_LIMIT, f"KS {ks[-1]:.4f} at the largest rate")


def _write_prices(path: Path, seed: int, days: int) -> None:
    """Daily closes of a heavy-tailed random walk, one row per calendar day."""
    rng = np.random.default_rng(seed)
    steps = 0.0002 + 0.008 * rng.standard_t(4, days - 1)
    closes = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    start = np.datetime64("2010-01-04")
    lines = ["date,close"] + [f"{start + i},{c:.6f}" for i, c in enumerate(closes)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


TAIL_DEFECT = ("NML density is negative beyond y~8.35 at kappa 0.9 "
               "(the NML far-tail defect in ROADMAP.md)",
               "CheckFailed: density goes negative")


def build_cli(seed, smoke, workdir, traced):
    size = 10_000 if smoke else 1_000_000
    s = str(_seeds(seed, 1)[0])
    prices = workdir / "prices.csv"
    _write_prices(prices, seed, 2500)
    n = str(size)
    mix = [
        ("sample-json", ["sample", "--dist", "nml", "--kappa", "0.5", "--n", n, "--seed", s],
         partial(_check_sample_json, 0.5, size), None),
        ("sample-csv", ["sample", "--dist", "nml", "--kappa", "0.5", "--n", n, "--seed", s,
                        "--format", "csv"], partial(_check_sample_csv, 0.5, size), None),
        ("density-nml", ["density", "--dist", "nml", "--kappa", "0.5", "--grid", "-6:6:0.01"],
         partial(_check_density_report, (0.99, 1.0 + 1e-6)), None),
        ("density-ml", ["density", "--dist", "ml", "--kappa", "0.5", "--grid", "0.01:6:0.01"],
         partial(_check_density_report, None), None),
        ("density-nml-k0.9-tail", ["density", "--dist", "nml", "--kappa", "0.9",
                                   "--grid", "-40:40:0.05"],
         partial(_check_density_report, None), TAIL_DEFECT),
        ("pmf-fp", ["pmf", "--dist", "fp", "--nu", "2", "--kappa", "0.7", "--max", "30"],
         _check_pmf_report, None),
        ("pmf-comp", ["pmf", "--dist", "comp", "--lam", "3", "--eta", "1.5", "--max", "40"],
         _check_pmf_report, None),
        ("ml-eval-grid", ["ml-eval", "--kappa", "0.7", "--grid", "-10:2:0.01"], _check_ml_eval, None),
        ("fit-demo", ["fit", "--demo"], _check_demo_fit, None),
        ("returns", ["returns", str(prices)], partial(_check_returns, prices), None),
        ("fit-prices", ["fit", str(prices)], partial(_check_prices_fit, prices), None),
        ("mc-tables", ["mc-tables", "--kappa", "0.8", "--n", "2000", "--reps", "50", "--seed", s],
         _check_mc_report, None),
        ("converge-comp", ["converge", "comp", "--eta", "2", "--grid", "10,100,1000,10000",
                           "--draws", "100000", "--seed", s], _check_converge, None),
    ]
    return [
        Op(tag, partial(_command, argv, workdir, tag, traced), check, *(defect or ()))
        for tag, argv, check, defect in mix
    ]


BUILDERS = {
    "mc_table": build_mc_table,
    "weak_limit": build_weak_limit,
    "tabulate": build_tabulate,
    "cli": build_cli,
}
WORKLOADS = tuple(BUILDERS)


def build(name, seed, smoke=False, workdir=None, traced=False):
    return BUILDERS[name](seed, smoke, Path(workdir) if workdir else None, traced)


def injected_failure() -> Op:
    """An op whose output always fails its check, for the harness self-test.

    It names a known defect whose error it does not produce, so the failure
    must still make the run's ``correct`` flag false.
    """
    return Op("injected-failure", lambda: 1, lambda out: expect(out == 0, "injected failure"),
              "a defect of another op", "CheckFailed: not this error")
