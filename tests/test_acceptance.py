"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-size Monte
Carlo table reproduction is opt-in via FPSUM_LONG_RUN=1 (~10 s on 2 cores).
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.special import erfc, gamma as gamma_fn, kolmogi, ndtr

from fpsum.cli import main
from fpsum.distributions import FractionalPoissonLaw, NmlLaw, RngStream
from fpsum.estimation import (
    MomentSummary,
    asymptotic_covariance,
    h,
    h_inverse,
    mm_fit,
    moment_covariance,
    moment_map_gradient,
    population_moments,
)
from fpsum.random_sums import (
    McExperimentConfig,
    SummandSpec,
    comp_random_sum,
    fp_random_sum,
    ks_distance,
    nml_cdf,
    run_mc_tables,
)
from fpsum.special_functions import mittag_leffler


class _Gate:
    """Collects checks for one criterion and prints a single verdict line."""

    def __init__(self, number, label, budget=None):
        self.number = number
        self.label = label
        self.budget = budget
        self.failures = []
        self.start = time.perf_counter()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        if self.budget is not None and elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds {self.budget:.0f}s")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict} ({elapsed:.1f}s): {self.label}")
        assert not self.failures, "; ".join(self.failures)


def test_criterion_1_special_functions():
    gate = _Gate(1, "Mittag-Leffler special-function suite", budget=5.0)
    z = np.linspace(-10.0, 2.0, 1201)
    err = np.abs(mittag_leffler(1.0, z) - np.exp(z))
    gate.check(np.max(err / np.maximum(1.0, np.exp(z))) <= 1e-10, "kappa=1 reduction")
    gate.check(
        abs(mittag_leffler(0.5, -1.0) - math.e * erfc(1.0)) <= 1e-8,
        "half-kappa closed form",
    )
    for kappa in [round(0.1 * k, 1) for k in range(1, 11)]:
        grid = np.linspace(-40.0, 0.0, 401)
        vals = np.atleast_1d(mittag_leffler(kappa, grid))
        gate.check(np.all(vals > 0.0) and np.all(vals <= 1.0), f"range kappa={kappa}")
        gate.check(np.all(np.diff(vals) >= 0.0), f"monotonicity kappa={kappa}")
    gate.finish()


def test_criterion_2_nml_density():
    gate = _Gate(2, "NML density normalization, center identity, normal grid", budget=30.0)
    for kappa in (0.3, 0.5, 0.8):
        law = NmlLaw(0.0, 1.0, kappa)
        x = np.linspace(0.0, 16.0, 8001)
        f = law.density(x)
        total = 2.0 * np.trapezoid(f, x)
        gate.check(abs(total - 1.0) <= 1e-6, f"normalization kappa={kappa}: {total}")
        center = law.density(0.0)
        want = 1.0 / (math.sqrt(2.0) * gamma_fn(1.0 - kappa / 2.0))
        gate.check(abs(center - want) <= 1e-6, f"center identity kappa={kappa}")
    grid = np.arange(-4.0, 4.0 + 1e-12, 0.01)
    dev = np.abs(
        NmlLaw(0.0, 1.0, 1.0).density(grid)
        - np.exp(-grid * grid / 2.0) / np.sqrt(2 * np.pi)
    )
    gate.check(np.max(dev) <= 1e-8, f"normal grid max dev {np.max(dev):.2e}")
    gate.finish()


def test_criterion_3_sampler_law_agreement():
    gate = _Gate(3, "sampler vs law: NML KS and FP total variation", budget=120.0)
    n = 100_000
    draws = np.sort(NmlLaw(0.0, 1.0, 0.5).sample(RngStream(202), n))
    ks = ks_distance(draws, nml_cdf(0.5, draws))
    crit = kolmogi(0.001) / math.sqrt(n)
    gate.check(ks <= crit, f"NML KS {ks:.5f} vs critical {crit:.5f}")

    m = 1_000_000
    law = FractionalPoissonLaw(1.0, 0.6)
    counts = law.sample(RngStream(203), m)
    hi = 15
    emp = np.bincount(counts[counts <= hi], minlength=hi + 1) / m
    tv = 0.5 * float(np.abs(emp - law.pmf(np.arange(hi + 1))).sum())
    gate.check(tv <= 0.005, f"FP total variation {tv:.5f}")
    gate.finish()


def test_criterion_4_estimation_exactness():
    gate = _Gate(4, "plug-in recovery, h roundtrip, affine equivariance")
    for kappa in (0.3, 0.5, 0.8):
        m1, m2, m4 = population_moments(0.25, 1.7, kappa)
        fit = mm_fit(MomentSummary(n=100, m1=m1, m2=m2, m4=m4))
        gate.check(
            abs(fit.mu_hat - 0.25) <= 1e-9
            and abs(fit.sigma2_hat - 1.7) <= 1e-9
            and abs(fit.kappa_hat - kappa) <= 1e-9,
            f"plug-in recovery kappa={kappa}",
        )
    for kappa in np.arange(0.05, 1.0 + 1e-9, 0.05):
        back, _ = h_inverse(h(kappa))
        gate.check(abs(back - kappa) <= 1e-10, f"h roundtrip kappa={kappa:.2f}")
    values = NmlLaw(0.5, 1.0, 0.6).sample(RngStream(204), 4096)
    base = mm_fit(MomentSummary.from_sample(values))
    scaled = mm_fit(MomentSummary.from_sample(2.0 * values))
    gate.check(
        scaled.kappa_hat == base.kappa_hat
        and scaled.mu_hat == 2.0 * base.mu_hat
        and scaled.sigma2_hat == 4.0 * base.sigma2_hat,
        "scale equivariance is exact",
    )
    # affine equivariance holds exactly at the population-moment level (the
    # kurtosis statistic sheds location only where the third central moment
    # vanishes, i.e. in population; see the estimation tests for the exact
    # sample-level shift identity)
    a, b = 1.75, -0.4
    for kappa in (0.3, 0.6, 0.9):
        m1, m2, m4 = population_moments(a * 0.25 + b, a**2 * 1.7, kappa)
        fit = mm_fit(MomentSummary(n=100, m1=m1, m2=m2, m4=m4))
        gate.check(
            abs(fit.mu_hat - (a * 0.25 + b)) <= 1e-12
            and abs(fit.sigma2_hat - a**2 * 1.7) <= 1e-9
            and abs(fit.kappa_hat - kappa) <= 1e-9,
            f"population affine recovery kappa={kappa}",
        )
    gate.finish()


@pytest.fixture(scope="module")
def mc_cells_500():
    config = McExperimentConfig(
        kappa_grid=(0.8, 0.2),
        sample_sizes=(2000,),
        replications=500,
        base_seed=1,
    )
    cells = run_mc_tables(config)
    return {c.kappa: c for c in cells}


def test_criterion_5_table1_scaled(mc_cells_500):
    gate = _Gate(5, "estimator mean and RMSE at 500 replications", budget=600.0)
    cell = mc_cells_500[0.8]
    gate.check(
        abs(cell.mean_est["kappa"] - 0.8032) <= 0.02,
        f"mean kappa {cell.mean_est['kappa']:.4f} vs 0.8032",
    )
    gate.check(
        abs(cell.rmse["kappa"] - 0.0695) <= 0.02,
        f"rmse kappa {cell.rmse['kappa']:.4f} vs 0.0695",
    )
    biased = mc_cells_500[0.2]
    gate.check(
        abs(biased.mean_est["kappa"] - 0.3056) <= 0.03,
        f"mean kappa {biased.mean_est['kappa']:.4f} vs 0.3056 (bias reproduced)",
    )
    gate.finish()


def test_criterion_6_table2_scaled(mc_cells_500):
    gate = _Gate(6, "theoretical and empirical standard errors")
    se_kappa = math.sqrt(asymptotic_covariance(0.5, 1.0, 0.8)[2, 2] / 2000.0)
    gate.check(abs(se_kappa - 0.0717) <= 0.005, f"theoretical se {se_kappa:.4f} vs 0.0717")
    cell = mc_cells_500[0.8]
    gate.check(
        abs(cell.se_empirical["kappa"] - 0.0694) <= 0.01,
        f"empirical se {cell.se_empirical['kappa']:.4f} vs 0.0694",
    )
    gate.finish()


def test_criterion_7_covariance_correctness():
    gate = _Gate(7, "gradient finite differences and Gaussian moment covariance")
    for point in [(0.5, 1.0, 0.6), (0.2, 2.0, 0.4), (-0.3, 0.5, 0.8)]:
        x, y, z = population_moments(*point)

        def g(x, y, z):
            d = y - x**2
            omega = (z - 6 * x**2 * y + 5 * x**4) / (6 * d**2)
            kappa, _ = h_inverse(omega)
            return np.array([x, d * gamma_fn(kappa + 1.0), kappa])

        grad = moment_map_gradient(x, y, z)
        fd = np.empty((3, 3))
        for j in range(3):
            delta = np.zeros(3)
            delta[j] = 1e-6 * max(1.0, abs((x, y, z)[j]))
            hi = g(x + delta[0], y + delta[1], z + delta[2])
            lo = g(x - delta[0], y - delta[1], z - delta[2])
            fd[:, j] = (hi - lo) / (2 * delta[j])
        rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8))
        gate.check(rel <= 1e-6, f"gradient FD at {point}: {rel:.2e}")
    diag = np.diag(moment_covariance(0.0, 1.0, 1.0))
    gate.check(
        np.max(np.abs(diag - np.array([1.0, 2.0, 96.0]))) <= 1e-10,
        f"Gaussian diagonal {diag}",
    )
    gate.finish()


def test_criterion_8_convergence_sweeps():
    gate = _Gate(8, "weak-limit KS at the largest rates", budget=300.0)
    n = 100_000
    draws = np.sort(fp_random_sum(1e4, 0.5, SummandSpec(), RngStream(205), n))
    ks_fp = ks_distance(draws, nml_cdf(0.5, draws))
    gate.check(ks_fp <= 0.02, f"FP sum KS {ks_fp:.4f}")
    draws = np.sort(comp_random_sum(1e4, 2.0, SummandSpec(), RngStream(206), n))
    ks_comp = ks_distance(draws, ndtr(draws))
    gate.check(ks_comp <= 0.02, f"COMP sum KS {ks_comp:.4f}")
    gate.finish()


def test_criterion_9_market_fit(tmp_path):
    gate = _Gate(9, "market-data fit row (user data or bundled demo)")
    user_csv = os.environ.get("FPSUM_MARKET_CSV")
    out = tmp_path / "fit.json"
    if user_csv:
        code = main(["fit", user_csv, "--models", "nml", "--out", str(out)])
        gate.check(code == 0, f"fit exit code {code}")
        nml = json.loads(out.read_text())["models"][0]
        est = nml["estimates"]
        gate.check(round(est["mu"], 5) == 0.00021, f"mu {est['mu']:.6f}")
        gate.check(round(est["sigma2"], 5) == 0.00018, f"sigma2 {est['sigma2']:.6f}")
        gate.check(round(est["kappa"], 5) == 0.49123, f"kappa {est['kappa']:.6f}")
        kurt = nml["fitted_cumulants"]["excess_kurtosis"]
        gate.check(round(kurt, 5) == 1.74430, f"excess kurtosis {kurt:.6f}")
    else:
        code = main(["fit", "--demo", "--models", "nml", "--out", str(out)])
        gate.check(code == 0, f"fit exit code {code}")
        nml = json.loads(out.read_text())["models"][0]
        est = nml["estimates"]
        sigma = math.sqrt(0.00018)
        gate.check(
            abs(est["kappa"] - 0.49123) <= 0.1148,
            f"kappa {est['kappa']:.4f} within one RMSE band of 0.49123",
        )
        gate.check(
            abs(est["mu"] - 0.00021) <= 0.0239 * sigma,
            f"mu {est['mu']:.6f} within one RMSE band",
        )
        gate.check(
            abs(est["sigma2"] - 0.00018) <= 0.0442 * 0.00018,
            f"sigma2 {est['sigma2']:.6f} within one RMSE band",
        )
    gate.finish()


# Table 1 at full size: 0.00021-style bands are checked cell by cell against
# the published grid.  Opt-in: FPSUM_LONG_RUN=1 (~10 s on 2 cores).
_TABLE1_KAPPA_MEANS = {
    (0.2, 200): 0.5138, (0.2, 500): 0.4261, (0.2, 1000): 0.3557, (0.2, 2000): 0.3056,
    (0.3, 200): 0.5390, (0.3, 500): 0.4454, (0.3, 1000): 0.3952, (0.3, 2000): 0.3517,
    (0.5, 200): 0.5998, (0.5, 500): 0.5471, (0.5, 1000): 0.5201, (0.5, 2000): 0.5102,
    (0.6, 200): 0.6559, (0.6, 500): 0.6281, (0.6, 1000): 0.6088, (0.6, 2000): 0.6030,
    (0.8, 200): 0.7690, (0.8, 500): 0.7955, (0.8, 1000): 0.8010, (0.8, 2000): 0.8032,
}


@pytest.mark.skipif(
    not os.environ.get("FPSUM_LONG_RUN"), reason="set FPSUM_LONG_RUN=1 to run"
)
def test_table1_full_reproduction():
    config = McExperimentConfig(replications=5000, base_seed=2024)
    cells = run_mc_tables(config)
    failures = []
    for cell in cells:
        want = _TABLE1_KAPPA_MEANS[(cell.kappa, cell.n)]
        got = cell.mean_est["kappa"]
        reps = cell.replications - cell.clamped_low - cell.clamped_high
        band = max(0.02, 5.0 * cell.se_empirical["kappa"] * math.sqrt(2.0 / reps))
        if abs(got - want) > band:
            failures.append(
                f"kappa={cell.kappa} n={cell.n}: mean {got:.4f} vs {want:.4f} (band {band:.4f})"
            )
    print(f"ACCEPTANCE long-run Table 1: {len(cells)} cells, {len(failures)} failures")
    assert not failures, "; ".join(failures)
