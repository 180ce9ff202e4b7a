import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import ndtr

from fpsum import distributions, random_sums
from fpsum.distributions import FractionalPoissonLaw, NmlLaw, RngStream
from fpsum.errors import DomainError, EvaluationError
from fpsum.estimation import BoundaryFlag, MomentSummary, mm_fit_many
from fpsum.random_sums import (
    McCell,
    McExperimentConfig,
    SummandSpec,
    comp_random_sum,
    convergence_sweep,
    fp_random_sum,
    ks_distance,
    nml_cdf,
    run_mc_tables,
    sum_given_counts,
)


class TestSummands:
    def test_validation(self):
        with pytest.raises(DomainError):
            SummandSpec("weird")
        with pytest.raises(DomainError):
            SummandSpec("custom_table", values=(1.0, -1.0), probs=(0.7, 0.3))
        with pytest.raises(DomainError):
            SummandSpec("standard_normal", values=(1.0,), probs=(1.0,))
        SummandSpec("custom_table", values=(1.0, -1.0), probs=(0.5, 0.5))

    def test_zero_counts_give_zero_sums(self):
        for family in ("standard_normal", "rademacher", "centered_uniform"):
            out = sum_given_counts(SummandSpec(family), np.array([0, 3, 0, 5, 0]), RngStream(1))
            assert out[0] == 0.0 and out[2] == 0.0 and out[4] == 0.0

    def test_rademacher_parity(self):
        counts = np.array([1, 2, 3, 10, 11, 0])
        out = sum_given_counts(SummandSpec("rademacher"), counts, RngStream(2))
        assert np.all((out - counts) % 2 == 0)
        assert np.all(np.abs(out) <= counts)

    def test_custom_table_matches_rademacher_law(self):
        spec = SummandSpec("custom_table", values=(1.0, -1.0), probs=(0.5, 0.5))
        counts = np.full(20_000, 7)
        out = sum_given_counts(spec, counts, RngStream(3))
        assert np.all((out - 7) % 2 == 0)
        assert abs(out.mean()) <= 4 * np.sqrt(7.0 / counts.size)

    def test_centered_uniform_moments(self):
        counts = np.full(50_000, 4)
        out = sum_given_counts(SummandSpec("centered_uniform"), counts, RngStream(4))
        assert abs(out.mean()) <= 4 * np.sqrt(4.0 / counts.size)
        assert abs(out.var() - 4.0) <= 0.1


class TestRandomSums:
    def test_normalization_law(self):
        # the normalized sum is exactly the raw sum divided by sqrt(nu)
        nu, kappa = 50.0, 0.6
        spec = SummandSpec("standard_normal")
        got = fp_random_sum(nu, kappa, spec, RngStream(10, 4), 500)
        replay = RngStream(10, 4)
        counts = FractionalPoissonLaw(nu, kappa).sample(replay, 500)
        raw = sum_given_counts(spec, counts, replay)
        assert np.array_equal(got, raw / math.sqrt(nu))

    def test_mean_zero(self):
        draws = fp_random_sum(100.0, 0.6, SummandSpec(), RngStream(11), 400_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 4 * se

    def test_variance_bridge(self):
        # Var(raw sum)/nu -> 1/Gamma(kappa+1)
        nu, kappa, n = 1e4, 0.5, 200_000
        rng = RngStream(12)
        counts = FractionalPoissonLaw(nu, kappa).sample(rng, n)
        raw = sum_given_counts(SummandSpec(), counts, rng)
        scaled = raw / math.sqrt(nu)
        want = 1.0 / gamma_fn(1.5)
        second = scaled**2
        se = second.std(ddof=1) / math.sqrt(n)
        assert abs(second.mean() - want) <= 4 * se

    def test_second_moment_at_limit(self):
        draws = fp_random_sum(1e4, 0.5, SummandSpec(), RngStream(13), 200_000)
        second = draws**2
        se = second.std(ddof=1) / math.sqrt(draws.size)
        assert abs(second.mean() - 1.0 / gamma_fn(1.5)) <= 4 * se

    def test_poisson_sum_clt(self):
        draws = fp_random_sum(1e4, 1.0, SummandSpec(), RngStream(14), 100_000)
        ks = ks_distance(draws, ndtr(np.sort(draws)))
        assert ks <= 0.01

    def test_summand_invariance(self):
        n = 100_000
        d_normal = fp_random_sum(1e4, 0.5, SummandSpec(), RngStream(15), n)
        d_rad = fp_random_sum(1e4, 0.5, SummandSpec("rademacher"), RngStream(16), n)
        ks_n = ks_distance(d_normal, nml_cdf(0.5, np.sort(d_normal)))
        ks_r = ks_distance(d_rad, nml_cdf(0.5, np.sort(d_rad)))
        assert abs(ks_n - ks_r) <= 0.01

    def test_comp_poisson_case(self):
        draws = comp_random_sum(1e4, 1.0, SummandSpec(), RngStream(17), 100_000)
        assert ks_distance(draws, ndtr(np.sort(draws))) <= 0.01

    def test_comp_monotone_in_rate(self):
        ks = {}
        for lam in (1e2, 1e4):
            draws = comp_random_sum(lam, 2.0, SummandSpec(), RngStream(18), 100_000)
            ks[lam] = ks_distance(draws, ndtr(np.sort(draws)))
        assert ks[1e2] > ks[1e4]


class TestNmlCdf:
    def test_normal_case_matches_ndtr(self):
        y = np.linspace(-8.0, 8.0, 4001)
        assert np.max(np.abs(nml_cdf(1.0, y) - ndtr(y))) <= 1e-7

    def test_half_matches_mixture_route(self):
        # independent route: F(y) = int_0^inf Phi(y/sqrt(u)) g(u) du with the
        # closed-form mixing density g(u) = exp(-u^2/4)/sqrt(pi) at kappa = 1/2
        def mixture_cdf(y):
            value, _ = quad(
                lambda u: ndtr(y / math.sqrt(u)) * math.exp(-u * u / 4.0) / math.sqrt(math.pi),
                0.0,
                np.inf,
                epsabs=1e-14,
                epsrel=1e-13,
                limit=200,
            )
            return value

        y = np.linspace(-8.0, 8.0, 16)
        want = np.array([mixture_cdf(v) for v in y])
        assert np.max(np.abs(nml_cdf(0.5, y) - want)) <= 1e-7

    @pytest.mark.parametrize("kappa", [1.0 - 1e-7, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0**-53])
    def test_near_one(self, kappa):
        # the mixing law is a spike at u = 1 there, so the cdf is the normal
        # one up to its table's 1e-7, and an fp sweep toward it answers
        y = np.linspace(-8.0, 8.0, 401)
        assert np.max(np.abs(nml_cdf(kappa, y) - ndtr(y))) <= 2e-7
        report = convergence_sweep("fp", (10.0, 100.0), SummandSpec(), 2000, RngStream(3),
                                   kappa=kappa)
        assert all(0.0 < d < 0.1 for d in report.distances)

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.5, 0.8, 0.9, 1.0])
    def test_shape(self, kappa):
        y = np.sort(np.random.default_rng(6).uniform(-15.0, 15.0, 100_000))
        f = nml_cdf(kappa, y)
        assert nml_cdf(kappa, 0.0) == 0.5
        assert np.all(np.diff(f) >= 0.0)
        np.testing.assert_allclose(nml_cdf(kappa, -y), 1.0 - f, rtol=0, atol=1e-15)
        assert nml_cdf(kappa, -np.inf) == 0.0 and nml_cdf(kappa, np.inf) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            nml_cdf(1.5, 0.0)
        with pytest.raises(DomainError, match="scalar"):
            nml_cdf(np.array([0.5, 0.6]), 0.0)

    def test_sweep_distances_frozen(self):
        # KS distances recorded while the cdf table was a 9001-point trapezoid
        # of the density; the exactly integrated interpolant moves them < 1e-6
        report = convergence_sweep(
            "fp", (10, 1000), SummandSpec(), 20000, RngStream(5), kappa=0.3
        )
        np.testing.assert_allclose(
            report.distances, (0.036324416178469654, 0.009334793655171092), rtol=0, atol=1e-6
        )

    def test_comp_sweep_distances_frozen(self):
        # KS distances recorded while the comp target was scipy's ndtr; the
        # kappa 1 table of nml_cdf moves them by ~5e-9
        report = convergence_sweep(
            "comp", (10, 1000), SummandSpec(), 20000, RngStream(5), eta=1.5
        )
        np.testing.assert_allclose(
            report.distances, (0.021276449199136627, 0.0069882487551984895), rtol=0, atol=1e-6
        )


class TestSweep:
    def test_single_point_grid(self):
        report = convergence_sweep(
            "comp", [100.0], SummandSpec(), 20_000, RngStream(20), eta=1.0
        )
        assert len(report.distances) == 1
        assert report.target == "std_normal"

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            convergence_sweep("fp", [], SummandSpec(), 10, RngStream(0), kappa=0.5)
        with pytest.raises(DomainError):
            convergence_sweep("fp", [10.0, 10.0], SummandSpec(), 10, RngStream(0), kappa=0.5)
        with pytest.raises(DomainError):
            convergence_sweep("fp", [10.0], SummandSpec(), 10, RngStream(0))
        with pytest.raises(DomainError):
            convergence_sweep("blah", [10.0], SummandSpec(), 10, RngStream(0), kappa=0.5)

    def test_fp_sweep_rejects_eta(self):
        with pytest.raises(DomainError, match="no eta"):
            convergence_sweep(
                "fp", [10.0], SummandSpec(), 10, RngStream(0), kappa=0.5, eta=2.0
            )

    def test_comp_sweep_rejects_kappa(self):
        with pytest.raises(DomainError, match="no kappa"):
            convergence_sweep(
                "comp", [10.0], SummandSpec(), 10, RngStream(0), kappa=0.5, eta=2.0
            )

    def test_fp_sweep_shrinks(self):
        report = convergence_sweep(
            "fp",
            [10.0, 100.0, 1000.0, 10000.0],
            SummandSpec(),
            50_000,
            RngStream(21),
            kappa=0.5,
        )
        assert report.distances[-1] <= 0.02
        assert report.distances[0] > report.distances[-1]


class TestSweepThreads:
    """The rates of a sweep run at the same time, one per available CPU."""

    @pytest.mark.parametrize(
        "kind, param, family",
        [
            ("fp", {"kappa": 0.5}, "standard_normal"),
            ("fp", {"kappa": 0.3}, "rademacher"),
            ("comp", {"eta": 1.5}, "standard_normal"),
        ],
    )
    def test_distances_do_not_depend_on_cpu_count(self, monkeypatch, kind, param, family):
        rates = (10.0, 100.0, 1000.0, 10000.0, 30000.0)
        real_sum = random_sums.fp_random_sum if kind == "fp" else random_sums.comp_random_sum
        threads = set()

        def recording_sum(*args):
            threads.add(threading.get_ident())
            return real_sum(*args)

        monkeypatch.setattr(random_sums, f"{kind}_random_sum", recording_sum)

        def sweep(cpus):
            monkeypatch.setattr(random_sums, "_available_cpus", lambda: cpus)
            threads.clear()
            report = convergence_sweep(
                kind, rates, SummandSpec(family), 5000, RngStream(8, 3), **param
            )
            assert 1 <= len(threads) <= cpus
            return report.distances

        serial = sweep(1)
        assert threads == {threading.get_ident()}
        assert sweep(2) == serial
        assert sweep(4) == serial

    def test_each_rate_runs_once_under_fast_switching(self, monkeypatch):
        # many short rates, more threads than cores, and a thread switch
        # every microsecond: a rate taken twice or lost would show in `calls`
        rates = tuple(10.0 * (r + 1) for r in range(40))
        real_sum = random_sums.comp_random_sum
        calls = []

        def recording_sum(lam, *args):
            calls.append(lam)
            return real_sum(lam, *args)

        monkeypatch.setattr(random_sums, "comp_random_sum", recording_sum)

        def sweep(cpus):
            monkeypatch.setattr(random_sums, "_available_cpus", lambda: cpus)
            calls.clear()
            report = convergence_sweep(
                "comp", rates, SummandSpec("rademacher"), 200, RngStream(2), eta=1.5
            )
            assert sorted(calls) == list(rates)
            return report.distances

        serial = sweep(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = sweep(8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_error_in_one_rate_reaches_caller(self, monkeypatch, cpus):
        # at eta 0.2 the COMP horizon passes the table limit at rate 50 only
        monkeypatch.setattr(random_sums, "_available_cpus", lambda: cpus)
        before = threading.active_count()
        with pytest.raises(EvaluationError, match="exceeds the supported table size"):
            convergence_sweep(
                "comp", (2.0, 10.0, 50.0), SummandSpec(), 1000, RngStream(1), eta=0.2
            )
        assert threading.active_count() == before


class TestMcTables:
    def test_determinism(self):
        config = McExperimentConfig(
            kappa_grid=(0.8, 0.5),
            sample_sizes=(200,),
            replications=40,
            base_seed=99,
        )
        first = run_mc_tables(config)
        second = run_mc_tables(config)
        assert len(first) == len(second) == 2
        for a, b in zip(first, second):
            assert a == b

    def test_frozen_cells(self):
        # run_mc_tables output recorded before the cell fit became one batched
        # array pass, with the kurtosis statistic still taken from raw moments
        config = McExperimentConfig(
            kappa_grid=(0.8, 0.2), sample_sizes=(200,), replications=40, base_seed=99
        )
        frozen = {
            0.8: {
                "clamped": (0, 4),
                "mean_est": (0.47806151366723815, 1.012993940891249, 0.7447280960340414),
                "rmse": (0.09094675515227542, 0.09891868239997055, 0.19167685049063904),
                "se_empirical": (0.08951305463380117, 0.09945254090024115, 0.18613828494317955),
                "se_theoretical": (0.07369155721712108, 0.13375423734556924, 0.2623697817875287),
            },
            0.2: {
                "clamped": (7, 0),
                "mean_est": (0.47431388393990326, 0.9693403624447966, 0.5315648634316131),
                "rmse": (0.07857062228847707, 0.138067854233436, 0.3982462259949681),
                "se_empirical": (0.07540467538596551, 0.13670791479019853, 0.22402136681539161),
                "se_theoretical": (0.07288302281165147, 0.21355453883136652, 0.48416704547073613),
            },
        }
        cells = run_mc_tables(config)
        assert [c.kappa for c in cells] == [0.8, 0.2]
        for cell in cells:
            want = frozen[cell.kappa]
            assert (cell.replications, cell.n) == (40, 200)
            assert (cell.clamped_low, cell.clamped_high) == want["clamped"]
            for field in ("mean_est", "rmse", "se_empirical", "se_theoretical"):
                got = getattr(cell, field)
                assert list(got) == ["mu", "sigma2", "kappa"]
                np.testing.assert_allclose(list(got.values()), want[field], rtol=1e-9, atol=0)

    def test_cell_contents(self):
        config = McExperimentConfig(
            kappa_grid=(0.8,), sample_sizes=(500,), replications=60, base_seed=7
        )
        cell = run_mc_tables(config)[0]
        assert cell.replications == 60
        assert cell.clamped_low + cell.clamped_high < 60
        assert 0.5 < cell.mean_est["kappa"] <= 1.0
        assert cell.rmse["kappa"] > 0
        assert np.isfinite(cell.se_theoretical["kappa"])

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McExperimentConfig(replications=0)
        with pytest.raises(DomainError):
            McExperimentConfig(sample_sizes=(1,))
        with pytest.raises(DomainError):
            McExperimentConfig(kappa_grid=(1.2,))

    @pytest.mark.parametrize(
        "change",
        [
            {"replications": 3.5},
            {"replications": True},
            {"replications": 1_000_004},
            {"sample_sizes": (200.0,)},
            {"sample_sizes": (True,)},
            {"sample_sizes": ()},
            {"kappa_grid": ()},
            {"kappa_grid": 0.5},
            {"base_seed": -1},
            {"base_seed": 2**64},
            {"base_seed": 7.0},
            {"sigma2": 0.0},
        ],
        ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()),
    )
    def test_config_rejected_up_front(self, change):
        with pytest.raises(DomainError):
            McExperimentConfig(**change)

    def test_config_limits_accepted(self):
        McExperimentConfig(replications=1_000_003, base_seed=2**64 - 1)
        McExperimentConfig(sample_sizes=(np.int64(200),), replications=np.int32(3))


def _reference_cell(config, kappa, n):
    """The cell of kappa and n, drawn, summarized and aggregated one
    replication at a time through the public sampler and summary."""
    law = NmlLaw(config.mu, config.sigma2, kappa)
    cell_index = [(k, m) for k in config.kappa_grid for m in config.sample_sizes].index((kappa, n))
    streams = (RngStream(config.base_seed, cell_index * 1_000_003 + r)
               for r in range(config.replications))
    summaries = [MomentSummary.from_sample(law.sample(stream, n)) for stream in streams]
    fits = mm_fit_many(
        n, *([getattr(s, f) for s in summaries] for f in ("m1", "variance", "kurtosis_numerator"))
    )
    flags = fits.boundary_flag.tolist()
    interior = np.array([f is BoundaryFlag.INTERIOR for f in flags])
    kept = np.column_stack((fits.mu_hat, fits.sigma2_hat, fits.kappa_hat))[interior]
    truth = np.array([config.mu, config.sigma2, kappa])
    names = ("mu", "sigma2", "kappa")
    return McCell(
        kappa=kappa,
        n=n,
        replications=config.replications,
        clamped_low=flags.count(BoundaryFlag.CLAMPED_LOW),
        clamped_high=flags.count(BoundaryFlag.CLAMPED_HIGH),
        mean_est=dict(zip(names, kept.mean(axis=0))),
        rmse=dict(zip(names, np.sqrt(((kept - truth) ** 2).mean(axis=0)))),
        se_empirical=dict(zip(names, kept.std(axis=0, ddof=1))),
        se_theoretical=dict(zip(names, fits.se[interior].mean(axis=0))),
    )


class TestMcCellBlocks:
    """A cell runs its replications in blocks of about 2**14 sample values,
    on the available CPUs."""

    @pytest.mark.parametrize(
        "kappa_grid, sample_sizes, reps",
        [
            ((0.8, 0.2), (200,), 100),  # 81 rows a block: 81 + 19
            ((1.0, 1.0 - 1e-9), (7, 2000), 30),
            ((0.5,), (2**14 + 3,), 3),  # one row a block
        ],
        ids=["partial-block", "near-and-at-one", "longer-than-a-block"],
    )
    def test_cells_equal_per_replication_reference(self, kappa_grid, sample_sizes, reps):
        config = McExperimentConfig(
            mu=-1.5, sigma2=2.5, kappa_grid=kappa_grid, sample_sizes=sample_sizes,
            replications=reps, base_seed=31,
        )
        cells = run_mc_tables(config)
        assert len(cells) == len(kappa_grid) * len(sample_sizes)
        for cell in cells:
            assert cell == _reference_cell(config, cell.kappa, cell.n)

    def test_cells_do_not_depend_on_cpu_count(self, monkeypatch):
        config = McExperimentConfig(
            kappa_grid=(0.3, 1.0), sample_sizes=(500, 3000), replications=70, base_seed=12
        )
        real_moments = random_sums._centered_moments
        threads, alive = set(), []

        def recording_moments(rows):
            threads.add(threading.get_ident())
            alive.append(threading.active_count())
            return real_moments(rows)

        monkeypatch.setattr(random_sums, "_centered_moments", recording_moments)
        before = threading.active_count()

        def cells(cpus):
            monkeypatch.setattr(random_sums, "_available_cpus", lambda: cpus)
            threads.clear()
            alive.clear()
            out = run_mc_tables(config)
            # the calling thread and at most one helper per further CPU
            assert threading.get_ident() in threads
            assert max(alive) - before <= cpus - 1
            return out

        serial = cells(1)
        assert threads == {threading.get_ident()}
        assert cells(2) == serial
        assert cells(4) == serial

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_error_in_one_block_reaches_caller(self, monkeypatch, cpus):
        # the third block's mixing draws come out nan, which the summary rejects
        real_kanter_log = distributions._kanter_log
        calls = iter(range(10**6))

        def failing_kanter_log(kappa, theta):
            out = real_kanter_log(kappa, theta)
            return out * np.nan if next(calls) == 2 else out

        monkeypatch.setattr(distributions, "_kanter_log", failing_kanter_log)
        monkeypatch.setattr(random_sums, "_available_cpus", lambda: cpus)
        before = threading.active_count()
        config = McExperimentConfig(
            kappa_grid=(0.5,), sample_sizes=(2000,), replications=60, base_seed=3
        )
        with pytest.raises(DomainError, match="non-finite"):
            run_mc_tables(config)
        assert threading.active_count() == before
