import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import chdtrc, gammaln

from fpsum.distributions import (
    FractionalPoissonLaw,
    MittagLefflerLaw,
    RngStream,
    _fp_mixture_level,
    _fp_pmf_mixture,
    _fp_window,
    _log_sum_exp,
    _mixing_log_density,
    _mixing_panels,
    _refined_nodes,
)
from fpsum.errors import DomainError, EvaluationError
from fpsum.special_functions import _log_gamma, mittag_leffler


def poisson_pmf(n, rate):
    n = np.asarray(n, dtype=float)
    return np.exp(n * np.log(rate) - rate - gammaln(n + 1.0))


class TestPmf:
    def test_poisson_special_case(self):
        law = FractionalPoissonLaw(2.0, 1.0)
        assert_allclose(law.pmf(0), np.exp(-2.0), rtol=1e-14)
        n = np.arange(30)
        assert_allclose(law.pmf(n), poisson_pmf(n, 2.0), rtol=1e-12)

    def test_zero_count_equals_ml_at_minus_nu(self):
        law = FractionalPoissonLaw(1.0, 0.6)
        assert_allclose(law.pmf(0), mittag_leffler(0.6, -1.0), rtol=1e-11)

    def test_series_vs_mixture(self):
        # two independent evaluation routes agree countwise
        law = FractionalPoissonLaw(1.0, 0.6)
        n = np.arange(21)
        series = law.pmf(n, branch="series")
        mixture = law.pmf(n, branch="mixture")
        assert np.max(np.abs(series - mixture)) <= 1e-6

    @pytest.mark.parametrize("branch", ["mixture", "auto"])
    def test_against_reference(self, reference, branch):
        # near kappa 1 the mixing density is a spike, and at nu**(1/k) > 25
        # there is no series to check the mixture against
        for nu, kappa, n, want in reference["fp_pmf"] + reference["fp_pmf_near_one"]:
            got = FractionalPoissonLaw(nu, kappa).pmf(n, branch=branch)
            assert_allclose(got, want, rtol=1e-12, err_msg=f"nu={nu}, kappa={kappa}, n={n}")

    @pytest.mark.parametrize("nu,kappa", [(0.5, 0.4), (2.0, 0.7), (5.0, 0.6), (5.0, 0.3)])
    def test_sums_to_one(self, nu, kappa):
        law = FractionalPoissonLaw(nu, kappa)
        n = np.arange(400)
        assert abs(law.pmf(n).sum() - 1.0) <= 1e-8

    def test_long_against_reference(self, reference):
        # at n in the thousands, n log(nu u) and log n! are ~n log n, and each
        # is rounded to a few ulp before they cancel: that floor on top of
        # the 1e-12 of the short counts.  Each count alone, then each law's
        # counts in one table, through its level blocks
        laws = {}
        for nu, kappa, n, want in reference["fp_pmf_long"]:
            laws.setdefault((nu, kappa), []).append((n, want))
        for (nu, kappa), rows in laws.items():
            n, want = (np.array(col) for col in zip(*rows))
            rtol = 1e-12 + 3.0 * np.finfo(float).eps * n * np.log(n)
            law = FractionalPoissonLaw(nu, kappa)
            for got in (np.array([law.pmf(int(m)) for m in n]), law.pmf(n)):
                assert np.all(np.abs(got - want) <= rtol * want), f"nu={nu}, kappa={kappa}"

    def test_series_oracle_fails_loudly_at_large_n(self, make_reference):
        # its guard digits follow nu**(1/k), but at n 100 the terms grow far
        # past that, and the sum would be 3.1e86 without an error
        with pytest.raises(RuntimeError, match="guard digits"):
            make_reference.fp_pmf_mp(30.0, 0.5, 100)

    @pytest.mark.parametrize("nu,kappa,n_max", [(30.0, 0.3, 199), (10.0, 0.05, 40), (100.0, 0.05, 1200)])
    def test_mixture_level_is_converged(self, nu, kappa, n_max):
        # the level picked per count agrees with every panel two levels
        # finer, with g evaluated at those nodes rather than interpolated
        n = np.arange(n_max + 1.0)
        got = _fp_pmf_mixture(nu, kappa, n)
        panels = np.arange(_mixing_panels(kappa)[0].size)
        log_u, log_w, _ = _refined_nodes(kappa, int(_fp_mixture_level(n_max)) + 2, panels)
        log_wg = log_w + _mixing_log_density(kappa, log_u)
        fine = np.exp(_log_sum_exp(n, np.log(nu) + log_u, log_wg - nu * np.exp(log_u))
                      - _log_gamma(n + 1.0))
        assert_allclose(got, fine, rtol=1e-11)

    @pytest.mark.parametrize(
        "nu,kappa,n_max",
        [(3.0, 0.05, 400), (50.0, 0.05, 1600), (5.0, 0.5, 400), (100.0, 0.5, 1600),
         (2.0, 0.99, 400), (30.0, 0.99, 800), (2.0, 0.999, 400), (30.0, 0.999, 800)],
    )
    def test_windows_drop_nothing(self, nu, kappa, n_max):
        # each level block sums over its window of panels only; summing over
        # every refined node gives the same, out to counts deep in g's flank.
        # Both sums shift each row by its largest exponent, ~n log(nu u),
        # and round log p to its ulp: past a shift of 1024 that is 2**-42
        # relative in p, above 1e-13 alone
        n = np.arange(n_max + 1.0)
        levels = _fp_mixture_level(n)
        assert np.unique(levels).size >= 3
        want = np.empty(n.shape)
        panels = np.arange(_mixing_panels(kappa)[0].size)
        for level in np.unique(levels):
            rows = levels == level
            log_u, log_w, log_g = _refined_nodes(kappa, int(level), panels)
            log_wg = log_w + log_g
            want[rows] = _log_sum_exp(n[rows], np.log(nu) + log_u, log_wg - nu * np.exp(log_u))
        rtol = 1e-13 + 4.0 * np.spacing(np.abs(want))
        want -= _log_gamma(n + 1.0)
        got = _fp_pmf_mixture(nu, kappa, n)
        normal = want > -700.0
        assert np.all(np.abs(got - np.exp(want))[normal] <= (rtol * np.exp(want))[normal])
        assert np.all(got[~normal] < 1e-300)

    def test_window_takes_a_panel_on_each_side(self):
        # a peak narrower than the level-0 node spacing can lie past the edge
        # of the panel that holds its largest node; at the counts above that
        # needs n in the millions, so the widening is checked on its own
        a, b = np.zeros(5 * 16), np.full(5 * 16, -1000.0)
        b[2 * 16 + 15] = 0.0
        assert np.array_equal(_fp_window(np.array([1.0]), a, b), [1, 2, 3])
        b[15], b[2 * 16 + 15] = 0.0, -1000.0
        assert np.array_equal(_fp_window(np.array([1.0]), a, b), [0, 1])

    def test_count_does_not_depend_on_the_table(self):
        law = FractionalPoissonLaw(100.0, 0.5)
        table = law.pmf(np.arange(2000))
        for n in [0, 23, 24, 95, 96, 500, 1535, 1536, 1999]:
            assert_allclose(law.pmf(n), table[n], rtol=1e-13, err_msg=f"n={n}")
            assert_allclose(law.pmf([n]), table[[n]], rtol=1e-13, err_msg=f"n={n}")

    def test_one_count_far_out(self):
        # by the weak limit N/nu -> U, nu P(N = n) -> g(n/nu); one count at
        # level 10 refines only the few panels around u = 2
        got = FractionalPoissonLaw(1e6, 0.5).pmf(2_000_000)
        assert_allclose(got, MittagLefflerLaw(0.5).density(2.0) / 1e6, rtol=1e-5)

    def test_mixture_holds_the_spike_near_one(self):
        # at kappa 0.999 the mixing density is a spike ~0.03 wide; the
        # mixture must not lose its mass
        total = FractionalPoissonLaw(30.0, 0.999).pmf(np.arange(80)).sum()
        assert abs(total - 1.0) <= 1e-12

    def test_mixture_kappa_limit(self):
        # the mixture answers up to kappa 1 - 2**-53, and meets the series
        law = FractionalPoissonLaw(2.0, 1.0 - 1e-7)
        assert_allclose(law.pmf(3), law.pmf(3, branch="series"), rtol=1e-13)
        assert_allclose(law.pmf(3), poisson_pmf(3, 2.0), rtol=1e-5)

    @pytest.mark.parametrize("kappa", [1.0 - 1e-7, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0**-53])
    def test_tables_near_one(self, kappa):
        # the mixing density is a spike ~sqrt(1-k) wide, with a right flank
        # ~(1-k) wide: no mass may go missing, and the series agrees
        n = np.arange(60)
        for nu in (2.0, 5.0):
            pmf = FractionalPoissonLaw(nu, kappa).pmf(n)
            assert np.all(np.isfinite(pmf) & (pmf >= 0.0))
            assert abs(pmf.sum() - 1.0) <= 1e-12, f"nu={nu}"
        law = FractionalPoissonLaw(2.0, kappa)
        assert_allclose(law.pmf(n), law.pmf(n, branch="series"), rtol=1e-11)

    def test_series_branch_failure_points_at_mixture(self):
        law = FractionalPoissonLaw(20.0, 0.3)
        with pytest.raises(EvaluationError, match="mixture"):
            law.pmf(3, branch="series")

    def test_auto_branch_handles_large_rate(self):
        law = FractionalPoissonLaw(20.0, 0.3)
        pmf = law.pmf(np.arange(1200))
        assert np.all(pmf >= 0)
        assert abs(pmf.sum() - 1.0) <= 1e-7

    def test_domain(self):
        law = FractionalPoissonLaw(1.0, 0.5)
        with pytest.raises(DomainError):
            law.pmf(-1)
        with pytest.raises(DomainError):
            law.pmf(0.5)
        with pytest.raises(DomainError):
            FractionalPoissonLaw(0.0, 0.5)
        with pytest.raises(DomainError, match="scalar"):
            FractionalPoissonLaw(1.0, np.array([0.5]))


class TestRefinedNodes:
    @pytest.mark.parametrize(
        "kappa,atol",
        [(0.01, 3e-13), (0.05, 3e-13), (0.2, 3e-13), (0.5, 3e-13), (0.7, 3e-13),
         (0.9, 5e-13), (0.95, 2e-12), (0.99, 5e-12), (0.999, 5e-11)],
    )
    def test_refined_log_g_is_interpolated(self, kappa, atol):
        # log g at the refined nodes comes from level 0 by interpolation;
        # it meets the density evaluated there wherever log g is within 60
        # of its maximum
        panels = np.arange(_mixing_panels(kappa)[0].size)
        for level in range(1, 6):
            log_u, _, log_g = _refined_nodes(kappa, level, panels)
            near = log_g >= log_g.max() - 61.0
            direct = _mixing_log_density(kappa, log_u[near])
            keep = direct >= direct.max() - 60.0
            err = np.abs(log_g[near] - direct)[keep].max()
            assert err <= atol, f"level {level}: {err:.3g}"

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.9])
    def test_level_zero_gives_back_the_panels(self, kappa):
        # cut into one part, each panel gives back its own nodes, 12-17 % of
        # them exactly on a level-0 point, where the interpolant must take
        # the value there rather than divide by zero
        log_v, log_u0, log_w0, log_g0 = _mixing_panels(kappa)
        log_u, log_w, log_g = _refined_nodes(kappa, 0, np.arange(log_v.size))
        assert np.array_equal(log_u, log_u0) and np.array_equal(log_w, log_w0)
        assert_allclose(log_g, log_g0, rtol=0.0, atol=5e-12)


class TestPgf:
    def test_at_one(self):
        assert_allclose(FractionalPoissonLaw(5.0, 0.4).pgf(1.0), 1.0, rtol=1e-12)

    def test_poisson_case(self):
        assert_allclose(FractionalPoissonLaw(2.0, 1.0).pgf(0.5), np.exp(-1.0), rtol=1e-14)

    def test_consistency_with_pmf_at_zero(self):
        law = FractionalPoissonLaw(1.0, 0.6)
        assert_allclose(law.pgf(0.0), law.pmf(0), rtol=1e-11)

    @pytest.mark.parametrize("s", [0.0, 0.5, 0.9])
    def test_duality_with_pmf(self, s):
        for nu, kappa in [(1.0, 0.6), (3.0, 0.8), (2.0, 0.45)]:
            law = FractionalPoissonLaw(nu, kappa)
            n = np.arange(300)
            total = float(law.pmf(n) @ s ** n.astype(float))
            assert_allclose(total, law.pgf(s), atol=1e-8, rtol=1e-8)

    @pytest.mark.parametrize(
        "nu, kappa",
        [pytest.param(10.0, k, id=str(k)) for k in (0.99, 0.999, 0.9999, 1 - 1e-6, 1 - 1e-9)]
        + [(1.0, 0.6), (2.0, 0.7), (3.0, 0.8), (10.0, 0.9)],
    )
    def test_pmf_sums_to_pgf_near_one(self, nu, kappa):
        # sum_n s**n P(N = n) = E_k(nu (s - 1)): the mixture pmf against the
        # cut integral, two routes that share no nodes; the scale on the
        # right absorbs the cancellation of the alternating sum at s < 0.
        # At mid kappa the points with |nu (s - 1)|**(1/kappa) <= 2 take
        # the power series of E_k instead.
        law = FractionalPoissonLaw(nu, kappa)
        pmf = law.pmf(np.arange(4000))
        for s in [-1.0, -0.5, 0.0, 0.3, 0.5, 0.9]:
            powers = s ** np.arange(4000.0)
            scale = pmf @ np.abs(powers)
            assert abs(pmf @ powers - law.pgf(s)) <= 1e-13 * scale, s

    def test_domain(self):
        with pytest.raises(DomainError):
            FractionalPoissonLaw(1.0, 0.5).pgf(1.2)

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    @pytest.mark.parametrize(
        "s", [np.nan, np.array([0.5, np.nan]), np.array(np.nan), np.inf, -np.inf, np.array([np.inf])]
    )
    def test_non_finite_names_pgf(self, kappa, s):
        # the error names pgf's own argument, not the z of E_k it would pass
        with pytest.raises(DomainError, match="pgf requires a finite s"):
            FractionalPoissonLaw(2.0, kappa).pgf(s)

    @pytest.mark.parametrize("s", [0.3, np.float64(0.3), np.array(0.3), 1, -1.0])
    def test_scalar_gives_float(self, s):
        law = FractionalPoissonLaw(5.0, 0.7)
        got = law.pgf(s)
        assert type(got) is float
        assert got == mittag_leffler(0.7, 5.0 * (float(s) - 1.0))
        assert_allclose(got, law.pgf(np.array([float(s), float(s)])), rtol=1e-14)


class TestMoments:
    def test_poisson_case(self):
        assert_allclose(FractionalPoissonLaw(3.0, 1.0).mean_var(), (3.0, 3.0), rtol=1e-12)

    def test_half_kappa_values(self):
        # mean = 1/Gamma(1.5); var = mean + mean^2 (2 Gamma(1.5)^2/Gamma(2) - 1),
        # re-derived through the conditional-variance decomposition
        # var = nu E(U) + nu^2 Var(U) with E(U)=1/Gamma(1.5), E(U^2)=2/Gamma(2)
        mean, var = FractionalPoissonLaw(1.0, 0.5).mean_var()
        assert_allclose(mean, 1.1283791670955126, rtol=1e-12)
        eu = 1.1283791670955126
        eu2 = 2.0
        assert_allclose(var, eu + (eu2 - eu**2), rtol=1e-12)
        assert_allclose(var, 1.8551396223603493, rtol=1e-12)

    def test_sampler_mean_matches_formula(self):
        law = FractionalPoissonLaw(2.0, 0.7)
        n = 400_000
        draws = law.sample(RngStream(21), n)
        mean, _ = law.mean_var()
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - mean) <= 4 * se

    def test_sampler_variance_matches_formula(self):
        law = FractionalPoissonLaw(1.0, 0.5)
        n = 400_000
        draws = law.sample(RngStream(22), n).astype(float)
        _, var = law.mean_var()
        # moment-based standard error for a variance estimate
        centered = draws - draws.mean()
        se = np.sqrt((np.mean(centered**4) - var**2) / n)
        assert abs(draws.var() - var) <= 4 * se


class TestSampler:
    def test_poisson_case_chi_square(self):
        law = FractionalPoissonLaw(2.0, 1.0)
        n = 200_000
        draws = law.sample(RngStream(31), n)
        hi = 12
        observed = np.bincount(np.minimum(draws, hi), minlength=hi + 1)
        probs = poisson_pmf(np.arange(hi + 1), 2.0)
        probs[hi] = 1.0 - probs[:hi].sum()
        expected = probs * n
        stat = float(((observed - expected) ** 2 / expected).sum())
        p_value = chdtrc(hi, stat)
        assert p_value > 0.001

    def test_total_variation_against_pmf(self):
        law = FractionalPoissonLaw(1.0, 0.6)
        n = 200_000
        draws = law.sample(RngStream(32), n)
        hi = 15
        emp = np.bincount(draws[draws <= hi], minlength=hi + 1) / n
        tv = 0.5 * np.abs(emp - law.pmf(np.arange(hi + 1))).sum()
        assert tv <= 0.005

    def test_scalar_signature(self):
        val = FractionalPoissonLaw(1.0, 0.5).sample(RngStream(0))
        assert isinstance(val, int)
        assert val >= 0
