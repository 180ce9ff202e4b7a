import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import chdtrc, gammaln

from fpsum.distributions import FractionalPoissonLaw, RngStream
from fpsum.errors import DomainError, EvaluationError
from fpsum.special_functions import mittag_leffler


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
        for nu, kappa, n, want in reference["fp_pmf"]:
            got = FractionalPoissonLaw(nu, kappa).pmf(n, branch=branch)
            assert_allclose(got, want, rtol=1e-9, err_msg=f"nu={nu}, kappa={kappa}, n={n}")

    @pytest.mark.parametrize("nu,kappa", [(0.5, 0.4), (2.0, 0.7), (5.0, 0.6), (5.0, 0.3)])
    def test_sums_to_one(self, nu, kappa):
        law = FractionalPoissonLaw(nu, kappa)
        n = np.arange(400)
        assert abs(law.pmf(n).sum() - 1.0) <= 1e-8

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

    def test_domain(self):
        with pytest.raises(DomainError):
            FractionalPoissonLaw(1.0, 0.5).pgf(1.2)


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
