import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from fpsum.distributions import _COMP_BLOCK, _COMP_TRUNC_TOL, CompLaw, RngStream
from fpsum.errors import DomainError, EvaluationError
from fpsum.special_functions import _log_gamma


def poisson_pmf(n, rate):
    n = np.asarray(n, dtype=float)
    return np.exp(n * np.log(rate) - rate - gammaln(n + 1.0))


class TestNormalizer:
    def test_poisson_case(self):
        assert_allclose(CompLaw(2.0, 1.0).log_normalizer(), 2.0, rtol=1e-12)

    def test_against_reference(self, reference):
        for lam, eta, want in reference["comp_logh"]:
            got = CompLaw(lam, eta).log_normalizer()
            assert_allclose(got, want, rtol=1e-10, err_msg=f"lam={lam}, eta={eta}")

    def test_large_rate_asymptotic_form(self):
        # log H ~ eta lam^(1/eta) - (eta-1)/(2 eta) log lam
        #         - (eta-1)/2 log(2 pi) - log(eta)/2
        lam, eta = 100.0, 2.0
        approx = (
            eta * lam ** (1.0 / eta)
            - (eta - 1.0) / (2.0 * eta) * np.log(lam)
            - (eta - 1.0) / 2.0 * np.log(2 * np.pi)
            - 0.5 * np.log(eta)
        )
        got = CompLaw(lam, eta).log_normalizer()
        assert abs(got - approx) / abs(got) < 0.02


class TestPmf:
    def test_poisson_case(self):
        law = CompLaw(3.0, 1.0)
        n = np.arange(21)
        assert np.max(np.abs(law.pmf(n) - poisson_pmf(n, 3.0))) < 1e-12

    def test_sums_to_one(self):
        for lam, eta in [(2.0, 1.5), (1.5, 0.5), (400.0, 2.0)]:
            law = CompLaw(lam, eta)
            j = np.arange(law._table[0].size)
            assert abs(law.pmf(j).sum() - 1.0) <= 10 * _COMP_TRUNC_TOL

    def test_domain(self):
        law = CompLaw(2.0, 1.0)
        with pytest.raises(DomainError):
            law.pmf(-1)
        with pytest.raises(DomainError):
            law.pmf(1.5)
        with pytest.raises(DomainError):
            CompLaw(-1.0, 1.0)
        with pytest.raises(DomainError):
            CompLaw(1.0, 0.0)

    def test_horizon_guard(self):
        with pytest.raises(EvaluationError, match="horizon"):
            CompLaw(1e30, 0.5).log_normalizer()

    def test_blocks_match_one_shot_table(self):
        # the table is filled block by block; (1e4, 0.75) spans seven blocks
        lam, eta = 1e4, 0.75
        lt, log_h = CompLaw(lam, eta)._table
        assert lt.size > 6 * _COMP_BLOCK
        j = np.arange(lt.size, dtype=float)
        want = j * math.log(lam) - eta * _log_gamma(j + 1.0)
        assert np.array_equal(lt, want)
        shift = want.max()
        assert log_h == shift + math.log(np.exp(want - shift).sum())


class TestMoments:
    def test_large_rate_mean_approximation(self):
        # E(K) ~ lam^(1/eta) - (eta-1)/(2 eta)
        mean, _ = CompLaw(400.0, 2.0).mean_var()
        assert abs(mean - 19.75) / 19.75 < 0.01

    def test_poisson_case(self):
        mean, var = CompLaw(3.0, 1.0).mean_var()
        assert_allclose((mean, var), (3.0, 3.0), rtol=1e-10)

    def test_sampler_mean_matches_series_mean(self):
        law = CompLaw(2.0, 1.5)
        n = 400_000
        draws = law.sample(RngStream(51), n)
        mean, var = law.mean_var()
        se = np.sqrt(var / n)
        assert abs(draws.mean() - mean) <= 4 * se


class TestSampler:
    def test_poisson_case_distribution(self):
        from scipy.special import chdtrc

        law = CompLaw(4.0, 1.0)
        n = 200_000
        draws = law.sample(RngStream(52), n)
        hi = 14
        observed = np.bincount(np.minimum(draws, hi), minlength=hi + 1)
        probs = poisson_pmf(np.arange(hi + 1), 4.0)
        probs[hi] = 1.0 - probs[:hi].sum()
        stat = float(((observed - probs * n) ** 2 / (probs * n)).sum())
        assert chdtrc(hi, stat) > 0.001

    def test_reproducibility(self):
        a = CompLaw(2.0, 2.0).sample(RngStream(6), 50)
        b = CompLaw(2.0, 2.0).sample(RngStream(6), 50)
        assert np.array_equal(a, b)

    def test_scalar_signature(self):
        val = CompLaw(2.0, 1.5).sample(RngStream(0))
        assert isinstance(val, int)
