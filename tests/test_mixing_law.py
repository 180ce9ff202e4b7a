import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpsum.distributions import MittagLefflerLaw, RngStream
from fpsum.errors import DomainError
from fpsum.special_functions import mittag_leffler


class TestDensity:
    def test_half_closed_form(self):
        # f_{1/2}(u) = exp(-u^2/4)/sqrt(pi)
        law = MittagLefflerLaw(0.5)
        u = np.array([0.05, 0.4, 1.0, 2.5, 5.0, 9.0])
        assert_allclose(law.density(u), np.exp(-u * u / 4) / np.sqrt(np.pi), rtol=1e-10)

    def test_against_reference(self, reference):
        for kappa, u, want in reference["mixing"] + reference["mixing_high_kappa"]:
            got = MittagLefflerLaw(kappa).density(u)
            assert_allclose(got, want, rtol=1e-9, err_msg=f"kappa={kappa}, u={u}")

    def test_far_tail_bound(self):
        val = MittagLefflerLaw(0.9).density(1e6)
        assert 0.0 <= val <= 1e-8

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8])
    def test_normalization(self, kappa):
        law = MittagLefflerLaw(kappa)
        # positive integrand, stretched-exponential tail; simpson on a fine grid
        u = np.linspace(1e-9, 60.0, 40001)
        f = law.density(u)
        total = np.trapezoid(f, u)
        assert abs(total - 1.0) <= 1e-6

    def test_domain(self):
        law = MittagLefflerLaw(0.5)
        with pytest.raises(DomainError):
            law.density(0.0)
        with pytest.raises(DomainError):
            law.density(-1.0)
        with pytest.raises(DomainError):
            MittagLefflerLaw(1.0).density(1.0)
        with pytest.raises(DomainError):
            MittagLefflerLaw(1.2)
        with pytest.raises(DomainError, match="scalar"):
            MittagLefflerLaw(np.array([0.5, 0.6]))


class TestSampler:
    def test_degenerate_at_one(self):
        draws = MittagLefflerLaw(1.0).sample(RngStream(0), 1000)
        assert np.all(draws == 1.0)

    def test_mgf_matches_function(self):
        # E[exp(-U)] -> E_kappa(-1)
        n = 400_000
        for kappa in (0.4, 0.6, 0.9):
            draws = MittagLefflerLaw(kappa).sample(RngStream(123, 7), n)
            vals = np.exp(-draws)
            se = vals.std(ddof=1) / np.sqrt(n)
            assert abs(vals.mean() - mittag_leffler(kappa, -1.0)) <= 4 * se

    def test_mean_matches_moment(self):
        # E[U] = 1/Gamma(1+kappa)
        n = 400_000
        law = MittagLefflerLaw(0.5)
        draws = law.sample(RngStream(11), n)
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - law.mean()) <= 4 * se
        assert_allclose(law.mean(), 1.1283791670955126, rtol=1e-12)

    def test_reproducibility(self):
        a = MittagLefflerLaw(0.7).sample(RngStream(5, 2), 100)
        b = MittagLefflerLaw(0.7).sample(RngStream(5, 2), 100)
        c = MittagLefflerLaw(0.7).sample(RngStream(5, 3), 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_positive(self):
        draws = MittagLefflerLaw(0.3).sample(RngStream(1), 10_000)
        assert np.all(draws > 0)

    def test_scalar_signature(self):
        val = MittagLefflerLaw(0.5).sample(RngStream(0))
        assert isinstance(val, float)
