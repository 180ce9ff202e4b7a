import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma as gamma_fn
from scipy.special import kolmogi, roots_legendre

from fpsum.distributions import NmlLaw, RngStream
from fpsum.errors import DomainError
from fpsum.special_functions import mittag_leffler


def center_height(kappa):
    # f(0) = 1/(sqrt(2) Gamma(1 - kappa/2)) for the standard law
    return 1.0 / (np.sqrt(2.0) * gamma_fn(1.0 - kappa / 2.0))


class TestDensity:
    def test_normal_center(self):
        assert_allclose(
            NmlLaw(0.0, 1.0, 1.0).density(0.0), 1.0 / np.sqrt(2 * np.pi), atol=1e-10
        )

    def test_center_identity(self):
        for kappa in (0.3, 0.5, 0.8, 0.95):
            got = NmlLaw(0.0, 1.0, kappa).density(0.0)
            assert_allclose(got, center_height(kappa), atol=1e-8)

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8])
    def test_cusp_slope(self, kappa):
        # f(y) = f(0) - |y| g(0) + o(y) with g(0) = 1/Gamma(1 - kappa): the
        # step of phi(y/v) at v ~ |y| must be resolved down to tiny |y|
        y = np.array([1e-12, 1e-9, 1e-7])
        want = center_height(kappa) - y / gamma_fn(1.0 - kappa)
        assert_allclose(NmlLaw(0.0, 1.0, kappa).density(-y), want, rtol=0, atol=2e-13)

    def test_laplace_limit_center(self):
        got = NmlLaw(0.0, 1.0, 1e-3).density(0.0)
        assert_allclose(got, center_height(1e-3), atol=1e-7)
        assert abs(got - 1.0 / np.sqrt(2.0)) < 1e-3

    def test_location_scale(self):
        got = NmlLaw(2.0, 4.0, 0.5).density(2.0)
        assert_allclose(got, 0.5 * center_height(0.5), atol=1e-9)
        assert_allclose(got, 0.2885, atol=5e-5)

    def test_against_reference(self, reference):
        for kappa, y, want in reference["nml"] + reference["nml_high_kappa"]:
            got = NmlLaw(0.0, 1.0, kappa).density(y)
            assert_allclose(got, want, rtol=1e-10, err_msg=f"kappa={kappa}, y={y}")

    def test_far_tail_against_reference(self, reference):
        for kappa, y, want in reference["nml_tail"]:
            for sign in (1.0, -1.0):
                got = np.log(NmlLaw(0.0, 1.0, kappa).density(sign * y))
                assert_allclose(got, want, rtol=1e-9, err_msg=f"kappa={kappa}, y={y}")

    def test_near_one_against_reference(self, reference):
        for kappa, y, want in reference["nml_near_one"]:
            for sign in (1.0, -1.0):
                got = np.log(NmlLaw(0.0, 1.0, kappa).density(sign * y))
                assert_allclose(got, want, rtol=1e-9, err_msg=f"kappa={kappa}, y={y}")

    def test_kappa_limit(self):
        # the mixture holds its center up to kappa 1 - 2**-53, where the
        # mixing density is a spike ~1e-8 wide
        for kappa in (1.0 - 1e-6, 1.0 - 1e-7, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0**-53):
            got = NmlLaw(0.0, 1.0, kappa).density(0.0)
            assert_allclose(got, center_height(kappa), rtol=1e-12, err_msg=f"kappa={kappa}")

    @pytest.mark.parametrize("kappa", [1e-3, 0.3, 0.5, 0.9, 0.99, 0.995, 0.999, 0.9999])
    def test_far_tail_is_a_density(self, kappa):
        half = np.geomspace(1e-3, 1e3, 61)
        f = NmlLaw(0.0, 1.0, kappa).density(np.concatenate((-half[::-1], [0.0], half)))
        assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
        assert np.array_equal(f, f[::-1])
        # nonincreasing in |y| until it underflows
        assert np.all(np.diff(f[61:]) <= 0.0)

    def test_non_finite_arguments(self):
        # a NaN stays NaN; |y| = inf lies past the far tail, where f is 0
        got = NmlLaw(0.0, 1.0, 0.5).density([np.nan, np.inf, -np.inf])
        assert np.isnan(got[0])
        assert np.array_equal(got[1:], [0.0, 0.0])

    def test_symmetry(self):
        law = NmlLaw(0.0, 1.0, 0.6)
        x = np.linspace(0.1, 8.0, 40)
        assert_allclose(law.density(x), law.density(-x), rtol=1e-12)

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8, 1.0])
    def test_normalization(self, kappa):
        law = NmlLaw(0.0, 1.0, kappa)
        x = np.linspace(0.0, 16.0, 8001)
        f = law.density(x)
        total = 2.0 * np.trapezoid(f, x) - 0.0
        assert abs(total - 1.0) <= 1e-6

    def test_normal_grid(self):
        x = np.arange(-4.0, 4.0 + 1e-12, 0.01)
        got = NmlLaw(0.0, 1.0, 1.0).density(x)
        ref = np.exp(-x * x / 2.0) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(got - ref)) <= 1e-8

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8])
    def test_characteristic_function_consistency(self, kappa):
        # cosine transform of the quadrature density recovers E_k(-s^2/2)
        law = NmlLaw(0.0, 1.0, kappa)
        x = np.linspace(0.0, 16.0, 8001)
        f = law.density(x)
        for s in np.linspace(0.0, 5.0, 11):
            cf = 2.0 * np.trapezoid(np.cos(s * x) * f, x)
            assert abs(cf - mittag_leffler(kappa, -s * s / 2.0)) <= 1e-5

    def test_mixture_equivalence_half(self):
        # independent route: integrate the normal kernel against the
        # closed-form mixing density exp(-u^2/4)/sqrt(pi); the substitution
        # u = w^2 removes the 1/sqrt(u) endpoint singularity of the kernel
        xg, wg = roots_legendre(24)
        edges = np.linspace(0.0, 8.0, 81)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        w_nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        weights = (half[:, None] * wg[None, :]).ravel()
        law = NmlLaw(0.0, 1.0, 0.5)
        with np.errstate(divide="ignore"):
            for y in np.linspace(-6.0, 6.0, 25):
                integrand = (
                    np.sqrt(2.0 / np.pi)
                    * np.exp(-y * y / (2.0 * w_nodes**2))
                    * np.exp(-(w_nodes**4) / 4.0)
                    / np.sqrt(np.pi)
                )
                oracle = float(np.nan_to_num(integrand) @ weights)
                assert abs(law.density(y) - oracle) <= 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            NmlLaw(0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            NmlLaw(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            NmlLaw(np.inf, 1.0, 0.5)
        with pytest.raises(DomainError, match="scalar"):
            NmlLaw(0.0, 1.0, [0.5, 0.6])


class TestMoments:
    def test_second_moment_is_variance(self):
        assert_allclose(NmlLaw(0.0, 1.0, 0.5).moment(2), 1.1283791670955126, rtol=1e-12)

    def test_odd_moments_vanish_at_zero_location(self):
        law = NmlLaw(0.0, 2.0, 0.4)
        for n in (1, 3, 5, 7):
            assert law.moment(n) == 0.0

    def test_fourth_moment_formula(self):
        got = NmlLaw(0.5, 1.0, 0.3).moment(4)
        want = 6 * 0.25 / gamma_fn(1.3) + 6.0 / gamma_fn(1.6) + 0.5**4
        assert_allclose(got, want, rtol=1e-12)

    def test_fourth_moment_against_simulation(self):
        law = NmlLaw(0.5, 1.0, 0.3)
        n = 2_000_000
        draws = law.sample(RngStream(8), n)
        vals = draws**4
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - law.moment(4)) <= 4 * se

    def test_moment_consistency_with_cumulants(self):
        law = NmlLaw(0.7, 2.3, 0.6)
        mean, var, _, _ = law.cumulants()
        assert_allclose(law.moment(1), mean, rtol=1e-12)
        assert_allclose(law.moment(2) - law.moment(1) ** 2, var, rtol=1e-10)

    def test_moment_domain(self):
        with pytest.raises(DomainError):
            NmlLaw(0.0, 1.0, 0.5).moment(0)


class TestCumulants:
    def test_normal_case(self):
        mean, var, skew, kurt = NmlLaw(0.25, 2.0, 1.0).cumulants()
        assert (mean, var, skew) == (0.25, 2.0, 0.0)
        assert abs(kurt) < 1e-14

    def test_laplace_limit(self):
        _, _, _, kurt = NmlLaw(0.0, 1.0, 1e-6).cumulants()
        assert abs(kurt - 3.0) < 1e-4

    def test_variance_peak(self):
        _, var, _, _ = NmlLaw(0.0, 1.0, 0.4616).cumulants()
        assert abs(var - 1.1292) < 1e-4

    def test_half_kappa_kurtosis(self):
        _, _, _, kurt = NmlLaw(0.0, 1.0, 0.5).cumulants()
        assert_allclose(kurt, 6.0 * np.pi / 4.0 - 3.0, rtol=1e-12)


class TestSampler:
    def test_normal_case_ks(self):
        from scipy.special import ndtr

        n = 100_000
        draws = NmlLaw(0.5, 2.0, 1.0).sample(RngStream(41), n)
        z = np.sort((draws - 0.5) / np.sqrt(2.0))
        cdf = ndtr(z)
        upper = np.arange(1, n + 1) / n - cdf
        lower = cdf - np.arange(0, n) / n
        ks = max(upper.max(), lower.max())
        assert ks <= kolmogi(0.001) / np.sqrt(n)

    def test_variance_matches_cumulant(self):
        law = NmlLaw(0.5, 1.0, 0.8)
        n = 400_000
        draws = law.sample(RngStream(42), n)
        var = law.cumulants()[1]
        centered = draws - draws.mean()
        se = np.sqrt((np.mean(centered**4) - var**2) / n)
        assert abs(draws.var(ddof=1) - var) <= 4 * se

    def test_excess_kurtosis(self):
        law = NmlLaw(0.0, 1.0, 0.5)
        n = 1_000_000
        draws = law.sample(RngStream(43), n)
        centered = draws - draws.mean()
        var = centered.var()
        kurt = np.mean(centered**4) / var**2 - 3.0
        assert abs(kurt - 1.7123889803846897) <= 0.05

    def test_reproducibility(self):
        a = NmlLaw(0.0, 1.0, 0.5).sample(RngStream(9, 1), 64)
        b = NmlLaw(0.0, 1.0, 0.5).sample(RngStream(9, 1), 64)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kappa", [0.3, 0.999, 1.0])
    def test_draws_theta_then_w_then_z(self, kappa):
        # the stable transformation and the normal mixture written out with
        # the variates the sampler draws, in its order
        law = NmlLaw(-1.5, 2.5, kappa)
        gen = RngStream(9, 2).generator
        u = np.ones(50)
        if kappa < 1.0:
            theta = gen.uniform(0.0, np.pi, 50)
            w = gen.standard_exponential(50)
            a = (np.sin(kappa * theta) / np.sin(theta)) ** (1.0 / (1.0 - kappa)) * (
                np.sin((1.0 - kappa) * theta) / np.sin(kappa * theta)
            )
            u = (w / a) ** (1.0 - kappa)
        want = -1.5 + np.sqrt(2.5) * np.sqrt(u) * gen.standard_normal(50)
        got = law.sample(RngStream(9, 2), 50)
        # A(theta) is formed in logs, so U agrees to rounding, Z exactly
        assert_allclose(got, want, rtol=1e-12 if kappa < 0.99 else 1e-9)
