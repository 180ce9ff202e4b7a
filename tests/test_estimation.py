from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma as gamma_fn

from fpsum.distributions import NmlLaw, RngStream
from fpsum.errors import DomainError, EstimationError
from fpsum.estimation import (
    KAPPA_FLOOR,
    BoundaryFlag,
    MomentSummary,
    asymptotic_covariance,
    fitted_cumulants,
    h,
    h_inverse,
    h_prime,
    mm_fit,
    moment_covariance,
    moment_map_gradient,
    population_moments,
)


class TestH:
    def test_values(self):
        assert_allclose(h(1.0), 0.5, rtol=1e-14)
        assert_allclose(h(0.5), np.pi / 4.0, rtol=1e-13)
        assert_allclose(h(1e-8), 1.0, atol=1e-7)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.01, 1.0, 200)
        vals = h(grid)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0.5 - 1e-12)
        assert np.all(vals < 1.0)

    def test_prime_value_at_one(self):
        assert_allclose(h_prime(1.0), -0.5, rtol=1e-12)

    def test_prime_negative(self):
        grid = np.arange(0.1, 1.0 + 1e-9, 0.1)
        assert np.all(h_prime(grid) < 0)

    def test_prime_matches_finite_difference(self):
        step = 1e-6
        for kappa in (0.3, 0.55, 0.9):
            fd = (h(kappa + step) - h(kappa - step)) / (2 * step)
            assert_allclose(h_prime(kappa), fd, rtol=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            h(0.0)
        with pytest.raises(DomainError):
            h_prime(1.5)
        for bad in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(DomainError):
                h(bad)
            with pytest.raises(DomainError):
                h_prime(bad)


class TestHInverse:
    def test_interior_values(self):
        kappa, flag = h_inverse(0.5)
        assert kappa == 1.0 and flag is BoundaryFlag.INTERIOR
        kappa, flag = h_inverse(np.pi / 4.0)
        assert_allclose(kappa, 0.5, atol=1e-10)
        assert flag is BoundaryFlag.INTERIOR

    def test_clamping(self):
        kappa, flag = h_inverse(0.45)
        assert kappa == 1.0 and flag is BoundaryFlag.CLAMPED_HIGH
        kappa, flag = h_inverse(1.2)
        assert kappa == 1e-6 and flag is BoundaryFlag.CLAMPED_LOW

    def test_roundtrip(self):
        for kappa in np.arange(0.05, 1.0 + 1e-9, 0.05):
            back, flag = h_inverse(h(kappa))
            assert flag is BoundaryFlag.INTERIOR
            assert abs(back - kappa) <= 1e-10

    def test_residual_tolerance(self):
        for omega in np.linspace(0.51, 0.99, 25):
            kappa, _ = h_inverse(omega)
            assert abs(h(kappa) - omega) <= 1e-12

    def test_never_leaves_unit_interval(self):
        omegas = [0.2, 0.5, 0.5000001, 0.75, 0.999999, 1.0, 37.0]
        scalar = [h_inverse(omega) for omega in omegas]
        for kappa, _ in scalar:
            assert 0.0 < kappa <= 1.0
        kappas, flags = h_inverse(np.array(omegas))
        assert kappas.shape == flags.shape == (len(omegas),)
        assert np.all((kappas > 0.0) & (kappas <= 1.0))
        assert list(flags) == [flag for _, flag in scalar]
        for omega, kappa, flag in zip(omegas, kappas, flags):
            if flag is BoundaryFlag.INTERIOR:
                assert abs(h(kappa) - omega) <= 1e-12
        with pytest.raises(DomainError):
            h_inverse(np.array([0.6, np.nan, 0.7]))

    def test_against_reference(self, reference):
        """mpmath roots of h(k) = omega at the double omega, kappa 1e-5 to 1;
        h's rounding near 0, ~eps against (pi^2/6) kappa^2, sets the
        1e-15/kappa^2 term."""
        for omega, root in reference["h_inverse"]:
            kappa, flag = h_inverse(omega)
            assert flag is BoundaryFlag.INTERIOR
            if root < KAPPA_FLOOR:
                assert kappa == KAPPA_FLOOR, omega
            else:
                assert abs(kappa - root) <= (1e-13 + 1e-15 / root**2) * root, omega


class TestMmFit:
    def test_gaussian_moments(self):
        fit = mm_fit(MomentSummary(n=100, m1=0.0, m2=1.0, m4=3.0))
        assert fit.mu_hat == 0.0
        assert_allclose(fit.sigma2_hat, 1.0, rtol=1e-12)
        assert fit.kappa_hat == 1.0
        assert fit.boundary_flag is BoundaryFlag.INTERIOR
        assert_allclose(fit.kurtosis_statistic, 0.5, rtol=1e-14)

    def test_half_kappa_closed_form(self):
        fit = mm_fit(MomentSummary(n=100, m1=0.0, m2=1.0, m4=6.0 * np.pi / 4.0))
        assert_allclose(fit.kappa_hat, 0.5, atol=1e-9)
        assert_allclose(fit.sigma2_hat, gamma_fn(1.5), rtol=1e-9)

    def test_degenerate_sample(self):
        with pytest.raises(EstimationError, match="degenerate"):
            mm_fit(MomentSummary(n=10, m1=2.0, m2=4.0, m4=16.0))

    def test_clamped_fit_suppresses_kappa_se(self):
        fit = mm_fit(MomentSummary(n=50, m1=0.0, m2=1.0, m4=2.7))  # omega < 1/2
        assert fit.boundary_flag is BoundaryFlag.CLAMPED_HIGH
        assert np.isnan(fit.se[2])
        assert np.isfinite(fit.se[:2]).all()
        # at the lower clamp h' -> 0, so the delta-method se[sigma2] goes too
        fit = mm_fit(MomentSummary(n=50, m1=0.3, m2=1.0, m4=9.0))  # omega >= 1
        assert fit.boundary_flag is BoundaryFlag.CLAMPED_LOW
        assert np.isnan(fit.se[1:]).all()
        assert np.isfinite(fit.se[0])

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8])
    def test_plugin_consistency(self, kappa):
        m1, m2, m4 = population_moments(0.25, 1.7, kappa)
        fit = mm_fit(MomentSummary(n=1000, m1=m1, m2=m2, m4=m4))
        assert abs(fit.mu_hat - 0.25) <= 1e-9
        assert abs(fit.sigma2_hat - 1.7) <= 1e-9
        assert abs(fit.kappa_hat - kappa) <= 1e-9

    def test_equivariance_power_of_two_scale(self):
        values = NmlLaw(0.5, 1.0, 0.6).sample(RngStream(77), 4096)
        base = mm_fit(MomentSummary.from_sample(values))
        scaled = mm_fit(MomentSummary.from_sample(4.0 * values))
        assert scaled.mu_hat == 4.0 * base.mu_hat
        assert scaled.sigma2_hat == 16.0 * base.sigma2_hat
        assert scaled.kappa_hat == base.kappa_hat

    def test_equivariance_general_scale(self):
        values = NmlLaw(0.5, 1.0, 0.6).sample(RngStream(78), 4096)
        base = mm_fit(MomentSummary.from_sample(values))
        moved = mm_fit(MomentSummary.from_sample(1.7 * values))
        assert_allclose(moved.mu_hat, 1.7 * base.mu_hat, rtol=1e-12)
        assert_allclose(moved.sigma2_hat, 1.7**2 * base.sigma2_hat, rtol=1e-10)
        assert_allclose(moved.kappa_hat, base.kappa_hat, atol=1e-10)

    def test_location_shift_moves_kurtosis_statistic_by_skew_term(self):
        # the kurtosis statistic equals (c4 + 4 m1 c3)/(6 c2^2) in central
        # moments, so a shift by b changes it by exactly 4 (b/a) c3 / (6 c2^2)
        values = NmlLaw(0.5, 1.0, 0.6).sample(RngStream(78), 4096)
        a, b = 1.6, 0.7
        base = mm_fit(MomentSummary.from_sample(values))
        moved = mm_fit(MomentSummary.from_sample(a * values + b))
        c = values - values.mean()
        c2 = float((c**2).mean())
        c3 = float((c**3).mean())
        predicted = 4.0 * (b / a) * c3 / (6.0 * c2**2)
        got = moved.kurtosis_statistic - base.kurtosis_statistic
        assert_allclose(got, predicted, rtol=1e-5)
        assert_allclose(moved.mu_hat, a * base.mu_hat + b, rtol=1e-10)

    def test_kurtosis_statistic_survives_large_offset(self):
        # raw moments cancel catastrophically here (at offset 1000, omega =
        # -24706, clamped high; at 1e8 the summary itself was rejected); the
        # centered form c4 + 4 m1 c3 keeps the statistic's value
        x = NmlLaw(0.0, 1.0, 0.5).sample(RngStream(1), 2000)
        for offset, scale in ((1000.0, 0.01), (1e8, 1e-3)):
            values = offset + scale * x
            exact = [Fraction(v) for v in values]
            mean = sum(exact) / len(exact)
            central = {k: sum((v - mean) ** k for v in exact) / len(exact) for k in (2, 3, 4)}
            want = float((central[4] + 4 * mean * central[3]) / (6 * central[2] ** 2))
            fit = mm_fit(MomentSummary.from_sample(values))
            assert fit.boundary_flag is BoundaryFlag.CLAMPED_LOW
            assert_allclose(fit.kurtosis_statistic, want, rtol=1e-10)

    def test_moment_summary_invariants(self):
        with pytest.raises(DomainError):
            MomentSummary(n=5, m1=2.0, m2=1.0, m4=9.0)
        with pytest.raises(DomainError):
            MomentSummary(n=5, m1=0.0, m2=2.0, m4=1.0)
        with pytest.raises(DomainError):
            MomentSummary(n=0, m1=0.0, m2=1.0, m4=3.0)
        # a summary given its centered pair is checked on that pair alone
        MomentSummary(n=5, m1=1e8, m2=1e16, m4=1e32, variance=1e-6, kurtosis_numerator=-1.0)
        with pytest.raises(DomainError):
            MomentSummary(n=5, m1=0.0, m2=1.0, m4=3.0, variance=-1e-9, kurtosis_numerator=3.0)
        with pytest.raises(DomainError):
            MomentSummary(n=5, m1=0.0, m2=1.0, m4=3.0, variance=1.0, kurtosis_numerator=np.nan)


class TestCovariance:
    def test_gaussian_special_case(self):
        cov = moment_covariance(0.0, 1.0, 1.0)
        assert_allclose(np.diag(cov), [1.0, 2.0, 96.0], atol=1e-10)

    def test_symmetry_and_positive_diagonal(self):
        for mu, s2, kappa in [(0.5, 1.0, 0.8), (-0.2, 2.5, 0.35), (0.0, 1.0, 0.6)]:
            cov = moment_covariance(mu, s2, kappa)
            assert_allclose(cov, cov.T, rtol=1e-14)
            assert np.all(np.diag(cov) > 0)
            avar = asymptotic_covariance(mu, s2, kappa)
            assert_allclose(avar, avar.T, rtol=1e-12)
            assert np.all(np.diag(avar) >= 0)

    def test_monte_carlo_moment_covariance(self):
        # empirical covariance of sqrt(n)-scaled sample moments vs closed form
        mu, s2, kappa, n, reps = 0.5, 1.0, 0.8, 2000, 5000
        law = NmlLaw(mu, s2, kappa)
        draws = law.sample(RngStream(4242), reps * n).reshape(reps, n)
        stats = np.stack(
            [draws.mean(axis=1), (draws**2).mean(axis=1), (draws**4).mean(axis=1)],
            axis=1,
        )
        emp = np.cov(stats.T, ddof=1) * n
        want = moment_covariance(mu, s2, kappa)
        mc_se = np.sqrt(
            (np.outer(np.diag(want), np.diag(want)) + want**2) / reps
        )
        assert np.all(np.abs(emp - want) <= np.maximum(0.05 * np.abs(want), 3.0 * mc_se))

    @pytest.mark.parametrize(
        "point", [(0.5, 1.0, 0.6), (0.2, 2.0, 0.4), (-0.3, 0.5, 0.8)]
    )
    def test_gradient_matches_finite_difference(self, point):
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
        assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)) <= 1e-6

    @pytest.mark.parametrize("point", [(1e4, 1.0, 0.5), (1e8, 1e-6, 0.5)])
    def test_gradient_refuses_rounding_dominated_point(self, point):
        # raw moments far from the origin: at 1e4 the kappa row came back as
        # ~(-3e17, 2e13, -4e4) and at 1e8 as a "degenerate moment point"
        with pytest.raises(EstimationError, match="rounding swamps"):
            moment_map_gradient(*population_moments(*point))

    @pytest.mark.parametrize("point", [(0.5, 1.0, 0.8), (-0.3, 0.5, 0.3), (2.0, 0.3, 0.05)])
    def test_matches_raw_moment_delta_method(self, point):
        # reference: grad_g Sigma grad_g^T in the raw moments (M1, M2, M4);
        # its gradient re-inverts h, to |h - omega| <= 1e-12, hence the rtol
        grad = moment_map_gradient(*population_moments(*point))
        raw = grad @ moment_covariance(*point) @ grad.T
        assert_allclose(asymptotic_covariance(*point), raw, rtol=1e-9)

    def test_theoretical_se_at_table_corner(self):
        avar = asymptotic_covariance(0.5, 1.0, 0.8)
        se = np.sqrt(np.diag(avar) / 2000.0)
        assert abs(se[2] - 0.0717) <= 0.005
        assert abs(se[0] - 0.0232) <= 0.002


class TestFittedCumulants:
    def test_normal_boundary(self):
        fit = mm_fit(MomentSummary(n=100, m1=0.0, m2=1.0, m4=3.0))
        cum = fitted_cumulants(fit)
        assert cum.excess_kurtosis == pytest.approx(0.0, abs=1e-14)
        assert cum.skewness == 0.0

    def test_market_scale_parameters(self):
        fit = mm_fit(
            MomentSummary(
                n=2226,
                m1=0.00021,
                m2=0.00021**2 + 0.00018 / gamma_fn(1.49123),
                m4=0.00021**4
                + 6 * 0.00021**2 * 0.00018 / gamma_fn(1.49123)
                + 6 * 0.00018**2 / gamma_fn(1.98246),
            )
        )
        cum = fitted_cumulants(fit)
        assert abs(cum.variance - 0.00020) <= 5e-6
        assert abs(cum.excess_kurtosis - 1.74430) <= 5e-4

    def test_skewness_always_zero(self):
        fit = mm_fit(MomentSummary(n=64, m1=0.1, m2=1.2, m4=5.5))
        assert fitted_cumulants(fit).skewness == 0.0
