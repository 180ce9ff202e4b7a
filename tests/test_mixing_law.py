import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma, roots_legendre

from fpsum.distributions import (
    _ML_SERIES_EXPONENT_BUDGET,
    MittagLefflerLaw,
    RngStream,
    _mixing_nodes,
    _mixing_rows,
    _nml_rows,
)
from fpsum.errors import DomainError, EvaluationError
from fpsum.special_functions import _kanter_log, _mixing_density_log, mittag_leffler

_SAMPLER_KAPPAS = [1e-3, 0.05, 0.3, 0.5, 0.8, 0.97, 1.0 - 1e-9]


class _ZeroAngleGenerator:
    """Stands in for a numpy Generator whose uniform draws are all 0.0, a
    possible draw; its exponential and normal draws are fixed."""

    def __init__(self, w, z):
        self.w, self.z = w, z

    def random(self, out):
        out[:] = 0.0

    def standard_exponential(self, out):
        out[:] = self.w

    def standard_normal(self, out):
        out[:] = self.z


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

    def test_near_one_against_reference(self, reference):
        # past u ~ 1 the series does not converge there, and the stable
        # integral must resolve its spike
        for kappa, u, want in reference["mixing_near_one"]:
            got = MittagLefflerLaw(kappa).density(u)
            assert_allclose(got, want, rtol=1e-9, err_msg=f"kappa={kappa}, u={u}")

    def test_seams_against_reference(self, reference):
        # 2 % to either side of the exponent budget where the series hands
        # the density to the stable integral; the routes agree to ~1e-12
        rows = reference["mixing_seams"]
        exponents = [(1 - k) * k ** (k / (1 - k)) * u ** (1 / (1 - k)) for k, u, _ in rows]
        assert [e < _ML_SERIES_EXPONENT_BUDGET for e in exponents] == [True, False] * 4
        for kappa, u, want in rows:
            got = MittagLefflerLaw(kappa).density(u)
            assert_allclose(got, want, rtol=1e-11, err_msg=f"kappa={kappa}, u={u}")

    def test_log_form_against_reference(self, reference):
        # the stable integral on its own, also where the density takes the
        # series, as at small u near kappa 1
        rows = reference["mixing"] + reference["mixing_high_kappa"] + reference["mixing_near_one"]
        for kappa, u, want in rows:
            got = _mixing_density_log(kappa, np.log([u]))[0]
            assert_allclose(got, np.log(want), rtol=0, atol=1e-9, err_msg=f"kappa={kappa}, u={u}")

    @pytest.mark.parametrize("kappa", [1e-3, 0.01])
    def test_log_form_meets_series_at_small_kappa(self, kappa):
        # A is flat up to pi - t ~ kappa there, so one level of the split
        # can span most of (0, pi); the series is exact at these u
        u = np.array([0.5, 1.0, 2.0])
        assert_allclose(
            np.exp(_mixing_density_log(kappa, np.log(u))), MittagLefflerLaw(kappa).density(u), rtol=1e-12
        )

    @pytest.mark.parametrize("kappa", [0.99, 0.995, 0.999])
    def test_mass_and_mean_near_one(self, kappa):
        # the mass sits within a few sd of the mean, over a long left tail
        mean = 1.0 / gamma(1.0 + kappa)
        sd = math.sqrt(2.0 / gamma(1.0 + 2.0 * kappa) - mean * mean)
        edges = np.concatenate(
            (np.linspace(0.0, mean - 8.0 * sd, 100), np.linspace(mean - 8.0 * sd, mean + 8.0 * sd, 400)[1:])
        )
        xg, wg = roots_legendre(16)
        mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
        u, w = (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()
        with np.errstate(under="ignore"):
            g = MittagLefflerLaw(kappa).density(u)
        assert abs(w @ g - 1.0) <= 1e-9
        assert abs(w @ (u * g) - mean) <= 1e-9

    def test_split_oracle_reproduces_reference(self, reference, make_reference):
        rows = reference["mixing_near_one"]
        for kappa, u, want in (rows[3], rows[-1]):
            got = float(make_reference.mixing_density_split_mp(kappa, u))
            assert_allclose(got, want, rtol=1e-15, err_msg=f"kappa={kappa}, u={u}")

    def test_unresolved_arguments_raise(self):
        # the spike of the stable integral moves to within 1e-300 of pi as
        # u -> 0; near kappa 1 it stays resolved
        with pytest.raises(EvaluationError):
            _mixing_density_log(0.5, np.log([1e-305]))
        for kappa in (1.0 - 1e-6, 1.0 - 1e-7, 1.0 - 2.0**-53):
            assert np.isfinite(_mixing_density_log(kappa, np.log([1.0])))
            assert MittagLefflerLaw(kappa).density(1.0) > 0.0

    def test_tight_near_one_against_reference(self, reference):
        # at 1 - k = 1e-7 and 1e-9, against an oracle that reads kappa and u
        # as the doubles the library is given.  On the spike's left flank,
        # u 0.999 and 0.9999, the stable integral divides log u + V by 1 - k
        # where V ~ -log u is rounded to its relative precision: a floor of
        # eps |log u| / (1 - k), 2.2e-10 at 1 - k = 1e-9 and u = 0.999
        for kappa, u, want in reference["near_one_tight"]:
            rtol = 1e-12
            if u in (0.999, 0.9999):
                rtol += np.finfo(float).eps * abs(math.log(u)) / (1.0 - kappa)
            got = MittagLefflerLaw(kappa).density(u)
            assert_allclose(got, want, rtol=rtol, err_msg=f"kappa={kappa}, u={u}")

    def test_log_form_meets_series_near_one(self):
        # the stable integral alone, at a point the series answers, within
        # the rounding floor of the left flank (6.5 % low before V)
        kappa, u = 1.0 - 1e-6, np.array([0.5])
        rtol = 1e-12 + np.finfo(float).eps * abs(math.log(0.5)) / (1.0 - kappa)
        assert_allclose(
            np.exp(_mixing_density_log(kappa, np.log(u))), MittagLefflerLaw(kappa).density(u),
            rtol=rtol,
        )

    @pytest.mark.parametrize("kappa", [1.0 - 1e-7, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0**-53])
    def test_level_zero_mass_and_mean_near_one(self, kappa):
        # the quadrature nodes of the NML density and the FP pmf hold the
        # spike: its mass and mean, within ~1e-8 of u = 1
        log_u, log_wg = _mixing_nodes(kappa)
        wg = np.exp(log_wg)
        assert abs(wg.sum() - 1.0) <= 1e-13
        assert abs(np.exp(log_u) @ wg * gamma(1.0 + kappa) - 1.0) <= 1e-13

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

    @pytest.mark.parametrize("kappa", _SAMPLER_KAPPAS)
    def test_kanter_log_against_mpmath(self, kappa):
        # V = (1-k) log A(theta) at 29 angles over (0, pi), to 1e-12 of
        # both ends, against 150-bit mpmath at the exact theta = 2*half
        ends = np.array([1e-12, 1e-9, 1e-6, 1e-3])
        theta = np.concatenate((ends, np.linspace(0.01, np.pi - 0.01, 21), np.pi - ends[::-1]))
        half = theta / 2.0
        got = _kanter_log(kappa, half)
        with mpmath.workprec(150):
            k = mpmath.mpf(kappa)

            def v(h):
                t = 2 * mpmath.mpf(h)
                return (k * mpmath.log(mpmath.sin(k * t))
                        + (1 - k) * mpmath.log(mpmath.sin((1 - k) * t))
                        - mpmath.log(mpmath.sin(t)))

            want = np.array([float(v(h)) for h in half.tolist()])
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("kappa", _SAMPLER_KAPPAS)
    def test_zero_angle_draw_takes_the_limit(self, kappa):
        # Theta = 0: U = W**(1-k) / (k**k (1-k)**(1-k)), with no warning
        w = np.array([1e-3, 0.5, 1.0, 2.0, 30.0])
        z = np.array([-1.5, 0.25, 1.0, -0.5, 2.0])
        c = 1.0 - kappa
        want = np.exp(c * np.log(w) - kappa * math.log(kappa) - c * math.log(c))
        got = _mixing_rows(kappa, [_ZeroAngleGenerator(w, z)], w.size)
        assert_allclose(got[0], want, rtol=5e-15, atol=0.0)
        got = _nml_rows(kappa, -1.5, 2.5, [_ZeroAngleGenerator(w, z)], w.size)
        assert_allclose(got[0], -1.5 + 2.5 * np.sqrt(want) * z, rtol=5e-15, atol=0.0)
