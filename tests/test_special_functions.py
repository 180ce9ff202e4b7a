import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erfc, gammaln, psi

from fpsum.errors import DomainError, EvaluationError
from fpsum import special_functions
from fpsum.special_functions import (
    _GL_ORDER,
    _POSITIVE_SERIES_EXPONENT_MAX,
    _SERIES_BLOCK,
    _SERIES_EXPONENT_BUDGET,
    _digamma,
    _legendre,
    _log_gamma,
    _series_many,
    _series_one,
    _sum_series,
    mittag_leffler,
)


def _check_both_doors(rows, rtol):
    """Oracle rows [kappa, z, E_k(z)] one value at a time, which takes the
    one-value door, then each kappa's rows as one array call."""
    by_kappa = {}
    for kappa, z, want in rows:
        assert_allclose(mittag_leffler(kappa, z), want, rtol=rtol, err_msg=f"kappa={kappa}, z={z}")
        by_kappa.setdefault(kappa, []).append((z, want))
    for kappa, points in by_kappa.items():
        z, want = np.array(points).T
        assert z.size > 1, "the array door needs more than one value"
        assert_allclose(mittag_leffler(kappa, z), want, rtol=rtol, err_msg=f"kappa={kappa}")


class TestMittagLeffler:
    def test_exp_special_case(self):
        assert_allclose(mittag_leffler(1.0, -0.5), np.exp(-0.5), rtol=1e-14)

    def test_at_zero(self):
        assert mittag_leffler(0.7, 0.0) == 1.0

    def test_half_closed_form(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z)
        assert_allclose(mittag_leffler(0.5, -1.0), np.e * erfc(1.0), rtol=1e-12)
        for z in [-9.0, -3.0, -0.2, 0.7, 2.0]:
            assert_allclose(
                mittag_leffler(0.5, z), np.exp(z * z) * erfc(-z), rtol=1e-11
            )

    def test_against_reference(self, reference):
        _check_both_doors(reference["ml"], 1e-11)

    def test_positive_against_reference(self, reference):
        _check_both_doors(reference["ml_pos"], 1e-10)

    def test_positive_small_kappa_against_reference(self, reference):
        # both sides of the series' convergence limit and of x**(1/k) = 15
        _check_both_doors(reference["ml_pos_small_kappa"], 1e-12)

    def test_seams_against_reference(self, reference):
        # both sides of every seam of the branch dispatch
        _check_both_doors(reference["ml_seams"], 1e-11)

    def test_series_seams_against_reference(self, reference):
        # 1 and 2 % to either side of the series budget on the negative axis
        _check_both_doors(reference["ml_series_seams"], 1e-13)

    def test_near_one_against_reference(self, reference):
        # the cut integral where 1/D has a narrow pole, up to kappa 1 - 1e-9,
        # and both sides of the asymptotic threshold
        _check_both_doors(reference["ml_near_one"], 1e-13)

    @pytest.mark.parametrize("kappa, z", [(0.2, 5.0), (1.0, 800.0)])
    def test_positive_overflow_is_inf(self, kappa, z):
        # silently: a RuntimeWarning is an error in this suite
        assert mittag_leffler(kappa, z) == np.inf
        assert np.all(mittag_leffler(kappa, np.array([z, z])) == np.inf)

    def test_kappa_one_reduction_sup(self):
        z = np.linspace(-10.0, 2.0, 481)
        got = mittag_leffler(1.0, z)
        ref = np.exp(z)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10

    @pytest.mark.parametrize("kappa", [round(0.1 * k, 1) for k in range(1, 11)])
    def test_complete_monotonicity_grid(self, kappa):
        z = np.linspace(-40.0, 0.0, 401)
        vals = np.atleast_1d(mittag_leffler(kappa, z))
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= 0.0)  # nonincreasing in |z|

    @pytest.mark.parametrize("kappa", [0.6, 0.8, 1.0])
    def test_derivative_consistency(self, kappa):
        # termwise series derivative as the oracle, centered difference on
        # the evaluator
        def series_derivative(z):
            m = np.arange(1, 300)
            return float(np.sum(m * z ** (m - 1) * np.exp(-gammaln(kappa * m + 1))))

        step = 1e-6
        for z in np.linspace(-5.0, 1.0, 25):
            fd = (mittag_leffler(kappa, z + step) - mittag_leffler(kappa, z - step)) / (
                2 * step
            )
            assert_allclose(fd, series_derivative(z), rtol=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.5, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, np.inf)
        with pytest.raises(DomainError, match="scalar"):
            mittag_leffler(np.array([0.5, 0.6]), -1.0)

    @pytest.mark.parametrize("kappa", [0.5, 0.99, 1.0])
    def test_array_of_any_shape(self, kappa):
        # series, cut integral, expansion and lead - R in one 2-d array:
        # each value lands in its own place
        z = np.array([[-0.2, -3.0, -1e4], [20.0, -100.0, 0.5]])
        got = mittag_leffler(kappa, z)
        assert got.shape == z.shape
        assert np.array_equal(got.ravel(), mittag_leffler(kappa, z.ravel()))
        assert np.array_equal(mittag_leffler(kappa, z.T), got.T)

    def test_series_nonconvergence_names_branch(self, monkeypatch):
        monkeypatch.setattr(special_functions, "_ML_MAX_TERMS", 2)
        for z in (-0.2, np.array([-0.2]), np.array([-0.2, -0.1])):
            with pytest.raises(EvaluationError, match="series"):
                mittag_leffler(0.5, z)

    def test_branch_seams_are_smooth(self):
        # values on a fine grid spanning the series/integral/asymptotic
        # switches must decrease monotonically for negative arguments
        for kappa in (0.35, 0.5, 0.85, 0.999, 1 - 1e-9):
            z = -np.geomspace(0.5, 120.0, 4000)[::-1]
            vals = np.atleast_1d(mittag_leffler(kappa, z))
            assert np.all(np.diff(vals) >= -1e-15)


_PARITY_KAPPAS = [0.01, 0.05, 0.2, 0.35, 0.36, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6, 1.0]


def _parity_points(kappa):
    """z through every branch: both sides of the series region's bounds,
    a log grid on each axis, the expansion's hand-off points (its bound
    refuses x 50-70 at kappa 0.9 and 50-100 at 0.99) and the extremes."""
    seams = [f * b**kappa for b in (_SERIES_EXPONENT_BUDGET, _POSITIVE_SERIES_EXPONENT_MAX)
             for f in (0.99, 1.01)]
    grid = np.concatenate((np.geomspace(1e-3, 1e4, 57), seams, [0.25, 50.0, 60.0, 70.0, 100.0]))
    extremes = [0.0, -0.0, 1e-300, -1e-300, 1e20, -1e20, 1e300, -1e300]
    return np.concatenate((-grid, grid, extremes))


class TestOneValueDoor:
    """One value of z takes the one-value door; arrays of more values take
    the array kernels.  The two must agree, branch by branch."""

    @pytest.mark.parametrize("kappa", _PARITY_KAPPAS)
    def test_scalar_matches_array(self, kappa):
        z = _parity_points(kappa)
        array = mittag_leffler(kappa, z)
        scalar = np.array([mittag_leffler(kappa, v) for v in z.tolist()])
        assert np.array_equal(np.isinf(scalar), np.isinf(array))
        assert np.array_equal(scalar == 0.0, array == 0.0)
        # where the series converges, both doors sum the same terms: the
        # same bits.  Elsewhere a 1-value and an n-value product over the
        # cut integral's nodes may differ in the last bit, as may math.exp
        # and np.exp at kappa 1
        with np.errstate(over="ignore"):
            exponent = np.abs(z) ** (1.0 / kappa)
        series = np.where(z < 0, exponent <= _SERIES_EXPONENT_BUDGET,
                          exponent < _POSITIVE_SERIES_EXPONENT_MAX)
        summed = series & np.array([kappa < 1.0 and _series_one(kappa, v) is not None
                                    for v in z.tolist()])
        assert np.array_equal(scalar[summed], array[summed])
        finite = np.isfinite(array) & (array != 0.0) & ~summed
        s, a = scalar[finite], array[finite]
        assert np.all(np.abs(s - a) <= 1e-14 * np.abs(a))

    @pytest.mark.parametrize("kappa", _PARITY_KAPPAS)
    def test_one_value_takes_the_array_branch(self, kappa, monkeypatch):
        # the door and the two-value array [z, z] call the same kernels in
        # the same order; the two series kernels count as one
        calls = []
        for name, label in (("_series_one", "series"), ("_series_many", "series"),
                            ("_positive_rest", "lead - R"), ("_asymptotic_many", "expansion"),
                            ("_log_step_cut", "cut")):
            kernel = getattr(special_functions, name)

            def recorder(*args, _kernel=kernel, _label=label, **kwargs):
                calls.append(_label)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(special_functions, name, recorder)
        taken = {}
        for z in _parity_points(kappa).tolist():
            mittag_leffler(kappa, z)
            door, calls[:] = calls[:], []
            mittag_leffler(kappa, np.array([z, z]))
            assert door == calls, z
            taken[z], calls[:] = door, []
        if kappa == 1.0:
            assert not any(taken.values())
        # the hand-off points the expansion's bound refuses
        refused = {0.9: (-50.0, -60.0, -70.0), 0.99: (-50.0, -60.0, -70.0, -100.0)}
        for z in refused.get(kappa, ()):
            assert taken[z] == ["expansion", "cut"], z
        if kappa in refused:
            assert taken[-100.0 if kappa == 0.9 else -1e4] == ["expansion"]

    @pytest.mark.parametrize("kappa", [0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 0.95, 0.99])
    def test_series_paths_agree_bitwise(self, kappa):
        # the running power, the 1/Gamma factors and the left fold round
        # alike one term at a time and in blocks, on both axes and 1 %
        # to either side of both bounds of the series region
        seams = [f * b**kappa for b in (_SERIES_EXPONENT_BUDGET, _POSITIVE_SERIES_EXPONENT_MAX)
                 for f in (0.99, 1.01)]
        grid = np.concatenate((np.geomspace(1e-3, 15.0**kappa, 60), seams, [0.0, 1e-300]))
        z = np.concatenate((-grid, grid))
        many, failed = _series_many(kappa, z)
        converged = 0
        for v, value, gave_up in zip(z.tolist(), many.tolist(), failed.tolist()):
            one = _series_one(kappa, v)
            assert (one is None) == gave_up, v
            if one is not None:
                assert one == value, v
                converged += 1
        assert converged >= 60

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_domain_error(self, kappa, bad):
        for z in (bad, np.array([bad]), np.array([-1.0, bad])):
            with pytest.raises(DomainError, match="finite"):
                mittag_leffler(kappa, z)

    @pytest.mark.parametrize("kappa, z", [(0.5, -1.0), (0.5, -3.0), (0.5, 5.0), (1.0, 0.5)])
    def test_return_types(self, kappa, z):
        # series, cut integral, lead - R and kappa 1
        for scalar in (z, np.float64(z), np.array(z)):
            assert type(mittag_leffler(kappa, scalar)) is float
        for shape in [(1,), (1, 1)]:
            got = mittag_leffler(kappa, np.full(shape, z))
            assert isinstance(got, np.ndarray) and got.shape == shape
            assert got.item() == mittag_leffler(kappa, z)


def _per_term_loop(table, first, total, runs, tol, max_terms):
    """The series driver's stop rule, one row and one term at a time; returns
    (total, peak, unconverged, terms used) per row."""
    out = []
    for row, acc in zip(table, total):
        acc, peak, count = float(acc), 0.0, 0
        for used, j in enumerate(range(first, first + max_terms), start=1):
            term = float(row[j])
            acc += term
            peak = max(peak, abs(term))
            count = count + 1 if abs(term) <= tol * max(abs(acc), 1e-300) else 0
            if count >= runs:
                break
        out.append((acc, peak, count < runs, used))
    return out


class TestSeriesDriver:
    @staticmethod
    def _drive(table, first, total, runs, tol, max_terms):
        def terms(rows, j):
            return table[rows[:, None], j[None, :]]

        got = _sum_series(terms, first, np.asarray(total, dtype=float), runs, tol, max_terms)
        want = _per_term_loop(table, first, total, runs, tol, max_terms)
        for k, (w_total, w_peak, w_unconverged, _) in enumerate(want):
            assert got[0][k] == w_total
            assert got[1][k] == w_peak
            assert got[2][k] == w_unconverged
        return got, [w[3] for w in want]

    def test_exponential_series_is_a_left_fold(self):
        x = np.array([0.5, 1.0, -2.0, 3.0, 10.0])
        j = np.arange(120)
        table = x[:, None] ** j / np.exp(gammaln(j + 1.0))
        (total, _, unconverged), used = self._drive(table, 0, np.zeros(5), 2, 1e-16, 120)
        assert not unconverged.any()
        assert_allclose(total, np.exp(x), rtol=1e-14)
        # the 10.0 row needs more than one block
        assert max(used) > _SERIES_BLOCK

    def test_lone_zero_term_does_not_end_the_sum(self):
        # sin(pi*k*j) / j! at k = 1/2: every second term is exactly zero
        j = np.arange(40)
        table = (np.sin(np.pi * 0.5 * j) / np.exp(gammaln(j + 1.0)))[None, :]
        (total, _, _), used = self._drive(table, 1, [0.0], 2, 1e-15, 39)
        assert_allclose(total[0], np.sin(1.0), rtol=1e-15)
        assert used[0] > 2
        # a single small term would have stopped it at the first zero
        (total, _, _), used = self._drive(table, 1, [0.0], 1, 1e-15, 39)
        assert total[0] == 1.0 and used[0] == 2

    def test_unconverged_row_is_reported(self):
        # the harmonic series never has a small term; the geometric one does
        j = np.arange(1, 101, dtype=float)
        table = np.stack((1.0 / j, 0.5**j))
        (_, _, unconverged), used = self._drive(table, 0, [0.0, 0.0], 3, 1e-16, 100)
        assert list(unconverged) == [True, False]
        assert used[0] == 100

    def test_stops_inside_and_across_blocks(self):
        # row 0 stops inside the first block; row 1 has its run of small
        # terms start two terms before the block boundary, so the count must
        # carry into the next block (it stops at the fourth small term)
        n = 3 * _SERIES_BLOCK
        table = np.ones((2, n))
        table[0, 5:] = 1e-4 * np.arange(5, n)
        table[1, _SERIES_BLOCK - 2:] = 1e-4 * np.arange(_SERIES_BLOCK - 2, n)
        _, used = self._drive(table, 0, [0.0, 0.0], 4, 1e-3, n)
        assert used == [9, _SERIES_BLOCK + 2]


def _mp_legendre_rule(order):
    """Gauss-Legendre rule at 40 digits: Newton on P_n from the guesses
    cos(pi (i + 3/4) / (n + 1/2)), with P_n' = n (x P_n - P_{n-1}) / (x^2 - 1),
    and w = 2 (1 - x^2) / (n P_{n-1}(x))^2."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for i in reversed(range(order)):
            x = mpmath.cos(mpmath.pi * (i + 0.75) / (order + 0.5))
            for _ in range(12):
                p, q = mpmath.legendre(order, x), mpmath.legendre(order - 1, x)
                x -= p * (x * x - 1) / (order * (x * p - q))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x**2) / (order * mpmath.legendre(order - 1, x)) ** 2))
    return np.array(nodes), np.array(weights)


class TestKernels:
    """The math/numpy kernels against scipy.special and mpmath."""

    def test_log_gamma_against_scipy(self):
        # one row on [1, 3], one on [3, 3e5]: past 170 Stirling's series
        x = np.stack((np.linspace(1.0, 3.0, 4001), np.geomspace(3.0, 3e5, 4001)))
        got, want = _log_gamma(x), gammaln(x)
        assert got.shape == x.shape
        # an absolute error near the zeros of log Gamma at 1 and 2, relative
        # above; ~1e-15 measured, 4.5 ulps of 1
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() <= 2e-15

    def test_log_gamma_exact_at_small_integers(self):
        # the kappa 1 identities need these exactly: the NML variance
        # sigma2 / Gamma(2) and h(1) = Gamma(2)**2 / Gamma(3) = 1/2
        assert list(_log_gamma(np.array([1.0, 2.0, 3.0]))) == [0.0, 0.0, math.log(2.0)]
        assert _log_gamma(2.0) == 0.0 and np.ndim(_log_gamma(2.0)) == 0

    def test_digamma_against_scipy(self):
        x = np.linspace(1.0, 5.0, 4001)
        want = psi(x)
        err = np.abs(_digamma(x) - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() <= 2e-15
        assert np.ndim(_digamma(1.5)) == 0

    def test_legendre_rule_against_mpmath(self):
        nodes, weights = _legendre()
        want_nodes, want_weights = _mp_legendre_rule(_GL_ORDER)
        assert_allclose(nodes, want_nodes, rtol=0, atol=2e-16)
        assert_allclose(weights, want_weights, rtol=1e-14)
