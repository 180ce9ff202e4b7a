import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erfc, gammaln

from fpsum.errors import DomainError, EvaluationError
from fpsum import special_functions
from fpsum.special_functions import (
    _SERIES_BLOCK,
    _sum_series,
    mittag_leffler,
)


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
        for kappa, z, want in reference["ml"]:
            got = mittag_leffler(kappa, z)
            assert_allclose(got, want, rtol=1e-11, err_msg=f"kappa={kappa}, z={z}")

    def test_positive_against_reference(self, reference):
        for kappa, z, want in reference["ml_pos"]:
            got = mittag_leffler(kappa, z)
            assert_allclose(got, want, rtol=1e-10, err_msg=f"kappa={kappa}, z={z}")

    def test_positive_small_kappa_against_reference(self, reference):
        # both sides of the series' convergence limit and of x**(1/k) = 15
        for kappa, z, want in reference["ml_pos_small_kappa"]:
            got = mittag_leffler(kappa, z)
            assert_allclose(got, want, rtol=1e-12, err_msg=f"kappa={kappa}, z={z}")

    def test_positive_overflow_is_inf(self):
        with np.errstate(over="ignore"):
            assert mittag_leffler(0.2, 5.0) == np.inf

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

    def test_series_nonconvergence_names_branch(self, monkeypatch):
        monkeypatch.setattr(special_functions, "_ML_MAX_TERMS", 2)
        with pytest.raises(EvaluationError, match="series"):
            mittag_leffler(0.5, -0.2)

    def test_branch_seams_are_smooth(self):
        # values on a fine grid spanning the series/integral/asymptotic
        # switches must decrease monotonically for negative arguments
        for kappa in (0.35, 0.5, 0.85):
            z = -np.geomspace(0.5, 120.0, 4000)[::-1]
            vals = np.atleast_1d(mittag_leffler(kappa, z))
            assert np.all(np.diff(vals) >= -1e-15)


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
