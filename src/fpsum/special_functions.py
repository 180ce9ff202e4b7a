"""Mittag-Leffler function on the real line, and the numerical kernels that
every law in the package shares: the series driver ``_sum_series``, the
Gauss-Legendre panel rule ``_gl_panels`` and the kappa check ``_check_kappa``.

The one-parameter Mittag-Leffler function ``E_k(z) = sum_m z^m / Gamma(k*m + 1)``
is entire, but its power series is useless in double precision for large
negative arguments: the terms grow to roughly ``exp(|z|**(1/k))`` before the
alternating sum collapses to an algebraically small value.  Evaluation is
therefore split into three branches:

* power series, where the largest term stays small enough that cancellation
  costs at most a few digits;
* a spectral integral on the cut, ``E_k(-x) = (1/(pi*k)) * int exp(-(x*u)**(1/k))``
  over a finite angular interval, which is smooth, positive, and valid for all
  ``x`` bounded away from zero and ``0 < k < 1``;
* the algebraic asymptotic expansion
  ``E_k(-x) ~ sum_m (-1)**(m-1) x**-m / Gamma(1 - k*m)`` with optimal
  truncation, for large ``x``.

``k = 1`` dispatches to ``exp`` exactly, which also removes the poles of
``Gamma(1 - m)`` from the asymptotic branch.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammaln, rgamma, roots_legendre

from .errors import DomainError, EvaluationError

__all__ = ["mittag_leffler"]

# Largest value of |z|**(1/k) for which the power series is trusted: the
# cancellation error is ~eps * exp(|z|**(1/k)), so 4.6 keeps it near 1e-14
# of the largest term while E_k(-x) itself stays >= ~exp(-4.6).
_SERIES_EXPONENT_BUDGET = 4.6

# Smallest |z| for which the cached spectral nodes resolve the integrand.
_SPECTRAL_X_MIN = 0.25

_ASYMPTOTIC_MAX_TERMS = 12
# smallest |z| at which the expansion is tried for a negative z
_ASYMPTOTIC_THRESHOLD = 50.0

# the E_k power series stops after 2 consecutive terms below _ML_SERIES_TOL
# relative to its partial sum (see _sum_series), or fails after _ML_MAX_TERMS
_ML_SERIES_TOL = 1e-14
_ML_MAX_TERMS = 500


def _check_kappa(kappa) -> float:
    """kappa as a float in (0, 1]; a law and E_k take a single kappa."""
    # every law construction runs this check, so a float skips numpy
    if not isinstance(kappa, (float, int)) and np.ndim(kappa) != 0:
        raise DomainError(f"kappa must be a scalar, got shape {np.shape(kappa)}")
    kappa = float(kappa)
    if not 0.0 < kappa <= 1.0:
        raise DomainError(f"kappa must lie in (0, 1], got {kappa}")
    return kappa


def _check_kappas(kappa):
    """kappa as a float, or an array of them, each in (0, 1]; the moment
    estimator broadcasts over kappa."""
    if isinstance(kappa, (float, int)) or np.ndim(kappa) == 0:
        return _check_kappa(kappa)
    kappa = np.asarray(kappa, dtype=float)
    if not np.all((kappa > 0.0) & (kappa <= 1.0)):
        raise DomainError(f"kappa must lie in (0, 1], got {kappa}")
    return kappa


# terms per block of the series driver: a row may compute up to this many
# terms past its stop, in exchange for one array pass per block
_SERIES_BLOCK = 32


def _sum_series(terms, first, total, runs, tol, max_terms, stop_nonfinite=False):
    """Sum one series per row of a 1-d array; returns (total, peak, unconverged).

    ``terms(rows, j)`` gives the terms of the 1-d indices ``j`` for the rows
    ``rows``, shape (rows.size, j.size).  Indices run from ``first`` for
    ``max_terms`` terms, added to the starting partial sums ``total``.  Each
    block of terms is one array: the running total is prepended as column 0
    and cumsummed, a left fold that rounds every partial sum as a
    term-by-term loop would.  A row stops after ``runs`` consecutive terms
    with |term| <= tol * max(|partial|, 1e-300) (the floor keeps a partial
    sum passing through zero from ending the sum), or, with
    ``stop_nonfinite``, at its first non-finite partial sum.  ``peak`` is the
    largest |term| up to the stop; ``unconverged`` marks the rows still
    running after ``max_terms`` terms.
    """
    total = np.array(total, dtype=float)
    peak = np.zeros_like(total)
    count = np.zeros(total.shape, dtype=int)
    active = np.arange(total.size)
    end = first + max_terms
    for start in range(first, end, _SERIES_BLOCK):
        if not active.size:
            break
        j = np.arange(start, min(start + _SERIES_BLOCK, end))
        term = terms(active, j)
        with np.errstate(over="ignore", invalid="ignore"):
            # columns past a row's stop may overflow; they are never read
            partial = np.cumsum(np.column_stack((total[active], term)), axis=1)[:, 1:]
        pos = np.arange(j.size)
        small = np.abs(term) <= tol * np.maximum(np.abs(partial), 1e-300)
        last_big = np.maximum.accumulate(np.where(small, -1, pos), axis=1)
        run = np.where(last_big < 0, count[active, None] + pos + 1, pos - last_big)
        done = run >= runs
        if stop_nonfinite:
            done |= ~np.isfinite(partial)
        stopped = done.any(axis=1)
        stop = np.where(stopped, done.argmax(axis=1), j.size - 1)
        rows = np.arange(active.size)
        total[active] = partial[rows, stop]
        reached = np.where(pos <= stop[:, None], np.abs(term), 0.0)
        peak[active] = np.maximum(peak[active], reached.max(axis=1))
        count[active] = run[rows, stop]
        active = active[~stopped]
    unconverged = np.zeros(total.shape, dtype=bool)
    unconverged[active] = True
    return total, peak, unconverged


def _gl_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of ``order`` nodes on each panel between
    consecutive ``edges``; returns (nodes, weights), panel by panel."""
    xg, wg = roots_legendre(order)
    lo, hi = edges[:-1], edges[1:]
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


def _series_many(kappa: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Power series for an array of arguments; returns (values, failed mask).

    Terms are formed in log space, so large intermediate terms overflow to
    inf (propagated to the result) rather than poisoning neighbours.
    """
    logabs = np.log(np.abs(z), out=np.full_like(z, -np.inf), where=z != 0)
    sign = np.sign(z)

    def terms(rows, m):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return sign[rows, None] ** m * np.exp(
                m * logabs[rows, None] - gammaln(kappa * m + 1.0)
            )

    out, _, active = _sum_series(
        terms, 1, np.ones_like(z), 2, _ML_SERIES_TOL, _ML_MAX_TERMS, stop_nonfinite=True
    )
    if active.any():
        # a still-growing sum with a positive argument is headed past the
        # double-precision range; report it as overflow rather than failure
        overflow = active & (z > 0) & (out > 1e280)
        out[overflow] = np.inf
        active &= ~overflow
    return out, active


@lru_cache(maxsize=64)
def _spectral_nodes(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes for the cut integral, reusable for every x >= _SPECTRAL_X_MIN.

    The integrand exp(-(x*u(theta))**(1/k)) rises from 0 at theta0 = pi/2 - k*pi
    with a Hoelder-continuous derivative, so panels are geometrically graded
    toward theta0; the right end is cut where the exponent exceeds ~46 for the
    smallest supported x.
    """
    theta0 = np.pi / 2 - kappa * np.pi
    u_hi = 46.0**kappa / _SPECTRAL_X_MIN
    theta_hi = np.arctan2(u_hi + np.cos(kappa * np.pi), np.sin(kappa * np.pi))
    span = theta_hi - theta0
    graded = theta0 + span * 0.5 ** np.arange(54, 0, -1)
    uniform = np.linspace(theta0 + span * 0.5, theta_hi, 25)
    edges = np.concatenate(([theta0], graded[:-1], uniform))
    theta, weights = _gl_panels(edges, 16)
    # u(theta) = sin(kappa*pi)*tan(theta) - cos(kappa*pi), written without
    # cancellation near its zero at theta0
    u = np.sin(theta - theta0) / np.cos(theta)
    return u, weights


_LOG_STEP_LEFT = -30.0


@lru_cache(maxsize=8)
def _log_step_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on s in [-30, 4.2] for the small-kappa branch."""
    edges = np.concatenate(
        (np.linspace(_LOG_STEP_LEFT, -4.0, 14), np.linspace(-4.0, 4.2, 42)[1:])
    )
    return _gl_panels(edges, 16)


# below this kappa the cut integral runs in the log variable: D(u) is
# monotone there (no Lorentzian spike), while the theta form's panels stop
# resolving the increasingly sharp step of exp(-(x*u)**(1/k))
_SMALL_KAPPA_SWITCH = 0.35


def _spectral_small_kappa(kappa: float, x: np.ndarray) -> np.ndarray:
    """Cut integral written in the log variable, for small kappa.

    In u the integrand is 1/D(u) times a smoothed step at u = 1/x whose
    relative width is kappa; substituting u = exp(kappa*s)/x makes the step
    shape exp(-exp(s)) independent of both kappa and x.  The region left of
    the step integrates in closed form (arctan antiderivative of 1/D).
    """
    s, w = _log_step_nodes()
    cosk, sink = np.cos(kappa * np.pi), np.sin(kappa * np.pi)
    theta0 = np.pi / 2 - kappa * np.pi
    u = np.exp(kappa * s)[None, :] / x[:, None]
    d = u * u + 2.0 * cosk * u + 1.0
    with np.errstate(under="ignore"):
        middle = (np.exp(-np.exp(s)) * (sink / np.pi))[None, :] * u / d @ w
    u_a = np.exp(kappa * _LOG_STEP_LEFT) / x
    left = (np.arctan2(u_a + cosk, sink) - theta0) / (np.pi * kappa)
    return left + middle


def _spectral_many(kappa: float, x: np.ndarray) -> np.ndarray:
    """E_k(-x) for x >= _SPECTRAL_X_MIN via the cut integral, 0 < k < 1."""
    if kappa <= _SMALL_KAPPA_SWITCH:
        return _spectral_small_kappa(kappa, x)
    u, w = _spectral_nodes(kappa)
    with np.errstate(over="ignore", under="ignore"):
        expo = (x[:, None] * u[None, :]) ** (1.0 / kappa)
        vals = np.exp(-expo) @ w
    return vals / (np.pi * kappa)


def _asymptotic_many(kappa: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimally truncated algebraic expansion of E_k(-x); returns (value, bound).

    The remainder estimate spans the next two terms: a single omitted term can
    vanish at a pole of Gamma(1 - kappa*m) without the remainder being small.
    """
    m = np.arange(1, _ASYMPTOTIC_MAX_TERMS + 3, dtype=float)
    coef = (-1.0) ** (m - 1) * rgamma(1.0 - kappa * m)
    with np.errstate(over="ignore", under="ignore"):
        terms = coef[None, :] * x[:, None] ** (-m[None, :])
    partial = np.cumsum(terms, axis=1)
    bounds = np.abs(terms[:, 1:-1]) + np.abs(terms[:, 2:])
    cut = np.argmin(bounds, axis=1)
    rows = np.arange(x.size)
    return partial[rows, cut], bounds[rows, cut]


def _positive_asymptotic(kappa: float, x: np.ndarray) -> np.ndarray:
    """E_k(x) for large positive x: exponential term plus algebraic correction.

    Relative accuracy is ~exp(-2*x**(1/k)); callers require x**(1/k) >= 15.
    Arguments whose exponential exceeds the double range come back as inf.
    """
    m = np.arange(1, _ASYMPTOTIC_MAX_TERMS + 1, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        lead = np.exp(x ** (1.0 / kappa)) / kappa
        correction = (x[:, None] ** (-m[None, :])) @ rgamma(1.0 - kappa * m)
    return lead - correction


def _kanter_log(kappa: float, theta: np.ndarray) -> np.ndarray:
    """log of the Kanter function A(theta) on (0, pi).

    A(theta) = sin(k*theta)**(k/(1-k)) * sin((1-k)*theta) / sin(theta)**(1/(1-k))
    is increasing from A(0+) = (1-k) * k**(k/(1-k)) to infinity; it drives both
    the positive-stable sampler and the integral form of the mixing density.
    """
    return (
        kappa / (1.0 - kappa) * np.log(np.sin(kappa * theta))
        + np.log(np.sin((1.0 - kappa) * theta))
        - np.log(np.sin(theta)) / (1.0 - kappa)
    )


@lru_cache(maxsize=64)
def _kanter_nodes(kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Graded Gauss-Legendre nodes on (0, pi) with log A precomputed."""
    half = np.pi / 2
    left = half * 0.5 ** np.arange(40, 0, -1)
    right = np.pi - half * 0.5 ** np.arange(1, 41)
    edges = np.concatenate(([half * 0.5**40 * 0.5], left, right))
    theta, weights = _gl_panels(edges, 16)
    return theta, weights, _kanter_log(kappa, theta)


def _mixing_density_log(kappa: float, u: np.ndarray) -> np.ndarray:
    """log density of the positive law with moment generating function E_k.

    Change of variables through the one-sided stable density:
    f(u) = u**(k/(1-k)) / (pi*(1-k)) * int_0^pi A(t) exp(-u**(1/(1-k)) A(t)) dt.
    Stable for every u > 0 (kappa < 1); returned in log form so callers can
    weigh it against large exponential factors.
    """
    _, w, log_a = _kanter_nodes(kappa)
    log_y = np.log(u) / (1.0 - kappa)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        # y*A formed as exp(log y + log A): overflow saturates to inf (the
        # node contributes nothing) without ever producing inf*0
        expo = log_a[None, :] - np.exp(log_y[:, None] + log_a[None, :])
        shift = expo.max(axis=1)
        dead = ~np.isfinite(shift)
        shift = np.where(dead, 0.0, shift)
        inner = np.exp(expo - shift[:, None]) @ w
        out = (
            kappa / (1.0 - kappa) * np.log(u)
            - np.log(np.pi * (1.0 - kappa))
            + shift
            + np.log(inner)
        )
    return np.where(dead, -np.inf, out)


def _positive_mgf_integral(kappa: float, x: np.ndarray) -> np.ndarray:
    """E_k(x) for positive x too slow for the series, too small for the
    exponential expansion (only reached for small kappa).

    Integrates exp(x*u) against the mixing density.  The integrand peaks at
    u* = x**((1-k)/k)/k with log-height x**(1/k), by the Laplace method.
    """
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        u_star = xi ** ((1.0 - kappa) / kappa) / kappa
        probe = u_star * np.geomspace(1e-3, 60.0, 400)
        a0 = (1.0 - kappa) * kappa ** (kappa / (1.0 - kappa))
        log_g = xi * probe - a0 * probe ** (1.0 / (1.0 - kappa))
        keep = log_g >= log_g.max() - 46.0
        u_hi = probe[keep].max() * 1.2
        un, wn = _gl_panels(np.linspace(0.0, u_hi, 121), 12)
        log_terms = xi * un + _mixing_density_log(kappa, un)
        shift = log_terms.max()
        with np.errstate(over="ignore", under="ignore"):
            out[i] = np.exp(shift + np.log(np.exp(log_terms - shift) @ wn))
    return out


def mittag_leffler(kappa, z):
    """Evaluate E_kappa(z) for real z, elementwise over array input.

    Parameters
    ----------
    kappa : float in (0, 1]
    z : float or array_like

    Returns
    -------
    float or ndarray matching the shape of ``z``.

    Raises
    ------
    DomainError
        If kappa is not a scalar in (0, 1] or z is not finite.
    EvaluationError
        If the power series branch fails to converge within
        ``_ML_MAX_TERMS`` terms and no other branch covers the argument.
    """
    kappa = _check_kappa(kappa)
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if not np.all(np.isfinite(z_arr)):
        raise DomainError("z must be finite")

    if kappa == 1.0:
        out = np.exp(z_arr)
        return float(out[0]) if scalar else out

    out = np.empty_like(z_arr)
    x = np.abs(z_arr)
    with np.errstate(over="ignore"):
        exponent = x ** (1.0 / kappa)

    pos_big = (z_arr > 0) & (exponent >= 15.0)
    if pos_big.any():
        out[pos_big] = _positive_asymptotic(kappa, x[pos_big])

    series_mask = ~pos_big & ((z_arr >= 0) | (exponent <= _SERIES_EXPONENT_BUDGET))
    if series_mask.any():
        sub = z_arr[series_mask]
        vals, failed = _series_many(kappa, sub)
        if failed.any():
            # slow convergence (small kappa): cover stragglers with the cut
            # integral (negative axis) or the mixing-density transform (positive)
            if not np.all((sub[failed] < -_SPECTRAL_X_MIN) | (sub[failed] > 0)):
                raise EvaluationError(
                    "Mittag-Leffler power series branch did not converge "
                    f"within max_terms={_ML_MAX_TERMS}"
                )
            neg = failed & (sub < 0)
            pos = failed & (sub > 0)
            if neg.any():
                vals[neg] = _spectral_many(kappa, -sub[neg])
            if pos.any():
                vals[pos] = _positive_mgf_integral(kappa, sub[pos])
        out[series_mask] = vals

    rest = ~series_mask & ~pos_big
    if rest.any():
        xr = x[rest]
        vals = np.empty_like(xr)
        accepted = np.zeros(xr.shape, dtype=bool)
        candidates = xr >= _ASYMPTOTIC_THRESHOLD
        if candidates.any():
            av, bound = _asymptotic_many(kappa, xr[candidates])
            good = bound <= 1e-15 * np.abs(av)
            idx = np.flatnonzero(candidates)[good]
            vals[idx] = av[good]
            accepted[idx] = True
        if (~accepted).any():
            vals[~accepted] = _spectral_many(kappa, xr[~accepted])
        out[rest] = vals

    return float(out[0]) if scalar else out
