"""Mittag-Leffler function on the real line, and the numerical kernels that
every law in the package shares: the series driver ``_sum_series``, the
Gauss-Legendre panel rule ``_gl_panels`` and the kappa check ``_check_kappa``.

The one-parameter Mittag-Leffler function ``E_k(z) = sum_m z^m / Gamma(k*m + 1)``
is entire, but its power series is useless in double precision for large
negative arguments: the terms grow to roughly ``exp(|z|**(1/k))`` before the
alternating sum collapses to an algebraically small value.  Evaluation is
therefore split into four branches:

* power series, where the largest term stays small enough that cancellation
  costs at most a few digits;
* the integral on the cut, ``E_k(-x) = (sin(k*pi)/(pi*k)) * int_0^inf
  exp(-(x*u)**(1/k)) / D(u) du``, D(u) = u**2 + 2*u*cos(k*pi) + 1, smooth
  and positive for ``x`` bounded away from zero: one log-variable rule for
  every kappa (``_log_step_cut``), graded toward the pole of 1/D where it is
  narrower than 0.1 in the log variable;
* the algebraic asymptotic expansion
  ``E_k(-x) ~ sum_m (-1)**(m-1) x**-m / Gamma(1 - k*m)`` with optimal
  truncation, for large ``x``;
* on the positive axis, wherever the series is not taken,
  ``E_k(x) = exp(x**(1/k))/k - R_k(x)``: ``R_k`` is the same cut integral
  with the sign of ``cos(k*pi)`` flipped.

``k = 1`` dispatches to ``exp`` exactly, which also removes the poles of
``Gamma(1 - m)`` from the asymptotic branch; past the double range it is
``inf``, as on the other branches, with no overflow warning.

One value of z (a scalar, or an array of size 1) takes a front door,
``_one_value``, that picks its branch as the array path does without
building its masks.  kappa 1 and the power series use ``math`` alone, the
series summed term by term with the terms, stop rule and cap of the array
kernel, to the same bits (~9 us a call).  A series that does not converge,
and every value it does not take, gets the array kernels on a 1-value
array: lead - R (~21 us), the expansion (~19 us), or one row of the cut
integral (~16 us on the shared nodes, ~49 us on graded pole panels; an
expansion its bound refuses adds its own cost first).  The array path's
mask pass, which cost these values ~17-33 us a call, serves arrays of two
or more values.  ``_series_region`` is the one statement of where the
series applies, for both doors.  (Best of 7 timeit runs on a 2-core Xeon.)

The gamma-family kernels every module uses (``_log_gamma``, ``_digamma``)
and the Gauss-Legendre rule are built on ``math`` and numpy alone: they
cover the arguments the package uses, not the real line.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, EvaluationError

__all__ = ["mittag_leffler"]

# Largest value of X = |z|**(1/k) for which the power series takes a
# negative z.  Its terms reach ~exp(X) before the alternating sum falls to
# E_k(-x) >= ~exp(-X), so the cancellation costs ~eps * exp(X) of the
# largest term, and up to e**X times that relative to E_k.  At 2.0 the series
# is within 4e-15 of an mpmath sum, as the cut integral beside it is; a
# budget of 4.6 loses up to 1.75e-12 next to the hand-off.
_SERIES_EXPONENT_BUDGET = 2.0

# smallest |z| the cut integral takes: below, the pole of 1/D can fall in
# its 2-wide left panels (2e-5 off at kappa 0.9, x 1e-3)
_SPECTRAL_X_MIN = 0.25

# smallest x**(1/k) at which a positive x skips the series
_POSITIVE_SERIES_EXPONENT_MAX = 15.0

_ASYMPTOTIC_MAX_TERMS = 12
# smallest |z| at which the expansion is tried for a negative z, and the
# largest two-term remainder bound, relative to its value, that it accepts
_ASYMPTOTIC_THRESHOLD = 50.0
_ASYMPTOTIC_RTOL = 1e-15

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


# math.gamma overflows past 171.6; above this argument _log_gamma takes
# Stirling's series, whose first omitted term, 1/(1680 x**7), is below 1e-18
_LOG_GAMMA_STIRLING = 170.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma(x):
    """log Gamma(x) elementwise for x >= 1, the domain of every caller.

    Up to _LOG_GAMMA_STIRLING it is log(math.gamma(x)), one value at a time:
    on the 32-term blocks of the mixing-density and pmf series, and on the
    estimator's few kappas, that beats any numpy formula,
    whose ~1.5 us per ufunc call adds up over a dozen operations.  It is
    exact at 1, 2 and 3, so log Gamma(2) = 0 and log Gamma(3) = log 2.
    Above, three terms of Stirling's series.  Returns a float64 scalar for
    a scalar x.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    big = flat > _LOG_GAMMA_STIRLING
    if not big.any():
        # the common short call: no masks to build and fill
        out = np.log(np.fromiter(map(math.gamma, flat.tolist()), float, flat.size))
    else:
        out = np.empty_like(flat)
        small = flat[~big]
        out[~big] = np.log(np.fromiter(map(math.gamma, small.tolist()), float, small.size))
        z = flat[big]
        p = 1.0 / (z * z)
        out[big] = (z - 0.5) * np.log(z) - z + _HALF_LOG_TWO_PI + (
            (p / 1260.0 - 1.0 / 360.0) * p + 1.0 / 12.0
        ) / z
    return out.reshape(arr.shape)[()]


def _digamma(x):
    """psi(x) elementwise for x >= 1 (estimation takes it on [1, 3]).

    The recurrence psi(x) = psi(x + 9) - sum_{k<9} 1/(x + k) moves the
    argument to y >= 10, where the asymptotic series
    log y - 1/(2y) - sum_j B_2j / (2j y**2j) through j = 7 errs by < 5e-17.
    Returns a float64 scalar for a scalar x.
    """
    x = np.asarray(x, dtype=float)
    y = x + 9.0
    p = 1.0 / (y * y)
    tail = p * (1 / 12 - p * (1 / 120 - p * (1 / 252 - p * (
        1 / 240 - p * (1 / 132 - p * (691 / 32760 - p / 12))))))
    shift = (1.0 / np.add.outer(x, np.arange(9.0))).sum(axis=-1)
    return (np.log(y) - 0.5 / y - tail - shift)[()]


# terms per block of the series driver: a row may compute up to this many
# terms past its stop, in exchange for one array pass per block
_SERIES_BLOCK = 32


def _sum_series(terms, first, total, runs, tol, max_terms):
    """Sum one series per row of a 1-d array; returns (total, peak, unconverged).

    ``terms(rows, j)`` gives the terms of the 1-d indices ``j`` for the rows
    ``rows``, shape (rows.size, j.size).  Indices run from ``first`` for
    ``max_terms`` terms, added to the starting partial sums ``total``.  Each
    block of terms is one array: the running total is prepended as column 0
    and cumsummed, a left fold that rounds every partial sum as a
    term-by-term loop would.  A row stops after ``runs`` consecutive terms
    with |term| <= tol * max(|partial|, 1e-300) (the floor keeps a partial
    sum passing through zero from ending the sum).  ``peak`` is the largest
    |term| up to the stop; ``unconverged`` marks the rows still running
    after ``max_terms`` terms.
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


# the number of nodes of every Gauss-Legendre panel
_GL_ORDER = 16


@lru_cache(maxsize=1)
def _legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _GL_ORDER-point Gauss-Legendre nodes and weights on [-1, 1], from
    numpy's eigenvalue construction; the first call costs ~1 ms."""
    return leggauss(_GL_ORDER)


def _gl_panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on each panel [lo, hi]; returns (nodes,
    weights), panel by panel."""
    xg, wg = _legendre()
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


def _inverse_gammas(kappa: float, m: np.ndarray) -> np.ndarray:
    """1/Gamma(k m + 1) for the series indices m, one ``math.gamma`` per
    index, as ``_series_one`` forms it; past _LOG_GAMMA_STIRLING, where
    math.gamma nears overflow, exp(-lgamma), which underflows to 0."""
    return np.array([1.0 / math.gamma(a) if a <= _LOG_GAMMA_STIRLING else math.exp(-math.lgamma(a))
                     for a in (kappa * m + 1.0).tolist()])


def _series_many(kappa: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Power series for an array of arguments in the series region;
    returns (values, failed mask).

    Term m is z**m * (1/Gamma(k m + 1)): z**m is a running product, one
    ``cumprod`` per block that carries on from the block before, and the
    1/Gamma factors (``_inverse_gammas``) are shared by every row.
    ``_series_one`` rounds every power, term and partial sum the same way,
    so the two give the same bits.  The region has X = |z|**(1/k) < 15,
    where each term X**(k m) / Gamma(k m + 1) is below e**X < 3.3e6 (the
    largest X**t / Gamma(t + 1) over t >= 0), so 500 terms sum to < 2e9:
    no term or partial sum overflows, here or in ``_series_one``.  The
    powers, which run up to a block past a row's stop, stay below 1e95
    (the largest over 201 kappas from 0.005 to 1 - 1e-9 on the region's
    edges).
    """
    power = np.ones_like(z)

    def terms(rows, m):
        # the driver asks for the blocks in order: each starts from the last
        # power of the one before
        steps = np.empty((rows.size, m.size + 1))
        steps[:, 0] = power[rows]
        steps[:, 1:] = z[rows, None]
        block = np.cumprod(steps, axis=1)[:, 1:]
        power[rows] = block[:, -1]
        return block * _inverse_gammas(kappa, m)

    out, _, active = _sum_series(terms, 1, np.ones_like(z), 2, _ML_SERIES_TOL, _ML_MAX_TERMS)
    return out, active


def _series_one(kappa: float, z: float) -> float | None:
    """``_series_many`` for one z, term by term with ``math``: the same
    running power, 1/Gamma factors, stop rule and cap, so the same partial
    sums to the last bit.  None where the series does not converge.
    """
    gamma, lgamma, exp, big = math.gamma, math.lgamma, math.exp, _LOG_GAMMA_STIRLING
    # |term| <= tol * max(|total|, 1e-300), the driver's rule, without a max call
    tol, floor = _ML_SERIES_TOL, _ML_SERIES_TOL * 1e-300
    total, power, small = 1.0, 1.0, False
    for m in range(1, _ML_MAX_TERMS + 1):
        a = kappa * m + 1.0
        power *= z
        term = power * (1.0 / gamma(a) if a <= big else exp(-lgamma(a)))
        total += term
        if abs(term) <= tol * abs(total) or abs(term) <= floor:
            # the second small term in a row ends the sum
            if small:
                return total
            small = True
        else:
            small = False
    return None


def _series_region(z, exponent):
    """Whether the power series takes z, given exponent = |z|**(1/k): up to
    _SERIES_EXPONENT_BUDGET on the negative axis, below
    _POSITIVE_SERIES_EXPONENT_MAX elsewhere.  A bool for floats, a mask for
    arrays."""
    return ((z < 0) & (exponent <= _SERIES_EXPONENT_BUDGET)) | (
        (z >= 0) & (exponent < _POSITIVE_SERIES_EXPONENT_MAX)
    )


_LOG_STEP_LEFT, _LOG_STEP_RIGHT = -30.0, 4.2
# panel edges in s shared by every kappa and x: 2 wide left of -4, 0.2 wide
# over the step exp(-exp(s)), which is ~e^-67 at the right end
_LOG_STEP_EDGES = np.concatenate(
    (np.linspace(_LOG_STEP_LEFT, -4.0, 14), np.linspace(-4.0, _LOG_STEP_RIGHT, 42)[1:])
)
# the pole of 1/D gets its own panels where its width in s is below this
_POLE_WIDTH_MAX = 0.1


@lru_cache(maxsize=1)
def _log_step_nodes() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes s on the shared edges, and their
    weights times the step exp(-exp(s))."""
    s, w = _gl_panels(_LOG_STEP_EDGES[:-1], _LOG_STEP_EDGES[1:])
    return s, np.exp(-np.exp(s)) * w


def _log_step_cut(kappa: float, x: np.ndarray, positive: bool) -> np.ndarray:
    """The cut integral (1/(pi*k)) int_0^inf sin(a) exp(-(x*u)**(1/k)) / D(u) du,
    D(u) = (u + cos(a))**2 + sin(a)**2: E_k(-x) at a = k*pi, and at
    a = (1-k)*pi (``positive``), which flips the sign of the cosine, the
    remainder R_k(x) of the positive axis.

    u = exp(k*s)/x turns the step of the integrand at u = 1/x into
    exp(-exp(s)), the same for every kappa and x; left of s = -30 the arctan
    antiderivative of 1/D closes the integral.  Where cos(a) < 0, 1/D has a
    pole at u_p = -cos(a), sin(a) off the axis and w = sin(a)/(k*u_p) wide
    in s: past kappa ~0.97, w < _POLE_WIDTH_MAX and each x gets panels
    graded toward it (``_pole_panels``).  sin(a) and cos(a) come from the
    folded angle min(k, 1-k)*pi, exact as kappa nears 1.
    """
    fold = min(kappa, 1.0 - kappa) * math.pi
    sin_a = math.sin(fold)
    cos_a = math.cos(fold) if (kappa < 0.5) != positive else -math.cos(fold)
    u_a = math.exp(kappa * _LOG_STEP_LEFT) / x
    left = np.arctan2(u_a * sin_a, 1.0 + u_a * cos_a) / (math.pi * kappa)
    width = sin_a / (kappa * -cos_a) if cos_a < 0.0 else math.inf
    with np.errstate(under="ignore"):
        if width < _POLE_WIDTH_MAX:
            middle = _pole_panels(kappa, x, -cos_a, sin_a, width)
        else:
            s, g = _log_step_nodes()
            # two n x 864 arrays, written in place
            u = np.exp(kappa * s) / x[:, None]
            d = u + cos_a
            d *= d
            d += sin_a * sin_a
            u /= d
            middle = u @ g
    return left + middle * (sin_a / math.pi)


def _pole_panels(kappa, x, u_p, sin_a, width):
    """int exp(-exp(s)) u / D(u) ds, as in ``_log_step_cut``, with each x's
    pole s_p = log(x*u_p)/k: edges at s_p and s_p -+ width * 2**j up to
    the first past _POLE_WIDTH_MAX, merged with the shared ones.  The nodes
    are carried as t = s - s_p, and u - u_p = u_p * expm1(k*t) keeps D to
    relative precision at the pole."""
    s_p = np.log(x * u_p) / kappa
    steps = width * 2.0 ** np.arange(math.ceil(math.log2(_POLE_WIDTH_MAX / width)) + 1)
    pole = np.concatenate((-steps[::-1], [0.0], steps))
    # pole edges past the ends pile up there, as panels of width 0
    lo, hi = (_LOG_STEP_LEFT - s_p)[:, None], (_LOG_STEP_RIGHT - s_p)[:, None]
    edges = np.sort(np.hstack((_LOG_STEP_EDGES - s_p[:, None], np.clip(pole, lo, hi))), axis=1)
    t, w = _gl_panels(edges[:, :-1].ravel(), edges[:, 1:].ravel())
    t, w = t.reshape(x.size, -1), w.reshape(x.size, -1)
    # three arrays, written in place: w times the step at s = s_p + t ...
    step = np.exp(s_p[:, None] + t)
    np.exp(np.negative(step, out=step), out=step)
    step *= w
    # ... and u_p * u / D, from u / u_p = exp(k t) and (u - u_p) / u_p,
    # each to relative precision
    t *= kappa
    d = np.expm1(t, out=w)
    d *= d
    d += (sin_a / u_p) ** 2
    u = np.exp(t, out=t)
    u /= d
    return np.vecdot(step, u) / u_p


def _asymptotic_many(kappa: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimally truncated algebraic expansion of E_k(-x); returns (value, bound).

    The remainder estimate spans the next two terms: a single omitted term can
    vanish at a pole of Gamma(1 - kappa*m) without the remainder being small.
    """
    m = np.arange(1, _ASYMPTOTIC_MAX_TERMS + 3, dtype=float)
    # (-1)**(m-1) / Gamma(1 - k*m) = sin(pi*m*(1-k)) * Gamma(k*m) / pi by
    # reflection: 1 - k*m rounded next to a pole of Gamma would cost
    # eps/(1-k).  The sine takes the folded angle min(k, 1-k), exact at
    # both ends of (0, 1); below 1/2, sin(pi*m*(1-k)) = (-1)**(m-1) sin(pi*m*k)
    sign = 1.0 if kappa >= 0.5 else (-1.0) ** (m - 1)
    gamma = np.array([math.gamma(v) for v in (kappa * m).tolist()])
    coef = sign * np.sin(np.pi * min(kappa, 1.0 - kappa) * m) * gamma / np.pi
    with np.errstate(over="ignore", under="ignore"):
        terms = coef[None, :] * x[:, None] ** (-m[None, :])
    partial = np.cumsum(terms, axis=1)
    bounds = np.abs(terms[:, 1:-1]) + np.abs(terms[:, 2:])
    cut = np.argmin(bounds, axis=1)
    rows = np.arange(x.size)
    return partial[rows, cut], bounds[rows, cut]


def _kanter_log(kappa: float, half: np.ndarray) -> np.ndarray:
    """V = (1-k) log A(theta) at the half-angles ``half`` = theta/2 in (0, pi/2),
    for the sampler.

    A(theta) = sin(k*theta)**(k/(1-k)) * sin((1-k)*theta) / sin(theta)**(1/(1-k))
    increases from A(0+) = (1-k) * k**(k/(1-k)).  U = (W/A)**(1-k) needs V to
    absolute rounding only.  With {a, b} = {k, 1-k}, b <= 1/2, and a + b = 1,
    V = a log(sin(a theta)/sin theta) + b log(sin(b theta)/sin theta), and the
    sines come from the half-angle tangents T = tan(theta/2), t = tan(b theta/2)
    and r = t/T <= 1/2: sin x = 2 tan(x/2)/(1 + tan(x/2)**2), with the tangent
    of a theta/2 = theta/2 - b theta/2 by the difference formula, gives

        sin(b theta)/sin theta = r (1 + T**2) / (1 + t**2)
        sin(a theta)/sin theta = (1 - r) (1 + T t) / (1 + t**2).

    Every factor is a sum or product of positives, or 1 - r >= 1/2, so V
    stays within a few ulp of its largest log at every kappa and theta, up to
    theta = pi where T reaches 1.6e16; at theta -> 0 the ratios tend to b
    and a.  numpy's float64 tan runs as a SIMD loop on CPUs with AVX-512,
    where its sin is a scalar one.
    """
    a, b = max(kappa, 1.0 - kappa), min(kappa, 1.0 - kappa)
    r = np.tan(np.multiply(half, b))
    big = np.tan(half)  # T
    r /= big
    big *= big  # T**2
    den = np.square(r)
    den *= big
    den += 1.0  # 1 + t**2
    v = np.multiply(r, big)
    v += 1.0  # 1 + T t
    big += 1.0
    big *= r
    big /= den
    np.log(big, out=big)
    big *= b
    np.subtract(1.0, r, out=r)
    v *= r
    v /= den
    np.log(v, out=v)
    v *= a
    v += big
    return v


def _kanter_v(kappa: float, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """V = (1-k) log A(theta) to relative precision at every kappa, from theta
    and phi = pi - theta, the smaller exact: with {a, b} = {k, 1-k}, a >= 1/2,
    V = a log(sin(a t)/sin t) + b log(q), q = sin(b t)/sin t, the first log as
    log1p(-2 s**2 - q cos t), s = sin(b t/2), exact as the ratio nears 1."""
    a, b = max(kappa, 1.0 - kappa), min(kappa, 1.0 - kappa)
    s = np.sin(b / 2.0 * theta)
    q = 2.0 * s * np.sqrt(1.0 - s * s) / np.sin(np.minimum(theta, phi))
    return a * np.log1p(-2.0 * s * s - q * np.cos(theta)) + b * np.log(q)


# x = log(theta) up to theta = pi/2, 2 log(pi/2) - log(pi - theta) above
_HALF_X = np.log(np.pi / 2)


def _theta_phi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta and pi - theta at x, the smaller one exact."""
    left = x <= _HALF_X
    small = np.exp(np.where(left, x, 2.0 * _HALF_X - x))
    return np.where(left, small, np.pi - small), np.where(left, np.pi - small, small)


# V is close to linear in x, which a table at this step inverts; past
# pi - theta = 1e-30 it is -log(pi - theta) plus a constant, and a step of
# 1 is exact there
_KANTER_TABLE_STEP = 0.02


@lru_cache(maxsize=64)
def _kanter_table(kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, x, err), V and x increasing, at theta from 1e-5 to pi - 1e-300."""
    x_fine = 2.0 * _HALF_X - np.log(1e-30)
    x = np.concatenate((np.arange(np.log(1e-5), x_fine, _KANTER_TABLE_STEP),
                        np.arange(x_fine, 2.0 * _HALF_X - np.log(1e-300), 1.0)))
    v = _kanter_v(kappa, *_theta_phi(x))
    # err[i] ~ step**2 |V''| / 8 bounds linear interpolation on [x[i-1], x[i]]
    d2 = np.pad(np.abs(np.diff(v, 2)), 1, mode="edge") / 8.0
    return v, x, np.append(0.0, np.maximum(d2[:-1], d2[1:]))


# The theta integral of _mixing_density_log is split where z = y*A(theta)
# crosses z0 + t, z0 = y*A(0+), for these t: e-fold steps from 40, where
# z*exp(-z) is ~e^-36 of its peak, down to ~e^-35.  Levels below
# min(z0, _MIX_FLANK)/e are dropped, since z >= z0: the first panel, from
# theta = 0, then ends by z = 2 z0, or by t = 0.1 on the flank z0 >= 1, and
# stays short next to its distance from the pole of A at pi.
_MIX_LEVELS = 40.0 * np.exp(-np.arange(40.0))
_MIX_FLANK = 0.25
_MIX_PHI_RATIO = 4.0
# past this z0, log g < -1e6 and the table no longer resolves the flank:
# the log density is -inf there
_MIX_Z0_MAX = 1e6


def _mixing_density_log(kappa: float, log_u: np.ndarray) -> np.ndarray:
    """log density, at log u, of the positive law with mgf E_k.

    Through the one-sided stable density, g(u) = int_0^pi z exp(-z) dt /
    (pi (1-k) u) with z = y*A(t) = exp((log u + V(t))/(1-k)) (``_kanter_v``),
    a spike in t that narrows as kappa -> 1: each u gets its own 16-point
    panels, split where z crosses z0 + _MIX_LEVELS (Nolan 1997 splits the
    stable integral at its peak the same way) at crossings solved in V, and
    run in pi - t past t = pi/2.  At the spike log u + V is O(1-k) and V is
    exact to rounding, up to kappa 1 - 2**-53.  In log form, to weigh against
    large exponential factors; -inf where z0 > _MIX_Z0_MAX.  Raises
    EvaluationError for u so small that the spike lies within 1e-300 of pi.
    """
    c = 1.0 - kappa
    v0 = kappa * math.log(kappa) + c * math.log(c)  # V(0+)
    log_z0 = (log_u + v0) / c
    with np.errstate(over="ignore"):
        z0 = np.exp(log_z0)
    out = np.full(log_u.shape, -np.inf)
    live = np.flatnonzero(z0 <= _MIX_Z0_MAX)
    log_u, log_z0, z0 = log_u[live], log_z0[live], z0[live]
    # one panel per kept level, ending at its crossing; a row's panels run
    # down in t, and its last one starts at t = 0
    rows, cols = np.nonzero(_MIX_LEVELS >= np.minimum(z0, _MIX_FLANK)[:, None] / np.e)
    v = c * np.logaddexp(log_z0[rows], np.log(_MIX_LEVELS[cols])) - log_u[rows]
    table_v, table_x, table_err = _kanter_table(kappa)
    if v.size and v.max() > table_v[-1]:
        u = np.exp(log_u.min())
        raise EvaluationError(f"mixing density integral unresolved at u = {u:.3g} (kappa={kappa})")
    last = np.append(rows[1:] != rows[:-1], True)
    x_hi = np.interp(v, table_v, table_x)
    # near kappa 1 the levels lie ~(1-k) apart in V, closer than the table
    # resolves where V bends: a crossing that may miss by 1 % of its gap below
    # takes Newton steps on V, with its interval's slope, until within or stalled
    tol = 0.01 * (v - np.where(last, v0, np.append(v[1:], v0)))
    i = np.searchsorted(table_v, v)
    todo, miss = np.flatnonzero(table_err[i] > tol), np.inf
    while todo.size:
        new = _kanter_v(kappa, *_theta_phi(x_hi[todo])) - v[todo]
        far = (np.abs(new) > tol[todo]) & (np.abs(new) < np.abs(miss) / 2.0)
        todo, miss, j = todo[far], new[far], i[todo[far]]
        x_hi[todo] -= miss * (table_x[j] - table_x[j - 1]) / (table_v[j] - table_v[j - 1])
    x_lo = np.where(last, -np.inf, np.append(x_hi[1:], -np.inf))
    (theta_lo, phi_lo), (theta_hi, phi_hi) = _theta_phi(x_lo), _theta_phi(x_hi)
    right = x_hi > _HALF_X
    lo, hi = np.where(right, phi_hi, theta_lo), np.where(right, phi_lo, theta_hi)
    # a panel in pi - t spans at most a factor _MIX_PHI_RATIO, which keeps
    # it far from the pole of A at pi next to its width; at small kappa A
    # is flat up to pi - t ~ kappa, and one level can span most of (0, pi)
    ratio = np.divide(hi, lo, out=np.ones_like(lo), where=right)
    parts = np.maximum(np.ceil(np.log(ratio) / np.log(_MIX_PHI_RATIO)), 1.0).astype(int)
    panel = np.repeat(np.arange(parts.size), parts)
    parts, ratio, lo, hi = parts[panel], ratio[panel], lo[panel], hi[panel]
    step = np.arange(panel.size) - np.searchsorted(panel, panel)
    split = parts > 1
    lo, hi = (np.where(split, lo * ratio ** (step / parts), lo),
              np.where(split, lo * ratio ** ((step + 1) / parts), hi))
    rows, right = rows[panel], right[panel]
    nodes, w = _gl_panels(lo, hi)
    nodes, w = nodes.reshape(-1, _GL_ORDER), w.reshape(-1, _GL_ORDER)
    right = right[:, None]
    log_z = (log_u[rows, None] + _kanter_v(
        kappa, np.where(right, np.pi - nodes, nodes), np.where(right, nodes, np.pi - nodes)
    )) / c
    # log of the integrand's peak: at z = 1, or at t = 0 past it
    peak = np.maximum(z0, 1.0)
    shift = np.log(peak) - peak
    with np.errstate(under="ignore"):
        vals = np.exp(log_z - np.exp(log_z) - shift[rows, None])
    inner = np.bincount(rows, (vals * w).sum(axis=1), minlength=live.size)
    out[live] = shift - log_u - np.log(np.pi * c) + np.log(inner)
    return out


def _check_series_fallback(z) -> None:
    """Where the series does not converge (slow convergence, small kappa),
    the cut integral covers z < -_SPECTRAL_X_MIN and lead - R covers z > 0;
    raise for any other z."""
    if not np.all((z < -_SPECTRAL_X_MIN) | (z > 0)):
        raise EvaluationError(
            "Mittag-Leffler power series branch did not converge "
            f"within max_terms={_ML_MAX_TERMS}"
        )


def _positive_rest(kappa: float, x: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """E_k(x) = exp(x**(1/k))/k - R_k(x) for x > 0, given exponent = x**(1/k)."""
    with np.errstate(over="ignore"):
        lead = np.exp(exponent) / kappa
    return lead - _log_step_cut(kappa, x, positive=True)


def _one_value(kappa: float, z: float) -> float:
    """E_k(z) for one finite z, on the branch the array path takes: kappa 1
    and the power series with ``math`` alone, then, with 1-value arrays,
    lead - R for z > 0, the expansion for z <= -_ASYMPTOTIC_THRESHOLD where
    its bound accepts it, and otherwise one row of the cut integral.  The
    exponent of lead - R is numpy's power, as on the array path: ``math``'s
    may differ by an ulp, which exp multiplies by up to ~700."""
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    # math raises OverflowError where numpy gives inf
    if kappa == 1.0:
        try:
            return math.exp(z)
        except OverflowError:
            return math.inf
    try:
        exponent = abs(z) ** (1.0 / kappa)
    except OverflowError:
        exponent = math.inf
    if _series_region(z, exponent):
        value = _series_one(kappa, z)
        if value is not None:
            return value
        _check_series_fallback(z)
    x = np.array([abs(z)])
    if z > 0:
        with np.errstate(over="ignore"):
            exponent = x ** (1.0 / kappa)
        return float(_positive_rest(kappa, x, exponent)[0])
    if x[0] >= _ASYMPTOTIC_THRESHOLD:
        value, bound = _asymptotic_many(kappa, x)
        if bound[0] <= _ASYMPTOTIC_RTOL * abs(value[0]):
            return float(value[0])
    return float(_log_step_cut(kappa, x, positive=False)[0])


def mittag_leffler(kappa, z):
    """Evaluate E_kappa(z) for real z, elementwise over array input.

    One value of z (a scalar, or an array of size 1) takes ``_one_value``,
    which picks its branch as the array path does, without the array path's
    masks; an array of any other size goes through the array kernels.

    Parameters
    ----------
    kappa : float in (0, 1]
    z : float or array_like

    Returns
    -------
    float for a scalar or 0-d ``z``; otherwise an ndarray of ``z``'s shape,
    size 1 included.  ``inf`` past the double range, without a warning.

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
    if z_arr.size == 1:
        value = _one_value(kappa, z_arr.item())
        return value if z_arr.ndim == 0 else np.full(z_arr.shape, value)
    shape, z_arr = z_arr.shape, z_arr.ravel()
    if not np.all(np.isfinite(z_arr)):
        raise DomainError("z must be finite")

    if kappa == 1.0:
        with np.errstate(over="ignore"):
            return np.exp(z_arr).reshape(shape)

    out = np.empty_like(z_arr)
    x = np.abs(z_arr)
    with np.errstate(over="ignore"):
        exponent = x ** (1.0 / kappa)

    series = _series_region(z_arr, exponent)
    if series.any():
        vals, failed = _series_many(kappa, z_arr[series])
        out[series] = vals
        if failed.any():
            idx = np.flatnonzero(series)[failed]
            _check_series_fallback(z_arr[idx])
            # the branches below take what the series left
            series[idx] = False
    # positive arguments the series does not take get exp(x**(1/k))/k - R_k(x)
    pos_rest = (z_arr > 0) & ~series
    if pos_rest.any():
        out[pos_rest] = _positive_rest(kappa, x[pos_rest], exponent[pos_rest])
    # negative ones the expansion where its bound accepts it, else the cut integral
    cut = (z_arr < 0) & ~series
    big = cut & (x >= _ASYMPTOTIC_THRESHOLD)
    if big.any():
        vals, bound = _asymptotic_many(kappa, x[big])
        good = bound <= _ASYMPTOTIC_RTOL * np.abs(vals)
        idx = np.flatnonzero(big)[good]
        out[idx] = vals[good]
        cut[idx] = False
    if cut.any():
        out[cut] = _log_step_cut(kappa, x[cut], positive=False)

    return out.reshape(shape)
