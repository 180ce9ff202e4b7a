"""Moment-based fitting of the location-scale NML law.

The estimator matches the first, second, and fourth sample moments.  With
h(k) = Gamma(k+1)^2 / Gamma(2k+1), which decreases strictly from 1 to 1/2 on
(0, 1], the solution is closed-form up to the monotone inversion of h,
one Newton iteration on sqrt(-log h) that needs no bracket:

    mu_hat     = M1
    omega      = (M4 - 6 M1^2 M2 + 5 M1^4) / (6 (M2 - M1^2)^2)
    kappa_hat  = h^{-1}(omega)
    sigma2_hat = (M2 - M1^2) * Gamma(kappa_hat + 1)

In central moments c_k the kurtosis statistic is (c4 + 4 M1 c3) / (6 c2^2),
the same value; a sample summary carries that centered form because the raw
one cancels catastrophically once |M1| dwarfs the spread.

Standard errors come from the delta method: sqrt(n) * (estimates - truth) is
asymptotically normal with covariance grad_g Sigma grad_g^T, where Sigma is
the covariance of (Y, Y^2, Y^4) and g maps population moments to parameters.

Samples whose kurtosis statistic falls outside [1/2, 1) cannot be matched by
any interior kappa; the fit clamps to the nearest boundary and flags it, and
the kappa standard error is reported as unavailable.  So is the sigma2 one at
the lower clamp, where h' -> 0 makes the delta method meaningless.

The inversion, covariance and gradient code is array-valued: ``mm_fit_many``
fits many moment summaries in one pass, and the scalar functions evaluate the
same code at a single point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distributions import NmlLaw
from .errors import DomainError, EstimationError
from .special_functions import _check_kappas, _digamma, _log_gamma

__all__ = [
    "BoundaryFlag",
    "MomentSummary",
    "FitResult",
    "FitBatch",
    "FittedCumulants",
    "h",
    "h_prime",
    "h_inverse",
    "mm_fit",
    "mm_fit_many",
    "population_moments",
    "moment_covariance",
    "moment_map_gradient",
    "asymptotic_covariance",
    "fitted_cumulants",
]

KAPPA_FLOOR = 1e-6
_NEWTON_STEPS = 100
# q(k) = sqrt(-log h(k)) rises from q(0) = 0 with slope sqrt(zeta(2)) =
# pi/sqrt(6) and is concave on (0, 1] (q' falls from 1.28 to 0.60).  So
# k0 = t / q'(0) lies left of the root of q(k) = t, and from there each
# Newton tangent lies above q and lands short of the root: the iterates
# rise monotonically to it and never leave (0, root].
_Q_SLOPE_AT_ZERO = math.pi / math.sqrt(6.0)


class BoundaryFlag(str, enum.Enum):
    INTERIOR = "interior"
    CLAMPED_LOW = "clamped_low"
    CLAMPED_HIGH = "clamped_high"


# the inversion works on integer codes; this maps them back to flags
_INTERIOR, _CLAMPED_LOW, _CLAMPED_HIGH = range(3)
_FLAGS = np.array(
    [BoundaryFlag.INTERIOR, BoundaryFlag.CLAMPED_LOW, BoundaryFlag.CLAMPED_HIGH], dtype=object
)


@dataclass(frozen=True)
class MomentSummary:
    """Sample size, raw sample moments M1, M2, M4, and the centered pair the
    fit uses: the variance c2 and the kurtosis numerator c4 + 4 M1 c3.

    When the centered pair is not given it is derived from the raw moments,
    as c2 = M2 - M1^2 and M4 - 6 M1^2 M2 + 5 M1^4, after checking that
    M2 >= M1^2 and M4 >= M2^2.  ``from_sample`` computes it from centered
    values instead, which keeps its precision under a large location offset;
    a summary given the pair checks only that it is finite with c2 >= 0.
    """

    n: int
    m1: float
    m2: float
    m4: float
    variance: float | None = None
    kurtosis_numerator: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sample size must be >= 1")
        if self.variance is not None and self.kurtosis_numerator is not None:
            # the raw checks below fail on rounding alone under a large offset
            if not (math.isfinite(self.variance) and math.isfinite(self.kurtosis_numerator)):
                raise DomainError("centered moments must be finite")
            if self.variance < 0:
                raise DomainError("variance < 0 is impossible for real data")
            return
        if self.m2 < self.m1**2:
            raise DomainError("m2 < m1^2 is impossible for real data")
        if self.m4 < self.m2**2:
            raise DomainError("m4 < m2^2 violates Cauchy-Schwarz")
        if self.variance is None:
            object.__setattr__(self, "variance", self.m2 - self.m1**2)
        if self.kurtosis_numerator is None:
            numerator = self.m4 - 6.0 * self.m1**2 * self.m2 + 5.0 * self.m1**4
            object.__setattr__(self, "kurtosis_numerator", numerator)

    @classmethod
    def from_sample(cls, values) -> "MomentSummary":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("sample must be a nonempty 1-d array")
        m1, variance, numerator = (float(v[0]) for v in _centered_moments(arr[None, :]))
        n = arr.size
        raw_square = arr * arr
        return cls(
            n=n,
            m1=m1,
            m2=float(raw_square.sum() / n),
            m4=float(raw_square @ raw_square / n),
            variance=variance,
            kurtosis_numerator=numerator,
        )


def _centered_moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M1, the variance c2 and the kurtosis numerator c4 + 4 M1 c3 of each row
    of a 2-d array of samples; DomainError if any value is not finite.

    Each row is reduced along its own axis, as the 1-d sample would be, so
    its moments do not depend on the rows beside it.
    """
    if not np.all(np.isfinite(rows)):
        raise DomainError("sample contains non-finite values")
    n = rows.shape[1]
    m1 = rows.sum(axis=1) / n
    centered = rows - m1[:, None]
    # m1 carries the rounding of a sum of large values; the term 4 M1 c3
    # amplifies that error, so centre once more on the residual mean
    centered -= (centered.sum(axis=1) / n)[:, None]
    square = centered * centered
    variance = square.sum(axis=1) / n
    numerator = (np.vecdot(square, square) + 4.0 * m1 * np.vecdot(square, centered)) / n
    return m1, variance, numerator


@dataclass(frozen=True)
class FitResult:
    """Moment-matching estimates with delta-method uncertainty.

    ``cov`` is the asymptotic covariance of sqrt(n)*(mu_hat, sigma2_hat,
    kappa_hat); ``se`` divides out the sample size.  A clamped kappa_hat
    carries se[kappa] = nan; a ``clamped_low`` one also carries se[sigma2] =
    nan, because h' vanishes at the floor and the delta method there gives no
    usable value.
    """

    mu_hat: float
    sigma2_hat: float
    kappa_hat: float
    cov: np.ndarray
    se: np.ndarray
    kurtosis_statistic: float
    boundary_flag: BoundaryFlag
    n: int


@dataclass(frozen=True, eq=False)
class FitBatch:
    """The fields of ``FitResult`` for R moment summaries at once.

    Every field is an array along the summaries: ``cov`` is (R, 3, 3), ``se``
    is (R, 3), and ``n`` is the sample size (or sizes) as given.  Unavailable
    standard errors are nan, as in ``FitResult``.
    ``boundary_flag`` is an object array of BoundaryFlag members; test them
    one by one (``flag is BoundaryFlag.INTERIOR``), because numpy turns a
    str-enum operand of ``==`` into a truncated string.
    """

    mu_hat: np.ndarray
    sigma2_hat: np.ndarray
    kappa_hat: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    kurtosis_statistic: np.ndarray
    boundary_flag: np.ndarray
    n: int | np.ndarray


@dataclass(frozen=True)
class FittedCumulants:
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def _as_float(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


def _h(kappa):
    return np.exp(2.0 * _log_gamma(kappa + 1.0) - _log_gamma(2.0 * kappa + 1.0))


def _h_prime(kappa, h_value):
    return h_value * 2.0 * (_digamma(kappa + 1.0) - _digamma(2.0 * kappa + 1.0))


def h(kappa):
    """h(k) = Gamma(k+1)^2 / Gamma(2k+1), strictly decreasing on (0, 1]."""
    return _as_float(_h(_check_kappas(kappa)))


def h_prime(kappa):
    """Derivative of h, equal to 2 h(k) [psi(k+1) - psi(2k+1)]; negative."""
    kappa = _check_kappas(kappa)
    return _as_float(_h_prime(kappa, _h(kappa)))


def _invert_h(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve h(kappa) = omega elementwise on a 1-d array; returns kappa and
    integer flag codes.

    Newton's method on q(k) = sqrt(-log h(k)) = t, t = sqrt(-log omega),
    from k = t / q'(0), left of the root, climbs to it without a bracket
    (see _Q_SLOPE_AT_ZERO).  Each element stops on its own, once its step
    is not positive or within 4 eps of kappa.  The rounding of -log h,
    ~eps absolute against ~(pi^2/6) k^2, leaves ~eps/kappa^2 relative
    near the floor; a root below KAPPA_FLOOR returns KAPPA_FLOOR.
    """
    if not np.all(np.isfinite(omega)):
        raise DomainError("omega must be finite")
    kappa = np.ones_like(omega)
    codes = np.full(omega.shape, _INTERIOR, dtype=np.int8)
    codes[omega < 0.5] = _CLAMPED_HIGH
    low = omega >= 1.0
    codes[low] = _CLAMPED_LOW
    kappa[low] = KAPPA_FLOOR
    interior = np.flatnonzero((omega > 0.5) & (omega < 1.0))
    target = np.sqrt(-np.log(omega[interior]))
    root = target / _Q_SLOPE_AT_ZERO
    active = np.arange(target.size)
    for _ in range(_NEWTON_STEPS):
        k = root[active]
        # q^2 may round below 0 near k = 0; q = 0 then stops the row
        q = np.sqrt(np.maximum(_log_gamma(2.0 * k + 1.0) - 2.0 * _log_gamma(k + 1.0), 0.0))
        step = (target[active] - q) * q / (_digamma(2.0 * k + 1.0) - _digamma(k + 1.0))
        root[active] = k + np.maximum(step, 0.0)
        active = active[step > 4.0 * np.finfo(float).eps * k]
        if not active.size:
            break
    kappa[interior] = np.clip(root, KAPPA_FLOOR, 1.0)
    return kappa, codes


def h_inverse(omega):
    """Invert h by a monotone Newton iteration on sqrt(-log h).

    omega in [1/2, 1) has an interior solution; values outside are clamped to
    the nearest kappa boundary and flagged, never silently.  An interior
    kappa is within 1e-13 + 1e-15/kappa^2 (relative) of the exact root for
    the given double omega, and a root below KAPPA_FLOOR gives KAPPA_FLOOR,
    still flagged interior.  A scalar omega gives (kappa, BoundaryFlag); an
    array gives an array of kappa and an object array of flags, both of its
    shape.
    """
    arr = np.asarray(omega, dtype=float)
    kappa, codes = _invert_h(arr.ravel())
    if arr.ndim == 0:
        return float(kappa[0]), _FLAGS[codes[0]]
    return kappa.reshape(arr.shape), _FLAGS[codes].reshape(arr.shape)


def population_moments(mu, sigma2, kappa):
    """Exact (E Y, E Y^2, E Y^4) of the location-scale law; broadcasts."""
    kappa = _check_kappas(kappa)
    a = np.exp(-_log_gamma(kappa + 1.0))
    b = 6.0 * np.exp(-_log_gamma(2.0 * kappa + 1.0))
    m1 = mu
    m2 = mu**2 + sigma2 * a
    m4 = mu**4 + 6.0 * mu**2 * sigma2 * a + sigma2**2 * b
    return m1, _as_float(m2), _as_float(m4)


def moment_covariance(mu, sigma2, kappa) -> np.ndarray:
    """Covariance matrix of (Y, Y^2, Y^4), entrywise closed forms.

    Array arguments broadcast and give a stack of matrices, shape (..., 3, 3).
    """
    kappa = _check_kappas(kappa)
    s2 = np.asarray(sigma2, dtype=float)
    if not np.all(s2 > 0):
        raise DomainError("sigma2 must be positive")
    g1 = np.exp(_log_gamma(kappa + 1.0))
    g2 = np.exp(_log_gamma(2.0 * kappa + 1.0))
    g3 = np.exp(_log_gamma(3.0 * kappa + 1.0))
    g4 = np.exp(_log_gamma(4.0 * kappa + 1.0))
    cov = np.empty(np.broadcast_shapes(np.shape(mu), s2.shape, np.shape(kappa)) + (3, 3))
    cov[..., 0, 0] = s2 / g1
    cov[..., 0, 1] = cov[..., 1, 0] = 2.0 * mu * s2 / g1
    cov[..., 0, 2] = cov[..., 2, 0] = 24.0 * mu * s2**2 / g2 + 4.0 * mu**3 * s2 / g1
    cov[..., 1, 1] = 6.0 * s2**2 / g2 + 4.0 * mu**2 * s2 / g1 - s2**2 / g1**2
    cov[..., 1, 2] = cov[..., 2, 1] = (
        90.0 * s2**3 / g3
        - 6.0 * s2**3 / (g2 * g1)
        + 84.0 * mu**2 * s2**2 / g2
        - 6.0 * mu**2 * s2**2 / g1**2
        + 8.0 * mu**4 * s2 / g1
    )
    cov[..., 2, 2] = (
        16.0 * mu**6 * s2 / g1
        + 408.0 * mu**4 * s2**2 / g2
        - 36.0 * mu**4 * s2**2 / g1**2
        - 72.0 * mu**2 * s2**3 / (g1 * g2)
        + 2520.0 * mu**2 * s2**3 / g3
        + 2520.0 * s2**4 / g4
        - 36.0 * s2**4 / g2**2
    )
    return cov


# relative rounding error of the raw kurtosis numerator past which
# moment_map_gradient refuses the point
_RAW_ROUNDING_LIMIT = 1e-6


def moment_map_gradient(x, y, z) -> np.ndarray:
    """Jacobian of (M1, M2, M4) -> (mu, sigma2, kappa) at the moment point;
    broadcasts to shape (..., 3, 3).

    Uses Gamma'(t) = Gamma(t) psi(t) and d/dw h^{-1}(w) = 1 / h'(h^{-1}(w)).
    The map runs in raw moments, whose kurtosis numerator
    z - 6 x^2 y + 5 x^4 cancels once |x| dwarfs the spread.  Raises
    EstimationError when its rounding bound eps (|z| + 6 x^2 |y| + 5 x^4)
    exceeds 1e-6 of it, e.g. at ``population_moments(1e4, 1.0, 0.5)``;
    ``asymptotic_covariance`` works in centered moments and has no such limit.
    """
    numerator = z - 6.0 * x**2 * y + 5.0 * x**4
    rounding = np.finfo(float).eps * (np.abs(z) + 6.0 * x**2 * np.abs(y) + 5.0 * x**4)
    if np.any(rounding > _RAW_ROUNDING_LIMIT * np.abs(numerator)):
        raise EstimationError(
            "raw moments too far from the origin: rounding swamps the kurtosis numerator"
        )
    d = y - x**2
    if np.any(d <= 0):
        raise EstimationError("degenerate moment point: m2 <= m1^2")
    omega = numerator / (6.0 * d**2)
    kappa, _ = h_inverse(omega)
    gk = np.exp(_log_gamma(kappa + 1.0))
    gk_prime = gk * _digamma(kappa + 1.0)
    hp = _h_prime(kappa, _h(kappa))
    dk_dx = (4.0 * x**3 * y - 6.0 * x * y**2 + 2.0 * x * z) / (3.0 * d**3) / hp
    dk_dy = (-2.0 * x**4 + 3.0 * x**2 * y - z) / (3.0 * d**3) / hp
    dk_dz = 1.0 / (6.0 * d**2) / hp
    grad = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)) + (3, 3))
    grad[..., 0, 0] = 1.0
    grad[..., 1, 0] = -2.0 * x * gk + d * gk_prime * dk_dx
    grad[..., 1, 1] = gk + d * gk_prime * dk_dy
    grad[..., 1, 2] = d * gk_prime * dk_dz
    grad[..., 2, 0] = dk_dx
    grad[..., 2, 1] = dk_dy
    grad[..., 2, 2] = dk_dz
    return grad


def asymptotic_covariance(mu, sigma2, kappa) -> np.ndarray:
    """Asymptotic covariance of sqrt(n)-scaled estimates: grad_g Sigma grad_g^T.

    (M1, M2, M4) are linear in the sample moments (A1, A2, A3, A4) of
    X = Y - mu, so the delta method runs in those instead: same result,
    without the cancellation of raw moments under a large |mu|.  At the
    population point, where A_k = a_k = E X^k and a1 = a3 = 0, the variance
    A2 - A1^2 has gradient (0, 1, 0, 0) and the kurtosis numerator
    c4 + 4 M1 c3 has gradient (-12 mu a2, 0, 4 mu, 1).
    Array arguments broadcast and give a stack of matrices, shape (..., 3, 3).
    """
    kappa = _check_kappas(kappa)
    s2 = np.asarray(sigma2, dtype=float)
    if not np.all(s2 > 0):
        raise DomainError("sigma2 must be positive")
    mu = np.asarray(mu, dtype=float)
    g1, g2, g3, g4 = (np.exp(_log_gamma(j * kappa + 1.0)) for j in (1.0, 2.0, 3.0, 4.0))
    a2, a4, a6, a8 = s2 / g1, 6.0 * s2**2 / g2, 90.0 * s2**3 / g3, 2520.0 * s2**4 / g4
    shape = np.broadcast_shapes(mu.shape, s2.shape, np.shape(kappa))
    # covariance of (X, X^2, X^3, X^4); the odd moments of X vanish
    sigma = np.zeros(shape + (4, 4))
    sigma[..., 0, 0] = a2
    sigma[..., 0, 2] = sigma[..., 2, 0] = a4
    sigma[..., 1, 1] = a4 - a2**2
    sigma[..., 1, 3] = sigma[..., 3, 1] = a6 - a2 * a4
    sigma[..., 2, 2] = a6
    sigma[..., 3, 3] = a8 - a4**2
    # kappa = h^{-1}(omega), omega = numerator / (6 variance^2)
    dk = np.zeros(shape + (4,))
    dk[..., 0] = -12.0 * mu * a2
    dk[..., 1] = -2.0 * a4 / a2
    dk[..., 2] = 4.0 * mu
    dk[..., 3] = 1.0
    dk /= (6.0 * a2**2 * _h_prime(kappa, _h(kappa)))[..., None]
    grad = np.zeros(shape + (3, 4))
    grad[..., 0, 0] = 1.0
    grad[..., 1, :] = (a2 * g1 * _digamma(kappa + 1.0))[..., None] * dk
    grad[..., 1, 1] += g1
    grad[..., 2, :] = dk
    out = grad @ sigma @ np.swapaxes(grad, -1, -2)
    if not np.all(np.isfinite(out)):
        raise DomainError("asymptotic covariance has non-finite entries")
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def mm_fit_many(n, m1, variance, kurtosis_numerator) -> FitBatch:
    """Fit (mu, sigma2, kappa) for many moment summaries in one array pass.

    ``m1``, ``variance`` and ``kurtosis_numerator`` are equal-length 1-d
    sequences holding each summary's fields of the same names; ``n`` is the
    common sample size or an array of sizes.  Raises EstimationError if any
    variance is not positive and DomainError if any omega or covariance is
    non-finite.  Clamped fits carry se[:, 2] = nan, and ``clamped_low`` fits
    also se[:, 1] = nan.
    """
    sizes = np.asarray(n)
    if np.any(sizes < 1):
        raise DomainError("sample size must be >= 1")
    m1 = np.asarray(m1, dtype=float)
    d = np.asarray(variance, dtype=float)
    if np.any(d <= 0):
        raise EstimationError("degenerate sample: zero variance")
    omega = np.asarray(kurtosis_numerator, dtype=float) / (6.0 * d**2)
    kappa_hat, codes = _invert_h(omega)
    sigma2_hat = d * np.exp(_log_gamma(kappa_hat + 1.0))
    cov = asymptotic_covariance(m1, sigma2_hat, kappa_hat)
    se = np.sqrt(np.maximum(np.diagonal(cov, axis1=-2, axis2=-1), 0.0) / sizes[..., None])
    se[codes != _INTERIOR, 2] = np.nan
    se[codes == _CLAMPED_LOW, 1] = np.nan
    return FitBatch(
        mu_hat=m1,
        sigma2_hat=sigma2_hat,
        kappa_hat=kappa_hat,
        cov=cov,
        se=se,
        kurtosis_statistic=omega,
        boundary_flag=_FLAGS[codes],
        n=n,
    )


def mm_fit(summary: MomentSummary) -> FitResult:
    """Fit (mu, sigma2, kappa) from a moment summary.

    Raises EstimationError on degenerate samples (zero variance).  A clamped
    kappa_hat propagates its boundary flag and suppresses se(kappa), and at
    the lower clamp se(sigma2) too.
    """
    fit = mm_fit_many(
        summary.n, [summary.m1], [summary.variance], [summary.kurtosis_numerator]
    )
    return FitResult(
        mu_hat=summary.m1,
        sigma2_hat=float(fit.sigma2_hat[0]),
        kappa_hat=float(fit.kappa_hat[0]),
        cov=fit.cov[0],
        se=fit.se[0],
        kurtosis_statistic=float(fit.kurtosis_statistic[0]),
        boundary_flag=fit.boundary_flag[0],
        n=summary.n,
    )


def fitted_cumulants(fit: FitResult) -> FittedCumulants:
    """Cumulants of the law at the fitted parameters."""
    law = NmlLaw(fit.mu_hat, fit.sigma2_hat, fit.kappa_hat)
    mean, variance, skew, excess = law.cumulants()
    return FittedCumulants(mean, variance, skew, excess)
