"""The distribution family built on the Mittag-Leffler function.

Four laws, each immutable after construction with pure evaluation methods:

* ``MittagLefflerLaw``      -- positive mixing law with mgf E_k(s);
* ``FractionalPoissonLaw``  -- heavy-tailed counting law, Poisson at k=1;
* ``NmlLaw``                -- normal variance mixture sqrt(U)*Z, location-scale;
* ``CompLaw``               -- two-parameter count law with pmf ~ lam^j/(j!)^eta.

Sampling consumes a caller-owned ``RngStream``; concurrent samplers need
distinct streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, rgamma, sici

from .errors import DomainError, EvaluationError
from .special_functions import (
    _check_kappa,
    _gl_panels,
    _kanter_log,
    _mixing_density_log,
    _sum_series,
    mittag_leffler,
)

__all__ = [
    "RngStream",
    "MittagLefflerLaw",
    "FractionalPoissonLaw",
    "NmlLaw",
    "CompLaw",
]

_TWO_PI = 2.0 * np.pi


class RngStream:
    """Reproducible random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce identical variate sequences;
    distinct stream_ids give statistically independent streams for parallel
    work.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed, stream_id = int(seed), int(stream_id)
        if not 0 <= seed < 2**64 or not 0 <= stream_id < 2**64:
            raise DomainError("seed and stream_id must be unsigned 64-bit integers")
        self.seed = seed
        self.stream_id = stream_id
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, stream_id)))
        )

    def child(self, stream_id: int) -> "RngStream":
        """Fresh stream with the same seed and a new stream_id."""
        return RngStream(self.seed, stream_id)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _as_array(x, dtype=float) -> tuple[np.ndarray, tuple]:
    """The input flattened to 1-d, and its shape for ``_ret``."""
    arr = np.asarray(x, dtype=dtype)
    return arr.ravel(), arr.shape


def _ret(values: np.ndarray, shape: tuple):
    """1-d results back in the input's shape; a float for a scalar input."""
    return float(values[0]) if shape == () else values.reshape(shape)


# ---------------------------------------------------------------------------
# Mittag-Leffler mixing law
# ---------------------------------------------------------------------------

# decay exponent (1-k) * k**(k/(1-k)) * u**(1/(1-k)) below which the density
# series is cancellation-safe
_ML_SERIES_EXPONENT_BUDGET = 3.0
_ML_SERIES_MAX_TERMS = 700


def _mixing_series(
    kappa: float, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating density series; returns (values, max |term|, unconverged)
    per point.

    sin(pi*k*j) vanishes whenever k*j is an integer, so convergence is only
    declared after several consecutive small terms.  Close to kappa = 1 the
    terms decay like j**(-(1-k)*j), and a sum may not converge within the
    term cap even at a small argument.
    """
    log_u = np.log(u)

    def terms(rows, j):
        lt = gammaln(kappa * j + 1.0) - gammaln(j + 1.0) + (j - 1) * log_u[rows, None]
        return (-1.0) ** (j - 1) * np.sin(np.pi * kappa * j) * np.exp(lt)

    total, peak, unconverged = _sum_series(
        terms, 1, np.zeros_like(u), 4, 1e-15, _ML_SERIES_MAX_TERMS - 1
    )
    scale = np.pi * kappa
    return total / scale, peak / scale, unconverged


@dataclass(frozen=True)
class MittagLefflerLaw:
    """Positive law with moment generating function E_kappa; degenerate at 1
    when kappa = 1."""

    kappa: float

    def __post_init__(self):
        _check_kappa(self.kappa)

    def density(self, u):
        """Density at u > 0.

        The alternating series is used while its largest term cannot poison
        the sum and it converges within its term cap; other arguments go
        through the one-sided stable integral form, whose integrand is
        positive.
        """
        if self.kappa == 1.0:
            raise DomainError(
                "the kappa=1 law is a point mass at 1 and has no density"
            )
        arr, shape = _as_array(u)
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise DomainError("density requires u > 0")
        kappa = self.kappa
        out = np.empty_like(arr)
        a0 = (1.0 - kappa) * kappa ** (kappa / (1.0 - kappa))
        with np.errstate(over="ignore"):
            try_series = a0 * arr ** (1.0 / (1.0 - kappa)) <= _ML_SERIES_EXPONENT_BUDGET
        if try_series.any():
            vals, peaks, unconverged = _mixing_series(kappa, arr[try_series])
            safe = (peaks <= 4e4 * np.abs(vals)) & ~unconverged
            picked = np.flatnonzero(try_series)
            out[picked[safe]] = vals[safe]
            try_series[picked[~safe]] = False
        rest = ~try_series
        if rest.any():
            with np.errstate(over="ignore", under="ignore"):
                out[rest] = np.exp(_mixing_density_log(kappa, arr[rest]))
        return _ret(out, shape)

    def sample(self, rng: RngStream, size=None):
        """Exact draws via U = (W / A(Theta))**(1-kappa) with Theta uniform on
        (0, pi) and W unit exponential (one-sided stable transformation)."""
        n = size if size is not None else 1
        if self.kappa == 1.0:
            out = np.ones(n)
        else:
            gen = rng.generator
            theta = gen.uniform(0.0, np.pi, n)
            w = gen.standard_exponential(n)
            out = np.exp((1.0 - self.kappa) * (np.log(w) - _kanter_log(self.kappa, theta)))
        return float(out[0]) if size is None else out

    def mean(self) -> float:
        return math.exp(-gammaln(self.kappa + 1.0))


# ---------------------------------------------------------------------------
# Fractional Poisson law
# ---------------------------------------------------------------------------

_FP_SERIES_MAX_TERMS = 2000


def _fp_pmf_series(nu: float, kappa: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternating pmf series; returns (values, max |term|) per count."""
    log_nu = math.log(nu)
    prefix = n * log_nu - gammaln(n + 1.0)

    def terms(rows, i):
        na = n[rows, None]
        lt = (
            gammaln(i + na + 1.0)
            - gammaln(i + 1.0)
            + i * log_nu
            - gammaln(kappa * (i + na) + 1.0)
        )
        return (-1.0) ** i * np.exp(prefix[rows, None] + lt)

    total, peak, unconverged = _sum_series(
        terms, 0, np.zeros(n.shape), 3, 1e-16, _FP_SERIES_MAX_TERMS
    )
    if unconverged.any():
        raise EvaluationError("fractional Poisson pmf series did not converge")
    return total, peak


@lru_cache(maxsize=32)
def _mixture_nodes(kappa: float, u_hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, u_hi] with mixing density precomputed."""
    u, w = _gl_panels(np.linspace(0.0, u_hi, n_panels + 1), 10)
    return u, w, MittagLefflerLaw(kappa).density(u)


def _fp_pmf_mixture(nu: float, kappa: float, n: np.ndarray) -> np.ndarray:
    """Conditionally-Poisson quadrature: integral of Poisson(n; nu*u) against
    the mixing density.

    The largest count's integrand has log-shape
    n_max*log(nu*u) - nu*u - a0*u**(1/(1-k)) (Laplace); the range ends past
    the point where that falls 46 below its peak, and never before u_tail,
    where the mixing density's own decay exp(-a0*u**(1/(1-k))) reaches
    exp(-46).
    """
    a0 = (1.0 - kappa) * kappa ** (kappa / (1.0 - kappa))
    u_tail = (46.0 / a0) ** (1.0 - kappa)
    n_max = float(n.max())
    poisson_hi = (n_max + 12.0 * math.sqrt(n_max + 1.0) + 12.0) / nu
    probe = max(u_tail, poisson_hi) * np.geomspace(1e-6, 1.0, 400)
    with np.errstate(over="ignore"):
        log_g = n_max * np.log(nu * probe) - nu * probe - a0 * probe ** (1.0 / (1.0 - kappa))
    keep = log_g >= log_g.max() - 46.0
    u_hi = max(u_tail, probe[keep].max() * 1.2)
    n_panels = int(min(2000, max(64, 8.0 * u_hi * nu / math.sqrt(n_max + 1.0), 4 * u_hi)))
    u, w, dens = _mixture_nodes(kappa, u_hi, n_panels)
    log_pois = (
        n[:, None] * np.log(nu * u)[None, :]
        - (nu * u)[None, :]
        - gammaln(n + 1.0)[:, None]
    )
    with np.errstate(under="ignore"):
        return np.exp(log_pois) @ (w * dens)


@dataclass(frozen=True)
class FractionalPoissonLaw:
    """Counting law with pgf E_kappa(nu*(s-1)); Poisson(nu) at kappa = 1."""

    nu: float
    kappa: float

    def __post_init__(self):
        if not self.nu > 0 or not np.isfinite(self.nu):
            raise DomainError(f"nu must be positive and finite, got {self.nu}")
        _check_kappa(self.kappa)

    def pmf(self, n, branch: str = "auto"):
        """P(N = n) for integer n >= 0.

        branch:
            "auto"     series where its estimated error is ~1e-10 or less,
                       otherwise mixture quadrature;
            "series"   alternating series only; raises EvaluationError with a
                       pointer at the mixture branch when unsafe;
            "mixture"  quadrature against the mixing density only.
        """
        arr, shape = _as_array(n, dtype=None)
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError("counts must be integers")
        if np.any(arr < 0):
            raise DomainError("counts must be nonnegative")
        if branch not in ("auto", "series", "mixture"):
            raise DomainError(f"unknown branch {branch!r}")
        narr = arr.astype(float)
        if self.kappa == 1.0:
            out = np.exp(narr * math.log(self.nu) - self.nu - gammaln(narr + 1.0))
            return _ret(out, shape)
        if branch == "mixture":
            return _ret(_fp_pmf_mixture(self.nu, self.kappa, narr), shape)

        series_feasible = self.nu ** (1.0 / self.kappa) <= 25.0
        if series_feasible:
            vals, peaks = _fp_pmf_series(self.nu, self.kappa, narr)
            floor = np.maximum(np.abs(vals), 1e-300)
            if branch == "auto":
                # a term is the exp of log-gammas as large as log(n!), so its
                # rounding grows with n: the sum's relative error is about
                # eps * peak/|value| * (10 + log(n!)); keep it near 1e-10
                exact = peaks * (10.0 + gammaln(narr + 1.0)) <= 4e5 * floor
                if not exact.all():
                    vals[~exact] = _fp_pmf_mixture(self.nu, self.kappa, narr[~exact])
                return _ret(vals, shape)
            if np.all(peaks <= 4e4 * floor):
                return _ret(vals, shape)
        if branch == "series":
            raise EvaluationError(
                f"pmf series is unstable at nu={self.nu}, kappa={self.kappa}; "
                "use the mixture quadrature branch"
            )
        return _ret(_fp_pmf_mixture(self.nu, self.kappa, narr), shape)

    def pgf(self, s):
        """Probability generating function at |s| <= 1."""
        arr, shape = _as_array(s)
        if np.any(np.abs(arr) > 1.0):
            raise DomainError("pgf requires |s| <= 1")
        return _ret(mittag_leffler(self.kappa, self.nu * (arr - 1.0)), shape)

    def mean_var(self) -> tuple[float, float]:
        """Exact mean and variance."""
        g1 = math.exp(gammaln(self.kappa + 1.0))
        g2 = math.exp(gammaln(2.0 * self.kappa + 1.0))
        mean = self.nu / g1
        var = mean + mean**2 * (2.0 * g1**2 / g2 - 1.0)
        return mean, var

    def sample(self, rng: RngStream, size=None):
        """Conditionally-Poisson draws: N | U ~ Poisson(nu*U), U mixing."""
        gen = rng.generator
        n = size if size is not None else 1
        if self.kappa == 1.0:
            out = gen.poisson(self.nu, n)
        else:
            u = MittagLefflerLaw(self.kappa).sample(rng, n)
            out = gen.poisson(self.nu * u)
        return int(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# Normal-Mittag-Leffler law
# ---------------------------------------------------------------------------

# t-range of the quadrature core; beyond it the envelope E_k(-t^2/2) is
# replaced by its algebraic expansion, whose cosine moments are closed-form
_NML_CORE_CUT = 20.0
_NML_TAIL_TERMS = 8
_NML_YMAX = 48.0
_NML_GAUSS_CUT = 8.8


@lru_cache(maxsize=32)
def _nml_core(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed Gauss-Legendre layout on [0, core_cut] with weighted envelope.

    Panel width resolves cos(t*y) for |y| up to _NML_YMAX; the envelope is
    evaluated once per kappa and reused for every density call.
    """
    cut = _NML_GAUSS_CUT if kappa == 1.0 else _NML_CORE_CUT
    width = np.pi / (2.0 * _NML_YMAX)
    n_panels = int(np.ceil(cut / width))
    t, w = _gl_panels(np.linspace(0.0, cut, n_panels + 1), 12)
    if kappa == 1.0:
        env = np.exp(-t * t / 2.0)
    else:
        env = mittag_leffler(kappa, -t * t / 2.0)
    return t, w * env


def _cos_tail_table(a: np.ndarray, n_max: int) -> dict[int, np.ndarray]:
    """C_n(a) = int_a^inf cos(s) s^-n ds by forward recursion from Si/Ci.

    Forward recursion loses relative accuracy once a**n outgrows n!, so
    callers must discard orders whose a-priori magnitude bound is negligible
    (which is exactly the regime where the recursion degrades).
    """
    si, ci = sici(a)
    cos_a, sin_a = np.cos(a), np.sin(a)
    c = {1: -ci}
    s = {1: np.pi / 2.0 - si}
    for n in range(1, n_max):
        an = a ** (-n)
        s[n + 1] = (c[n] + sin_a * an) / n
        c[n + 1] = (cos_a * an - s[n]) / n
    return c


def _nml_standard_density(kappa: float, y: np.ndarray) -> np.ndarray:
    """Density of the standard law by cosine-transform of E_k(-t^2/2)."""
    ay = np.abs(y)
    if np.any(ay > _NML_YMAX):
        raise EvaluationError(
            f"density quadrature supports |y| <= {_NML_YMAX} in standard units"
        )
    t, wenv = _nml_core(kappa)
    out = np.empty_like(ay)
    # chunk the cosine matrix to bound memory
    step = max(1, int(4e6 // t.size))
    for i in range(0, ay.size, step):
        blk = ay[i : i + step]
        out[i : i + step] = np.cos(np.outer(blk, t)) @ wenv
    if kappa == 1.0:
        return out / np.pi

    m = np.arange(1, _NML_TAIL_TERMS + 1)
    coef = (-1.0) ** (m - 1) * 2.0**m * rgamma(1.0 - kappa * m)
    cut = _NML_CORE_CUT
    tail = np.zeros_like(ay)
    near_zero = ay < 1e-12
    if near_zero.any():
        tail[near_zero] = np.sum(coef * cut ** (1.0 - 2 * m) / (2 * m - 1.0))
    far = ~near_zero
    if far.any():
        yy = ay[far]
        a = cut * yy
        ctab = _cos_tail_table(a, 2 * _NML_TAIL_TERMS)
        acc = np.zeros_like(yy)
        for mm in m:
            # skip orders whose whole contribution is below 1e-14: their
            # recursed values are unreliable exactly when negligible
            bound = (
                abs(coef[mm - 1])
                * yy ** (2 * mm - 1)
                * np.minimum(a ** (1.0 - 2 * mm) / (2 * mm - 1.0), 2.0 * a ** (-2.0 * mm))
            )
            keep = bound >= 1e-14
            if keep.any():
                acc[keep] += coef[mm - 1] * yy[keep] ** (2 * mm - 1) * ctab[2 * mm][keep]
        tail[far] = acc
    return (out + tail) / np.pi


@dataclass(frozen=True)
class NmlLaw:
    """Location-scale normal variance mixture with mixing law MittagLefflerLaw.

    mu is the location, sigma2 the squared scale, kappa the tail parameter:
    kappa = 1 is exactly normal, kappa -> 0 approaches Laplace.
    """

    mu: float
    sigma2: float
    kappa: float

    def __post_init__(self):
        if not self.sigma2 > 0 or not np.isfinite(self.sigma2):
            raise DomainError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not np.isfinite(self.mu):
            raise DomainError("mu must be finite")
        _check_kappa(self.kappa)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def density(self, x):
        """Density f(x), evaluated by oscillatory quadrature of the inversion
        integral; symmetric about mu and accurate to ~1e-9 absolute."""
        arr, shape = _as_array(x)
        z = (arr - self.mu) / self.sigma
        out = _nml_standard_density(self.kappa, z) / self.sigma
        return _ret(out, shape)

    def moment(self, n: int) -> float:
        """Exact n-th raw moment E(X^n) as a finite sum."""
        if n < 1 or n != int(n):
            raise DomainError("moment order must be a positive integer")
        n = int(n)
        mu, kappa = self.mu, self.kappa
        sig = self.sigma
        total = 0.0
        if n % 2 == 1:
            for j in range((n - 1) // 2 + 1):
                total += (
                    math.exp(
                        gammaln(n + 1.0)
                        - gammaln(2 * j + 2.0)
                        - gammaln(((n - 2 * j - 1) / 2.0) * kappa + 1.0)
                    )
                    * 2.0 ** ((2 * j + 1 - n) / 2.0)
                    * sig ** (n - 2 * j - 1)
                    * mu ** (2 * j + 1)
                )
        else:
            for j in range(n // 2 + 1):
                total += (
                    math.exp(
                        gammaln(n + 1.0)
                        - gammaln(2 * j + 1.0)
                        - gammaln((n / 2.0 - j) * kappa + 1.0)
                    )
                    * 2.0 ** (j - n / 2.0)
                    * sig ** (n - 2 * j)
                    * mu ** (2 * j)
                )
        return total

    def cumulants(self) -> tuple[float, float, float, float]:
        """(mean, variance, skewness, excess kurtosis)."""
        g1 = math.exp(gammaln(self.kappa + 1.0))
        g2 = math.exp(gammaln(2.0 * self.kappa + 1.0))
        return (self.mu, self.sigma2 / g1, 0.0, 6.0 * g1 * g1 / g2 - 3.0)

    def sample(self, rng: RngStream, size=None):
        """mu + sigma*sqrt(U)*Z with U mixing and Z standard normal."""
        gen = rng.generator
        n = size if size is not None else 1
        u = MittagLefflerLaw(self.kappa).sample(rng, n)
        z = gen.standard_normal(n)
        out = self.mu + self.sigma * np.sqrt(u) * z
        return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# COMP law
# ---------------------------------------------------------------------------

_COMP_MAX_TABLE = 5_000_000
# the normalizing series is cut where a term falls below this share of the
# partial sum (and never before mode + 20 sd)
_COMP_TRUNC_TOL = 1e-14


@dataclass(frozen=True)
class CompLaw:
    """Count law with pmf proportional to lam^j / (j!)^eta; Poisson at eta=1."""

    lam: float
    eta: float

    def __post_init__(self):
        if not self.lam > 0 or not np.isfinite(self.lam):
            raise DomainError(f"lam must be positive and finite, got {self.lam}")
        if not self.eta > 0 or not np.isfinite(self.eta):
            raise DomainError(f"eta must be positive and finite, got {self.eta}")

    def _horizon(self) -> int:
        mode = self.lam ** (1.0 / self.eta)
        sd = math.sqrt(max(mode / self.eta, 1.0))
        return int(mode + 20.0 * sd + 30.0)

    def _log_terms(self) -> np.ndarray:
        """Log-weights log(lam^j / (j!)^eta) out to the truncation horizon.

        The horizon is the larger of mode + 20 sd and the point where the
        term-to-partial-sum ratio falls below _COMP_TRUNC_TOL.
        """
        j_min = self._horizon()
        if j_min > _COMP_MAX_TABLE:
            raise EvaluationError(
                f"truncation horizon {j_min} exceeds the supported table size; "
                "tail mass cannot be bounded"
            )
        log_lam = math.log(self.lam)
        block = max(j_min + 1, 64)
        j_hi = block
        while True:
            j = np.arange(j_hi, dtype=float)
            lt = j * log_lam - self.eta * gammaln(j + 1.0)
            shift = lt.max()
            partial = shift + math.log(np.exp(lt - shift).sum())
            if lt[-1] - partial < math.log(_COMP_TRUNC_TOL) and j_hi > j_min:
                return lt
            if j_hi > _COMP_MAX_TABLE:
                tail = math.exp(lt[-1] - partial)
                raise EvaluationError(
                    f"truncation horizon exceeded; achieved tail ratio {tail:.3e}"
                )
            j_hi *= 2

    @property
    def _table(self) -> tuple[np.ndarray, float]:
        cached = getattr(self, "_cached_table", None)
        if cached is None:
            lt = self._log_terms()
            shift = lt.max()
            log_h = shift + math.log(np.exp(lt - shift).sum())
            cached = (lt, log_h)
            object.__setattr__(self, "_cached_table", cached)
        return cached

    def log_normalizer(self) -> float:
        """log of the normalizing series sum_i lam^i/(i!)^eta."""
        return self._table[1]

    def pmf(self, j):
        arr, shape = _as_array(j, dtype=None)
        if not np.issubdtype(arr.dtype, np.integer):
            raise DomainError("counts must be integers")
        if np.any(arr < 0):
            raise DomainError("counts must be nonnegative")
        lt, log_h = self._table
        out = np.zeros(arr.shape, dtype=float)
        inside = arr < lt.size
        out[inside] = np.exp(lt[arr[inside]] - log_h)
        return _ret(out, shape)

    def mean_var(self) -> tuple[float, float]:
        """Mean and variance by term-weighted sums over the truncated series."""
        lt, log_h = self._table
        p = np.exp(lt - log_h)
        j = np.arange(lt.size, dtype=float)
        mean = float(j @ p)
        var = float((j - mean) ** 2 @ p)
        return mean, var

    def sample(self, rng: RngStream, size=None):
        """Exact inverse-cdf draws over the truncated support."""
        lt, log_h = self._table
        cdf = np.cumsum(np.exp(lt - log_h))
        cdf[-1] = 1.0
        n = size if size is not None else 1
        draws = np.searchsorted(cdf, rng.generator.uniform(size=n), side="left")
        return int(draws[0]) if size is None else draws
