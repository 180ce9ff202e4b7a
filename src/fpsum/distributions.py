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
from functools import cached_property, lru_cache

import numpy as np
# numpy loads numpy.random lazily; importing it with the package keeps that
# cost out of the first RngStream
from numpy.random import PCG64, Generator, SeedSequence

from .errors import DomainError, EvaluationError
from .special_functions import (
    _GL_ORDER,
    _check_kappa,
    _gl_panels,
    _kanter_log,
    _legendre,
    _log_gamma,
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
        self.generator = Generator(PCG64(SeedSequence((seed, stream_id))))

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


def _is_count(value) -> bool:
    """An integer, Python or numpy, that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _draws(size, draw, scalar=float):
    """A sampler's draws, taken as ``draw(n)``, a flat array of n: for size
    None one, as ``scalar``; for a nonnegative integer or a tuple of them an
    array of that shape, the flat draws in C order.  Any other size is a
    DomainError."""
    if size is None:
        return scalar(draw(1)[0])
    shape = (size,) if _is_count(size) else size
    if not isinstance(shape, tuple) or not all(_is_count(n) and n >= 0 for n in shape):
        raise DomainError(
            f"size must be None, a nonnegative integer or a tuple of them, got {size!r}"
        )
    shape = tuple(map(int, shape))
    return draw(math.prod(shape)).reshape(shape)


# ---------------------------------------------------------------------------
# Mittag-Leffler mixing law
# ---------------------------------------------------------------------------

# decay exponent (1-k) * k**(k/(1-k)) * u**(1/(1-k)) below which the density
# series is cancellation-safe
_ML_SERIES_EXPONENT_BUDGET = 3.0
_ML_SERIES_MAX_TERMS = 700


def _mixing_series(
    kappa: float, log_u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating density series at log u; returns (values, max |term|,
    unconverged) per point.

    Term j carries (-1)**(j-1) sin(pi*k*j) = sin(pi*(1-k)*j), exact as
    kappa -> 1 and 0 where k*j is an integer, so convergence is declared
    only after several small terms in a row.  Near kappa = 1 the terms decay
    like j**(-(1-k)*j): a sum may not converge within the cap at small u.
    """

    def terms(rows, j):
        lt = _log_gamma(kappa * j + 1.0) - _log_gamma(j + 1.0) + (j - 1) * log_u[rows, None]
        return np.sin(np.pi * (1.0 - kappa) * j) * np.exp(lt)

    total, peak, unconverged = _sum_series(
        terms, 1, np.zeros_like(log_u), 4, 1e-15, _ML_SERIES_MAX_TERMS - 1
    )
    scale = np.pi * kappa
    return total / scale, peak / scale, unconverged


def _mixing_log_density(kappa: float, log_u: np.ndarray) -> np.ndarray:
    """log g(u) of the mixing law at log u, kappa < 1: the alternating series
    where its largest term cannot poison the sum, it converges within its
    term cap and its value is positive; elsewhere the one-sided stable
    integral, whose integrand is positive."""
    out = np.empty_like(log_u)
    log_a0 = math.log(1.0 - kappa) + kappa / (1.0 - kappa) * math.log(kappa)
    try_series = log_a0 + log_u / (1.0 - kappa) <= math.log(_ML_SERIES_EXPONENT_BUDGET)
    if try_series.any():
        vals, peaks, unconverged = _mixing_series(kappa, log_u[try_series])
        safe = (peaks <= 4e4 * vals) & ~unconverged
        picked = np.flatnonzero(try_series)
        out[picked[safe]] = np.log(vals[safe])
        try_series[picked[~safe]] = False
    rest = ~try_series
    if rest.any():
        out[rest] = _mixing_density_log(kappa, log_u[rest])
    return out


# Theta = 0 is a possible draw (probability 2**-53) at which V's sines are
# 0; at half this half-angle V is at its Theta -> 0 limit to rounding, and
# the smallest nonzero draw, pi/2 * 2**-53, is above it
_HALF_ANGLE_FLOOR = np.pi / 2.0 * 2.0**-54


def _log_mixing_rows(kappa: float, generators: list, n: int) -> np.ndarray:
    """log U of the mixing law, kappa < 1, as (1-k) log W - V(Theta): one row
    of n per generator, each of which draws Theta then W; the rows are
    transformed together, W in the buffer of Theta."""
    buf = np.empty((len(generators), n))
    for gen, row in zip(generators, buf):
        gen.random(out=row)
    buf *= np.pi / 2.0  # Theta/2 for Theta uniform(0, pi), bit for bit
    np.maximum(buf, _HALF_ANGLE_FLOOR, out=buf)
    v = _kanter_log(kappa, buf)
    for gen, row in zip(generators, buf):
        gen.standard_exponential(out=row)
    np.log(buf, out=buf)
    buf *= 1.0 - kappa
    buf -= v
    return buf


def _mixing_rows(kappa: float, generators: list, n: int) -> np.ndarray:
    """Draws U of the mixing law, kappa < 1, one row of n per generator."""
    log_u = _log_mixing_rows(kappa, generators, n)
    return np.exp(log_u, out=log_u)


def _nml_rows(kappa: float, mu: float, sigma: float, generators: list, n: int) -> np.ndarray:
    """mu + sigma*sqrt(U)*Z, one row of n per generator, each of which draws
    U (kappa < 1) then Z; the rows are transformed together."""
    scale = sigma
    if kappa != 1.0:
        scale = _log_mixing_rows(kappa, generators, n)
        scale *= 0.5
        np.exp(scale, out=scale)  # sqrt(U)
        scale *= sigma
    x = np.empty((len(generators), n))
    for gen, row in zip(generators, x):
        gen.standard_normal(out=row)
    x *= scale
    x += mu
    return x


@dataclass(frozen=True)
class MittagLefflerLaw:
    """Positive law with moment generating function E_kappa; degenerate at 1
    when kappa = 1."""

    kappa: float

    def __post_init__(self):
        _check_kappa(self.kappa)

    def density(self, u):
        """Density at u > 0, the exp of ``_mixing_log_density``: ~1e-12
        relative against the mpmath oracles, up to kappa 1 - 2**-53."""
        if self.kappa == 1.0:
            raise DomainError(
                "the kappa=1 law is a point mass at 1 and has no density"
            )
        arr, shape = _as_array(u)
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise DomainError("density requires u > 0")
        with np.errstate(under="ignore"):
            return _ret(np.exp(_mixing_log_density(self.kappa, np.log(arr))), shape)

    def sample(self, rng: RngStream, size=None):
        """Exact draws via U = (W / A(Theta))**(1-kappa) with Theta uniform on
        (0, pi) and W unit exponential (Kanter's one-sided stable
        transformation), formed as exp((1-kappa) log W - V(Theta)) with V =
        (1-kappa) log A from half-angle tangents (``_kanter_log``)."""
        if self.kappa == 1.0:
            return _draws(size, np.ones)
        return _draws(size, lambda n: _mixing_rows(self.kappa, [rng.generator], n)[0])

    def mean(self) -> float:
        return 1.0 / math.gamma(self.kappa + 1.0)


# the nodes end where log g falls below this: the integrand peak of every
# representable density or pmf value lies inside them
_NODES_LOG_G_END = -750.0
# panels halve toward v = 0 down to v_c * 2**-46; the first one,
# [0, v_c * 2**-46], is too narrow to matter even for tiny |y|
_NODES_HALVINGS = 46
# in s = log(u)/(1-k) the core of g is O(1) wide for every kappa: the
# panels next to v_c are this wide in s, and grow by _NODES_GROWTH per panel
# toward v = 0 until they are halvings
_NODES_CORE_WIDTH = 1.0
_NODES_GROWTH = 2.0
# right of v_c the panels are this wide in r = sqrt(a0 u**(1/(1-k))), where
# log g ~ -r**2; at 2 the nodes, in log v, miss the NML far tail by 2e-10
_NODES_FLANK_WIDTH = 1.75


@lru_cache(maxsize=32)
def _mixing_panels(kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The level-0 panels of the mixing nodes, as (log_v, log u, log w, log g).

    16-point Gauss-Legendre panels in log v, v = sqrt(u), laid out around
    v_c = a0**(-(1-k)/2), where g's flank exp(-a0 u**(1/(1-k))) sets in.
    Left of v_c they are _NODES_CORE_WIDTH wide in s = log(u)/(1-k) and grow
    geometrically into halvings of v, which resolve the step of phi(y/v) at
    v ~ |y| that gives the NML density its cusp.  Right of v_c they are
    _NODES_FLANK_WIDTH wide in r = sqrt(a0 u**(1/(1-k))), which also spans
    the integrand's peak in the far tail of the density, and they end where
    log g reaches _NODES_LOG_G_END.  log_v holds the panel edges but the
    first panel's 0: panel p > 0 is [log_v[p-1], log_v[p]], the first runs
    in v.  The nodes come panel by panel with their exact log u, and the
    weights are in the u-measure, du = 2 u d(log v).  g is evaluated there only.
    """
    c = 1.0 - kappa
    log_a0 = math.log(c) + kappa / c * math.log(kappa)
    log_vc = -c * log_a0 / 2.0
    widths = np.minimum(_NODES_CORE_WIDTH * c / 2.0 * _NODES_GROWTH ** np.arange(64), math.log(2.0))
    left = log_vc - np.cumsum(widths)
    left = left[left > log_vc - _NODES_HALVINGS * math.log(2.0)]
    # log g ~ -r**2 on the flank, at u = u_c * r**(2(1-k)); widen until
    # log g at the end is below _NODES_LOG_G_END
    r_hi = math.sqrt(-_NODES_LOG_G_END)
    while (_mixing_log_density(kappa, np.array([2.0 * (log_vc + c * math.log(r_hi))]))[0]
           > _NODES_LOG_G_END):
        r_hi += _NODES_FLANK_WIDTH
    r = np.arange(1.0, r_hi + _NODES_FLANK_WIDTH, _NODES_FLANK_WIDTH)
    log_v = np.concatenate((left[::-1], log_vc + c * np.log(r)))
    v, w0 = _gl_panels(np.zeros(1), np.exp(log_v[:1]))
    lv, w = _gl_panels(log_v[:-1], log_v[1:])
    log_u = 2.0 * np.append(np.log(v), lv)
    log_w = np.append(np.log(2.0 * v * w0), np.log(2.0 * w) + 2.0 * lv)
    return log_v, log_u, log_w, _mixing_log_density(kappa, log_u)


def _refined_nodes(
    kappa: float, level: int, panels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (log u, log w, log g) of the level-0 panels numbered ``panels``
    (ascending), each but the first cut into 2**level equal parts in log v.

    The first panel, [0, v_c * 2**-46], is never cut and keeps its nodes.
    At a new node, log g is the barycentric interpolant of its level-0
    panel's 16 values, with the Gauss-Legendre weights (-1)**j sqrt((1 -
    x_j**2) w_j) (Wang, Huybrechs & Vandewalle 2014), taken in v, where g is
    near a power series in v**2 (alternating weights leave no pole, Berrut
    1988): 4e-13 at kappa 0.9, against 5.6e-13 in log v.  No integral here.
    """
    log_v, log_u0, log_w0, log_g0 = _mixing_panels(kappa)
    parts = 2**level
    cut = panels[panels > 0]
    # the edges of cutting every panel, np.interp at m / parts
    m = ((cut - 1)[:, None] * parts + np.arange(parts + 1)).ravel()
    sub = np.interp(m / parts, np.arange(log_v.size), log_v).reshape(cut.size, parts + 1)
    lv, w = _gl_panels(sub[:, :-1].ravel(), sub[:, 1:].ravel())
    # v - v_j at each level-0 point v_j, through log v to keep its precision
    lv0 = log_u0.reshape(-1, _GL_ORDER)[cut] / 2.0
    diff = np.exp(lv0)[:, None, :] * np.expm1(lv.reshape(cut.size, -1, 1) - lv0[:, None, :])
    xg, wg = _legendre()
    hit = diff == 0.0
    # at a level-0 point, all the weight is on it
    ratio = np.where(
        hit.any(axis=2, keepdims=True),
        hit,
        (-1.0) ** np.arange(_GL_ORDER) * np.sqrt((1.0 - xg * xg) * wg) / np.where(hit, 1.0, diff),
    )
    log_g = np.einsum("pnj,pj->pn", ratio, log_g0.reshape(-1, _GL_ORDER)[cut]) / ratio.sum(axis=2)
    log_u, log_w, log_g = 2.0 * lv, np.log(2.0 * w) + 2.0 * lv, log_g.ravel()
    if panels.size and panels[0] == 0:
        return tuple(np.concatenate((level0[:_GL_ORDER], new))
                     for level0, new in ((log_u0, log_u), (log_w0, log_w), (log_g0, log_g)))
    return log_u, log_w, log_g


def _mixing_nodes(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of int h(u) g(u) du against the mixing density, as (log u, log(w g(u))).

    They are the level-0 panels of ``_mixing_panels``, the only nodes at
    which g is evaluated, and serve the NML density.  The FP pmf refines,
    for the Poisson kernel, which is ~1/sqrt(n) wide in log u, only the
    panels that hold its integrand (``_refined_nodes``).
    """
    _, log_u, log_w, log_g = _mixing_panels(kappa)
    return log_u, log_w + log_g


def _exponents(x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The matrix x_j * a_i + b_i in chunks of rows, to bound memory:
    yields (rows, chunk)."""
    step = max(1, int(1e6 // a.size))
    for i in range(0, x.size, step):
        rows = slice(i, i + step)
        expo = np.multiply.outer(x[rows], a)
        expo += b
        yield rows, expo


def _log_sum_exp(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log sum_i exp(x_j * a_i + b_i) for each x_j.

    Each row is shifted by its largest exponent, so the sum is positive and
    finite: the result is -inf only where every exponent is -inf, and NaN at
    a NaN x.
    """
    out = np.empty(x.shape)
    with np.errstate(under="ignore", divide="ignore"):
        # one matrix per chunk, updated in place
        for rows, expo in _exponents(x, a, b):
            shift = expo.max(axis=1)
            # a row of -inf: shift by 0, and its log sum is -inf
            shift[shift == -np.inf] = 0.0
            expo -= shift[:, None]
            out[rows] = shift + np.log(np.exp(expo, out=expo).sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# Fractional Poisson law
# ---------------------------------------------------------------------------

_FP_SERIES_MAX_TERMS = 2000


def _fp_pmf_series(nu: float, kappa: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternating pmf series; returns (values, max |term|) per count."""
    log_nu = math.log(nu)
    prefix = n * log_nu - _log_gamma(n + 1.0)

    def terms(rows, i):
        # the block's log-gammas depend on k = i + n alone, and neighbouring
        # counts share most k: evaluate each distinct k once
        ik = i + n[rows, None]
        k, at = np.unique(ik, return_inverse=True)
        at = at.reshape(ik.shape)
        lt = (
            _log_gamma(k + 1.0)[at]
            - _log_gamma(i + 1.0)
            + i * log_nu
            - _log_gamma(kappa * k + 1.0)[at]
        )
        return (-1.0) ** i * np.exp(prefix[rows, None] + lt)

    total, peak, unconverged = _sum_series(
        terms, 0, np.zeros(n.shape), 3, 1e-16, _FP_SERIES_MAX_TERMS
    )
    if unconverged.any():
        raise EvaluationError("fractional Poisson pmf series did not converge")
    return total, peak


def _fp_mixture_level(n):
    """Level of the mixing nodes for count n (a number or an array).  The
    Poisson kernel is ~1/sqrt(n) wide in log u: one level per factor 4 of the
    count, so 1 up to n 23, 2 to 95, 3 to 383, 4 to 1535, each within 2e-12
    of two levels finer at nu 1 to 1e4, kappa 0.01 to 0.999."""
    return np.maximum(1, np.ceil(np.log2((np.asarray(n) + 1.0) / 6.0) / 2.0)).astype(int)


# a level-0 panel joins a block's window where some count's integrand at one
# of its nodes is within this of the count's largest one
_FP_WINDOW_DEPTH = 60.0


def _fp_window(n: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The level-0 panels that hold the integrand exp(n a_i + b_i) of counts
    n, a = log(nu u) and b = log(w g) - nu u on the level-0 nodes, as
    ascending panel numbers: those where it comes within _FP_WINDOW_DEPTH of
    its largest value for some n, and one more panel on each side.  The
    neighbours catch a peak narrower than the level-0 node spacing, which
    lies next to its largest node."""
    near = np.zeros(a.size, dtype=bool)
    for _, expo in _exponents(n, a, b):
        near |= (expo >= expo.max(axis=1, keepdims=True) - _FP_WINDOW_DEPTH).any(axis=0)
    held = near.reshape(-1, _GL_ORDER).any(axis=1)
    grown = held.copy()
    grown[1:] |= held[:-1]
    grown[:-1] |= held[1:]
    return np.flatnonzero(grown)


def _fp_pmf_mixture(nu: float, kappa: float, n: np.ndarray) -> np.ndarray:
    """Integral of Poisson(n; nu*u) against the mixing density.  The counts
    of each level of ``_fp_mixture_level`` form one block, which sums over
    its window of level-0 panels (``_fp_window``) refined to that level."""
    log_nu = math.log(nu)
    log_u0, log_wg0 = _mixing_nodes(kappa)
    a0, b0 = log_nu + log_u0, log_wg0 - nu * np.exp(log_u0)
    levels = _fp_mixture_level(n)
    log_p = np.empty(n.shape)
    # not np.unique, whose first call imports numpy.ma (~14 ms)
    for level in sorted(set(levels.tolist())):
        rows = levels == level
        panels = _fp_window(n[rows], a0, b0)
        log_u, log_w, log_g = _refined_nodes(kappa, level, panels)
        log_p[rows] = _log_sum_exp(n[rows], log_nu + log_u, log_w + log_g - nu * np.exp(log_u))
    with np.errstate(under="ignore"):
        return np.exp(log_p - _log_gamma(n + 1.0))


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
            "auto"     int Poisson(n; nu*u) g(u) du on the mixing nodes of
                       the NML density: the counts of each level
                       (``_fp_mixture_level``) sum over the panels that hold
                       their integrand, refined for the Poisson kernel with
                       log g interpolated (``_fp_pmf_mixture``).  ~1e-13
                       relative against the mpmath oracles up to kappa
                       0.999, and within 1e-12 + a few eps*n*log(n) at n in
                       the thousands, where rounding sets that floor.  A
                       table costs its length times its window of panels,
                       not times every panel;
            "mixture"  a second name for "auto";
            "series"   the alternating series, an independent route.  It
                       raises EvaluationError, pointing at the mixture, when
                       nu**(1/kappa) > 25 or its largest term exceeds 4e4
                       times the sum; that guard lets errors well above 1e-10
                       through (2.5e-9 at nu 1, kappa 0.6, n 40).
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
            out = np.exp(narr * math.log(self.nu) - self.nu - _log_gamma(narr + 1.0))
            return _ret(out, shape)
        if branch != "series":
            return _ret(_fp_pmf_mixture(self.nu, self.kappa, narr), shape)
        if self.nu ** (1.0 / self.kappa) <= 25.0:
            vals, peaks = _fp_pmf_series(self.nu, self.kappa, narr)
            if np.all(peaks <= 4e4 * np.maximum(np.abs(vals), 1e-300)):
                return _ret(vals, shape)
        raise EvaluationError(
            f"pmf series is unstable at nu={self.nu}, kappa={self.kappa}; "
            "use the mixture quadrature branch"
        )

    def pgf(self, s):
        """Probability generating function at finite s with |s| <= 1.  A
        scalar s reaches E_k as a float, which takes its one-value door."""
        if isinstance(s, (float, int)) or np.ndim(s) == 0:
            s = float(s)
            # not "abs(s) > 1": NaN would pass
            if not abs(s) <= 1.0:
                raise DomainError(f"pgf requires a finite s with |s| <= 1, got {s}")
            return mittag_leffler(self.kappa, self.nu * (s - 1.0))
        arr, shape = _as_array(s)
        if not np.all(np.abs(arr) <= 1.0):
            raise DomainError("pgf requires a finite s with |s| <= 1")
        return _ret(mittag_leffler(self.kappa, self.nu * (arr - 1.0)), shape)

    def mean_var(self) -> tuple[float, float]:
        """Exact mean and variance."""
        g1 = math.gamma(self.kappa + 1.0)
        g2 = math.gamma(2.0 * self.kappa + 1.0)
        mean = self.nu / g1
        var = mean + mean**2 * (2.0 * g1**2 / g2 - 1.0)
        return mean, var

    def sample(self, rng: RngStream, size=None):
        """Conditionally-Poisson draws: N | U ~ Poisson(nu*U), U mixing."""
        gen = rng.generator
        if self.kappa == 1.0:
            return _draws(size, lambda n: gen.poisson(self.nu, n), int)
        return _draws(
            size, lambda n: gen.poisson(self.nu * _mixing_rows(self.kappa, [gen], n)[0]), int
        )


# ---------------------------------------------------------------------------
# Normal-Mittag-Leffler law
# ---------------------------------------------------------------------------

def _nml_standard_density(kappa: float, y: np.ndarray) -> np.ndarray:
    """Density of the standard law: normal at kappa 1, else the variance
    mixture int N(y; 0, u) g(u) du on the level-0 mixing nodes, summed in log
    space: 0 only where the density itself underflows."""
    with np.errstate(over="ignore"):
        y2 = y * y
    if kappa == 1.0:
        return np.exp(-0.5 * y2) / math.sqrt(_TWO_PI)
    log_u, log_wg = _mixing_nodes(kappa)
    with np.errstate(under="ignore"):
        return np.exp(_log_sum_exp(y2, -0.5 * np.exp(-log_u),
                                   log_wg - 0.5 * (math.log(_TWO_PI) + log_u)))


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
        """Density f(x), symmetric about mu.

        For kappa < 1 it is the paper's variance mixture,
        f(y) = 2 * int_0^inf phi(y/v) g(v^2) dv in standard units y, summed in
        log space on ~1000-1300 cached nodes per kappa: positive, with no cap
        on |y|, and 0 only where the value underflows.  Against the mpmath
        oracles it is good to ~1e-13 relative in the body, up to kappa 0.999,
        and to ~1e-12 in log f in the far tail.  At kappa = 1 it is the
        normal density.
        """
        arr, shape = _as_array(x)
        z = (arr - self.mu) / self.sigma
        out = _nml_standard_density(self.kappa, z) / self.sigma
        return _ret(out, shape)

    def moment(self, n: int) -> float:
        """Exact n-th raw moment E(X^n) as a finite sum: with X = mu + sigma*sqrt(U)*Z,
        E(X^n) = sum_{m <= n/2} n!/(n-2m)! mu^(n-2m) sigma^(2m) 2^-m / Gamma(1+k m)."""
        if n < 1 or n != int(n):
            raise DomainError("moment order must be a positive integer")
        n = int(n)
        total = 0.0
        for m in range(n // 2 + 1):
            total += (
                math.exp(
                    _log_gamma(n + 1.0)
                    - _log_gamma(n - 2 * m + 1.0)
                    - _log_gamma(1.0 + self.kappa * m)
                )
                * self.mu ** (n - 2 * m)
                * (self.sigma2 / 2.0) ** m
            )
        return total

    def cumulants(self) -> tuple[float, float, float, float]:
        """(mean, variance, skewness, excess kurtosis)."""
        g1 = math.gamma(self.kappa + 1.0)
        g2 = math.gamma(2.0 * self.kappa + 1.0)
        return (self.mu, self.sigma2 / g1, 0.0, 6.0 * g1 * g1 / g2 - 3.0)

    def sample(self, rng: RngStream, size=None):
        """mu + sigma*sqrt(U)*Z with U mixing and Z standard normal."""
        return _draws(
            size, lambda n: _nml_rows(self.kappa, self.mu, self.sigma, [rng.generator], n)[0]
        )


# ---------------------------------------------------------------------------
# COMP law
# ---------------------------------------------------------------------------

_COMP_MAX_TABLE = 5_000_000
# the normalizing series is cut where a term falls below this share of the
# partial sum (and never before mode + 20 sd)
_COMP_TRUNC_TOL = 1e-14
# the log-term table is filled this many counts at a time
_COMP_BLOCK = 2**15


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

    @cached_property
    def _table(self) -> tuple[np.ndarray, float]:
        """(log terms, log normalizer), computed once per law.

        The log terms log(lam^j / (j!)^eta) run out to the truncation
        horizon: the larger of mode + 20 sd and the point where the
        term-to-partial-sum ratio falls below _COMP_TRUNC_TOL.  They are
        filled _COMP_BLOCK counts at a time, which bounds the temporaries of
        ``_log_gamma`` without changing a bit of the table.
        """
        j_min = self._horizon()
        if j_min > _COMP_MAX_TABLE:
            raise EvaluationError(
                f"truncation horizon {j_min} exceeds the supported table size; "
                "tail mass cannot be bounded"
            )
        log_lam = math.log(self.lam)
        j_hi = max(j_min + 1, 64)
        while True:
            lt = np.empty(j_hi)
            for lo in range(0, j_hi, _COMP_BLOCK):
                j = np.arange(lo, min(lo + _COMP_BLOCK, j_hi), dtype=float)
                lt[lo:lo + j.size] = j * log_lam - self.eta * _log_gamma(j + 1.0)
            shift = lt.max()
            weights = lt - shift
            log_h = shift + math.log(np.exp(weights, out=weights).sum())
            if lt[-1] - log_h < math.log(_COMP_TRUNC_TOL) and j_hi > j_min:
                return lt, log_h
            if j_hi > _COMP_MAX_TABLE:
                tail = math.exp(lt[-1] - log_h)
                raise EvaluationError(
                    f"truncation horizon exceeded; achieved tail ratio {tail:.3e}"
                )
            j_hi *= 2

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
        cdf = lt - log_h
        np.cumsum(np.exp(cdf, out=cdf), out=cdf)
        cdf[-1] = 1.0
        return _draws(
            size, lambda n: np.searchsorted(cdf, rng.generator.uniform(size=n), side="left"), int
        )
