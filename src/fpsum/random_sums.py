"""Random-sum simulators, weak-limit distance sweeps, and the Monte Carlo
table harness.

A random sum is sum_{j=1}^{N} W_j with integer count N independent of the
i.i.d. summands W_j (zero when N = 0).  Normalized fractional-Poisson sums
approach the NML law as the rate grows; normalized COMP sums approach the
standard normal.  Both are exercised here with Kolmogorov-Smirnov distances
against quadrature-built target cdfs.

Partial sums conditional on the counts are drawn from their exact
conditional law whenever one is available in closed form (normal and
rademacher summands); other summand families are summed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev
from scipy.special import ndtr

from .distributions import CompLaw, FractionalPoissonLaw, NmlLaw, RngStream
from .errors import DomainError
from .estimation import BoundaryFlag, MomentSummary, mm_fit_many
from .special_functions import _check_kappa

__all__ = [
    "SummandSpec",
    "ConvergenceReport",
    "McExperimentConfig",
    "McCell",
    "sum_given_counts",
    "fp_random_sum",
    "comp_random_sum",
    "ks_distance",
    "nml_cdf",
    "convergence_sweep",
    "run_mc_tables",
]

_FAMILIES = ("standard_normal", "rademacher", "centered_uniform", "custom_table")


@dataclass(frozen=True)
class SummandSpec:
    """Zero-mean unit-variance summand family.

    custom_table takes explicit support points and probabilities; the first
    two moments are checked at construction.
    """

    family: str = "standard_normal"
    values: tuple[float, ...] | None = None
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown summand family {self.family!r}")
        if self.family == "custom_table":
            if not self.values or not self.probs or len(self.values) != len(self.probs):
                raise DomainError("custom_table needs matching values and probs")
            v = np.asarray(self.values, dtype=float)
            p = np.asarray(self.probs, dtype=float)
            if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise DomainError("probs must be a probability vector")
            mean = v @ p
            var = (v - mean) ** 2 @ p
            if abs(mean) > 1e-12 or abs(var - 1.0) > 1e-12:
                raise DomainError("custom table must have mean 0 and variance 1")
        elif self.values is not None or self.probs is not None:
            raise DomainError("values/probs are only valid with custom_table")


def sum_given_counts(spec: SummandSpec, counts: np.ndarray, rng: RngStream) -> np.ndarray:
    """Draw sum_{j<=N_i} W_j for each count N_i.

    Normal and rademacher summands use the exact conditional laws
    Normal(0, N) and 2*Binomial(N, 1/2) - N; the other families sum freshly
    drawn variates.
    """
    gen = rng.generator
    counts = np.asarray(counts)
    if spec.family == "standard_normal":
        return np.sqrt(counts.astype(float)) * gen.standard_normal(counts.shape)
    if spec.family == "rademacher":
        return 2.0 * gen.binomial(counts, 0.5) - counts
    total = int(counts.sum())
    if spec.family == "centered_uniform":
        draws = gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), total)
    else:
        draws = gen.choice(np.asarray(spec.values), size=total, p=np.asarray(spec.probs))
    out = np.zeros(counts.shape, dtype=float)
    nonzero = counts > 0
    if total and nonzero.any():
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1][nonzero]
        out[nonzero] = np.add.reduceat(draws, starts)
    return out


def fp_random_sum(
    nu: float,
    kappa: float,
    summands: SummandSpec,
    rng: RngStream,
    size=None,
) -> np.ndarray:
    """Normalized fractional-Poisson sum: nu^(-1/2) * sum_{j<=N} W_j."""
    n = size if size is not None else 1
    counts = FractionalPoissonLaw(nu, kappa).sample(rng, n)
    out = sum_given_counts(summands, counts, rng) / math.sqrt(nu)
    return float(out[0]) if size is None else out


def comp_random_sum(
    lam: float,
    eta: float,
    summands: SummandSpec,
    rng: RngStream,
    size=None,
) -> np.ndarray:
    """Normalized COMP sum: lam^(-1/(2 eta)) * sum_{j<=K} W_j."""
    n = size if size is not None else 1
    counts = CompLaw(lam, eta).sample(rng, n)
    out = sum_given_counts(summands, counts, rng) * lam ** (-1.0 / (2.0 * eta))
    return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# target cdfs and KS distance
# ---------------------------------------------------------------------------


# The standard NML cdf is tabulated once per kappa from a piecewise-Chebyshev
# interpolant of the density in |y| on [0, 12 sd], integrated exactly piece by
# piece (Trefethen, Approximation Theory and Approximation Practice, 2013).
# For kappa < 1 the density has a kink at y = 0, so the pieces grade
# geometrically toward it; past |y| = 1.5 they have a fixed width.  The table
# is fine enough that linear interpolation between its points errs by <= 6e-8.
_CDF_SPAN_SD = 12.0
_CDF_DEGREE = 24
_CDF_NEAR_EDGES = np.concatenate(([0.0], np.geomspace(1e-3, 1.0, 7)))
_CDF_FAR_START, _CDF_FAR_WIDTH = 1.5, 0.75
_CDF_TABLE_SIZE = 2**15 + 1


@lru_cache(maxsize=16)
def _nml_cdf_grid(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Cdf table of the standard law on +-12 standard deviations.

    For y >= 0, F(y) = 1/2 + (mass on [0, y]) / (2 * mass on [0, span]) and
    F(-y) = 1 - F(y), so F(0) = 1/2 and the symmetry hold by construction.
    """
    law = NmlLaw(0.0, 1.0, kappa)
    span = _CDF_SPAN_SD * math.sqrt(law.cumulants()[1])
    edges = np.concatenate(
        (_CDF_NEAR_EDGES, np.arange(_CDF_FAR_START, span, _CDF_FAR_WIDTH), [span])
    )
    mid, hw = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    t = chebyshev.chebpts1(_CDF_DEGREE + 1)
    nodes = mid[:, None] + hw[:, None] * t
    values = law.density(nodes.ravel()).reshape(nodes.shape)
    # interpolation coefficients at first-kind points (discrete orthogonality)
    coef = values @ chebyshev.chebvander(t, _CDF_DEGREE) * (2.0 / (_CDF_DEGREE + 1))
    coef[:, 0] /= 2.0
    # antiderivative of each piece in y, zero at the piece's left edge
    anti = chebyshev.chebint(coef, lbnd=-1.0, axis=1) * hw[:, None]
    before = np.concatenate(([0.0], np.cumsum(chebyshev.chebval(1.0, anti.T))))

    y = np.linspace(0.0, span, (_CDF_TABLE_SIZE + 1) // 2)
    piece = np.minimum(np.searchsorted(edges, y, side="right") - 1, mid.size - 1)
    mass = before[piece] + chebyshev.chebval((y - mid[piece]) / hw[piece], anti[piece].T,
                                             tensor=False)
    mass[0] = 0.0
    # far out the density's absolute error (~1e-9, either sign) exceeds its
    # value and can make the running mass dip; the cdf must not
    mass = np.maximum.accumulate(mass)
    upper = 0.5 + 0.5 * mass / mass[-1]
    x = np.concatenate((-y[:0:-1], y))
    cdf = np.concatenate((1.0 - upper[:0:-1], upper))
    return x, cdf


def nml_cdf(kappa: float, x) -> np.ndarray:
    """Cdf of the standard law, interpolated linearly from its cached table."""
    grid, cdf = _nml_cdf_grid(_check_kappa(kappa))
    return np.interp(np.asarray(x, dtype=float), grid, cdf, left=0.0, right=1.0)


def ks_distance(samples: np.ndarray, cdf_values_sorted: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic given cdf values at the sorted sample."""
    n = cdf_values_sorted.size
    upper = np.arange(1, n + 1) / n - cdf_values_sorted
    lower = cdf_values_sorted - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str
    target: str
    parameter_grid: tuple[float, ...]
    distances: tuple[float, ...]
    draws_per_point: int
    metric: str = "ks"


def convergence_sweep(
    kind: str,
    grid,
    summands: SummandSpec,
    draws_per_point: int,
    rng: RngStream,
    *,
    kappa: float | None = None,
    eta: float | None = None,
) -> ConvergenceReport:
    """KS distance to the weak limit along an increasing rate grid.

    kind="fp" targets the standard NML law with tail parameter ``kappa``;
    kind="comp" targets the standard normal and needs ``eta``.  Each kind
    rejects the other's parameter.
    """
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise DomainError("parameter grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("parameter grid must be strictly increasing")
    if kind == "fp":
        if kappa is None or eta is not None:
            raise DomainError("fp sweep takes kappa and no eta")
        target = f"nml(kappa={kappa:g})"
    elif kind == "comp":
        if eta is None or kappa is not None:
            raise DomainError("comp sweep takes eta and no kappa")
        target = "std_normal"
    else:
        raise DomainError(f"unknown sweep kind {kind!r}")

    distances = []
    for i, rate in enumerate(grid):
        stream = rng.child(rng.stream_id + 1 + i)
        if kind == "fp":
            draws = fp_random_sum(rate, kappa, summands, stream, draws_per_point)
            cdf = nml_cdf(kappa, np.sort(draws))
        else:
            draws = comp_random_sum(rate, eta, summands, stream, draws_per_point)
            cdf = ndtr(np.sort(draws))
        distances.append(ks_distance(draws, cdf))
    return ConvergenceReport(
        kind=kind,
        target=target,
        parameter_grid=grid,
        distances=tuple(distances),
        draws_per_point=draws_per_point,
    )


# ---------------------------------------------------------------------------
# Monte Carlo table harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McExperimentConfig:
    """Replicated sample-fit experiment over a (kappa, n) grid."""

    mu: float = 0.5
    sigma2: float = 1.0
    kappa_grid: tuple[float, ...] = (0.2, 0.3, 0.5, 0.6, 0.8)
    sample_sizes: tuple[int, ...] = (200, 500, 1000, 2000)
    replications: int = 5000
    base_seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if any(n < 2 for n in self.sample_sizes):
            raise DomainError("sample sizes must be >= 2")
        if any(not 0 < k <= 1 for k in self.kappa_grid):
            raise DomainError("kappa grid must lie in (0, 1]")


@dataclass(frozen=True)
class McCell:
    """Aggregates for one (kappa, n) cell.

    Cells aggregate over interior (non-clamped) fits; clamped replications
    are counted separately.  ``se_theoretical`` averages the per-replication
    plug-in standard errors.
    """

    kappa: float
    n: int
    replications: int
    clamped_low: int
    clamped_high: int
    mean_est: dict
    rmse: dict
    se_empirical: dict
    se_theoretical: dict


def _run_cell(config: McExperimentConfig, cell_index: int, kappa: float, n: int) -> McCell:
    law = NmlLaw(config.mu, config.sigma2, kappa)
    reps = config.replications
    moments = np.empty((3, reps))
    for r in range(reps):
        stream = RngStream(config.base_seed, cell_index * 1_000_003 + r)
        summary = MomentSummary.from_sample(law.sample(stream, n))
        moments[:, r] = summary.m1, summary.variance, summary.kurtosis_numerator
    fits = mm_fit_many(n, *moments)
    flags = fits.boundary_flag.tolist()
    interior = np.array([f is BoundaryFlag.INTERIOR for f in flags])
    if not interior.any():
        raise DomainError(f"every replication clamped in cell kappa={kappa}, n={n}")
    kept = np.column_stack((fits.mu_hat, fits.sigma2_hat, fits.kappa_hat))[interior]
    truth = np.array([config.mu, config.sigma2, kappa])
    names = ("mu", "sigma2", "kappa")
    mean_est = dict(zip(names, kept.mean(axis=0)))
    rmse = dict(zip(names, np.sqrt(((kept - truth) ** 2).mean(axis=0))))
    se_emp = dict(zip(names, kept.std(axis=0, ddof=1)))
    se_theo = dict(zip(names, fits.se[interior].mean(axis=0)))
    return McCell(
        kappa=kappa,
        n=n,
        replications=reps,
        clamped_low=flags.count(BoundaryFlag.CLAMPED_LOW),
        clamped_high=flags.count(BoundaryFlag.CLAMPED_HIGH),
        mean_est=mean_est,
        rmse=rmse,
        se_empirical=se_emp,
        se_theoretical=se_theo,
    )


def run_mc_tables(config: McExperimentConfig) -> list[McCell]:
    """Run every (kappa, n) cell; deterministic for a given config/base_seed.

    Replication r of cell c owns stream (base_seed, c*1000003 + r), so results
    do not depend on execution order.  Each cell draws and summarizes its
    samples one replication at a time, then fits them all in one
    ``mm_fit_many`` pass.
    """
    cells = [(k, n) for k in config.kappa_grid for n in config.sample_sizes]
    return [_run_cell(config, i, kappa, n) for i, (kappa, n) in enumerate(cells)]
