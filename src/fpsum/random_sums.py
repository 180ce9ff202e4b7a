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
import os
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .distributions import (
    CompLaw,
    FractionalPoissonLaw,
    NmlLaw,
    RngStream,
    _draws,
    _is_count,
    _nml_rows,
)
from .errors import DomainError
from .estimation import BoundaryFlag, _centered_moments, mm_fit_many
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
    law = FractionalPoissonLaw(nu, kappa)

    def draw(n):
        return sum_given_counts(summands, law.sample(rng, n), rng) / math.sqrt(nu)

    return _draws(size, draw)


def comp_random_sum(
    lam: float,
    eta: float,
    summands: SummandSpec,
    rng: RngStream,
    size=None,
) -> np.ndarray:
    """Normalized COMP sum: lam^(-1/(2 eta)) * sum_{j<=K} W_j."""
    law = CompLaw(lam, eta)

    def draw(n):
        return sum_given_counts(summands, law.sample(rng, n), rng) * lam ** (-1.0 / (2.0 * eta))

    return _draws(size, draw)


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
    steps = np.arange(n + 1) / n  # the empirical cdf's levels i/n
    gap = steps[1:] - cdf_values_sorted
    upper = gap.max()
    np.subtract(cdf_values_sorted, steps[:-1], out=gap)
    return float(max(upper, gap.max()))


def _available_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_on_cpus(count: int, task: Callable[[int], None]) -> None:
    """task(i) for every i in range(count), highest i first, on the calling
    thread and one helper thread per further available CPU.

    Each thread takes the next index until none is left.  A failure empties
    the queue, so no further task starts while the error travels to the
    caller; every helper thread has ended when this returns or raises.
    """
    todo = deque(range(count))  # popped from the right

    def run(i: int) -> None:
        try:
            task(i)
        except BaseException:
            todo.clear()
            raise

    def run_tasks() -> None:
        while True:
            try:
                i = todo.pop()
            except IndexError:
                return
            run(i)

    # the calling thread runs tasks too: each helper thread gets its own
    # malloc arena, which shows in peak memory
    helpers = min(_available_cpus(), count) - 1
    if helpers < 1:
        run_tasks()
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(helpers) as pool:
            # it takes its first index before the helpers start, so it runs
            # at least one task however the threads are scheduled
            first = todo.pop()
            started = [pool.submit(run_tasks) for _ in range(helpers)]
            run(first)
            run_tasks()
            for future in started:
                future.result()


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

    The rates run at the same time, one per CPU available to the process,
    the calling thread included: their numpy draws and ufuncs release the
    GIL.  Rate i draws from its own stream ``rng.stream_id + 1 + i``, so the
    distances do not depend on how many rates run at once, or in what order.
    """
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise DomainError("parameter grid must be nonempty")
    if draws_per_point < 1:
        raise DomainError("draws per point must be >= 1")
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

    # the standard normal is the NML law at kappa 1, so both kinds share one
    # target cdf table, built before any rate starts
    limit_kappa = kappa if kind == "fp" else 1.0
    nml_cdf(limit_kappa, 0.0)

    distances = [0.0] * len(grid)

    def run_rate(i: int) -> None:
        stream = rng.child(rng.stream_id + 1 + i)
        if kind == "fp":
            draws = fp_random_sum(grid[i], kappa, summands, stream, draws_per_point)
        else:
            draws = comp_random_sum(grid[i], eta, summands, stream, draws_per_point)
        draws.sort()
        distances[i] = ks_distance(draws, nml_cdf(limit_kappa, draws))

    _run_on_cpus(len(grid), run_rate)  # largest rate first
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


# replication r of cell c draws from stream c * _CELL_STREAMS + r, so a cell
# holds at most this many replications before its streams run into the next's
_CELL_STREAMS = 1_000_003


@dataclass(frozen=True)
class McExperimentConfig:
    """Replicated sample-fit experiment over a (kappa, n) grid.

    Every field is checked at construction, before any cell runs: integer
    counts, a 64-bit seed, nonempty grids, and an NML law for each kappa.
    """

    mu: float = 0.5
    sigma2: float = 1.0
    kappa_grid: tuple[float, ...] = (0.2, 0.3, 0.5, 0.6, 0.8)
    sample_sizes: tuple[int, ...] = (200, 500, 1000, 2000)
    replications: int = 5000
    base_seed: int = 0

    def __post_init__(self):
        if not _is_count(self.replications) or not 1 <= self.replications <= _CELL_STREAMS:
            raise DomainError(
                f"replications must be an integer in [1, {_CELL_STREAMS}], "
                f"got {self.replications!r}"
            )
        if not _is_count(self.base_seed) or not 0 <= self.base_seed < 2**64:
            raise DomainError(
                f"base_seed must be an integer in [0, 2**64), got {self.base_seed!r}"
            )
        grids = (self.kappa_grid, self.sample_sizes)
        if any(np.ndim(grid) != 1 or len(grid) == 0 for grid in grids):
            raise DomainError("kappa grid and sample sizes must be nonempty sequences")
        if not all(_is_count(n) and n >= 2 for n in self.sample_sizes):
            raise DomainError(f"sample sizes must be integers >= 2, got {self.sample_sizes!r}")
        for kappa in self.kappa_grid:
            NmlLaw(self.mu, self.sigma2, kappa)


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


# a block of a cell's replications holds about this many sample values: its
# numpy passes are long enough to release the GIL for most of their time
_BLOCK_VALUES = 2**14


def _run_cell(config: McExperimentConfig, cell_index: int, kappa: float, n: int) -> McCell:
    sigma = math.sqrt(config.sigma2)
    reps = config.replications
    rows = max(1, _BLOCK_VALUES // n)
    moments = np.empty((3, reps))

    def run_block(b: int) -> None:
        block = range(b * rows, min((b + 1) * rows, reps))
        gens = [RngStream(config.base_seed, cell_index * _CELL_STREAMS + r).generator
                for r in block]
        x = _nml_rows(kappa, config.mu, sigma, gens, n)
        moments[:, block.start:block.stop] = _centered_moments(x)

    _run_on_cpus(-(-reps // rows), run_block)
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

    Replication r of cell c owns stream (base_seed, c*1000003 + r).  A cell
    draws its replications in blocks of about 2**14 sample values, and
    transforms and summarizes each block in one pass.  The blocks run at the
    same time, one per CPU available to the process, the calling thread
    included; the cell then fits all its summaries in one ``mm_fit_many``
    pass.  Results do not depend on how many CPUs run the blocks, or in what
    order.
    """
    cells = [(k, n) for k in config.kappa_grid for n in config.sample_sizes]
    return [_run_cell(config, i, kappa, n) for i, (kappa, n) in enumerate(cells)]
