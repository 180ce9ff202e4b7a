"""Every evaluation method returns its input's shape, value for value, and
every sampler the shape its size names, draw for draw."""

import numpy as np
import pytest

from fpsum.distributions import CompLaw, FractionalPoissonLaw, MittagLefflerLaw, NmlLaw, RngStream
from fpsum.errors import DomainError
from fpsum.random_sums import SummandSpec, comp_random_sum, fp_random_sum, nml_cdf
from fpsum.special_functions import mittag_leffler

_FP = FractionalPoissonLaw(1.2, 0.7)

CASES = {
    "mittag_leffler": (lambda z: mittag_leffler(0.5, z), np.linspace(-30.0, 2.0, 12)),
    "ml_density": (MittagLefflerLaw(0.5).density, np.linspace(0.1, 8.0, 12)),
    "fp_pmf_auto": (_FP.pmf, np.arange(12)),
    "fp_pmf_series": (lambda n: _FP.pmf(n, branch="series"), np.arange(12)),
    "fp_pmf_mixture": (lambda n: _FP.pmf(n, branch="mixture"), np.arange(12)),
    "fp_pgf": (_FP.pgf, np.linspace(-1.0, 1.0, 12)),
    "nml_density": (NmlLaw(0.0, 1.0, 0.5).density, np.linspace(-6.0, 6.0, 12)),
    "comp_pmf": (CompLaw(3.0, 1.5).pmf, np.arange(12)),
    "nml_cdf": (lambda x: nml_cdf(0.5, x), np.linspace(-6.0, 6.0, 12)),
}


@pytest.mark.parametrize("name", CASES)
def test_two_dimensional_input_keeps_its_shape(name):
    method, flat = CASES[name]
    got = method(flat.reshape(3, 4))
    assert got.shape == (3, 4)
    assert np.array_equal(got, method(flat).reshape(3, 4))


def _samplers(kappa):
    """Each sampler at one kappa, as sample(rng, size); COMP's eta takes kappa's value."""
    return {
        "ml": MittagLefflerLaw(kappa).sample,
        "fp": FractionalPoissonLaw(3.0, kappa).sample,
        "nml": NmlLaw(0.1, 2.0, kappa).sample,
        "comp": CompLaw(3.0, kappa).sample,
        "fp_sum": lambda rng, size=None: fp_random_sum(30.0, kappa, SummandSpec(), rng, size),
        "comp_sum": lambda rng, size=None: comp_random_sum(30.0, kappa, SummandSpec(), rng, size),
    }


SAMPLERS = [(name, kappa) for kappa in (0.5, 1.0) for name in _samplers(kappa)]
COUNTS = ("fp", "comp")


@pytest.mark.parametrize("name,kappa", SAMPLERS)
def test_sample_size_is_a_shape_of_the_flat_draws(name, kappa):
    sample = _samplers(kappa)[name]
    flat = sample(RngStream(3), 6)
    assert flat.shape == (6,)
    for size in [(2, 3), (6,), (1, 2, 3)]:
        got = sample(RngStream(3), size)
        assert got.shape == size
        assert np.array_equal(got, flat.reshape(size))
    assert np.array_equal(sample(RngStream(3), np.int64(6)), flat)
    assert sample(RngStream(3), 0).shape == (0,)
    assert sample(RngStream(3), (2, 0)).shape == (2, 0)
    one = sample(RngStream(3))
    assert type(one) is (int if name in COUNTS else float)
    assert one == sample(RngStream(3), 1)[0]


@pytest.mark.parametrize("name,kappa", SAMPLERS)
@pytest.mark.parametrize("size", [-1, True, 2.5, (2, -1), (2, True), [2, 3], "3"])
def test_sample_rejects_a_size_that_is_no_shape(name, kappa, size):
    with pytest.raises(DomainError, match="size"):
        _samplers(kappa)[name](RngStream(3), size)
