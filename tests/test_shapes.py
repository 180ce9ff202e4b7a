"""Every evaluation method returns its input's shape, value for value."""

import numpy as np
import pytest

from fpsum.distributions import CompLaw, FractionalPoissonLaw, MittagLefflerLaw, NmlLaw
from fpsum.random_sums import nml_cdf
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
