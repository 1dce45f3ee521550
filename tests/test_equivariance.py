"""Scale equivariance of the four fits: scaling a series by a power of two
scales each of a fit's floating-point operations exactly, so ``fit(x * 2**k)``
returns the loadings of ``fit(x)`` bit for bit, and factors exactly ``2**k``
times its own.  Tested for ``|k| <= 100``.  It stops holding from about
``|k| = 150`` for iTIPUP, whose ``W W'`` scales by ``2**(4k)``, and from about
250 for the other fits, as LAPACK rescales matrices outside its safe range and
the moments underflow or overflow."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuckerfactor import (SimConfig, ipmopca_fit, itipup_fit, mopca_fit, pmopca_fit,
                          simulate_dataset)

CONFIGS = {
    "3-way": SimConfig(T=12, dims=(6, 5, 4), ranks=(2, 2, 1), phi=0.6, psi=0.8, seed=11),
    "1-way": SimConfig(T=30, dims=(8,), ranks=(2,), phi=0.6, psi=0.8, seed=12),
    "4-way": SimConfig(T=10, dims=(5, 4, 4, 3), ranks=(2, 1, 2, 1), seed=13),
}
SERIES = {name: simulate_dataset(config)[0] for name, config in CONFIGS.items()}
FITS = [mopca_fit, pmopca_fit, ipmopca_fit, itipup_fit]


@pytest.mark.parametrize("fit", FITS, ids=[f.__name__ for f in FITS])
@pytest.mark.parametrize("shape", SERIES)
@settings(max_examples=20, deadline=None)
@example(k=-100)
@example(k=100)
@given(k=st.integers(-100, 100))
def test_power_of_two_scaling_keeps_loadings_and_scales_factors(fit, shape, k):
    x = SERIES[shape]
    plain, scaled = fit(x), fit(x * 2.0**k)
    assert [a.tobytes() for a in scaled.loadings] == [a.tobytes() for a in plain.loadings]
    assert scaled.factors.tobytes() == (plain.factors * 2.0**k).tobytes()
