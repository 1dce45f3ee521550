"""Invariances the Tucker factor model guarantees, as properties of the fits.

* An orthogonal change of basis ``Q`` in mode d moves the fitted mode-d
  column space to ``Q A_d`` and leaves every other mode's alone.
* A permutation of the modes (a swap of two, say) permutes the loadings.
* Reversing time leaves the lag-0 fits (mopca, pmopca, ipmopca) unchanged.
  iTIPUP is left out: its lag Gram matrices transpose.
* A constant tensor added to every ``X_t`` leaves the fits, which centre the
  series, unchanged.

mopca and pmopca agree to rounding.  ipmopca and iTIPUP sweep the modes in
order and stop once a sweep moves every column space by at most ``tol``, so
the fits of a transformed series agree to within ``tol``; each is checked to
have stopped there.  The series have a clear eigengap at the fitted ranks, so
rounding cannot swap an eigenvector in or out.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal
from tuckerfactor import (ipmopca_fit, itipup_fit, mode_product, mopca_fit, pmopca_fit,
                          scenario_config, simulate_dataset, subspace_distance)

TOL = 1e-8  # the sweeping fits' stopping tolerance, and their bound
ROUNDING = 1e-12  # the bound of the fits that do not sweep
RANKS = (2, 3, 2)
X = simulate_dataset(scenario_config("II", 40, (12, 10, 8), ranks=RANKS, seed=5))[0]
FITS = {
    "mopca": (lambda x, ranks: mopca_fit(x, ranks), ROUNDING),
    "pmopca": (lambda x, ranks: pmopca_fit(x, ranks), ROUNDING),
    "ipmopca": (lambda x, ranks: ipmopca_fit(x, ranks, tol=TOL), TOL),
    "itipup": (lambda x, ranks: itipup_fit(x, ranks, tol=TOL), TOL),
}
LAG_0 = ["mopca", "pmopca", "ipmopca"]


def fit(name, x, ranks=RANKS):
    result = FITS[name][0](x, ranks)
    assert result.converged
    for values, k in zip(result.eigvals, ranks):
        assert values[k - 1] > 4 * values[k]  # the eigengap the bounds rest on
    return result.loadings


@cache
def plain(name, start=0, stop=len(X)):
    return fit(name, X[start:stop])


def assert_spans(got, want, name):
    distances = [subspace_distance(a, b) for a, b in zip(got, want, strict=True)]
    assert max(distances) <= FITS[name][1], distances


@pytest.mark.parametrize("name", FITS)
@settings(max_examples=20, deadline=None)
@given(mode=st.integers(0, X.ndim - 2), seed=st.integers(0, 2**32 - 1))
def test_a_change_of_basis_moves_its_mode_alone(name, mode, seed):
    q = random_orthogonal(np.random.default_rng(seed), X.shape[mode + 1])
    want = list(plain(name))
    want[mode] = q @ want[mode]
    assert_spans(fit(name, mode_product(X, q, mode + 1)), want, name)


@pytest.mark.parametrize("name", FITS)
@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(X.ndim - 1)))
def test_a_permutation_of_the_modes_permutes_the_loadings(name, order):
    x = np.transpose(X, [0] + [d + 1 for d in order])
    got = fit(name, x, tuple(RANKS[d] for d in order))
    assert_spans(got, [plain(name)[d] for d in order], name)


@pytest.mark.parametrize("name", LAG_0)
@settings(max_examples=10, deadline=None)
@given(start=st.integers(0, 10), length=st.integers(30, 40))
def test_time_reversal_keeps_the_lag_0_fits(name, start, length):
    stop = min(start + length, len(X))
    assert_spans(fit(name, X[start:stop][::-1]), plain(name, start, stop), name)


@pytest.mark.parametrize("name", FITS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 10.0))
def test_a_constant_tensor_leaves_the_fits(name, seed, scale):
    offset = scale * np.random.default_rng(seed).standard_normal(X.shape[1:])
    assert_spans(fit(name, X + offset), plain(name), name)
