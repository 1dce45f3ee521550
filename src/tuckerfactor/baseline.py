"""Lag-based auto-covariance comparator (TIPUP-style).

This is a reconstruction of the auto-covariance competitor used for
benchmarking: per mode it aggregates lagged cross-products of the
unfoldings into a positive semidefinite matrix and runs the same
eigenvector machinery as the main estimators.  It keys on serial
correlation, so it degrades on serially uncorrelated data - which is the
comparison the benchmark harness is meant to expose.  Its matrices are
those of the estimators' one operator (``estimation._mode_matrix``) at
lags ``1..h0``, and its fit is a call of their one driver.
"""

from __future__ import annotations

import numpy as np

from .estimation import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    FactorFit,
    SeriesMoments,
    _as_series,
    _fit,
    _series_matrix,
    _start,
)
from .tensor import _integer


def tipup_mode_matrix(x: np.ndarray, mode: int, h0: int = 1) -> np.ndarray:
    """Aggregated lagged auto-covariance matrix for one mode.

    Sums ``W_d(h) @ W_d(h).T`` over lags ``h = 1..h0`` where
    ``W_d(h) = sum_t X_t^(d) X_{t+h}^(d)' / ((T-h) p)``; symmetric PSD by
    construction.
    """
    x = _as_series(x)
    return _series_matrix(x, mode, _lags(x, h0))


def _lags(x, h0):
    """The lags ``1..h0``, checked against the length of the series ``x``."""
    if not 1 <= _integer(h0, "h0") < x.shape[0]:
        raise ValueError(f"h0={h0} requires at least {h0 + 1} observations")
    return tuple(range(1, h0 + 1))


def estimate_ranks_tipup(x: np.ndarray, k_max: int | None = None, h0: int = 1,
                         center: bool = False, *,
                         moments: SeriesMoments | None = None) -> tuple[int, ...]:
    """Eigenvalue-ratio rank selection on the lagged auto-covariance matrices
    (built from ``moments``, lags ``1..h0``, when given)."""
    x = _as_series(x)
    fitted = _start(x, _lags(x, h0), "auto", k_max, center, moments)[1]
    return tuple(a.shape[1] for a in fitted)


def itipup_fit(
    x: np.ndarray,
    ranks="auto",
    h0: int = 1,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    update_within_sweep: bool = True,
    center: bool = True,
    k_max: int | None = None,
    *, moments: SeriesMoments | None = None,
) -> FactorFit:
    """Iterative projected fit driven by lagged auto-covariances.

    Initial loadings come from the unprojected lag matrices (of the lags
    ``1..h0`` of ``moments`` when given); each sweep projects the series
    through the other modes' current loadings before forming the lag
    products, mirroring the iterative projected PCA loop.  Returns the
    same :class:`FactorFit` structure as the main estimators.
    """
    x = _as_series(x)
    return _fit(x, _lags(x, h0), ranks, k_max, center, moments, max_iter=max_iter,
                tol=tol, update_within_sweep=update_within_sweep)
