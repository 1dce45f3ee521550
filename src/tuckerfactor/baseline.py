"""Lag-based auto-covariance comparator (TIPUP-style).

This is a reconstruction of the auto-covariance competitor used for
benchmarking: per mode it aggregates lagged cross-products of the
unfoldings into a positive semidefinite matrix and runs the same
eigenvector machinery as the main estimators.  It keys on serial
correlation, so it degrades on serially uncorrelated data - which is the
comparison the benchmark harness is meant to expose.
"""

from __future__ import annotations

import math

import numpy as np

from .estimation import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    FactorFit,
    _as_series,
    _center,
    _loadings_from_covariances,
    extract_factors,
    iterate_projected_fit,
    projected_series,
)
from .tensor import _mode_gram


def tipup_mode_matrix(x: np.ndarray, mode: int, h0: int = 1) -> np.ndarray:
    """Aggregated lagged auto-covariance matrix for one mode.

    Sums ``W_d(h) @ W_d(h).T`` over lags ``h = 1..h0`` where
    ``W_d(h) = sum_t X_t^(d) X_{t+h}^(d)' / ((T-h) p)``; symmetric PSD by
    construction.
    """
    x = _as_series(x)
    d_count = x.ndim - 1
    if not 0 <= mode < d_count:
        raise ValueError(f"mode {mode} out of range for {d_count}-way data")
    t_len = x.shape[0]
    if not 1 <= h0 < t_len:
        raise ValueError(f"h0={h0} requires at least {h0 + 1} observations")
    p = math.prod(x.shape[1:])
    p_d = x.shape[mode + 1]
    out = np.zeros((p_d, p_d))
    for h in range(1, h0 + 1):
        w = _mode_gram(x[:-h], x[h:], mode + 1) / ((t_len - h) * p)
        out += w @ w.T
    return (out + out.T) / 2.0


def _projected_tipup_matrix(x, loadings, mode, h0):
    """Lagged analogue of the projected mode covariance."""
    y = projected_series(x, loadings, mode)
    t_len, p_d = y.shape[0], y.shape[1]
    out = np.zeros((p_d, p_d))
    for h in range(1, h0 + 1):
        w = _mode_gram(y[:-h], y[h:], 1) / ((t_len - h) * p_d)
        out += w @ w.T
    return (out + out.T) / 2.0


def estimate_ranks_tipup(x: np.ndarray, k_max: int | None = None, h0: int = 1,
                         center: bool = False) -> tuple[int, ...]:
    """Eigenvalue-ratio rank selection on the lagged auto-covariance matrices."""
    x = _as_series(x)
    x, _ = _center(x, center)
    fitted, _ = _loadings_from_covariances(
        x.shape[1:], "auto", k_max, lambda d: tipup_mode_matrix(x, d, h0)
    )
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
) -> FactorFit:
    """Iterative projected fit driven by lagged auto-covariances.

    Initial loadings come from the unprojected lag matrices; each sweep
    projects the series through the other modes' current loadings before
    forming the lag products, mirroring the iterative projected PCA loop.
    Returns the same :class:`FactorFit` structure as the main estimators.
    """
    x = _as_series(x)
    xc, mean = _center(x, center)
    init, _ = _loadings_from_covariances(
        xc.shape[1:], ranks, k_max, lambda d: tipup_mode_matrix(xc, d, h0)
    )
    ranks = tuple(a.shape[1] for a in init)
    loadings, eigvals, sweeps, converged, history = iterate_projected_fit(
        xc,
        ranks,
        init,
        lambda s, lds, d: _projected_tipup_matrix(s, lds, d, h0),
        tol=tol,
        max_iter=max_iter,
        update_within_sweep=update_within_sweep,
    )
    return FactorFit(
        loadings=loadings,
        factors=extract_factors(xc, loadings),
        eigvals=eigvals,
        iterations=sweeps,
        converged=converged,
        per_sweep_distance=history,
        mean=mean,
    )
