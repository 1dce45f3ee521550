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
    _loadings_from_covariances,
    extract_factors,
    iterate_projected_fit,
    projected_series,
)
from .tensor import _mode_gram, _mode_grams


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
    _check_lags(x, h0)
    return _lag_sum(x, mode + 1, h0, math.prod(x.shape[1:]))


def _check_lags(x, h0):
    if not 1 <= h0 < x.shape[0]:
        raise ValueError(f"h0={h0} requires at least {h0 + 1} observations")


def _lag_sum(x, axis, h0, scale, grams=None):
    """Symmetrized ``sum_{h=1..h0} W(h) W(h)'`` with ``W(h)`` the lag-h
    Gram matrix ``_mode_gram(x[:-h], x[h:], axis)``, or ``grams[h - 1]``
    when given, over ``(T - h) scale``."""
    p_d = x.shape[axis]
    out = np.zeros((p_d, p_d))
    for h in range(1, h0 + 1):
        g = _mode_gram(x[:-h], x[h:], axis) if grams is None else grams[h - 1]
        w = g / ((x.shape[0] - h) * scale)
        out += w @ w.T
    return (out + out.T) / 2.0


def _tipup_matrices(x, mean, h0):
    """Every mode's :func:`tipup_mode_matrix` of ``x - mean`` (of ``x`` when
    ``mean`` is None), from one pass of ``tensor._mode_grams``."""
    _check_lags(x, h0)
    by_lag = _mode_grams(x, mean, range(1, h0 + 1))
    p = math.prod(x.shape[1:])
    return [_lag_sum(x, d + 1, h0, p, grams)
            for d, grams in enumerate(zip(*by_lag))]


def _tipup_loadings(x, mean, ranks, k_max, h0):
    return _loadings_from_covariances(
        x.shape[1:], ranks, k_max, lambda: _tipup_matrices(x, mean, h0)
    )


def _projected_tipup_matrix(x, loadings, mode, h0, center):
    """Lagged analogue of the projected mode covariance."""
    y = projected_series(x, loadings, mode, center)
    return _lag_sum(y, 1, h0, y.shape[1])


def estimate_ranks_tipup(x: np.ndarray, k_max: int | None = None, h0: int = 1,
                         center: bool = False) -> tuple[int, ...]:
    """Eigenvalue-ratio rank selection on the lagged auto-covariance matrices."""
    x = _as_series(x)
    mean = x.mean(axis=0) if center else None
    fitted, _ = _tipup_loadings(x, mean, "auto", k_max, h0)
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
    mean = x.mean(axis=0) if center else None
    init, _ = _tipup_loadings(x, mean, ranks, k_max, h0)
    ranks = tuple(a.shape[1] for a in init)
    loadings, eigvals, sweeps, converged, history = iterate_projected_fit(
        x,
        ranks,
        init,
        lambda s, lds, d: _projected_tipup_matrix(s, lds, d, h0, center),
        tol=tol,
        max_iter=max_iter,
        update_within_sweep=update_within_sweep,
    )
    return FactorFit(
        loadings=loadings,
        factors=extract_factors(x, loadings, center),
        eigvals=eigvals,
        iterations=sweeps,
        converged=converged,
        per_sweep_distance=history,
        mean=mean,
    )
