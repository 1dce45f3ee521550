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
    SeriesMoments,
    _as_series,
    _check_finite,
    _eigensystems,
    _loadings_from_spectra,
    _moments_for,
    _projected_fit,
    iterate_projected_fit,
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
    _check_finite([out])
    return (out + out.T) / 2.0


def _tipup_moments(x, moments, center, h0):
    """``moments`` checked for lags ``1..h0``, or the series' own."""
    _check_lags(x, h0)
    return _moments_for(x, moments, center, range(1, h0 + 1))


def _tipup_loadings(x, moments, ranks, k_max, h0):
    """Loadings and spectra of every mode's :func:`tipup_mode_matrix` of the
    centred series, from the lagged Gram matrices of ``moments``."""
    p = math.prod(x.shape[1:])
    return _loadings_from_spectra(x.shape[1:], ranks, k_max, lambda: _eigensystems(
        _lag_sum(x, d + 1, h0, p, [moments.grams[h][d] for h in range(1, h0 + 1)])
        for d in range(x.ndim - 1)))


def estimate_ranks_tipup(x: np.ndarray, k_max: int | None = None, h0: int = 1,
                         center: bool = False, *,
                         moments: SeriesMoments | None = None) -> tuple[int, ...]:
    """Eigenvalue-ratio rank selection on the lagged auto-covariance matrices
    (built from ``moments``, lags ``1..h0``, when given)."""
    x = _as_series(x)
    moments = _tipup_moments(x, moments, center, h0)
    fitted, _ = _tipup_loadings(x, moments, "auto", k_max, h0)
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
    moments = _tipup_moments(x, moments, center, h0)
    init, _ = _tipup_loadings(x, moments, ranks, k_max, h0)
    ranks = tuple(a.shape[1] for a in init)
    # the lagged analogue of the projected mode covariance
    return _projected_fit(x, center, moments.mean, iterate_projected_fit(
        x, ranks, init, lambda y: _lag_sum(y, 1, h0, y.shape[1]), center,
        tol=tol, max_iter=max_iter, update_within_sweep=update_within_sweep))
