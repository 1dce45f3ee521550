"""Evaluation metrics: subspace distance, signal RMSE, rank accuracy, RE."""

from __future__ import annotations

import numpy as np

from .spectral import subspace_distance
from .tensor import _matrix


def column_space_distance(a_hat: np.ndarray, a_true: np.ndarray) -> float:
    """Spectral norm of the difference of the two column-space projectors.

    Lies in [0, 1]: 0 for identical column spaces, 1 for orthogonal
    subspaces of equal dimension; invariant under right-multiplication of
    either argument by an invertible matrix.  Raises on non-finite or
    rank-deficient input.
    """
    a_hat, a_true = _matrix(a_hat, "a_hat"), _matrix(a_true, "a_true")
    for m in (a_hat, a_true):
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[0] == 0 or sv[-1] <= 1e-10 * sv[0]:
            raise ValueError("column_space_distance: rank-deficient input")
    return subspace_distance(a_hat, a_true)


def signal_rmse(s_hat: np.ndarray, s_true: np.ndarray) -> float:
    """Root mean square error over all T*p signal entries.

    Accumulated one tensor at a time, with no full-size temporary.
    """
    num, _ = _reconstruction_sums(s_true, s_hat)
    return float(np.sqrt(num / np.size(s_true)))


def rank_accuracy(k_hat, k_true) -> float:
    """Percentage of modes whose estimated rank matches the truth."""
    k_hat = tuple(k_hat)
    k_true = tuple(k_true)
    if len(k_hat) != len(k_true):
        raise ValueError("rank tuples have different lengths")
    hits = sum(1 for a, b in zip(k_hat, k_true) if a == b)
    return 100.0 * hits / len(k_true)


def reconstruction_error(series: np.ndarray, signals: np.ndarray) -> float:
    """Relative Frobenius reconstruction error over the whole sample.

    Computed as ``sqrt(sum_t ||S_t - X_t||_F^2) / sqrt(sum_t ||X_t||_F^2)``
    without materializing the stacked tensor.
    """
    return _relative_error(*_reconstruction_sums(series, signals))


def _reconstruction_sums(series, signals, num=0.0, den=0.0):
    """Running sums ``num + sum_t ||S_t - X_t||_F^2`` and
    ``den + sum_t ||X_t||_F^2``, added one tensor at a time in order.

    Feeding consecutive chunks of a series, each starting from the sums
    of the chunks before it, gives the bits of one whole-series call.
    """
    series = np.asarray(series, dtype=float)
    signals = np.asarray(signals, dtype=float)
    if series.shape != signals.shape:
        raise ValueError(f"shape mismatch: {series.shape} vs {signals.shape}")
    for s_t, x_t in zip(np.atleast_1d(signals), np.atleast_1d(series)):
        r_t, x_t = (s_t - x_t).ravel(), x_t.ravel()
        num += r_t @ r_t
        den += x_t @ x_t
    return num, den


def _relative_error(num, den) -> float:
    """``sqrt(num) / sqrt(den)`` from :func:`_reconstruction_sums`."""
    if den == 0:
        raise ValueError("reconstruction_error: data has zero norm")
    return float(np.sqrt(num) / np.sqrt(den))
