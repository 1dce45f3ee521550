"""Deterministic symmetric eigensolver and SVD wrappers.

Every routine here fixes ordering and sign conventions so that repeated
runs on the same platform produce bitwise identical results:

* eigenvalues / singular values are sorted descending;
* each eigenvector or singular vector is scaled so its largest-magnitude
  entry is positive (ties broken by the lowest index).

Symmetric inputs are symmetrized as ``(S + S.T) / 2`` before
decomposition to remove accumulation-order asymmetry.  Each kernel has
one private core without checks or copies (:func:`_eigensystem`,
:func:`_sine`), which its public function wraps and the sweep loop calls
on its already symmetric matrices and orthonormal bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _integer, _matrix


@dataclass
class EigenSystem:
    """Top-k eigenpairs of a symmetric matrix.

    ``values`` is sorted descending and ``vectors[:, j]`` is the unit
    eigenvector belonging to ``values[j]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def top_k_eigensystem(s: np.ndarray, k: int) -> EigenSystem:
    """Largest ``k`` eigenpairs of a symmetric matrix, descending.

    Parameters
    ----------
    s : ndarray
        Square matrix; symmetrized internally.
    k : int
        Number of eigenpairs, ``1 <= k <= s.shape[0]``.
    """
    s = _matrix(s, "s")
    if s.shape[0] != s.shape[1]:
        raise ValueError("top_k_eigensystem expects a square matrix")
    n = s.shape[0]
    if not 1 <= _integer(k, "k") <= n:
        raise ValueError(f"k={k} out of range for a {n}x{n} matrix")
    es = _eigensystem((s + s.T) / 2.0)
    return EigenSystem(values=np.ascontiguousarray(es.values[:k]),
                       vectors=np.ascontiguousarray(es.vectors[:, :k]))


def _eigensystem(s: np.ndarray) -> EigenSystem:
    """Every eigenpair of the exactly symmetric, finite matrix ``s``, with
    the conventions of :func:`top_k_eigensystem` and unchecked."""
    w, v = np.linalg.eigh(s)
    return EigenSystem(values=w[::-1], vectors=_fix_signs(v[:, ::-1]))


def thin_left_singular(m: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` left singular vectors of ``m`` as orthonormal columns."""
    m = _matrix(m, "m")
    if not 1 <= _integer(k, "k") <= min(m.shape):
        raise ValueError(f"k={k} out of range for shape {m.shape}")
    u, _, _ = np.linalg.svd(m, full_matrices=False)
    return np.ascontiguousarray(_fix_signs(u[:, :k]))


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between the column spaces of ``a`` and ``b``.

    Equals the spectral norm of the difference of the two orthogonal
    projectors, in ``[0, 1]``: 0 for identical spaces, 1 when the spaces
    have different dimensions or contain orthogonal directions.  Computed
    from the residual ``(I - P_a) Q_b`` so that tiny angles keep full
    precision.
    """
    a, b = _matrix(a, "a"), _matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError("subspace_distance: row counts differ")
    if a.shape[1] != b.shape[1]:
        return 1.0
    return _sine(np.linalg.qr(b)[0], np.linalg.qr(a)[0])


def _sine(q: np.ndarray, q_ref: np.ndarray) -> float:
    """Largest principal angle sine, capped at 1, between the spans of the
    orthonormal columns ``q`` and ``q_ref``: 1.0 exactly when their column
    counts differ."""
    if q.shape[1] != q_ref.shape[1]:
        return 1.0
    res = q - q_ref @ (q_ref.T @ q)  # singular values are the angle sines
    sines = np.linalg.svd(res, compute_uv=False)
    return float(min(1.0, sines[0])) if sines.size else 0.0
