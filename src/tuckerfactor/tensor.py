"""Dense tensor primitives: matricization, mode products, vectorization.

All routines share one index convention: a D-way tensor of shape
``(p_1, ..., p_D)`` is vectorized with the first index varying fastest
(Fortran order).  The mode-d unfolding places fiber index ``i_d`` on the
rows and enumerates the remaining indices on the columns, lowest mode
fastest, so that

    vec(F x_1 A_1 x_2 ... x_D A_D) = (A_D kron ... kron A_1) vec(F).

Modes are 0-based throughout the API.

Memory layout: the contraction kernels (:func:`mode_product` and the
mode Gram matrices behind the covariance estimators) view a C-contiguous
array as ``(A, p_d, B)`` around the contracted axis and hand that view to
BLAS, so no unfolding is ever copied.  Only non-contiguous input is
copied, once, by that reshape; results are C-contiguous.
"""

from __future__ import annotations

import math

import numpy as np

# elements in the (step, p_d, p_d) stack of per-slice Gram matrices that
# one batched matmul builds before it is summed; bounds that temporary
_BATCH_ELEMS = 1 << 16

# elements in one chunk of whole tensors that a series is transformed in
# (simulator assembly, the fits' centred Gram pass, evaluation, CLI
# reconstruction); bounds the temporaries to a few chunks, and a small
# series stays one chunk with no per-tensor loop
_CHUNK_ELEMS = 1 << 18


def _check_mode(x: np.ndarray, mode: int) -> None:
    if not 0 <= mode < x.ndim:
        raise ValueError(f"mode {mode} out of range for a {x.ndim}-way tensor")


def unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-d matricization of a dense tensor.

    Parameters
    ----------
    x : ndarray
        Tensor of shape ``(p_1, ..., p_D)``.
    mode : int
        Mode to place on the rows (0-based).

    Returns
    -------
    ndarray
        Matrix of shape ``(p_mode, prod of the other dims)`` whose column
        index enumerates the remaining indices, lowest mode fastest.
    """
    x = np.asarray(x)
    _check_mode(x, mode)
    return np.reshape(np.moveaxis(x, mode, 0), (x.shape[mode], -1), order="F")


def fold(m: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape`` from its
    mode-d matricization."""
    m = np.asarray(m)
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    p_other = math.prod(shape) // shape[mode]
    if m.ndim != 2 or m.shape != (shape[mode], p_other):
        raise ValueError(
            f"matrix of shape {m.shape} cannot fold into {shape} at mode {mode}"
        )
    rest = [s for i, s in enumerate(shape) if i != mode]
    return np.moveaxis(m.reshape([shape[mode]] + rest, order="F"), 0, mode)


def mode_product(x: np.ndarray, mat: np.ndarray, mode: int) -> np.ndarray:
    """Tensor-matrix product along one mode.

    Satisfies ``unfold(mode_product(x, a, d), d) == a @ unfold(x, d)``;
    the mode-d dimension ``p_d`` is replaced by ``a.shape[0]``.
    """
    x = np.asarray(x)
    mat = np.asarray(mat)
    _check_mode(x, mode)
    if mat.ndim != 2:
        raise ValueError("mode_product expects a matrix")
    if mat.shape[1] != x.shape[mode]:
        raise ValueError(
            f"matrix with {mat.shape[1]} columns cannot contract mode {mode} "
            f"of size {x.shape[mode]}"
        )
    a, p, b = _split(x.shape, mode)
    shape = x.shape[:mode] + (mat.shape[0],) + x.shape[mode + 1:]
    if b == 1:
        return (x.reshape(a, p) @ mat.T).reshape(shape)
    return np.matmul(mat, x.reshape(a, p, b)).reshape(shape)


def _split(shape, axis):
    """Sizes ``(A, p_d, B)`` of the axes before, at and after ``axis``."""
    return math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])


def _chunks(shape) -> list[slice]:
    """Slices of the leading axis of ``shape``, each spanning whole tensors
    of at most ``_CHUNK_ELEMS`` elements (one tensor when a tensor is larger).

    A mode product of a chunk gives the bits of the same rows of the whole
    array's mode product, so a chunked pass matches a whole-array one.
    """
    step = max(1, _CHUNK_ELEMS // math.prod(shape[1:]))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def _mode_gram(x: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """``unfold(x, axis) @ unfold(y, axis).T`` for arrays of one shape.

    Sums ``x_i @ y_i.T`` over the ``(A, p_d, B)`` slices without forming
    either unfolding, one batched matmul per chunk of slices; when ``y`` is
    ``x`` every product is ``z @ z.T`` on one buffer, which numpy evaluates
    with ``syrk``.
    """
    a, p, b = _split(x.shape, axis)
    if b == 1:
        return x.reshape(a, p).T @ y.reshape(a, p)
    x, y = x.reshape(a, p, b), y.reshape(a, p, b)
    step = max(1, _BATCH_ELEMS // (p * p))
    out = np.zeros((p, p))
    for i in range(0, a, step):
        xs, ys = x[i:i + step], y[i:i + step]
        out += np.matmul(xs, ys.transpose(0, 2, 1)).sum(axis=0)
    return out


def _mode_grams(x: np.ndarray, mean=None, lags=(0,)) -> list[list[np.ndarray]]:
    """Every mode's Gram matrix of the centred series, in one pass.

    Returns ``grams[i][d] = _mode_gram(z[:T - h], z[h:], d + 1)`` for
    ``h = lags[i]`` and ``z = x - mean`` (``x`` itself when ``mean`` is
    None), for a C-contiguous series ``x`` of shape ``(T, p_1, ..., p_D)``.
    Each chunk of whole tensors, plus the ``max(lags)`` tensors after it,
    is centred once into one reused buffer, and all modes' products are
    taken from there, so the centred series is never held whole.
    """
    t_len, reach = x.shape[0], max(lags)
    out = [[np.zeros((p, p)) for p in x.shape[1:]] for _ in lags]
    chunks = _chunks(x.shape)
    if mean is not None:
        buf = np.empty((min(chunks[0].stop + reach, t_len),) + x.shape[1:])
    for s in chunks:
        start, stop = s.start, min(s.stop + reach, t_len)
        z = x[start:stop]
        if mean is not None:
            z = np.subtract(z, mean, out=buf[:stop - start])
        for h, grams in zip(lags, out):
            # pairs (t, t + h) with t in this chunk and t + h < T
            n = min(s.stop, t_len - h) - start
            if n <= 0:
                continue
            lead = z[:n]
            lagged = z[h:h + n] if h else lead
            for axis, g in enumerate(grams, 1):
                g += _mode_gram(lead, lagged, axis)
    return out


def multi_mode_product(
    x: np.ndarray,
    mats,
    modes=None,
    transpose: bool | list[bool] = False,
    skip: int | None = None,
) -> np.ndarray:
    """Apply a mode product for several modes in one call.

    Parameters
    ----------
    x : ndarray
        Input tensor.
    mats : sequence of ndarray
        One matrix per entry of ``modes``.
    modes : sequence of int, optional
        Modes the matrices act on; defaults to ``0, 1, ...``.  At most one
        matrix per mode.
    transpose : bool or sequence of bool
        Apply the transpose of the corresponding matrix.  A single flag
        applies to every entry.
    skip : int, optional
        Position in ``mats`` to leave out (convenient for leave-one-mode-out
        projections).

    Returns
    -------
    ndarray
        The tensor ``x x_{m0} M0 x_{m1} M1 ...``; mode products on distinct
        modes commute, so the application order does not matter.
    """
    x = np.asarray(x)
    mats = list(mats)
    if modes is None:
        modes = list(range(len(mats)))
    else:
        modes = [int(m) for m in modes]
    if len(modes) != len(mats):
        raise ValueError("mats and modes must have equal length")
    if isinstance(transpose, (bool, np.bool_)):
        transpose = [bool(transpose)] * len(mats)
    if len(transpose) != len(mats):
        raise ValueError("transpose flags must match mats")
    seen = set()
    for i, mode in enumerate(modes):
        if i == skip:
            continue
        if mode in seen:
            raise ValueError(f"duplicate mode {mode} in multi_mode_product")
        seen.add(mode)
    out = x
    for i, (mat, mode) in enumerate(zip(mats, modes)):
        if i == skip:
            continue
        mat = np.asarray(mat)
        out = mode_product(out, mat.T if transpose[i] else mat, mode)
    return out


def vectorize(x: np.ndarray) -> np.ndarray:
    """Flatten a tensor with the first index varying fastest."""
    return np.asarray(x).ravel(order="F")


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the usual block convention.

    Entry ``(i*rows(b) + k, j*cols(b) + l)`` equals ``a[i, j] * b[k, l]``.
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    m, n = a.shape
    q, r = b.shape
    return np.einsum("ij,kl->ikjl", a, b).reshape(m * q, n * r)


def frobenius_norm(x: np.ndarray) -> float:
    """Square root of the sum of squared entries, for any array shape."""
    return float(np.linalg.norm(np.asarray(x).ravel()))
