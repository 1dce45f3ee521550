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

Memory budget: every full-series pass from the simulator through the
fits (noise colouring and assembly, the moment pass, the projections)
walks the series in the pieces of :func:`_pieces`, each of at most
``_CHUNK_ELEMS`` elements at any tensor size: runs of whole tensors, or
windows of one tensor that is larger than the budget.  Their temporaries
are a few pieces, plus one tensor: a fit's mean, or the simulator's
pre-sample noise state.
"""

from __future__ import annotations

import math

import numpy as np

# elements in the (step, p_d, p_d) stack of per-slice Gram matrices that
# one batched matmul builds before it is summed; bounds that temporary
_BATCH_ELEMS = 1 << 16

# elements in one piece of a series (see _pieces), the one memory budget:
# the simulator and the fits hold a few pieces besides the series, plus
# one tensor (the mean or the pre-sample state), at any tensor size, and a
# small series stays one piece with no per-tensor loop; evaluation and CLI
# reconstruction take runs of whole tensors, so there a piece is at least
# one tensor
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


def _pieces(shape, axis=0) -> list[tuple[slice, ...]]:
    """Index tuples that cover a series of ``shape`` piece by piece.

    A piece keeps every axis of the series, so it is indexed like the
    series.  With ``axis`` 0, or while one tensor fits ``_CHUNK_ELEMS``,
    the pieces are runs of whole tensors of at most that many elements
    (one tensor when a tensor is larger).  Otherwise a tensor is cut into
    windows along series axis ``axis``, of whole slabs across it: windows
    along axis 1 hold whole fibres of modes 2..D, windows along axis 2
    whole mode-1 fibres.  A window has at least two slabs (where the axis
    has two) and at most the budget, or three slabs when fewer fill it.
    Windows come window by window, each for ``t = 0..T-1`` in turn, so a
    window's lag partners are its neighbours.

    A mode product of a piece along a mode that it holds whole gives the
    bits of the same entries of the whole array's mode product, so a
    piecewise pass matches a whole-array one.
    """
    size = math.prod(shape[1:])
    if axis == 0 or size <= _CHUNK_ELEMS or axis >= len(shape):
        step = max(1, _CHUNK_ELEMS // size)
        return [(slice(i, i + step),) for i in range(0, shape[0], step)]
    # at least two slabs a window: BLAS takes a product with one row or
    # column to another kernel, whose bits differ from the whole array's
    width = max(2, _CHUNK_ELEMS // (size // shape[axis]))
    starts = list(range(0, shape[axis], width))
    if len(starts) > 1 and shape[axis] - starts[-1] == 1:
        # a one-slab tail takes a slab from the window before it, or
        # joins it when that has only two
        starts[-1:] = [starts[-1] - 1] if width > 2 else []
    lead = (slice(None),) * (axis - 1)
    return [(slice(t, t + 1), *lead, slice(j, k))
            for j, k in zip(starts, starts[1:] + [shape[axis]])
            for t in range(shape[0])]


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
    The centred series is never held whole.  While a tensor fits
    ``_CHUNK_ELEMS``, each run of whole tensors, plus the ``max(lags)``
    tensors after it, is centred once into one reused buffer, and all
    modes' products are taken from there.  A larger tensor is read twice,
    in windows (:func:`_pieces`): mode 1 from windows along its second
    axis, the other modes from windows along its first, centred with mode 2
    moved in front, so that modes 1, 2 and D each take one BLAS call per
    window.  Each window is centred once into a ring of ``max(lags) + 1``
    window buffers, which holds its lag partners.
    """
    t_len, reach = x.shape[0], max(lags)
    out = [[np.zeros((p, p)) for p in x.shape[1:]] for _ in lags]
    if math.prod(x.shape[1:]) > _CHUNK_ELEMS:
        _windowed_grams(x, mean, lags, out)
        return out
    chunks = _pieces(x.shape)
    if mean is not None:
        buf = np.empty((min(chunks[0][0].stop + reach, t_len),) + x.shape[1:])
    for (s,) in chunks:
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


def _windowed_grams(x, mean, lags, out):
    """:func:`_mode_grams` of a series whose tensors exceed the budget,
    accumulated into ``out``."""
    slots = max(lags) + 1
    natural = list(range(x.ndim))
    swapped = natural[:1] + natural[2:3] + natural[1:2] + natural[3:]  # mode 2 first
    passes = [(_pieces(x.shape, 2), [1], natural),
              (_pieces(x.shape, 1), range(2, x.ndim), swapped)]
    # one ring for both passes, as wide as the widest (a first or last) window
    ring = np.empty((slots, max(x[s].size for pieces, _, _ in passes
                                for s in (pieces[0], pieces[-1]))))
    for pieces, modes, order in passes:
        if not modes:
            continue
        for s in pieces:
            t, window = s[0].start, s[1:]
            z = x[s]
            shape = [z.shape[i] for i in order]
            held = [ring[i, :z.size].reshape(shape) for i in range(slots)]
            m = 0.0 if mean is None else mean[np.newaxis][(slice(None),) + window]
            # x - 0.0 is a copy with the bits of x; reading the series in its
            # own order is the faster side to transpose (order is an involution)
            np.subtract(z, m, out=held[t % slots].transpose(order))
            for h, grams in zip(lags, out):
                if t < h:
                    continue
                # the pair (t - h, t) of this window
                lead, lagged = held[(t - h) % slots], held[t % slots]
                for mode in modes:
                    grams[mode - 1] += _mode_gram(lead, lagged, order.index(mode))


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
