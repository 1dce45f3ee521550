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
walks the series in the pieces of :func:`_pieces`, by one rule per axis:
runs of whole tensors of at most ``_CHUNK_ELEMS`` elements along the
first axis, or windows of one tensor, at any tensor size, along a later
one.  Their temporaries are a few pieces, plus one tensor: a fit's mean,
or the simulator's pre-sample noise state.  Two threads, for tensors over
``_AT_ONCE_ELEMS`` when BLAS threads leave half the cores idle, else one
in turn (:func:`_second_thread`), share the halves of :func:`_in_halves`,
the one fork-join (the moment pass's two reads, each with its own ring,
the projections' runs and a TNSF read's tensors), and two pipelines: the
simulator's draws and colouring, ``cli reconstruct``'s building and writing.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import types

import numpy as np

# elements in the (step, p_d, p_d) stack of per-slice Gram matrices that
# one batched matmul builds before it is summed; bounds that temporary
_BATCH_ELEMS = 1 << 16

# elements in one piece of a series (see _pieces), the one memory budget:
# the simulator and the fits hold a few pieces besides the series, plus
# one tensor (the mean or the pre-sample state), at any tensor size; runs
# of whole tensors (projections, evaluation, CLI reconstruction) hold at
# least one tensor, and windows of a tensor within it are the whole tensor
_CHUNK_ELEMS = 1 << 18

# elements of one tensor above which the moment pass's two reads may run
# at once: at one BLAS thread on two cores they took 1.1-1.5x the time of
# reads in turn on 20^3 tensors, 0.8-1.1x on 28^3-36^3, 0.54-0.8x from 44^3
_AT_ONCE_ELEMS = 1 << 16


@functools.cache
def _blas_threads():
    """The thread-count getter of numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    for lib in glob.glob(os.path.join(np.__path__[0], os.pardir, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if (getter := getattr(ctypes.CDLL(lib), symbol, None)) is not None:
                getter.restype = ctypes.c_int
                return getter
    return None


def _reads_at_once(x: np.ndarray) -> bool:
    """Whether :func:`_second_thread` runs a pass over ``x`` on two threads:
    for tensors over ``_AT_ONCE_ELEMS`` where BLAS threads leave half the
    usable cores idle (on cores BLAS used, the fit-large pass took twice as long)."""
    if x.ndim == 2 or x[0].size <= _AT_ONCE_ELEMS or (getter := _blas_threads()) is None:
        return False
    affinity = getattr(os, "sched_getaffinity", None)
    return 2 * getter() <= (len(affinity(0)) if affinity else os.cpu_count() or 1)


@contextlib.contextmanager
def _second_thread(x: np.ndarray):
    """Yield ``submit(fn, *args, **kwargs)`` -> an object with ``.result()``:
    it runs the work at once, or in order in one thread started for the call
    where :func:`_reads_at_once` holds for ``x``, cancelling work queued at exit."""
    if not _reads_at_once(x):
        def submit(fn, *args, **kwargs):
            done = fn(*args, **kwargs)
            return types.SimpleNamespace(result=lambda: done)
        yield submit
        return
    # imported here: at module level it raised study-small peak RSS by 3%
    from concurrent.futures import ThreadPoolExecutor
    worker = ThreadPoolExecutor(1)
    try:
        yield worker.submit
    finally:
        worker.shutdown(cancel_futures=True)


def _in_halves(x: np.ndarray, run, pieces) -> None:
    """The one fork-join: ``run(part, half)`` over independent ``pieces`` (the moment
    pass's two reads, the projections' runs, a TNSF read's tensors): with two or more,
    where :func:`_reads_at_once` holds for ``x``, the caller runs ``run(pieces[:n], 0)``
    and a worker ``run(pieces[n:], 1)`` (n: half, rounded up); else ``run(pieces, 0)``."""
    if len(pieces) < 2 or not _reads_at_once(x):
        return run(pieces, 0)
    n = (len(pieces) + 1) // 2
    with _second_thread(x) as submit:
        second = submit(run, pieces[n:], 1)
        run(pieces[:n], 0)
        second.result()


def _integer(value, name) -> int:
    """``value`` as an int if it is a Python or numpy integer (``bool`` too), else a
    ValueError naming ``name``: the rule for every integer argument, before any work."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} takes integers only, got {value!r}")
    return int(value)


def _matrix(value, name) -> np.ndarray:
    """``value`` as a float ndarray if it is real, 2-D, non-empty and finite, else
    a ValueError naming ``name``: the rule for every matrix argument, before any work."""
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real, got complex entries")
    value = np.asarray(value, dtype=float)
    if value.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got shape {value.shape}")
    if 0 in value.shape:
        raise ValueError(f"{name} is empty, got shape {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{name} has non-finite entries")
    return value


def _check_mode(x: np.ndarray, mode: int) -> None:
    if not 0 <= _integer(mode, "mode") < x.ndim:
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
    shape = tuple(_integer(s, "shape") for s in shape)
    if not 0 <= _integer(mode, "mode") < len(shape):
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
    series.  With ``axis`` 0 the pieces are runs of whole tensors of at
    most ``_CHUNK_ELEMS`` elements (one tensor when a tensor is larger).
    With ``axis`` >= 1 each tensor, at any size, is cut into windows along
    series axis ``axis``, of whole slabs across it: windows along axis 1
    hold whole fibres of modes 2..D, windows along axis 2 whole mode-1
    fibres.  A window has at least two slabs (where the axis has two) and
    at most the budget, or three slabs when fewer fill it, so a tensor
    within the budget is one window.  Windows come window by window, each
    for ``t = 0..T-1`` in turn, so a window's lag partners are its
    neighbours.  A 1-way series is cut into runs alone, by the window rule
    with tensors for slabs: at least two tensors a run (where T has two),
    at most the budget or three tensors.

    A mode product of a piece along a mode that it holds whole gives the
    bits of the same entries of the whole array's mode product, so a
    piecewise pass matches a whole-array one.
    """
    size = math.prod(shape[1:])
    if len(shape) == 2:
        axis = 0
    elif axis == 0:
        step = max(1, _CHUNK_ELEMS // size)
        return [(slice(i, i + step),) for i in range(0, shape[0], step)]
    # at least two slabs a piece: BLAS takes a product with one row or
    # column to another kernel, whose bits differ from the whole array's
    width = max(2, _CHUNK_ELEMS // (size // shape[axis] if axis else size))
    starts = list(range(0, shape[axis], width))
    if len(starts) > 1 and shape[axis] - starts[-1] == 1:
        # a one-slab tail takes a slab from the window before it, or
        # joins it when that has only two
        starts[-1:] = [starts[-1] - 1] if width > 2 else []
    spans = [slice(j, k) for j, k in zip(starts, starts[1:] + [shape[axis]])]
    if axis == 0:
        return [(s,) for s in spans]
    lead = (slice(None),) * (axis - 1)
    return [(slice(t, t + 1), *lead, s) for s in spans for t in range(shape[0])]


def _mode_gram(x: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """``unfold(x, axis) @ unfold(y, axis).T`` for arrays of one shape.

    Sums ``x_i @ y_i.T`` over the ``(A, p_d, B)`` slices without forming
    either unfolding: one product when ``A`` or ``B`` is 1, else one
    batched matmul per chunk of slices.  When ``y`` is ``x`` every product
    is ``z @ z.T`` on one buffer, which numpy evaluates with ``syrk``.
    """
    a, p, b = _split(x.shape, axis)
    if b == 1:
        return x.reshape(a, p).T @ y.reshape(a, p)
    if a == 1:
        return x.reshape(p, b) @ y.reshape(p, b).T
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
    The centred series is never held whole.  Each tensor is read twice, in
    one-tensor windows (:func:`_pieces`): mode 1 from windows along its
    second axis in the series' own layout, the other modes from windows
    along its first, centred with mode 2 moved in front, so that modes 1,
    2 and D each take one BLAS call per window.  Each window is centred
    once into a ring of ``max(lags) + 1`` window buffers, which holds its
    lag partners.  A 1-way series, which :func:`_pieces` cuts into runs,
    goes through the same loop a tensor at a time.  The reads, each with its
    own ring, are the two pieces of :func:`_in_halves`, mode 1's the caller's:
    at once or in turn, they keep their bits, as they write distinct modes.
    """
    t_len, slots = x.shape[0], max(lags) + 1
    out = [[np.zeros((p, p)) for p in x.shape[1:]] for _ in lags]
    natural = list(range(x.ndim))
    swapped = natural[:1] + natural[2:3] + natural[1:2] + natural[3:]  # mode 2 first
    passes = [(_pieces(x.shape, 2), [1], natural),
              (_pieces(x.shape, 1), range(2, x.ndim), swapped)]
    # a pass's ring is as wide as its widest (a first or last) window; the
    # caller allocates the rings: pages a worker allocates stay resident
    rings = [np.empty((slots, max(x[s[0].start][s[1:]].size for s in (p[0], p[-1]))))
             for p, _, _ in passes]

    def read(part, half):
        for (pieces, modes, order), ring in zip(part, rings[half:]):
            for s in pieces if modes else ():
                window = s[1:]
                m = 0.0 if mean is None else mean[(np.newaxis,) + window]
                one = (1,) + x[s[0].start][window].shape  # one tensor's window
                held = [ring[i, :math.prod(one)].reshape([one[a] for a in order])
                        for i in range(slots)]
                for t in range(s[0].start, min(s[0].stop, t_len)):
                    # x - 0.0 is a copy with the bits of x; reading the series in
                    # its own order is the faster side to transpose (order is an
                    # involution)
                    np.subtract(x[(slice(t, t + 1),) + window], m,
                                out=held[t % slots].transpose(order))
                    for h, grams in zip(lags, out):
                        if t < h:
                            continue
                        # the pair (t - h, t) of this window
                        lead, lagged = held[(t - h) % slots], held[t % slots]
                        for mode in modes:
                            grams[mode - 1] += _mode_gram(lead, lagged, order.index(mode))

    _in_halves(x, read, passes)
    return out


def multi_mode_product(
    x: np.ndarray,
    mats,
    modes=None,
    transpose: bool = False,
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
    transpose : bool
        Apply the transpose of every matrix.

    Returns
    -------
    ndarray
        The tensor ``x x_{m0} M0 x_{m1} M1 ...``; mode products on distinct
        modes commute, so the application order does not matter.
    """
    x = np.asarray(x)
    mats = list(mats)
    modes = (list(range(len(mats))) if modes is None
             else [_integer(m, "modes") for m in modes])
    if len(modes) != len(mats):
        raise ValueError("mats and modes must have equal length")
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate mode in multi_mode_product: {modes}")
    out = x
    for mat, mode in zip(mats, modes):
        mat = np.asarray(mat)
        out = mode_product(out, mat.T if transpose else mat, mode)
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
