"""Mode-wise PCA estimators for the Tucker tensor factor model.

A sample of D-way observations is handled as one array of shape
``(T, p_1, ..., p_D)`` whose leading axis indexes time.  The model writes
each observation as a low-rank signal plus noise,

    X_t = F_t x_1 A_1 x_2 ... x_D A_D + E_t,

with loadings ``A_d`` of shape ``(p_d, k_d)`` normalized so that
``A_d.T @ A_d = p_d * I``.  Four estimators share one driver:

* :func:`mopca_fit` - PCA on each mode's raw unfolding covariance;
* :func:`pmopca_fit` - one projection step through frozen initial
  loadings before the per-mode PCA;
* :func:`ipmopca_fit` - alternating projected PCA sweeps with optional
  within-sweep updates, stopped by a projector-distance criterion;
* :func:`~tuckerfactor.baseline.itipup_fit` - the same sweeps on lagged
  auto-covariances (iTIPUP).

One operator (:func:`_mode_matrix`) maps a mode's Gram matrices at a
method's lags, 0 or ``1..h0``, to its matrix, for the start spectra and
for every sweep's stacks; the methods differ only in those lags and in
the sweeps that follow the start (none, one frozen, or up to
``max_iter``).  Rank selection by eigenvalue ratios reads the same
start spectra; a varimax rotation rounds out the module.

Centring holds the series once: no estimator builds ``X_t - mean``.
The mean and the mode covariances come from :func:`series_moments`, one
pass (``tensor._mode_grams``) whose two reads (mode 1, modes 2..D)
centre each tensor, window by window, into rings of reused buffers and
sum every mode's Gram matrix from them; they run at once (large tensors,
a core BLAS leaves idle) or in turn, each with its own ring.
Its :class:`SeriesMoments` can be passed to several fits of one series
as ``moments=``, so they share that pass and the start spectra, which
it keeps per lag set.
Projections and factors are taken one run of whole tensors at a time
and centred after projecting: by linearity ``P(X_t - mean) = P(X_t) -
mean_s P(X_s)``, so the small projected stack's own temporal mean is
subtracted.  A sweep of :func:`iterate_projected_fit` shares its mode
products through a dimension tree (Kaya & Ucar, ICPP 2016): it reads the
whole series twice, for mode 1's stack and for the prefix ``X x_1 A_1'``
that serves the later modes, and its last prefix is the factor tensor.
A run holds at most ``tensor._CHUNK_ELEMS`` elements (one tensor when a
tensor is larger), and a window at most that (the whole tensor when it
fits), so a fit's temporaries are a few pieces plus one tensor, the
mean, at any tensor size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import EigenSystem, _eigensystem, _sine
from .tensor import (_check_mode, _in_halves, _integer, _matrix, _mode_gram,
                     _mode_grams, _pieces, mode_product, multi_mode_product)

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 50
RATIO_FLOOR = 1e-12


@dataclass
class FactorFit:
    """Result of a factor-model fit.

    Attributes
    ----------
    loadings : list of ndarray
        Per-mode loading matrices, ``loadings[d]`` of shape ``(p_d, k_d)``
        with ``loadings[d].T @ loadings[d] = p_d * I`` up to rounding.
    factors : ndarray
        Core tensors, shape ``(T, k_1, ..., k_D)``.
    signals : ndarray
        Fitted low-rank part, shape ``(T, p_1, ..., p_D)``, computed from
        the factors and loadings on first access and kept.  Reported in
        centered coordinates when the fit centered the data.
    eigvals : list of ndarray
        Per-mode descending eigenvalues of the final covariance matrices
        (all ``p_d`` of them, clipped at zero).
    iterations : int
        Completed refinement sweeps (0 for the plain mode-wise fit).
    converged : bool
        Whether the stopping criterion was met within the sweep budget.
    per_sweep_distance : list of float
        History of the stopping statistic, one entry per sweep.
    mean : ndarray or None
        Temporal mean tensor of the series when the fit centred it (None
        otherwise), the read-only mean of the fit's :class:`SeriesMoments`.
        The fit works in centred coordinates without ever subtracting it
        from the whole series; add it to ``signals`` to return to the
        data's coordinates.
    """

    loadings: list[np.ndarray]
    factors: np.ndarray
    eigvals: list[np.ndarray]
    iterations: int
    converged: bool
    per_sweep_distance: list[float] = field(default_factory=list)
    mean: np.ndarray | None = None

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(a.shape[1] for a in self.loadings)

    @cached_property
    def signals(self) -> np.ndarray:
        return reconstruct_signals(self.factors, self.loadings)


def _as_series(x) -> np.ndarray:
    if np.iscomplexobj(x):
        raise ValueError("complex input is not supported; pass a real series")
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError("a series must have shape (T, p_1, ..., p_D)")
    if 0 in x.shape:
        raise ValueError(f"series is empty, got shape {x.shape}")
    return x


def _checked(dims, ranks, k_max, tol=DEFAULT_TOL, max_iter=None):
    """A fit's ``ranks`` (a tuple of ints or "auto") and ``k_max`` (its
    default under "auto"), checked with ``tol`` and ``max_iter`` (None: no
    sweeps): the one gate of a fit's arguments, ahead of any pass."""
    if isinstance(ranks, str):
        if ranks != "auto":
            raise ValueError(f"ranks must be a tuple or 'auto', got {ranks!r}")
        if min(dims) < 2:
            raise ValueError(f"ranks='auto' needs two eigenvalues per mode, but "
                             f"mode {dims.index(1)} of dims {dims} has size 1")
        k_max = min(8, min(dims) - 1) if k_max is None else _integer(k_max, "k_max")
        if k_max < 1 or any(k_max > p - 1 for p in dims):
            raise ValueError(f"k_max={k_max} out of range for dims {dims}")
    else:
        ranks = tuple(_integer(k, "ranks") for k in ranks)
        if len(ranks) != len(dims):
            raise ValueError(f"got {len(ranks)} ranks for {len(dims)} modes")
        for k, p in zip(ranks, dims):
            if not 1 <= k <= p:
                raise ValueError(f"rank {k} out of range for mode of size {p}")
    _check_sweeps(tol, max_iter)
    return ranks, k_max


def _check_sweeps(tol, max_iter):
    """A fit's ``tol`` (positive) and ``max_iter`` (an int >= 1, or None: no sweeps)."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter is not None and _integer(max_iter, "max_iter") < 1:
        raise ValueError("max_iter must be at least 1")


def mode_covariance(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-d sample covariance ``sum_t X_t^(d) X_t^(d)' / (T p)``.

    ``p`` is the full tensor size ``p_1 * ... * p_D``.  The result is
    symmetric positive semidefinite of shape ``(p_d, p_d)``.
    """
    return _series_matrix(_as_series(x), mode, (0,))


def _series_matrix(x, mode, lags):
    """Mode ``mode``'s :func:`_mode_matrix` of the series ``x`` at ``lags``,
    over ``p``: the path of the layer functions."""
    _check_mode(x[0], mode)
    return _projected_covariance(x, lags, mode + 1, x.size // x.shape[0])


def projected_series(x: np.ndarray, loadings, mode: int,
                     center: bool = False) -> np.ndarray:
    """Project each observation through every other mode's loadings.

    Returns the stack of ``X_t^(d) (A_D kron ... kron A_{d+1} kron
    A_{d-1} kron ... kron A_1) / p_{-d}`` as an array of shape
    ``(T, p_d, k_{-d})``.  The Kronecker matrix is never materialized;
    the product is evaluated by successive mode products.  With
    ``center`` the stack is that of the centred series ``X_t - mean_s
    X_s``, formed by subtracting the projected stack's own temporal mean
    (the projection is linear), so no centred series is built.  Every
    mode's loading, d's own too, must first pass the fits' ``init`` check.
    """
    x = _as_series(x)
    _check_mode(x[0], mode)
    loadings = _check_init(loadings, x.shape[1:], "loadings")
    others = [d for d in range(x.ndim - 1) if d != mode]
    y = _project(x, loadings, others, x.size // x.shape[0] // x.shape[mode + 1], mode)
    return _centred(y, center)


def projected_mode_covariance(x: np.ndarray, loadings, mode: int,
                              center: bool = False) -> np.ndarray:
    """Covariance ``sum_t Y_t Y_t' / (T p_d)`` of the projected series
    (of the centred series with ``center``, see :func:`projected_series`)."""
    return _projected_covariance(projected_series(x, loadings, mode, center))


def _projected_covariance(y, lags=(0,), axis=1, scale=None):
    """The :func:`_mode_matrix` at ``lags`` of a series or stack ``y`` along
    ``axis``, over ``scale`` (``p_d`` by default).  The sweeps' stack
    operator: at lag 0, ``sum_t Y_t Y_t' / (T p_d)`` of a stack ``(T, p_d,
    k_-d)``."""
    grams = [_mode_gram(y[:len(y) - h], y[h:], axis) for h in lags]
    return _mode_matrix(grams, lags, len(y), scale or y.shape[axis])


def _mode_matrix(grams, lags, n, scale):
    """Every method's operator: a mode's symmetric matrix from its Gram
    matrices at the method's ``lags`` of ``n`` observations.  Lag 0 gives
    ``G_0 / (n scale)`` (the PCA fits), lags ``1..h0`` give ``sum_h W_h
    W_h'`` with ``W_h = G_h / ((n - h) scale)`` (iTIPUP)."""
    if lags == (0,):
        m = grams[0] / (n * scale)
    else:
        m = np.zeros(grams[0].shape)
        for g, h in zip(grams, lags):
            w = g / ((n - h) * scale)
            m += w @ w.T
    _check_finite([m])
    return (m + m.T) / 2.0


def _check_finite(mats):
    """Raise on non-finite moments: a NaN or inf anywhere in a series
    reaches the diagonal of every Gram matrix built from all of it."""
    if not all(np.isfinite(m).all() for m in mats):
        raise ValueError("the series has non-finite entries (NaN or inf), "
                         "or its moments overflow")


def _project(x, loadings, modes, scale=1.0, stack=None):
    """``x x_d A_d' / scale`` over every mode d in ``modes``; with ``stack``
    a mode, as that mode's stack ``(T, p_d, k_-d)``.

    ``x`` is a series or a prefix of one (lower modes already contracted),
    with mode d on axis ``d + 1``.  The mode with the largest ``p_d / k_d``
    goes first, so later products act on the smallest intermediate.  The
    products are taken run by run of whole tensors (:func:`tensor._pieces`,
    in :func:`tensor._in_halves`) into the preallocated result.
    """
    modes = sorted(modes, key=lambda d: -x.shape[d + 1] / loadings[d].shape[1])
    shape = list(x.shape)
    for d in modes:
        shape[d + 1] = loadings[d].shape[1]
    # a stack has its mode first, then the other modes reversed, so a C-order
    # reshape enumerates them lowest mode fastest (the unfold convention)
    axes = range(x.ndim) if stack is None else (
        0, stack + 1, *(a for a in range(x.ndim - 1, 0, -1) if a != stack + 1))
    out = np.empty([shape[a] for a in axes])

    def run(part, _):
        for (s,) in part:
            z = x[s]
            for d in modes:
                z = mode_product(z, loadings[d].T, d + 1)
            np.divide(z.transpose(axes), scale, out=out[s])
    _in_halves(x, run, _pieces(x.shape))
    return out if stack is None else out.reshape(x.shape[0], x.shape[stack + 1], -1)


def _centred(y, center):
    """``y`` less its temporal mean, in place, with ``center``."""
    if center:
        y -= np.add.reduce(y, axis=0) / y.shape[0]  # y.mean(axis=0), one call
    return y


def extract_factors(x: np.ndarray, loadings, center: bool = False) -> np.ndarray:
    """Core tensors ``F_t = X_t x_1 A_1' x_2 ... x_D A_D' / p``.

    With ``center`` they are the cores of ``X_t - mean_s X_s``: the cores'
    own temporal mean is subtracted, so no centred series is built.  The
    ``loadings`` are checked as the fits check ``init``, before any product.
    """
    x = _as_series(x)
    loadings = _check_init(loadings, x.shape[1:], "loadings")
    return _centred(_project(x, loadings, range(x.ndim - 1), x[0].size), center)


def reconstruct_signals(factors: np.ndarray, loadings) -> np.ndarray:
    """Signal tensors ``S_t = F_t x_1 A_1 x_2 ... x_D A_D``."""
    factors = _as_series(factors)
    modes = list(range(1, factors.ndim))
    return multi_mode_product(factors, loadings, modes=modes)


def _signal_pieces(factors, loadings, mean=None):
    """``(s, S[s] + mean)`` (``S[s]`` when ``mean`` is None) for each run ``s``
    of whole tensors (:func:`tensor._pieces`) of ``S = reconstruct_signals(
    factors, loadings)``: the bits of the whole array, which is never built."""
    for (s,) in _pieces((len(factors), *(a.shape[0] for a in loadings))):
        signals = reconstruct_signals(factors[s], loadings)
        if mean is not None:
            signals += mean
        yield s, signals


def select_rank_from_eigenvalues(values: np.ndarray, k_max: int) -> int:
    """Index maximizing the consecutive eigenvalue ratio.

    ``values`` must be finite and non-increasing, with a positive top; a raw
    spectrum's rounding-level negative tail is fine, as the denominator is
    floored at ``RATIO_FLOOR`` times the top eigenvalue so (near-)noiseless
    spectra stay well defined; ties resolve to the smallest index.
    Returns a 1-based rank.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"values has non-finite entries: {values}")
    if (np.diff(values) > 0).any():
        raise ValueError(f"values must be non-increasing, got {values}")
    if not 1 <= _integer(k_max, "k_max") <= values.size - 1:
        raise ValueError(f"k_max={k_max} out of range for {values.size} eigenvalues")
    if values[0] <= 0:
        raise ValueError("degenerate spectrum: top eigenvalue is zero")
    num = values[:k_max]
    den = np.maximum(values[1 : k_max + 1], RATIO_FLOOR * values[0])
    return int(np.argmax(num / den)) + 1


@dataclass(frozen=True, eq=False)
class SeriesMoments:
    """Mean and mode-wise Gram matrices of one series, from one pass.

    ``grams[h][d]`` is mode d's lag-h Gram matrix ``sum_{t<T-h} Z_t^(d)
    Z_{t+h}^(d)'`` of ``Z_t = X_t - mean`` (``X_t`` when ``mean`` is None)
    for each ``h`` in ``lags``.  Built by :func:`series_moments`; its
    arrays are read-only.
    """

    shape: tuple[int, ...]
    center: bool
    lags: tuple[int, ...]
    mean: np.ndarray | None
    grams: dict[int, tuple[np.ndarray, ...]]
    _systems: dict = field(default_factory=dict, init=False, repr=False)

    def eigensystems(self, lags=(0,)) -> tuple[EigenSystem, ...]:
        """Every mode's full eigensystem of its :func:`_mode_matrix` at
        ``lags`` (the start spectra), computed on first use per lag set and
        kept, read-only."""
        lags = tuple(lags)
        if lags not in self._systems:
            n, p = self.shape[0], math.prod(self.shape[1:])
            systems = tuple(_eigensystem(
                _mode_matrix([self.grams[h][d] for h in lags], lags, n, p))
                for d in range(len(self.shape) - 1))
            for es in systems:
                es.values.flags.writeable = es.vectors.flags.writeable = False
            self._systems[lags] = systems
        return self._systems[lags]


def series_moments(x, lags=(0,), center: bool = True) -> SeriesMoments:
    """The temporal mean (with ``center``) and every mode's Gram matrix of
    the centred series at each of ``lags`` (integers 0..T-1), in one pass.

    Pass it as ``moments=`` to the fits of ``x`` with the same ``center``:
    lag 0 serves the PCA fits and :func:`estimate_ranks`, lags ``1..h0``
    serve iTIPUP.  A fit checks shape, ``center`` and lags; that the
    moments are of the same series is the caller's promise.
    """
    x = _as_series(x)
    lags = tuple(sorted({_integer(h, "lags") for h in lags}))
    if lags and not 0 <= lags[0] <= lags[-1] < x.shape[0]:
        raise ValueError(f"lags {lags} must be nonnegative and below T={x.shape[0]}")
    mean = x.mean(axis=0) if center else None
    grams = dict(zip(lags, map(tuple, _mode_grams(x, mean, lags)))) if lags else {}
    _check_finite(g for gs in grams.values() for g in gs)
    for a in [g for gs in grams.values() for g in gs] + ([] if mean is None else [mean]):
        a.flags.writeable = False
    return SeriesMoments(x.shape, center, lags, mean, grams)


def _moments_for(x, moments, center, lags) -> SeriesMoments:
    """``moments`` checked against a fit's input, or the series' own."""
    if moments is None:
        return series_moments(x, lags, center)
    if ((moments.shape, moments.center) != (x.shape, center)
            or not set(lags) <= set(moments.lags)):
        raise ValueError(
            f"moments of shape {moments.shape}, center={moments.center}, lags "
            f"{moments.lags} do not fit a series of shape {x.shape} with "
            f"center={center} that needs lags {tuple(lags)}")
    return moments


def estimate_ranks(
    x: np.ndarray,
    k_max: int | None = None,
    loadings=None,
    center: bool = False,
    *, moments: SeriesMoments | None = None,
) -> tuple[int, ...]:
    """Eigenvalue-ratio rank selection, one rank per mode.

    Ratios are formed from the mode covariance spectra (those of
    ``moments``, lag 0, when given), or from the projected covariance
    spectra when ``loadings`` is supplied, which are checked as the fits
    check ``init``.  ``k_max`` and ``loadings`` are checked before any pass.
    """
    x = _as_series(x)
    if loadings is None:
        fitted = _start(x, (0,), "auto", k_max, center, moments)[1]
    else:
        # the spectra of one sweep through the frozen ``loadings``
        loadings = _check_init(loadings, x.shape[1:], "loadings")
        k_max = _checked(x.shape[1:], "auto", k_max)[1]
        fitted, _ = _loadings_from_spectra("auto", k_max, iterate_projected_fit(
            x, [a.shape[1] for a in loadings], loadings, (0,), center,
            max_iter=1, update_within_sweep=False)[1])
    return tuple(a.shape[1] for a in fitted)


def _start(x, lags, ranks, k_max, center, moments, tol=DEFAULT_TOL, max_iter=None):
    """``(moments, loadings, spectra)`` of a series, after :func:`_checked`:
    ``moments`` checked for ``lags`` (or the series' own), and every mode's
    start loadings and raw spectrum from its cached eigensystem at ``lags``."""
    ranks, k_max = _checked(x.shape[1:], ranks, k_max, tol, max_iter)
    moments = _moments_for(x, moments, center, lags)
    return (moments, *_loadings_from_spectra(ranks, k_max, moments.eigensystems(lags)))


def _loadings_from_spectra(ranks, k_max, systems):
    """Loadings and raw spectra from ``systems``, one full eigensystem per
    mode, for ``ranks`` and ``k_max`` already checked by :func:`_checked`.

    With ``ranks="auto"`` each rank comes from the ratio rule on the
    spectrum that yields the loadings.  A mode whose top eigenvalue is not
    positive (a constant or single-observation centred series) has no
    factor directions, so it raises whatever the ranks.  Spectra are raw:
    the ratio rule floors rounding-level negatives.
    """
    loadings, spectra = [], []
    for d, es in enumerate(systems):
        spectra.append(_nondegenerate(d, es).values)
        k_d = (select_rank_from_eigenvalues(es.values, k_max) if ranks == "auto"
               else ranks[d])
        loadings.append(np.sqrt(len(es.values)) * es.vectors[:, :k_d])
    return loadings, spectra


def _nondegenerate(d, es):
    """Mode d's eigensystem ``es``, if its top eigenvalue is positive."""
    if not es.values[0] > 0:
        raise ValueError(f"degenerate spectrum: mode {d} has top eigenvalue "
                         f"{es.values[0]:.3g} (a constant series, or moments "
                         "that underflow)")
    return es


def _check_init(init, dims, name="init"):
    """A loadings argument ``init``, named ``name``, checked before any pass:
    one :func:`~tensor._matrix` per mode, of ``p_d`` rows and full column rank."""
    if init is None:
        return None
    init = [_matrix(a, f"{name} for mode {d}") for d, a in enumerate(init)]
    if len(init) != len(dims):
        raise ValueError(f"{name} has {len(init)} matrices for {len(dims)} modes")
    for d, (a, p_d) in enumerate(zip(init, dims)):
        if a.shape[0] != p_d or np.linalg.matrix_rank(a) < a.shape[1]:
            raise ValueError(f"{name} for mode {d} has shape {a.shape}; it needs "
                             f"{p_d} rows and full column rank")
    return init


def _fit(x, lags, ranks, k_max, center, moments, init=None, max_iter=None,
         tol=DEFAULT_TOL, update_within_sweep=True) -> FactorFit:
    """The estimator driver that every public fit calls: from ``init``, or
    else the cached start spectra at ``lags``, it runs no sweeps (``max_iter``
    None) or up to ``max_iter`` sweeps on the stacks' matrices at ``lags``,
    once its arguments pass :func:`_checked` and ``init`` :func:`_check_init`."""
    x = _as_series(x)
    init = _check_init(init, x.shape[1:])
    if init is None:
        moments, init, spectra = _start(x, lags, ranks, k_max, center, moments,
                                        tol, max_iter)
        ranks = [a.shape[1] for a in init]  # the start fixes the ranks under "auto"
    else:  # "auto" takes the ranks of ``init`` and ignores ``k_max``
        auto = isinstance(ranks, str) and ranks == "auto"
        ranks = _checked(x.shape[1:], [a.shape[1] for a in init] if auto else ranks,
                         k_max, tol, max_iter)[0]
        moments = _moments_for(x, moments, center, ())
    loadings, sweeps, converged, history, factors = init, 0, True, [], None
    if max_iter is not None:
        loadings, systems, sweeps, converged, history, factors = iterate_projected_fit(
            x, ranks, init, lags, center, tol, max_iter, update_within_sweep)
        spectra = [es.values for es in systems]
    if factors is None:
        factors = extract_factors(x, loadings, center)
    for d, (v, a) in enumerate(zip(spectra, loadings)):
        if (ratio := v[a.shape[1] - 1] / v[0]) <= len(v) * np.finfo(float).eps:
            logging.getLogger(__name__).warning(
                "mode %d: rank %d is past its numerical rank (eigenvalue ratio %.3g "
                "to the top, at most p_d * eps)", d, a.shape[1], ratio)
    return FactorFit(loadings, factors, [np.maximum(v, 0.0) for v in spectra],
                     sweeps, converged, history, moments.mean)


def mopca_fit(
    x: np.ndarray,
    ranks="auto",
    center: bool = True,
    k_max: int | None = None,
    *, moments: SeriesMoments | None = None,
) -> FactorFit:
    """Mode-wise PCA fit.

    Per mode, the loadings are ``sqrt(p_d)`` times the top ``k_d``
    eigenvectors of the mode covariance; factors and signals follow by
    the projection formulas.

    Parameters
    ----------
    x : ndarray
        Observations, shape ``(T, p_1, ..., p_D)``.
    ranks : tuple of int or "auto"
        Core dimensions per mode.
    center : bool
        Subtract the temporal mean tensor before estimating.
    k_max : int, optional
        Ratio-rule search bound when ``ranks="auto"``.
    moments : SeriesMoments, optional
        ``series_moments(x, lags, center)`` with lag 0, shared with other
        fits of ``x``; built here when omitted.  Every fit takes it.
    """
    return _fit(x, (0,), ranks, k_max, center, moments)


def pmopca_fit(
    x: np.ndarray,
    ranks="auto",
    init=None,
    center: bool = True,
    k_max: int | None = None,
    *, moments: SeriesMoments | None = None,
) -> FactorFit:
    """Projected mode-wise PCA fit.

    Every mode's covariance is built from the series projected through the
    *frozen* initial loadings (mode-wise PCA estimates by default); one
    eigendecomposition per mode then yields the refined loadings.  An
    ``init`` fixes the ranks under ``ranks="auto"``, as in
    :func:`ipmopca_fit`.  This is one sweep of :func:`ipmopca_fit`
    without within-sweep updates, reported as converged.
    """
    return _fit(x, (0,), ranks, k_max, center, moments, init, max_iter=1,
                tol=np.inf, update_within_sweep=False)


def iterate_projected_fit(
    x: np.ndarray,
    ranks,
    init,
    lags,
    center: bool,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    update_within_sweep: bool = True,
):
    """Shared sweep loop of the projected estimators.

    Each sweep refreshes the modes in order.  Mode d's stack is the series
    projected through the other modes' loadings (:func:`projected_series`),
    centred with ``center``; the top ``ranks[d]`` eigenvectors of its
    :func:`_projected_covariance` at ``lags`` are the new loadings.  With
    ``update_within_sweep`` mode d's stack takes this sweep's new loadings
    of the lower modes, else the sweep's start loadings.  Sweeps stop once
    the largest per-mode projector distance across a sweep (of orthonormal
    bases, a QR of ``init``) is at most ``tol``, or after ``max_iter``:
    unchecked here, a fit's :func:`_checked` checks them (or constants).

    A sweep walks one prefix chain, ``P_0 = X`` and ``P_{d+1} = P_d x_d
    A_d'``: mode d's stack contracts the higher modes of ``P_d``, the
    largest ``p_j / k_j`` first.  Only mode 0's stack and ``P_1`` read the
    whole series: two full-size mode products a sweep at any D (one for D =
    1).  With ``update_within_sweep`` the last sweep's ``P_D / p``,
    centred, is the factors of the returned loadings; without, the factors
    are None.  Returns ``(loadings, systems, sweeps, converged, history,
    factors)``, ``systems[d]`` being mode d's last full eigensystem.
    """
    dims, p = x.shape[1:], x.size // x.shape[0]
    current = [np.asarray(a, dtype=float) for a in init]
    bases = [np.linalg.qr(a)[0] for a in current]  # init need not be orthonormal
    systems = [None] * len(dims)
    history: list[float] = []
    for sweeps in range(1, max_iter + 1):
        start, old_bases = list(current), list(bases)
        projector = current if update_within_sweep else start
        prefix = x
        for d, (p_d, k_d) in enumerate(zip(dims, ranks)):
            y = _project(prefix, projector, range(d + 1, len(dims)), p // p_d, d)
            y = _centred(y, center)
            es = systems[d] = _nondegenerate(d, _eigensystem(
                _projected_covariance(y, lags)))
            bases[d] = es.vectors[:, :k_d]
            current[d] = np.sqrt(p_d) * bases[d]
            if d < len(dims) - 1:
                prefix = _project(prefix, projector, [d])
        history.append(max(map(_sine, bases, old_bases)))
        converged = history[-1] <= tol
        if converged:
            break
    factors = (_centred(_project(prefix, current, [len(dims) - 1], p), center)
               if update_within_sweep else None)
    return current, systems, sweeps, converged, history, factors


def ipmopca_fit(
    x: np.ndarray,
    ranks="auto",
    init=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    update_within_sweep: bool = True,
    center: bool = True,
    k_max: int | None = None,
    *, moments: SeriesMoments | None = None,
) -> FactorFit:
    """Iterative projected mode-wise PCA fit.

    Starting from the mode-wise PCA loadings (or ``init``), each sweep
    refreshes every mode's loadings from the projected covariance and the
    iteration stops once the largest per-mode projector distance falls
    below ``tol`` or ``max_iter`` sweeps complete.  Non-convergence is not
    an error; inspect ``converged`` and ``per_sweep_distance``.

    With ``max_iter=1`` and ``update_within_sweep=False`` this reproduces
    the one-shot projected fit exactly.
    """
    return _fit(x, (0,), ranks, k_max, center, moments, init, max_iter, tol,
                update_within_sweep)


def _varimax_criterion(b: np.ndarray) -> float:
    p = b.shape[0]
    b2 = b * b
    return float(np.sum(b2 * b2) / p - np.sum((b2.sum(axis=0) / p) ** 2))


def varimax(a: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100):
    """Varimax rotation by pairwise Jacobi sweeps.

    Rotates column pairs with the classical planar angle until the
    varimax criterion (total variance of squared loadings) stops
    improving.  Returns ``(rotated, q)`` with ``rotated = a @ q`` and
    ``q`` orthogonal; the column space is unchanged.
    """
    max_sweeps, a = _integer(max_sweeps, "max_sweeps"), _matrix(a, "a")
    p, k = a.shape
    q = np.eye(k)
    b = a.copy()
    if k == 1:
        return b, q
    for _ in range(max_sweeps):
        improved = 0.0
        for i in range(k - 1):
            for j in range(i + 1, k):
                x, y = b[:, i], b[:, j]
                u = x * x - y * y
                v = 2.0 * x * y
                su, sv = u.sum(), v.sum()
                num = 2.0 * (u @ v) - 2.0 * su * sv / p
                den = (u @ u - v @ v) - (su * su - sv * sv) / p
                phi = 0.25 * math.atan2(num, den)
                if phi == 0.0:
                    continue
                best_gain, best_g = 0.0, None
                pair = b[:, (i, j)]
                base = _varimax_criterion(pair)
                for angle in (phi, -phi):
                    c, s = math.cos(angle), math.sin(angle)
                    g = np.array([[c, -s], [s, c]])
                    gain = _varimax_criterion(pair @ g) - base
                    if gain > best_gain:
                        best_gain, best_g = gain, g
                if best_g is None:
                    continue
                b[:, (i, j)] = pair @ best_g
                q[:, (i, j)] = q[:, (i, j)] @ best_g
                improved += best_gain
        value = _varimax_criterion(b)
        if improved <= tol * max(1.0, abs(value)):
            break
    return b, q
