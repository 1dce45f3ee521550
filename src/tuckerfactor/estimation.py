"""Mode-wise PCA estimators for the Tucker tensor factor model.

A sample of D-way observations is handled as one array of shape
``(T, p_1, ..., p_D)`` whose leading axis indexes time.  The model writes
each observation as a low-rank signal plus noise,

    X_t = F_t x_1 A_1 x_2 ... x_D A_D + E_t,

with loadings ``A_d`` of shape ``(p_d, k_d)`` normalized so that
``A_d.T @ A_d = p_d * I``.  Three estimators are provided:

* :func:`mopca_fit` - PCA on each mode's raw unfolding covariance;
* :func:`pmopca_fit` - one projection step through frozen initial
  loadings before the per-mode PCA;
* :func:`ipmopca_fit` - alternating projected PCA sweeps with optional
  within-sweep updates, stopped by a projector-distance criterion.

Rank selection by consecutive eigenvalue ratios and a varimax rotation
for loading interpretation round out the module.

Centring holds the series once: no estimator builds ``X_t - mean``.
The mean and the mode covariances come from :func:`series_moments`, one
pass (``tensor._mode_grams``) that centres the series piece by piece
into reused buffers and accumulates every mode's Gram matrix from them.
Its :class:`SeriesMoments` can be passed to several fits of one series
as ``moments=``, so they share that pass and the mode spectra.
Projections and factors are taken one run of whole tensors at a time
and centred after projecting: by linearity ``P(X_t - mean) = P(X_t) -
mean_s P(X_s)``, so the small projected stack's own temporal mean is
subtracted.  A piece holds at most ``tensor._CHUNK_ELEMS`` elements, a
window of one tensor when a tensor is larger, so a fit's temporaries
are a few pieces plus one tensor, the mean, at any tensor size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import EigenSystem, subspace_distance, top_k_eigensystem
from .tensor import _mode_gram, _mode_grams, _pieces, mode_product, multi_mode_product

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
    if x.shape[0] < 1:
        raise ValueError("series is empty")
    return x


def _check_ranks(ranks, dims) -> tuple[int, ...]:
    ranks = tuple(int(k) for k in ranks)
    if len(ranks) != len(dims):
        raise ValueError(f"got {len(ranks)} ranks for {len(dims)} modes")
    for k, p in zip(ranks, dims):
        if not 1 <= k <= p:
            raise ValueError(f"rank {k} out of range for mode of size {p}")
    return ranks


def mode_covariance(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-d sample covariance ``sum_t X_t^(d) X_t^(d)' / (T p)``.

    ``p`` is the full tensor size ``p_1 * ... * p_D``.  The result is
    symmetric positive semidefinite of shape ``(p_d, p_d)``.
    """
    x = _as_series(x)
    d_count = x.ndim - 1
    if not 0 <= mode < d_count:
        raise ValueError(f"mode {mode} out of range for {d_count}-way data")
    m = _mode_gram(x, x, mode + 1) / x.size
    return (m + m.T) / 2.0


def projected_series(x: np.ndarray, loadings, mode: int,
                     center: bool = False) -> np.ndarray:
    """Project each observation through every other mode's loadings.

    Returns the stack of ``X_t^(d) (A_D kron ... kron A_{d+1} kron
    A_{d-1} kron ... kron A_1) / p_{-d}`` as an array of shape
    ``(T, p_d, k_{-d})``.  The Kronecker matrix is never materialized;
    the product is evaluated by successive mode products.  With
    ``center`` the stack is that of the centred series ``X_t - mean_s
    X_s``, formed by subtracting the projected stack's own temporal mean
    (the projection is linear), so no centred series is built.
    """
    x = _as_series(x)
    d_count = x.ndim - 1
    if not 0 <= mode < d_count:
        raise ValueError(f"mode {mode} out of range for {d_count}-way data")
    loadings = list(loadings)
    if len(loadings) != d_count:
        raise ValueError(f"need {d_count} loading matrices, got {len(loadings)}")
    for d, a in enumerate(loadings):
        if d != mode and a.shape[0] != x.shape[d + 1]:
            raise ValueError(
                f"loading for mode {d} has {a.shape[0]} rows, data has {x.shape[d + 1]}"
            )
    p_other = math.prod(x.shape[1:]) // x.shape[mode + 1]
    k_other = math.prod(a.shape[1] for d, a in enumerate(loadings) if d != mode)
    # per-observation mode-d unfolding of the projected stack, batched:
    # mode d first, then the other modes reversed, so a C-order reshape
    # enumerates them lowest mode fastest (the unfold column convention)
    axes = [0, mode + 1] + [a for a in range(d_count, 0, -1) if a != mode + 1]
    y = np.empty((x.shape[0], x.shape[mode + 1], k_other))
    for (s,) in _pieces(x.shape):  # runs of whole tensors
        z = x[s]
        for d in range(d_count):
            if d != mode:
                z = mode_product(z, loadings[d].T, d + 1)
        z = z.transpose(axes)
        np.divide(z, p_other, out=y[s].reshape(z.shape))
    if center:
        y -= np.add.reduce(y, axis=0) / y.shape[0]  # y.mean(axis=0), one call
    return y


def projected_mode_covariance(x: np.ndarray, loadings, mode: int,
                              center: bool = False) -> np.ndarray:
    """Covariance ``sum_t Y_t Y_t' / (T p_d)`` of the projected series
    (of the centred series with ``center``, see :func:`projected_series`)."""
    y = projected_series(x, loadings, mode, center)
    m = _mode_gram(y, y, 1) / (y.shape[0] * y.shape[1])
    _check_finite([m])
    return (m + m.T) / 2.0


def _check_finite(mats):
    """Raise on non-finite moments: a NaN or inf anywhere in a series
    reaches the diagonal of every Gram matrix built from all of it."""
    if not all(np.isfinite(m).all() for m in mats):
        raise ValueError("the series has non-finite entries (NaN or inf), "
                         "or its moments overflow")


def extract_factors(x: np.ndarray, loadings, center: bool = False) -> np.ndarray:
    """Core tensors ``F_t = X_t x_1 A_1' x_2 ... x_D A_D' / p``.

    With ``center`` they are the cores of ``X_t - mean_s X_s``: the cores'
    own temporal mean is subtracted, so no centred series is built.
    """
    x = _as_series(x)
    loadings = [np.asarray(a) for a in loadings]
    p = math.prod(x.shape[1:])
    modes = list(range(1, x.ndim))
    f = np.empty((x.shape[0],) + tuple(a.shape[1] for a in loadings))
    for (s,) in _pieces(x.shape):  # runs of whole tensors
        np.divide(multi_mode_product(x[s], loadings, modes=modes, transpose=True),
                  p, out=f[s])
    if center:
        f -= np.add.reduce(f, axis=0) / f.shape[0]  # f.mean(axis=0), one call
    return f


def reconstruct_signals(factors: np.ndarray, loadings) -> np.ndarray:
    """Signal tensors ``S_t = F_t x_1 A_1 x_2 ... x_D A_D``."""
    factors = _as_series(factors)
    modes = list(range(1, factors.ndim))
    return multi_mode_product(factors, loadings, modes=modes)


def select_rank_from_eigenvalues(values: np.ndarray, k_max: int) -> int:
    """Index maximizing the consecutive eigenvalue ratio.

    ``values`` must be descending and nonnegative.  The denominator is
    floored at ``RATIO_FLOOR`` times the top eigenvalue so (near-)noiseless
    spectra stay well defined; ties resolve to the smallest index.
    Returns a 1-based rank.
    """
    values = np.asarray(values, dtype=float)
    if not 1 <= k_max <= values.size - 1:
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

    @cached_property
    def eigensystems(self) -> tuple[EigenSystem, ...]:
        """Every mode's full eigensystem of the lag-0 covariance, computed
        on first use and kept."""
        scaled = (g / math.prod(self.shape) for g in self.grams[0])
        systems = tuple(_eigensystems((m + m.T) / 2.0 for m in scaled))
        for es in systems:
            es.values.flags.writeable = es.vectors.flags.writeable = False
        return systems


def series_moments(x, lags=(0,), center: bool = True) -> SeriesMoments:
    """The temporal mean (with ``center``) and every mode's Gram matrix of
    the centred series at each of ``lags`` (>= 0), in one pass.

    Pass it as ``moments=`` to the fits of ``x`` with the same ``center``:
    lag 0 serves the PCA fits and :func:`estimate_ranks`, lags ``1..h0``
    serve iTIPUP.  A fit checks shape, ``center`` and lags; that the
    moments are of the same series is the caller's promise.
    """
    x = _as_series(x)
    lags = tuple(sorted({int(h) for h in lags}))
    if lags and lags[0] < 0:
        raise ValueError(f"lags must be nonnegative, got {lags}")
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
    spectra when ``loadings`` is supplied.
    """
    x = _as_series(x)
    if loadings is None:
        fitted, _ = _pca_loadings(_moments_for(x, moments, center, (0,)),
                                  "auto", k_max)
    else:
        fitted, _ = _loadings_from_spectra(
            x.shape[1:], "auto", k_max,
            lambda: _eigensystems(_projected_covariances(x, loadings, center)),
        )
    return tuple(a.shape[1] for a in fitted)


def _loadings_from_spectra(dims, ranks, k_max, systems_fn):
    """Loadings and raw spectra from one full eigensystem per mode.

    ``systems_fn()`` returns every mode's eigensystem; it is called once,
    after ``ranks`` and ``k_max`` are checked.  With ``ranks="auto"`` each
    rank comes from the ratio rule on the spectrum that yields the
    loadings.  A mode whose top eigenvalue is not positive (a constant or
    single-observation centred series) has no factor directions, so it
    raises whatever the ranks.  Spectra are raw: the ratio rule floors
    rounding-level negatives.
    """
    auto = isinstance(ranks, str)
    if auto:
        if ranks != "auto":
            raise ValueError(f"ranks must be a tuple or 'auto', got {ranks!r}")
        if min(dims) < 2:
            raise ValueError(f"ranks='auto' needs two eigenvalues per mode, but "
                             f"mode {dims.index(1)} of dims {dims} has size 1")
        if k_max is None:
            k_max = min(8, min(dims) - 1)
        if k_max < 1 or any(k_max > p - 1 for p in dims):
            raise ValueError(f"k_max={k_max} out of range for dims {dims}")
    else:
        ranks = _check_ranks(ranks, dims)
    loadings, spectra = [], []
    for d, (p_d, es) in enumerate(zip(dims, systems_fn())):
        if not es.values[0] > 0:
            raise ValueError(f"degenerate spectrum: mode {d} has top "
                             f"eigenvalue {es.values[0]:.3g}")
        spectra.append(es.values)
        k_d = select_rank_from_eigenvalues(es.values, k_max) if auto else ranks[d]
        loadings.append(np.sqrt(p_d) * es.vectors[:, :k_d])
    return loadings, spectra


def _eigensystems(covs):
    return [top_k_eigensystem(c, c.shape[0]) for c in covs]


def _projected_covariances(x, loadings, center):
    return [projected_mode_covariance(x, loadings, d, center)
            for d in range(x.ndim - 1)]


def _pca_loadings(moments, ranks, k_max):
    return _loadings_from_spectra(moments.shape[1:], ranks, k_max,
                                  lambda: moments.eigensystems)


def _check_init(init, dims):
    """``init`` as float matrices, checked before any pass over the series:
    one per mode, with ``p_d`` rows, finite and of full column rank."""
    if init is None:
        return None
    init = [np.asarray(a, dtype=float) for a in init]
    if len(init) != len(dims):
        raise ValueError(f"init has {len(init)} matrices for {len(dims)} modes")
    for d, (a, p_d) in enumerate(zip(init, dims)):
        if a.ndim != 2 or a.shape[0] != p_d or a.shape[1] < 1:
            raise ValueError(f"init for mode {d} has shape {a.shape}; it needs "
                             f"{p_d} rows and at least one column")
        if not np.isfinite(a).all() or np.linalg.matrix_rank(a) < a.shape[1]:
            raise ValueError(f"init for mode {d} is not finite and of full column rank")
    return init


def _projected_start(moments, ranks, init, k_max):
    """The projected fits' start and ranks: ``init`` fixes them under "auto"."""
    if init is None:
        init, _ = _pca_loadings(moments, ranks, k_max)
    elif not isinstance(ranks, str):
        return init, _check_ranks(ranks, moments.shape[1:])
    return init, tuple(a.shape[1] for a in init)


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
    x = _as_series(x)
    moments = _moments_for(x, moments, center, (0,))
    loadings, spectra = _pca_loadings(moments, ranks, k_max)
    return FactorFit(
        loadings=loadings,
        factors=extract_factors(x, loadings, center),
        eigvals=[np.maximum(v, 0.0) for v in spectra],
        iterations=0,
        converged=True,
        per_sweep_distance=[],
        mean=moments.mean,
    )


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
    :func:`ipmopca_fit`.
    """
    x = _as_series(x)
    init = _check_init(init, x.shape[1:])
    moments = _moments_for(x, moments, center, (0,) if init is None else ())
    init, ranks = _projected_start(moments, ranks, init, k_max)
    loadings, spectra = _loadings_from_spectra(
        x.shape[1:], ranks, k_max,
        lambda: _eigensystems(_projected_covariances(x, init, center)),
    )
    dist = max(
        subspace_distance(new, old) for new, old in zip(loadings, init)
    )
    return FactorFit(
        loadings=loadings,
        factors=extract_factors(x, loadings, center),
        eigvals=[np.maximum(v, 0.0) for v in spectra],
        iterations=1,
        converged=True,
        per_sweep_distance=[dist],
        mean=moments.mean,
    )


def iterate_projected_fit(
    x: np.ndarray,
    ranks,
    init,
    cov_fn,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    update_within_sweep: bool = True,
    stop_norm: str = "spectral",
):
    """Shared sweep loop for the iterative projected estimators.

    ``cov_fn(x, loadings, d)`` must return the mode-d covariance of the
    series projected through ``loadings``.  Sweeps run over modes in
    order; with ``update_within_sweep`` the projection for mode d already
    uses this sweep's refreshed loadings for lower modes.  After each full
    sweep the largest per-mode distance between the old and new projectors
    is compared against ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    dims = x.shape[1:]
    current = [np.array(a, dtype=float) for a in init]
    eigvals = [None] * len(dims)
    history: list[float] = []
    converged = False
    sweeps = 0
    for _ in range(max_iter):
        start = [a.copy() for a in current]
        for d, (p_d, k_d) in enumerate(zip(dims, ranks)):
            projector = current if update_within_sweep else start
            es = top_k_eigensystem(cov_fn(x, projector, d), p_d)
            eigvals[d] = np.maximum(es.values, 0.0)
            current[d] = np.sqrt(p_d) * es.vectors[:, :k_d]
        sweeps += 1
        dist = max(
            subspace_distance(new, old, norm=stop_norm)
            for new, old in zip(current, start)
        )
        history.append(dist)
        if dist <= tol:
            converged = True
            break
    return current, eigvals, sweeps, converged, history


def ipmopca_fit(
    x: np.ndarray,
    ranks="auto",
    init=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    update_within_sweep: bool = True,
    center: bool = True,
    k_max: int | None = None,
    stop_norm: str = "spectral",
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
    x = _as_series(x)
    init = _check_init(init, x.shape[1:])
    moments = _moments_for(x, moments, center, (0,) if init is None else ())
    init, ranks = _projected_start(moments, ranks, init, k_max)
    loadings, eigvals, sweeps, converged, history = iterate_projected_fit(
        x,
        ranks,
        init,
        lambda s, lds, d: projected_mode_covariance(s, lds, d, center),
        tol=tol,
        max_iter=max_iter,
        update_within_sweep=update_within_sweep,
        stop_norm=stop_norm,
    )
    return FactorFit(
        loadings=loadings,
        factors=extract_factors(x, loadings, center),
        eigvals=eigvals,
        iterations=sweeps,
        converged=converged,
        per_sweep_distance=history,
        mean=moments.mean,
    )


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
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError("varimax expects a matrix with at least one column")
    if not np.all(np.isfinite(a)):
        raise ValueError("varimax: input contains non-finite entries")
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
