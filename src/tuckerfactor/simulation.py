"""Synthetic data generator for the tensor factor model study design.

The generator draws scaled-orthonormal loadings, an AR(1) core-tensor
path with unit stationary variance, and AR(1) noise whose innovation
covariance is a Kronecker product of per-mode equicorrelation matrices.
Four named scenarios cover the combinations of serially correlated /
uncorrelated factors (phi) and noise (psi).

Reproducibility: streams come from numpy's PCG64 generator seeded through
``SeedSequence(seed, spawn_key=(replication,))``, so replication r is a
deterministic function of ``(seed, r)`` and independent of how many other
replications run.  Within one dataset the draw order is fixed: loadings
mode by mode, then the core path, then the noise path.

Memory: the noise path is drawn run by run into the array that becomes
the series; under the moment pass's rule (``tensor._second_thread``) a
second thread draws while the caller colours the runs drawn.  It is
coloured, run through the AR(1) recursion and given its signals in place,
one tensor window at a time (``tensor._pieces``), so a dataset holds its
series once plus the pre-sample state tensor and a few temporaries, each
a window of one tensor (of at most ``tensor._CHUNK_ELEMS`` elements for a
larger tensor).  ``SimTruth.signals`` is built on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .estimation import reconstruct_signals
from .spectral import thin_left_singular
from .tensor import _integer, _pieces, _second_thread, mode_product

# (phi, psi) per scenario: factor / noise AR(1) coefficients
SCENARIOS = {
    "I": (0.0, 0.0),
    "II": (0.6, 0.0),
    "III": (0.0, 0.8),
    "IV": (0.6, 0.8),
}

DEFAULT_RANKS = (2, 3, 4)


@dataclass
class SimConfig:
    """Parameters of one simulated dataset (or a family of replications); ``T``,
    ``seed`` (at least 0) and the entries of ``dims`` and ``ranks`` take integers only."""

    T: int
    dims: tuple[int, ...]
    ranks: tuple[int, ...]
    phi: float = 0.0
    psi: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.T, self.seed = _integer(self.T, "T"), _stream_key(self.seed, "seed")
        self.dims = tuple(_integer(p, "dims") for p in self.dims)
        self.ranks = tuple(_integer(k, "ranks") for k in self.ranks)
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if len(self.ranks) != len(self.dims):
            raise ValueError("ranks and dims must have equal length")
        if any(k > p or k < 1 for k, p in zip(self.ranks, self.dims)):
            raise ValueError(f"ranks {self.ranks} incompatible with dims {self.dims}")
        if not (abs(self.phi) < 1 and abs(self.psi) < 1):
            raise ValueError("AR coefficients must lie in (-1, 1)")


@dataclass
class SimTruth:
    """Ground truth emitted alongside a simulated dataset.

    ``signals``, the noise-free series ``F_t x_1 A_1 ... x_D A_D``, is
    computed from the cores and loadings on first access and kept.
    """

    loadings: list[np.ndarray]
    cores: np.ndarray

    @cached_property
    def signals(self) -> np.ndarray:
        return reconstruct_signals(self.cores, self.loadings)


def scenario_config(name: str, T: int, dims, ranks=DEFAULT_RANKS,
                    seed: int = 0) -> SimConfig:
    """SimConfig for one of the named scenarios I-IV."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    phi, psi = SCENARIOS[name]
    return SimConfig(T=T, dims=tuple(dims), ranks=tuple(ranks), phi=phi,
                     psi=psi, seed=seed)


def _stream_key(value, name) -> int:
    """``value`` as an int if a non-negative integer, else a ValueError naming ``name``."""
    if (value := _integer(value, name)) < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def replication_rng(seed: int, replication: int = 0) -> np.random.Generator:
    """Independent PCG64 stream for one replication."""
    return np.random.default_rng(np.random.SeedSequence(
        _stream_key(seed, "seed"), spawn_key=(_stream_key(replication, "replication"),)))


def generate_loadings(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Loading matrix: sqrt(p) times the first k left singular vectors of
    a standard-normal p-by-k draw, so ``A.T @ A = p * I`` by construction."""
    if _integer(k, "k") > _integer(p, "p"):
        raise ValueError(f"cannot draw {k} factors for a mode of size {p}")
    g = rng.standard_normal((p, k))
    return np.sqrt(p) * thin_left_singular(g, k)


def simulate_core_path(T: int, ranks, phi: float,
                       rng: np.random.Generator) -> np.ndarray:
    """AR(1) core tensors with unit stationary variance.

    ``F_t = phi * F_{t-1} + sqrt(1 - phi^2) * V_t`` with standard-normal
    innovations; the pre-sample state is drawn from the stationary law, so
    every element of the returned path is marginally N(0, 1).
    """
    if not abs(phi) < 1:
        raise ValueError("phi must lie in (-1, 1)")
    T, ranks = _integer(T, "T"), tuple(_integer(k, "ranks") for k in ranks)
    scale = np.sqrt(1.0 - phi * phi)
    state = rng.standard_normal(ranks)
    out = np.empty((T,) + ranks)
    for t in range(T):
        state = phi * state + scale * rng.standard_normal(ranks)
        out[t] = state
    return out


def _equicorrelation_cholesky(p: int) -> np.ndarray:
    """Cholesky factor of the unit-diagonal matrix with off-diagonals 1/p."""
    delta = (1.0 - 1.0 / p) * np.eye(p) + np.full((p, p), 1.0 / p)
    return np.linalg.cholesky(delta)


def simulate_noise_path(T: int, dims, psi: float,
                        rng: np.random.Generator) -> np.ndarray:
    """AR(1) noise with Kronecker-structured innovation covariance.

    Innovations are standard-normal tensors colored per mode by the
    Cholesky factor of the equicorrelation matrix, which makes the
    vectorized covariance the Kronecker product of the per-mode matrices.
    The pre-sample state is a stationary draw.  Under the moment pass's
    rule (``tensor._second_thread``) the innovations are drawn run by run
    in a second thread while the caller colours the runs already drawn.
    """
    if not abs(psi) < 1:
        raise ValueError("psi must lie in (-1, 1)")
    T, dims = _integer(T, "T"), tuple(_integer(p, "dims") for p in dims)
    chol = [_equicorrelation_cholesky(p) for p in dims]
    scale = np.sqrt(1.0 - psi * psi)
    state, out = np.empty((1,) + dims), np.empty((T,) + dims)
    runs = [state] + [out[s] for s in _pieces(out.shape)]
    windows = [s[1:] for s in _pieces(state.shape, 1)]  # of one tensor
    previous = state[0]
    with _second_thread(out) as submit:
        # the worker calls numpy alone and allocates nothing (see _mode_grams)
        drawn = [submit(rng.standard_normal, out=z) for z in runs]
        for z, draw in zip(runs, drawn):
            draw.result()
            # mode 1 first, as on the whole array: on pieces that hold whole
            # mode-1 fibres, then the other modes on pieces along the first axis
            for axis, first, stop in ((2, 0, 1), (1, 1, len(dims))):
                for s in _pieces(z.shape, axis):
                    c = z[s]
                    for d in range(first, stop):
                        c = mode_product(c, chol[d], d + 1)
                    z[s] = c
            # in place on the innovations; IEEE addition commutes, so bits are kept
            for tensor in z if z is not state else ():
                for w in windows:
                    piece = tensor[w]
                    piece *= scale
                    piece += psi * previous[w]
                previous = tensor
    return out


def _truth(config: SimConfig, replication: int):
    """The truth of ``config``'s dataset ``replication`` (its loadings mode by
    mode, then its core path), and the stream that goes on to draw its noise."""
    rng = replication_rng(config.seed, replication)
    loadings = [generate_loadings(p, k, rng) for p, k in zip(config.dims, config.ranks)]
    cores = simulate_core_path(config.T, config.ranks, config.phi, rng)
    return SimTruth(loadings, cores), rng


def simulate_dataset(config: SimConfig, replication: int = 0):
    """One dataset draw: returns ``(series, truth)``.

    ``series`` has shape ``(T, p_1, ..., p_D)`` and equals the signal part
    plus the noise path; ``truth`` carries the loadings, cores and signals
    used to build it.
    """
    truth, rng = _truth(config, replication)
    # the signals draw no random numbers, so forming them after the noise
    # keeps the draw order and lets the noise array become the series
    series = simulate_noise_path(config.T, config.dims, config.psi, rng)
    for s in _pieces(series.shape, 1):
        # a window along the first axis takes its rows of the mode-1 loadings
        rows = [a[w] for a, w in zip(truth.loadings, s[1:])] + truth.loadings[len(s) - 1:]
        series[s] += reconstruct_signals(truth.cores[s[0]], rows)
    return series, truth


def noiseless_dataset(T: int, dims, ranks, seed: int = 0, phi: float = 0.0):
    """Noise-free fixture: signal tensors only, with their truth.

    The arguments are checked as :class:`SimConfig`'s, and the truth is that of
    ``simulate_dataset(SimConfig(T, dims, ranks, phi, seed=seed))``.  The returned
    series is ``truth.signals`` itself, not a copy: useful for exact recovery.
    """
    truth = _truth(SimConfig(T, dims, ranks, phi, seed=seed), 0)[0]
    return truth.signals, truth
