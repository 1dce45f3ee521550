"""Every count, size, mode, rank, lag and seed of the public API takes
integers only (``tensor._integer``): a float, even a whole one, fails by
name before any work, and Python and numpy integers pass."""

import numpy as np
import pytest

from tuckerfactor import (
    EstimatorConfig,
    ExperimentConfig,
    SimConfig,
    estimation,
    fold,
    generate_loadings,
    mode_covariance,
    multi_mode_product,
    projected_series,
    replication_rng,
    select_rank_from_eigenvalues,
    simulate_core_path,
    simulate_noise_path,
    simulation,
    tensor,
    thin_left_singular,
    tipup_mode_matrix,
    top_k_eigensystem,
    unfold,
    varimax,
)
from tuckerfactor.tensor import mode_product

X = np.arange(60.0).reshape(3, 4, 5)
SERIES = np.random.default_rng(3).standard_normal((6, 3, 4, 5))
LOADINGS = [np.ones((p, 1)) for p in SERIES.shape[1:]]
SIM = SimConfig(T=3, dims=(4, 4), ranks=(1, 1))

# (argument, call): each call is valid input with the integer 2
CASES = [
    ("mode", lambda v, rng: unfold(X, v)),
    ("mode", lambda v, rng: mode_product(X, np.ones((2, 5)), v)),
    ("mode", lambda v, rng: fold(np.ones((5, 12)), v, (3, 4, 5))),
    ("shape", lambda v, rng: fold(np.ones((3, 8)), 0, (3, v, 4))),
    ("modes", lambda v, rng: multi_mode_product(X, [np.ones((2, 5))], modes=[v])),
    ("k", lambda v, rng: top_k_eigensystem(np.diag([3.0, 2.0, 1.0]), v)),
    ("k", lambda v, rng: thin_left_singular(np.eye(4, 3), v)),
    ("mode", lambda v, rng: projected_series(SERIES, LOADINGS, v)),
    ("mode", lambda v, rng: mode_covariance(SERIES, v)),
    ("mode", lambda v, rng: tipup_mode_matrix(SERIES, v)),
    ("k_max", lambda v, rng: select_rank_from_eigenvalues([4.0, 3.0, 2.0, 1.0], v)),
    ("max_sweeps", lambda v, rng: varimax(np.eye(4, 2) + 0.5, max_sweeps=v)),
    ("T", lambda v, rng: SimConfig(T=v, dims=(4, 4), ranks=(1, 1))),
    ("dims", lambda v, rng: SimConfig(T=3, dims=(4, v), ranks=(1, 1))),
    ("ranks", lambda v, rng: SimConfig(T=3, dims=(4, 4), ranks=(1, v))),
    ("seed", lambda v, rng: SimConfig(T=3, dims=(4, 4), ranks=(1, 1), seed=v)),
    ("seed", lambda v, rng: replication_rng(v)),
    ("replication", lambda v, rng: replication_rng(0, v)),
    ("p", lambda v, rng: generate_loadings(v, 1, rng)),
    ("k", lambda v, rng: generate_loadings(4, v, rng)),
    ("T", lambda v, rng: simulate_core_path(v, (1, 1), 0.5, rng)),
    ("ranks", lambda v, rng: simulate_core_path(3, (1, v), 0.5, rng)),
    ("T", lambda v, rng: simulate_noise_path(v, (3, 4), 0.5, rng)),
    ("dims", lambda v, rng: simulate_noise_path(3, (3, v), 0.5, rng)),
    ("k_max", lambda v, rng: EstimatorConfig(k_max=v)),
    ("max_iter", lambda v, rng: EstimatorConfig(max_iter=v)),
    ("lags", lambda v, rng: EstimatorConfig(method="itipup", lags=v)),
    ("replications", lambda v, rng: ExperimentConfig(["mopca"], replications=v, sim=SIM)),
]
IDS = [f"{name}-{i}" for i, (name, _) in enumerate(CASES)]


class _NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used before the arguments were checked")


@pytest.fixture
def no_kernels(monkeypatch):
    """Make the contraction kernels and the decompositions fail."""
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran before the arguments were checked")
    for module, name in [(tensor, "mode_product"), (tensor, "_mode_grams"),
                         (tensor, "_mode_gram"), (estimation, "mode_product"),
                         (estimation, "_mode_grams"), (estimation, "_mode_gram"),
                         (simulation, "mode_product"), (np.linalg, "eigh"),
                         (np.linalg, "svd")]:
        monkeypatch.setattr(module, name, kernel)


@pytest.mark.parametrize("value", [1.5, 2.0])
@pytest.mark.parametrize("name, call", CASES, ids=IDS)
def test_non_integers_rejected_before_any_work(no_kernels, name, call, value):
    with pytest.raises(ValueError, match=f"^{name} takes integers only, got {value}"):
        call(value, _NoDraws())


@pytest.mark.parametrize("integer", [np.int64, np.int32, int])
@pytest.mark.parametrize("name, call", CASES, ids=IDS)
def test_integers_accepted(name, call, integer):
    call(integer(2), np.random.default_rng(0))


# (argument, call): a seed or replication keys a SeedSequence, which takes
# non-negative integers only
NEGATIVE = [
    ("seed", lambda v: SimConfig(T=5, dims=(4, 4), ranks=(1, 1), seed=v)),
    ("seed", lambda v: replication_rng(v)),
    ("replication", lambda v: replication_rng(0, v)),
    ("replication", lambda v: simulation.simulate_dataset(SIM, v)),
    ("seed", lambda v: simulation.noiseless_dataset(3, (4, 4), (1, 1), seed=v)),
]


@pytest.mark.parametrize("value", [-1, np.int64(-3)], ids=["int", "int64"])
@pytest.mark.parametrize("name, call", NEGATIVE,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(NEGATIVE)])
def test_negative_seeds_rejected_by_name(no_kernels, name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be non-negative, got {value}$"):
        call(value)
