"""Statistical and determinism checks for the data generator."""

import numpy as np
import pytest

from conftest import needs_vmhwm, run_peak_script
from tuckerfactor import (
    SimConfig,
    generate_loadings,
    kronecker,
    multi_mode_product,
    noiseless_dataset,
    replication_rng,
    scenario_config,
    simulate_core_path,
    simulate_dataset,
    simulate_noise_path,
    tensor,
    vectorize,
)
from tuckerfactor.simulation import _equicorrelation_cholesky
from tuckerfactor.tensor import mode_product


def lag_one_autocorr(path):
    """Entrywise lag-1 sample autocorrelation of a (T, ...) path."""
    t_len = path.shape[0]
    flat = path.reshape(t_len, -1)
    centered = flat - flat.mean(axis=0)
    num = np.sum(centered[:-1] * centered[1:], axis=0)
    den = np.sum(centered * centered, axis=0)
    return num / den


class TestGenerateLoadings:
    def test_scaled_orthonormal(self, rng):
        for p, k in [(5, 5), (10, 3), (7, 1)]:
            a = generate_loadings(p, k, rng)
            assert np.linalg.norm(a.T @ a / p - np.eye(k)) <= 1e-10

    def test_square_case_is_scaled_orthogonal(self, rng):
        a = generate_loadings(6, 6, rng)
        assert np.allclose(a @ a.T, 6 * np.eye(6), atol=1e-8)

    def test_deterministic_given_seed(self):
        a = generate_loadings(8, 3, replication_rng(42, 0))
        b = generate_loadings(8, 3, replication_rng(42, 0))
        assert np.array_equal(a, b)

    def test_too_many_factors(self, rng):
        with pytest.raises(ValueError):
            generate_loadings(3, 4, rng)


class TestCorePath:
    def test_uncorrelated_case(self):
        path = simulate_core_path(2000, (2, 3, 4), 0.0, replication_rng(7, 0))
        r = lag_one_autocorr(path)
        assert np.max(np.abs(r)) < 0.1

    def test_autocorrelation_tracks_phi(self):
        path = simulate_core_path(2000, (2, 3, 4), 0.6, replication_rng(7, 0))
        r = lag_one_autocorr(path)
        assert np.max(np.abs(r - 0.6)) < 0.05

    def test_unit_stationary_variance(self):
        for phi in (0.0, 0.6, 0.9):
            path = simulate_core_path(2000, (2, 3, 4), phi, replication_rng(11, 0))
            var = path.reshape(2000, -1).var(axis=0)
            assert np.max(np.abs(var - 1.0)) < 0.25
            assert abs(var.mean() - 1.0) < 0.1

    def test_invalid_phi(self):
        with pytest.raises(ValueError):
            simulate_core_path(10, (2,), 1.0, replication_rng(0, 0))


class TestNoisePath:
    def test_scalar_modes(self):
        path = simulate_noise_path(50, (1, 1), 0.5, replication_rng(3, 0))
        assert path.shape == (50, 1, 1)

    def test_vectorized_covariance_matches_kronecker(self):
        # innovation covariance at psi=0 must match the explicit Kronecker
        # of the per-mode equicorrelation matrices
        draws = simulate_noise_path(50_000, (2, 2), 0.0, replication_rng(5, 0))
        vecs = np.array([vectorize(u) for u in draws])
        emp = vecs.T @ vecs / len(vecs)
        delta = np.array([[1.0, 0.5], [0.5, 1.0]])
        expected = kronecker(delta, delta)
        assert np.max(np.abs(emp - expected)) < 0.02

    def test_autocorrelation_tracks_psi(self):
        path = simulate_noise_path(2000, (2, 2), 0.8, replication_rng(9, 0))
        r = lag_one_autocorr(path)
        assert np.max(np.abs(r - 0.8)) < 0.05

    def test_stationary_variance_is_unit(self):
        path = simulate_noise_path(4000, (3, 3), 0.8, replication_rng(13, 0))
        var = path.reshape(4000, -1).var(axis=0)
        assert abs(var.mean() - 1.0) < 0.1


    def test_in_place_recursion_matches_reference_loop(self):
        # the recursion runs in place on the innovations; it must give the
        # bits of the plain out-of-place loop
        dims, psi = (4, 3, 5), 0.8
        got = simulate_noise_path(7, dims, psi, replication_rng(17, 2))
        rng = replication_rng(17, 2)

        def innovation(n):
            z = rng.standard_normal((n,) + dims)
            for d, p in enumerate(dims):
                z = mode_product(z, _equicorrelation_cholesky(p), d + 1)
            return z

        scale = np.sqrt(1.0 - psi * psi)
        state = innovation(1)[0]
        innov = innovation(7)
        expected = np.empty_like(innov)
        for t in range(7):
            state = psi * state + scale * innov[t]
            expected[t] = state
        assert got.tobytes() == expected.tobytes()


class TestSimulateDataset:
    def test_series_is_signals_plus_noise_in_draw_order(self):
        # loadings, then cores, then noise come off one stream
        config = scenario_config("IV", T=6, dims=(5, 4, 3), ranks=(2, 2, 1), seed=8)
        series, truth = simulate_dataset(config, replication=1)
        rng = replication_rng(8, 1)
        loadings = [generate_loadings(p, k, rng) for p, k in zip((5, 4, 3), (2, 2, 1))]
        cores = simulate_core_path(6, (2, 2, 1), 0.6, rng)
        noise = simulate_noise_path(6, (5, 4, 3), 0.8, rng)
        for a, b in zip(loadings, truth.loadings):
            assert a.tobytes() == b.tobytes()
        assert cores.tobytes() == truth.cores.tobytes()
        assert series.tobytes() == (truth.signals + noise).tobytes()

    def test_shapes_and_bookkeeping(self):
        config = SimConfig(T=12, dims=(5, 6, 4), ranks=(2, 2, 2), phi=0.6,
                           psi=0.8, seed=21)
        series, truth = simulate_dataset(config, replication=3)
        assert series.shape == (12, 5, 6, 4)
        assert truth.cores.shape == (12, 2, 2, 2)
        assert truth.signals.shape == series.shape
        rebuilt = truth.cores
        for d, a in enumerate(truth.loadings):
            rebuilt = np.moveaxis(np.tensordot(a, rebuilt, axes=(1, d + 1)), 0, d + 1)
        assert np.allclose(truth.signals, rebuilt, atol=1e-12)
        noise = series - truth.signals
        assert 0.5 < noise.var() < 2.0

    def test_deterministic_given_seed_and_replication(self):
        config = SimConfig(T=6, dims=(4, 4), ranks=(2, 2), seed=5)
        a, _ = simulate_dataset(config, 2)
        b, _ = simulate_dataset(config, 2)
        c, _ = simulate_dataset(config, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_loadings_orthonormality(self):
        config = scenario_config("II", T=8, dims=(6, 7, 5), ranks=(2, 3, 2), seed=1)
        _, truth = simulate_dataset(config)
        for a in truth.loadings:
            p, k = a.shape
            assert np.linalg.norm(a.T @ a / p - np.eye(k)) <= 1e-8

    def test_scenario_parameters(self):
        assert scenario_config("I", 10, (4, 4), ranks=(2, 2)).phi == 0.0
        cfg = scenario_config("IV", 10, (4, 4), ranks=(2, 2))
        assert (cfg.phi, cfg.psi) == (0.6, 0.8)
        with pytest.raises(ValueError):
            scenario_config("V", 10, (4, 4), ranks=(2, 2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(T=0, dims=(4,), ranks=(1,))
        with pytest.raises(ValueError):
            SimConfig(T=5, dims=(4,), ranks=(5,))
        with pytest.raises(ValueError):
            SimConfig(T=5, dims=(4,), ranks=(1,), phi=1.0)

    def test_noiseless_fixture(self):
        series, truth = noiseless_dataset(T=5, dims=(6, 7), ranks=(2, 2), seed=9)
        assert np.array_equal(series, truth.signals)


def whole_array_dataset(config, replication):
    """Reference for :func:`simulate_dataset` with every step on the whole
    array: all T innovations coloured at once, the signals formed at once."""
    rng = replication_rng(config.seed, replication)
    loadings = [generate_loadings(p, k, rng) for p, k in zip(config.dims, config.ranks)]
    cores = simulate_core_path(config.T, config.ranks, config.phi, rng)

    def innovation(n):
        z = rng.standard_normal((n,) + config.dims)
        for d, p in enumerate(config.dims):
            z = mode_product(z, _equicorrelation_cholesky(p), d + 1)
        return z

    scale = np.sqrt(1.0 - config.psi * config.psi)
    state = innovation(1)[0]
    innov = innovation(config.T)
    noise = np.empty_like(innov)
    for t in range(config.T):
        state = config.psi * state + scale * innov[t]
        noise[t] = state
    signals = multi_mode_product(cores, loadings, modes=range(1, cores.ndim))
    return noise + signals, signals


class TestChunkedAssembly:
    @pytest.mark.parametrize("name, dims", [
        ("IV", (5, 4, 3)), ("II", (4, 3, 5, 2)), ("III", (6, 7, 2)),
        ("IV", (11, 4, 3)), ("II", (7, 5)),
    ])
    @pytest.mark.parametrize("per_chunk", [1, 3, None, 1 / 2, 1 / 3])
    def test_matches_whole_array_reference(self, monkeypatch, name, dims, per_chunk):
        # chunks of 1 or 3 whole tensors make T=11 span several chunks with
        # a ragged last one; None keeps the default budget (one chunk); a
        # half or a third of a tensor cuts every tensor into windows, the
        # last one ragged (of 2 slabs for the 11 rows of (11, 4, 3))
        if per_chunk is not None:
            monkeypatch.setattr(tensor, "_CHUNK_ELEMS",
                                int(per_chunk * int(np.prod(dims))))
        config = scenario_config(name, T=11, dims=dims, ranks=(2,) * len(dims), seed=6)
        series, truth = simulate_dataset(config, replication=2)
        ref_series, ref_signals = whole_array_dataset(config, 2)
        assert series.tobytes() == ref_series.tobytes()
        assert truth.signals.tobytes() == ref_signals.tobytes()

    def test_truth_signals_built_on_first_access(self):
        config = scenario_config("II", T=5, dims=(4, 3, 2), ranks=(2, 2, 1), seed=4)
        series, truth = simulate_dataset(config)
        assert "signals" not in vars(truth)
        signals = truth.signals
        assert truth.signals is signals
        assert signals.shape == series.shape


_SIMULATE_PEAK_SCRIPT = """
from tuckerfactor import scenario_config, simulate_dataset

simulate_dataset(scenario_config("IV", 2, (8, 8, 8)))
before = peak_kib()
series, _ = simulate_dataset(scenario_config("IV", 32, (64, 64, 32)))
print((peak_kib() - before) * 1024 / series.nbytes)
"""


@needs_vmhwm
def test_simulate_holds_the_series_once():
    # peak RSS growth of a fresh process simulating a 32 MiB series; a
    # simulator holding a second full-size array (innovations plus their
    # coloured copy, or series plus signals) grows by about twice that
    assert float(run_peak_script(_SIMULATE_PEAK_SCRIPT)) < 1.5


_SIMULATE_LARGE_TENSOR_PEAK_SCRIPT = """
from tuckerfactor import scenario_config, simulate_dataset

simulate_dataset(scenario_config("IV", 2, (8, 8, 8)))
before = peak_kib()
series, _ = simulate_dataset(scenario_config("IV", 4, (128, 128, 128)))
print((peak_kib() - before) * 1024 / series.nbytes)
"""


@needs_vmhwm
def test_simulate_holds_a_few_windows_of_a_large_tensor():
    # four 16 MiB tensors, each 8 times the piece budget: besides the
    # 64 MiB series only the pre-sample state (a quarter of it) and a few
    # windows; whole-tensor temporaries would add about three tensors
    assert float(run_peak_script(_SIMULATE_LARGE_TENSOR_PEAK_SCRIPT)) <= 1.4
