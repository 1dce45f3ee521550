"""Tests for the shared moment pass: ``series_moments`` and ``moments=``."""

import dataclasses

import numpy as np
import pytest

from tuckerfactor import (
    EstimatorConfig,
    ExperimentConfig,
    SeriesMoments,
    estimate_ranks,
    estimate_ranks_tipup,
    estimation,
    ipmopca_fit,
    itipup_fit,
    mopca_fit,
    pmopca_fit,
    run_experiment,
    scenario_config,
    series_moments,
    simulate_dataset,
    tensor,
)
from tuckerfactor.experiment import _evaluate

METHODS = ("mopca", "pmopca", "ipmopca", "itipup")
SHAPES = [(13, (6, 5, 4)), (9, (4, 3, 5, 3))]


def fit_bytes(fit):
    return ([a.tobytes() for a in fit.loadings], fit.factors.tobytes(),
            [v.tobytes() for v in fit.eigvals], fit.iterations, fit.converged,
            fit.per_sweep_distance, None if fit.mean is None else fit.mean.tobytes())


def counting(calls, original):
    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    return counted


def run_fit(method, x, center, h0, **kwargs):
    options = {"center": center, "k_max": 2, **kwargs}
    if method == "itipup":
        return itipup_fit(x, h0=h0, max_iter=5, **options)
    if method == "ipmopca":
        return ipmopca_fit(x, max_iter=5, **options)
    return {"mopca": mopca_fit, "pmopca": pmopca_fit}[method](x, **options)


@pytest.mark.parametrize("per_chunk", [1, 3, None])
@pytest.mark.parametrize("h0", [1, 2])
@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("t_len, dims", SHAPES)
@pytest.mark.parametrize("method", METHODS)
def test_fit_with_shared_moments_is_bitwise_its_own(monkeypatch, method, t_len, dims,
                                                    center, h0, per_chunk):
    # the moments of a replication hold lag 0 and lags 1..h0 from one pass;
    # each fit reads the lags it needs and gets the bits of its own pass
    x, _ = simulate_dataset(scenario_config("II", t_len, dims, (2,) * len(dims),
                                            seed=t_len + h0))
    if per_chunk is not None:  # several chunks, the last one ragged
        monkeypatch.setattr(tensor, "_CHUNK_ELEMS", per_chunk * x[0].size)
    shared = series_moments(x, range(h0 + 1), center)
    own = run_fit(method, x, center, h0)
    assert fit_bytes(run_fit(method, x, center, h0, moments=shared)) == fit_bytes(own)


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("per_tensor", [1 / 2, 1 / 3])
@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("t_len, dims", SHAPES)
@pytest.mark.parametrize("method", METHODS)
def test_fit_at_a_sub_tensor_budget_matches_the_default(monkeypatch, method, t_len,
                                                        dims, center, per_tensor):
    # windows of a half or a third of a tensor in the moment pass and the
    # simulator; the projections take one tensor at a time
    config = scenario_config("II", t_len, dims, (2,) * len(dims), seed=t_len)
    x, _ = simulate_dataset(config)
    want = run_fit(method, x, center, 2)
    monkeypatch.setattr(tensor, "_CHUNK_ELEMS", int(per_tensor * x[0].size))
    x_windowed, _ = simulate_dataset(config)
    assert x_windowed.tobytes() == x.tobytes()
    got = run_fit(method, x, center, 2)
    assert got.ranks == want.ranks
    assert got.iterations == want.iterations
    for a, b in zip(got.loadings + got.eigvals + [got.factors],
                    want.loadings + want.eigvals + [want.factors]):
        assert relative_error(a, b) <= 1e-12
    if center:
        assert got.mean.tobytes() == want.mean.tobytes()


@pytest.mark.parametrize("ranks", ["auto", (2, 3, 2)])
def test_run_experiment_matches_the_per_fit_path(tmp_path, ranks):
    sim = scenario_config("IV", 14, (7, 6, 5), (2, 3, 2), seed=3)
    estimators = {m: EstimatorConfig(method=m, ranks=ranks, k_max=4, lags=2)
                  for m in METHODS}
    estimators["pmopca"] = EstimatorConfig(method="pmopca", ranks=ranks,
                                           center=False)
    config = ExperimentConfig(methods=list(METHODS), replications=2,
                              out_dir=str(tmp_path), sim=sim, estimators=estimators)
    fields = ("distances", "rmse", "accuracy", "reconstruction", "ranks_estimated",
              "error")
    for report in run_experiment(config):
        series, truth = simulate_dataset(sim, report.replication)
        alone, _ = _evaluate(report.method, report.replication, series, truth,
                             estimators[report.method])
        for name in fields:
            assert getattr(report, name) == getattr(alone, name), name


@pytest.mark.parametrize("ranks", ["auto", (2, 3, 4)])
def test_one_moment_pass_per_replication(tmp_path, monkeypatch, ranks):
    passes, eighs = [], []
    monkeypatch.setattr(estimation, "_mode_grams",
                        counting(passes, estimation._mode_grams))
    monkeypatch.setattr(estimation, "top_k_eigensystem",
                        counting(eighs, estimation.top_k_eigensystem))
    config = ExperimentConfig(
        methods=list(METHODS), replications=1, out_dir=str(tmp_path),
        sim=scenario_config("II", 12, (8, 7, 6), (2, 3, 4), seed=1),
        estimators={m: EstimatorConfig(method=m, ranks=ranks, lags=2)
                    for m in METHODS})
    reports = run_experiment(config)
    counts = len(passes), len(eighs)
    assert all(r.error is None for r in reports)
    assert counts[0] == 1
    assert passes[0][2] == (0, 1, 2)  # the lags of every method at once
    # the three PCA fits (and their explicit-rank selection) share one
    # eigensystem per mode; every other eigh is a projected or lagged one
    series, _ = simulate_dataset(config.sim, 0)
    sweeps = (ipmopca_fit(series, ranks).iterations
              + itipup_fit(series, ranks, h0=2).iterations)
    itipup_selection = 0 if ranks == "auto" else 1
    assert counts[1] == 3 * (1 + 1 + 1 + sweeps + itipup_selection)


def test_projected_starts_reuse_the_mode_wise_eigensystems(monkeypatch):
    x, _ = simulate_dataset(scenario_config("II", 10, (6, 5, 4), (2, 2, 2)))
    moments = series_moments(x)
    mopca_fit(x, moments=moments)
    eighs = []
    monkeypatch.setattr(estimation, "top_k_eigensystem",
                        counting(eighs, estimation.top_k_eigensystem))
    pmopca_fit(x, moments=moments)
    estimate_ranks(x, center=True, moments=moments)
    assert len(eighs) == 3  # pmopca's projected covariances only


class TestMismatchedMoments:
    @pytest.fixture
    def x(self):
        return simulate_dataset(scenario_config("II", 8, (5, 4, 3), (2, 2, 2)))[0]

    @pytest.mark.parametrize("fit", [
        lambda x, m: mopca_fit(x, moments=m),
        lambda x, m: pmopca_fit(x, moments=m),
        lambda x, m: ipmopca_fit(x, moments=m),
        lambda x, m: itipup_fit(x, moments=m),
        lambda x, m: estimate_ranks(x, center=True, moments=m),
        lambda x, m: estimate_ranks_tipup(x, center=True, moments=m),
    ])
    def test_rejected(self, x, fit):
        for moments in (series_moments(x[:-1], (0, 1)),       # wrong shape
                        series_moments(x, (0, 1), center=False),  # wrong center
                        series_moments(x, ())):                # missing lag
            with pytest.raises(ValueError, match="moments"):
                fit(x, moments)

    def test_itipup_needs_every_lag(self, x):
        with pytest.raises(ValueError, match="lags"):
            itipup_fit(x, h0=2, moments=series_moments(x, (0, 1)))

    def test_negative_lag_rejected(self, x):
        with pytest.raises(ValueError, match="nonnegative"):
            series_moments(x, (-1, 0))


class TestSeriesMoments:
    def test_contents(self, rng):
        x = rng.standard_normal((7, 4, 3)) + 2.0
        moments = series_moments(x, [2, 0, 2])
        z = x - x.mean(axis=0)
        assert moments.shape == x.shape and moments.center
        assert moments.lags == (0, 2) and set(moments.grams) == {0, 2}
        assert np.allclose(moments.mean, x.mean(axis=0), rtol=1e-14, atol=0)
        for axis in (1, 2):
            want = tensor._mode_gram(z[:-2], z[2:], axis)
            assert np.allclose(moments.grams[2][axis - 1], want, rtol=1e-12)
        assert series_moments(x, (), center=False).grams == {}

    def test_eigensystems_built_once(self, rng, monkeypatch):
        moments = series_moments(rng.standard_normal((6, 4, 3)))
        eighs = []
        monkeypatch.setattr(estimation, "top_k_eigensystem",
                            counting(eighs, estimation.top_k_eigensystem))
        assert moments.eigensystems is moments.eigensystems
        assert len(eighs) == 2
        assert [es.values.size for es in moments.eigensystems] == [4, 3]

    def test_read_only(self, rng):
        moments = series_moments(rng.standard_normal((6, 4, 3)), (0, 1))
        arrays = [moments.mean, *moments.grams[0], *moments.grams[1]]
        arrays += [a for es in moments.eigensystems for a in (es.values, es.vectors)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            moments.center = False
        assert isinstance(moments, SeriesMoments)
