"""Tests for the replication harness and its CSV output."""

import csv
import statistics
import time

import numpy as np
import pytest

from conftest import BLAS_ENVS, needs_vmhwm, run_peak_script
from tuckerfactor import (
    EstimatorConfig,
    ExperimentConfig,
    FactorFit,
    SimConfig,
    ipmopca_fit,
    mopca_fit,
    parse_experiment_config,
    reconstruction_error,
    run_experiment,
    scenario_config,
    series_moments,
    signal_rmse,
    simulate_dataset,
    tensor,
    write_tensor_series,
)
from tuckerfactor import experiment
from tuckerfactor.experiment import CSV_COLUMNS, METHODS, _evaluate
from tuckerfactor.simulation import SimTruth


def small_config(tmp_path, methods=("mopca", "ipmopca"), reps=3, ranks=(2, 2, 2)):
    return ExperimentConfig(
        methods=list(methods),
        replications=reps,
        out_dir=str(tmp_path / "out"),
        sim=SimConfig(T=15, dims=(8, 8, 8), ranks=(2, 2, 2), phi=0.0,
                      psi=0.0, seed=17),
        estimators={m: EstimatorConfig(method=m, ranks=ranks, k_max=4)
                    for m in methods},
    )


def read_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestRunExperiment:
    def test_row_structure_and_schema(self, tmp_path):
        config = small_config(tmp_path)
        reports = run_experiment(config)
        assert len(reports) == 3 * 2
        header, rows = read_rows(tmp_path / "out" / "results.csv")
        assert header == CSV_COLUMNS
        per_rep = [r for r in rows if r[0] not in ("mean", "sd")]
        assert len(per_rep) == 3 * 2 * 3  # reps x methods x modes
        aggregates = [r for r in rows if r[0] in ("mean", "sd")]
        assert len(aggregates) == 2 * 3 * 2  # methods x modes x {mean, sd}

    def test_metrics_are_populated(self, tmp_path):
        config = small_config(tmp_path, methods=("mopca",), reps=2)
        reports = run_experiment(config)
        for rep in reports:
            assert rep.error is None
            assert len(rep.distances) == 3
            assert all(0 <= d <= 1 for d in rep.distances)
            assert rep.rmse > 0
            assert rep.accuracy == 100.0
            assert 0 < rep.reconstruction < 1
            assert rep.seconds > 0

    def test_deterministic_apart_from_timing(self, tmp_path):
        config_a = small_config(tmp_path / "a")
        config_b = small_config(tmp_path / "b")
        run_experiment(config_a)
        run_experiment(config_b)
        _, rows_a = read_rows(tmp_path / "a" / "out" / "results.csv")
        _, rows_b = read_rows(tmp_path / "b" / "out" / "results.csv")
        strip = lambda rows: [r[:-1] for r in rows]  # noqa: E731
        assert strip(rows_a) == strip(rows_b)

    def test_plain_fit_faster_than_iterative(self, tmp_path):
        # the fits' own work on each replication's series: the moment pass
        # that they share is built outside both timers
        config = small_config(tmp_path, methods=("mopca", "ipmopca"), reps=3)
        for rep in range(config.replications):
            series, _ = simulate_dataset(config.sim, rep)
            moments = series_moments(series, (0,))
            timings = {}
            for fit in (mopca_fit, ipmopca_fit):
                seconds = []
                for _ in range(5):
                    start = time.perf_counter()
                    fit(series, (2, 2, 2), moments=moments)
                    seconds.append(time.perf_counter() - start)
                timings[fit] = statistics.median(seconds)
            assert timings[mopca_fit] < timings[ipmopca_fit]

    def test_failed_method_logs_row_and_continues(self, tmp_path):
        config = small_config(tmp_path, methods=("mopca", "itipup"), reps=2)
        # h0 >= T makes the baseline fail while mopca still succeeds
        config.estimators["itipup"].lags = 40
        reports = run_experiment(config)
        ok = [r for r in reports if r.error is None]
        failed = [r for r in reports if r.error is not None]
        assert len(ok) == 2 and len(failed) == 2
        _, rows = read_rows(tmp_path / "out" / "results.csv")
        error_rows = [r for r in rows if r[1] == "itipup" and r[0] not in ("mean", "sd")]
        assert len(error_rows) == 2
        for row in error_rows:
            assert row[2] == ""  # no mode, metrics empty
            assert row[3] == "" and row[4] == ""

    def test_k_max_out_of_range_fails_before_the_fit(self, tmp_path, monkeypatch):
        # explicit ranks: k_max serves only the rank selection after the fit
        def fit(*args, **kwargs):
            raise AssertionError("the fit ran")
        monkeypatch.setattr(experiment, "mopca_fit", fit)
        config = small_config(tmp_path, methods=("mopca",), reps=1)
        config.estimators["mopca"].k_max = 9
        [report] = run_experiment(config)
        assert report.error == "k_max=9 out of range for dims (8, 8, 8)"

    def test_file_input_without_truth(self, tmp_path, rng):
        data = rng.standard_normal((10, 5, 5))
        path = tmp_path / "input.tnsf"
        write_tensor_series(path, data)
        config = ExperimentConfig(
            methods=["mopca"],
            replications=1,
            out_dir=str(tmp_path / "out"),
            input_path=str(path),
            estimators={"mopca": EstimatorConfig(ranks=(2, 2), k_max=3)},
        )
        reports = run_experiment(config)
        assert reports[0].distances is None
        assert reports[0].accuracy is None
        assert 0 < reports[0].reconstruction < 1

    def test_emit_loadings(self, tmp_path):
        config = small_config(tmp_path, methods=("mopca",), reps=1)
        config.emit_loadings = True
        config.apply_varimax = True
        run_experiment(config)
        files = sorted((tmp_path / "out" / "loadings").iterdir())
        assert [f.name for f in files] == [
            "rep000_mopca_A1.csv",
            "rep000_mopca_A2.csv",
            "rep000_mopca_A3.csv",
        ]
        mat = np.loadtxt(files[0], delimiter=",")
        assert mat.shape == (8, 2)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=[], sim=SimConfig(T=2, dims=(2,), ranks=(1,)))
        with pytest.raises(ValueError):
            ExperimentConfig(methods=["mopca"])  # neither sim nor input


class TestStreamingEvaluation:
    """``_evaluate`` accumulates RE and RMSE over chunks of whole tensors and
    gets the bits of the whole-array metrics."""

    @pytest.mark.parametrize("per_chunk", [1, 3, None])
    @pytest.mark.parametrize("method, ranks", [
        ("mopca", "auto"), ("ipmopca", (2, 2, 2)), ("itipup", "auto")])
    def test_metrics_match_whole_array(self, monkeypatch, per_chunk, method, ranks):
        series, truth = simulate_dataset(scenario_config("IV", 11, (6, 5, 4),
                                                         (2, 2, 2), seed=8))
        if per_chunk is not None:  # T=11 spans several chunks, the last ragged
            monkeypatch.setattr(tensor, "_CHUNK_ELEMS", per_chunk * series[0].size)
        cfg = EstimatorConfig(method=method, ranks=ranks, k_max=3)
        report, fit = _evaluate(method, 0, series, truth, cfg)
        signals = fit.signals + fit.mean
        assert report.reconstruction == reconstruction_error(series, signals)
        assert report.rmse == signal_rmse(signals, truth.signals)

    def test_reads_no_whole_signal_array(self, monkeypatch):
        # the metrics take the signals piece by piece, so neither cached
        # whole-array property is read
        def whole(self):
            raise AssertionError("whole signal array built")

        monkeypatch.setattr(FactorFit, "signals", property(whole))
        monkeypatch.setattr(SimTruth, "signals", property(whole))
        series, truth = simulate_dataset(scenario_config("II", 9, (5, 4, 3),
                                                         (2, 2, 2), seed=3))
        for method in METHODS:
            cfg = EstimatorConfig(method=method, k_max=2)
            report, _ = _evaluate(method, 0, series, truth, cfg)
            assert report.error is None and report.rmse is not None

    def test_methods_share_a_one_run_truth(self, monkeypatch, tmp_path):
        # the methods of a replication take its one run of true signals from
        # the first, so it is built once a replication, not once a method
        built, reconstruct = [], experiment.reconstruct_signals
        monkeypatch.setattr(experiment, "reconstruct_signals",
                            lambda *args: built.append(1) or reconstruct(*args))
        run_experiment(small_config(tmp_path, methods=list(METHODS), reps=2))
        assert len(built) == 2

    def test_without_centring_or_truth(self):
        series, _ = simulate_dataset(scenario_config("II", 9, (5, 4, 3), (2, 2, 2)))
        cfg = EstimatorConfig(ranks=(2, 2, 2), center=False)
        report, fit = _evaluate("mopca", 0, series, None, cfg)
        assert report.reconstruction == reconstruction_error(series, fit.signals)
        assert report.rmse is None and report.distances is None


_REPLICATION_PEAK_SCRIPT = """
import sys
import tuckerfactor as tf

methods = sys.argv[2].split(",")

def config(T, dims):
    return tf.ExperimentConfig(
        methods=methods, replications=1, out_dir=sys.argv[1],
        sim=tf.scenario_config("II", T, dims, (2, 3, 4)),
        estimators={m: tf.EstimatorConfig(method=m) for m in methods})

tf.run_experiment(config(4, (8, 8, 8)))  # loads the BLAS and LAPACK paths
before = peak_kib()
tf.run_experiment(config(32, (64, 64, 32)))
print((peak_kib() - before) * 1024 / (32 * 64 * 64 * 32 * 8))
"""


@needs_vmhwm
@BLAS_ENVS
@pytest.mark.parametrize("methods", ["mopca", "mopca,pmopca"])
def test_replication_peak(tmp_path, methods, blas_env):
    # peak RSS growth of a fresh process running one replication on a 32 MiB
    # simulated series: the series plus chunk-sized temporaries; a whole
    # fitted or true signal array, or any other full-size copy, adds one
    # more series
    growth = float(run_peak_script(_REPLICATION_PEAK_SCRIPT, tmp_path, methods,
                                   env=blas_env))
    assert growth <= 1.5


class TestConfigParsing:
    def test_full_round_trip(self, tmp_path):
        text = """
[experiment]
methods = mopca, itipup
replications = 4
seed = 9
out = RESULTS
emit_loadings = true
varimax = true

[simulation]
T = 12
dims = 6, 6, 6
ranks = 2, 2, 2
scenario = II

[estimator]
ranks = auto
kmax = 3
tol = 1e-5
max_iter = 7
center = false

[estimator.itipup]
lags = 2
ranks = 2,2,2
"""
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        config = parse_experiment_config(path)
        assert config.methods == ["mopca", "itipup"]
        assert config.replications == 4
        assert config.out_dir == "RESULTS"
        assert config.emit_loadings and config.apply_varimax
        assert config.sim.T == 12
        assert config.sim.phi == 0.6 and config.sim.psi == 0.0
        assert config.sim.seed == 9
        base = config.estimators["mopca"]
        assert base.ranks == "auto" and base.k_max == 3
        assert base.tol == 1e-5 and base.max_iter == 7 and not base.center
        override = config.estimators["itipup"]
        assert override.lags == 2 and override.ranks == (2, 2, 2)
        assert override.tol == 1e-5  # inherited from [estimator]

    @pytest.mark.parametrize("section", ["estimator", "estimator.itipup"])
    @pytest.mark.parametrize("line", ["lags = 0", "tol = 0", "max_iter = 0"])
    def test_invalid_estimator_values_rejected(self, tmp_path, section, line):
        # a method's own section is validated like the shared one
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nmethods = itipup\n[simulation]\nT = 5\n"
                        f"dims = 4, 4\nranks = 2, 2\n[{section}]\n{line}\n")
        with pytest.raises(ValueError, match=line.split()[0]):
            parse_experiment_config(path)

    def test_flags_take_the_place_of_their_keys(self, tmp_path):
        # the file's values that the flags replace would each fail if read
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nmethods = magic\nreplications = 0\nseed = x\n"
                        "[simulation]\nT = 5\ndims = 4, 4\nranks = 2, 2\nseed = x\n"
                        "[estimator]\nkmax = abc\n[estimator.itipup]\nkmax = 0\n")
        flags = {("experiment", "methods"): ("--methods", ["itipup"]),
                 ("experiment", "replications"): ("--reps", 2),
                 ("simulation", "seed"): ("--seed", 3),
                 ("estimator", "kmax"): ("--kmax", 2)}
        config = parse_experiment_config(path, flags)
        assert config.methods == ["itipup"] and config.replications == 2
        assert config.sim.seed == 3
        assert {cfg.k_max for cfg in config.estimators.values()} == {2}
        flags["experiment", "replications"] = ("--reps", 0)
        with pytest.raises(ValueError, match="^--reps: replications must be at least 1"):
            parse_experiment_config(path, flags)

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[other]\nx = 1\n")
        with pytest.raises(ValueError):
            parse_experiment_config(path)
        with pytest.raises(FileNotFoundError):
            parse_experiment_config(tmp_path / "absent.cfg")
