"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from conftest import (
    fortran_payload,
    make_orthonormal_loadings,
    needs_vmhwm,
    run_peak_script,
)
from tuckerfactor import (
    EstimatorConfig,
    SimConfig,
    baseline,
    cli,
    estimate_ranks,
    estimate_ranks_tipup,
    estimation,
    extract_factors,
    noiseless_dataset,
    read_loadings,
    read_tensor_series,
    reconstruct_signals,
    reconstruction_error,
    scenario_config,
    series_moments,
    simulate_dataset,
    tensor,
    top_k_eigensystem,
    varimax,
    write_loadings,
    write_tensor_series,
)
from tuckerfactor.cli import main
from tuckerfactor.experiment import METHODS


@pytest.fixture
def noiseless_file(tmp_path):
    series, _ = noiseless_dataset(T=12, dims=(10, 10, 10), ranks=(2, 3, 4), seed=2)
    path = tmp_path / "noiseless.tnsf"
    write_tensor_series(path, series)
    return str(path)


class TestSimulate:
    def test_writes_dataset_and_truth(self, tmp_path, capsys):
        out = str(tmp_path / "sim.tnsf")
        rc = main(["simulate", "--out", out, "--T", "8", "--dims", "6,6,6",
                   "--ranks", "2,2,2", "--scenario", "III", "--seed", "5"])
        assert rc == 0
        data = read_tensor_series(out)
        assert data.shape == (8, 6, 6, 6)
        cores = read_tensor_series(out + ".cores")
        assert cores.shape == (8, 2, 2, 2)
        a1 = read_tensor_series(out + ".truth.A1")
        assert a1.shape == (1, 6, 2)
        assert "psi=0.8" in capsys.readouterr().out


class TestRank:
    def test_prints_true_ranks_on_noiseless_data(self, noiseless_file, capsys):
        rc = main(["rank", noiseless_file, "--kmax", "8"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "2,3,4"
        assert len([line for line in out if line.startswith("mode")]) == 3
        # full eigenvalue table: one value per mode size
        assert len(out[1].split(":")[1].split()) == 10

    @pytest.mark.parametrize("method", ["mopca", "itipup"])
    def test_builds_each_spectrum_once(self, noiseless_file, capsys, monkeypatch,
                                       method):
        # expected output: ranks from the library selector, then every
        # mode's raw spectrum (the fixture's has rounding-level negatives)
        # from the fits' own centred pass
        series = read_tensor_series(noiseless_file)
        lags, select = (((1,), estimate_ranks_tipup) if method == "itipup"
                        else ((0,), estimate_ranks))
        ranks = select(series, center=True)
        systems = series_moments(series, lags, center=True).eigensystems(lags)
        lines = [",".join(map(str, ranks))]
        for d in range(3):
            lines.append(f"mode {d + 1} eigenvalues: "
                         + " ".join(f"{v:.6g}" for v in systems[d].values))
        passes, grams, read = [], [], []

        def counting(calls, original):
            def counted(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)
            return counted

        def reading(path):
            read.append(read_tensor_series(path))
            return read[-1]

        monkeypatch.setattr(estimation, "_mode_grams",
                            counting(passes, tensor._mode_grams))
        monkeypatch.setattr(tensor, "_mode_gram", counting(grams, tensor._mode_gram))
        monkeypatch.setattr(cli, "read_tensor_series", reading)
        assert main(["rank", noiseless_file, "--method", method]) == 0
        # one pass over the series, one Gram product per mode and pair of
        # tensors (t - h, t): each tensor is its own window
        assert len(passes) == 1
        assert len(grams) == 3 * (len(series) - lags[0])
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        assert read[0].tobytes() == series.tobytes()  # the series read is kept

    def test_kmax_too_large_is_numeric_error(self, noiseless_file, capsys):
        rc = main(["rank", noiseless_file, "--kmax", "50"])
        assert rc == 3
        assert "numeric error" in capsys.readouterr().err


class TestEstimateAndReconstruct:
    def test_round_trip_and_nested_rank_re(self, noiseless_file, tmp_path, capsys):
        data = noiseless_file

        def run_re(ranks, prefix):
            rc = main(["estimate", data, "--method", "ipmopca", "--ranks", ranks,
                       "--out", str(tmp_path / prefix)])
            assert rc == 0
            capsys.readouterr()
            rc = main(["reconstruct", data, "--loadings", str(tmp_path / prefix),
                       "--out", str(tmp_path / (prefix + ".rec"))])
            assert rc == 0
            line = capsys.readouterr().out.strip()
            assert line.startswith("RE: ")
            return float(line.split()[1])

        re_full = run_re("2,3,4", "full")
        re_small = run_re("1,1,1", "small")
        assert re_full < re_small
        rec = read_tensor_series(tmp_path / "full.rec")
        assert rec.shape == read_tensor_series(data).shape

    def test_estimate_persists_loadings_and_cores(self, noiseless_file, tmp_path,
                                                  capsys):
        rc = main(["estimate", noiseless_file, "--ranks", "2,3,4",
                   "--out", str(tmp_path / "fit"), "--varimax"])
        assert rc == 0
        assert "ranks=2,3,4" in capsys.readouterr().out
        for d, k in zip(range(1, 4), (2, 3, 4)):
            mat = read_tensor_series(tmp_path / f"fit.A{d}")
            assert mat.shape == (1, 10, k)
        cores = read_tensor_series(tmp_path / "fit.cores")
        assert cores.shape == (12, 2, 3, 4)

    def test_varimax_cores_keep_the_signals(self, tmp_path):
        # the rotated loadings are saved with the cores rotated back, so the
        # saved cores x saved loadings are the fit's signals
        series, _ = simulate_dataset(scenario_config("II", 12, (10, 9, 8), seed=4))
        path = tmp_path / "data.tnsf"
        write_tensor_series(path, series)
        prefix = str(tmp_path / "fit")
        assert main(["estimate", str(path), "--varimax", "--out", prefix]) == 0
        fit = METHODS["mopca"].fit(series, EstimatorConfig(), None)
        loadings = read_loadings(prefix)
        assert not all(np.array_equal(a, b) for a, b in zip(loadings, fit.loadings))
        saved = reconstruct_signals(read_tensor_series(f"{prefix}.cores"), loadings)
        assert np.abs(saved - fit.signals).max() <= 1e-10

    def test_centered_output_flag(self, noiseless_file, tmp_path, capsys):
        main(["estimate", noiseless_file, "--ranks", "2,3,4",
              "--out", str(tmp_path / "fit")])
        capsys.readouterr()
        rc = main(["reconstruct", noiseless_file,
                   "--loadings", str(tmp_path / "fit"),
                   "--out", str(tmp_path / "centered.rec"),
                   "--centered-output"])
        assert rc == 0
        rec = read_tensor_series(tmp_path / "centered.rec")
        data = read_tensor_series(noiseless_file)
        centered = data - data.mean(axis=0)
        # centered output reproduces the centered data (noise-free input)
        assert np.allclose(rec, centered, atol=1e-8)

    def test_loadings_mismatch_is_numeric_error(self, noiseless_file, tmp_path,
                                                capsys):
        rc = main(["estimate", noiseless_file, "--ranks", "2,3,4",
                   "--out", str(tmp_path / "fit")])
        assert rc == 0
        vec = np.arange(12.0).reshape(4, 3)
        other = tmp_path / "other.tnsf"
        write_tensor_series(other, vec)
        rc = main(["reconstruct", str(other), "--loadings", str(tmp_path / "fit")])
        assert rc == 3


    def test_gap_in_loading_files_is_io_error(self, noiseless_file, tmp_path,
                                              capsys):
        prefix = str(tmp_path / "fit")
        assert main(["estimate", noiseless_file, "--ranks", "2,3,4",
                     "--out", prefix]) == 0
        (tmp_path / "fit.A2").unlink()
        assert main(["reconstruct", noiseless_file, "--loadings", prefix]) == 2
        assert "fit.A2 missing" in capsys.readouterr().err


class TestOneCopyPipeline:
    """``estimate`` centres the series it read in place and ``reconstruct``
    streams over chunks of whole tensors; both keep the bits of the
    whole-array computation."""

    T, DIMS = 11, (6, 5, 4)

    @pytest.fixture
    def data(self, tmp_path):
        config = scenario_config("IV", self.T, self.DIMS, ranks=(2, 2, 2), seed=12)
        series, _ = simulate_dataset(config)
        path = tmp_path / "data.tnsf"
        write_tensor_series(path, series)
        return str(path), series

    @pytest.mark.parametrize("method", ["mopca", "ipmopca", "itipup"])
    def test_estimate_matches_a_centring_fit(self, data, tmp_path, method):
        path, series = data
        assert main(["estimate", path, "--method", method,
                     "--out", str(tmp_path / "cli")]) == 0
        fit = METHODS[method].fit(series, EstimatorConfig(method=method, center=True),
                                  None)
        write_loadings(tmp_path / "ref", fit.loadings)
        write_tensor_series(tmp_path / "ref.cores", fit.factors)
        for suffix in ("A1", "A2", "A3", "cores"):
            assert ((tmp_path / f"cli.{suffix}").read_bytes()
                    == (tmp_path / f"ref.{suffix}").read_bytes())

    @pytest.mark.parametrize("flags", [[], ["--centered-output"], ["--no-center"]])
    def test_reconstruct_matches_whole_array(self, data, tmp_path, capsys,
                                             monkeypatch, flags):
        path, series = data
        prefix = str(tmp_path / "fit")
        assert main(["estimate", path, "--ranks", "2,2,2", "--out", prefix]) == 0
        # three tensors per chunk: T=11 spans four chunks, the last ragged
        monkeypatch.setattr(tensor, "_CHUNK_ELEMS", 3 * int(np.prod(self.DIMS)))
        capsys.readouterr()
        out = tmp_path / "rec.tnsf"
        assert main(["reconstruct", path, "--loadings", prefix,
                     "--out", str(out)] + flags) == 0

        # the fits' cores, projected and then less their own mean
        loadings = read_loadings(prefix)
        center = "--no-center" not in flags
        mean = series.mean(axis=0)
        signals = reconstruct_signals(extract_factors(series, loadings, center),
                                      loadings)
        reference = series
        if "--centered-output" in flags:
            reference = series - mean if center else series
        elif center:
            signals += mean
        write_tensor_series(tmp_path / "ref.tnsf", signals)
        assert capsys.readouterr().out == (
            f"RE: {reconstruction_error(reference, signals):.6f}\n")
        assert out.read_bytes() == (tmp_path / "ref.tnsf").read_bytes()
        # the chunked writes give the bytes of a Fortran-order ravel
        assert out.read_bytes()[16 + 8 * 3:] == fortran_payload(signals)

    @pytest.mark.parametrize("method", ["mopca", "pmopca"])
    def test_reconstruct_takes_the_saved_cores(self, data, tmp_path, method):
        # these fits save extract_factors' cores, which reconstruct takes
        # the same way: its signals are saved cores x loadings + mean
        path, series = data
        prefix = str(tmp_path / "fit")
        assert main(["estimate", path, "--method", method, "--out", prefix]) == 0
        out = tmp_path / "rec.tnsf"
        assert main(["reconstruct", path, "--loadings", prefix,
                     "--out", str(out)]) == 0
        signals = reconstruct_signals(read_tensor_series(f"{prefix}.cores"),
                                      read_loadings(prefix))
        signals += series.mean(axis=0)
        assert read_tensor_series(out).tobytes() == signals.tobytes()

    def test_failed_reconstruct_leaves_no_output(self, data, tmp_path):
        # loadings with the wrong row counts fail in extract_factors, before
        # the output file is opened
        path, _ = data
        prefix = tmp_path / "wrong"
        write_loadings(prefix, make_orthonormal_loadings(
            np.random.default_rng(0), (7, 5, 4), (2, 2, 2)))
        out = tmp_path / "rec.tnsf"
        assert main(["reconstruct", path, "--loadings", str(prefix),
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_failed_write_removes_partial_output(self, data, tmp_path, capsys,
                                                 monkeypatch):
        # a write that fails after the file was opened and partly written
        path, _ = data
        prefix = str(tmp_path / "fit")
        assert main(["estimate", path, "--ranks", "2,2,2", "--out", prefix]) == 0
        monkeypatch.setattr(tensor, "_CHUNK_ELEMS", int(np.prod(self.DIMS)))
        writes, write = [], cli._write_payload

        def fail_second(out, signals):
            writes.append(len(signals))
            if len(writes) == 2:
                raise OSError("no space left on device")
            write(out, signals)

        monkeypatch.setattr(cli, "_write_payload", fail_second)
        out = tmp_path / "rec.tnsf"
        assert main(["reconstruct", path, "--loadings", prefix,
                     "--out", str(out)]) == 2
        assert writes == [1, 1]
        assert "no space left on device" in capsys.readouterr().err
        assert not out.exists()


class TestReconstructLoadingsChecked:
    """Saved loadings that are not finite, or not of full column rank, exit
    with the numeric-error code, naming the mode, before any output."""

    @pytest.mark.parametrize("mode, index, value, message", [
        (1, (0, 0), np.nan, "has non-finite entries"),
        (2, ..., 0.0, "has shape (4, 2); it needs 4 rows and full column rank"),
    ], ids=["nan-A2", "zero-A3"])
    def test_bad_loadings_exit_numeric(self, tmp_path, capsys, mode, index, value,
                                       message):
        rng = np.random.default_rng(0)
        path = tmp_path / "data.tnsf"
        write_tensor_series(path, rng.standard_normal((10, 6, 5, 4)))
        loadings = make_orthonormal_loadings(rng, (6, 5, 4), (2, 2, 2))
        loadings[mode][index] = value
        write_loadings(tmp_path / "bad", loadings)
        out = tmp_path / "rec.tnsf"
        assert main(["reconstruct", str(path), "--loadings", str(tmp_path / "bad"),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"loadings for mode {mode} {message}" in err
        assert not out.exists()


_RECONSTRUCT_PEAK_SCRIPT = """
import os, sys
from tuckerfactor import cli

before = peak_kib()
code = cli.main(["reconstruct", sys.argv[1], "--loadings", sys.argv[2],
                 "--out", sys.argv[3]])
payload = os.path.getsize(sys.argv[1]) - 16 - 8 * 3
print(code, (peak_kib() - before) * 1024 / payload)
"""


@needs_vmhwm
def test_reconstruct_holds_the_series_once(tmp_path):
    # peak RSS growth of a fresh process reconstructing a 32 MiB file; a
    # full-size centred copy or signals array grows it by twice the payload
    rng = np.random.default_rng(3)
    dims = (64, 64, 32)
    path = tmp_path / "big.tnsf"
    write_tensor_series(path, rng.standard_normal((32,) + dims))
    write_loadings(tmp_path / "fit", make_orthonormal_loadings(rng, dims, (2, 3, 4)))
    out = run_peak_script(_RECONSTRUCT_PEAK_SCRIPT, path, tmp_path / "fit",
                          tmp_path / "rec.tnsf")
    code, growth = out.split()[-2:]  # after the RE line
    assert code == "0"
    assert float(growth) < 1.5


class TestBench:
    def test_scenario_four_all_methods_finite(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"""
[experiment]
methods = mopca, pmopca, ipmopca, itipup
replications = 2
seed = 3
out = {tmp_path / 'results'}

[simulation]
T = 15
dims = 8, 8, 8
ranks = 2, 2, 2
scenario = IV

[estimator]
ranks = 2,2,2
kmax = 4
""")
        rc = main(["bench", str(cfg)])
        assert rc == 0
        assert "0 failures" in capsys.readouterr().out
        text = (tmp_path / "results" / "results.csv").read_text()
        rows = [r.split(",") for r in text.strip().splitlines()[1:]]
        data_rows = [r for r in rows if r[0] not in ("mean", "sd")]
        assert len(data_rows) == 2 * 4 * 3
        for row in data_rows:
            assert np.isfinite(float(row[3]))  # distance_d
            assert np.isfinite(float(row[6]))  # re

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"""
[experiment]
methods = mopca
replications = 5
out = {tmp_path / 'r1'}

[simulation]
T = 10
dims = 6, 6
ranks = 2, 2

[estimator]
ranks = 2,2
""")
        rc = main(["bench", str(cfg), "--reps", "1", "--methods", "pmopca",
                   "--out", str(tmp_path / "r2")])
        assert rc == 0
        text = (tmp_path / "r2" / "results.csv").read_text()
        assert "pmopca" in text and "mopca," not in text.replace("pmopca", "")
        data_rows = [r for r in text.strip().splitlines()[1:]
                     if not r.startswith(("mean", "sd"))]
        assert len(data_rows) == 1 * 1 * 2

    def test_flag_overrides_replace_each_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"""
[experiment]
methods = mopca, itipup
out = {tmp_path / 'r'}

[simulation]
T = 10
dims = 6, 6
ranks = 2, 2

[estimator.itipup]
lags = 2
""")
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config: seen.append(config) or [])
        assert main(["bench", str(cfg), "--tol", "1e-3", "--max-iter", "7",
                     "--ranks", "2,1", "--no-center"]) == 0
        estimators = seen[0].estimators
        assert estimators["itipup"] == EstimatorConfig(
            method="itipup", ranks=(2, 1), tol=1e-3, max_iter=7, center=False,
            lags=2)
        assert estimators["mopca"] == EstimatorConfig(
            method="mopca", ranks=(2, 1), tol=1e-3, max_iter=7, center=False)

    def test_methods_flag_keeps_the_estimator_section(self, tmp_path, monkeypatch):
        # a method the file does not list still gets the [estimator] options
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("[experiment]\nmethods = mopca\n[simulation]\nT = 10\n"
                       "dims = 6, 6\nranks = 2, 2\n[estimator]\nranks = 1,1\n")
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config: seen.append(config) or [])
        assert main(["bench", str(cfg), "--methods", "mopca,pmopca"]) == 0
        assert seen[0].methods == ["mopca", "pmopca"]
        for method in ("mopca", "pmopca"):
            assert seen[0].estimator_for(method) == EstimatorConfig(
                method=method, ranks=(1, 1))


class TestBenchUnknownMethod:
    """A method the registry does not know is a usage error, before the
    output directory exists."""

    CONFIG = ("[experiment]\nmethods = {methods}\nout = {out}\n[simulation]\n"
              "T = 10\ndims = 6, 6\nranks = 2, 2\n")

    @pytest.mark.parametrize("in_file, flag", [
        ("magic", []), ("mopca", ["--methods", "mopca,magic"]),
    ], ids=["config", "flag"])
    def test_exits_with_the_usage_code(self, tmp_path, capsys, in_file, flag):
        out = tmp_path / "results"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(self.CONFIG.format(methods=in_file, out=out))
        assert main(["bench", str(cfg), *flag]) == 1
        assert "unknown method 'magic'" in capsys.readouterr().err
        assert not out.exists()


class TestBenchOverrides:
    """A ``bench`` flag override goes through the configs' checks: a value
    they reject is a usage error naming the flag, before any simulation or
    output."""

    @pytest.mark.parametrize("flag, value", [
        ("--reps", "0"), ("--reps", "-2"), ("--methods", ","),
    ])
    def test_rejected_override_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                              flag, value):
        out = tmp_path / "results"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(TestBenchUnknownMethod.CONFIG.format(methods="mopca", out=out))
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config: seen.append(config) or [])
        assert main(["bench", str(cfg), flag, value]) == 1
        assert f"{flag}:" in capsys.readouterr().err
        assert seen == [] and not out.exists()

    @pytest.mark.parametrize("extra, flags, name", [
        ("", ["--varimax"], "--varimax:"),
        ("varimax = true\n", [], "varimax"),
    ], ids=["flag", "config"])
    def test_varimax_without_loadings_is_usage_error(self, tmp_path, capsys,
                                                     extra, flags, name):
        # varimax rotates the emitted loadings: without them it would do nothing
        out = tmp_path / "results"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(TestBenchUnknownMethod.CONFIG.format(
            methods=f"mopca\n{extra}", out=out))
        assert main(["bench", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert name in err and "emit_loadings" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, flags", [
        ("", ["--varimax", "--emit-loadings"]),
        ("emit_loadings = true\n", ["--varimax"]),
        ("varimax = true\n", ["--emit-loadings"]),
    ], ids=["flags", "config-and-flag", "config-varimax-and-flag"])
    def test_varimax_with_loadings_runs(self, tmp_path, extra, flags):
        out = tmp_path / "results"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(TestBenchUnknownMethod.CONFIG.format(
            methods=f"mopca\n{extra}", out=out))
        assert main(["bench", str(cfg), *flags]) == 0
        assert (out / "results.csv").exists()
        # each emitted loading is the rotation of its fit's
        series, _ = simulate_dataset(SimConfig(T=10, dims=(6, 6), ranks=(2, 2)), 0)
        fit = METHODS["mopca"].fit(series, EstimatorConfig(), None)
        assert sorted(p.name for p in (out / "loadings").iterdir()) == [
            "rep000_mopca_A1.csv", "rep000_mopca_A2.csv"]
        for d, a in enumerate(fit.loadings):
            saved = np.loadtxt(out / "loadings" / f"rep000_mopca_A{d + 1}.csv",
                               delimiter=",")
            np.testing.assert_allclose(saved, varimax(a)[0], rtol=0, atol=1e-12)

    def test_seed_on_input_data_is_usage_error(self, tmp_path, capsys, monkeypatch, rng):
        # a file's data has no seed to override
        data, out = tmp_path / "data.tnsf", tmp_path / "results"
        write_tensor_series(data, rng.standard_normal((10, 6, 5)))
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"[experiment]\nmethods = mopca\nout = {out}\ninput = {data}\n")
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config: seen.append(config) or [])
        assert main(["bench", str(cfg), "--seed", "5"]) == 1
        assert "--seed:" in capsys.readouterr().err
        assert seen == [] and not out.exists()
        assert main(["bench", str(cfg)]) == 0 and len(seen) == 1  # without it, runs


class TestBenchOnePath:
    """Each ``bench`` flag takes the place of its ``[section] key`` before
    anything reads that key, so the file's value is never parsed or checked,
    and an error names the source of the value it rejects."""

    CONFIG = ("[experiment]\nmethods = {methods}\nout = {out}\n{experiment}\n"
              "[simulation]\nT = 10\ndims = 6, 6\nranks = 2, 2\n{simulation}\n"
              "[estimator]\nranks = 2, 2\n{estimator}\n[estimator.itipup]\n{itipup}\n")

    def bench(self, tmp_path, flags, **lines):
        fields = {"methods": "mopca, itipup", "experiment": "", "simulation": "",
                  "estimator": "", "itipup": "", **lines}
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(self.CONFIG.format(out=tmp_path / "results", **fields))
        return main(["bench", str(cfg), *flags])

    @pytest.mark.parametrize("flags, lines", [
        (["--reps", "1"], {"experiment": "replications = 0"}),
        (["--kmax", "3"], {"estimator": "kmax = 0"}),
        (["--lags", "2"], {"itipup": "lags = 0"}),
        (["--kmax", "3"], {"estimator": "kmax = abc"}),
        (["--kmax", "3"], {"itipup": "kmax = abc"}),
        (["--seed", "6"], {"experiment": "seed = abc"}),
        (["--methods", "mopca"], {"methods": "magic"}),
    ], ids=["reps", "kmax", "lags", "kmax-unparsed", "method-kmax-unparsed",
            "seed-unparsed", "methods"])
    def test_a_flag_replaces_a_file_value_that_fails(self, tmp_path, capsys, flags,
                                                     lines):
        assert self.bench(tmp_path, flags, **lines) == 0
        assert "0 failures" in capsys.readouterr().out
        assert (tmp_path / "results" / "results.csv").exists()

    def test_a_flag_beats_every_key_it_replaces(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config: seen.append(config) or [])
        assert self.bench(tmp_path, ["--tol", "1e-3", "--seed", "6", "--reps", "2"],
                          experiment="seed = 4\nreplications = 3",
                          simulation="seed = 5", estimator="tol = 1e-2",
                          itipup="tol = 1e-4\nlags = 2") == 0
        assert seen[0].sim.seed == 6 and seen[0].replications == 2
        assert seen[0].estimators["itipup"] == EstimatorConfig(
            method="itipup", ranks=(2, 2), tol=1e-3, lags=2)
        assert seen[0].estimators["mopca"] == EstimatorConfig(ranks=(2, 2), tol=1e-3)

    def test_the_seed_flag_beats_the_experiment_seed(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config: seen.append(config) or [])
        assert self.bench(tmp_path, [], experiment="seed = 4") == 0
        assert self.bench(tmp_path, ["--seed", "6"], experiment="seed = 4") == 0
        assert [config.sim.seed for config in seen] == [4, 6]

    @pytest.mark.parametrize("flags, lines, source", [
        (["--out", "x"], {"experiment": "replications = 0"},
         "[experiment] replications: replications must be at least 1"),
        (["--emit-loadings"], {"experiment": "replications = 0"},
         "[experiment] replications: replications must be at least 1"),
        (["--reps", "2"], {"methods": ","},
         "[experiment] methods: at least one method is required"),
        (["--methods", "mopca"], {"estimator": "kmax = 0"},
         "[estimator] kmax: k_max must be at least 1, got 0"),
        (["--kmax", "3"], {"itipup": "lags = 0"},
         "[estimator.itipup] lags: lags must be at least 1"),
        (["--reps", "0"], {"experiment": "replications = 2"},
         "--reps: replications must be at least 1"),
        (["--varimax"], {"experiment": "emit_loadings = false"},
         "--varimax: varimax rotates emitted loadings: it needs emit_loadings"),
    ], ids=["file-reps", "file-reps-2", "file-methods", "file-kmax", "file-lags",
            "flag-reps", "flag-varimax"])
    def test_an_error_names_the_source_of_its_value(self, tmp_path, capsys, flags,
                                                    lines, source):
        assert self.bench(tmp_path, flags, **lines) == 1
        assert f"tuckerfactor bench: error: {source}" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()


class TestTypedErrorExitCodes:
    """Each input the fits reject by name exits with the numeric-error code;
    an option value that cannot be parsed or fails validation, from a flag
    or from the config file, exits with the usage code and names its source."""

    BENCH = ("[experiment]\nmethods = mopca, itipup\nout = {out}\n[simulation]\n"
             "T = 10\n{dims}\nranks = 2, 2, 2\n[estimator]\n{estimator}\n"
             "[estimator.itipup]\n{itipup}\n")

    @pytest.mark.parametrize("section, line", [
        ("estimator", "kmax = abc"), ("estimator", "tol = -1"),
        ("estimator", "center = maybe"), ("estimator", "ranks = 2,x,2"),
        ("simulation", "dims = 6,x,4"), ("simulation", "dims = 6,1,4"),
        ("estimator.itipup", "lags = 0"), ("estimator", "kmax = 0"),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, section, line):
        out = tmp_path / "results"
        fields = {"estimator": "", "itipup": "", "dims": "dims = 6, 6, 6"}
        fields[{"simulation": "dims", "estimator.itipup": "itipup"}.get(
            section, section)] = line
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(self.BENCH.format(out=out, **fields))
        assert main(["bench", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"[{section}]" in err and "numeric error" not in err
        if section != "simulation" or "x" in line:  # a parse error names its key
            assert f"[{section}] {line.split()[0]}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["T", "dims"])
    def test_missing_simulation_key_is_usage_error(self, tmp_path, capsys, key):
        out = tmp_path / "results"
        cfg = tmp_path / "bench.cfg"
        text = self.BENCH.format(out=out, estimator="", itipup="", dims="dims = 6, 6, 6")
        cfg.write_text(text.replace({"T": "T = 10\n", "dims": "dims = 6, 6, 6\n"}[key], ""))
        assert main(["bench", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"[simulation] {key}: missing" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_integer_config_value_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "results"
        cfg = tmp_path / "bench.cfg"
        text = self.BENCH.format(out=out, estimator="", itipup="", dims="dims = 6, 6, 6")
        cfg.write_text(text.replace("T = 10\n", "T = 2.5\n"))
        assert main(["bench", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "[simulation] T:" in err and "numeric error" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "data.tnsf", "--out", "x", "--ranks", "2,x"], "--ranks"),
        (["rank", "data.tnsf", "--kmax", "0"], "--kmax"),
        (["bench", "bench.cfg", "--kmax", "0"], "--kmax"),
        (["estimate", "data.tnsf", "--out", "x", "--kmax", "abc"], "--kmax"),
        (["bench", "bench.cfg", "--ranks", "auto,2"], "--ranks"),
        (["rank", "data.tnsf", "--kmax", "1.5"], "--kmax"),
        (["simulate", "--out", "x", "--dims", "6,x,4"], "--dims"),
        (["simulate", "--out", "x", "--T", "2.5"], "--T"),
        (["simulate", "--out", "x", "--dims", "2.5,3"], "--dims"),
        (["estimate", "data.tnsf", "--out", "x", "--kmax", "1.5"], "--kmax"),
        (["rank", "data.tnsf", "--method", "itipup", "--lags", "1.5"], "--lags"),
        (["bench", "bench.cfg", "--reps", "1.5"], "--reps"),
    ])
    def test_bad_flag_value_is_usage_error(self, argv, flag, capsys):
        assert main(argv) == 1
        assert f"argument {flag}:" in capsys.readouterr().err

    def _estimate(self, tmp_path, capsys, series, *flags):
        path = tmp_path / "data.tnsf"
        write_tensor_series(path, series)
        rc = main(["estimate", str(path), "--out", str(tmp_path / "fit"), *flags])
        return rc, capsys.readouterr().err

    def test_complex_input(self, tmp_path, capsys, monkeypatch):
        # the file format holds reals only, so the reader is stood in for
        series = np.ones((5, 4, 3)) * (1 + 1j)
        monkeypatch.setattr(cli, "read_tensor_series", lambda path: series)
        assert main(["estimate", "data.tnsf", "--out", str(tmp_path / "fit")]) == 3
        assert "complex input" in capsys.readouterr().err

    @pytest.mark.parametrize("series", [np.ones((5, 4, 3)),
                                        np.arange(12.0).reshape(1, 4, 3)],
                             ids=["constant", "single-observation"])
    def test_degenerate_spectrum_with_explicit_ranks(self, tmp_path, capsys, series):
        rc, err = self._estimate(tmp_path, capsys, series, "--ranks", "1,1")
        assert rc == 3
        assert "degenerate spectrum" in err
        assert not (tmp_path / "fit.A1").exists()

    def test_auto_ranks_on_a_size_one_mode(self, tmp_path, capsys, rng):
        rc, err = self._estimate(tmp_path, capsys, rng.standard_normal((8, 6, 1, 4)))
        assert rc == 3
        assert "mode 1 of dims (6, 1, 4) has size 1" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command", [["estimate", "--out", "fit"],
                                         ["estimate", "--method", "itipup", "--out",
                                          "fit"],
                                         ["rank"], ["rank", "--method", "itipup"],
                                         ["rank", "--no-center"]])
    def test_non_finite_series(self, tmp_path, capsys, rng, command, bad):
        series = rng.standard_normal((6, 5, 4, 3))
        series[2, 1, 0, 2] = bad
        path = tmp_path / "data.tnsf"
        write_tensor_series(path, series)
        argv = [command[0], str(path), *command[1:]]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "fit")
        assert main(argv) == 3
        assert "the series has non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "fit.A1").exists()


class TestUnreadableConfig:
    """A config file that ``configparser`` rejects is a usage error on one
    line, naming the file, or the ``[section] key`` whose value it cannot
    interpolate, once."""

    @pytest.mark.parametrize("text, source", [
        ("[experiment]\nmethods = mopca\nmethods = pmopca\n",
         "'{cfg}' [line 3]: option 'methods' in section 'experiment' already exists"),
        ("methods = mopca\n[experiment]\n", "file: '{cfg}', line: 1"),
        ("[experiment]\nmethods = mopca\nout = res%x\n",
         "[experiment] out: '%' must be followed by '%' or '('"),
    ], ids=["duplicate-key", "no-section-header", "bad-interpolation"])
    def test_usage_error(self, tmp_path, capsys, text, source):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(text)
        assert main(["bench", str(cfg)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("tuckerfactor bench: error: ")
        assert source.format(cfg=cfg) in line
        assert line.count(str(cfg)) + line.count("[experiment] out") == 1


class TestNegativeSeeds:
    """A negative seed or replication fails by name, with the usage code."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["simulate", "--rep", "-1"], "replication must be non-negative, got -1"),
        (["bench"], "[simulation]: seed must be non-negative, got -1"),
    ], ids=["simulate-seed", "simulate-rep", "bench-seed"])
    def test_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"[experiment]\nout = {out}\n[simulation]\nT = 5\n"
                       "dims = 4, 4\nranks = 1, 1\nseed = -1\n")
        argv = argv + ([str(cfg)] if argv == ["bench"] else ["--out", str(out)])
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))


class TestExitCodes:
    def test_unknown_method_is_usage_error(self, noiseless_file):
        rc = main(["estimate", noiseless_file, "--method", "magic",
                   "--out", "x"])
        assert rc == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["rank", "--frobnicate"]) == 1

    def test_bad_numeric_flag_names_flag(self, noiseless_file, capsys):
        rc = main(["estimate", noiseless_file, "--tol", "abc", "--out", "x"])
        assert rc == 1
        assert "--tol" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["rank", str(tmp_path / "absent.tnsf")]) == 2

    def test_corrupt_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tnsf"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        assert main(["rank", str(path)]) == 2
        assert "file format error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "data.tnsf", "--out", "x", "--method", "itipup", "--lags", "0"],
        ["rank", "data.tnsf", "--method", "itipup", "--lags", "0"],
        ["bench", "bench.cfg", "--lags", "-1"],
    ])
    def test_lags_below_one_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert "--lags" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "data.tnsf", "--out", "x", "--tol", "0"], "--tol"),
        (["estimate", "data.tnsf", "--out", "x", "--tol", "-1"], "--tol"),
        (["estimate", "data.tnsf", "--out", "x", "--max-iter", "0"], "--max-iter"),
        (["bench", "bench.cfg", "--tol", "-1"], "--tol"),
        (["bench", "bench.cfg", "--tol", "nan"], "--tol"),
        (["bench", "bench.cfg", "--max-iter", "0"], "--max-iter"),
    ])
    def test_tol_and_max_iter_out_of_range_are_usage_errors(self, argv, flag, capsys):
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        assert main([]) == 1
