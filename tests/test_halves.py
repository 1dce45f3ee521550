"""Run-wise passes split between the caller and one worker: the projections
and the TNSF reader in halves (``tensor._in_halves``), and ``reconstruct``'s
writes one run behind its building.  At once (``tensor._reads_at_once``
patched) they give the bits of one thread, a worker's error reaches the
caller with its type, and no thread outlives the call."""

import threading

import numpy as np
import pytest

from tuckerfactor import (
    cli,
    estimation,
    extract_factors,
    ipmopca_fit,
    read_tensor_series,
    write_loadings,
    write_tensor_series,
)
from tuckerfactor import io as tnsf
from tuckerfactor import tensor as tensor_module
from tuckerfactor.io import PayloadSizeError


@pytest.fixture
def at_once(monkeypatch):
    """``at_once(flag)`` makes every two-thread pass run at once, or in turn."""
    def set_flag(flag):
        monkeypatch.setattr(tensor_module, "_reads_at_once", lambda x: flag)
    return set_flag


def record_threads(monkeypatch, module, name):
    """The idents of the threads that call ``module.name`` from now on."""
    seen, fn = set(), getattr(module, name)

    def recorded(*args, **kwargs):
        seen.add(threading.get_ident())
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return seen


def in_worker():
    return threading.current_thread() is not threading.main_thread()


class TestInHalves:
    def test_the_worker_runs_the_second_half(self, at_once):
        at_once(True)
        calls = []
        tensor_module._in_halves(np.empty((5, 2, 2)), lambda part, half: calls.append(
            (list(part), half, in_worker())), range(5))
        assert sorted(calls) == [([0, 1, 2], 0, False), ([3, 4], 1, True)]

    def test_in_turn_the_caller_runs_every_piece_in_order(self, at_once):
        at_once(False)
        calls = []
        tensor_module._in_halves(np.empty((5, 2, 2)), lambda part, half: calls.append(
            (list(part), half, in_worker())), range(5))
        assert calls == [([0, 1, 2, 3, 4], 0, False)]

    def test_one_piece_stays_in_the_caller(self, monkeypatch, at_once):
        at_once(True)

        def no_thread(x):
            raise AssertionError("one piece entered _second_thread")

        monkeypatch.setattr(tensor_module, "_second_thread", no_thread)
        calls = []
        tensor_module._in_halves(np.empty((1, 2, 2)), lambda part, half: calls.append(
            (list(part), half, in_worker())), range(1))
        assert calls == [([0], 0, False)]


class TestProjections:
    @pytest.mark.parametrize("modes, stack", [([0, 1, 2], None), ([0], None),
                                              ([1, 2], 0), ([0, 2], 1)])
    def test_same_bits_at_once_as_in_turn(self, monkeypatch, rng, at_once, modes, stack):
        x = rng.standard_normal((7, 6, 5, 4))
        a = [rng.standard_normal((p, k)) for p, k in zip(x.shape[1:], (2, 3, 2))]
        monkeypatch.setattr(tensor_module, "_CHUNK_ELEMS", 2 * x[0].size)  # 4 runs
        seen = record_threads(monkeypatch, estimation, "mode_product")
        before = threading.active_count()
        at_once(True)
        got = estimation._project(x, a, modes, 3.0, stack)
        assert len(seen) == 2 and threading.active_count() == before
        at_once(False)
        assert np.array_equal(got, estimation._project(x, a, modes, 3.0, stack))

    def test_fits_and_factors_keep_their_bits(self, monkeypatch, rng, at_once):
        x = rng.standard_normal((9, 6, 5, 4))
        monkeypatch.setattr(tensor_module, "_CHUNK_ELEMS", 2 * x[0].size)
        fits, factors = [], []
        for flag in (True, False):
            at_once(flag)
            fit = ipmopca_fit(x, (2, 2, 2), center=True)
            fits.append([*fit.loadings, fit.factors])
            factors.append(extract_factors(x, fit.loadings, True))
        for got, want in zip(fits[0] + factors[:1], fits[1] + factors[1:]):
            assert np.array_equal(got, want)


class TestRead:
    @pytest.mark.parametrize("t_len", [1, 2, 5])
    def test_same_bits_at_once_as_in_turn(self, monkeypatch, tmp_path, rng, at_once,
                                          t_len):
        x = rng.standard_normal((t_len, 5, 4, 3))
        path = tmp_path / "x.tnsf"
        write_tensor_series(path, x)
        seen = record_threads(monkeypatch, tnsf.os, "preadv")
        before = threading.active_count()
        at_once(True)
        got = read_tensor_series(path)
        assert len(seen) == min(t_len, 2) and threading.active_count() == before
        at_once(False)
        assert np.array_equal(got, x) and np.array_equal(read_tensor_series(path), x)

    def test_reads_that_stop_short_are_resumed(self, monkeypatch, tmp_path, rng, at_once):
        x = rng.standard_normal((3, 5, 4, 3))
        write_tensor_series(tmp_path / "x.tnsf", x)
        preadv = tnsf.os.preadv

        def seven_bytes(fd, buffers, offset):
            return preadv(fd, [memoryview(buffers[0])[:7]], offset)

        monkeypatch.setattr(tnsf.os, "preadv", seven_bytes)
        at_once(True)
        assert np.array_equal(read_tensor_series(tmp_path / "x.tnsf"), x)

    def test_a_short_read_in_the_worker_is_a_payload_error(self, monkeypatch, tmp_path,
                                                           rng, at_once):
        write_tensor_series(tmp_path / "x.tnsf", rng.standard_normal((4, 5, 4, 3)))
        preadv = tnsf.os.preadv

        def ends_in_worker(fd, buffers, offset):
            return 0 if in_worker() else preadv(fd, buffers, offset)

        monkeypatch.setattr(tnsf.os, "preadv", ends_in_worker)
        at_once(True)
        before = threading.active_count()
        with pytest.raises(PayloadSizeError, match="shrank while being read"):
            read_tensor_series(tmp_path / "x.tnsf")
        assert threading.active_count() == before


class TestReconstructWrites:
    @pytest.fixture
    def files(self, monkeypatch, tmp_path, rng):
        x = rng.standard_normal((7, 6, 5, 4)) + 1.0
        a = [np.linalg.qr(rng.standard_normal((p, 2)))[0] * np.sqrt(p)
             for p in x.shape[1:]]
        write_tensor_series(tmp_path / "x.tnsf", x)
        write_loadings(tmp_path / "fit", a)
        monkeypatch.setattr(tensor_module, "_CHUNK_ELEMS", 2 * x[0].size)  # 4 runs
        return str(tmp_path / "x.tnsf"), str(tmp_path / "fit"), tmp_path / "out.tnsf"

    @pytest.mark.parametrize("flags", [[], ["--centered-output"], ["--no-center"]])
    def test_same_bytes_and_error_at_once_as_in_turn(self, monkeypatch, capsys, files,
                                                     at_once, flags):
        data, prefix, out = files
        seen = record_threads(monkeypatch, cli, "_write_payload")
        printed = []
        for flag in (True, False):
            at_once(flag)
            before = threading.active_count()
            assert cli.main(["reconstruct", data, "--loadings", prefix,
                             "--out", str(out), *flags]) == 0
            assert threading.active_count() == before
            printed.append((out.read_bytes(), capsys.readouterr().out))
            if flag:
                assert len(seen) == 1 and threading.main_thread().ident not in seen
        assert printed[0] == printed[1] and printed[0][1].startswith("RE: ")

    def test_a_failed_write_in_the_worker_leaves_no_file(self, monkeypatch, files,
                                                         at_once):
        data, prefix, out = files
        write = cli._write_payload
        calls = []

        def fails_second(fh, arr):
            calls.append(in_worker())
            if len(calls) == 2:
                raise OSError("disk full")
            write(fh, arr)

        monkeypatch.setattr(cli, "_write_payload", fails_second)
        at_once(True)
        before = threading.active_count()
        assert cli.main(["reconstruct", data, "--loadings", prefix,
                         "--out", str(out)]) == 2
        assert not out.exists() and threading.active_count() == before
        assert calls == [True, True]
