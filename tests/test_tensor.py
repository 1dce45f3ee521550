"""Tests for the dense tensor primitives and their index conventions."""

import os
import subprocess
import sys
import threading
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tuckerfactor import (
    fold,
    frobenius_norm,
    kronecker,
    mode_covariance,
    mode_product,
    multi_mode_product,
    series_moments,
    tipup_mode_matrix,
    unfold,
    vectorize,
)
from tuckerfactor import tensor as tensor_module


def reference_unfold(x, mode):
    """Independent oracle: build the unfolding entry by entry from the
    column index formula j = sum over other modes of i_m * prod of the
    lower non-target dims."""
    dims = x.shape
    p_other = x.size // dims[mode]
    out = np.zeros((dims[mode], p_other))
    for idx in np.ndindex(*dims):
        col = 0
        stride = 1
        for m, i in enumerate(idx):
            if m == mode:
                continue
            col += i * stride
            stride *= dims[m]
        out[idx[mode], col] = x[idx]
    return out


def fortran_tensor(values, dims):
    return np.asarray(values, dtype=float).reshape(dims, order="F")


class TestUnfold:
    def test_hand_example_mode0(self):
        x = fortran_tensor(range(1, 9), (2, 2, 2))
        expected = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        assert np.array_equal(unfold(x, 0), expected)

    def test_hand_example_mode1(self):
        x = fortran_tensor(range(1, 9), (2, 2, 2))
        expected = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
        assert np.array_equal(unfold(x, 1), expected)

    def test_vector_degenerate(self):
        x = np.array([3.0, 1.0, 4.0])
        assert np.array_equal(unfold(x, 0), x[:, None])

    @pytest.mark.parametrize("dims", [(2, 3), (3, 4, 5), (2, 2, 2, 3)])
    def test_matches_index_formula_oracle(self, rng, dims):
        x = rng.standard_normal(dims)
        for mode in range(len(dims)):
            assert np.array_equal(unfold(x, mode), reference_unfold(x, mode))

    def test_columns_visit_every_index_once(self, rng):
        # column map must be a bijection: scattering the unfolding back by
        # the index formula must reproduce every entry exactly once
        x = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            m = unfold(x, mode)
            seen = np.zeros(x.shape, dtype=int)
            for idx in np.ndindex(*x.shape):
                col = 0
                stride = 1
                for d, i in enumerate(idx):
                    if d == mode:
                        continue
                    col += i * stride
                    stride *= x.shape[d]
                assert m[idx[mode], col] == x[idx]
                seen[idx] += 1
            assert np.all(seen == 1)

    def test_mode_out_of_range(self, rng):
        with pytest.raises(ValueError):
            unfold(rng.standard_normal((2, 2)), 2)


class TestFold:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_round_trip_identity(self, rng, mode):
        x = rng.standard_normal((3, 4, 5))
        assert np.array_equal(fold(unfold(x, mode), mode, x.shape), x)

    def test_vector_fold(self):
        m = np.array([[1.0], [2.0]])
        assert np.array_equal(fold(m, 0, (2,)), np.array([1.0, 2.0]))

    def test_random_shapes_round_trip(self, rng):
        for _ in range(20):
            d = rng.integers(1, 5)
            dims = tuple(int(v) for v in rng.integers(1, 5, size=d))
            x = rng.standard_normal(dims)
            mode = int(rng.integers(0, d))
            assert np.array_equal(fold(unfold(x, mode), mode, dims), x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 5)), 0, (2, 2, 2))


class TestModeProduct:
    def test_identity(self, rng):
        x = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            assert np.allclose(mode_product(x, np.eye(x.shape[mode]), mode), x)

    def test_hand_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = np.array([[1.0, 1.0]])
        out = mode_product(x, a, 0)
        assert out.shape == (1, 2)
        assert np.array_equal(out, np.array([[4.0, 6.0]]))

    def test_agrees_with_unfold_identity(self, rng):
        x = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            a = rng.standard_normal((6, x.shape[mode]))
            lhs = unfold(mode_product(x, a, mode), mode)
            rhs = a @ unfold(x, mode)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_distinct_modes_commute(self, rng):
        x = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((6, 4))
        one = mode_product(mode_product(x, a, 0), b, 1)
        two = mode_product(mode_product(x, b, 1), a, 0)
        assert np.allclose(one, two, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            mode_product(rng.standard_normal((3, 4)), np.zeros((2, 5)), 0)


@st.composite
def tensors(draw, min_dims=1, max_dims=4, min_lead=1):
    """Random arrays with C-ordered, Fortran-ordered or strided storage."""
    shape = draw(hnp.array_shapes(min_dims=min_dims, max_dims=max_dims,
                                  min_side=1, max_side=4))
    shape = (max(shape[0], min_lead),) + shape[1:]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        big = rng.standard_normal(tuple(2 * s for s in shape))
        return big[tuple(slice(None, None, 2) for _ in shape)]
    x = rng.standard_normal(shape)
    return np.asfortranarray(x) if layout == "F" else x


def unfold_gram(x, y, mode):
    """sum_t X_t^(d) Y_t^(d)' over the leading axis, from the unfoldings."""
    return sum(unfold(x_t, mode) @ unfold(y_t, mode).T for x_t, y_t in zip(x, y))


# Gram chunk budgets from one slice per chunk through ragged chunks to the
# default, which covers every drawn array in a single chunk
chunk_budgets = st.one_of(st.integers(0, 100), st.just(tensor_module._BATCH_ELEMS))


class TestContractionKernels:
    """The layout-aware kernels agree with their unfolding definitions."""

    @settings(max_examples=150, deadline=None)
    @given(x=tensors(), data=st.data())
    def test_mode_product(self, x, data):
        mode = data.draw(st.integers(0, x.ndim - 1))
        k = data.draw(st.integers(1, x.shape[mode] + 3))  # k < p_d and k > p_d
        mat = np.random.default_rng(k).standard_normal((k, x.shape[mode]))
        out = mode_product(x, mat, mode)
        assert out.flags.c_contiguous
        assert np.array_equal(out, mode_product(x, mat, mode))
        expected = fold(mat @ unfold(x, mode), mode, out.shape)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(x=tensors(min_dims=2, max_dims=5), chunk=chunk_budgets,
           data=st.data())
    def test_mode_covariance(self, x, chunk, data):
        mode = data.draw(st.integers(0, x.ndim - 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_module, "_BATCH_ELEMS", chunk)
            out = mode_covariance(x, mode)
            assert np.array_equal(out, mode_covariance(x, mode))
        expected = unfold_gram(x, x, mode) / x.size
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(x=tensors(min_dims=2, max_dims=5, min_lead=2), chunk=chunk_budgets,
           data=st.data())
    def test_tipup_mode_matrix(self, x, chunk, data):
        mode = data.draw(st.integers(0, x.ndim - 2))
        h0 = data.draw(st.integers(1, x.shape[0] - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_module, "_BATCH_ELEMS", chunk)
            out = tipup_mode_matrix(x, mode, h0)
        expected = 0.0
        for h in range(1, h0 + 1):
            w = unfold_gram(x[:-h], x[h:], mode) / ((len(x) - h) * x[0].size)
            expected = expected + w @ w.T
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


class TestFusedModeGrams:
    """``tensor._mode_grams`` gives every mode's (lagged) Gram matrix of the
    centred series in one chunked pass."""

    @settings(max_examples=300, deadline=None)
    @given(x=tensors(min_dims=2, max_dims=5),
           lags=st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
           center=st.booleans(),
           per_chunk=st.sampled_from([1, 3, None, 1 / 2, 1 / 3]),
           data=st.data())
    def test_matches_centred_unfold_definition(self, x, lags, center, per_chunk, data):
        # a half or a third of a tensor cuts it into several windows
        mean = x.mean(axis=0) if center else None
        with pytest.MonkeyPatch.context() as mp:
            if per_chunk is not None:  # None: the default budget
                mp.setattr(tensor_module, "_CHUNK_ELEMS",
                           max(1, int(per_chunk * x[0].size)))
            out = tensor_module._mode_grams(x, mean, lags)
        xc = x - mean if center else x
        assert len(out) == len(lags)
        for h, grams in zip(lags, out):
            assert len(grams) == x.ndim - 1
            for mode, g in enumerate(grams):
                p_d = x.shape[mode + 1]
                want = (unfold_gram(xc[:len(x) - h], xc[h:], mode) if h < len(x)
                        else np.zeros((p_d, p_d)))
                assert g.shape == (p_d, p_d)
                assert relative_error(g, want) <= 1e-12

    @pytest.mark.parametrize("lags", [(0,), (0, 1)])
    @pytest.mark.parametrize("t_len", [2, 5, 6, 7])
    def test_one_way_runs_at_a_one_tensor_budget(self, monkeypatch, rng, t_len, lags):
        # runs of two tensors, the last of three for an odd T
        x = rng.standard_normal((t_len, 3)) + 1.0
        monkeypatch.setattr(tensor_module, "_CHUNK_ELEMS", 3)
        out = tensor_module._mode_grams(x, x.mean(axis=0), lags)
        xc = x - x.mean(axis=0)
        for h, (g,) in zip(lags, out):
            assert relative_error(g, unfold_gram(xc[:t_len - h], xc[h:], 0)) <= 1e-12

    @pytest.mark.parametrize("shape", [(5, 4, 3, 6), (6, 5, 4), (7, 3)])
    def test_same_bits_at_any_budget(self, monkeypatch, rng, shape):
        # each tensor is one window at a budget of one tensor or more, so
        # the budget does not change the order of any sum
        x = rng.standard_normal(shape) + 1.0
        want = tensor_module._mode_grams(x, x.mean(axis=0), (0, 1))
        for per_chunk in (1, 3):
            monkeypatch.setattr(tensor_module, "_CHUNK_ELEMS", per_chunk * x[0].size)
            got = tensor_module._mode_grams(x, x.mean(axis=0), (0, 1))
            for g, w in zip(sum(got, []), sum(want, [])):
                assert np.array_equal(g, w)


def record_threads(monkeypatch):
    """The set of ids of the threads that run ``tensor._mode_gram``."""
    seen, gram = set(), tensor_module._mode_gram

    def recorded(x, y, axis):
        seen.add(threading.get_ident())
        return gram(x, y, axis)

    monkeypatch.setattr(tensor_module, "_mode_gram", recorded)
    return seen


def blas_and_cores(monkeypatch, threads, cores):
    """Make ``_reads_at_once`` see ``threads`` BLAS threads (no BLAS it can
    query when None) on ``cores`` usable cores."""
    getter = None if threads is None else (lambda: threads)
    monkeypatch.setattr(tensor_module, "_blas_threads", lambda: getter)
    monkeypatch.setattr(tensor_module.os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)


class TestConcurrentReads:
    """``tensor._mode_grams`` reads modes 2..D in a thread of its own while
    the caller reads mode 1 when ``_reads_at_once`` says so, else it runs
    both reads in the caller."""

    @pytest.mark.parametrize("lags", [(0,), (1,), (0, 1, 2)])
    @pytest.mark.parametrize("shape", [(6, 7, 5), (5, 4, 3, 6), (4, 3, 4, 3, 5)])
    def test_same_bits_as_both_reads_in_the_caller(self, monkeypatch, rng, shape, lags):
        x = rng.standard_normal(shape) + 1.0
        monkeypatch.setattr(tensor_module, "_CHUNK_ELEMS", x[0].size // 3)
        monkeypatch.setattr(tensor_module, "_reads_at_once", lambda x: True)
        seen = record_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a lost update shows
        try:
            got = tensor_module._mode_grams(x, x.mean(axis=0), lags)
        finally:
            sys.setswitchinterval(interval)
        # the caller and one other thread
        assert len(seen) == 2 and threading.get_ident() in seen
        seen.clear()
        monkeypatch.setattr(tensor_module, "_reads_at_once", lambda x: False)
        want = tensor_module._mode_grams(x, x.mean(axis=0), lags)
        assert seen == {threading.get_ident()}
        for g, w in zip(sum(got, []), sum(want, [])):
            assert np.array_equal(g, w)

    def test_worker_error_reaches_the_caller(self, monkeypatch, rng):
        class WorkerError(Exception):
            pass

        gram, caller = tensor_module._mode_gram, threading.get_ident()

        def failing(x, y, axis):
            if threading.get_ident() != caller:
                raise WorkerError("in the worker's read")
            return gram(x, y, axis)

        x = rng.standard_normal((5, 4, 3, 6))
        monkeypatch.setattr(tensor_module, "_reads_at_once", lambda x: True)
        monkeypatch.setattr(tensor_module, "_mode_gram", failing)
        before = threading.active_count()
        with pytest.raises(WorkerError):
            series_moments(x, (0, 1))
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads, cores, at_once", [
        (1, 2, True), (2, 4, True), (2, 2, False), (1, 1, False), (3, 4, False),
        (None, 8, False)])
    def test_at_once_where_blas_leaves_half_the_cores(self, monkeypatch, threads,
                                                      cores, at_once):
        blas_and_cores(monkeypatch, threads, cores)
        shape = (2, tensor_module._AT_ONCE_ELEMS + 1)
        assert tensor_module._reads_at_once(np.empty(shape)) is False  # 1-way
        assert tensor_module._reads_at_once(np.empty(shape + (1,))) is at_once

    @pytest.mark.parametrize("margin", [0, 1])
    def test_small_tensors_start_no_thread(self, monkeypatch, rng, margin):
        x = rng.standard_normal((5, 4, 3, 6))
        blas_and_cores(monkeypatch, 1, 2)  # a spare core
        monkeypatch.setattr(tensor_module, "_AT_ONCE_ELEMS", x[0].size + margin)
        monkeypatch.setattr(tensor_module, "_CHUNK_ELEMS", x[0].size // 3)
        seen = record_threads(monkeypatch)
        before = threading.active_count()
        series_moments(x, (0, 1))
        assert seen == {threading.get_ident()}
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_probe_reads_the_blas_thread_count(self, threads):
        if tensor_module._blas_threads() is None:
            pytest.skip("numpy bundles no OpenBLAS to query")
        script = ("from tuckerfactor import tensor; "
                  "print(tensor._blas_threads()())")
        src = os.path.dirname(os.path.dirname(tensor_module.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        # OpenBLAS runs at most one thread a core
        assert int(done.stdout) == min(int(threads), os.cpu_count())


class TestPieces:
    """``tensor._pieces`` covers a series once, in pieces within the budget."""

    @settings(max_examples=300, deadline=None)
    @given(shape=hnp.array_shapes(min_dims=2, max_dims=5, min_side=1, max_side=9),
           axis=st.integers(0, 2), budget=st.integers(1, 400))
    def test_covers_the_series_once(self, shape, axis, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_module, "_CHUNK_ELEMS", budget)
            pieces = tensor_module._pieces(shape, axis)
        count = np.zeros(shape, dtype=int)
        size = int(np.prod(shape[1:]))
        windowed = len(pieces[0]) > 1
        for s in pieces:
            count[s] += 1
            n = count[s].size
            if len(shape) == 2:  # a 1-way series: runs of two tensors or more
                assert n <= max(budget, 3 * size)
                assert n >= min(2, shape[0]) * size
            elif not windowed:  # runs of whole tensors
                assert n <= max(budget, size) or n == size
            else:  # one tensor's window of whole slabs along the axis
                slab = size // shape[axis]
                width = s[axis].stop - s[axis].start
                assert s[0].stop - s[0].start == 1 and n == width * slab
                assert width >= 2 or shape[axis] == 1
                assert n <= max(budget, 3 * slab)
        assert (count == 1).all()
        if windowed:  # window by window, each for t = 0..T-1
            assert [s[0].start for s in pieces] == list(range(shape[0])) * (
                len(pieces) // shape[0])
        assert windowed == (axis > 0 and len(shape) > 2)


class TestMultiModeProduct:
    def test_empty_list(self, rng):
        x = rng.standard_normal((2, 3))
        assert np.array_equal(multi_mode_product(x, [], modes=[]), x)

    def test_all_identities(self, rng):
        x = rng.standard_normal((2, 3, 4))
        mats = [np.eye(p) for p in x.shape]
        assert np.allclose(multi_mode_product(x, mats), x)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kronecker_vec_identity(self, rng, d):
        for _ in range(10):
            ranks = tuple(int(v) for v in rng.integers(1, 5, size=d))
            dims = tuple(int(v) for v in rng.integers(1, 5, size=d))
            f = rng.standard_normal(ranks)
            mats = [rng.standard_normal((p, k)) for p, k in zip(dims, ranks)]
            lhs = vectorize(multi_mode_product(f, mats))
            rhs = reduce(np.kron, mats[::-1]) @ vectorize(f)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_duplicate_mode_rejected(self, rng):
        x = rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            multi_mode_product(x, [np.eye(3), np.eye(3)], modes=[0, 0])

    def test_transpose(self, rng):
        x = rng.standard_normal((3, 4, 5))
        mats = [rng.standard_normal((p, 2)) for p in x.shape]
        by_hand = x
        for d, a in enumerate(mats):
            by_hand = mode_product(by_hand, a.T, d)
        assert np.allclose(multi_mode_product(x, mats, transpose=True), by_hand)


class TestVectorize:
    def test_storage_order(self):
        x = fortran_tensor([1, 2, 3, 4], (2, 2))
        assert x[0, 0] == 1 and x[1, 0] == 2 and x[0, 1] == 3 and x[1, 1] == 4
        assert np.array_equal(vectorize(x), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_mode0_fold_matches_column_scan(self, rng):
        m = rng.standard_normal((3, 8))
        dims = (3, 2, 4)
        assert np.array_equal(vectorize(fold(m, 0, dims)), m.ravel(order="F"))

    def test_vector_identity(self, rng):
        v = rng.standard_normal(7)
        assert np.array_equal(vectorize(v), v)


class TestKronecker:
    def test_identity_blocks(self):
        assert np.array_equal(kronecker(np.eye(2), np.eye(3)), np.eye(6))

    def test_scalar_factor(self, rng):
        b = rng.standard_normal((3, 4))
        assert np.allclose(kronecker(np.array([[2.0]]), b), 2.0 * b)

    def test_mixed_product_law(self, rng):
        a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
        lhs = kronecker(a, b) @ kronecker(c, d)
        rhs = kronecker(a @ c, b @ d)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_matches_numpy(self, rng):
        a = rng.standard_normal((2, 5))
        b = rng.standard_normal((3, 4))
        assert np.allclose(kronecker(a, b), np.kron(a, b))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_three_four_five(self):
        x = fortran_tensor([3, 4, 0, 0], (2, 2))
        assert frobenius_norm(x) == pytest.approx(5.0)

    def test_invariant_under_unfolding(self, rng):
        x = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            assert frobenius_norm(unfold(x, mode)) == pytest.approx(
                frobenius_norm(x), rel=1e-12
            )
