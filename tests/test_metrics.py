"""Tests for the evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal
from tuckerfactor import (
    column_space_distance,
    mopca_fit,
    rank_accuracy,
    reconstruction_error,
    signal_rmse,
)


class TestColumnSpaceDistance:
    def test_identical(self, rng):
        a = rng.standard_normal((6, 2))
        assert column_space_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_one_dim_subspaces(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert column_space_distance(e1, e2) == pytest.approx(1.0)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 9), data=st.data())
    def test_invariant_to_invertible_right_factor(self, seed, p, data):
        # a of condition number at most 100, m at most 10
        k = data.draw(st.integers(1, p))
        sa = data.draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
        sm = data.draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k))
        rng = np.random.default_rng(seed)
        a = random_orthogonal(rng, p)[:, :k] * sa @ random_orthogonal(rng, k)
        q = random_orthogonal(rng, k)
        m = random_orthogonal(rng, k) * sm @ random_orthogonal(rng, k)
        assert column_space_distance(a @ q, a) <= 1e-10
        assert column_space_distance(a @ m, a) <= 1e-8

    def test_bounds(self, rng):
        for _ in range(20):
            a = rng.standard_normal((7, int(rng.integers(1, 5))))
            b = rng.standard_normal((7, int(rng.integers(1, 5))))
            d = column_space_distance(a, b)
            assert 0.0 <= d <= 1.0

    def test_pseudometric_properties(self, rng):
        for _ in range(20):
            mats = [rng.standard_normal((8, 2)) for _ in range(3)]
            dab = column_space_distance(mats[0], mats[1])
            dba = column_space_distance(mats[1], mats[0])
            dac = column_space_distance(mats[0], mats[2])
            dcb = column_space_distance(mats[2], mats[1])
            assert dab == pytest.approx(dba, abs=1e-10)
            assert dab <= dac + dcb + 1e-10

    def test_rank_deficient_rejected(self, rng):
        col = rng.standard_normal((5, 1))
        with pytest.raises(ValueError):
            column_space_distance(np.hstack([col, col]), rng.standard_normal((5, 2)))

    @pytest.mark.parametrize("bad", ["a_hat", "a_true"])
    def test_non_finite_rejected(self, rng, bad):
        mats = {"a_hat": rng.standard_normal((5, 2)), "a_true": rng.standard_normal((5, 2))}
        mats[bad][1, 0] = np.nan
        with pytest.raises(ValueError, match=f"{bad} has non-finite entries"):
            column_space_distance(**mats)


class TestSignalRmse:
    def test_identical(self, rng):
        s = rng.standard_normal((3, 4, 5))
        assert signal_rmse(s, s) == 0.0

    def test_constant_offset(self, rng):
        s = rng.standard_normal((3, 4, 5))
        assert signal_rmse(s + 0.7, s) == pytest.approx(0.7)

    def test_hand_example(self):
        s_true = np.zeros((1, 2))
        s_hat = np.array([[3.0, 4.0]])
        assert signal_rmse(s_hat, s_true) == pytest.approx(5.0 / np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            signal_rmse(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 6, 5, 3)])
    def test_matches_whole_array_formula(self, rng, shape):
        # accumulated per tensor; the whole-array formula is the reference
        s_hat, s_true = rng.standard_normal(shape), rng.standard_normal(shape)
        reference = np.sqrt(np.mean((s_hat - s_true) ** 2))
        assert signal_rmse(s_hat, s_true) == pytest.approx(reference, rel=1e-12)


class TestRankAccuracy:
    def test_cases(self):
        assert rank_accuracy((2, 3, 4), (2, 3, 4)) == 100.0
        assert rank_accuracy((2, 3, 5), (2, 3, 4)) == pytest.approx(66.67, abs=0.01)
        assert rank_accuracy((1, 1, 1), (2, 3, 4)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_accuracy((1, 2), (1, 2, 3))


class TestReconstructionError:
    def test_perfect(self, rng):
        x = rng.standard_normal((3, 4, 5))
        assert reconstruction_error(x, x) == 0.0

    def test_zero_signals(self, rng):
        x = rng.standard_normal((3, 4, 5))
        assert reconstruction_error(x, np.zeros_like(x)) == pytest.approx(1.0)

    def test_monotone_in_ranks(self, rng):
        x = rng.standard_normal((6, 5, 5, 5))
        small = mopca_fit(x, (1, 1, 1), center=False)
        larger = mopca_fit(x, (2, 2, 2), center=False)
        assert reconstruction_error(x, larger.signals) < reconstruction_error(
            x, small.signals
        )

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            reconstruction_error(np.zeros((2, 2)), np.zeros((2, 2)))
