"""Tests for the deterministic eigensolver / SVD wrappers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qr_projector, random_orthogonal
from tuckerfactor import (
    scenario_config,
    series_moments,
    simulate_dataset,
    subspace_distance,
    thin_left_singular,
    top_k_eigensystem,
)
from tuckerfactor.estimation import _mode_matrix
from tuckerfactor.spectral import _eigensystem, _sine


class TestTopKEigensystem:
    def test_diagonal(self):
        es = top_k_eigensystem(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(es.values, [3.0, 2.0])
        assert np.allclose(np.abs(es.vectors), np.eye(3)[:, :2])
        assert np.all(es.vectors[[0, 1], [0, 1]] > 0)

    def test_rank_one(self, rng):
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        es = top_k_eigensystem(np.outer(u, u), 1)
        assert es.values[0] == pytest.approx(1.0)
        v = es.vectors[:, 0]
        assert v[np.argmax(np.abs(v))] > 0
        assert np.allclose(np.abs(v @ u), 1.0, atol=1e-10)

    def test_full_spectrum_reconstruction(self, rng):
        s = rng.standard_normal((5, 5))
        s = (s + s.T) / 2
        es = top_k_eigensystem(s, 5)
        rebuilt = es.vectors @ np.diag(es.values) @ es.vectors.T
        assert np.allclose(rebuilt, s, atol=1e-10)

    def test_contract_invariants(self, rng):
        s = rng.standard_normal((8, 8))
        s = s @ s.T
        es = top_k_eigensystem(s, 4)
        assert np.all(np.diff(es.values) <= 1e-12)
        assert np.allclose(es.vectors.T @ es.vectors, np.eye(4), atol=1e-10)
        for j in range(4):
            resid = np.linalg.norm(s @ es.vectors[:, j] - es.values[j] * es.vectors[:, j])
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(s))

    def test_determinism(self, rng):
        s = rng.standard_normal((6, 6))
        s = s + s.T
        a = top_k_eigensystem(s, 3)
        b = top_k_eigensystem(s.copy(), 3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            top_k_eigensystem(np.eye(3), 4)
        with pytest.raises(ValueError):
            top_k_eigensystem(np.full((2, 2), np.nan), 1)
        with pytest.raises(ValueError):
            top_k_eigensystem(np.zeros((2, 3)), 1)


class TestThinLeftSingular:
    def test_identity(self):
        u = thin_left_singular(np.eye(3), 2)
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(u), np.eye(3)[:, :2])

    def test_diag_two_one(self):
        u = thin_left_singular(np.diag([2.0, 1.0]), 1)
        assert np.allclose(u[:, 0], [1.0, 0.0])

    def test_gram_matrix_oracle(self, rng):
        m = rng.standard_normal((6, 4))
        u = thin_left_singular(m, 3)
        es = top_k_eigensystem(m @ m.T, 3)
        for j in range(3):
            overlap = np.abs(u[:, j] @ es.vectors[:, j])
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_out_of_range(self, rng):
        with pytest.raises(ValueError):
            thin_left_singular(rng.standard_normal((3, 2)), 3)

    def test_non_finite_rejected(self, rng):
        m = rng.standard_normal((4, 3))
        m[1, 2] = np.nan
        with pytest.raises(ValueError, match="m has non-finite entries"):
            thin_left_singular(m, 2)


class TestSubspaceDistance:
    def test_matches_projector_difference(self, rng):
        for _ in range(30):
            p = int(rng.integers(3, 9))
            k1 = int(rng.integers(1, p))
            k2 = int(rng.integers(1, p))
            a = rng.standard_normal((p, k1))
            b = rng.standard_normal((p, k2))
            diff = qr_projector(a) - qr_projector(b)
            assert subspace_distance(a, b) == pytest.approx(
                np.linalg.norm(diff, 2), abs=1e-10
            )

    def test_small_angle_precision(self, rng):
        a = random_orthogonal(rng, 8)[:, :3]
        b = a + 1e-9 * rng.standard_normal(a.shape)
        d = subspace_distance(a, b)
        assert 0 < d < 1e-8

    @pytest.mark.parametrize("bad", [0, 1])
    def test_non_finite_rejected(self, rng, bad):
        pair = [rng.standard_normal((5, 2)) for _ in range(2)]
        pair[bad][3, 0] = np.nan
        with pytest.raises(ValueError, match=f"^{'ab'[bad]} has non-finite entries"):
            subspace_distance(*pair)


class TestCores:
    """The private cores that the sweep loop calls give the public
    functions' results on the inputs the loop gives them."""

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_sine_of_scaled_orthonormal_pairs(self, p, seed, data):
        # loadings sqrt(p) Q with principal angles down to 1e-10
        k = data.draw(st.integers(1, p // 2))
        exponents = data.draw(st.lists(st.floats(-10, 0.18), min_size=k, max_size=k))
        angles = 10.0 ** np.array(exponents)
        w = random_orthogonal(np.random.default_rng(seed), p)
        old = w[:, :k]
        new = np.cos(angles) * old + np.sin(angles) * w[:, k:2 * k]
        a_new, a_old = math.sqrt(p) * new, math.sqrt(p) * old
        got = _sine(a_new / math.sqrt(p), a_old / math.sqrt(p))
        assert abs(got - subspace_distance(a_new, a_old)) <= 1e-12
        assert abs(got - np.sin(angles.max())) <= 1e-12
        wider = math.sqrt(p) * w[:, :k + 1]
        assert _sine(a_new / math.sqrt(p), wider / math.sqrt(p)) == 1.0
        assert subspace_distance(a_new, wider) == 1.0

    @pytest.mark.parametrize("lags", [(0,), (1, 2)])
    def test_eigensystem_is_top_k_on_mode_matrices(self, lags):
        x, _ = simulate_dataset(scenario_config("II", 12, (7, 6, 5), (2, 2, 2)))
        moments = series_moments(x, (0, 1, 2))
        for d, p_d in enumerate(x.shape[1:]):
            m = _mode_matrix([moments.grams[h][d] for h in lags], lags, len(x),
                             x[0].size)
            core, public = _eigensystem(m), top_k_eigensystem(m, p_d)
            assert np.array_equal(core.values, public.values)
            assert np.array_equal(core.vectors, public.vectors)
