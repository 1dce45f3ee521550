"""Tests for the mode-wise PCA estimators, rank selection and varimax."""

from functools import reduce

import numpy as np
import pytest

from conftest import (
    make_noiseless_series,
    make_orthonormal_loadings,
    needs_vmhwm,
    random_orthogonal,
    run_peak_script,
)
from tuckerfactor import (
    EstimatorConfig,
    column_space_distance,
    estimate_ranks,
    extract_factors,
    ipmopca_fit,
    mode_covariance,
    mopca_fit,
    pmopca_fit,
    projected_mode_covariance,
    projected_series,
    projection_matrix,
    reconstruct_signals,
    scenario_config,
    select_rank_from_eigenvalues,
    signal_rmse,
    simulate_dataset,
    subspace_distance,
    thin_left_singular,
    unfold,
    varimax,
)
from tuckerfactor import estimation, tensor
from tuckerfactor.baseline import itipup_fit
from tuckerfactor.estimation import _varimax_criterion


class TestModeCovariance:
    def test_single_all_ones_observation(self):
        x = np.ones((1, 2, 2))
        expected = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(mode_covariance(x, 0), expected)
        assert np.allclose(mode_covariance(x, 1), expected)

    def test_zero_series(self):
        assert np.array_equal(mode_covariance(np.zeros((3, 2, 2)), 0), np.zeros((2, 2)))

    def test_vector_data_is_second_moment(self, rng):
        x = rng.standard_normal((10, 4))
        expected = sum(np.outer(v, v) for v in x) / (10 * 4)
        assert np.allclose(mode_covariance(x, 0), expected, atol=1e-12)

    def test_symmetric_psd(self, rng):
        x = rng.standard_normal((5, 3, 4))
        for mode in range(2):
            m = mode_covariance(x, mode)
            assert np.allclose(m, m.T)
            assert np.min(np.linalg.eigvalsh(m)) > -1e-12

    def test_matches_per_observation_unfoldings(self, rng):
        x = rng.standard_normal((4, 3, 2, 2))
        for mode in range(3):
            ref = sum(
                unfold(x[t], mode) @ unfold(x[t], mode).T for t in range(4)
            ) / (4 * 12)
            assert np.allclose(mode_covariance(x, mode), ref, atol=1e-12)

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            mode_covariance(np.zeros((0, 2, 2)), 0)
        with pytest.raises(ValueError):
            mode_covariance(rng.standard_normal((3, 2, 2)), 2)


class TestProjectedSeries:
    def test_matches_explicit_kronecker(self, rng):
        dims, ranks = (3, 4, 5), (2, 3, 2)
        x = rng.standard_normal((6,) + dims)
        loadings = [rng.standard_normal((p, k)) for p, k in zip(dims, ranks)]
        for mode in range(3):
            got = projected_series(x, loadings, mode)
            others = [loadings[d] for d in range(3) if d != mode]
            kron = reduce(np.kron, others[::-1])
            p_other = np.prod(dims) // dims[mode]
            for t in range(6):
                ref = unfold(x[t], mode) @ kron / p_other
                assert np.allclose(got[t], ref, rtol=1e-10, atol=1e-10)

    def test_full_rank_scaled_identity_loadings(self, rng):
        # with k_d = p_d and identity-spanning loadings the projection is
        # the raw unfolding up to the scaling constants
        dims = (2, 2, 2)
        x = rng.standard_normal((3,) + dims)
        loadings = [np.sqrt(p) * np.eye(p) for p in dims]
        for mode in range(3):
            got = projected_series(x, loadings, mode)
            p_other = 4
            scale = np.prod([np.sqrt(dims[d]) for d in range(3) if d != mode])
            for t in range(3):
                assert np.allclose(got[t], unfold(x[t], mode) * scale / p_other)

    def test_two_way_single_factor(self, rng):
        x = rng.standard_normal((4, 3, 5))
        loadings = [rng.standard_normal((3, 2)), rng.standard_normal((5, 2))]
        got = projected_series(x, loadings, 0)
        for t in range(4):
            assert np.allclose(got[t], x[t] @ loadings[1] / 5)

    def test_zero_series(self):
        loadings = [np.eye(2), np.eye(3)]
        got = projected_series(np.zeros((2, 2, 3)), loadings, 0)
        assert np.array_equal(got, np.zeros((2, 2, 3)))


class TestProjectedModeCovariance:
    def test_hand_example(self):
        # one all-ones 2x2 observation, mode-1 loading sqrt(2)*e1
        x = np.ones((1, 2, 2))
        loadings = [np.eye(2), np.array([[np.sqrt(2.0)], [0.0]])]
        got = projected_mode_covariance(x, loadings, 0)
        # Y = X A2 / p2 = [sqrt2/2, sqrt2/2]'; M = Y Y' / (T p1)
        expected = np.array([[0.25, 0.25], [0.25, 0.25]])
        assert np.allclose(got, expected, atol=1e-12)

    def test_noiseless_spectrum_gap(self, rng):
        x, loadings, _ = make_noiseless_series(rng, 8, (6, 7, 5), (2, 3, 2))
        for mode, k in [(0, 2), (1, 3), (2, 2)]:
            m = projected_mode_covariance(x, loadings, mode)
            w = np.linalg.eigvalsh(m)[::-1]
            assert w[k - 1] > 0
            assert abs(w[k]) <= 1e-10 * w[0]

    def test_zero_series(self):
        got = projected_mode_covariance(np.zeros((2, 2, 3)), [np.eye(2), np.eye(3)], 0)
        assert np.array_equal(got, np.zeros((2, 2)))


class TestMopca:
    def test_noiseless_recovery(self, rng):
        x, loadings, _ = make_noiseless_series(rng, 10, (8, 9, 10), (2, 3, 4))
        fit = mopca_fit(x, (2, 3, 4), center=False)
        for a_hat, a_true in zip(fit.loadings, loadings):
            assert column_space_distance(a_hat, a_true) <= 1e-8
        assert np.allclose(fit.signals, x, atol=1e-8)

    def test_one_way_equals_plain_pca(self, rng):
        x = rng.standard_normal((30, 6))
        fit = mopca_fit(x, (2,), center=False)
        second_moment = x.T @ x / (30 * 6)
        w, v = np.linalg.eigh(second_moment)
        top = v[:, ::-1][:, :2]
        ref = np.sqrt(6) * top
        for j in range(2):
            overlap = np.abs(fit.loadings[0][:, j] @ ref[:, j]) / 6
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_single_sample_rank_one_is_hosvd_truncation(self, rng):
        # brute-force rank-(1,1,1) HOSVD oracle on a single tensor
        x = rng.standard_normal((1, 4, 5, 6))
        fit = mopca_fit(x, (1, 1, 1), center=False)
        us = [thin_left_singular(unfold(x[0], d), 1) for d in range(3)]
        core = x[0]
        for d, u in enumerate(us):
            core = np.tensordot(u.T, core, axes=(1, d))
            core = np.moveaxis(core, 0, d)
        hosvd = core
        for d, u in enumerate(us):
            hosvd = np.moveaxis(np.tensordot(u, hosvd, axes=(1, d)), 0, d)
        assert np.allclose(fit.signals[0], hosvd, atol=1e-8)

    def test_eigvals_cover_all_mode_sizes(self, rng):
        x = rng.standard_normal((6, 4, 5))
        fit = mopca_fit(x, (2, 2))
        assert [len(v) for v in fit.eigvals] == [4, 5]
        for v in fit.eigvals:
            assert np.all(v >= 0)
            assert np.all(np.diff(v) <= 1e-12)

    def test_rank_exceeds_mode_size(self, rng):
        with pytest.raises(ValueError):
            mopca_fit(rng.standard_normal((5, 3, 3)), (4, 2))


class TestFactorsAndSignals:
    def test_true_loadings_recover_cores(self, rng):
        x, loadings, cores = make_noiseless_series(rng, 6, (7, 8, 9), (2, 2, 3))
        got = extract_factors(x, loadings)
        assert np.allclose(got, cores, atol=1e-10)

    def test_zero_series_gives_zero_cores(self):
        loadings = [np.sqrt(3) * np.eye(3)[:, :1], np.sqrt(4) * np.eye(4)[:, :2]]
        got = extract_factors(np.zeros((2, 3, 4)), loadings)
        assert np.array_equal(got, np.zeros((2, 1, 2)))

    def test_one_way_single_factor_formula(self, rng):
        x = rng.standard_normal((5, 6))
        a = np.sqrt(6) * thin_left_singular(rng.standard_normal((6, 1)), 1)
        got = extract_factors(x, [a])
        expected = (x @ a) / 6
        assert np.allclose(got, expected, atol=1e-12)

    def test_projector_form_agrees(self, rng):
        x, loadings, _ = make_noiseless_series(rng, 4, (5, 6, 4), (2, 2, 2))
        noisy = x + 0.1 * rng.standard_normal(x.shape)
        fit = mopca_fit(noisy, (2, 2, 2), center=False)
        direct = reconstruct_signals(fit.factors, fit.loadings)
        projected = noisy.copy()
        for d, a in enumerate(fit.loadings):
            p = projection_matrix(a)
            projected = np.moveaxis(
                np.tensordot(p, projected, axes=(1, d + 1)), 0, d + 1
            )
        assert np.allclose(direct, projected, atol=1e-10)

    def test_idempotence(self, rng):
        x = rng.standard_normal((4, 5, 6))
        fit = mopca_fit(x, (2, 3), center=False)
        once = fit.signals
        again = reconstruct_signals(extract_factors(once, fit.loadings), fit.loadings)
        assert np.allclose(once, again, atol=1e-10)

    def test_full_rank_reproduces_data(self, rng):
        x = rng.standard_normal((4, 3, 4))
        fit = mopca_fit(x, (3, 4), center=False)
        assert np.allclose(fit.signals, x, atol=1e-10)

    def test_zero_factors_zero_signals(self):
        loadings = [np.sqrt(3) * np.eye(3)[:, :2], np.sqrt(2) * np.eye(2)]
        assert np.array_equal(
            reconstruct_signals(np.zeros((3, 2, 2)), loadings), np.zeros((3, 3, 2))
        )


class TestLazySignals:
    @pytest.mark.parametrize("fit_fn", [mopca_fit, pmopca_fit, ipmopca_fit,
                                        itipup_fit])
    def test_signals_built_once_from_factors_and_loadings(self, rng, fit_fn):
        x = rng.standard_normal((9, 5, 6, 4))
        fit = fit_fn(x, (2, 2, 2))
        assert "signals" not in vars(fit)
        first = fit.signals
        expected = reconstruct_signals(fit.factors, fit.loadings)
        assert first.tobytes() == expected.tobytes()
        assert fit.signals is first

    @pytest.mark.parametrize("fit_fn", [pmopca_fit, ipmopca_fit])
    def test_projected_fits_extract_factors_once(self, rng, monkeypatch, fit_fn):
        # the mode-wise PCA start supplies loadings only, not factors
        calls = []
        original = estimation.extract_factors

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation, "extract_factors", counted)
        fit_fn(rng.standard_normal((9, 5, 6, 4)))
        assert len(calls) == 1

    @pytest.mark.parametrize("fit_fn", [pmopca_fit, ipmopca_fit])
    def test_default_start_is_mopca_loadings(self, rng, fit_fn):
        x = rng.standard_normal((9, 5, 6, 4))
        init = mopca_fit(x, (2, 3, 2)).loadings
        direct, seeded = fit_fn(x, (2, 3, 2)), fit_fn(x, (2, 3, 2), init=init)
        for a, b in zip(direct.loadings, seeded.loadings):
            assert a.tobytes() == b.tobytes()


class TestPmopca:
    def test_noiseless_recovery(self, rng):
        x, loadings, _ = make_noiseless_series(rng, 10, (8, 9, 10), (2, 3, 4))
        fit = pmopca_fit(x, (2, 3, 4), center=False)
        for a_hat, a_true in zip(fit.loadings, loadings):
            assert column_space_distance(a_hat, a_true) <= 1e-8
        assert signal_rmse(fit.signals, x) <= 1e-8

    def test_equals_single_frozen_sweep(self, rng):
        x = rng.standard_normal((12, 5, 6, 4))
        init = mopca_fit(x, (2, 2, 2), center=False).loadings
        one = pmopca_fit(x, (2, 2, 2), init=init, center=False)
        two = ipmopca_fit(
            x, (2, 2, 2), init=init, max_iter=1,
            update_within_sweep=False, center=False,
        )
        for a, b in zip(one.loadings, two.loadings):
            assert np.max(np.abs(a - b)) <= 1e-12


class TestIpmopca:
    def test_noiseless_converges_fast(self, rng):
        x, loadings, _ = make_noiseless_series(rng, 10, (8, 9, 10), (2, 3, 4))
        fit = ipmopca_fit(x, (2, 3, 4), center=False)
        assert fit.converged
        assert fit.iterations <= 2
        assert fit.per_sweep_distance[-1] <= 1e-10
        for a_hat, a_true in zip(fit.loadings, loadings):
            assert column_space_distance(a_hat, a_true) <= 1e-8

    def test_infinite_tol_single_sweep(self, rng):
        x = rng.standard_normal((8, 4, 5))
        fit = ipmopca_fit(x, (2, 2), tol=np.inf, center=False)
        assert fit.iterations == 1
        assert fit.converged
        assert len(fit.per_sweep_distance) == 1

    def test_non_convergence_is_flagged_not_raised(self, rng):
        x = rng.standard_normal((8, 5, 6))
        fit = ipmopca_fit(x, (2, 2), tol=1e-30, max_iter=3, center=False)
        assert not fit.converged
        assert fit.iterations == 3
        assert len(fit.per_sweep_distance) == 3

    def test_frobenius_stop_norm(self, rng):
        x = rng.standard_normal((8, 5, 6))
        fit = ipmopca_fit(x, (2, 2), stop_norm="fro", center=False)
        assert fit.per_sweep_distance[-1] >= 0

    def test_within_sweep_uses_fresh_lower_modes(self, rng):
        # Gauss-Seidel and Jacobi style sweeps must genuinely differ on
        # noisy data after one sweep
        x = rng.standard_normal((10, 5, 6, 4))
        a = ipmopca_fit(x, (2, 2, 2), max_iter=1, update_within_sweep=True,
                        center=False)
        b = ipmopca_fit(x, (2, 2, 2), max_iter=1, update_within_sweep=False,
                        center=False)
        diff = max(np.max(np.abs(u - v)) for u, v in zip(a.loadings[1:], b.loadings[1:]))
        assert diff > 0


class TestInitFixesRanks:
    @pytest.mark.parametrize("fit_fn", [pmopca_fit, ipmopca_fit])
    def test_auto_keeps_the_ranks_of_init(self, fit_fn):
        # the projected spectra alone would select the true ranks (2, 3, 4)
        series, _ = simulate_dataset(scenario_config("II", 20, (20, 20, 20), seed=1))
        init = mopca_fit(series, (2, 2, 2)).loadings
        assert estimate_ranks(series, loadings=init, center=True) == (2, 3, 4)
        assert fit_fn(series, init=init).ranks == (2, 2, 2)
        assert fit_fn(series, (2, 3, 4), init=init).ranks == (2, 3, 4)


class TestInitChecked:
    """A bad ``init`` fails by mode before any pass over the series."""

    DIMS = (6, 5, 4)

    def good_init(self):
        return [np.linalg.qr(np.random.default_rng(p).standard_normal((p, 2)))[0]
                for p in self.DIMS]

    @pytest.mark.parametrize("fit_fn", [pmopca_fit, ipmopca_fit])
    @pytest.mark.parametrize("mode, bad, message", [
        (1, np.ones((5, 2)), "mode 1 is not finite and of full column rank"),
        (2, np.zeros((4, 1)), "mode 2 is not finite and of full column rank"),
        (0, np.ones((5, 2)), "mode 0 has shape \\(5, 2\\); it needs 6 rows"),
        (2, np.ones(4), "mode 2 has shape \\(4,\\)"),
        (1, np.zeros((5, 0)), "mode 1 has shape .* at least one column"),
        (0, np.full((6, 2), np.nan), "mode 0 is not finite and of full column rank"),
    ])
    def test_bad_matrix_names_its_mode(self, monkeypatch, rng, fit_fn, mode, bad,
                                       message):
        passes = []
        monkeypatch.setattr(estimation, "series_moments",
                            lambda *args, **kwargs: passes.append(args))
        init = self.good_init()
        init[mode] = bad
        with pytest.raises(ValueError, match=message):
            fit_fn(rng.standard_normal((8,) + self.DIMS), init=init)
        assert passes == []

    @pytest.mark.parametrize("fit_fn", [pmopca_fit, ipmopca_fit])
    def test_one_matrix_per_mode(self, rng, fit_fn):
        with pytest.raises(ValueError, match="init has 2 matrices for 3 modes"):
            fit_fn(rng.standard_normal((8,) + self.DIMS), init=self.good_init()[:2])

    @pytest.mark.parametrize("fit_fn", [pmopca_fit, ipmopca_fit])
    def test_good_init_is_accepted(self, rng, fit_fn):
        fit = fit_fn(rng.standard_normal((8,) + self.DIMS), init=self.good_init())
        assert fit.ranks == (2, 2, 2)


FITS_AND_SELECTOR = [mopca_fit, pmopca_fit, ipmopca_fit, itipup_fit, estimate_ranks]


class TestNonFiniteSeries:
    """NaN or inf fails with a named error from the moments, whichever pass
    builds them, before any loadings are returned."""

    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    def series(self, rng, bad, where=(3, 2, 1, 0)):
        x = rng.standard_normal((7, 6, 5, 4))
        x[where] = bad
        return x

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fit_fn", FITS_AND_SELECTOR)
    def test_every_fit(self, rng, fit_fn, bad, center):
        with pytest.raises(ValueError, match="the series has non-finite entries"):
            fit_fn(self.series(rng, bad), center=center)

    @pytest.mark.parametrize("where", [(0, 0, 0, 0), (6, 5, 4, 3)],
                             ids=["first", "last"])
    @pytest.mark.parametrize("per_tensor", [None, 1 / 2, 1 / 3])
    def test_the_windowed_pass_keeps_the_check(self, monkeypatch, rng, where,
                                               per_tensor):
        # NaN in the first or last tensor reaches itipup's lag-1 Grams too
        x = self.series(rng, np.nan, where)
        if per_tensor is not None:
            monkeypatch.setattr(tensor, "_CHUNK_ELEMS", int(per_tensor * x[0].size))
        for fit in (mopca_fit, itipup_fit):
            with pytest.raises(ValueError, match="the series has non-finite entries"):
                fit(x, (2, 2, 2), center=False)

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("fit_fn", [pmopca_fit, ipmopca_fit])
    def test_with_init_from_the_first_projected_covariance(self, rng, fit_fn, center):
        x = rng.standard_normal((7, 6, 5, 4))
        init = mopca_fit(x, (2, 2, 2)).loadings
        x[1, 2, 3, 0] = np.nan
        with pytest.raises(ValueError, match="the series has non-finite entries"):
            fit_fn(x, init=init, center=center)
        with pytest.raises(ValueError, match="the series has non-finite entries"):
            estimate_ranks(x, loadings=init, center=center)


class TestTypedErrors:
    """Input that leaves nothing to estimate fails with a named error
    before any loadings are returned."""

    @pytest.mark.parametrize("fit_fn", FITS_AND_SELECTOR)
    def test_complex_input(self, rng, fit_fn):
        x = rng.standard_normal((6, 4, 3)) * (1 + 1j)
        with pytest.raises(ValueError, match="complex input"):
            fit_fn(x)

    @pytest.mark.parametrize("x", [np.ones((5, 4, 3)), np.arange(12.0).reshape(1, 4, 3)],
                             ids=["constant", "single-observation"])
    @pytest.mark.parametrize("fit_fn", [mopca_fit, pmopca_fit, ipmopca_fit])
    def test_degenerate_spectrum_with_explicit_ranks(self, x, fit_fn):
        with pytest.raises(ValueError, match="degenerate spectrum: mode 0"):
            fit_fn(x, (1, 1))

    def test_degenerate_lag_spectrum_with_explicit_ranks(self):
        with pytest.raises(ValueError, match="degenerate spectrum: mode 0"):
            itipup_fit(np.ones((5, 4, 3)), (1, 1))

    @pytest.mark.parametrize("fit_fn", FITS_AND_SELECTOR)
    def test_auto_ranks_on_a_size_one_mode(self, rng, fit_fn):
        with pytest.raises(ValueError, match="mode 1 of dims \\(6, 1, 4\\) has size 1"):
            fit_fn(rng.standard_normal((8, 6, 1, 4)))


class TestEstimateRanks:
    def test_noiseless_truth(self, rng):
        x, _, _ = make_noiseless_series(rng, 10, (10, 10, 10), (2, 3, 4))
        assert estimate_ranks(x, k_max=8) == (2, 3, 4)

    def test_rank_one_with_unit_kmax(self, rng):
        x, _, _ = make_noiseless_series(rng, 8, (6, 6), (1, 1))
        assert estimate_ranks(x, k_max=1) == (1, 1)

    def test_projected_variant(self, rng):
        x, loadings, _ = make_noiseless_series(rng, 10, (10, 10, 10), (2, 3, 4))
        assert estimate_ranks(x, k_max=8, loadings=loadings) == (2, 3, 4)

    def test_kmax_out_of_range(self, rng):
        x = rng.standard_normal((5, 4, 4))
        with pytest.raises(ValueError):
            estimate_ranks(x, k_max=4)
        with pytest.raises(ValueError):
            estimate_ranks(x, k_max=0)

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError):
            estimate_ranks(np.zeros((4, 5, 5)), k_max=3)

    def test_tie_breaks_to_smallest_index(self):
        values = np.array([8.0, 4.0, 2.0, 1.0])  # all ratios equal 2
        assert select_rank_from_eigenvalues(values, 3) == 1


class TestVarimax:
    def test_single_column_unchanged(self, rng):
        a = rng.standard_normal((6, 1))
        rot, q = varimax(a)
        assert np.array_equal(rot, a)
        assert np.array_equal(q, np.eye(1))

    def test_axis_aligned_fixed_point(self):
        a = np.zeros((6, 2))
        a[:3, 0] = [2.0, 1.5, 1.0]
        a[3:, 1] = [1.0, 2.5, 0.5]
        rot, q = varimax(a)
        assert _varimax_criterion(rot) <= _varimax_criterion(a) + 1e-12
        assert np.allclose(np.abs(q), np.eye(2), atol=1e-10)

    def test_rotation_is_orthogonal_and_consistent(self, rng):
        a = rng.standard_normal((15, 4))
        rot, q = varimax(a)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-10)
        assert np.allclose(rot, a @ q, atol=1e-10)

    def test_column_space_preserved(self, rng):
        for _ in range(5):
            a = rng.standard_normal((10, 3))
            rot, _ = varimax(a)
            assert np.allclose(
                projection_matrix(rot), projection_matrix(a), atol=1e-10
            )

    def test_criterion_never_decreases(self, rng):
        for _ in range(5):
            a = rng.standard_normal((12, 4))
            rot, _ = varimax(a)
            assert _varimax_criterion(rot) >= _varimax_criterion(a) - 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            varimax(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestEstimatorInvariants:
    @pytest.mark.parametrize("fit_fn", [mopca_fit, pmopca_fit, ipmopca_fit])
    def test_scaled_orthonormal_loadings(self, rng, fit_fn):
        x = rng.standard_normal((10, 6, 7, 5))
        fit = fit_fn(x, (2, 3, 2))
        for a in fit.loadings:
            p, k = a.shape
            assert np.linalg.norm(a.T @ a / p - np.eye(k)) <= 1e-8

    def test_rotation_equivariance_of_signals(self, rng):
        x = rng.standard_normal((8, 5, 6))
        fit = mopca_fit(x, (2, 3), center=False)
        rotated = [a @ random_orthogonal(rng, a.shape[1]) for a in fit.loadings]
        signals_rot = reconstruct_signals(extract_factors(x, rotated), rotated)
        assert np.allclose(signals_rot, fit.signals, atol=1e-10)

    def test_data_scale_equivariance(self, rng):
        x = rng.standard_normal((8, 5, 6))
        base = mopca_fit(x, (2, 2), center=False)
        scaled = mopca_fit(3.5 * x, (2, 2), center=False)
        assert np.allclose(scaled.factors, 3.5 * base.factors, atol=1e-8)
        assert np.allclose(scaled.signals, 3.5 * base.signals, atol=1e-8)
        for a, b in zip(base.loadings, scaled.loadings):
            assert subspace_distance(a, b) <= 1e-10

    def test_two_way_reduces_to_matrix_factor_pca(self, rng):
        # matrix observations: per-mode PCA on row / column covariances
        x = rng.standard_normal((20, 3, 4))
        fit = mopca_fit(x, (2, 2), center=False)
        row_cov = sum(m @ m.T for m in x) / (20 * 12)
        col_cov = sum(m.T @ m for m in x) / (20 * 12)
        for cov, a in zip((row_cov, col_cov), fit.loadings):
            w, v = np.linalg.eigh(cov)
            top = v[:, ::-1][:, :2]
            assert subspace_distance(a, top) <= 1e-10

    def test_centering_subtracts_temporal_mean(self, rng):
        x = rng.standard_normal((9, 4, 5)) + 7.0
        fit = mopca_fit(x, (2, 2), center=True)
        assert fit.mean is not None
        assert np.allclose(fit.mean, x.mean(axis=0))
        refit = mopca_fit(x - x.mean(axis=0), (2, 2), center=False)
        for a, b in zip(fit.loadings, refit.loadings):
            assert np.array_equal(a, b)

    def test_single_sample_allowed(self, rng):
        fit = mopca_fit(rng.standard_normal((1, 4, 5)), (1, 1), center=False)
        assert fit.factors.shape == (1, 1, 1)


ALL_FITS = [mopca_fit, pmopca_fit, ipmopca_fit, itipup_fit]


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestCentringWithoutCopy:
    """The fits centre per chunk and after projecting, never building the
    centred series; by linearity that is the fit of the centred series."""

    def test_projections_centre_after_projecting(self, rng):
        x = rng.standard_normal((7, 5, 4, 3)) + 3.0
        xc = x - x.mean(axis=0)
        loadings = make_orthonormal_loadings(rng, (5, 4, 3), (2, 3, 2))
        for d in range(3):
            got = projected_series(x, loadings, d, center=True)
            assert relative_error(got, projected_series(xc, loadings, d)) <= 1e-12
            got = projected_mode_covariance(x, loadings, d, center=True)
            assert relative_error(
                got, projected_mode_covariance(xc, loadings, d)) <= 1e-12
        got = extract_factors(x, loadings, center=True)
        assert relative_error(got, extract_factors(xc, loadings)) <= 1e-12

    def test_projection_leaves_its_input_alone(self, rng):
        # a one-way series projects through no other mode
        x = rng.standard_normal((6, 4)) + 2.0
        before = x.copy()
        projected_series(x, [np.ones((4, 1))], 0, center=True)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("fit_fn", ALL_FITS)
    def test_large_offset_agrees_with_precentred_fit(self, fit_fn):
        series, _ = simulate_dataset(scenario_config("II", 30, (9, 8, 7), seed=4))
        u = np.random.default_rng(5).uniform(size=series.shape[1:])
        fit = fit_fn(series + 1e4 * (1 + u), (2, 3, 4))
        ref = fit_fn(series - series.mean(axis=0), (2, 3, 4), center=False)
        for a, b in zip(fit.loadings, ref.loadings):
            assert column_space_distance(a, b) <= 1e-11
        assert relative_error(fit.factors, ref.factors) <= 1e-10


_FIT_PEAK_SCRIPT = """
import sys
import numpy as np
import tuckerfactor as tf

fit = getattr(tf, sys.argv[1])
options = {} if sys.argv[1] in ("mopca_fit", "pmopca_fit") else {"max_iter": 2}
x = np.random.default_rng(0).standard_normal((32, 64, 64, 32))
fit(x[:4, :8, :8, :8], (2, 3, 4), **options)  # loads the BLAS and LAPACK paths
before = peak_kib()
fit(x, (2, 3, 4), **options)
print((peak_kib() - before) * 1024 / x.nbytes)
"""


@needs_vmhwm
@pytest.mark.parametrize("fit_fn", ALL_FITS)
def test_fit_holds_the_series_once(fit_fn):
    # peak RSS growth of a fresh process fitting a 32 MiB series; a centred
    # copy of the series grows it by at least the series
    assert float(run_peak_script(_FIT_PEAK_SCRIPT, fit_fn.__name__)) <= 0.25


_FIT_LARGE_TENSOR_PEAK_SCRIPT = """
import sys
import numpy as np
import tuckerfactor as tf

fit = getattr(tf, sys.argv[1])
options = {} if sys.argv[1] in ("mopca_fit", "pmopca_fit") else {"max_iter": 2}
x = np.random.default_rng(0).standard_normal((4, 128, 128, 128))
fit(x[:4, :8, :8, :8], (2, 3, 4), **options)  # loads the BLAS and LAPACK paths
before = peak_kib()
fit(x, (2, 3, 4), **options)
print((peak_kib() - before) * 1024 / x.nbytes)
"""


@needs_vmhwm
@pytest.mark.parametrize("fit_fn", ALL_FITS)
def test_fit_holds_a_few_windows_of_a_large_tensor(fit_fn):
    # four 16 MiB tensors, each 8 times the piece budget: the fit adds its
    # mean (a quarter of the 64 MiB series) and a few windows; a centring
    # buffer of whole tensors adds one tensor, and two for itipup's lag
    assert float(run_peak_script(_FIT_LARGE_TENSOR_PEAK_SCRIPT,
                                 fit_fn.__name__)) <= 0.4


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.method == "mopca"
        assert cfg.ranks == "auto"
        assert cfg.tol == 1e-6
        assert cfg.max_iter == 50
        assert cfg.update_within_sweep
        assert cfg.center

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(method="nope")
        with pytest.raises(ValueError):
            EstimatorConfig(tol=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(max_iter=0)

    @pytest.mark.parametrize("lags", [0, -1])
    def test_lags_below_one_rejected(self, lags):
        with pytest.raises(ValueError, match="lags"):
            EstimatorConfig(method="itipup", lags=lags)
