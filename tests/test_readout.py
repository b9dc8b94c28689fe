import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from armrc.core import InputCondition, PressureStateSeries, TimeGrid, Window
from armrc.readout import (
    NORMALIZERS,
    RCOND,
    ReadoutWeights,
    TrainingAssembly,
    assemble,
    columns,
    correlation_matrix,
    full_width,
    normalize_mask,
    nrmse_percent,
    factor,
    predict,
    rmse,
    solve_reduced,
    train,
    truth_scale,
    window_factor,
)


def normal_equations_oracle(phi, y, rcond=RCOND):
    """Independent reference: explicitly formed Gram pseudoinverse.

    Cutting Gram singular values at (rcond * sigma_max)^2 matches cutting
    the design's singular values at rcond * sigma_max.
    """
    gram = phi.T @ phi
    return np.linalg.pinv(gram, rcond=rcond**2) @ (phi.T @ y)


def ridge_oracle(phi, y, lam):
    gram = phi.T @ phi + lam * np.eye(phi.shape[1])
    return np.linalg.solve(gram, phi.T @ y)


def make_assembly(phi, y):
    y = y if y.ndim == 2 else y[:, None]
    return TrainingAssembly(
        states=phi, targets=y, sensor_mask=tuple(range(phi.shape[1] - 1)),
    )


def random_design(rng, rows=50, cols=5):
    phi = np.hstack([np.ones((rows, 1)), rng.normal(size=(rows, cols))])
    return phi


def series_from_sensors(sensors, rate=40.0, condition=None):
    sensors = np.asarray(sensors, dtype=float)
    n = sensors.shape[1]
    grid = TimeGrid(sample_rate=rate, n_samples=n)
    return PressureStateSeries(
        grid=grid,
        s_in=np.zeros(n),
        sensors=sensors,
        theta=np.zeros(n),
        condition=condition,
    )


class TestTrain:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            phi = random_design(rng, rows=int(rng.integers(20, 100)), cols=7)
            y = rng.normal(size=phi.shape[0])
            w = train(make_assembly(phi, y)).weights[:, 0]
            w_ref = normal_equations_oracle(phi, y)
            assert np.linalg.norm(w - w_ref) <= 1e-8 * max(1.0, np.linalg.norm(w_ref))

    def test_minimum_norm_on_rank_deficient_design(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(60, 3))
        # duplicate a column: infinitely many least-squares solutions
        phi = np.hstack([np.ones((60, 1)), base, base[:, [0]]])
        y = rng.normal(size=60)
        w = train(make_assembly(phi, y)).weights[:, 0]
        w_ref = np.linalg.pinv(phi, rcond=RCOND) @ y
        assert np.allclose(w, w_ref, atol=1e-10)
        # any solution fits equally; the returned one has minimal norm
        assert np.linalg.norm(w) <= np.linalg.norm(w_ref) + 1e-10

    def test_exact_recovery_of_a_noise_free_linear_target(self):
        rng = np.random.default_rng(2)
        phi = random_design(rng, rows=200, cols=7)
        w_true = rng.normal(size=8)
        y = phi @ w_true
        w = train(make_assembly(phi, y)).weights[:, 0]
        assert np.allclose(w, w_true, rtol=1e-8, atol=1e-8)

    def test_multitask_equals_columnwise_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            phi = random_design(rng, rows=40, cols=6)
            targets = rng.normal(size=(40, 3))
            joint = train(make_assembly(phi, targets)).weights
            for k in range(3):
                single = train(make_assembly(phi, targets[:, k])).weights[:, 0]
                assert np.array_equal(joint[:, k], single)

    def test_all_zero_design_returns_zero_weights(self):
        phi = np.zeros((30, 4))
        y = np.ones(30)
        w = train(make_assembly(phi, y)).weights
        assert np.all(w == 0.0)

    def test_ridge_matches_regularized_normal_equations(self):
        rng = np.random.default_rng(4)
        phi = random_design(rng, rows=80, cols=7)
        y = rng.normal(size=80)
        w = train(make_assembly(phi, y), ridge=0.5).weights[:, 0]
        assert np.allclose(w, ridge_oracle(phi, y, 0.5), atol=1e-10)

    def test_ridge_penalizes_the_bias(self):
        # the penalty covers every column, the bias included, so the bias
        # of a constant target shrinks instead of fitting it exactly
        rng = np.random.default_rng(8)
        phi = random_design(rng, rows=80, cols=7)
        y = np.full(80, 100.0)
        w = train(make_assembly(phi, y), ridge=1e3).weights[:, 0]
        assert w[0] < 100.0
        assert np.allclose(w, ridge_oracle(phi, y, 1e3), rtol=0, atol=1e-10)

    def test_row_permutation_leaves_solution_unchanged(self):
        rng = np.random.default_rng(5)
        phi = random_design(rng, rows=60, cols=5)
        y = rng.normal(size=60)
        perm = rng.permutation(60)
        for lam in (0.0, 0.3):
            w = train(make_assembly(phi, y), ridge=lam).weights
            w_perm = train(make_assembly(phi[perm], y[perm]), ridge=lam).weights
            assert np.allclose(w, w_perm, atol=1e-10)

    def test_duplicating_all_rows_preserves_the_pseudoinverse_solution(self):
        rng = np.random.default_rng(6)
        phi = random_design(rng, rows=50, cols=5)
        y = rng.normal(size=50)
        w = train(make_assembly(phi, y)).weights
        w_dup = train(make_assembly(np.vstack([phi, phi]),
                                    np.concatenate([y, y]))).weights
        assert np.allclose(w, w_dup, atol=1e-10)

    def test_rejects_negative_ridge_and_empty_assembly(self):
        rng = np.random.default_rng(7)
        phi = random_design(rng, rows=10, cols=3)
        y = rng.normal(size=10)
        with pytest.raises(ValueError):
            train(make_assembly(phi, y), ridge=-1.0)
        with pytest.raises(ValueError):
            train(make_assembly(np.empty((0, 4)), np.empty(0)))


def _stacked_reduced_fit(phi, y, sizes, mask, ridge):
    """Train on the stacked (R, Q^T y) rows of consecutive row blocks'
    factors, keeping the bias column and the masked sensor columns."""
    cols = [0] + [1 + m for m in mask]
    edges = np.cumsum([0] + list(sizes))
    blocks = [[factor(phi[a:b], y[a:b, k]) for k in range(y.shape[1])]
              for a, b in zip(edges[:-1], edges[1:])]
    return solve_reduced(
        np.vstack([b[0].r[:, cols] for b in blocks])[None],
        np.vstack([np.column_stack([f.z for f in b]) for b in blocks])[None],
        ridge)[0]


class TestFactoredFit:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           n_tasks=st.integers(1, 3),
           ridge=st.sampled_from([0.0, 0.5]),
           data=st.data())
    def test_stacked_blocks_match_a_fit_on_the_rows(self, seed, sizes,
                                                    n_tasks, ridge, data):
        mask = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=7,
                                  unique=True))
        rows = sum(sizes)
        # enough rows for a well-conditioned full-column-rank design
        assume(rows >= 3 * (len(mask) + 1))
        rng = np.random.default_rng(seed)
        phi = random_design(rng, rows=rows, cols=7)
        y = rng.normal(size=(rows, n_tasks))
        w = _stacked_reduced_fit(phi, y, sizes, mask, ridge)
        design = phi[:, [0] + [1 + m for m in mask]]
        if ridge == 0.0:
            ref = np.linalg.lstsq(design, y, rcond=None)[0]
        else:
            ref = ridge_oracle(design, y, ridge)
        assert np.linalg.norm(w - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_rank_deficient_blocks_keep_the_rcond_cutoff(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(90, 4))
        # s7 duplicates s1: the zero singular value must be cut, giving
        # the minimum-norm solution with equal weight on both copies
        phi = np.hstack([np.ones((90, 1)), base, rng.normal(size=(90, 2)),
                         base[:, [0]]])
        y = rng.normal(size=(90, 1))
        w = _stacked_reduced_fit(phi, y, (5, 40, 45), range(7), 0.0)
        assert np.allclose(w, np.linalg.pinv(phi, rcond=RCOND) @ y,
                           atol=1e-10)
        assert w[1, 0] == pytest.approx(w[7, 0], abs=1e-10)


class TestStackedSolve:
    # one SVD call for a stack runs LAPACK, and each stacked matmul BLAS,
    # once per matrix: a readout does not depend on what else is stacked
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           rows=st.integers(1, 56), cols=st.integers(1, 8),
           n_tasks=st.integers(1, 3), ridge=st.sampled_from([0.0, 0.5]),
           shared=st.booleans())
    def test_each_readout_equals_its_solve_alone(self, seed, n, rows, cols,
                                                 n_tasks, ridge, shared):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=(n, rows, cols))
        # every other matrix rank-deficient, so the RCOND cut is per matrix
        r[::2, :, -1] = r[::2, :, 0]
        z = rng.normal(size=(1 if shared else n, rows, n_tasks))
        w = solve_reduced(r, z, ridge)
        assert w.shape == (n, cols, n_tasks)
        for i in range(n):
            alone = solve_reduced(r[i:i + 1], z[:1] if shared else z[i:i + 1],
                                  ridge)
            assert np.array_equal(alone[0], w[i])


class TestWindowFactor:
    # Phi's first column is all ones, so Q^T (c 1) = c R[:, 0]: the sweeps
    # build constant (mass, detect) targets from R with no target trace
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
           sensors=st.integers(0, 7),
           c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
    def test_a_constant_target_is_c_times_the_bias_column_of_r(
            self, seed, rows, sensors, c):
        # rows < 1 + sensors gives a wide design and a wide R
        phi = random_design(np.random.default_rng(seed), rows=rows,
                            cols=sensors)
        q, r = np.linalg.qr(phi)
        target = np.full(rows, c)
        f = factor(phi, target)
        assert np.array_equal(f.r, r)
        ref = q.T @ target
        assert np.linalg.norm(c * f.r[:, 0] - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(f.z, ref)
        assert f.floor <= 1e-24 * (target @ target)


class TestDesign:
    # the all-sensor design [1 | S] of any arm: `full_width` puts masked
    # weights on their `columns`, `window_factor` factors the window's
    # design rows, and `predict` is those rows times `full_width`
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           start=st.integers(0, 5), rows=st.integers(1, 40),
           n_tasks=st.integers(1, 3), data=st.data())
    def test_full_width_window_factor_and_predict_share_the_design(
            self, seed, n, start, rows, n_tasks, data):
        mask = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=n, unique=True)))
        rng = np.random.default_rng(seed)
        # 8 Hz: every window edge is exact in binary
        series = PressureStateSeries(
            grid=TimeGrid(sample_rate=8.0, n_samples=start + rows + 3),
            s_in=np.zeros(start + rows + 3),
            sensors=rng.normal(size=(n, start + rows + 3)),
            theta=rng.normal(size=start + rows + 3))
        window = Window(start / 8.0, (start + rows) / 8.0)
        weights = ReadoutWeights(rng.normal(size=(1 + len(mask), n_tasks)),
                                 mask)

        wide = full_width(weights, n)
        outside = sorted(set(range(1 + n)) - set(columns(mask)))
        assert wide.shape == (n_tasks, 1 + n)
        assert np.all(wide[:, outside] == 0.0)
        assert np.array_equal(wide[:, columns(mask)], weights.weights.T)

        design = np.hstack([np.ones((rows, 1)),
                            series.sensors[:, start:start + rows].T])
        got = window_factor(series, window)
        ref = factor(design, series.theta[start:start + rows])
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

        pred = predict(weights, series, window).reshape(rows, n_tasks)
        assert np.array_equal(pred, design @ wide.T)

    @pytest.mark.parametrize("n", [1, 5, 7])
    def test_a_mask_the_run_lacks_is_refused_alike(self, n):
        weights = ReadoutWeights(np.ones((2, 1)), (n,))
        series = series_from_sensors(np.zeros((n, 40)))
        message = f"cannot read a {n}-sensor run"
        with pytest.raises(ValueError, match=message):
            full_width(weights, n)
        with pytest.raises(ValueError, match=message):
            predict(weights, series)


class TestAssemble:
    def test_two_conditions_stack_to_2000_by_8(self):
        rng = np.random.default_rng(8)
        window = Window(50.0, 75.0)
        data = []
        for i in (1, 7):
            sensors = rng.normal(size=(7, 4000))
            series = series_from_sensors(sensors, condition=InputCondition(i, 1))
            data.append((series, rng.normal(size=4000)))
        asm = assemble(data, window)
        assert asm.states.shape == (2000, 8)
        assert asm.targets.shape == (2000, 1)
        assert np.all(asm.states[:, 0] == 1.0)
        # row order follows the condition list then time
        assert np.array_equal(asm.states[0, 1:], data[0][0].sensors[:, 2000])

    def test_mask_shrinks_the_design_width(self):
        rng = np.random.default_rng(9)
        series = series_from_sensors(rng.normal(size=(7, 4000)))
        asm = assemble([(series, np.zeros(4000))], Window(50.0, 75.0),
                       sensor_mask=(4, 5, 6))
        assert asm.states.shape == (1000, 4)

    def test_five_second_windows_give_200_rows_per_condition(self):
        rng = np.random.default_rng(10)
        window = Window(50.0, 55.0)
        data = [(series_from_sensors(rng.normal(size=(7, 4000))),
                 np.full(4000, 100.0)) for _ in range(6)]
        asm = assemble(data, window)
        assert asm.states.shape == (1200, 8)

    def test_rejects_empty_and_mismatched_inputs(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            assemble([], Window(0.0, 1.0))
        series = series_from_sensors(rng.normal(size=(7, 4000)))
        with pytest.raises(ValueError):
            assemble([(series, np.zeros(100))], Window(50.0, 75.0))

    def test_rejects_bad_masks(self):
        series = series_from_sensors(np.zeros((7, 100)))
        data = [(series, np.zeros(100))]
        with pytest.raises(ValueError):
            assemble(data, Window(0.0, 1.0), sensor_mask=())
        with pytest.raises(ValueError):
            assemble(data, Window(0.0, 1.0), sensor_mask=(0, 0))
        with pytest.raises(ValueError):
            assemble(data, Window(0.0, 1.0), sensor_mask=(9,))


class TestPredict:
    def test_zero_weights_give_zero_trace(self):
        weights = ReadoutWeights(np.zeros((8, 1)), tuple(range(7)))
        series = series_from_sensors(np.random.default_rng(0).normal(size=(7, 400)))
        assert np.all(predict(weights, series) == 0.0)

    def test_consistency_with_training(self):
        rng = np.random.default_rng(12)
        sensors = rng.normal(size=(7, 4000))
        w_true = rng.normal(size=8)
        target = w_true[0] + w_true[1:] @ sensors
        series = series_from_sensors(sensors)
        window = Window(50.0, 75.0)
        weights = train(assemble([(series, target)], window))
        pred = predict(weights, series, window)
        i0 = 2000
        assert np.allclose(pred, target[i0:i0 + 1000], atol=1e-8)

    def test_multitask_prediction_shape(self):
        weights = ReadoutWeights(np.ones((8, 3)), tuple(range(7)))
        series = series_from_sensors(np.zeros((7, 50)))
        assert predict(weights, series).shape == (50, 3)


class TestErrors:
    def test_rmse_hand_case(self):
        assert rmse(np.array([1.0, 2.0, 3.0]),
                    np.array([1.0, 2.0, 5.0])) == pytest.approx(
            np.sqrt(4.0 / 3.0), abs=1e-12)

    def test_rmse_constant_offset_is_exactly_the_offset(self):
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        assert rmse(truth + 0.5, truth) == 0.5

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-1e6, 1e6)),
           arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-1e6, 1e6)))
    def test_rmse_symmetric_and_nonnegative(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert rmse(a, b) == rmse(b, a)
        assert rmse(a, b) >= 0.0
        assert rmse(a, a) == 0.0

    def test_rmse_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            rmse(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))

    def test_nrmse_normalizers(self):
        truth = np.array([0.0, 10.0])
        pred = truth + 1.0
        assert nrmse_percent(pred, truth, "range") == pytest.approx(10.0)
        assert nrmse_percent(pred, truth, "maxabs") == pytest.approx(10.0)
        with pytest.raises(ValueError):
            nrmse_percent(pred, truth, "other")
        with pytest.raises(ValueError):
            nrmse_percent(np.ones(3), np.ones(3))  # zero range

    # both normalizers read only a trace's extremes, so the (min, max) span
    # a WindowFactor keeps gives the trace's scale bit for bit
    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-1e6, 1e6)),
           st.sampled_from(NORMALIZERS))
    def test_a_trace_and_its_span_give_one_scale(self, truth, normalizer):
        ref = (float(truth.max() - truth.min()) if normalizer == "range"
               else float(np.abs(truth).max()))
        assert truth_scale(truth, normalizer) == ref
        span = factor(np.ones((truth.size, 1)), truth).span
        assert span == (truth.min(), truth.max())
        assert truth_scale(span, normalizer) == ref


class TestCorrelationMatrix:
    def test_self_and_negation(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=500)
        corr = correlation_matrix([x, -x])
        assert corr[0, 0] == pytest.approx(1.0)
        assert corr[0, 1] == pytest.approx(-1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 1000))
    def test_symmetric_psd_unit_diagonal(self, k, seed):
        rng = np.random.default_rng(seed)
        traces = rng.normal(size=(k, 64))
        corr = correlation_matrix(traces)
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)
        assert np.linalg.eigvalsh(corr).min() >= -1e-9

    def test_zero_variance_convention(self):
        with pytest.warns(UserWarning, match="zero-variance"):
            corr = correlation_matrix([np.ones(10), np.arange(10.0)])
        assert corr[0, 1] == 0.0
        assert corr[0, 0] == 1.0

    def test_rejects_too_short_traces(self):
        with pytest.raises(ValueError):
            correlation_matrix([np.array([1.0]), np.array([2.0])])


class TestMaskHelper:
    def test_none_selects_all(self):
        assert normalize_mask(None, 3) == (0, 1, 2)

    def test_passthrough_and_validation(self):
        assert normalize_mask((2, 0), 3) == (2, 0)
        with pytest.raises(ValueError):
            normalize_mask((3,), 3)
