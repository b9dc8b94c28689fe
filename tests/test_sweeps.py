import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armrc import sweeps
from armrc.core import (
    InputCondition,
    PressureStateSeries,
    TEST_WINDOW,
    TimeGrid,
    Window,
)
from armrc.profiles import generate_profile
from armrc.readout import assemble, nrmse_percent, predict, solve_reduced, train
from armrc.surrogate import SurrogateParams, simulate
from armrc.sweeps import (
    SweepSpec,
    all_profile_pairs,
    block_mean,
    block_nrmse,
    full_width,
    multitask_grid,
    multitask_training_subsets,
    nested_bending_subsets,
    nested_payload_subsets,
    sample_count_sweep,
    sensor_ablation_sweep,
    simulate_conditions,
    subset_sweep,
    tip_sensor_masks,
    train_on_subset,
    training_window,
    window_factor,
)
from armrc.tasks import TaskKind, bending_target, estimate_mass, mass_error_percent

P = InputCondition


def _noise_free(cfg, *conds):
    return simulate_conditions(cfg.surrogate, cfg.profiles, cfg.payloads,
                               cfg.grid, conds, with_noise=False)


class TestFamilies:
    def test_nested_bending_subsets_grow_from_one_to_seven(self):
        fams = nested_bending_subsets()
        assert [len(f) for f in fams] == [1, 2, 3, 4, 5, 6, 7]
        assert fams[0] == (P(1, 1),)
        assert fams[1] == (P(1, 1), P(7, 1))

    def test_all_pairs_is_21(self):
        pairs = all_profile_pairs()
        assert len(pairs) == 21
        assert pairs[0] == (P(1, 1), P(2, 1))

    def test_nested_payload_subsets_are_nested(self):
        fams = nested_payload_subsets()
        assert [len(f) for f in fams] == [2, 3, 4, 5, 6]
        for small, big in zip(fams, fams[1:]):
            assert set(small) <= set(big)

    def test_tip_masks(self):
        masks = tip_sensor_masks()
        assert masks[0] == (1, 2, 3, 4, 5, 6)
        assert masks[-1] == (5, 6)

    def test_multitask_subsets(self):
        subs = multitask_training_subsets()
        assert len(subs["2x2"]) == 4
        assert len(subs["5x2"]) == 10
        assert len(subs["3x3"]) == 9
        assert P(1, 1) in subs["2x2"] and P(7, 5) in subs["2x2"]


class TestSubsetSweep:
    def test_row_means_match_grid(self, cfg, bending_runs):
        spec = SweepSpec(
            task=TaskKind.BENDING_ANGLE,
            subsets=((P(1, 1),), (P(1, 1), P(7, 1))),
            evaluation=tuple(P(i, 1) for i in range(1, 8)),
            base_seed=cfg.seed,
        )
        res = subset_sweep(spec, bending_runs, cfg.payloads)
        assert res.error_grid.shape == (2, 7)
        assert np.array_equal(res.row_means, res.error_grid.mean(axis=1))

    def test_missing_condition_is_named(self, cfg, bending_runs):
        spec = SweepSpec(
            task=TaskKind.BENDING_ANGLE,
            subsets=((P(1, 2),),),
            evaluation=(P(1, 1),),
        )
        with pytest.raises(KeyError, match="P1M2"):
            subset_sweep(spec, bending_runs, cfg.payloads)

    def test_deterministic_given_fixed_runs(self, cfg, bending_runs):
        spec = SweepSpec(
            task=TaskKind.BENDING_ANGLE,
            subsets=((P(1, 1), P(7, 1)),),
            evaluation=(P(4, 1),),
        )
        a = subset_sweep(spec, bending_runs, cfg.payloads)
        b = subset_sweep(spec, bending_runs, cfg.payloads)
        assert np.array_equal(a.error_grid, b.error_grid)

    def test_full_window_cap_is_a_no_op(self, cfg, bending_runs):
        base = SweepSpec(
            task=TaskKind.BENDING_ANGLE,
            subsets=((P(1, 1), P(7, 1)),),
            evaluation=(P(4, 1),),
        )
        capped = SweepSpec(
            task=TaskKind.BENDING_ANGLE,
            subsets=((P(1, 1), P(7, 1)),),
            evaluation=(P(4, 1),),
            samples_per_condition=1000,
        )
        a = subset_sweep(base, bending_runs, cfg.payloads)
        b = subset_sweep(capped, bending_runs, cfg.payloads)
        assert np.array_equal(a.error_grid, b.error_grid)

    def test_zero_payload_mass_evaluation_rejected(self, cfg, payload_runs):
        spec = SweepSpec(
            task=TaskKind.PAYLOAD_MASS,
            subsets=((P(1, 2), P(1, 7)),),
            evaluation=(P(1, 1),),
        )
        with pytest.raises(ValueError, match="zero-payload"):
            subset_sweep(spec, payload_runs, cfg.payloads)

    def test_adding_a_condition_never_shrinks_training_residual(self, cfg):
        # noise-free: the joint fit can only fit the original subset worse
        params = SurrogateParams(noise_std=0.0)
        conds = [P(1, 1), P(4, 1), P(7, 1)]
        runs = simulate_conditions(params, cfg.profiles, cfg.payloads,
                                   cfg.grid, conds)
        window = cfg.train

        def residual(subset, weights):
            data = [(runs[c], np.asarray(runs[c].theta)) for c in subset]
            asm = assemble(data, window)
            pred = asm.states @ weights.weights[:, 0]
            return float(np.mean((pred - asm.targets[:, 0]) ** 2))

        small = [P(1, 1), P(4, 1)]
        w_small = train_on_subset(small, runs, cfg.payloads,
                                  TaskKind.BENDING_ANGLE, window)
        w_big = train_on_subset(conds, runs, cfg.payloads,
                                TaskKind.BENDING_ANGLE, window)
        assert residual(small, w_big) >= residual(small, w_small) - 1e-12


class TestSampleCountRule:
    # 24.99 s at 40 Hz is 999.6 samples and `window_indices` floors it to
    # 999 rows; a count of 1000 would train past the end of the window
    SHORT = Window(50.0, 74.99)

    def spec(self, samples=None):
        return SweepSpec(task=TaskKind.BENDING_ANGLE,
                         subsets=((P(1, 1), P(7, 1)),),
                         evaluation=(P(4, 1),), train_window=self.SHORT,
                         samples_per_condition=samples)

    def test_full_count_equals_the_uncapped_window(self, cfg, bending_runs):
        uncapped = subset_sweep(self.spec(), bending_runs, cfg.payloads)
        capped = subset_sweep(self.spec(999), bending_runs, cfg.payloads)
        assert np.array_equal(capped.error_grid, uncapped.error_grid)

    def test_one_past_the_full_count_is_refused(self, cfg, bending_runs):
        with pytest.raises(ValueError, match="1000"):
            subset_sweep(self.spec(1000), bending_runs, cfg.payloads)

    def test_sample_count_sweep_refuses_it_too(self, cfg):
        with pytest.raises(ValueError, match="1000"):
            sample_count_sweep(
                TaskKind.BENDING_ANGLE, [999, 1000], [P(1, 1)], [P(1, 1)],
                cfg.surrogate, _noise_free(cfg, P(1, 1)), cfg.payloads,
                cfg.grid, train_window=self.SHORT, repeats=1,
            )


class TestSampleCountSweep:
    def test_count_beyond_window_rejected(self, cfg):
        with pytest.raises(ValueError, match="sample count"):
            sample_count_sweep(
                TaskKind.BENDING_ANGLE, [2000], [P(1, 1)], [P(1, 1)],
                cfg.surrogate, _noise_free(cfg, P(1, 1)), cfg.payloads,
                cfg.grid, repeats=1,
            )

    def test_a_condition_missing_from_the_runs_is_refused(self, cfg):
        with pytest.raises(KeyError, match="P4M1 is not present"):
            sample_count_sweep(
                TaskKind.BENDING_ANGLE, [400], [P(1, 1)], [P(4, 1)],
                cfg.surrogate, _noise_free(cfg, P(1, 1)), cfg.payloads,
                cfg.grid, repeats=1,
            )

    def test_full_count_matches_subset_sweep(self, cfg, bending_runs):
        res = sample_count_sweep(
            TaskKind.BENDING_ANGLE, [1000], [P(1, 1), P(7, 1)], [P(4, 1)],
            cfg.surrogate, _noise_free(cfg, P(1, 1), P(7, 1), P(4, 1)),
            cfg.payloads, cfg.grid, repeats=1, base_seed=cfg.seed,
        )
        spec = SweepSpec(
            task=TaskKind.BENDING_ANGLE,
            subsets=((P(1, 1), P(7, 1)),),
            evaluation=(P(4, 1),),
        )
        ref = subset_sweep(spec, bending_runs, cfg.payloads)
        assert res.mean_grid[0, 0] == pytest.approx(ref.error_grid[0, 0])
        assert res.std_grid[0, 0] == 0.0

    def test_repeats_vary_only_the_noise_seed(self, cfg):
        res = sample_count_sweep(
            TaskKind.BENDING_ANGLE, [400], [P(1, 1), P(7, 1)], [P(4, 1)],
            cfg.surrogate, _noise_free(cfg, P(1, 1), P(7, 1), P(4, 1)),
            cfg.payloads, cfg.grid, repeats=3, base_seed=cfg.seed,
        )
        assert res.std_grid[0, 0] > 0.0

    def test_repeats_score_exactly_the_runs_simulate_gives(self, cfg,
                                                           monkeypatch):
        # the noise-free states are simulated once and each repeat only
        # adds its noise; that must equal simulating at base_seed + r
        seen = []

        def spy(subset, runs, *args):
            seen.append(runs)
            return train_on_subset(subset, runs, *args)

        monkeypatch.setattr(sweeps, "train_on_subset", spy)
        subset, evaluation = (P(1, 1), P(7, 2)), (P(4, 3),)
        sample_count_sweep(
            TaskKind.BENDING_ANGLE, [100, 400], subset, evaluation,
            cfg.surrogate, _noise_free(cfg, *subset, *evaluation),
            cfg.payloads, cfg.grid, repeats=3, base_seed=11,
        )
        per_repeat = list({id(runs): runs for runs in seen}.values())
        assert len(per_repeat) == 3
        for r, runs in enumerate(per_repeat):
            for cond in subset + evaluation:
                alone = simulate(
                    cfg.surrogate,
                    generate_profile(cfg.profiles[cond.profile_index - 1],
                                     cfg.grid),
                    cfg.payloads.mass_of(cond.payload_index), cfg.grid,
                    condition=cond, seed=11 + r,
                )
                assert np.array_equal(runs[cond].sensors, alone.sensors)
                assert np.array_equal(runs[cond].theta, alone.theta)


class TestAblation:
    def test_full_mask_reproduces_baseline(self, cfg, bending_runs):
        evaluation = tuple(P(i, 1) for i in range(1, 8))
        res = sensor_ablation_sweep(
            TaskKind.BENDING_ANGLE,
            [tuple(range(7))],
            (P(1, 1), P(7, 1)), evaluation, bending_runs, cfg.payloads,
        )
        spec = SweepSpec(
            task=TaskKind.BENDING_ANGLE,
            subsets=((P(1, 1), P(7, 1)),),
            evaluation=evaluation,
        )
        ref = subset_sweep(spec, bending_runs, cfg.payloads)
        assert np.array_equal(res.error_grid[0], ref.error_grid[0])

    def test_weight_shares_sum_to_100_over_included_sensors(self, cfg,
                                                            bending_runs):
        res = sensor_ablation_sweep(
            TaskKind.BENDING_ANGLE,
            tip_sensor_masks(),
            (P(1, 1), P(7, 1)),
            (P(4, 1),), bending_runs, cfg.payloads,
        )
        for row, mask in zip(res.weight_shares, res.masks):
            included = row[~np.isnan(row)]
            assert included.size == len(mask)
            assert included.sum() == pytest.approx(100.0)

    def test_empty_mask_list_rejected(self, cfg, bending_runs):
        with pytest.raises(ValueError):
            sensor_ablation_sweep(
                TaskKind.BENDING_ANGLE, [], (P(1, 1),), (P(1, 1),),
                bending_runs, cfg.payloads,
            )


class TestBatchIndependence:
    # a sweep factors each (run, window) once and shares those factors
    # between its fits and scores; a subset's weights must not depend on
    # what else it fits or scores, for any task
    @settings(max_examples=20, deadline=None)
    @given(task=st.sampled_from([TaskKind.BENDING_ANGLE,
                                 TaskKind.PAYLOAD_MASS]),
           subsets=st.lists(st.lists(st.integers(1, 7), min_size=1,
                                     max_size=4), min_size=1, max_size=5),
           masks=st.lists(st.lists(st.integers(0, 6), min_size=1,
                                   max_size=7, unique=True),
                          min_size=1, max_size=4),
           ridge=st.sampled_from([0.0, 1e-3]))
    def test_sweep_weights_equal_a_lone_train_on_subset(self, cfg,
                                                        bending_runs,
                                                        payload_runs, task,
                                                        subsets, masks,
                                                        ridge):
        if task is TaskKind.BENDING_ANGLE:
            runs, cond = bending_runs, lambda k: P(k, 1)
        else:
            runs, cond = payload_runs, lambda k: P(1, k)
        subsets = tuple(tuple(cond(k) for k in s) for s in subsets)
        masks = tuple(tuple(m) for m in masks)
        window = training_window(cfg, task)
        with pytest.MonkeyPatch.context() as mp:
            fitted = _spy_on_fits(mp)
            subset_sweep(SweepSpec(task=task, subsets=subsets,
                                   evaluation=(cond(4),),
                                   train_window=window,
                                   sensor_mask=masks[0], ridge=ridge),
                         runs, cfg.payloads)
            sensor_ablation_sweep(task, masks, subsets[0], (cond(4),),
                                  runs, cfg.payloads, train_window=window,
                                  ridge=ridge)
        lone = [train_on_subset(s, runs, cfg.payloads, task, window,
                                masks[0], ridge) for s in subsets]
        lone += [train_on_subset(subsets[0], runs, cfg.payloads, task,
                                 window, m, ridge) for m in masks]
        assert len(fitted) == len(lone)
        for swept, alone in zip(fitted, lone):
            assert swept.sensor_mask == alone.sensor_mask
            assert np.array_equal(swept.weights, alone.weights)

    @pytest.mark.parametrize("geometry", ["2x2", "5x2", "3x3"])
    def test_multitask_columns_equal_lone_single_task_fits(self, cfg,
                                                           multitask_runs,
                                                           geometry):
        payloads = cfg.multitask_payloads
        cells = multitask_training_subsets()[geometry]
        with pytest.MonkeyPatch.context() as mp:
            fitted = _spy_on_fits(mp)
            multitask_grid(cells, multitask_runs, payloads)
        (weights,) = fitted
        for k, task in enumerate(sweeps.MULTITASK_TASKS):
            alone = train_on_subset(cells, multitask_runs, payloads, task,
                                    cfg.train)
            assert weights.task_names[k] == task.value
            assert np.array_equal(weights.weights[:, k], alone.weights[:, 0])


class TestMultitaskGrid:
    def test_grid_shapes_and_pipeline_rule(self, cfg, multitask_runs):
        cells = multitask_training_subsets()["3x3"]
        res = multitask_grid(cells, multitask_runs, cfg.multitask_payloads)
        assert res.detect_output.shape == (7, 5)
        assert res.angle_error.shape == (7, 5)
        # zero-payload column never receives a mass score
        assert np.all(np.isnan(res.mass_error[:, 0]))
        # cells detected present with a real payload carry both scores
        present = res.detect_output <= 0
        for i in range(7):
            for j in range(1, 5):
                if present[i, j]:
                    assert not np.isnan(res.mass_error[i, j])
                    assert not np.isnan(res.angle_error[i, j])
                else:
                    # two-step rule: step 2 skipped entirely
                    assert np.isnan(res.mass_error[i, j])
                    assert np.isnan(res.angle_error[i, j])

    def test_detection_correctness_grid(self, cfg, multitask_runs):
        cells = multitask_training_subsets()["2x2"]
        res = multitask_grid(cells, multitask_runs, cfg.multitask_payloads)
        truth_present = np.array(
            [[m > 0 for m in cfg.multitask_payloads.masses]] * 7
        )
        predicted_present = res.detect_output <= 0
        assert np.array_equal(res.detect_correct,
                              predicted_present == truth_present)

    def test_step2_mean_pools_angle_and_mass(self, cfg, multitask_runs):
        cells = multitask_training_subsets()["3x3"]
        res = multitask_grid(cells, multitask_runs, cfg.multitask_payloads)
        pool = np.concatenate([res.angle_error.ravel(),
                               res.mass_error.ravel()])
        assert res.step2_mean == pytest.approx(np.nanmean(pool))


def _random_series(rng, n=160):
    # theta sits well away from 0, so mass-style window means are too
    sensors = rng.normal(size=(7, n))
    theta = 50.0 + rng.normal(size=7) @ sensors + 0.1 * rng.normal(size=n)
    return PressureStateSeries(grid=TimeGrid(sample_rate=40.0, n_samples=n),
                               s_in=np.zeros(n), sensors=sensors, theta=theta,
                               condition=P(1, 2))


class TestFactoredScore:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           mask=st.lists(st.integers(0, 6), min_size=1, max_size=7,
                         unique=True),
           ridge=st.sampled_from([0.0, 0.5]),
           start=st.integers(80, 120),
           rows=st.integers(1, 40),
           normalizer=st.sampled_from(["range", "maxabs"]))
    def test_block_scores_equal_the_per_trace_scores(self, seed, mask, ridge,
                                                     start, rows, normalizer):
        rng = np.random.default_rng(seed)
        series = _random_series(rng)
        weights = train(assemble([(series, series.theta)], Window(0.0, 2.0),
                                 mask), ridge)
        window = Window(start / 40.0, (start + rows) / 40.0)
        block = window_factor(series, window, normalizer)
        w = full_width(weights, 7)[0]
        truth = bending_target(series, window)
        assert truth.shape == (rows,) and block.n_rows == rows
        try:
            ref = nrmse_percent(predict(weights, series, window), truth,
                                normalizer)
        except ValueError as err:
            # one flat row under "range": both refuse with one message
            with pytest.raises(ValueError, match=str(err)):
                block_nrmse(block, w)
        else:
            assert abs(block_nrmse(block, w) - ref) <= 1e-10 * ref
        mass = estimate_mass(weights, series, window)
        assert abs(block_mean(block, w) - mass) <= 1e-10 * abs(mass)

    def test_flat_truth_keeps_the_zero_scale_error(self):
        rng = np.random.default_rng(3)
        series = _random_series(rng)
        flat = PressureStateSeries(grid=series.grid, s_in=series.s_in,
                                   sensors=series.sensors,
                                   theta=np.full(160, 2.0))
        weights = train(assemble([(series, series.theta)], Window(0.0, 2.0)))
        block = window_factor(flat, Window(2.0, 4.0))
        with pytest.raises(ValueError, match="ground-truth scale is zero"):
            block_nrmse(block, full_width(weights, 7)[0])
        # the mass estimate does not need the angle's scale
        assert block_mean(block, full_width(weights, 7)[0]) == pytest.approx(
            estimate_mass(weights, flat, Window(2.0, 4.0)), rel=1e-10)


class TestScoreSensorCount:
    @pytest.mark.parametrize("evaluation", [(P(4, 1),), (P(1, 1), P(4, 1))])
    def test_a_run_with_fewer_sensors_is_refused(self, cfg, bending_runs,
                                                 evaluation):
        run = bending_runs[P(4, 1)]
        runs = dict(bending_runs)
        runs[P(4, 1)] = PressureStateSeries(
            grid=run.grid, s_in=run.s_in, sensors=run.sensors[:5],
            theta=run.theta, condition=run.condition)
        spec = SweepSpec(task=TaskKind.BENDING_ANGLE,
                         subsets=((P(1, 1), P(7, 1)),), evaluation=evaluation)
        with pytest.raises(ValueError, match="cannot read"):
            subset_sweep(spec, runs, cfg.payloads)


def _lone_score(task, weights, runs, cond, payloads, k=0):
    """A cell's score from a block factored for that condition alone."""
    block = window_factor(runs[cond], TEST_WINDOW)
    w = full_width(weights, runs[cond].n_sensors)[k]
    if task is TaskKind.BENDING_ANGLE:
        return block_nrmse(block, w)
    return mass_error_percent(block_mean(block, w),
                              payloads.mass_of(cond.payload_index))


def _spy_on_fits(mp):
    fitted = []

    def spy(*args, **kwargs):
        fitted.append(solve_reduced(*args, **kwargs))
        return fitted[-1]

    mp.setattr(sweeps, "solve_reduced", spy)
    return fitted


class TestScoreBatchIndependence:
    # a sweep factors each test window once and scores every fit from it;
    # a cell must not depend on what else the sweep scores
    @settings(max_examples=15, deadline=None)
    @given(subsets=st.lists(st.lists(st.integers(1, 7), min_size=1,
                                     max_size=4), min_size=1, max_size=4),
           masks=st.lists(st.lists(st.integers(0, 6), min_size=1,
                                   max_size=7, unique=True),
                          min_size=1, max_size=3),
           ridge=st.sampled_from([0.0, 1e-3]))
    def test_bending_cells_equal_a_lone_factored_score(self, cfg,
                                                       bending_runs, subsets,
                                                       masks, ridge):
        task = TaskKind.BENDING_ANGLE
        subsets = tuple(tuple(P(i, 1) for i in s) for s in subsets)
        evaluation = tuple(P(i, 1) for i in range(1, 8))
        with pytest.MonkeyPatch.context() as mp:
            fitted = _spy_on_fits(mp)
            swept = subset_sweep(
                SweepSpec(task=task, subsets=subsets, evaluation=evaluation,
                          sensor_mask=tuple(masks[0]), ridge=ridge),
                bending_runs, cfg.payloads).error_grid
            ablated = sensor_ablation_sweep(
                task, masks, subsets[0], evaluation, bending_runs,
                cfg.payloads, ridge=ridge).error_grid
        grid = np.vstack([swept, ablated])
        assert len(fitted) == grid.shape[0]
        for weights, row in zip(fitted, grid):
            for cond, cell in zip(evaluation, row):
                assert cell == _lone_score(task, weights, bending_runs, cond,
                                           cfg.payloads)

    def test_mass_cells_equal_a_lone_factored_score(self, cfg, payload_runs):
        task = TaskKind.PAYLOAD_MASS
        evaluation = tuple(P(1, j) for j in range(2, 8))
        window = Window(cfg.train.start, cfg.train.start + 5.0)
        with pytest.MonkeyPatch.context() as mp:
            fitted = _spy_on_fits(mp)
            swept = subset_sweep(
                SweepSpec(task=task, subsets=nested_payload_subsets(),
                          evaluation=evaluation, train_window=window),
                payload_runs, cfg.payloads).error_grid
            ablated = sensor_ablation_sweep(
                task, tip_sensor_masks(), evaluation, evaluation,
                payload_runs, cfg.payloads, train_window=window).error_grid
        grid = np.vstack([swept, ablated])
        assert len(fitted) == grid.shape[0]
        for weights, row in zip(fitted, grid):
            for cond, cell in zip(evaluation, row):
                assert cell == _lone_score(task, weights, payload_runs, cond,
                                           cfg.payloads)

    def test_multitask_cells_equal_a_lone_factored_score(self, cfg,
                                                         multitask_runs):
        payloads = cfg.multitask_payloads
        with pytest.MonkeyPatch.context() as mp:
            fitted = _spy_on_fits(mp)
            res = multitask_grid(multitask_training_subsets()["2x2"],
                                 multitask_runs, payloads)
        (weights,) = fitted
        angle, detect, mass = full_width(weights, 7)
        for i in range(1, 8):
            for j in range(1, len(payloads) + 1):
                cond = P(i, j)
                block = window_factor(multitask_runs[cond], TEST_WINDOW)
                assert res.detect_output[i - 1, j - 1] == block_mean(block,
                                                                     detect)
                cell = res.angle_error[i - 1, j - 1]
                if not np.isnan(cell):
                    assert cell == block_nrmse(block, angle)
                    # and within rounding of the per-trace API
                    ref = nrmse_percent(
                        predict(weights, multitask_runs[cond],
                                TEST_WINDOW)[:, 0],
                        bending_target(multitask_runs[cond], TEST_WINDOW))
                    assert abs(cell - ref) <= 1e-10 * ref
                cell = res.mass_error[i - 1, j - 1]
                if not np.isnan(cell):
                    assert cell == mass_error_percent(
                        block_mean(block, mass), payloads.mass_of(j))
