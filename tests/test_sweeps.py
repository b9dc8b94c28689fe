import dataclasses
import gc
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from armrc import cli, readout, sweeps
from armrc.config import ConfigError, ExperimentConfig, training_window
from armrc.core import (
    InputCondition,
    PayloadSet,
    PressureStateSeries,
    TEST_WINDOW,
    TRAIN_WINDOW,
    TimeGrid,
    Window,
    sample_count,
)
from armrc.readout import NORMALIZERS, full_width, window_factor
from armrc.surrogate import SurrogateParams, add_noise, simulate_conditions
from armrc.sweeps import (
    SweepSpec,
    all_profile_pairs,
    bending_conditions,
    multitask_grid,
    multitask_training_subsets,
    nested_bending_subsets,
    nested_payload_subsets,
    payload_conditions,
    sample_count_sweep,
    sensor_ablation_sweep,
    spread,
    subset_sweep,
    tip_sensor_masks,
    train_on_subset,
)
from armrc.tasks import TaskKind, score

P = InputCondition


def _noise_free(cfg, *conds):
    return simulate_conditions(cfg.surrogate, cfg.profiles, cfg.payloads,
                               cfg.grid, conds, seed=None)


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


# The shipped families, written out: the oracle of the zero-argument calls.
SHIPPED_BENDING = ((1,), (1, 7), (1, 4, 7), (1, 3, 5, 7), (1, 2, 4, 6, 7),
                   (1, 2, 3, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7))
SHIPPED_PAYLOAD = ((2, 7), (2, 4, 7), (2, 4, 6, 7), (2, 3, 4, 6, 7),
                   (2, 3, 4, 5, 6, 7))
SHIPPED_MASKS = ((1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6), (3, 4, 5, 6), (4, 5, 6),
                 (5, 6))
# (profiles, payloads) of each multitask geometry on the 7x5 and 7x7 grids
SHIPPED_MULTITASK = {
    (7, 5): {"2x2": ((1, 7), (1, 5)), "5x2": ((1, 2, 4, 6, 7), (1, 5)),
             "3x3": ((1, 4, 7), (1, 3, 5))},
    (7, 7): {"2x2": ((1, 7), (1, 7)), "5x2": ((1, 2, 4, 6, 7), (1, 7)),
             "3x3": ((1, 4, 7), (1, 4, 7))},
}

SIZES = st.integers(1, 15)


def _indices(family, axis):
    """A family's profile (axis 0) or payload (axis 1) indices, in order."""
    return [(c.profile_index, c.payload_index)[axis] for c in family]


def _well_formed(indices, lo, hi):
    """Sorted, distinct and inside lo..hi."""
    return indices == sorted(set(indices)) and all(lo <= i <= hi
                                                   for i in indices)


class TestIndexRules:
    def test_zero_argument_calls_give_the_shipped_families(self):
        assert nested_bending_subsets() == tuple(
            tuple(P(i, 1) for i in fam) for fam in SHIPPED_BENDING)
        assert nested_payload_subsets() == tuple(
            tuple(P(1, j) for j in fam) for fam in SHIPPED_PAYLOAD)
        assert tip_sensor_masks() == SHIPPED_MASKS
        # perfbench's recorded search reads the 7x7 geometries
        for got, shape in ((multitask_training_subsets(), (7, 5)),
                           (multitask_training_subsets(7, 7), (7, 7))):
            assert got == {name: tuple(P(i, j) for i in rows for j in cols)
                           for name, (rows, cols)
                           in SHIPPED_MULTITASK[shape].items()}
            assert list(got) == ["2x2", "5x2", "3x3"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-5, 20), st.integers(0, 20), st.integers(0, 25))
    def test_spread_keeps_both_ends_and_k_distinct_indices(self, lo, span, k):
        hi = lo + span
        got = list(spread(lo, hi, k))
        assert _well_formed(got, lo, hi)
        assert len(got) == min(k, span + 1)
        if k >= 2:
            assert (got[0], got[-1]) == (lo, hi)

    @settings(max_examples=30, deadline=None)
    @given(SIZES)
    def test_bending_families_grow_one_profile_at_a_time(self, n):
        fams = nested_bending_subsets(n)
        assert [len(fam) for fam in fams] == list(range(1, n + 1))
        for fam in fams:
            assert _well_formed(_indices(fam, 0), 1, n)
            assert set(_indices(fam, 1)) == {1}
            assert fam[0] == P(1, 1) and (len(fam) == 1 or fam[-1] == P(n, 1))
        assert fams[-1] == bending_conditions(n)

    @settings(max_examples=30, deadline=None)
    @given(SIZES)
    def test_payload_families_are_nested_over_the_nonzero_payloads(self, n):
        fams = nested_payload_subsets(n)
        sizes = list(range(min(2, n - 1), n)) if n > 1 else []
        assert [len(fam) for fam in fams] == sizes
        for small, big in zip(fams, fams[1:]):
            assert set(small) < set(big) and len(big) == len(small) + 1
        for fam in fams:
            assert _well_formed(_indices(fam, 1), 2, n)
            assert set(_indices(fam, 0)) == {1}
            assert (fam[0], fam[-1]) == (P(1, 2), P(1, n))
        if n > 1:
            assert fams[-1] == payload_conditions(n)[1:]

    @settings(max_examples=30, deadline=None)
    @given(SIZES)
    def test_tip_masks_keep_n_minus_one_down_to_two_sensors(self, n):
        masks = tip_sensor_masks(n)
        assert [len(mask) for mask in masks] == list(range(n - 1, 1, -1))
        for mask in masks:
            assert mask == tuple(range(n - len(mask), n))

    @settings(max_examples=60, deadline=None)
    @given(SIZES, SIZES)
    def test_multitask_geometries_are_spread_products(self, n_profiles,
                                                      n_payloads):
        geometries = multitask_training_subsets(n_profiles, n_payloads)
        # a name per distinct geometry: a repeat on a small grid is kept once
        assert set(geometries) == {
            f"{min(a, n_profiles)}x{min(b, n_payloads)}"
            for a, b in ((2, 2), (5, 2), (3, 3))}
        for name, cells in geometries.items():
            a, b = map(int, name.split("x"))
            rows = list(dict.fromkeys(_indices(cells, 0)))
            cols = list(dict.fromkeys(_indices(cells, 1)))
            assert cells == tuple(P(i, j) for i in rows for j in cols)
            for got, k, n in ((rows, a, n_profiles), (cols, b, n_payloads)):
                assert _well_formed(got, 1, n) and len(got) == k
                assert got[-1] == n and got[0] == 1


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
        with pytest.raises(ValueError, match="P1M2"):
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

    def test_a_detect_sweep_is_refused(self, cfg, payload_runs):
        # a sweep reports percent errors, and detection has none
        spec = SweepSpec(task=TaskKind.PAYLOAD_DETECT,
                         subsets=((P(1, 1), P(1, 2)),), evaluation=(P(1, 2),))
        with pytest.raises(ValueError, match="unsupported evaluation task"):
            subset_sweep(spec, payload_runs, cfg.payloads)

    def test_adding_a_condition_never_shrinks_training_residual(self, cfg):
        # noise-free: the joint fit can only fit the original subset worse
        params = SurrogateParams(noise_std=0.0)
        conds = [P(1, 1), P(4, 1), P(7, 1)]
        runs = simulate_conditions(params, cfg.profiles, cfg.payloads,
                                   cfg.grid, conds)
        window = cfg.train

        def residual(subset, weights):
            rows = reference.rows_of(cfg.grid, window)
            pred = np.concatenate([reference.design(runs[c].sensors[:, rows])
                                   @ weights.weights[:, 0] for c in subset])
            theta = np.concatenate([runs[c].theta[rows] for c in subset])
            return float(np.mean((pred - theta) ** 2))

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

    def test_sample_count_sweep_refuses_it_too(self, cfg, bending_runs):
        with pytest.raises(ValueError, match="1000"):
            sample_count_sweep(
                TaskKind.BENDING_ANGLE, [999, 1000], [P(1, 1)], [P(1, 1)],
                bending_runs, cfg.payloads, train_window=self.SHORT)


class TestOneCountRule:
    # a config and a sweep read a sample count by one rule: on any clock and
    # train window, a count one accepts the other accepts, and a count one
    # refuses the other refuses with the same message
    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(5.0, 50.0), start=st.floats(1.0, 5.0),
           seconds=st.floats(5.0, 10.0), near_full=st.booleans(),
           offset=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_config_and_sweep_agree(self, rate, start, seconds, near_full,
                                    offset, seed):
        train = Window(start, start + seconds)
        test = Window(train.end, train.end + 2.0)
        grid = TimeGrid(sample_rate=rate,
                        n_samples=int(np.ceil(test.end * rate)) + 2)
        count = offset + (sample_count(train, rate) if near_full else 0)
        try:
            ExperimentConfig(grid=grid, washout=Window(0.0, start),
                             train=train, test=test, sample_counts=(count,))
        except ConfigError as err:
            refused_by_config = err.problems
        else:
            refused_by_config = []
        rng = np.random.default_rng(seed)
        run = PressureStateSeries(
            grid=grid, s_in=np.zeros(grid.n_samples),
            sensors=rng.normal(size=(7, grid.n_samples)),
            theta=rng.normal(size=grid.n_samples), condition=P(1, 1))
        spec = SweepSpec(task=TaskKind.BENDING_ANGLE, subsets=((P(1, 1),),),
                         evaluation=(P(1, 1),), train_window=train,
                         test_window=test, samples_per_condition=count)
        try:
            subset_sweep(spec, {P(1, 1): run}, PayloadSet())
        except ValueError as err:
            refused_by_sweep = [str(err)]
        else:
            refused_by_sweep = []
        assert refused_by_config == refused_by_sweep


class TestOneClock:
    # a sample count is read on one clock: P1M1 and P7M1 at 20 Hz with
    # P4M1 at 40 Hz would train 100 "samples" on 50 rows per condition
    @pytest.fixture(scope="class")
    def mixed(self, cfg, bending_runs):
        slow = TimeGrid(sample_rate=20.0, n_samples=2000)
        runs = simulate_conditions(cfg.surrogate, cfg.profiles, cfg.payloads,
                                   slow, (P(1, 1), P(7, 1)))
        return {**runs, P(4, 1): bending_runs[P(4, 1)]}

    @pytest.mark.parametrize("subset, evaluation, message", [
        ((P(1, 1), P(7, 1)), (P(4, 1),),
         r"run P1M1 is sampled at 20 Hz, run P4M1 at 40 Hz"),
        ((P(1, 1), P(4, 1)), (P(7, 1),),
         r"run P4M1 is sampled at 40 Hz, run P7M1 at 20 Hz"),
    ])
    def test_a_run_on_another_clock_is_refused(self, cfg, mixed, subset,
                                               evaluation, message):
        spec = SweepSpec(task=TaskKind.BENDING_ANGLE, subsets=(subset,),
                         evaluation=evaluation, samples_per_condition=100)
        with pytest.raises(ValueError, match=message):
            subset_sweep(spec, mixed, cfg.payloads)

    def test_the_sample_count_sweep_refuses_it_too(self, cfg, mixed):
        with pytest.raises(ValueError, match="sample count needs one clock"):
            sample_count_sweep(
                TaskKind.BENDING_ANGLE, [100], (P(1, 1), P(7, 1)),
                (P(4, 1),), mixed, cfg.payloads)

    def test_without_a_count_the_clocks_may_differ(self, cfg, mixed):
        spec = SweepSpec(task=TaskKind.BENDING_ANGLE,
                         subsets=((P(1, 1), P(7, 1)),), evaluation=(P(4, 1),))
        assert np.isfinite(subset_sweep(spec, mixed, cfg.payloads)
                           .error_grid).all()

    def test_a_fit_may_stack_short_and_full_windows(self, cfg, mixed):
        # 5 rows at 20 Hz and 10 at 40 Hz against 8 columns: every R is
        # 8 square, a 5-row window's zero below its QR's 5 rows, so two fits
        # whose first members share a window length can differ at the next
        task, window = TaskKind.BENDING_ANGLE, Window(50.0, 50.25)
        factors = {c: window_factor(run, window) for c, run in mixed.items()}
        assert {c: (f.r.shape, f.n_rows) for c, f in factors.items()} == {
            P(1, 1): ((8, 8), 5), P(7, 1): ((8, 8), 5), P(4, 1): ((8, 8), 10)}
        assert not any(factors[c].r[5:].any() for c in (P(1, 1), P(7, 1)))
        subsets = ((P(1, 1), P(4, 1)), (P(1, 1), P(7, 1)),
                   (P(4, 1), P(1, 1)), (P(4, 1), P(7, 1)),
                   (P(7, 1), P(4, 1), P(1, 1)), (P(1, 1), P(7, 1), P(4, 1)))
        evaluation = (P(1, 1), P(4, 1), P(7, 1))
        grid = subset_sweep(SweepSpec(task=task, subsets=subsets,
                                      evaluation=evaluation,
                                      train_window=window),
                            mixed, cfg.payloads).error_grid
        for subset, cells in zip(subsets, grid):
            row = full_width(train_on_subset(subset, mixed, cfg.payloads,
                                             task, window), 7)[0]
            for cond, cell in zip(evaluation, cells):
                assert cell == _lone_score(task, row, mixed, cond,
                                           cfg.payloads)


class TestSampleCountSweep:
    # one seed's sample-count table: a row per count, on the runs it is
    # given; `cli._sweep` repeats it over seeds
    def test_count_beyond_window_rejected(self, cfg, bending_runs):
        with pytest.raises(ValueError, match="sample count"):
            sample_count_sweep(TaskKind.BENDING_ANGLE, [2000], [P(1, 1)],
                               [P(1, 1)], bending_runs, cfg.payloads)

    def test_a_fractional_count_is_refused(self, cfg, bending_runs):
        # not fitted on 150 samples under a row labelled 150.7
        with pytest.raises(ValueError, match="expected an integer, got 150.7"):
            sample_count_sweep(TaskKind.BENDING_ANGLE, [150.7, 200], [P(1, 1)],
                               [P(1, 1)], bending_runs, cfg.payloads)

    def test_a_condition_missing_from_the_runs_is_refused(self, cfg,
                                                          bending_runs):
        with pytest.raises(ValueError, match="P4M1 is not present"):
            sample_count_sweep(TaskKind.BENDING_ANGLE, [400], [P(1, 1)],
                               [P(4, 1)], {P(1, 1): bending_runs[P(1, 1)]},
                               cfg.payloads)

    def test_a_seed_varies_only_the_noise(self, cfg):
        noise_free = _noise_free(cfg, P(1, 1), P(7, 1), P(4, 1))

        def at(seed):
            runs = add_noise(cfg.surrogate, dict(noise_free), seed)
            return sample_count_sweep(
                TaskKind.BENDING_ANGLE, [400], [P(1, 1), P(7, 1)], [P(4, 1)],
                runs, cfg.payloads).error_grid

        assert at(cfg.seed).tobytes() == at(cfg.seed).tobytes()
        assert at(cfg.seed)[0, 0] != at(cfg.seed + 1)[0, 0]

    @pytest.mark.parametrize("counts, evaluation, message", [
        ([], [P(1, 1)], "need at least one sample count"),
        ([100], [], "evaluation set must be non-empty"),
    ], ids=["no-count", "no-evaluation"])
    def test_a_sweep_of_nothing_is_refused_before_any_fit(
            self, cfg, bending_runs, monkeypatch, counts, evaluation,
            message):
        def refuse(*args, **kwargs):
            raise AssertionError("fitted a sweep of nothing")

        monkeypatch.setattr(sweeps, "_solve", refuse)
        with pytest.raises(ValueError, match=message):
            sample_count_sweep(TaskKind.BENDING_ANGLE, counts, [P(1, 1)],
                               evaluation, bending_runs, cfg.payloads)

    def test_duplicate_counts_give_bit_identical_rows(self, cfg,
                                                      bending_runs):
        grid = sample_count_sweep(
            TaskKind.BENDING_ANGLE, [100, 400, 100], [P(1, 1), P(7, 1)],
            [P(4, 1), P(2, 1)], bending_runs, cfg.payloads).error_grid
        assert grid.shape == (3, 2)
        assert grid[0].tobytes() == grid[2].tobytes()
        assert grid[0].tobytes() != grid[1].tobytes()


class TestAblation:
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


class TestFactoredScore:
    # a flat angle has no scale: its percent error is refused, not scored
    def test_flat_truth_keeps_the_zero_scale_error(self):
        rng = np.random.default_rng(3)
        sensors, w = rng.normal(size=(7, 160)), rng.normal(size=8)
        flat = PressureStateSeries(
            grid=TimeGrid(sample_rate=40.0, n_samples=160), s_in=np.zeros(160),
            sensors=sensors, theta=np.full(160, 2.0))
        with pytest.raises(ValueError, match="ground-truth scale is zero"):
            score(TaskKind.BENDING_ANGLE, flat, Window(2.0, 4.0), w, None,
                  "range")
        # the detect output, the window mean, does not need the angle's scale
        assert score(TaskKind.PAYLOAD_DETECT, flat, Window(2.0, 4.0),
                     w) == pytest.approx(
            np.mean(reference.design(sensors[:, 80:160]) @ w), rel=1e-10)


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


def _another_arm(runs, cond, n):
    """``runs`` with the run of ``cond`` read by an ``n``-sensor arm: its
    first n sensors, or its tip sensor repeated up to n."""
    run = runs[cond]
    sensors = np.vstack([run.sensors]
                        + [run.sensors[-1:]] * max(0, n - run.n_sensors))
    return {**runs, cond: dataclasses.replace(run, sensors=sensors[:n])}


class TestOneSensorCount:
    # every run a sweep reads has its first run's sensor count; a readout
    # of one arm must be neither trained on nor scored on another arm's run
    @staticmethod
    def refused(call, *labels):
        with pytest.raises(ValueError, match="cannot read") as err:
            call()
        for label in labels:
            assert label in str(err.value)

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("cond", [P(4, 3), P(7, 5)],
                             ids=["scored", "trained"])
    def test_the_multitask_grid_refuses_a_cell_of_another_arm(
            self, cfg, multitask_runs, cond, n):
        runs = _another_arm(multitask_runs, cond, n)
        cells = multitask_training_subsets()["2x2"]
        self.refused(lambda: multitask_grid(cells, runs,
                                            cfg.multitask_payloads),
                     "7-sensor run P1M1", f"{n}-sensor run {cond.label}")

    def test_a_subset_sweep_refuses_a_run_with_more_sensors(self, cfg,
                                                            bending_runs):
        runs = _another_arm(bending_runs, P(4, 1), 8)
        spec = SweepSpec(task=TaskKind.BENDING_ANGLE,
                         subsets=((P(1, 1), P(7, 1)),), evaluation=(P(4, 1),))
        self.refused(lambda: subset_sweep(spec, runs, cfg.payloads),
                     "8-sensor run P4M1", "7-sensor run P1M1")

    def test_a_sensor_sweep_refuses_a_run_with_more_sensors(self, cfg,
                                                            bending_runs):
        runs = _another_arm(bending_runs, P(4, 1), 8)
        self.refused(lambda: sensor_ablation_sweep(
            TaskKind.BENDING_ANGLE, tip_sensor_masks(), (P(1, 1), P(7, 1)),
            (P(4, 1),), runs, cfg.payloads), "P4M1", "P1M1")

    def test_a_sample_count_sweep_refuses_a_run_with_more_sensors(
            self, cfg, bending_runs):
        runs = _another_arm(bending_runs, P(4, 1), 8)
        self.refused(lambda: sample_count_sweep(
            TaskKind.BENDING_ANGLE, [100, 400], (P(1, 1), P(7, 1)),
            (P(4, 1),), runs, cfg.payloads), "P4M1", "P1M1")

    def test_a_lone_fit_refuses_a_run_with_more_sensors(self, cfg,
                                                        bending_runs):
        runs = _another_arm(bending_runs, P(7, 1), 8)
        self.refused(lambda: train_on_subset(
            (P(1, 1), P(7, 1)), runs, cfg.payloads, TaskKind.BENDING_ANGLE,
            TRAIN_WINDOW), "7-sensor run P1M1", "8-sensor run P7M1")

    def test_an_empty_subset_keeps_its_own_refusal(self, cfg, bending_runs):
        with pytest.raises(ValueError, match="at least one condition"):
            train_on_subset((), bending_runs, cfg.payloads,
                            TaskKind.BENDING_ANGLE, TRAIN_WINDOW)


def _lone_score(task, row, runs, cond, payloads, normalizer="range"):
    """A weight row's score, as a batch of one, on that condition's test
    window alone: read off a fresh copy of its run, so from a factor or
    column means taken for it (see `_fresh`)."""
    truth = (None if task is TaskKind.BENDING_ANGLE
             else payloads.mass_of(cond.payload_index))
    (cell,) = score(task, dataclasses.replace(runs[cond]), TEST_WINDOW,
                    row[None], truth, normalizer)
    return cell


class TestBatchEquality:
    # the sweeps fit in stacks, one SVD call per stacked shape, and score
    # every fit on a cell in one call; each cell must equal, bit for bit, a
    # lone `train_on_subset` scored as a batch of one, whatever else the
    # sweep fits or scores, and so must the weights a sweep reports
    @settings(max_examples=20, deadline=None)
    @given(task=st.sampled_from([TaskKind.BENDING_ANGLE,
                                 TaskKind.PAYLOAD_MASS]),
           subsets=st.lists(st.lists(st.integers(1, 7), min_size=1,
                                     max_size=4), min_size=1, max_size=5),
           masks=st.lists(st.lists(st.integers(0, 6), min_size=1,
                                   max_size=7, unique=True),
                          min_size=1, max_size=4),
           counts=st.lists(st.integers(1, 200), min_size=1, max_size=3),
           ridge=st.sampled_from([0.0, 0.5]),
           normalizer=st.sampled_from(NORMALIZERS))
    def test_single_task_cells_equal_lone_fits(self, cfg, bending_runs,
                                               payload_runs, task, subsets,
                                               masks, counts, ridge,
                                               normalizer):
        if task is TaskKind.BENDING_ANGLE:
            runs, cond = bending_runs, lambda k: P(k, 1)
        else:
            runs, cond = payload_runs, lambda k: P(1, k)
        subsets = tuple(tuple(cond(k) for k in s) for s in subsets)
        evaluation = (cond(2), cond(4), cond(7))
        window = training_window(cfg, task)
        common = dict(ridge=ridge, normalizer=normalizer)

        def check(grid, fits, runs):
            assert grid.shape == (len(fits), len(evaluation))
            rows = []
            for (subset, mask, fit_window), cells in zip(fits, grid):
                weights = train_on_subset(subset, runs, cfg.payloads, task,
                                          fit_window, mask, ridge)
                rows.append(full_width(weights, 7)[0])
                for c, cell in zip(evaluation, cells):
                    assert cell == _lone_score(task, rows[-1], runs, c,
                                               cfg.payloads, normalizer)
            return rows

        swept = subset_sweep(SweepSpec(task=task, subsets=subsets,
                                       evaluation=evaluation,
                                       train_window=window, **common),
                             runs, cfg.payloads)
        check(swept.error_grid, [(s, None, window) for s in subsets], runs)
        ablated = sensor_ablation_sweep(task, masks, subsets[0], evaluation,
                                        runs, cfg.payloads,
                                        train_window=window, **common)
        rows = check(ablated.error_grid,
                     [(subsets[0], m, window) for m in masks], runs)
        # the weight shares are the lone fits' weights, bit for bit
        shares = np.full((len(masks), 7), np.nan)
        for k, (mask, row) in enumerate(zip(ablated.masks, rows)):
            mags = np.abs(row[[1 + m for m in mask]])
            total = mags.sum()
            shares[k, list(mask)] = 100.0 * mags / total if total > 0 else 0
        assert np.array_equal(ablated.weight_shares, shares, equal_nan=True)
        counted = sample_count_sweep(task, counts, subsets[0], evaluation,
                                     runs, cfg.payloads, train_window=window,
                                     **common)
        check(counted.error_grid,
              [(subsets[0], None,
                Window(window.start, window.start + n / 40.0))
               for n in counts], runs)

    @pytest.mark.parametrize("normalizer", NORMALIZERS)
    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    @pytest.mark.parametrize("geometry", ["2x2", "5x2", "3x3"])
    def test_multitask_cells_equal_lone_fits(self, cfg, multitask_runs,
                                             geometry, ridge, normalizer):
        payloads = cfg.multitask_payloads
        cells = multitask_training_subsets()[geometry]
        res = multitask_grid(cells, multitask_runs, payloads, ridge=ridge,
                             normalizer=normalizer)
        rows = {task: full_width(train_on_subset(cells, multitask_runs,
                                                 payloads, task, cfg.train,
                                                 None, ridge), 7)[0]
                for task in sweeps.MULTITASK_TASKS}
        grids = ((TaskKind.PAYLOAD_DETECT, res.detect_output),
                 (TaskKind.BENDING_ANGLE, res.angle_error),
                 (TaskKind.PAYLOAD_MASS, res.mass_error))
        scored = 0
        for task, grid in grids:
            for (i, j), cell in np.ndenumerate(grid):
                if not np.isnan(cell):
                    scored += 1
                    assert cell == _lone_score(task, rows[task],
                                               multitask_runs, P(i + 1, j + 1),
                                               payloads, normalizer)
        assert scored > 35


def _fresh(runs):
    """Copies of ``runs`` whose windows nothing has read yet."""
    return {cond: dataclasses.replace(run) for cond, run in runs.items()}


def _spy_on_factors(mp):
    calls, real = [], readout.factor

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    mp.setattr(readout, "factor", spy)
    return calls


def _spy_on_designs(mp):
    calls, real = [], readout._design

    def spy(*args):
        calls.append(args)
        return real(*args)

    mp.setattr(readout, "_design", spy)
    return calls


def _kept_windows(run, means):
    """The windows whose `window_means` (``means``) or `window_factor` of
    ``run`` the readout memo keeps."""
    return [window for window, kind in readout._reads.get(run, {})
            if kind == means]


class TestFactorMemo:
    # every sweep in a process shares one factor and one column mean per
    # (run, window), kept by `readout` while the run lives, under either
    # normalizer; sharing must move no result
    def test_warm_runs_give_the_bytes_of_fresh_copies(self, cfg,
                                                      bending_runs,
                                                      multitask_runs):
        spec = SweepSpec(task=TaskKind.BENDING_ANGLE,
                         subsets=nested_bending_subsets(),
                         evaluation=bending_conditions(), ridge=1e-3)
        masks = tip_sensor_masks()

        def sweep_all(bending, multitask):
            return [
                subset_sweep(spec, bending, cfg.payloads).error_grid,
                sensor_ablation_sweep(TaskKind.BENDING_ANGLE, masks,
                                      (P(1, 1), P(7, 1)), spec.evaluation,
                                      bending, cfg.payloads).error_grid,
                multitask_grid(multitask_training_subsets()["3x3"],
                               multitask, cfg.multitask_payloads).angle_error,
            ]

        sweep_all(bending_runs, multitask_runs)
        warm = sweep_all(bending_runs, multitask_runs)
        fresh = sweep_all(_fresh(bending_runs), _fresh(multitask_runs))
        assert [g.tobytes() for g in warm] == [g.tobytes() for g in fresh]

    def test_a_second_sweep_on_the_same_runs_factors_nothing(self, cfg,
                                                             bending_runs):
        runs = _fresh(bending_runs)
        spec = SweepSpec(task=TaskKind.BENDING_ANGLE,
                         subsets=nested_bending_subsets(),
                         evaluation=bending_conditions())
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_on_factors(mp)
            first = subset_sweep(spec, runs, cfg.payloads).error_grid
            # seven training and seven test windows
            assert len(calls) == 14
            second = subset_sweep(spec, runs, cfg.payloads).error_grid
            assert len(calls) == 14
        assert second.tobytes() == first.tobytes()

    def test_a_second_mass_sweep_on_the_same_runs_factors_nothing(
            self, cfg, payload_runs):
        # constant-target fits read the memoized factors too
        runs = _fresh(payload_runs)
        spec = SweepSpec(task=TaskKind.PAYLOAD_MASS,
                         subsets=nested_payload_subsets(),
                         evaluation=payload_conditions()[1:])
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_on_factors(mp)
            first = subset_sweep(spec, runs, cfg.payloads).error_grid
            # the six nonzero payloads' training windows
            assert len(calls) == 6
            second = subset_sweep(spec, runs, cfg.payloads).error_grid
            assert len(calls) == 6
        assert second.tobytes() == first.tobytes()

    @pytest.mark.parametrize("sweep", ["multitask", "mass"])
    def test_a_second_sweep_on_the_same_runs_builds_no_design(
            self, cfg, payload_runs, multitask_runs, sweep):
        # the test windows' column means are kept beside the factors
        if sweep == "multitask":
            runs = _fresh(multitask_runs)

            def call():
                return multitask_grid(multitask_training_subsets()["3x3"],
                                      runs, cfg.multitask_payloads).mass_error
        else:
            runs = _fresh(payload_runs)
            spec = SweepSpec(task=TaskKind.PAYLOAD_MASS,
                             subsets=nested_payload_subsets(),
                             evaluation=payload_conditions()[1:])

            def call():
                return subset_sweep(spec, runs, cfg.payloads).error_grid
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_on_designs(mp)
            first = call()
            assert calls
            calls.clear()
            second = call()
        assert calls == []
        assert second.tobytes() == first.tobytes()

    def test_an_entry_dies_with_its_run(self, cfg, bending_runs):
        run = dataclasses.replace(bending_runs[P(1, 1)])
        train_on_subset((P(1, 1),), {P(1, 1): run}, cfg.payloads,
                        TaskKind.BENDING_ANGLE, TRAIN_WINDOW)
        assert run in readout._reads
        gc.collect()
        entries, alive = len(readout._reads), weakref.ref(run)
        del run
        gc.collect()
        assert alive() is None
        assert len(readout._reads) == entries - 1

    def test_the_noisy_runs_of_a_sample_sweep_leave_nothing_behind(
            self, tmp_path, monkeypatch):
        # one CPU: every seed's runs are noised and factored in-process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = ExperimentConfig(sample_counts=(100, 400), sample_repeats=2)
        gc.collect()
        entries, seen = len(readout._reads), []
        real = readout._window_read

        def spy(series, window, means):
            seen.append(series)
            return real(series, window, means)

        monkeypatch.setattr(readout, "_window_read", spy)
        cli._sweep("samples", cfg, tmp_path, "digest")
        assert len({id(run) for run in seen}) == 2 * 13  # 13 runs a seed
        seen.clear()
        gc.collect()
        assert len(readout._reads) == entries

    def test_windows_never_share_a_factor_and_normalizers_do(self, cfg,
                                                           bending_runs):
        cond = P(2, 1)
        run = dataclasses.replace(bending_runs[cond])
        windows = (TRAIN_WINDOW, TEST_WINDOW, Window(50.0, 55.0))

        def sweep(normalizer):
            for window in windows:
                subset_sweep(SweepSpec(task=TaskKind.BENDING_ANGLE,
                                       subsets=((cond,),), evaluation=(cond,),
                                       train_window=window,
                                       test_window=window,
                                       normalizer=normalizer),
                             {cond: run}, cfg.payloads)

        sweep("range")
        assert set(_kept_windows(run, False)) == set(windows)
        assert _kept_windows(run, True) == []
        for window in windows:
            lone = window_factor(dataclasses.replace(run), window)
            for got, want in zip(readout._reads[run][window, False], lone):
                assert np.array_equal(got, want)
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_on_factors(mp)
            sweep("maxabs")
        assert calls == []


class TestConstantTargetsReadTheWindowsR:
    # a constant target c (mass, detect) is fitted from c R[:, 0] of its
    # training window's one factor, whichever other tasks share the fit
    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    def test_mass_and_detect_weights_equal_the_multitask_solves(
            self, cfg, payload_runs, ridge):
        def solve(tasks):
            fits, targets = sweeps._plan(
                tasks, payload_runs, cfg.payloads, None,
                nested_payload_subsets(), TRAIN_WINDOW, (10, 100, None),
                (None, (4, 5, 6)))
            return sweeps._solve(fits, _fresh(payload_runs), targets, ridge)

        constant = (TaskKind.PAYLOAD_MASS, TaskKind.PAYLOAD_DETECT)
        alone = solve(constant)
        full = solve((TaskKind.BENDING_ANGLE, *constant))
        assert alone.tobytes() == full[:, 1:].tobytes()

    @pytest.mark.parametrize("count", [100, None])
    def test_a_mass_sweep_factors_no_test_window(self, cfg, payload_runs,
                                                 count):
        # a mass cell's score reads only its test window's column means
        # (`readout.window_means`)
        runs, evaluation = _fresh(payload_runs), payload_conditions()[1:]
        fits, targets = sweeps._plan(
            (TaskKind.PAYLOAD_MASS,), runs, cfg.payloads, evaluation,
            nested_payload_subsets(), TRAIN_WINDOW, (count,))
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_on_factors(mp)
            grid, w = sweeps._sweep(TaskKind.PAYLOAD_MASS, fits, evaluation,
                                    runs, targets, TEST_WINDOW, 0.0, "range")
        # one factor per trained condition, of its training window alone
        trained = {cond for subset, _, _ in fits for cond in subset}
        assert len(calls) == len(trained)
        factored = {cond: _kept_windows(run, False)
                    for cond, run in runs.items()
                    if _kept_windows(run, False)}
        assert factored == {cond: [fits[0][1]] for cond in trained}
        alone = np.column_stack([
            score(TaskKind.PAYLOAD_MASS, dataclasses.replace(runs[cond]),
                  TEST_WINDOW, w, cfg.payloads.mass_of(cond.payload_index))
            for cond in evaluation])
        assert grid.tobytes() == alone.tobytes()


class TestTruthMass:
    # a run that records its grams must carry the mass its payload index
    # has in the payload set a sweep is given
    LIGHT = PayloadSet((0.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0))

    def spec(self):
        return SweepSpec(task=TaskKind.PAYLOAD_MASS,
                         subsets=((P(1, 2), P(1, 7)),),
                         evaluation=(P(1, 3),))

    def test_a_scored_run_of_other_grams_is_refused(self, payload_runs):
        with pytest.raises(ValueError, match=r"P1M3.* 140 g.* 60 g"):
            subset_sweep(self.spec(), payload_runs, self.LIGHT)

    def test_a_training_run_of_other_grams_is_refused(self, payload_runs):
        runs = dict(payload_runs)
        runs[P(1, 3)] = dataclasses.replace(runs[P(1, 3)], payload_grams=None)
        with pytest.raises(ValueError, match=r"P1M2.* 100 g.* 50 g"):
            subset_sweep(self.spec(), runs, self.LIGHT)

    def test_the_multitask_grid_refuses_them(self, multitask_runs):
        payloads = PayloadSet((0.0, 100.0, 200.0, 300.0, 500.0))
        with pytest.raises(ValueError, match=r"P1M5.* 400 g.* 500 g"):
            multitask_grid(multitask_training_subsets()["2x2"],
                           multitask_runs, payloads)

    # `_plan` refuses other grams before the first fit: no factor, no solve
    def _spy_on_fits(self, mp):
        solves, real = [], sweeps.solve_reduced
        mp.setattr(sweeps, "solve_reduced",
                   lambda *args: solves.append(args) or real(*args))
        return _spy_on_factors(mp), solves

    def test_a_training_run_is_refused_before_any_fit(self, cfg,
                                                      payload_runs):
        # the family M2, M4, M7: the lone fit reads M7 last
        spec = SweepSpec(task=TaskKind.PAYLOAD_MASS,
                         subsets=(nested_payload_subsets()[1],),
                         evaluation=(P(1, 3),))
        payloads = PayloadSet((*cfg.payloads.masses[:-1], 250.0))
        with pytest.MonkeyPatch.context() as mp:
            factors, solves = self._spy_on_fits(mp)
            with pytest.raises(ValueError, match=r"P1M7.* 300 g.* 250 g"):
                subset_sweep(spec, _fresh(payload_runs), payloads)
        assert (len(factors), len(solves)) == (0, 0)

    def test_a_scored_multitask_cell_is_refused_before_any_fit(
            self, multitask_runs):
        # P1M3 is scored but not in the 2x2 training cells
        cells = multitask_training_subsets()["2x2"]
        assert P(1, 3) not in cells
        payloads = PayloadSet((0.0, 100.0, 250.0, 300.0, 400.0))
        with pytest.MonkeyPatch.context() as mp:
            factors, solves = self._spy_on_fits(mp)
            with pytest.raises(ValueError, match=r"P1M3.* 200 g.* 250 g"):
                multitask_grid(cells, _fresh(multitask_runs), payloads)
        assert (len(factors), len(solves)) == (0, 0)

    def test_runs_of_unknown_grams_take_the_payload_set_s(self, cfg,
                                                          payload_runs):
        runs = {c: dataclasses.replace(r, payload_grams=None)
                for c, r in payload_runs.items()}
        light = subset_sweep(self.spec(), runs, self.LIGHT).error_grid
        heavy = subset_sweep(self.spec(), runs, cfg.payloads).error_grid
        assert np.isfinite(light).all() and not np.array_equal(light, heavy)
