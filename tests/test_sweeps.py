import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armrc import sweeps
from armrc import readout
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
from armrc.profiles import generate_profile
from armrc.readout import (NORMALIZERS, assemble, full_width, nrmse_percent,
                           predict, train, window_factor)
from armrc.surrogate import (SurrogateParams, add_noise, simulate,
                             simulate_conditions)
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
from armrc.tasks import (TaskKind, bending_target, estimate_mass,
                         mass_error_percent, score)

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
                train_window=self.SHORT, repeats=1,
            )


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
                (P(4, 1),), cfg.surrogate, mixed, cfg.payloads, repeats=1)

    def test_without_a_count_the_clocks_may_differ(self, cfg, mixed):
        spec = SweepSpec(task=TaskKind.BENDING_ANGLE,
                         subsets=((P(1, 1), P(7, 1)),), evaluation=(P(4, 1),))
        assert np.isfinite(subset_sweep(spec, mixed, cfg.payloads)
                           .error_grid).all()


class TestSampleCountSweep:
    def test_count_beyond_window_rejected(self, cfg):
        with pytest.raises(ValueError, match="sample count"):
            sample_count_sweep(
                TaskKind.BENDING_ANGLE, [2000], [P(1, 1)], [P(1, 1)],
                cfg.surrogate, _noise_free(cfg, P(1, 1)), cfg.payloads,
                repeats=1,
            )

    def test_a_condition_missing_from_the_runs_is_refused(self, cfg):
        with pytest.raises(ValueError, match="P4M1 is not present"):
            sample_count_sweep(
                TaskKind.BENDING_ANGLE, [400], [P(1, 1)], [P(4, 1)],
                cfg.surrogate, _noise_free(cfg, P(1, 1)), cfg.payloads,
                repeats=1,
            )

    def test_full_count_matches_subset_sweep(self, cfg, bending_runs):
        res = sample_count_sweep(
            TaskKind.BENDING_ANGLE, [1000], [P(1, 1), P(7, 1)], [P(4, 1)],
            cfg.surrogate, _noise_free(cfg, P(1, 1), P(7, 1), P(4, 1)),
            cfg.payloads, repeats=1, base_seed=cfg.seed,
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
            cfg.payloads, repeats=3, base_seed=cfg.seed,
        )
        assert res.std_grid[0, 0] > 0.0

    def test_repeats_score_exactly_the_runs_simulate_gives(self, cfg,
                                                           monkeypatch):
        # the noise-free states are simulated once and each repeat only
        # adds its noise; that must equal simulating at base_seed + r
        seen, real = [], sweeps._factor

        def spy(runs, cond, window):
            # every training and test factor is read off a repeat's runs
            seen.append(runs)
            return real(runs, cond, window)

        monkeypatch.setattr(sweeps, "_factor", spy)
        subset, evaluation = (P(1, 1), P(7, 2)), (P(4, 3),)
        sample_count_sweep(
            TaskKind.BENDING_ANGLE, [100, 400], subset, evaluation,
            cfg.surrogate, _noise_free(cfg, *subset, *evaluation),
            cfg.payloads, repeats=3, base_seed=11,
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

    @pytest.mark.parametrize("counts, evaluation, message", [
        ([], [P(1, 1)], "need at least one sample count"),
        ([100], [], "evaluation set must be non-empty"),
    ], ids=["no-count", "no-evaluation"])
    def test_a_sweep_of_nothing_is_refused_before_any_noise(
            self, cfg, monkeypatch, counts, evaluation, message):
        def refuse(*args, **kwargs):
            raise AssertionError("drew noise for a sweep of nothing")

        monkeypatch.setattr(sweeps, "add_noise", refuse)
        with pytest.raises(ValueError, match=message):
            sample_count_sweep(
                TaskKind.BENDING_ANGLE, counts, [P(1, 1)], evaluation,
                cfg.surrogate, _noise_free(cfg, P(1, 1)), cfg.payloads,
                repeats=1,
            )

    def test_duplicate_counts_give_bit_identical_rows(self, cfg):
        res = sample_count_sweep(
            TaskKind.BENDING_ANGLE, [100, 400, 100], [P(1, 1), P(7, 1)],
            [P(4, 1), P(2, 1)], cfg.surrogate,
            _noise_free(cfg, P(1, 1), P(7, 1), P(4, 1), P(2, 1)),
            cfg.payloads, repeats=2,
        )
        assert res.mean_grid.shape == (3, 2)
        for grid in (res.mean_grid, res.std_grid):
            assert grid[0].tobytes() == grid[2].tobytes()
            assert grid[0].tobytes() != grid[1].tobytes()

    def test_counts_are_read_on_the_runs_clock(self, cfg):
        # at 20 Hz, 100 samples per condition are the first 5 s of training
        grid = TimeGrid(sample_rate=20.0, n_samples=2000)
        subset, evaluation = (P(1, 1), P(7, 1)), (P(4, 1),)
        noise_free = simulate_conditions(cfg.surrogate, cfg.profiles,
                                         cfg.payloads, grid,
                                         subset + evaluation, with_noise=False)
        res = sample_count_sweep(
            TaskKind.BENDING_ANGLE, [100], subset, evaluation, cfg.surrogate,
            noise_free, cfg.payloads, repeats=1, base_seed=cfg.seed,
        )
        runs = {c: add_noise(cfg.surrogate, run, cfg.seed)
                for c, run in noise_free.items()}
        ref = subset_sweep(SweepSpec(task=TaskKind.BENDING_ANGLE,
                                     subsets=(subset,), evaluation=evaluation,
                                     train_window=Window(50.0, 55.0)),
                           runs, cfg.payloads)
        assert res.mean_grid.tobytes() == ref.error_grid.tobytes()


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
    # `score` on one factor equals each task's per-trace reference, under
    # either normalizer, though the factor was built with neither
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           mask=st.lists(st.integers(0, 6), min_size=1, max_size=7,
                         unique=True),
           ridge=st.sampled_from([0.0, 0.5]),
           start=st.integers(80, 120),
           rows=st.integers(1, 40),
           normalizer=st.sampled_from(NORMALIZERS))
    def test_scores_equal_the_per_trace_scores(self, seed, mask, ridge,
                                               start, rows, normalizer):
        rng = np.random.default_rng(seed)
        series = _random_series(rng)
        weights = train(assemble([(series, series.theta)], Window(0.0, 2.0),
                                 mask), ridge)
        window = Window(start / 40.0, (start + rows) / 40.0)
        block = window_factor(series, window)
        w = full_width(weights, 7)[0]
        truth = bending_target(series, window)
        assert truth.shape == (rows,) and block.n_rows == rows

        def scored(task, mass=None):
            return score(task, block, w, mass, normalizer)

        try:
            ref = nrmse_percent(predict(weights, series, window), truth,
                                normalizer)
        except ValueError as err:
            # one flat row under "range": both refuse with one message
            with pytest.raises(ValueError, match=str(err)):
                scored(TaskKind.BENDING_ANGLE)
        else:
            assert abs(scored(TaskKind.BENDING_ANGLE) - ref) <= 1e-10 * ref
        estimate = estimate_mass(weights, series, window)
        assert (abs(scored(TaskKind.PAYLOAD_DETECT) - estimate)
                <= 1e-10 * abs(estimate))
        # a truth this far from the estimate keeps the error well above 0
        mass = 2.0 * abs(estimate) + 1.0
        ref = mass_error_percent(estimate, mass)
        assert abs(scored(TaskKind.PAYLOAD_MASS, mass) - ref) <= 1e-10 * ref

    def test_flat_truth_keeps_the_zero_scale_error(self):
        rng = np.random.default_rng(3)
        series = _random_series(rng)
        flat = PressureStateSeries(grid=series.grid, s_in=series.s_in,
                                   sensors=series.sensors,
                                   theta=np.full(160, 2.0))
        weights = train(assemble([(series, series.theta)], Window(0.0, 2.0)))
        block = window_factor(flat, Window(2.0, 4.0))
        w = full_width(weights, 7)[0]
        with pytest.raises(ValueError, match="ground-truth scale is zero"):
            score(TaskKind.BENDING_ANGLE, block, w, None, "range")
        # the mass estimate does not need the angle's scale
        assert score(TaskKind.PAYLOAD_DETECT, block, w, None,
                     "range") == pytest.approx(
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

    def test_a_sample_count_sweep_refuses_a_run_with_more_sensors(self, cfg):
        noise_free = _another_arm(_noise_free(cfg, P(1, 1), P(7, 1), P(4, 1)),
                                  P(4, 1), 8)
        self.refused(lambda: sample_count_sweep(
            TaskKind.BENDING_ANGLE, [100, 400], (P(1, 1), P(7, 1)),
            (P(4, 1),), cfg.surrogate, noise_free, cfg.payloads, repeats=1),
            "P4M1", "P1M1")

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
    """A weight row's score, as a batch of one, from a block factored for
    that condition alone."""
    block = window_factor(runs[cond], TEST_WINDOW)
    (cell,) = score(task, block, row[None],
                    payloads.mass_of(cond.payload_index), normalizer)
    return cell


class TestBatchEquality:
    # the sweeps fit in stacks, one SVD call per stacked shape, and score
    # every fit on a cell in one call; each cell must equal, bit for bit, a
    # lone `train_on_subset` scored as a batch of one, whatever else the
    # sweep fits or scores, and so must the weights a sweep reports
    @pytest.fixture(scope="class")
    def noise_free(self, cfg):
        return _noise_free(cfg, *bending_conditions(),
                           *(P(1, j) for j in range(2, 8)))

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
                                               payload_runs, noise_free,
                                               task, subsets, masks, counts,
                                               ridge, normalizer):
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
        # one repeat: its mean is the repeat's own cell
        counted = sample_count_sweep(task, counts, subsets[0], evaluation,
                                     cfg.surrogate, noise_free, cfg.payloads,
                                     train_window=window, repeats=1,
                                     base_seed=cfg.seed, **common)
        noisy = {c: add_noise(cfg.surrogate, noise_free[c], cfg.seed)
                 for c in {*subsets[0], *evaluation}}
        check(counted.mean_grid,
              [(subsets[0], None,
                Window(window.start, window.start + n / 40.0))
               for n in counts], noisy)

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
    """Copies of ``runs`` that no sweep has factored yet."""
    return {cond: dataclasses.replace(run) for cond, run in runs.items()}


def _spy_on_factors(mp):
    calls, real = [], readout.factor

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    mp.setattr(readout, "factor", spy)
    return calls


class TestFactorMemo:
    # every sweep in a process shares one factor per (run, window), kept
    # while the run lives, under either normalizer; sharing must move no
    # result
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

    def test_an_entry_dies_with_its_run(self, cfg, bending_runs):
        run = dataclasses.replace(bending_runs[P(1, 1)])
        train_on_subset((P(1, 1),), {P(1, 1): run}, cfg.payloads,
                        TaskKind.BENDING_ANGLE, TRAIN_WINDOW)
        assert run in sweeps._factors
        gc.collect()
        entries, alive = len(sweeps._factors), weakref.ref(run)
        del run
        gc.collect()
        assert alive() is None
        assert len(sweeps._factors) == entries - 1

    def test_the_noisy_runs_of_a_sample_sweep_leave_nothing_behind(self,
                                                                   cfg):
        gc.collect()
        entries = len(sweeps._factors)
        sample_count_sweep(
            TaskKind.BENDING_ANGLE, [100, 400], [P(1, 1), P(7, 1)],
            [P(4, 1)], cfg.surrogate,
            _noise_free(cfg, P(1, 1), P(7, 1), P(4, 1)), cfg.payloads,
            repeats=2,
        )
        gc.collect()
        assert len(sweeps._factors) == entries

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
        memo = sweeps._factors[run]
        assert set(memo) == set(windows)
        for window, block in memo.items():
            lone = window_factor(run, window)
            for got, want in zip(block, lone):
                assert np.array_equal(got, want)
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_on_factors(mp)
            sweep("maxabs")
        assert calls == []


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

    def test_runs_of_unknown_grams_take_the_payload_set_s(self, cfg,
                                                          payload_runs):
        runs = {c: dataclasses.replace(r, payload_grams=None)
                for c, r in payload_runs.items()}
        light = subset_sweep(self.spec(), runs, self.LIGHT).error_grid
        heavy = subset_sweep(self.spec(), runs, cfg.payloads).error_grid
        assert np.isfinite(light).all() and not np.array_equal(light, heavy)
