import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armrc.core import InputCondition, PayloadSet, TimeGrid
from armrc.profiles import (
    RampProfileSpec,
    default_profile_family,
    generate_profile,
)
from armrc.readout import correlation_matrix
from armrc.surrogate import (
    SurrogateParams,
    _noise_stream,
    echo_check,
    simulate,
    simulate_batch,
    simulate_conditions,
    simulate_grid,
    stability_margin,
)

GRID = TimeGrid()
P1 = generate_profile(default_profile_family()[0], GRID)


class TestValidation:
    def test_defaults_are_stable(self):
        assert stability_margin(SurrogateParams()) > 0

    def test_rejects_unstable_parameters_at_construction(self):
        with pytest.raises(ValueError, match="unstable"):
            SurrogateParams(
                leak=(0.01,) * 7,
                leak_pressure_coeff=(0.9,) * 7,
                payload_gain=(0.05,) * 7,
            )

    def test_rejects_wrong_vector_lengths(self):
        with pytest.raises(ValueError, match="leak"):
            SurrogateParams(leak=(0.1, 0.1))

    def test_rejects_decreasing_input_gain(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SurrogateParams(input_gain=(0.03, 0.02, 0.02, 0.02, 0.03, 0.032, 0.032))

    def test_rejects_payload_gain_beyond_headroom(self):
        params = dataclasses.asdict(SurrogateParams())
        params["payload_gain"] = (-0.16, -0.21, 0.32, 0.0, -0.15, -0.13, -0.999)
        with pytest.raises(ValueError, match="headroom"):
            SurrogateParams(**params)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SurrogateParams(noise_std=-0.1)


class TestSimulate:
    def test_zero_input_zero_payload_is_identically_zero(self):
        u = np.zeros(GRID.n_samples)
        run = simulate(SurrogateParams(noise_std=0.0), u, 0.0, GRID)
        assert np.all(run.sensors == 0.0)
        assert np.all(run.theta == 0.0)

    def test_bit_identical_for_same_seed(self):
        params = SurrogateParams()
        cond = InputCondition(1, 1)
        a = simulate(params, P1, 0.0, GRID, condition=cond)
        b = simulate(params, P1, 0.0, GRID, condition=cond)
        assert np.array_equal(a.sensors, b.sensors)
        assert np.array_equal(a.theta, b.theta)

    def test_noise_streams_keyed_by_seed_and_condition(self):
        params = SurrogateParams()
        base = simulate(params, P1, 0.0, GRID, condition=InputCondition(1, 1))
        other_seed = simulate(params, P1, 0.0, GRID,
                              condition=InputCondition(1, 1), seed=99)
        other_cond = simulate(params, P1, 0.0, GRID,
                              condition=InputCondition(2, 1))
        assert not np.array_equal(base.sensors, other_seed.sensors)
        assert not np.array_equal(base.sensors, other_cond.sensors)

    def test_angle_is_exact_linear_functional_of_states(self):
        params = SurrogateParams(noise_std=0.0)
        payload = 200.0
        run = simulate(params, P1, payload, GRID)
        recon = (np.asarray(params.angle_weights) @ run.sensors
                 + params.angle_payload_slope * payload)
        assert np.allclose(run.theta, recon, rtol=0, atol=1e-12)

    def test_payload_response_is_not_affine_in_mass(self):
        params = SurrogateParams(noise_std=0.0)
        runs = {m: simulate(params, P1, m, GRID).sensors
                for m in (0.0, 150.0, 300.0)}
        interpolated = 0.5 * (runs[0.0] + runs[300.0])
        gap = np.abs(runs[150.0] - interpolated).max()
        assert gap > 0.1

    def test_states_respect_the_contraction_bound(self):
        params = SurrogateParams(noise_std=0.0)
        bound = (float(P1.max()) * max(params.input_gain)
                 / stability_margin(params))
        run = simulate(params, P1, 300.0, GRID)
        assert np.abs(run.sensors).max() <= bound

    def test_tip_dominates_base_for_every_default_profile(self):
        params = SurrogateParams()
        for i, spec in enumerate(default_profile_family(), start=1):
            u = generate_profile(spec, GRID)
            run = simulate(params, u, 0.0, GRID, condition=InputCondition(i, 1))
            assert (np.abs(run.sensors[6]).mean()
                    >= np.abs(run.sensors[0]).mean())

    def test_rejects_trace_grid_mismatch(self):
        with pytest.raises(ValueError):
            simulate(SurrogateParams(), P1[:100], 0.0, GRID)

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError):
            simulate(SurrogateParams(), P1, -5.0, GRID)


class TestEchoCheck:
    def test_passes_with_default_parameters(self):
        assert echo_check(SurrogateParams(), P1, 0.0)

    def test_passes_under_heavy_load_and_strong_profile(self):
        p7 = generate_profile(default_profile_family()[6], GRID)
        assert echo_check(SurrogateParams(), p7, 300.0)

    def test_zero_input_contracts_to_origin(self):
        u = np.zeros(GRID.n_samples)
        assert echo_check(SurrogateParams(), u, 0.0)

    def test_fails_before_the_two_initial_states_synchronize(self):
        assert not echo_check(SurrogateParams(), P1, 0.0, washout_seconds=0.0)


class TestCorrelationStructure:
    def test_payload_decorrelates_tip_more_than_profiles_do(self, cfg,
                                                            bending_runs,
                                                            payload_runs):
        # correlation between the two extreme payloads under P1 sits well
        # below the correlation between the two extreme profiles at 0 g
        k0 = 2000
        tip_p = correlation_matrix([
            bending_runs[InputCondition(1, 1)].sensors[6][k0:],
            bending_runs[InputCondition(7, 1)].sensors[6][k0:],
        ])[0, 1]
        tip_m = correlation_matrix([
            payload_runs[InputCondition(1, 1)].sensors[6][k0:],
            payload_runs[InputCondition(1, 7)].sensors[6][k0:],
        ])[0, 1]
        assert abs(tip_m) < abs(tip_p)


class TestGridSimulation:
    def test_simulate_grid_covers_all_conditions(self):
        params = SurrogateParams()
        small = PayloadSet((0.0, 100.0))
        grid_runs = simulate_grid(params, default_profile_family()[:2],
                                  small, GRID)
        assert set(grid_runs) == {
            InputCondition(1, 1), InputCondition(1, 2),
            InputCondition(2, 1), InputCondition(2, 2),
        }
        assert all(r.condition == c for c, r in grid_runs.items())


SHORT = TimeGrid(n_samples=40)


class TestNoiseKey:
    """The Philox key packs (profile << 32) | (payload << 16) | (sensor + 1);
    an index that overflows its field would alias another stream."""

    # (1 << 32) | (65536 << 16) would equal the key of P2 with payload 0
    @pytest.mark.parametrize("cond", [InputCondition(1, 1 << 16),
                                      InputCondition(1 << 32, 1)],
                             ids=["payload", "profile"])
    def test_index_beyond_its_field_is_refused(self, cond):
        with pytest.raises(ValueError, match=cond.label):
            simulate(SurrogateParams(), P1[:40], 0.0, SHORT, condition=cond)

    def test_sensor_index_beyond_16_bits_is_refused(self):
        with pytest.raises(ValueError, match="P1M1"):
            _noise_stream(7, InputCondition(1, 1), (1 << 16) - 1, 4, 1.0)

    def test_largest_in_range_indices_are_accepted(self):
        cond = InputCondition((1 << 32) - 1, (1 << 16) - 1)
        assert _noise_stream(7, cond, (1 << 16) - 2, 4, 1.0).shape == (4,)

    def test_in_range_keys_are_unchanged(self):
        key = np.array([7, (3 << 32) | (4 << 16) | 3], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).normal(
            0.0, 0.5, 16)
        got = _noise_stream(7, InputCondition(3, 4), 2, 16, 0.5)
        assert np.array_equal(got, expected)

    def test_noise_free_runs_need_no_key(self):
        run = simulate(SurrogateParams(), P1[:40], 0.0, SHORT,
                       condition=InputCondition(1, 1 << 16), with_noise=False)
        assert run.sensors.shape == (7, 40)


@st.composite
def node_params(draw):
    """Valid surrogate parameters for 1-12 nodes with a dense coupling:
    leak * (1 - leak_pressure_coeff) >= 0.05 outweighs the coupling's row
    sums (<= 0.04), and payload gains only damp. A nearest-neighbour
    coupling would not pin the coupling's summation order: with at most
    two nonzero terms per row, every order gives the same bits."""
    n = draw(st.integers(1, 12))

    def per_node(lo, hi):
        return tuple(draw(st.lists(st.floats(lo, hi), min_size=n,
                                   max_size=n)))

    return SurrogateParams(
        n_nodes=n, leak=per_node(0.1, 0.5),
        coupling=tuple(per_node(0.0, 0.04 / n) for _ in range(n)),
        input_gain=tuple(sorted(per_node(0.01, 0.05))),
        payload_gain=per_node(-0.4, 0.0), angle_weights=per_node(0.0, 1.0),
        leak_pressure_coeff=per_node(0.0, 0.5))


@st.composite
def batches(draw):
    """Parameters for 1-12 nodes, a short grid, 1-3 profiles, 1-3 payloads,
    and a condition list drawn from that grid in any order with duplicates,
    each with its own x0."""
    params = draw(node_params())
    grid = TimeGrid(n_samples=draw(st.integers(1, 150)))
    specs = tuple(
        RampProfileSpec(u_min=lo, u_max=lo + swing)
        for lo, swing in draw(st.lists(
            st.tuples(st.floats(0.0, 45.0), st.floats(1.0, 30.0)),
            min_size=1, max_size=3))
    )
    masses = draw(st.lists(st.floats(0.0, 400.0), min_size=1, max_size=3,
                           unique=True))
    payloads = PayloadSet(tuple(sorted(masses)))
    conds = draw(st.lists(
        st.builds(InputCondition, st.integers(1, len(specs)),
                  st.integers(1, len(payloads))),
        min_size=1, max_size=8))
    x0 = draw(st.lists(st.lists(st.floats(-10.0, 10.0),
                                min_size=params.n_nodes,
                                max_size=params.n_nodes),
                       min_size=len(conds), max_size=len(conds)))
    return (params, grid, specs, payloads, conds, np.array(x0),
            draw(st.integers(0, 2**32)))


class TestBatchIndependence:
    @settings(max_examples=25, deadline=None)
    @given(batches())
    def test_a_run_is_bit_identical_alone_and_in_any_batch(self, batch):
        params, grid, specs, payloads, conds, x0, seed = batch
        traces = [generate_profile(spec, grid) for spec in specs]
        by_conditions = simulate_conditions(params, specs, payloads, grid,
                                            conds, seed=seed)
        by_grid = simulate_grid(params, specs, payloads, grid, seed=seed)
        from_x0 = simulate_batch(
            params, [traces[c.profile_index - 1] for c in conds],
            [payloads.mass_of(c.payload_index) for c in conds], grid,
            conditions=conds, x0=x0, seed=seed)
        for cond, start, batched in zip(conds, x0, from_x0):
            args = (params, traces[cond.profile_index - 1],
                    payloads.mass_of(cond.payload_index), grid)
            alone = simulate(*args, condition=cond, seed=seed)
            for other in (by_conditions[cond], by_grid[cond]):
                assert np.array_equal(alone.sensors, other.sensors)
                assert np.array_equal(alone.theta, other.theta)
            alone = simulate(*args, condition=cond, x0=start, seed=seed)
            assert np.array_equal(alone.sensors, batched.sensors)
            assert np.array_equal(alone.theta, batched.theta)
