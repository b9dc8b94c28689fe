import dataclasses

import numpy as np
import pytest

from armrc.core import InputCondition, PayloadSet, TimeGrid
from armrc.profiles import default_profile_family, generate_profile
from armrc.readout import correlation_matrix
from armrc.surrogate import (
    SurrogateParams,
    echo_check,
    simulate,
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
