import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armrc import surrogate
from armrc.core import InputCondition, PayloadSet, TimeGrid
from armrc.profiles import (
    RampProfileSpec,
    default_profile_family,
    generate_profile,
)
from armrc.readout import correlation_matrix
from armrc.surrogate import (
    SurrogateParams,
    _noise_key,
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


def _generator():
    """A generator for `_noise_stream`, which re-keys it before each draw."""
    return np.random.Generator(np.random.Philox(0))


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

    # a nan passes every comparison, and an infinite knee or gain runs as
    # given: each must be refused by name, whichever field holds it
    @pytest.mark.parametrize("name, index, value", [
        ("noise_std", None, np.nan), ("payload_sat", None, np.nan),
        ("leak_pressure_width", None, np.nan),
        ("angle_payload_slope", None, np.nan),
        ("angle_payload_slope", None, np.inf),
        ("leak_pressure_knee", None, np.nan),
        ("leak_pressure_knee", None, np.inf),
        ("input_gain", 6, np.nan), ("input_gain", 6, np.inf),
        ("payload_gain", 3, np.nan), ("angle_weights", 0, np.nan),
        ("angle_weights", 0, -np.inf), ("coupling", (0, 1), np.nan),
    ])
    def test_rejects_a_value_that_is_not_finite(self, name, index, value):
        params = dataclasses.asdict(SurrogateParams())
        if index is None:
            params[name] = value
        else:
            array = np.array(params[name], dtype=float)
            array[index] = value
            params[name] = tuple(map(tuple, array) if array.ndim == 2 else array)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SurrogateParams(**params)


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

    def test_the_washout_index_floors_like_every_window(self, monkeypatch):
        # 1.75 s at 2 Hz is 3.5 samples: `core.sample_count` compares from
        # sample 3 on, where the two runs still differ; rounding would
        # start at sample 4 and miss it
        params = SurrogateParams()
        grid = TimeGrid(sample_rate=2.0, n_samples=8)
        apart = np.zeros((params.n_nodes, 8))
        apart[:, 3] = 1.0

        def runs(*args, **kwargs):
            return [SimpleNamespace(sensors=s)
                    for s in (np.zeros((params.n_nodes, 8)), apart)]

        monkeypatch.setattr(surrogate, "simulate_batch", runs)
        assert not echo_check(params, np.zeros(8), 0.0, grid=grid,
                              washout_seconds=1.75)


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
        with pytest.raises(ValueError, match="P1M1 sensor s65536 "):
            _noise_stream(_generator(), 7, InputCondition(1, 1),
                          (1 << 16) - 1, 4, 1.0)

    def test_largest_in_range_indices_are_accepted(self):
        cond = InputCondition((1 << 32) - 1, (1 << 16) - 1)
        assert _noise_stream(_generator(), 7, cond, (1 << 16) - 2, 4,
                             1.0).shape == (4,)

    def test_in_range_keys_are_unchanged(self):
        key = np.array([7, (3 << 32) | (4 << 16) | 3], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).normal(
            0.0, 0.5, 16)
        got = _noise_stream(_generator(), 7, InputCondition(3, 4), 2, 16, 0.5)
        assert np.array_equal(got, expected)

    def test_noise_free_runs_need_no_key(self):
        run = simulate(SurrogateParams(), P1[:40], 0.0, SHORT,
                       condition=InputCondition(1, 1 << 16), with_noise=False)
        assert run.sensors.shape == (7, 40)


def _fresh_draws(seed, cond, sensor, n, std):
    key = np.array([seed, _noise_key(cond, sensor)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).normal(0.0, std, n)


class TestRekeyedNoise:
    """One generator re-keyed per stream draws what a fresh
    ``Generator(Philox(key=[seed, key]))`` draws, whatever it drew before."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 2**64 - 1),
        st.one_of(st.none(), st.builds(InputCondition,
                                       st.integers(1, 2**32 - 1),
                                       st.integers(1, 2**16 - 1))),
        st.integers(0, 2**16 - 2), st.integers(0, 70),
        st.floats(0.0, 3.0), st.integers(0, 3)), min_size=1, max_size=8))
    def test_a_sequence_of_draws_equals_fresh_generators(self, draws):
        gen = _generator()
        for seed, cond, sensor, n, std, stray in draws:
            # 32-bit draws in between: an odd count leaves half a word cached
            gen.integers(0, 2**32, size=stray, dtype=np.uint32)
            got = _noise_stream(gen, seed, cond, sensor, n, std)
            assert got.tobytes() == _fresh_draws(seed, cond, sensor, n,
                                                 std).tobytes()

    @pytest.mark.parametrize("before", ["odd-length", "uint32"])
    def test_a_draw_after_a_partial_word_starts_afresh(self, before):
        gen = _generator()
        cond = InputCondition(2, 3)
        if before == "odd-length":
            _noise_stream(gen, 5, cond, 0, 3, 1.0)
            assert gen.bit_generator.state["buffer_pos"] != 4
        else:
            gen.integers(0, 2**32, size=1, dtype=np.uint32)
            assert gen.bit_generator.state["has_uint32"] == 1
        got = _noise_stream(gen, 5, cond, 1, 9, 0.3)
        assert got.tobytes() == _fresh_draws(5, cond, 1, 9, 0.3).tobytes()

    def test_add_noise_draws_each_sensor_from_its_own_fresh_stream(self):
        params = SurrogateParams()
        cond = InputCondition(4, 2)
        clean = simulate(params, P1[:33], 0.0, TimeGrid(n_samples=33),
                         condition=cond, with_noise=False)
        noisy = surrogate.add_noise(params, clean, 11)
        for m in range(params.n_nodes):
            expected = clean.sensors[m] + _fresh_draws(11, cond, m, 33,
                                                       params.noise_std)
            assert noisy.sensors[m].tobytes() == expected.tobytes()


def _oracle(params, trace, mass, x0):
    """(n, T) noise-free states, stepped in plain Python floats in the
    kernel's rounding order: ``(g * x + sum_j C[i, j] * x[j]) + drive``,
    with the sum taken from 0.0 in j order. The drive terms use the
    kernel's vectorized ``np.tanh`` over the whole trace."""
    phi = 0.5 * (1.0 + np.tanh((trace - params.leak_pressure_knee)
                               / params.leak_pressure_width))
    v = np.tanh(trace / surrogate.U_PAYLOAD_REF)
    rho = np.tanh(mass / params.payload_sat)
    n, c = params.n_nodes, params.coupling
    x, states = [float(a) for a in x0], []
    for k in range(len(trace)):
        new = []
        for i in range(n):
            g = ((1.0 - params.leak[i]
                  * (1.0 - params.leak_pressure_coeff[i] * phi[k]))
                 + params.payload_gain[i] * (rho * v[k]))
            s = 0.0
            for j in range(n):
                s += c[i][j] * x[j]
            new.append((g * x[i] + s) + params.input_gain[i] * trace[k])
        x = new
        states.append(x)
    return np.array(states, dtype=float).T


class TestKernelOracle:
    """The kernel rounds as the plain-Python step does, to the bit (signed
    zeros included, which ``np.array_equal`` cannot see)."""

    @pytest.mark.parametrize("n_runs", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 9])
    def test_states_match_the_scalar_step(self, n, n_runs):
        rng = np.random.default_rng(100 * n + n_runs)
        coupling = rng.uniform(0.0, 0.04 / n, (n, n))
        coupling[rng.random((n, n)) < 0.3] = 0.0  # a dense coupling with zeros
        params = SurrogateParams(
            n_nodes=n, leak=tuple(rng.uniform(0.1, 0.5, n)),
            coupling=tuple(map(tuple, coupling)),
            input_gain=tuple(np.sort(rng.uniform(0.01, 0.05, n))),
            payload_gain=tuple(rng.uniform(-0.4, 0.0, n)),
            angle_weights=tuple(rng.uniform(0.0, 1.0, n)),
            leak_pressure_coeff=tuple(rng.uniform(0.0, 0.5, n)))
        grid = TimeGrid(n_samples=70)  # past one 64-step chunk
        traces = [rng.uniform(0.0, 50.0, grid.n_samples) for _ in range(n_runs)]
        traces[0][:5] = 0.0  # zero drive while the states are negative
        masses = [0.0, 120.0, 400.0][:n_runs]
        x0 = -rng.uniform(0.5, 10.0, (n_runs, n))
        x0[0, 0] = -0.0
        runs = simulate_batch(params, traces, masses, grid, x0=x0,
                              with_noise=False)
        for run, trace, mass, start in zip(runs, traces, masses, x0):
            assert run.sensors.tobytes() == _oracle(params, trace, mass,
                                                    start).tobytes()


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

