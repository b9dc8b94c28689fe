import dataclasses
import warnings
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armrc import core, surrogate
from armrc.core import InputCondition, PayloadSet, TimeGrid
from armrc.profiles import (
    RampProfileSpec,
    default_profile_family,
    generate_profile,
)
from armrc.readout import correlation_matrix
from reference import fresh_draws, states
from armrc.surrogate import (
    SurrogateParams,
    _rekey,
    add_noise,
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
    """A generator for `_stream`, which re-keys it before each draw."""
    return np.random.Generator(np.random.Philox(0))


def _stream(gen, seed, cond, sensor, n, std):
    """``normal(0.0, std, n)`` from ``gen`` once `_rekey` has keyed it to
    ``sensor``'s stream under ``cond`` at ``seed``."""
    _rekey(gen, seed, cond, sensor)
    return gen.normal(0.0, std, n)


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

    # a whole float node count is the int, where numpy refused to size the
    # default coupling with it
    def test_a_whole_float_node_count_is_the_int(self):
        params = SurrogateParams(n_nodes=7.0)
        assert type(params.n_nodes) is int and params == SurrogateParams()
        with pytest.raises(ValueError) as err:
            SurrogateParams(n_nodes=7.5)
        assert str(err.value) == "n_nodes: expected an integer, got 7.5"


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

        def runs(*args, first, **kwargs):  # the runs kept from ``first``
            assert first == 3
            return [SimpleNamespace(sensors=s[:, first:])
                    for s in (np.zeros((params.n_nodes, 8)), apart)]

        monkeypatch.setattr(surrogate, "simulate_batch", runs)
        assert not echo_check(params, np.zeros(8), 0.0, grid=grid,
                              washout_seconds=1.75)

    def test_the_washout_is_stepped_but_not_kept(self, monkeypatch):
        kept, real = [], surrogate.simulate_batch

        def batch(*args, **kwargs):
            kept.append(kwargs["first"])
            return real(*args, **kwargs)

        monkeypatch.setattr(surrogate, "simulate_batch", batch)
        assert echo_check(SurrogateParams(), P1, 0.0)
        assert kept == [2000]  # 50 s at 40 Hz

    @pytest.mark.parametrize("washout", [1.0, 50.0])
    def test_a_washout_that_leaves_no_sample_is_refused(self, washout):
        # 40 samples at 40 Hz: a 1 s washout reaches the run's end
        with pytest.raises(ValueError, match=(
                f"washout of {washout:g} s .* the 40-sample run")):
            echo_check(SurrogateParams(), np.zeros(40), 0.0,
                       washout_seconds=washout)


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
            _stream(_generator(), 7, InputCondition(1, 1), (1 << 16) - 1,
                    4, 1.0)

    def test_largest_in_range_indices_are_accepted(self):
        cond = InputCondition((1 << 32) - 1, (1 << 16) - 1)
        assert _stream(_generator(), 7, cond, (1 << 16) - 2, 4,
                       1.0).shape == (4,)

    def test_in_range_keys_are_unchanged(self):
        key = np.array([7, (3 << 32) | (4 << 16) | 3], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).normal(
            0.0, 0.5, 16)
        got = _stream(_generator(), 7, InputCondition(3, 4), 2, 16, 0.5)
        assert np.array_equal(got, expected)

    def test_noise_free_runs_need_no_key(self):
        run = simulate(SurrogateParams(), P1[:40], 0.0, SHORT,
                       condition=InputCondition(1, 1 << 16), seed=None)
        assert run.sensors.shape == (7, 40)

    # Philox keys are two 64-bit words: a wider seed would wrap onto
    # another seed's streams (-1 onto 2**64 - 1, 2**64 + 7 onto 7)
    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 7])
    def test_a_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} is outside"):
            simulate(SurrogateParams(), P1[:40], 0.0, SHORT, seed=seed)
        clean = simulate(SurrogateParams(), P1[:40], 0.0, SHORT, seed=None)
        with pytest.raises(ValueError, match=f"seed {seed} is outside"):
            add_noise(SurrogateParams(), {None: clean}, seed)

    def test_a_seed_outside_64_bits_is_refused_before_the_kernel_steps(
            self, monkeypatch):
        def step(*args):
            raise AssertionError("stepped the kernel")

        monkeypatch.setattr(surrogate, "_advance", step)
        with pytest.raises(ValueError, match="seed -1 is outside"):
            simulate_conditions(SurrogateParams(), default_profile_family(),
                                PayloadSet(), SHORT, [InputCondition(1, 1)],
                                seed=-1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_simulate_refuses_a_seed_before_the_kernel(self, seed,
                                                      monkeypatch):
        batches, real = [], surrogate.simulate_batch
        monkeypatch.setattr(surrogate, "simulate_batch", lambda *a, **k: (
            batches.append(a) or real(*a, **k)))
        with pytest.raises(ValueError, match=f"seed {seed} is outside"):
            simulate(SurrogateParams(), P1[:40], 0.0, SHORT, seed=seed)
        assert batches == []

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_the_end_seeds_are_accepted(self, seed):
        assert _stream(_generator(), seed, InputCondition(1, 1), 0, 4,
                       1.0).tobytes() == fresh_draws(
            seed, InputCondition(1, 1), 0, 4, 1.0).tobytes()


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
            got = _stream(gen, seed, cond, sensor, n, std)
            assert got.tobytes() == fresh_draws(seed, cond, sensor, n,
                                                 std).tobytes()

    @pytest.mark.parametrize("before", ["odd-length", "uint32"])
    def test_a_draw_after_a_partial_word_starts_afresh(self, before):
        gen = _generator()
        cond = InputCondition(2, 3)
        if before == "odd-length":
            _stream(gen, 5, cond, 0, 3, 1.0)
            assert gen.bit_generator.state["buffer_pos"] != 4
        else:
            gen.integers(0, 2**32, size=1, dtype=np.uint32)
            assert gen.bit_generator.state["has_uint32"] == 1
        got = _stream(gen, 5, cond, 1, 9, 0.3)
        assert got.tobytes() == fresh_draws(5, cond, 1, 9, 0.3).tobytes()

    def test_add_noise_draws_each_sensor_from_its_own_fresh_stream(self):
        params = SurrogateParams()
        cond = InputCondition(4, 2)
        args = (params, P1[:33], 0.0, TimeGrid(n_samples=33))
        clean = simulate(*args, condition=cond, seed=None)
        noisy = add_noise(params, {cond: clean}, 11)[cond]
        # the run simulate gives at that seed, so a repeat's runs are too
        assert noisy.sensors.tobytes() == simulate(
            *args, condition=cond, seed=11).sensors.tobytes()
        for m in range(params.n_nodes):
            expected = clean.sensors[m] + fresh_draws(11, cond, m, 33,
                                                      params.noise_std)
            assert noisy.sensors[m].tobytes() == expected.tobytes()


class TestKernelOracle:
    """The kernel rounds as `reference.states` does, to the bit (signed
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
        runs = simulate_batch(params, traces, masses, grid, x0=x0)
        for run, trace, mass, start in zip(runs, traces, masses, x0):
            assert run.sensors.tobytes() == states(params, trace, mass,
                                                   start).tobytes()


def banded_arm(n, w, seed, diagonal):
    """The arm of `banded_arms`' draws: n nodes, bandwidth w, the values
    from ``default_rng(seed)``, and a nonzero diagonal or none; returns
    the parameters and that generator, for the caller's further draws."""
    rng = np.random.default_rng(seed)
    offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    band = (offset <= w) & ((offset > 0) | diagonal)
    coupling = np.where(band, rng.uniform(0.001, 0.04 / (2 * w + 1), (n, n)),
                        0.0)
    params = SurrogateParams(
        n_nodes=n, leak=tuple(rng.uniform(0.1, 0.5, n)),
        coupling=tuple(map(tuple, coupling)),
        input_gain=tuple(np.sort(rng.uniform(0.01, 0.05, n))),
        payload_gain=tuple(rng.uniform(-0.4, 0.0, n)),
        angle_weights=tuple(rng.uniform(0.0, 1.0, n)),
        leak_pressure_coeff=tuple(rng.uniform(0.0, 0.5, n)))
    return params, rng


@st.composite
def banded_arms(draw, max_width=8):
    """Parameters for 1-9 nodes whose coupling has bandwidth w, drawn from
    0..min(n - 1, max_width): every entry with 0 < |i - j| <= w is nonzero and the diagonal
    is all zero or all nonzero, so a row holds as many nonzero terms as its
    band allows (at least 3 once w >= 2), which pins their summation order.
    Row sums stay <= 0.04 < leak * (1 - leak_pressure_coeff)."""
    n = draw(st.integers(1, 9))
    w = draw(st.integers(0, min(n - 1, max_width)))
    params, rng = banded_arm(n, w, draw(st.integers(0, 2**32)),
                             draw(st.booleans()))
    return params, w, rng


class TestBandedKernel:
    # the kernel steps along the coupling's band: whatever the bandwidth,
    # its bits are `reference.states`' over every j
    def test_bandwidth_is_the_widest_nonzero_offset(self):
        assert surrogate.bandwidth(SurrogateParams().coupling) == 1
        assert surrogate.bandwidth(np.zeros((3, 3))) == 0
        assert surrogate.bandwidth(np.eye(4)) == 0
        assert surrogate.bandwidth(np.eye(5, k=-3)) == 3

    @settings(max_examples=40, deadline=None)
    @given(banded_arms(), st.integers(1, 3), st.integers(1, 80))
    def test_states_match_the_scalar_step_at_every_bandwidth(
            self, arm, n_runs, n_samples):
        params, w, rng = arm
        assert surrogate.bandwidth(params.coupling) == w
        grid = TimeGrid(n_samples=n_samples)
        traces = [rng.uniform(0.0, 50.0, n_samples) for _ in range(n_runs)]
        traces[0][:5] = 0.0  # zero drive while the states are negative
        masses = [0.0, 120.0, 400.0][:n_runs]
        x0 = -rng.uniform(0.5, 10.0, (n_runs, params.n_nodes))
        x0[0, 0] = -0.0
        runs = simulate_batch(params, traces, masses, grid, x0=x0)
        for run, trace, mass, start in zip(runs, traces, masses, x0):
            assert run.sensors.tobytes() == states(params, trace, mass,
                                                   start).tobytes()


class TestKeptTail:
    # a batch kept from sample `first` on is the whole batch's tail, bit for
    # bit; its noise is the whole run's noise on those samples
    @settings(max_examples=40, deadline=None)
    @given(arm=banded_arms(), n_runs=st.integers(1, 4),
           n_samples=st.integers(1, 200), seed=st.integers(0, 2**64 - 1),
           t0=st.sampled_from([0.0, -3.5, 12.25]), data=st.data())
    def test_a_batch_from_first_on_is_the_whole_batchs_tail(
            self, arm, n_runs, n_samples, seed, t0, data):
        params, _, rng = arm
        # any sample, chunk edges and their neighbours included
        first = data.draw(st.integers(0, n_samples - 1) | st.sampled_from(
            [k for k in (63, 64, 65, 128) if k < n_samples] or [0]))
        grid = TimeGrid(sample_rate=40.0, n_samples=n_samples, t0=t0)
        conds = [InputCondition(1, j) for j in range(1, n_runs + 1)]
        traces = [rng.uniform(0.0, 50.0, n_samples) for _ in range(n_runs)]
        traces[-1] = traces[0]  # a repeated trace shares its drive terms
        masses = list(rng.uniform(0.0, 400.0, n_runs))
        x0 = rng.uniform(-10.0, 10.0, (n_runs, params.n_nodes))
        whole = simulate_batch(params, traces, masses, grid, conditions=conds,
                               x0=x0)
        tail = simulate_batch(params, traces, masses, grid, conditions=conds,
                              x0=x0, first=first)
        for full, kept in zip(whole, tail, strict=True):
            assert kept.grid == grid.span(first, n_samples)
            assert kept.grid.n_samples == n_samples - first
            for name in ("s_in", "theta"):
                assert (getattr(kept, name).tobytes()
                        == getattr(full, name)[first:].tobytes())
            assert kept.sensors.tobytes() == full.sensors[:, first:].tobytes()
            assert kept.condition == full.condition
            assert kept.payload_grams == full.payload_grams
        noisy = add_noise(params, dict(zip(conds, whole)), seed)
        noisy_tail = add_noise(params, dict(zip(conds, tail)), seed, first)
        for cond in conds:
            assert (noisy_tail[cond].sensors.tobytes()
                    == noisy[cond].sensors[:, first:].tobytes())

    @settings(max_examples=40, deadline=None)
    @given(arm=banded_arms(), n_samples=st.integers(66, 200),
           seed=st.integers(0, 2**64 - 1),
           t0=st.sampled_from([0.0, -3.5, 12.25]), data=st.data())
    def test_each_run_of_a_batch_keeps_its_own_tail(self, arm, n_samples,
                                                    seed, t0, data):
        # one batch, each run from its own first sample: chunk edges and
        # their neighbours, and a test window's first, as a sweep keeps a
        # run no fit trains on
        params, _, rng = arm
        grid = TimeGrid(sample_rate=40.0, n_samples=n_samples, t0=t0)
        tested = core.window_indices(
            grid, core.Window(t0 + 0.75 * grid.duration, grid.t_end))[0]
        firsts = data.draw(st.permutations([63, 64, 65, tested] + data.draw(
            st.lists(st.integers(0, n_samples - 1), max_size=3))))
        conds = [InputCondition(1, j) for j in range(1, len(firsts) + 1)]
        # a trace shared by runs of different firsts keeps a tail for each
        shared = rng.uniform(0.0, 50.0, n_samples)
        traces = [shared if b % 2 else rng.uniform(0.0, 50.0, n_samples)
                  for b in range(len(firsts))]
        masses = list(rng.uniform(0.0, 400.0, len(firsts)))
        x0 = rng.uniform(-10.0, 10.0, (len(firsts), params.n_nodes))
        whole = simulate_batch(params, traces, masses, grid, conditions=conds,
                               x0=x0)
        tail = simulate_batch(params, traces, masses, grid, conditions=conds,
                              x0=x0, first=firsts)
        noisy = add_noise(params, dict(zip(conds, whole)), seed)
        noisy_tail = add_noise(params, dict(zip(conds, tail)), seed, firsts)
        for cond, full, kept, first in zip(conds, whole, tail, firsts,
                                           strict=True):
            assert kept.grid == grid.span(first, n_samples)
            for name in ("s_in", "theta"):
                assert (getattr(kept, name).tobytes()
                        == getattr(full, name)[first:].tobytes())
            assert kept.sensors.tobytes() == full.sensors[:, first:].tobytes()
            assert (noisy_tail[cond].sensors.tobytes()
                    == noisy[cond].sensors[:, first:].tobytes())
        # an out-of-range first, for any one run, is refused unstepped
        bad = list(firsts)
        bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(
            st.sampled_from([-1, n_samples, n_samples + 1]))
        with mock.patch.object(surrogate, "_advance", side_effect=(
                AssertionError("stepped the kernel"))):
            with pytest.raises(ValueError, match="first kept sample"):
                simulate_batch(params, traces, masses, grid, x0=x0,
                               first=bad)

    def test_one_first_per_run(self):
        with pytest.raises(ValueError, match="got 1 for 2 runs"):
            simulate_batch(SurrogateParams(), [P1[:50]] * 2, [0.0, 1.0],
                           TimeGrid(n_samples=50), first=[10])

    @pytest.mark.parametrize("first", [-1, 50, 51])
    def test_a_first_sample_outside_the_run_is_refused(self, first,
                                                       monkeypatch):
        def step(*args):
            raise AssertionError("stepped the kernel")

        monkeypatch.setattr(surrogate, "_advance", step)
        with pytest.raises(ValueError, match=f"first kept sample {first}"):
            simulate_batch(SurrogateParams(), [P1[:50]], [0.0],
                           TimeGrid(n_samples=50), first=first)

    def test_the_washout_is_stepped_but_not_kept(self):
        params = SurrogateParams()
        grid = TimeGrid(n_samples=200, t0=1.0)
        run, = simulate_batch(params, [P1[:200]], [100.0], grid, first=130)
        assert run.sensors.shape == (params.n_nodes, 70)
        assert run.grid == TimeGrid(n_samples=70, t0=1.0 + 130 / 40.0)
        assert run.s_in.base is None and run.sensors.base is None


class TestOneArrayPerRun:
    # a simulated run keeps the arrays the kernel made, uncopied, and its
    # noise makes one new sensors array and nothing else
    def test_a_run_keeps_the_kernels_arrays(self):
        params = SurrogateParams()
        grid = TimeGrid(n_samples=50)
        runs = simulate_batch(params, [P1[:50], P1[:50]], [0.0, 100.0], grid)
        for run in runs:
            for a in (run.s_in, run.sensors, run.theta):
                assert a.base is None and not a.flags.writeable
        # one read-only copy of a trace serves each of its runs
        trace = P1[:50].copy()
        a, b = simulate_batch(params, [trace, trace], [0.0, 100.0], grid)
        assert a.s_in is b.s_in
        assert not np.shares_memory(a.s_in, trace)

    def test_noise_makes_only_the_sensors_anew(self):
        params = SurrogateParams()
        cond = InputCondition(1, 2)
        clean = simulate(params, P1[:50], 100.0, TimeGrid(n_samples=50),
                         condition=cond, seed=None)
        noisy = add_noise(params, {cond: clean}, 3)[cond]
        assert noisy.s_in is clean.s_in and noisy.theta is clean.theta
        assert noisy.sensors.base is None and not noisy.sensors.flags.writeable
        assert not np.shares_memory(noisy.sensors, clean.sensors)


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
        from_x0 = [add_noise(params, {c: run}, seed)[c]
                   for c, run in zip(conds, simulate_batch(
                       params, [traces[c.profile_index - 1] for c in conds],
                       [payloads.mass_of(c.payload_index) for c in conds],
                       grid, conditions=conds, x0=x0))]
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



class TestNoise:
    # `add_noise` is the one step that puts noise into runs: one generator
    # per call, each run's `_noise_blocks` block added into its noise-free
    # states, each run replaced in its dict as its noisy copy is built
    @settings(max_examples=30, deadline=None)
    @given(arm=banded_arms(), n_runs=st.integers(1, 6),
           n_samples=st.integers(1, 120), seed=st.integers(0, 2**64 - 1),
           noise_std=st.floats(0.01, 3.0), data=st.data())
    def test_a_runs_noise_does_not_depend_on_its_batch(
            self, arm, n_runs, n_samples, seed, noise_std, data):
        params, _, rng = arm
        params = dataclasses.replace(params, noise_std=noise_std)
        conds = data.draw(st.lists(
            st.none() | st.builds(InputCondition, st.integers(1, 2**31),
                                  st.integers(1, 2**15)),
            min_size=n_runs, max_size=n_runs, unique=True))
        grid = TimeGrid(n_samples=n_samples)
        traces = [rng.uniform(0.0, 50.0, n_samples) for _ in range(n_runs)]
        masses = list(rng.uniform(0.0, 400.0, n_runs))
        clean = simulate_batch(params, traces, masses, grid, conditions=conds)
        noisy = add_noise(params, dict(zip(conds, clean)), seed)
        assert list(noisy) == conds
        for cond, run in zip(conds, clean, strict=True):
            alone = add_noise(params, {cond: run}, seed)[cond]
            for name in ("s_in", "sensors", "theta"):
                assert (getattr(noisy[cond], name).tobytes()
                        == getattr(alone, name).tobytes())
            assert noisy[cond].s_in is run.s_in
            assert noisy[cond].theta is run.theta
            assert noisy[cond].condition == cond
            assert noisy[cond].payload_grams == run.payload_grams
            assert not noisy[cond].sensors.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(noise_std=st.floats(0.0, 5.0, exclude_min=True) | st.sampled_from(
               [5e-324, 1e-310, 1e-160, 1e300, 1.7976931348623157e308]),
           n_sensors=st.integers(1, 9), n_samples=st.integers(1, 40),
           seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_each_stream_is_the_sensors_plus_a_fresh_normal_draw(
            self, noise_std, n_sensors, n_samples, seed, data):
        # a fresh Generator(Philox(key)).normal(0.0, std) per stream, to the
        # bit: a tiny std draws signed zeros, which land on -0.0 sensors; a
        # huge one overflows to an infinite sample, which the run refuses
        params = dataclasses.replace(SurrogateParams(), noise_std=noise_std)
        conds = data.draw(st.lists(
            st.none() | st.builds(InputCondition, st.integers(1, 2**31),
                                  st.integers(1, 2**15)),
            min_size=1, max_size=3, unique=True))
        grid = TimeGrid(n_samples=n_samples)
        cell = st.sampled_from([-0.0, 0.0]) | st.floats(-50.0, 50.0)
        runs = {cond: core.PressureStateSeries(
            grid=grid, s_in=np.zeros(n_samples), theta=np.zeros(n_samples),
            sensors=np.reshape(data.draw(st.lists(
                cell, min_size=n_sensors * n_samples,
                max_size=n_sensors * n_samples)), (n_sensors, n_samples)),
            condition=cond) for cond in conds}
        expected = {cond: np.array([
            run.sensors[m] + fresh_draws(seed, cond, m, n_samples, noise_std)
            for m in range(n_sensors)]) for cond, run in runs.items()}
        with warnings.catch_warnings():  # no overflow warning before it
            warnings.simplefilter("error", RuntimeWarning)
            if not all(np.isfinite(e).all() for e in expected.values()):
                with pytest.raises(ValueError, match="non-finite value"):
                    add_noise(params, runs, seed)
                return
            noisy = add_noise(params, runs, seed)
        for cond, run in noisy.items():
            for m in range(n_sensors):
                assert run.sensors[m].tobytes() == expected[cond][m].tobytes()

    def test_a_noisy_batch_builds_one_generator_and_each_run_twice(
            self, monkeypatch):
        # once noise-free by the kernel, once noisy by add_noise
        built = {"Philox": 0, "PressureStateSeries": 0}
        real_philox = np.random.Philox
        real_check = core.PressureStateSeries.__post_init__

        def philox(*args, **kwargs):
            built["Philox"] += 1
            return real_philox(*args, **kwargs)

        def check(series):
            built["PressureStateSeries"] += 1
            real_check(series)

        monkeypatch.setattr(np.random, "Philox", philox)
        monkeypatch.setattr(core.PressureStateSeries, "__post_init__", check)
        conds = [InputCondition(1, j) for j in range(1, 6)]
        runs = simulate_conditions(
            SurrogateParams(), default_profile_family()[:1], PayloadSet(),
            TimeGrid(n_samples=50), conds)
        assert list(runs) == conds
        assert [run.condition for run in runs.values()] == conds
        assert built == {"Philox": 1, "PressureStateSeries": 10}

    def test_no_noise_free_run_outlives_its_noisy_copy(self, monkeypatch):
        conds = [InputCondition(1, j) for j in range(1, 5)]
        runs = dict(zip(conds, simulate_batch(
            SurrogateParams(), [P1[:50]] * 4, [0.0, 50.0, 100.0, 150.0],
            TimeGrid(n_samples=50), conditions=conds)))
        refs = [weakref.ref(run) for run in runs.values()]
        real = surrogate._noise_blocks

        def blocks(*args):
            # block k is drawn only once runs 0..k-1 are gone
            for k, block in enumerate(real(*args)):
                assert [ref() for ref in refs[:k]] == [None] * k
                yield block

        monkeypatch.setattr(surrogate, "_noise_blocks", blocks)
        assert add_noise(SurrogateParams(), runs, 7) is runs
        assert [ref() for ref in refs] == [None] * len(refs)
        assert list(runs) == conds

    def test_zero_noise_draws_nothing_and_gives_the_noise_free_runs(
            self, monkeypatch):
        def philox(*args, **kwargs):
            raise AssertionError("built a noise generator at noise_std=0")

        monkeypatch.setattr(np.random, "Philox", philox)
        params = SurrogateParams(noise_std=0.0)
        conds = [InputCondition(1, 1), InputCondition(1, 2)]
        clean = simulate_batch(params, [P1[:50]] * 2, [0.0, 100.0],
                               TimeGrid(n_samples=50), conditions=conds)
        runs = dict(zip(conds, clean))
        assert add_noise(params, runs, core.DEFAULT_SEED) is runs
        assert list(runs.values()) == clean
        for seed in (core.DEFAULT_SEED, None):
            seeded = simulate_conditions(
                params, default_profile_family()[:1], PayloadSet(),
                TimeGrid(n_samples=50), conds, seed=seed)
            for run, expected in zip(seeded.values(), clean, strict=True):
                assert run.sensors.tobytes() == expected.sensors.tobytes()

    def test_a_key_that_overflows_is_refused_before_the_kernel_steps(
            self, monkeypatch):
        def step(*args):
            raise AssertionError("stepped the kernel")

        monkeypatch.setattr(surrogate, "_advance", step)
        cond = InputCondition(1, 1 << 16)
        args = (SurrogateParams(), default_profile_family()[:1],
                PayloadSet(tuple(range(1 << 16))), SHORT,
                [InputCondition(1, 1), cond])
        with pytest.raises(ValueError, match=cond.label):
            simulate_conditions(*args, seed=7)
        # noise-free runs need no key: the kernel is reached
        with pytest.raises(AssertionError, match="stepped the kernel"):
            simulate_conditions(*args, seed=None)

    def test_a_kernel_error_reaches_the_caller_unchanged(self, monkeypatch):
        error = RuntimeError("the kernel failed")

        def fail(*args):
            raise error

        monkeypatch.setattr(surrogate, "_advance", fail)
        with pytest.raises(RuntimeError) as raised:
            simulate(SurrogateParams(), P1[:50], 0.0, TimeGrid(n_samples=50))
        assert raised.value is error

    def test_a_noisy_batch_in_a_fork_map_child_has_this_process_bits(self):
        # `sweep samples` simulates its runs inside `fork_map` children
        conds = [InputCondition(1, j) for j in range(1, 4)]

        def batch(_=None):
            runs = simulate_conditions(
                SurrogateParams(), default_profile_family()[:1], PayloadSet(),
                TimeGrid(n_samples=50), conds)
            return [run.sensors.tobytes() for run in runs.values()]

        here = batch()
        assert core.fork_map(lambda share: [batch(k) for k in share],
                             [0, 1]) == [here, here]
