import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armrc.core import TimeGrid
from armrc.profiles import (
    RampProfileSpec,
    cycle_period,
    default_profile_family,
    generate_profile,
    peak_time,
)

spec_strategy = st.builds(
    RampProfileSpec,
    u_min=st.floats(0.0, 20.0),
    u_max=st.floats(21.0, 60.0),
    r_up=st.floats(1.0, 10.0),
    r_down=st.floats(1.0, 10.0),
    n_cycles=st.integers(1, 10),
)


class TestTiming:
    def test_peak_time(self):
        assert peak_time(RampProfileSpec(0.0, 10.0, r_up=5.0)) == 2.0
        assert peak_time(RampProfileSpec(0.0, 7.5, r_up=5.0)) == 1.5

    def test_cycle_period(self):
        assert cycle_period(RampProfileSpec(0.0, 10.0, 5.0, 5.0)) == 4.0
        assert cycle_period(RampProfileSpec(0.0, 10.0, 10.0, 5.0)) == 3.0
        assert cycle_period(RampProfileSpec(0.0, 12.5, 5.0, 5.0)) == 5.0

    def test_rejects_degenerate_swing(self):
        with pytest.raises(ValueError):
            RampProfileSpec(5.0, 5.0)
        with pytest.raises(ValueError):
            RampProfileSpec(5.0, 4.0)

    def test_rejects_bad_rates_and_cycles(self):
        with pytest.raises(ValueError):
            RampProfileSpec(0.0, 10.0, r_up=0.0)
        with pytest.raises(ValueError):
            RampProfileSpec(0.0, 10.0, r_down=-1.0)
        with pytest.raises(ValueError):
            RampProfileSpec(0.0, 10.0, n_cycles=0)
        with pytest.raises(ValueError):
            RampProfileSpec(-1.0, 10.0)

    # a nan passes every comparison and an infinite u_max makes one endless
    # ramp: each is refused by name
    @pytest.mark.parametrize("name, value", [
        ("u_min", np.nan), ("u_max", np.nan), ("u_max", np.inf),
        ("r_up", np.nan), ("r_up", np.inf), ("r_down", np.nan),
        ("n_cycles", np.nan), ("n_cycles", np.inf),
    ])
    def test_rejects_a_value_that_is_not_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RampProfileSpec(**{"u_min": 0.0, "u_max": 10.0, name: value})

    # a whole float cycle count is the int (`n_cycles: 8.0` moved the
    # config's digest), and a fraction is refused, not compared
    def test_a_whole_float_cycle_count_is_the_int(self):
        spec = RampProfileSpec(1.0, 32.25, n_cycles=8.0)
        assert type(spec.n_cycles) is int
        assert spec == RampProfileSpec(1.0, 32.25, n_cycles=8)

    def test_a_fractional_cycle_count_is_refused(self):
        with pytest.raises(ValueError) as err:
            RampProfileSpec(1.0, 32.25, n_cycles=8.5)
        assert str(err.value) == "n_cycles: expected an integer, got 8.5"


class TestGenerate:
    def test_boundary_values(self):
        spec = RampProfileSpec(2.0, 12.0, 5.0, 5.0)  # T_peak=2, T=4
        grid = TimeGrid(sample_rate=40.0, n_samples=4000)
        u = generate_profile(spec, grid)
        assert u[0] == 2.0                       # t=0 -> u_min
        assert u[80] == 12.0                     # t=T_peak -> u_max
        assert u[40] == 7.0                      # t=1 s on the ramp

    def test_in_cycle_sample_count(self):
        # eight 4 s cycles at 40 Hz: count grid samples with t < 32 s
        spec = RampProfileSpec(0.0, 10.0, 5.0, 5.0, n_cycles=8)
        grid = TimeGrid(sample_rate=40.0, n_samples=4000)
        expected = int(np.sum(grid.times() < 8 * cycle_period(spec)))
        assert expected == 1280
        u = generate_profile(spec, grid)
        # after the cycles the trace holds at u_min
        assert np.all(u[1280:] == spec.u_min)
        assert np.any(u[:1280] > spec.u_min)

    def test_hold_keeps_any_grid_length_valid(self):
        spec = RampProfileSpec(1.0, 6.0, n_cycles=2)
        grid = TimeGrid(sample_rate=40.0, n_samples=2000)  # 50 s >> 2 cycles
        u = generate_profile(spec, grid)
        assert u[-1] == spec.u_min

    @settings(max_examples=40, deadline=None)
    @given(spec=spec_strategy)
    def test_bounds_hold_at_every_sample(self, spec):
        grid = TimeGrid(sample_rate=40.0, n_samples=1500)
        u = generate_profile(spec, grid)
        assert np.all(u >= spec.u_min)
        assert np.all(u <= spec.u_max)

    def test_periodicity_inside_cycled_region(self):
        spec = RampProfileSpec(1.0, 32.25)  # stock P1: T = 12.5 s
        grid = TimeGrid()
        u = generate_profile(spec, grid)
        period_samples = int(round(cycle_period(spec) * grid.sample_rate))
        cycled = 8 * period_samples
        assert np.allclose(u[:cycled - period_samples],
                           u[period_samples:cycled], atol=1e-9)

    def test_piecewise_linear_within_segments(self):
        spec = RampProfileSpec(1.0, 32.25)
        grid = TimeGrid()
        u = generate_profile(spec, grid)
        second = np.diff(u, n=2)
        # rising segment of the first cycle: samples 1..249
        assert np.allclose(second[: 248], 0.0, atol=1e-9)


class TestDefaultFamily:
    def test_seven_profiles_share_the_run_filling_period(self):
        family = default_profile_family()
        assert len(family) == 7
        for spec in family:
            assert cycle_period(spec) == 12.5
            assert spec.n_cycles == 8
        # eight cycles exactly fill the 100 s run
        assert 8 * cycle_period(family[0]) == 100.0

    def test_magnitudes_step_up_with_index(self):
        family = default_profile_family()
        mins = [s.u_min for s in family]
        maxs = [s.u_max for s in family]
        assert mins == sorted(mins) and len(set(mins)) == 7
        assert maxs == sorted(maxs) and len(set(maxs)) == 7
