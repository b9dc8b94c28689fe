import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armrc.core import PressureStateSeries, TimeGrid, Window
from armrc.readout import ReadoutWeights
from armrc.tasks import (
    PayloadStatus,
    bending_target,
    detect_payload,
    estimate_mass,
    true_status,
)


def flat_series(value, n=400, n_sensors=7):
    grid = TimeGrid(sample_rate=40.0, n_samples=n)
    return PressureStateSeries(
        grid=grid,
        s_in=np.zeros(n),
        sensors=np.full((n_sensors, n), value),
        theta=np.linspace(0.0, 10.0, n),
    )


class TestBendingTarget:
    def test_returns_the_stored_angle_over_the_window(self):
        series = flat_series(0.0, n=4000)
        window = Window(50.0, 75.0)
        target = bending_target(series, window)
        assert np.array_equal(target, series.theta[2000:3000])


class TestDetectPayload:
    def test_sign_rule(self):
        up = ReadoutWeights(np.array([[1.0]] + [[0.0]] * 7), tuple(range(7)))
        down = ReadoutWeights(np.array([[-1.0]] + [[0.0]] * 7), tuple(range(7)))
        series = flat_series(0.0)
        window = Window(0.0, 10.0)
        assert detect_payload(up, series, window) is PayloadStatus.ABSENT
        assert detect_payload(down, series, window) is PayloadStatus.PRESENT

    def test_exact_zero_resolves_to_present(self):
        zero = ReadoutWeights(np.zeros((8, 1)), tuple(range(7)))
        series = flat_series(0.0)
        assert detect_payload(zero, series, Window(0.0, 10.0)) is PayloadStatus.PRESENT

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 100.0), st.integers(0, 100))
    def test_decision_is_scale_equivariant(self, scale, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, 1))
        series = flat_series(rng.normal())
        window = Window(0.0, 10.0)
        base = detect_payload(ReadoutWeights(w, tuple(range(7))), series, window)
        scaled = detect_payload(ReadoutWeights(w * scale, tuple(range(7))),
                                series, window)
        assert base is scaled


class TestTrueStatus:
    @pytest.mark.parametrize("mass, status", [
        (0.0, PayloadStatus.ABSENT), (5e-324, PayloadStatus.PRESENT),
        (300.0, PayloadStatus.PRESENT)])
    def test_a_payload_is_present_iff_its_mass_is_positive(self, mass,
                                                            status):
        assert true_status(mass) is status


class TestEstimateMass:
    def test_constant_prediction(self):
        w = ReadoutWeights(np.array([[300.0]] + [[0.0]] * 7), tuple(range(7)))
        series = flat_series(5.0)
        assert estimate_mass(w, series, Window(0.0, 10.0)) == pytest.approx(300.0)

    def test_zero_sensor_weights_return_the_bias(self):
        w = ReadoutWeights(np.array([[42.0]] + [[0.0]] * 7), tuple(range(7)))
        series = flat_series(123.0)
        assert estimate_mass(w, series, Window(0.0, 10.0)) == pytest.approx(42.0)


class TestMultiTaskReadouts:
    # a stacked readout's detect and mass outputs are its columns of those
    # names, not the mean over every column
    def readout(self, names=("bending", "detect", "mass")):
        bias = np.array([[30.0, -1.0, 250.0]])
        return ReadoutWeights(np.vstack([bias, np.zeros((7, 3))]),
                              tuple(range(7)), names)

    def test_each_reads_its_own_column(self):
        series, window = flat_series(4.0), Window(0.0, 10.0)
        weights = self.readout()
        assert detect_payload(weights, series, window) is PayloadStatus.PRESENT
        assert estimate_mass(weights, series, window) == 250.0

    def test_a_readout_without_the_column_is_refused(self):
        series, window = flat_series(4.0), Window(0.0, 10.0)
        weights = self.readout(("bending", "angle2", "mass"))
        with pytest.raises(ValueError,
                           match=r"tasks \['bending', 'angle2', 'mass'\] "
                                 "has no 'detect' column"):
            detect_payload(weights, series, window)
        assert estimate_mass(weights, series, window) == 250.0
        with pytest.raises(ValueError, match="has no 'mass' column"):
            estimate_mass(self.readout(("a", "b", "c")), series, window)

    def test_a_single_task_readout_keeps_its_one_column(self):
        series, window = flat_series(4.0), Window(0.0, 10.0)
        w = np.vstack([[[-3.0]], np.zeros((7, 1))])
        for name in ("detect", "mass", "bending"):
            weights = ReadoutWeights(w, tuple(range(7)), (name,))
            assert estimate_mass(weights, series, window) == -3.0
            assert detect_payload(weights, series,
                                  window) is PayloadStatus.PRESENT
