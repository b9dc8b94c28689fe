"""Target signals and decision rules for the three perception tasks:
bending-angle prediction, payload detection, and payload-mass estimation.
"""

from __future__ import annotations

import enum

import numpy as np

from .core import PressureStateSeries, Window, window_indices
from .readout import ReadoutWeights, predict

DETECT_ABSENT = 1.0
DETECT_PRESENT = -1.0


class TaskKind(enum.Enum):
    BENDING_ANGLE = "bending"
    PAYLOAD_DETECT = "detect"
    PAYLOAD_MASS = "mass"


class PayloadStatus(enum.Enum):
    ABSENT = "absent"
    PRESENT = "present"


def bending_target(series: PressureStateSeries, window: Window) -> np.ndarray:
    """Ground-truth bending angle over the window (degrees)."""
    i0, i1 = window_indices(series.grid, window)
    return series.theta[i0:i1]


def detect_payload(
    weights: ReadoutWeights,
    series: PressureStateSeries,
    window: Window,
) -> PayloadStatus:
    """Sign rule (see `payload_status`) on the window-averaged output."""
    return payload_status(float(np.mean(predict(weights, series, window))))


def payload_status(mean_output: float) -> PayloadStatus:
    """Detection sign rule on a window-averaged detect output.

    Positive mean -> absent, negative -> present; an exact zero resolves to
    present so the downstream mass step never silently skips a real payload.
    """
    return PayloadStatus.ABSENT if mean_output > 0 else PayloadStatus.PRESENT


def estimate_mass(
    weights: ReadoutWeights,
    series: PressureStateSeries,
    window: Window,
) -> float:
    """Point estimate of the payload mass: the window mean of the readout
    trace, which oscillates with the actuation cycle."""
    return float(np.mean(predict(weights, series, window)))


def mass_error_percent(estimate: float, mass: float) -> float:
    """Relative mass error |estimate - mass| / mass in percent."""
    return abs(estimate - mass) / mass * 100.0
