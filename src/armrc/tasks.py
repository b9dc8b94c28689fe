"""Target signals, decision rules and reported numbers (`score`, read off
a `readout.WindowFactor`, and `constant_score`, off a window's column
means) for the three perception tasks: bending-angle prediction, payload
detection, and payload-mass estimation.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from .core import PressureStateSeries, Window, window_indices
from .readout import (ReadoutWeights, WindowFactor, predict, scaled_percent,
                      truth_scale)

class TaskKind(enum.Enum):
    BENDING_ANGLE = "bending"
    PAYLOAD_DETECT = "detect"
    PAYLOAD_MASS = "mass"


class PayloadStatus(enum.Enum):
    ABSENT = "absent"
    PRESENT = "present"


# the detect readout's target for each `true_status`
DETECT_LABEL = {PayloadStatus.ABSENT: 1.0, PayloadStatus.PRESENT: -1.0}


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


def true_status(mass: float) -> PayloadStatus:
    """The detect truth: a payload of ``mass`` grams is present iff > 0."""
    return PayloadStatus.PRESENT if mass > 0 else PayloadStatus.ABSENT


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


def score(block: WindowFactor, w: np.ndarray, normalizer: str) -> np.ndarray:
    """The bending error of readout ``w`` on a factor's window, the
    `readout.nrmse_percent` of the angle, in O(k^2) instead of O(T k).
    ``w`` is one `readout.full_width` row or an (N, 1 + n_sensors) batch of
    them. Stacked matmuls give every row BLAS calls of its own, so no score
    depends on the rest of its batch (README: the gemv pitfall)."""
    resid = (block.r @ w[..., None])[..., 0] - block.z
    sq = (resid[..., None, :] @ resid[..., None])[..., 0, 0]
    rms = np.sqrt((sq + block.floor) / block.n_rows)
    return scaled_percent(rms, truth_scale(block.span, normalizer))


def constant_score(task: TaskKind, means: np.ndarray, w: np.ndarray,
                   mass: Optional[float]) -> np.ndarray:
    """The reported number of readout ``w`` for a constant-target task, from
    the window design's column ``means`` (`readout.window_means`) alone:
    for mass the `mass_error_percent` of the window mean against ``mass``,
    for detection the window mean itself (the detect output, as
    `estimate_mass` is the mass estimate)."""
    mean = (w[..., None, :] @ means[..., None])[..., 0, 0]
    if task is TaskKind.PAYLOAD_MASS:
        return mass_error_percent(mean, mass)
    return mean
