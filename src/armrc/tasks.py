"""Target signals, decision rules and the reported number (`score`, from
a run window's `readout` reads) of the three perception tasks:
bending-angle prediction, payload detection, and payload-mass estimation.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from .core import PressureStateSeries, Window, window_indices
from .readout import (ReadoutWeights, full_width, scaled_percent, truth_scale,
                      window_factor, window_means)

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
    """Sign rule (see `payload_status`) on the window-averaged detect
    output (`_window_mean`)."""
    return payload_status(
        _window_mean(TaskKind.PAYLOAD_DETECT, weights, series, window))


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
    """Point estimate of the payload mass: the window mean of the readout's
    mass trace (`_window_mean`), which oscillates with the actuation cycle."""
    return _window_mean(TaskKind.PAYLOAD_MASS, weights, series, window)


def _window_mean(task: TaskKind, weights: ReadoutWeights,
                 series: PressureStateSeries, window: Window) -> float:
    """The window mean of one output of ``weights`` (`score` of detection):
    a single-task readout's one column, a multi-task one's column named
    ``task``."""
    names = weights.task_names
    if len(names) > 1 and task.value not in names:
        raise ValueError(f"a readout of tasks {list(names)} has no "
                         f"{task.value!r} column")
    w = full_width(weights, series.n_sensors)[
        names.index(task.value) if len(names) > 1 else 0]
    return float(score(TaskKind.PAYLOAD_DETECT, series, window, w))


def mass_error_percent(estimate: float, mass: float) -> float:
    """Relative mass error |estimate - mass| / mass in percent."""
    return abs(estimate - mass) / mass * 100.0


def score(task: TaskKind, series: PressureStateSeries, window: Window,
          w: np.ndarray, truth: Optional[float] = None,
          normalizer: str = "range") -> np.ndarray:
    """The reported number of readout ``w`` for ``task`` on a run's window,
    from the window's `readout` reads: for bending the
    `readout.nrmse_percent` of the angle, in O(k^2) from its factor instead
    of O(T k); for detection the window mean of the output, from its design
    column means (the detect output, and equally the mass estimate); for mass
    the `mass_error_percent` of that mean against ``truth`` grams. ``w`` is
    one `readout.full_width` row or an (N, 1 + n_sensors) batch of them.
    Stacked matmuls give every row BLAS calls of its own, so no score
    depends on the rest of its batch (README: the gemv pitfall)."""
    if task is TaskKind.BENDING_ANGLE:
        block = window_factor(series, window)
        resid = (block.r @ w[..., None])[..., 0] - block.z
        sq = (resid[..., None, :] @ resid[..., None])[..., 0, 0]
        rms = np.sqrt((sq + block.floor) / block.n_rows)
        return scaled_percent(rms, truth_scale(block.span, normalizer))
    mean = (w[..., None, :] @ window_means(series, window)[..., None])[..., 0, 0]
    return (mean if task is TaskKind.PAYLOAD_DETECT
            else mass_error_percent(mean, truth))
