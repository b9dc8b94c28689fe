"""Linear readout training and scoring.

Training has one solver: a QR of the design [1 | S], then an SVD of its
small R factor, which gives the minimum-norm least-squares fit with a
relative singular-value cutoff (ridge 0) or the ridge solution from the
same factors. `reduce_assembly` shrinks an assembly to its (R, Q^T Y)
rows, which pose the same least-squares problem for any subset of its
columns, and `solve_reduced` fits such rows, alone or stacked.
Predictions are per-sample weighted sums of the masked sensor readings plus
a bias.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import PressureStateSeries, Window, window_indices

# Relative singular-value cutoff for the minimum-norm pseudoinverse path.
# A bare pseudoinverse is ill-posed on noisy, near-collinear sensor data.
RCOND = 1e-10


def _full_mask(n_sensors: int) -> tuple:
    return tuple(range(n_sensors))


def normalize_mask(mask: Optional[Sequence[int]], n_sensors: int) -> tuple:
    """Validate a 0-based sensor index mask; None selects all sensors."""
    if mask is None:
        return _full_mask(n_sensors)
    mask = tuple(int(m) for m in mask)
    if len(mask) == 0:
        raise ValueError("sensor mask must select at least one sensor")
    if len(set(mask)) != len(mask):
        raise ValueError(f"sensor mask has duplicates: {mask}")
    if any(not 0 <= m < n_sensors for m in mask):
        raise ValueError(f"sensor mask {mask} outside 0..{n_sensors - 1}")
    return mask


@dataclass(frozen=True, eq=False)
class TrainingAssembly:
    """Stacked design matrix [1 | S(t)] and matching targets.

    Rows concatenate the chosen conditions' training windows in list order,
    or their (R, Q^T Y) rows after `reduce_assembly`; the first column is
    the bias regressor.
    """

    states: np.ndarray
    targets: np.ndarray
    sensor_mask: tuple

    def __post_init__(self) -> None:
        if self.states.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("states and targets must be 2-D")
        if self.states.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"row mismatch: {self.states.shape[0]} state rows vs "
                f"{self.targets.shape[0]} target rows"
            )

    @property
    def n_tasks(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True, eq=False)
class ReadoutWeights:
    """Bias plus per-sensor weights, one column per task."""

    weights: np.ndarray
    sensor_mask: tuple
    task_names: tuple = ()

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D (1 + n_sensors, n_tasks)")
        if self.weights.shape[0] != 1 + len(self.sensor_mask):
            raise ValueError(
                f"{self.weights.shape[0]} weight rows for "
                f"{len(self.sensor_mask)} masked sensors"
            )
        if not self.task_names:
            object.__setattr__(
                self,
                "task_names",
                tuple(f"task{k}" for k in range(self.weights.shape[1])),
            )
        elif len(self.task_names) != self.weights.shape[1]:
            raise ValueError("one task name required per weight column")

    @property
    def bias(self) -> np.ndarray:
        return self.weights[0]

    @property
    def sensor_weights(self) -> np.ndarray:
        return self.weights[1:]

    @property
    def n_tasks(self) -> int:
        return self.weights.shape[1]


def assemble(
    condition_data: Sequence,
    window: Window,
    sensor_mask: Optional[Sequence[int]] = None,
) -> TrainingAssembly:
    """Stack (series, target trace) pairs over one training window.

    Each target trace shares its series' clock; the window slices both. A
    1-D target contributes one task column, a 2-D one several.
    """
    if len(condition_data) == 0:
        raise ValueError("need at least one condition to assemble")
    blocks = []
    target_blocks = []
    mask = None
    n_sensors = None
    n_tasks = None
    for series, target in condition_data:
        if n_sensors is None:
            n_sensors = series.n_sensors
            mask = normalize_mask(sensor_mask, n_sensors)
        elif series.n_sensors != n_sensors:
            raise ValueError(
                f"conditions disagree on sensor count: {series.n_sensors} vs "
                f"{n_sensors}"
            )
        target = np.asarray(target, dtype=float)
        if target.ndim == 1:
            target = target[:, None]
        if target.shape[0] != series.grid.n_samples:
            raise ValueError(
                f"target length {target.shape[0]} does not match series "
                f"length {series.grid.n_samples}"
            )
        if n_tasks is None:
            n_tasks = target.shape[1]
        elif target.shape[1] != n_tasks:
            raise ValueError("conditions disagree on target column count")
        i0, i1 = window_indices(series.grid, window)
        rows = series.sensors[list(mask), i0:i1].T
        blocks.append(np.hstack([np.ones((rows.shape[0], 1)), rows]))
        target_blocks.append(target[i0:i1])
    return TrainingAssembly(
        states=np.vstack(blocks),
        targets=np.vstack(target_blocks),
        sensor_mask=mask,
    )


def train(
    assembly: TrainingAssembly,
    ridge: float = 0.0,
    task_names: Sequence[str] = (),
) -> ReadoutWeights:
    """Fit readout weights for every target column:
    ``solve_reduced(reduce_assembly(assembly))``."""
    if assembly.states.shape[0] == 0:
        raise ValueError("cannot train on an empty assembly")
    return solve_reduced(reduce_assembly(assembly), ridge, task_names)


def solve_reduced(
    reduced: TrainingAssembly,
    ridge: float = 0.0,
    task_names: Sequence[str] = (),
) -> ReadoutWeights:
    """Fit readout weights on (R, Q^T Y) rows, one reduced assembly or
    several stacked.

    R = U diag(s) V^T and w = V diag(d) U^T Q^T y. At ridge == 0, d = 1/s
    for singular values above RCOND * s[0] and 0 below it (the minimum-norm
    pseudoinverse). At ridge > 0, d = s / (s^2 + ridge), which minimizes
    |Phi w - y|^2 + ridge |w|^2; the penalty covers every column, the bias
    included. Columns are solved one at a time so multi-task training is
    bit-identical to task-by-task training.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    if reduced.states.shape[0] == 0:
        raise ValueError("cannot train on an empty assembly")
    u, s, vt = np.linalg.svd(reduced.states, full_matrices=False)
    if ridge == 0.0:
        keep = s > (RCOND * s[0] if s.size and s[0] > 0 else np.inf)
        d = np.zeros_like(s)
        d[keep] = 1.0 / s[keep]
    else:
        d = s / (s * s + ridge)
    solve = (vt.T * d) @ u.T
    z = reduced.targets
    cols = [solve @ z[:, k] for k in range(z.shape[1])]
    return ReadoutWeights(
        weights=np.column_stack(cols),
        sensor_mask=reduced.sensor_mask,
        task_names=tuple(task_names),
    )


def reduce_assembly(assembly: TrainingAssembly) -> TrainingAssembly:
    """The (R, Q^T Y) assembly of Phi = QR: at most one row per column.

    Phi[:, cols] = Q R[:, cols] with Q's columns orthonormal, so training on
    the reduced rows, alone or stacked with other reduced assemblies, and on
    any subset of their columns, solves the same least-squares problem as
    the original rows. Q^T y is taken column by column, so a task's column
    does not depend on the others.
    """
    q, r = np.linalg.qr(assembly.states)
    y = assembly.targets
    return TrainingAssembly(
        states=r,
        targets=np.column_stack([q.T @ y[:, k] for k in range(y.shape[1])]),
        sensor_mask=assembly.sensor_mask,
    )


def predict(
    weights: ReadoutWeights,
    series: PressureStateSeries,
    window: Optional[Window] = None,
) -> np.ndarray:
    """Per-sample readout output over a window, one trace per task.

    Returns shape (n_samples,) for a single task, else (n_samples, n_tasks).
    """
    if max(weights.sensor_mask) >= series.n_sensors:
        raise ValueError(
            f"weights trained on sensors {weights.sensor_mask} cannot read a "
            f"{series.n_sensors}-sensor series"
        )
    i0, i1 = ((0, series.grid.n_samples) if window is None
              else window_indices(series.grid, window))
    rows = series.sensors[list(weights.sensor_mask), i0:i1].T
    out = weights.bias + rows @ weights.sensor_weights
    return out[:, 0] if weights.n_tasks == 1 else out


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error between two equal-length traces."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("rmse undefined for empty traces")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def nrmse_percent(pred: np.ndarray, truth: np.ndarray,
                  normalizer: str = "range") -> float:
    """RMSE as a percentage of the ground-truth scale (`truth_scale`)."""
    scale = truth_scale(truth, normalizer)
    return scaled_percent(rmse(pred, truth), scale)


def truth_scale(truth: np.ndarray, normalizer: str = "range") -> float:
    """The scale percent errors divide by; 0.0 for a flat or empty truth.

    normalizer "range" is max(truth) - min(truth) over the evaluation
    window, "maxabs" is max |truth|. The choice is a reporting convention;
    both are exposed because percent errors depend on it.
    """
    truth = np.asarray(truth, dtype=float)
    if normalizer == "range":
        return float(truth.max() - truth.min()) if truth.size else 0.0
    if normalizer == "maxabs":
        return float(np.abs(truth).max()) if truth.size else 0.0
    raise ValueError(f"unknown normalizer {normalizer!r}")


def scaled_percent(error: float, scale: float) -> float:
    """``error`` as a percentage of a `truth_scale`."""
    if scale == 0.0:
        raise ValueError("ground-truth scale is zero; percent error undefined")
    return 100.0 * error / scale


def correlation_matrix(traces: Sequence[np.ndarray]) -> np.ndarray:
    """Pearson correlation matrix of equal-length traces.

    Zero-variance traces correlate 0 with everything (with a warning)
    rather than propagating NaN; the diagonal is always 1.
    """
    arr = np.asarray(traces, dtype=float)
    if arr.ndim != 2:
        raise ValueError("traces must be a list of equal-length 1-D arrays")
    if arr.shape[1] < 2:
        raise ValueError("need at least two samples per trace")
    centered = arr - arr.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    degenerate = norms == 0
    if degenerate.any():
        warnings.warn(
            "zero-variance trace(s) in correlation matrix; entries set to 0",
            stacklevel=2,
        )
    safe = np.where(degenerate, 1.0, norms)
    unit = centered / safe[:, None]
    corr = unit @ unit.T
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)
