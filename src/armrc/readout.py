"""Linear readout training and scoring.

The design is [1 | S], a bias column then one column per sensor, built
only by `_design`; `columns` maps a mask onto it. Training and scoring
share one factorization: `factor` takes the QR of a window's design
(`window_factor`) and keeps a `WindowFactor`, from which `solve_reduced`
fits readouts (one SVD call for a whole stack of small R row blocks, each
for any subset of the columns) and `tasks.score` scores them. `full_width`
lays any readout's weights over all of [1 | S], and `predict` is the
design rows times those weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import PressureStateSeries, Window, window_indices

# Relative singular-value cutoff for the minimum-norm pseudoinverse path.
# A bare pseudoinverse is ill-posed on noisy, near-collinear sensor data.
RCOND = 1e-10
# `truth_scale`'s choices of the scale percent errors divide by
NORMALIZERS = ("range", "maxabs")


def normalize_mask(mask: Optional[Sequence[int]], n_sensors: int) -> tuple:
    """Validate a 0-based sensor index mask; None selects all sensors."""
    if mask is None:
        return tuple(range(n_sensors))
    mask = tuple(int(m) for m in mask)
    if len(mask) == 0:
        raise ValueError("sensor mask must select at least one sensor")
    if len(set(mask)) != len(mask):
        raise ValueError(f"sensor mask has duplicates: {mask}")
    if any(not 0 <= m < n_sensors for m in mask):
        raise ValueError(f"sensor mask {mask} outside 0..{n_sensors - 1}")
    return mask


def columns(mask: Sequence[int]) -> list:
    """A mask's columns of the all-sensor design [1 | S]: the bias at 0,
    sensor m at 1 + m."""
    return [0] + [1 + m for m in mask]


def _design(sensors: np.ndarray) -> np.ndarray:
    """The design rows [1 | S] of (n_sensors, T) sensor traces."""
    return np.hstack([np.ones((sensors.shape[1], 1)), sensors.T])


@dataclass(frozen=True, eq=False)
class TrainingAssembly:
    """Stacked design matrix [1 | S(t)] and matching targets.

    Rows concatenate the chosen conditions' training windows in list order;
    the first column is the bias regressor.
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
        blocks.append(_design(series.sensors[list(mask), i0:i1]))
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
    """Fit readout weights for every target column from the design's
    `factor`, one column at a time, as a `solve_reduced` batch of one."""
    y = assembly.targets
    parts = [factor(assembly.states, y[:, k]) for k in range(y.shape[1])]
    z = np.column_stack([p.z for p in parts])
    return ReadoutWeights(
        weights=solve_reduced(parts[0].r[None], z[None], ridge)[0],
        sensor_mask=assembly.sensor_mask,
        task_names=tuple(task_names),
    )


class WindowFactor(NamedTuple):
    """One QR of a window's design Phi = [1 | S] = Q R and what fitting and
    scoring need from it, for a target theta; Q itself is not kept.

    Phi[:, cols] = Q R[:, cols] with Q's columns orthonormal, so the R rows
    with z pose the same least-squares problem as the window's rows, for
    any subset of the columns, alone or stacked with other factors' rows.
    Since Phi's first column is all ones, a constant target c has
    Q^T (c 1) = c R[:, 0] and needs no factor of its own. For weights w
    over all of Phi's columns, theta - Q z is orthogonal to Q's columns, so
    |Phi w - theta|^2 = |R w - z|^2 + floor, and the window mean of Phi w
    is means . w. (A NamedTuple: a dataclass would add about 1 ms to every
    `armrc` start-up.)
    """

    r: np.ndarray       # R, at most (1 + n_sensors) square
    z: np.ndarray       # Q^T theta
    floor: float        # |theta - Q z|^2, the error no readout avoids
    n_rows: int
    span: tuple         # (min, max) of theta, all `truth_scale` reads
    means: np.ndarray   # column means of Phi


def factor(phi: np.ndarray, theta: np.ndarray) -> WindowFactor:
    """The `WindowFactor` of design rows ``phi`` and target ``theta``."""
    if phi.shape[0] == 0:
        raise ValueError("cannot factor a design with no rows")
    q, r = np.linalg.qr(phi)
    z = q.T @ theta
    resid = theta - q @ z
    return WindowFactor(r=r, z=z, floor=float(resid @ resid),
                        n_rows=phi.shape[0],
                        span=(float(theta.min()), float(theta.max())),
                        means=phi.mean(axis=0))


def window_factor(series: PressureStateSeries, window: Window) -> WindowFactor:
    """The `factor` of one run's all-sensor design and bending angle over a
    window, which every fit and score on that window reads."""
    i0, i1 = window_indices(series.grid, window)
    if i1 == i0:
        raise ValueError(
            f"window [{window.start}, {window.end}) holds no samples")
    return factor(_design(series.sensors[:, i0:i1]), series.theta[i0:i1])


def solve_reduced(r: np.ndarray, z: np.ndarray,
                  ridge: float = 0.0) -> np.ndarray:
    """Fit a stack of readouts on (R, Q^T Y) rows in one SVD call: ``r``
    is (N, m, k), each matrix one factor's rows or several factors'
    stacked, and ``z`` is (N or 1, m, n_tasks); returns (N, k, n_tasks).

    R = U diag(s) V^T and w = V diag(d) U^T Q^T y. At ridge == 0, d = 1/s
    for singular values above RCOND * s[0] and 0 below it (the minimum-norm
    pseudoinverse). At ridge > 0, d = s / (s^2 + ridge), which minimizes
    |Phi w - y|^2 + ridge |w|^2; the penalty covers every column, the bias
    included. LAPACK and BLAS run once per matrix, and task columns are
    solved one at a time, so a readout is bit-identical alone, in any
    stack, and task by task.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    u, s, vt = np.linalg.svd(r, full_matrices=False)
    if ridge == 0.0:
        top = s[:, :1]
        keep = s > np.where(top > 0, RCOND * top, np.inf)
        d = np.zeros_like(s)
        d[keep] = 1.0 / s[keep]
    else:
        d = s / (s * s + ridge)
    solve = (vt.swapaxes(1, 2) * d[:, None, :]) @ u.swapaxes(1, 2)
    return np.concatenate([solve @ z[:, :, k:k + 1]
                           for k in range(z.shape[2])], axis=2)


def full_width(weights: ReadoutWeights, n_sensors: int) -> np.ndarray:
    """Weights as (n_tasks, 1 + n_sensors) rows over the all-sensor design,
    zero on the sensors outside the mask; weights whose mask names a sensor
    an n-sensor run lacks are refused."""
    if max(weights.sensor_mask) >= n_sensors:
        raise ValueError(f"weights trained on sensors {weights.sensor_mask} "
                         f"cannot read a {n_sensors}-sensor run")
    rows = np.zeros((weights.n_tasks, 1 + n_sensors))
    rows[:, columns(weights.sensor_mask)] = weights.weights.T
    return rows


def predict(
    weights: ReadoutWeights,
    series: PressureStateSeries,
    window: Optional[Window] = None,
) -> np.ndarray:
    """Per-sample readout output over a window, one trace per task: the
    window's `_design` rows times the `full_width` weights.

    Returns shape (n_samples,) for a single task, else (n_samples, n_tasks).
    """
    wide = full_width(weights, series.n_sensors)
    i0, i1 = ((0, series.grid.n_samples) if window is None
              else window_indices(series.grid, window))
    out = _design(series.sensors[:, i0:i1]) @ wide.T
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


def truth_scale(truth, normalizer: str = "range"):
    """The scale percent errors divide by, of each trace along the last
    axis; 0.0 for a flat or empty truth.

    normalizer "range" is max(truth) - min(truth) over the evaluation
    window, "maxabs" is max |truth|; both read only its extremes, so a
    (min, max) span gives its scale bit for bit. The choice is a reporting
    convention; both are exposed because percent errors depend on it.
    """
    if normalizer not in NORMALIZERS:
        raise ValueError(f"unknown normalizer {normalizer!r}")
    truth = np.asarray(truth, dtype=float)
    if truth.shape[-1] == 0:
        return 0.0
    lo, hi = truth.min(axis=-1), truth.max(axis=-1)
    return hi - lo if normalizer == "range" else np.maximum(abs(lo), abs(hi))


def scaled_percent(error, scale):
    """``error`` as a percentage of a `truth_scale` (elementwise)."""
    if np.any(np.equal(scale, 0.0)):
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
