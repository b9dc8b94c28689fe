"""Experiment sweep engine: condition-subset sweeps, training-sample-count
sweeps, sensor ablations with readout-weight shares, and the multi-task
grid with its two-step detect-then-predict pipeline.

All sweeps are deterministic for a fixed base seed; repeated runs vary only
the sensor-noise stream. Reported percentages follow the normalizer
convention in `readout.nrmse_percent`; the paper's hardware percentages are
ordering targets for these sweeps, not equality targets.

`experiments` is the table of the two shipped single-task experiments and
`training_window` the one rule for each task's per-condition training
window; the CLI sweeps are loops over both.

Sweeps fit and score from one `readout.WindowFactor` per (run, window),
each factored once per sweep call; see README's "Readout solver" section.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    InputCondition,
    PayloadSet,
    PressureStateSeries,
    TEST_WINDOW,
    TRAIN_WINDOW,
    TimeGrid,
    Window,
    sample_count,
    window_indices,
)
from .readout import (
    ReadoutWeights,
    WindowFactor,
    factor,
    normalize_mask,
    scaled_percent,
    solve_reduced,
)
# simulate_conditions is looked up here by the CLI and by perfbench's spans
from .surrogate import SurrogateParams, add_noise, simulate_conditions
from .tasks import (
    DETECT_ABSENT,
    DETECT_PRESENT,
    PayloadStatus,
    TaskKind,
    mass_error_percent,
    payload_status,
)

HARDWARE_NOTE = (
    "percent errors are surrogate results; hardware-measured percentages "
    "are qualitative ordering targets only"
)


@dataclass(frozen=True)
class SweepSpec:
    """One subset-sweep request: which task, which training subsets, and
    which conditions to score."""

    task: TaskKind
    subsets: tuple
    evaluation: tuple
    train_window: Window = TRAIN_WINDOW
    test_window: Window = TEST_WINDOW
    sensor_mask: Optional[tuple] = None
    samples_per_condition: Optional[int] = None
    base_seed: int = 7  # informational: the runs arrive already simulated
    ridge: float = 0.0
    normalizer: str = "range"

    def __post_init__(self) -> None:
        if len(self.evaluation) == 0:
            raise ValueError("evaluation set must be non-empty")
        if len(self.subsets) == 0:
            raise ValueError("need at least one training subset")

    def effective_train_window(self, grid: TimeGrid) -> Window:
        if self.samples_per_condition is None:
            return self.train_window
        return first_samples(self.train_window, self.samples_per_condition,
                             grid)


def first_samples(window: Window, count: int, grid: TimeGrid) -> Window:
    """The window of the first ``count`` samples of ``window`` on ``grid``'s
    clock; a count the window does not hold (`core.sample_count`) is
    refused."""
    full = sample_count(window, grid.sample_rate)
    if not 1 <= count <= full:
        raise ValueError(
            f"sample count {count} outside the {full}-sample training window"
        )
    return Window(window.start, window.start + count / grid.sample_rate)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Grid of percent errors, one row per training subset."""

    error_grid: np.ndarray
    subsets: tuple
    evaluation: tuple

    @property
    def row_means(self) -> np.ndarray:
        return self.error_grid.mean(axis=1)


def _require(runs: Mapping, cond: InputCondition) -> PressureStateSeries:
    try:
        return runs[cond]
    except KeyError:
        raise KeyError(
            f"condition {cond.label} is not present in the simulated/loaded runs"
        ) from None


def window_factor(series: PressureStateSeries, window: Window,
                  normalizer: str = "range") -> WindowFactor:
    """The `readout.factor` of one run's all-sensor design and bending angle
    over a window, which every fit and score on that window reads."""
    i0, i1 = window_indices(series.grid, window)
    if i1 == i0:
        raise ValueError(
            f"window [{window.start}, {window.end}) holds no samples")
    phi = np.hstack([np.ones((i1 - i0, 1)), series.sensors[:, i0:i1].T])
    return factor(phi, series.theta[i0:i1], normalizer)


def _factor(factors: dict, runs: Mapping, cond: InputCondition,
            window: Window, normalizer: str) -> WindowFactor:
    """``factors[(cond, window)]``, factored on first use. A sweep call
    passes one dict to all its fits and scores, which share their
    normalizer."""
    key = (cond, window)
    if key not in factors:
        factors[key] = window_factor(_require(runs, cond), window, normalizer)
    return factors[key]


def full_width(weights: ReadoutWeights, n_sensors: int) -> np.ndarray:
    """Weights as (n_tasks, 1 + n_sensors) rows over the all-sensor design,
    zero on the sensors outside the mask."""
    if max(weights.sensor_mask) >= n_sensors:
        raise ValueError(
            f"weights trained on sensors {weights.sensor_mask} cannot read a "
            f"{n_sensors}-sensor run"
        )
    rows = np.zeros((weights.n_tasks, 1 + n_sensors))
    rows[:, [0] + [1 + m for m in weights.sensor_mask]] = weights.weights.T
    return rows


def block_nrmse(block: WindowFactor, w: np.ndarray) -> float:
    """`nrmse_percent` of the bending readout ``w`` (one `full_width` row)
    on the factor's window, in O(k^2) instead of O(T k)."""
    resid = block.r @ w - block.z
    rms = math.sqrt((float(resid @ resid) + block.floor) / block.n_rows)
    return scaled_percent(rms, block.scale)


def block_mean(block: WindowFactor, w: np.ndarray) -> float:
    """Window mean of the readout ``w`` (one `full_width` row): the mass
    estimate of `tasks.estimate_mass`, or the detect output."""
    return float(block.means @ w)


def _score(task: TaskKind, w: np.ndarray, block: WindowFactor,
           cond: InputCondition, payloads: PayloadSet) -> float:
    if w.shape != block.means.shape:
        raise ValueError(
            f"weights over {w.shape[0] - 1} sensors cannot read the "
            f"{block.means.shape[0] - 1}-sensor run {cond.label}"
        )
    if task is TaskKind.BENDING_ANGLE:
        return block_nrmse(block, w)
    if task is TaskKind.PAYLOAD_MASS:
        mass = payloads.mass_of(cond.payload_index)
        if mass == 0:
            raise ValueError(
                f"relative mass error undefined for zero-payload condition "
                f"{cond.label}"
            )
        return mass_error_percent(block_mean(block, w), mass)
    raise ValueError(f"unsupported evaluation task {task}")


def _score_row(task: TaskKind, weights: ReadoutWeights, evaluation,
               blocks: list, payloads: PayloadSet) -> list:
    """One single-task readout's scores on every evaluation condition."""
    w = full_width(weights, blocks[0].means.shape[0] - 1)[0]
    return [_score(task, w, block, cond, payloads)
            for cond, block in zip(evaluation, blocks)]


def train_on_subset(
    subset: Sequence[InputCondition],
    runs: Mapping,
    payloads: PayloadSet,
    task: TaskKind,
    window: Window,
    sensor_mask=None,
    ridge: float = 0.0,
):
    """Train one readout from a condition subset."""
    return _fit(_stack(subset, {}, runs, payloads, (task,), window),
                sensor_mask, ridge, (task,))


def _target(task: TaskKind, part: WindowFactor, cond: InputCondition,
            payloads: PayloadSet) -> np.ndarray:
    """A task's target column over a factor's R rows: Q^T theta for the
    bending angle, c R[:, 0] for a task whose target is a constant c."""
    if task is TaskKind.BENDING_ANGLE:
        return part.z
    mass = payloads.mass_of(cond.payload_index)
    if task is TaskKind.PAYLOAD_MASS:
        return mass * part.r[:, 0]
    return (DETECT_ABSENT if mass == 0 else DETECT_PRESENT) * part.r[:, 0]


def _stack(subset, factors: dict, runs: Mapping, payloads: PayloadSet,
           tasks: tuple, window: Window, normalizer: str = "range") -> tuple:
    """A subset's training rows: its conditions' all-sensor R factors over
    ``window`` (`_factor`), stacked, with one target column per task."""
    if len(subset) == 0:
        raise ValueError("need at least one condition to assemble")
    parts = [_factor(factors, runs, cond, window, normalizer)
             for cond in subset]
    widths = sorted({part.r.shape[1] - 1 for part in parts})
    if len(widths) > 1:
        raise ValueError(f"conditions disagree on sensor count: {widths}")
    targets = [np.column_stack([_target(task, part, cond, payloads)
                                for task in tasks])
               for cond, part in zip(subset, parts)]
    return np.vstack([part.r for part in parts]), np.vstack(targets)


def _fit(stacked: tuple, sensor_mask, ridge: float,
         tasks: tuple) -> ReadoutWeights:
    """Train one readout, one column per task, on `_stack` rows: a sensor
    mask only picks columns of the stacked R rows, which go to
    `readout.solve_reduced` with no second QR."""
    r, z = stacked
    mask = normalize_mask(sensor_mask, r.shape[1] - 1)
    return solve_reduced(r[:, [0] + [1 + m for m in mask]], z, mask, ridge,
                         task_names=tuple(t.value for t in tasks))


def subset_sweep(spec: SweepSpec, runs: Mapping,
                 payloads: PayloadSet) -> SweepResult:
    """Train one readout per subset and score it on every evaluation
    condition's test window."""
    grid = _require(runs, spec.evaluation[0]).grid
    window = spec.effective_train_window(grid)
    rows = []
    factors = {}
    tests = [_factor(factors, runs, cond, spec.test_window, spec.normalizer)
             for cond in spec.evaluation]
    for subset in spec.subsets:
        stacked = _stack(subset, factors, runs, payloads, (spec.task,),
                         window, spec.normalizer)
        weights = _fit(stacked, spec.sensor_mask, spec.ridge, (spec.task,))
        rows.append(_score_row(spec.task, weights, spec.evaluation, tests,
                               payloads))
    return SweepResult(
        error_grid=np.array(rows),
        subsets=tuple(tuple(s) for s in spec.subsets),
        evaluation=tuple(spec.evaluation),
    )


@dataclass(frozen=True, eq=False)
class SampleCountResult:
    """Error statistics versus training-sample count (mean and std over
    noise-seed repeats)."""

    counts: tuple
    mean_grid: np.ndarray
    std_grid: np.ndarray
    evaluation: tuple


def sample_count_sweep(
    task: TaskKind,
    counts: Sequence[int],
    subset: Sequence[InputCondition],
    evaluation: Sequence[InputCondition],
    params: SurrogateParams,
    noise_free: Mapping[InputCondition, PressureStateSeries],
    payloads: PayloadSet,
    grid: TimeGrid,
    train_window: Window = TRAIN_WINDOW,
    test_window: Window = TEST_WINDOW,
    repeats: int = 10,
    base_seed: Optional[int] = None,
    ridge: float = 0.0,
    normalizer: str = "range",
) -> SampleCountResult:
    """Truncate each condition's training rows to each count, retrain, and
    score on the fixed full test window; repeats vary only the noise seed.

    ``noise_free`` holds each condition's run simulated without noise; a
    repeat only draws its noise, which never feeds back into the states,
    and factors its test windows once for all counts.
    """
    counts = tuple(int(c) for c in counts)
    windows = [first_samples(train_window, c, grid) for c in counts]
    base_seed = params.seed if base_seed is None else base_seed
    needed = {c: _require(noise_free, c) for c in (*subset, *evaluation)}
    errors = np.empty((len(counts), len(evaluation), repeats))
    for r in range(repeats):
        runs = {c: add_noise(params, run, base_seed + r)
                for c, run in needed.items()}
        factors = {}
        tests = [_factor(factors, runs, cond, test_window, normalizer)
                 for cond in evaluation]
        for ci, window in enumerate(windows):
            weights = train_on_subset(
                subset, runs, payloads, task, window, None, ridge
            )
            errors[ci, :, r] = _score_row(task, weights, evaluation, tests,
                                          payloads)
    return SampleCountResult(
        counts=counts,
        mean_grid=errors.mean(axis=2),
        std_grid=errors.std(axis=2),
        evaluation=tuple(evaluation),
    )


@dataclass(frozen=True, eq=False)
class AblationResult:
    """Per-mask errors and per-sensor absolute readout-weight shares."""

    masks: tuple
    error_grid: np.ndarray
    mean_errors: np.ndarray
    weight_shares: np.ndarray
    evaluation: tuple


def sensor_ablation_sweep(
    task: TaskKind,
    masks: Sequence[Sequence[int]],
    subset: Sequence[InputCondition],
    evaluation: Sequence[InputCondition],
    runs: Mapping,
    payloads: PayloadSet,
    train_window: Window = TRAIN_WINDOW,
    test_window: Window = TEST_WINDOW,
    ridge: float = 0.0,
    normalizer: str = "range",
) -> AblationResult:
    """Retrain with each sensor mask; report errors plus weight shares
    (absolute sensor weights normalized to 100% per mask, bias excluded)."""
    if len(masks) == 0:
        raise ValueError("need at least one sensor mask")
    n_sensors = _require(runs, evaluation[0]).n_sensors
    masks = tuple(normalize_mask(m, n_sensors) for m in masks)
    error_rows = []
    share_rows = np.full((len(masks), n_sensors), np.nan)
    factors = {}
    tests = [_factor(factors, runs, cond, test_window, normalizer)
             for cond in evaluation]
    stacked = _stack(subset, factors, runs, payloads, (task,), train_window,
                     normalizer)
    for mi, mask in enumerate(masks):
        weights = _fit(stacked, mask, ridge, (task,))
        error_rows.append(_score_row(task, weights, evaluation, tests,
                                     payloads))
        mags = np.abs(weights.sensor_weights[:, 0])
        total = mags.sum()
        for k, sensor in enumerate(mask):
            share_rows[mi, sensor] = 100.0 * mags[k] / total if total > 0 else 0.0
    error_grid = np.array(error_rows)
    return AblationResult(
        masks=masks,
        error_grid=error_grid,
        mean_errors=error_grid.mean(axis=1),
        weight_shares=share_rows,
        evaluation=tuple(evaluation),
    )


@dataclass(frozen=True, eq=False)
class MultitaskGridResult:
    """Outcome of the stacked three-task readout on a full condition grid.

    Grids are (n_profiles, n_payloads). Cells skipped by the two-step rule
    (payload present in truth but detected absent) hold NaN in both step-2
    grids; zero-payload cells never receive a mass score.
    """

    detect_output: np.ndarray
    detect_correct: np.ndarray
    angle_error: np.ndarray
    mass_error: np.ndarray

    @property
    def detection_perfect(self) -> bool:
        return bool(self.detect_correct.all())

    @property
    def step2_mean(self) -> float:
        pool = np.concatenate([self.angle_error.ravel(), self.mass_error.ravel()])
        return float(np.nanmean(pool))


MULTITASK_TASKS = (TaskKind.BENDING_ANGLE, TaskKind.PAYLOAD_DETECT,
                   TaskKind.PAYLOAD_MASS)


def multitask_grid(
    training_cells: Sequence[InputCondition],
    runs: Mapping,
    payloads: PayloadSet,
    n_profiles: int = 7,
    train_window: Window = TRAIN_WINDOW,
    test_window: Window = TEST_WINDOW,
    ridge: float = 0.0,
    normalizer: str = "range",
) -> MultitaskGridResult:
    """Train the stacked (angle, detect, mass) readout on the given cells
    and run the two-step pipeline over the whole grid.

    Step 1 classifies payload presence from the detect column's window
    mean. Step 2 (angle plus mass prediction) runs only where a payload is
    detected; zero-payload cells are scored on angle alone. Each cell is
    scored once, from its own test-window factor.
    """
    factors = {}
    weights = _fit(_stack(training_cells, factors, runs, payloads,
                          MULTITASK_TASKS, train_window, normalizer),
                   None, ridge, MULTITASK_TASKS)
    w_angle, w_detect, w_mass = full_width(weights,
                                           len(weights.sensor_mask))

    n_payloads = len(payloads)
    detect_output = np.empty((n_profiles, n_payloads))
    detect_correct = np.empty((n_profiles, n_payloads), dtype=bool)
    angle_error = np.full((n_profiles, n_payloads), np.nan)
    mass_error = np.full((n_profiles, n_payloads), np.nan)
    for i in range(1, n_profiles + 1):
        for j in range(1, n_payloads + 1):
            cond = InputCondition(i, j)
            block = _factor(factors, runs, cond, test_window, normalizer)
            mass = payloads.mass_of(j)
            det = block_mean(block, w_detect)
            present = payload_status(det) is PayloadStatus.PRESENT
            detect_output[i - 1, j - 1] = det
            detect_correct[i - 1, j - 1] = present == (mass > 0)
            run_step2 = present and mass > 0
            if run_step2 or mass == 0:
                angle_error[i - 1, j - 1] = block_nrmse(block, w_angle)
            if run_step2:
                mass_error[i - 1, j - 1] = mass_error_percent(
                    block_mean(block, w_mass), mass
                )
    return MultitaskGridResult(
        detect_output=detect_output,
        detect_correct=detect_correct,
        angle_error=angle_error,
        mass_error=mass_error,
    )


# Shipped experiment families. Subset geometries marked "best effort" are
# reconstructions of grids that the source figures only mark graphically.

def bending_conditions(n_profiles: int = 7) -> tuple:
    return tuple(InputCondition(i, 1) for i in range(1, n_profiles + 1))


def payload_conditions(n_payloads: int = 7) -> tuple:
    return tuple(InputCondition(1, j) for j in range(1, n_payloads + 1))


def nested_bending_subsets() -> tuple:
    """Training families of size 1..7 over profiles (best effort)."""
    families = ((1,), (1, 7), (1, 4, 7), (1, 3, 5, 7), (1, 2, 4, 6, 7),
                (1, 2, 3, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7))
    return tuple(
        tuple(InputCondition(i, 1) for i in fam) for fam in families
    )


def all_profile_pairs(n_profiles: int = 7) -> tuple:
    return tuple(
        (InputCondition(a, 1), InputCondition(b, 1))
        for a, b in itertools.combinations(range(1, n_profiles + 1), 2)
    )


def nested_payload_subsets() -> tuple:
    """Nested payload-index families of size 2..6 (non-zero payloads)."""
    families = ((2, 7), (2, 4, 7), (2, 4, 6, 7), (2, 3, 4, 6, 7),
                (2, 3, 4, 5, 6, 7))
    return tuple(
        tuple(InputCondition(1, j) for j in fam) for fam in families
    )


def tip_sensor_masks(n_sensors: int = 7, sizes=(6, 5, 4, 3, 2)) -> tuple:
    """Nested masks keeping the k tip-most sensors."""
    return tuple(tuple(range(n_sensors - k, n_sensors)) for k in sizes)


def multitask_training_subsets(n_profiles: int = 7,
                               n_payloads: int = 5) -> dict:
    """The three shipped multi-task training geometries (best effort)."""
    lo, mid, hi = 1, (n_profiles + 1) // 2, n_profiles
    jlo, jmid, jhi = 1, (n_payloads + 1) // 2, n_payloads
    return {
        "2x2": tuple(InputCondition(i, j)
                     for i in (lo, hi) for j in (jlo, jhi)),
        "5x2": tuple(InputCondition(i, j)
                     for i in (1, 2, 4, 6, 7) for j in (jlo, jhi)),
        "3x3": tuple(InputCondition(i, j)
                     for i in (lo, mid, hi) for j in (jlo, jmid, jhi)),
    }


@dataclass(frozen=True)
class Experiment:
    """One shipped single-task experiment.

    ``subset`` is the fixed training subset of the sample-count and sensor
    sweeps; ``families`` names the training-subset families the condition
    sweep compares. All of them are scored on ``evaluation``.
    """

    task: TaskKind
    subset: tuple
    evaluation: tuple
    families: Mapping

    @property
    def conditions(self) -> tuple:
        """The runs each sweep of the experiment simulates. A family member
        outside them is reported missing by name when it is trained on."""
        return self.subset + self.evaluation


def experiments(cfg) -> dict:
    """The bending and payload experiments of an `ExperimentConfig`, keyed
    by the name their result files carry."""
    payload_eval = payload_conditions(len(cfg.payloads))[1:]
    return {
        "bending": Experiment(
            task=TaskKind.BENDING_ANGLE,
            subset=(InputCondition(1, 1), InputCondition(7, 1)),
            evaluation=bending_conditions(len(cfg.profiles)),
            families={"subsets": nested_bending_subsets(),
                      "pairs": all_profile_pairs(len(cfg.profiles))},
        ),
        "payload": Experiment(
            task=TaskKind.PAYLOAD_MASS,
            subset=payload_eval,
            evaluation=payload_eval,
            families={"subsets": nested_payload_subsets()},
        ),
    }


def training_window(cfg, task: TaskKind) -> Window:
    """Per-condition training window of a task under an `ExperimentConfig`.

    Bending trains on the whole train window; detection and mass train on
    its first ``detection_seconds`` / ``mass_segment_seconds``.
    """
    if task is TaskKind.BENDING_ANGLE:
        return cfg.train
    seconds = (cfg.detection_seconds if task is TaskKind.PAYLOAD_DETECT
               else cfg.mass_segment_seconds)
    return Window(cfg.train.start, cfg.train.start + seconds)
