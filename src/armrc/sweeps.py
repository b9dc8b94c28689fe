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

Each (run, window) is factored once per process while its run lives, and
`score` reads every reported number off it (README: "Readout solver").
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_SEED,
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
    truth_scale,
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
    samples_per_condition: Optional[int] = None
    base_seed: int = DEFAULT_SEED  # informational: the runs arrive simulated
    ridge: float = 0.0
    normalizer: str = "range"

    def __post_init__(self) -> None:
        if len(self.evaluation) == 0:
            raise ValueError("evaluation set must be non-empty")
        if len(self.subsets) == 0:
            raise ValueError("need at least one training subset")

    def effective_train_window(self, grid: TimeGrid) -> Window:
        """The train window's first ``samples_per_condition`` samples on
        ``grid``'s clock; a count the window does not hold
        (`core.sample_count`) is refused."""
        count, window = self.samples_per_condition, self.train_window
        if count is None:
            return window
        full = sample_count(window, grid.sample_rate)
        if not 1 <= count <= full:
            raise ValueError(f"sample count {count} outside the {full}-sample "
                             "training window")
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


def window_factor(series: PressureStateSeries, window: Window) -> WindowFactor:
    """The `readout.factor` of one run's all-sensor design and bending angle
    over a window, which every fit and score on that window reads."""
    i0, i1 = window_indices(series.grid, window)
    if i1 == i0:
        raise ValueError(
            f"window [{window.start}, {window.end}) holds no samples")
    phi = np.hstack([np.ones((i1 - i0, 1)), series.sensors[:, i0:i1].T])
    return factor(phi, series.theta[i0:i1])


# Each run's factors by window while the run lives; a series compares by
# identity and its arrays are read-only, so none goes stale.
_factors = weakref.WeakKeyDictionary()


def _factor(runs: Mapping, cond: InputCondition,
            window: Window) -> WindowFactor:
    """The `window_factor` of ``runs[cond]``, factored on first use."""
    memo = _factors.setdefault(_require(runs, cond), {})
    if window not in memo:
        memo[window] = window_factor(runs[cond], window)
    return memo[window]


def _truth_mass(runs: Mapping, cond: InputCondition,
                payloads: PayloadSet) -> float:
    """A condition's payload-set mass, which a run's recorded grams match."""
    mass = payloads.mass_of(cond.payload_index)
    grams = _require(runs, cond).payload_grams
    if grams is not None and grams != mass:
        raise ValueError(f"run {cond.label} records {grams:g} g, but the "
                         f"payload set gives {mass:g} g")
    return mass


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


def score(task: TaskKind, block: WindowFactor, w: np.ndarray,
          mass: Optional[float], normalizer: str) -> float:
    """The reported number of readout ``w`` (one `full_width` row) on a
    factor's window, in O(k^2) instead of O(T k): for bending the
    `nrmse_percent` of the angle, for mass the `mass_error_percent` of the
    window mean against ``mass``, for detection the window mean itself
    (the detect output, as `tasks.estimate_mass` is the mass estimate)."""
    if task is TaskKind.BENDING_ANGLE:
        resid = block.r @ w - block.z
        rms = math.sqrt((float(resid @ resid) + block.floor) / block.n_rows)
        return scaled_percent(rms, truth_scale(block.span, normalizer))
    mean = float(block.means @ w)
    if task is TaskKind.PAYLOAD_MASS:
        return mass_error_percent(mean, mass)
    return mean


def _evaluation(task: TaskKind, evaluation, runs: Mapping,
                payloads: PayloadSet, window: Window) -> list:
    """(``window`` factor, truth mass) of each condition a single-task
    readout is scored on; all must have one sensor count, and a zero
    payload has no mass error."""
    if task is TaskKind.PAYLOAD_DETECT:
        raise ValueError(f"unsupported evaluation task {task}")
    cells = []
    for cond in evaluation:
        block = _factor(runs, cond, window)
        mass = (None if task is TaskKind.BENDING_ANGLE
                else _truth_mass(runs, cond, payloads))
        if task is TaskKind.PAYLOAD_MASS and mass == 0:
            raise ValueError(f"relative mass error undefined for "
                             f"zero-payload condition {cond.label}")
        if cells and len(block.means) != len(cells[0][0].means):
            raise ValueError(f"a readout of the {len(cells[0][0].means) - 1}"
                             f"-sensor run {evaluation[0].label} cannot read "
                             f"the {len(block.means) - 1}-sensor run {cond.label}")
        cells.append((block, mass))
    return cells


def _score_row(task: TaskKind, weights: ReadoutWeights, cells: list,
               normalizer: str) -> list:
    """A single-task readout's `score` on every `_evaluation` cell."""
    w = full_width(weights, len(cells[0][0].means) - 1)[0]
    return [score(task, block, w, mass, normalizer) for block, mass in cells]


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
    return _fit(_stack(subset, runs, payloads, (task,), window),
                sensor_mask, ridge, (task,))


def _target(task: TaskKind, part: WindowFactor, runs: Mapping,
            cond: InputCondition, payloads: PayloadSet) -> np.ndarray:
    """A task's target column over a factor's R rows: Q^T theta for the
    bending angle, c R[:, 0] for a task whose target is a constant c."""
    if task is TaskKind.BENDING_ANGLE:
        return part.z
    mass = _truth_mass(runs, cond, payloads)
    if task is TaskKind.PAYLOAD_MASS:
        return mass * part.r[:, 0]
    return (DETECT_ABSENT if mass == 0 else DETECT_PRESENT) * part.r[:, 0]


def _stack(subset, runs: Mapping, payloads: PayloadSet, tasks: tuple,
           window: Window) -> tuple:
    """A subset's training rows: its conditions' all-sensor R factors over
    ``window`` (`_factor`), stacked, with one target column per task."""
    if len(subset) == 0:
        raise ValueError("need at least one condition to assemble")
    parts = [_factor(runs, cond, window) for cond in subset]
    widths = sorted({part.r.shape[1] - 1 for part in parts})
    if len(widths) > 1:
        raise ValueError(f"conditions disagree on sensor count: {widths}")
    z = np.column_stack([
        np.concatenate([_target(task, part, runs, cond, payloads)
                        for cond, part in zip(subset, parts)])
        for task in tasks])
    return np.vstack([part.r for part in parts]), z


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
    window = spec.effective_train_window(
        _require(runs, spec.evaluation[0]).grid)
    cells = _evaluation(spec.task, spec.evaluation, runs, payloads,
                        spec.test_window)
    rows = []
    for subset in spec.subsets:
        stacked = _stack(subset, runs, payloads, (spec.task,), window)
        weights = _fit(stacked, None, spec.ridge, (spec.task,))
        rows.append(_score_row(spec.task, weights, cells, spec.normalizer))
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
    train_window: Window = TRAIN_WINDOW,
    test_window: Window = TEST_WINDOW,
    repeats: int = 10,
    base_seed: int = DEFAULT_SEED,
    ridge: float = 0.0,
    normalizer: str = "range",
) -> SampleCountResult:
    """`subset_sweep` of ``subset`` at each count of training samples per
    condition, on the runs' clock; repeats vary only the noise seed.

    ``noise_free`` holds each condition's run simulated without noise; a
    repeat only draws its noise, which never feeds back into the states;
    its noisy runs' factors serve every count and die with those runs. A
    count the train window does not hold is refused before any noise.
    """
    counts = tuple(int(c) for c in counts)
    specs = [SweepSpec(task, (tuple(subset),), tuple(evaluation), train_window,
                       test_window, count, base_seed, ridge, normalizer)
             for count in counts]
    needed = {c: _require(noise_free, c) for c in (*subset, *evaluation)}
    for spec in specs:
        spec.effective_train_window(needed[evaluation[0]].grid)
    errors = np.empty((len(counts), len(evaluation), repeats))
    for r in range(repeats):
        runs = {c: add_noise(params, run, base_seed + r)
                for c, run in needed.items()}
        for ci, spec in enumerate(specs):
            errors[ci, :, r] = subset_sweep(spec, runs, payloads).error_grid[0]
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
    cells = _evaluation(task, evaluation, runs, payloads, test_window)
    stacked = _stack(subset, runs, payloads, (task,), train_window)
    for mi, mask in enumerate(masks):
        weights = _fit(stacked, mask, ridge, (task,))
        error_rows.append(_score_row(task, weights, cells, normalizer))
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
    weights = _fit(_stack(training_cells, runs, payloads, MULTITASK_TASKS,
                          train_window),
                   None, ridge, MULTITASK_TASKS)
    w_angle, w_detect, w_mass = full_width(weights, len(weights.sensor_mask))

    n_payloads = len(payloads)
    detect_output = np.empty((n_profiles, n_payloads))
    detect_correct = np.empty((n_profiles, n_payloads), dtype=bool)
    angle_error = np.full((n_profiles, n_payloads), np.nan)
    mass_error = np.full((n_profiles, n_payloads), np.nan)
    for i in range(1, n_profiles + 1):
        for j in range(1, n_payloads + 1):
            cond = InputCondition(i, j)
            block = _factor(runs, cond, test_window)
            mass = _truth_mass(runs, cond, payloads)
            det = score(TaskKind.PAYLOAD_DETECT, block, w_detect, mass,
                        normalizer)
            present = payload_status(det) is PayloadStatus.PRESENT
            detect_output[i - 1, j - 1] = det
            detect_correct[i - 1, j - 1] = present == (mass > 0)
            run_step2 = present and mass > 0
            if run_step2 or mass == 0:
                angle_error[i - 1, j - 1] = score(
                    TaskKind.BENDING_ANGLE, block, w_angle, mass, normalizer)
            if run_step2:
                mass_error[i - 1, j - 1] = score(
                    TaskKind.PAYLOAD_MASS, block, w_mass, mass, normalizer)
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
