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

Sweeps fit on per-condition (R, Q^T Y) blocks and score on per-condition
`ScoreBlock`s, each factored once per sweep call; see README's "Readout
solver" section.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

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
from .profiles import RampProfileSpec
from .readout import (
    ReadoutWeights,
    TrainingAssembly,
    assemble,
    normalize_mask,
    reduce_assembly,
    scaled_percent,
    solve_reduced,
    truth_scale,
)
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


def _target_trace(task: TaskKind, series: PressureStateSeries,
                  payloads: PayloadSet) -> np.ndarray:
    if task is TaskKind.BENDING_ANGLE:
        return np.asarray(series.theta)
    if task is TaskKind.PAYLOAD_MASS:
        mass = payloads.mass_of(series.condition.payload_index)
        return np.full(series.grid.n_samples, mass)
    if task is TaskKind.PAYLOAD_DETECT:
        mass = payloads.mass_of(series.condition.payload_index)
        label = DETECT_ABSENT if mass == 0 else DETECT_PRESENT
        return np.full(series.grid.n_samples, label)
    raise ValueError(f"unsupported task {task}")


class ScoreBlock(NamedTuple):
    """What scoring any readout on one run's test window needs, from one QR
    of its all-sensor design Phi = [1 | S] = Q R. Q itself is not kept.

    For full-width weights w (`full_width`), theta - Q z is orthogonal to
    Q's columns, so |Phi w - theta|^2 = |R w - z|^2 + floor; the window mean
    of Phi w is means . w. (A NamedTuple: a dataclass would add about 1 ms
    to every `armrc` start-up.)
    """

    r: np.ndarray       # R, at most (1 + n_sensors) square
    z: np.ndarray       # Q^T theta
    floor: float        # |theta - Q z|^2, the error no readout avoids
    n_rows: int
    scale: float        # `truth_scale` of theta over the window
    means: np.ndarray   # column means of Phi


def score_block(series: PressureStateSeries, window: Window,
                normalizer: str = "range") -> ScoreBlock:
    """Factor one run's design over a window for `block_nrmse` and
    `block_mean`."""
    i0, i1 = window_indices(series.grid, window)
    if i1 == i0:
        raise ValueError(
            f"window [{window.start}, {window.end}) holds no samples")
    phi = np.hstack([np.ones((i1 - i0, 1)), series.sensors[:, i0:i1].T])
    theta = series.theta[i0:i1]
    q, r = np.linalg.qr(phi)
    z = q.T @ theta
    resid = theta - q @ z
    return ScoreBlock(r=r, z=z, floor=float(resid @ resid), n_rows=i1 - i0,
                      scale=truth_scale(theta, normalizer),
                      means=phi.mean(axis=0))


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


def block_nrmse(block: ScoreBlock, w: np.ndarray) -> float:
    """`nrmse_percent` of the bending readout ``w`` (one `full_width` row)
    on the block's window, in O(k^2) instead of O(T k)."""
    resid = block.r @ w - block.z
    rms = math.sqrt((float(resid @ resid) + block.floor) / block.n_rows)
    return scaled_percent(rms, block.scale)


def block_mean(block: ScoreBlock, w: np.ndarray) -> float:
    """Window mean of the readout ``w`` (one `full_width` row): the mass
    estimate of `tasks.estimate_mass`, or the detect output."""
    return float(block.means @ w)


def _score_blocks(runs: Mapping, evaluation, window: Window,
                  normalizer: str) -> list:
    """The evaluation conditions' score blocks, which a sweep call factors
    once and scores all its fits from."""
    return [score_block(_require(runs, cond), window, normalizer)
            for cond in evaluation]


def _score(task: TaskKind, w: np.ndarray, block: ScoreBlock,
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
    """Assemble and train one readout from a condition subset."""
    return _fit(subset, {}, runs, payloads, (task,), window, sensor_mask,
                ridge)


def _fit(subset, blocks: dict, runs: Mapping, payloads: PayloadSet,
         tasks: tuple, window: Window, sensor_mask, ridge: float):
    """Train one readout, one column per task, on the stacked reduced
    blocks of a subset's conditions.

    ``blocks`` maps (condition, window) to the condition's reduced
    all-sensor assembly (`readout.reduce_assembly`). A sweep passes one dict
    to all its fits, which share their runs and tasks, so it factors each
    block once; a sensor mask then only picks columns of the stacked R rows,
    which go to `readout.solve_reduced` with no second QR.
    """
    if len(subset) == 0:
        raise ValueError("need at least one condition to assemble")
    parts = []
    for cond in subset:
        key = (cond, window)
        if key not in blocks:
            series = _require(runs, cond)
            target = np.column_stack(
                [_target_trace(task, series, payloads) for task in tasks])
            blocks[key] = reduce_assembly(assemble([(series, target)], window))
        parts.append(blocks[key])
    widths = sorted({part.states.shape[1] - 1 for part in parts})
    if len(widths) > 1:
        raise ValueError(f"conditions disagree on sensor count: {widths}")
    mask = normalize_mask(sensor_mask, widths[0])
    cols = [0] + [1 + m for m in mask]
    stacked = TrainingAssembly(
        states=np.vstack([part.states[:, cols] for part in parts]),
        targets=np.vstack([part.targets for part in parts]),
        sensor_mask=mask,
    )
    return solve_reduced(stacked, ridge,
                         task_names=tuple(t.value for t in tasks))


def subset_sweep(spec: SweepSpec, runs: Mapping,
                 payloads: PayloadSet) -> SweepResult:
    """Train one readout per subset and score it on every evaluation
    condition's test window."""
    grid = _require(runs, spec.evaluation[0]).grid
    window = spec.effective_train_window(grid)
    rows = []
    blocks = {}
    tests = _score_blocks(runs, spec.evaluation, spec.test_window,
                          spec.normalizer)
    for subset in spec.subsets:
        weights = _fit(subset, blocks, runs, payloads, (spec.task,), window,
                       spec.sensor_mask, spec.ridge)
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
    profile_specs: Sequence[RampProfileSpec],
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

    Each condition's noise-free states are simulated once; a repeat only
    draws its noise, which never feeds back into the states, and factors
    its test windows once for all counts.
    """
    counts = tuple(int(c) for c in counts)
    windows = [first_samples(train_window, c, grid) for c in counts]
    base_seed = params.seed if base_seed is None else base_seed
    needed = list(subset) + list(evaluation)
    errors = np.empty((len(counts), len(evaluation), repeats))
    noise_free = simulate_conditions(params, profile_specs, payloads, grid,
                                     needed, with_noise=False)
    for r in range(repeats):
        runs = {c: add_noise(params, run, base_seed + r)
                for c, run in noise_free.items()}
        tests = _score_blocks(runs, evaluation, test_window, normalizer)
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
    blocks = {}
    tests = _score_blocks(runs, evaluation, test_window, normalizer)
    for mi, mask in enumerate(masks):
        weights = _fit(subset, blocks, runs, payloads, (task,), train_window,
                       mask, ridge)
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
    scored once, from its own `ScoreBlock`.
    """
    weights = _fit(training_cells, {}, runs, payloads, MULTITASK_TASKS,
                   train_window, None, ridge)
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
            block = score_block(_require(runs, cond), test_window, normalizer)
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
