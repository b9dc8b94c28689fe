"""Experiment sweep engine: condition-subset sweeps, training-sample-count
sweeps, sensor ablations with readout-weight shares, and the multi-task
grid with its two-step detect-then-predict pipeline.

All sweeps are deterministic for a fixed base seed; repeated runs vary only
the sensor-noise stream. Reported percentages follow the normalizer
convention in `readout.nrmse_percent`; the paper's hardware percentages are
ordering targets for these sweeps, not equality targets.

`experiments` is the table of the two shipped single-task experiments that
three CLI sweeps read, and refuses a grid too small for them; each task's
training window is `config.training_window`.

Every entry point (`subset_sweep`, `sample_count_sweep`,
`sensor_ablation_sweep`, `train_on_subset`, `multitask_grid`) describes
its fits as (subset, window, mask) triples, made in one planning step
(`_plan`) before any fit, which checks the runs the entry point reads and
gives each sample count its training window. A condition's constant
target (its mass, its detect label, or None for bending) is its `_truth`.

Each (run, window) is factored once per process while its run lives
(`readout.window_factor`), and `tasks.score` reads every reported number
off it (README: "Readout solver").
A sweep makes one `readout.solve_reduced` call per shape of stacked R rows
and one `score` call per evaluation cell; the multitask grid scores each
cell from its own factor. Every cell equals, bit for bit, its lone
`train_on_subset` scored alone.
"""

from __future__ import annotations

import itertools
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
    Window,
    condition_grid,
    count_window,
)
from .readout import (
    ReadoutWeights,
    WindowFactor,
    columns,
    normalize_mask,
    solve_reduced,
    window_factor,
)
# no sweep calls simulate_conditions: perfbench's spans name it here
from .surrogate import SurrogateParams, add_noise, simulate_conditions
from .tasks import (
    DETECT_ABSENT,
    DETECT_PRESENT,
    PayloadStatus,
    TaskKind,
    payload_status,
    score,
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
        if len(self.subsets) == 0:
            raise ValueError("need at least one training subset")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Grid of percent errors, one row per training subset."""

    error_grid: np.ndarray

    @property
    def row_means(self) -> np.ndarray:
        return self.error_grid.mean(axis=1)


def _plan(runs: Mapping, scored, subsets, window: Window, counts=(None,),
          masks=(None,)) -> list:
    """Every readout fit of a sweep as a (subset, window, mask) triple, one
    per subset, sample count and sensor mask. It refuses a sweep of no fit
    (a `SweepSpec` of no subset is refused as it is made) or no ``scored``
    condition (None: a lone fit), then checks each run the sweep reads, the
    scored ones first: each has the first run's sensor count n, since a
    readout of one arm reads no other, and, when a count is set, its
    sample rate. A count trains on the first that many samples
    of ``window`` on that clock (`count_window`), None on all of it; a mask
    is normalized on n sensors (None: all). It is the only place a sweep
    looks a run up; the fit and score code reads ``runs[cond]``."""
    if scored is not None and len(scored) == 0:
        raise ValueError("evaluation set must be non-empty")
    for name, values in (("sample count", counts), ("sensor mask", masks)):
        if len(values) == 0:
            raise ValueError(f"need at least one {name}")
    if not all(subsets):
        raise ValueError("need at least one condition to assemble")
    one_clock = any(count is not None for count in counts)
    first = None
    for cond in dict.fromkeys(itertools.chain(scored or (), *subsets)):
        if cond not in runs:
            raise ValueError(f"condition {cond.label} is not present in "
                             "the simulated/loaded runs")
        run = runs[cond]
        if first is None:
            first, head = cond, run
        elif run.n_sensors != head.n_sensors:
            raise ValueError(f"a readout of the {head.n_sensors}-sensor run "
                             f"{first.label} cannot read the "
                             f"{run.n_sensors}-sensor run {cond.label}")
        elif one_clock and run.grid.sample_rate != head.grid.sample_rate:
            raise ValueError(
                f"a sample count needs one clock: run {cond.label} is sampled "
                f"at {run.grid.sample_rate:g} Hz, run {first.label} at "
                f"{head.grid.sample_rate:g} Hz")
    windows = [window if count is None
               else count_window(window, count, head.grid.sample_rate)
               for count in counts]
    masks = [normalize_mask(mask, head.n_sensors) for mask in masks]
    return [(subset, fit_window, mask) for subset in subsets
            for fit_window in windows for mask in masks]


# Each run's factors by window while the run lives; a series compares by
# identity and its arrays are read-only, so none goes stale.
_factors = weakref.WeakKeyDictionary()


def _factor(runs: Mapping, cond: InputCondition,
            window: Window) -> WindowFactor:
    """The `window_factor` of ``runs[cond]``, factored on first use."""
    memo = _factors.setdefault(runs[cond], {})
    if window not in memo:
        memo[window] = window_factor(runs[cond], window)
    return memo[window]


def _truth(task: TaskKind, runs: Mapping, cond: InputCondition,
           payloads: PayloadSet) -> Optional[float]:
    """A condition's constant target for a task: for mass its payload-set
    mass, which a run's recorded grams must match, for detection its
    detect label, and for bending None (the angle trace is the target)."""
    if task is TaskKind.BENDING_ANGLE:
        return None
    mass = payloads.mass_of(cond.payload_index)
    grams = runs[cond].payload_grams
    if grams is not None and grams != mass:
        raise ValueError(f"run {cond.label} records {grams:g} g, but the "
                         f"payload set gives {mass:g} g")
    if task is TaskKind.PAYLOAD_MASS:
        return mass
    return DETECT_ABSENT if mass == 0 else DETECT_PRESENT


def _solve(fits: Sequence, runs: Mapping, payloads: PayloadSet, tasks: tuple,
           ridge: float) -> np.ndarray:
    """Fit one readout per (subset, window, mask) of ``fits``: each
    member's all-sensor R factor over the window (`_factor`) with one
    target column per task (Q^T theta for bending, c R[:, 0] for a constant
    `_truth` c), stacked over the subset and read on the mask's `columns`,
    with no second QR. Each distinct (condition, window) is read once,
    before grouping; fits of one stacked shape share one `solve_reduced`
    call. It checks no run: `_plan` has given every run one sensor count
    n, which it reads off the R rows. Returns (len(fits), n_tasks, 1 + n)
    weight rows, zero outside each mask."""
    parts, members = {}, []
    for subset, window, _ in fits:
        part = parts.setdefault(window, {})
        for cond in subset:
            if cond not in part:
                block = _factor(runs, cond, window)
                part[cond] = (block.r, np.column_stack([
                    block.z if c is None else c * block.r[:, 0]
                    for c in (_truth(t, runs, cond, payloads) for t in tasks)]))
        members.append([part[cond] for cond in subset])
    out, groups = None, {}
    for i, (rows, fit) in enumerate(zip(members, fits)):
        key = (tuple(r.shape for r, _ in rows), len(fit[2]))
        groups.setdefault(key, []).append(i)
    for (shapes, _), idx in groups.items():
        n = shapes[0][1] - 1
        # each member position's (R, Z) over the group, side by side in rows
        r, z = (np.concatenate([np.stack(position) for position in
                                zip(*([part[j] for part in members[i]]
                                      for i in idx))], axis=1)
                for j in (0, 1))
        # every sensor: R as it stands; taking its columns too gives the
        # same bits but made an in-process recorded search 10-20% slower
        if all(fits[i][2] == tuple(range(n)) for i in idx):
            cols = np.arange(1 + n)[None]
        else:
            cols = np.array([columns(fits[i][2]) for i in idx])
            r = np.take_along_axis(r, cols[:, None, :], axis=2)
        w = solve_reduced(r, z, ridge)
        if out is None:
            out = np.zeros((len(fits), w.shape[2], 1 + n))
        out[np.array(idx)[:, None], :, cols] = w
    return out


def _sweep(task: TaskKind, fits: Sequence, evaluation, runs: Mapping,
           payloads: PayloadSet, test_window: Window, ridge: float,
           normalizer: str) -> tuple:
    """`_solve` every single-task readout of ``fits`` and `score` them all
    on each ``evaluation`` condition against its `_truth` in one call (a
    zero payload has no mass error); returns the error grid and weights."""
    if task is TaskKind.PAYLOAD_DETECT:
        raise ValueError(f"unsupported evaluation task {task}")
    truths = [_truth(task, runs, cond, payloads) for cond in evaluation]
    for cond, mass in zip(evaluation, truths):
        if mass == 0:
            raise ValueError(f"relative mass error undefined for "
                             f"zero-payload condition {cond.label}")
    w = _solve(fits, runs, payloads, (task,), ridge)[:, 0]
    grid = np.column_stack([
        score(task, _factor(runs, cond, test_window), w, truth, normalizer)
        for cond, truth in zip(evaluation, truths)])
    return grid, w


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
    (fit,) = _plan(runs, None, (subset,), window, masks=(sensor_mask,))
    (w,) = _solve([fit], runs, payloads, (task,), ridge)
    return ReadoutWeights(weights=w[:, columns(fit[2])].T,
                          sensor_mask=fit[2], task_names=(task.value,))


def subset_sweep(spec: SweepSpec, runs: Mapping,
                 payloads: PayloadSet) -> SweepResult:
    """Train one readout per subset and score it on every evaluation
    condition's test window."""
    fits = _plan(runs, spec.evaluation, spec.subsets, spec.train_window,
                 (spec.samples_per_condition,))
    return SweepResult(_sweep(spec.task, fits, spec.evaluation, runs,
                              payloads, spec.test_window, spec.ridge,
                              spec.normalizer)[0])


@dataclass(frozen=True, eq=False)
class SampleCountResult:
    """Error statistics versus training-sample count (mean and std over
    noise-seed repeats)."""

    mean_grid: np.ndarray
    std_grid: np.ndarray


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
    its noisy runs' factors serve every count and die with those runs. No
    count, or one the train window does not hold, is refused before any
    noise. All counts of a repeat are fitted and scored as one `_sweep`.
    """
    fits = _plan(noise_free, evaluation, (subset,), train_window,
                 [int(count) for count in counts])
    errors = np.empty((len(fits), len(evaluation), repeats))
    for r in range(repeats):
        runs = {c: add_noise(params, noise_free[c], base_seed + r)
                for c in dict.fromkeys((*subset, *evaluation))}
        errors[:, :, r] = _sweep(task, fits, evaluation, runs, payloads,
                                 test_window, ridge, normalizer)[0]
    return SampleCountResult(mean_grid=errors.mean(axis=2),
                             std_grid=errors.std(axis=2))


@dataclass(frozen=True, eq=False)
class AblationResult:
    """Per-mask errors and per-sensor absolute readout-weight shares."""

    masks: tuple
    error_grid: np.ndarray
    mean_errors: np.ndarray
    weight_shares: np.ndarray


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
    (absolute sensor weights normalized to 100% per mask, bias excluded).
    All masks are fitted and scored as one `_sweep`, one stack per mask
    size."""
    fits = _plan(runs, evaluation, (subset,), train_window, masks=masks)
    error_grid, w = _sweep(task, fits, evaluation, runs, payloads,
                           test_window, ridge, normalizer)
    masks = tuple(mask for _, _, mask in fits)
    share_rows = np.full((len(masks), w.shape[1] - 1), np.nan)
    for mi, mask in enumerate(masks):
        mags = np.abs(w[mi, columns(mask)[1:]])
        total = mags.sum()
        share_rows[mi, list(mask)] = 100.0 * mags / total if total > 0 else 0.0
    return AblationResult(
        masks=masks,
        error_grid=error_grid,
        mean_errors=error_grid.mean(axis=1),
        weight_shares=share_rows,
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
    scored from its own test-window factor, as `armrc evaluate` scores a
    run: detect first, then angle and mass where the rule keeps the cell.
    """
    cells = condition_grid(n_profiles, payloads)
    fits = _plan(runs, cells, (training_cells,), train_window)
    w_angle, w_detect, w_mass = _solve(fits, runs, payloads, MULTITASK_TASKS,
                                       ridge)[0]
    masses = np.array([_truth(TaskKind.PAYLOAD_MASS, runs, c, payloads)
                       for c in cells])
    detect, angle_error, mass_error = np.full((3, len(cells)), np.nan)
    present = np.empty(len(cells), dtype=bool)
    for k, cond in enumerate(cells):
        block = _factor(runs, cond, test_window)
        detect[k] = score(TaskKind.PAYLOAD_DETECT, block, w_detect, None,
                          normalizer)
        present[k] = payload_status(detect[k]) is PayloadStatus.PRESENT
        if present[k] or masses[k] == 0:
            angle_error[k] = score(TaskKind.BENDING_ANGLE, block, w_angle,
                                   None, normalizer)
        if present[k] and masses[k] > 0:
            mass_error[k] = score(TaskKind.PAYLOAD_MASS, block, w_mass,
                                  masses[k], normalizer)
    shape = (n_profiles, len(payloads))
    return MultitaskGridResult(
        detect_output=detect.reshape(shape),
        detect_correct=(present == (masses > 0)).reshape(shape),
        angle_error=angle_error.reshape(shape),
        mass_error=mass_error.reshape(shape),
    )


# Experiment families from the grid's shape, by two index rules: `spread`
# and the bisection of `nested_payload_subsets`.

def spread(lo: int, hi: int, k: int) -> tuple:
    """k indices spread over lo..hi, both ends kept (all of lo..hi if it
    holds no more): round(linspace(lo, hi, k)), ties to even."""
    k = max(0, min(k, hi - lo + 1))
    return tuple(int(i) for i in np.round(np.linspace(lo, hi, k)))


def bending_conditions(n_profiles: int = 7) -> tuple:
    return tuple(InputCondition(i, 1) for i in range(1, n_profiles + 1))


def payload_conditions(n_payloads: int = 7) -> tuple:
    return tuple(InputCondition(1, j) for j in range(1, n_payloads + 1))


def nested_bending_subsets(n_profiles: int = 7) -> tuple:
    """Training families of 1..n profiles, each `spread` over P1..Pn."""
    return tuple(tuple(InputCondition(i, 1) for i in spread(1, n_profiles, k))
                 for k in range(1, n_profiles + 1))


def all_profile_pairs(n_profiles: int = 7) -> tuple:
    return tuple(itertools.combinations(bending_conditions(n_profiles), 2))


def nested_payload_subsets(n_payloads: int = 7) -> tuple:
    """Nested families over the non-zero payloads M2..Mn: the two ends, then
    each next family adds the rounded midpoint of its first widest gap."""
    families = [spread(2, n_payloads, 2)]
    while 0 < len(families[-1]) < n_payloads - 1:
        family = families[-1]
        a, b = max(zip(family, family[1:]), key=lambda gap: gap[1] - gap[0])
        families.append(tuple(sorted((*family, round((a + b) / 2)))))
    return tuple(tuple(InputCondition(1, j) for j in fam)
                 for fam in families if fam)


def tip_sensor_masks(n_sensors: int = 7) -> tuple:
    """Nested masks keeping the n - 1 down to 2 tip-most sensors."""
    return tuple(tuple(range(k, n_sensors)) for k in range(1, n_sensors - 1))


def multitask_training_subsets(n_profiles: int = 7,
                               n_payloads: int = 5) -> dict:
    """The multi-task training geometries, 2x2, 5x2 and 3x3 profiles by
    payloads, each `spread` over the grid and named by the rows and columns
    it trains: on a small grid a repeat is kept once."""
    geometries = {}
    for a, b in ((2, 2), (5, 2), (3, 3)):
        rows, cols = spread(1, n_profiles, a), spread(1, n_payloads, b)
        geometries[f"{len(rows)}x{len(cols)}"] = tuple(
            InputCondition(i, j) for i in rows for j in cols)
    return geometries


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
        """The runs its sweeps simulate; every family member is among them."""
        return self.subset + self.evaluation


def experiments(cfg) -> dict:
    """The bending and payload experiments of an `ExperimentConfig`, keyed
    by the name their result files carry; the one rule of the grid's shape
    refuses fewer than 2 profiles or 2 payloads, before a sweep simulates."""
    n_profiles, n_payloads = len(cfg.profiles), len(cfg.payloads)
    if n_profiles < 2:
        raise ValueError("the bending experiment trains on P1+Pn and needs "
                         f"at least 2 profiles; the config has {n_profiles}")
    if n_payloads < 2:
        raise ValueError("the payload experiment trains on M2..Mm and needs "
                         f"at least 2 payloads; the config has {n_payloads}")
    payload_eval = payload_conditions(n_payloads)[1:]
    return {
        "bending": Experiment(
            task=TaskKind.BENDING_ANGLE,
            subset=tuple(InputCondition(i, 1) for i in spread(1, n_profiles, 2)),
            evaluation=bending_conditions(n_profiles),
            families={"subsets": nested_bending_subsets(n_profiles),
                      "pairs": all_profile_pairs(n_profiles)},
        ),
        "payload": Experiment(
            task=TaskKind.PAYLOAD_MASS,
            subset=payload_eval,
            evaluation=payload_eval,
            families={"subsets": nested_payload_subsets(n_payloads)},
        ),
    }
