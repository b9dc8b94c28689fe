"""Experiment sweep engine: condition-subset sweeps, training-sample-count
sweeps, sensor ablations with readout-weight shares, and the multi-task
grid with its two-step detect-then-predict pipeline.

Every sweep fits and scores the runs it is given and draws no noise: the
runs arrive with their noise at one seed, and a caller that repeats a
sweep over seeds (`cli._sweep`) noises a copy of the noise-free runs at
each. Percentages divide by `readout.truth_scale`; the paper's hardware
percentages are ordering targets, not equality targets.

`SWEEPS` defines each `armrc sweep` kind: its runs, those its fits train
on, and its tables of them at one seed. Three kinds read `experiments`,
the two shipped single-task experiments, which refuses a grid too small
for them.

Every entry point (`subset_sweep`, `sample_count_sweep`,
`sensor_ablation_sweep`, `train_on_subset`, `multitask_grid`) describes
its fits as (subset, window, mask) triples, made in one planning step
(`_plan`) before any fit, which checks the runs the entry point reads
(their grams too), gives each sample count its training window, and
gives each condition its target per task.

Every fit reads its training windows' R through `readout.window_factor`,
which `readout` keeps per (run, window) while the run lives (README:
"Readout solver"); a constant target (mass, detect) is fitted from that R
alone. Every cell is scored by `tasks.score`, which picks the window read
its task needs. A sweep makes one `readout.solve_reduced` call per subset
size and mask size and one score call per evaluation cell; the multitask grid
scores each cell on its own. Every cell equals, bit for bit, its lone
`train_on_subset` scored alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import training_window
from .core import (
    DEFAULT_SEED,
    InputCondition,
    PayloadSet,
    TEST_WINDOW,
    TRAIN_WINDOW,
    Window,
    as_int,
    condition_grid,
    count_window,
    sensor_name,
)
from .readout import (ReadoutWeights, columns, normalize_mask, solve_reduced,
                      window_factor)
# no sweep calls simulate_conditions: perfbench's spans name it here
from .surrogate import simulate_conditions
from .tasks import (DETECT_LABEL, PayloadStatus, TaskKind, payload_status,
                    score, true_status)


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


def _plan(tasks: tuple, runs: Mapping, payloads: PayloadSet, scored,
          subsets, window: Window, counts=(None,), masks=(None,)) -> tuple:
    """The whole pre-fit check of a sweep: its fits as (subset, window,
    mask) triples, one per subset, sample count and sensor mask, and each
    condition's target per task (None for bending, its payload-set mass,
    or the detect label of its `true_status`). It refuses a sweep of no fit
    (a `SweepSpec` of no subset is refused as it is made) or no ``scored``
    condition (None: a lone fit), then checks each run the sweep reads,
    the scored ones first: it has the first run's sensor count n, since a
    readout of one arm reads no other; when a count is set, its sample
    rate; when a task has a constant target, its recorded grams (if any).
    A count trains on the first that many samples of ``window`` on that
    clock (`count_window`), None on all of it; a mask is normalized on n
    sensors (None: all). It is the only place a sweep looks a run or a
    mass up; fit and score code reads ``runs[cond]`` and the targets."""
    if scored is not None and len(scored) == 0:
        raise ValueError("evaluation set must be non-empty")
    for name, values in (("sample count", counts), ("sensor mask", masks)):
        if len(values) == 0:
            raise ValueError(f"need at least one {name}")
    if not all(subsets):
        raise ValueError("need at least one condition to assemble")
    one_clock = any(count is not None for count in counts)
    constant = set(tasks) - {TaskKind.BENDING_ANGLE}
    first, targets = None, {}
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
        truth = {TaskKind.BENDING_ANGLE: None}
        if constant:
            mass = payloads.mass_of(cond.payload_index)
            if (grams := run.payload_grams) is not None and grams != mass:
                raise ValueError(f"run {cond.label} records {grams:g} g, but "
                                 f"the payload set gives {mass:g} g")
            truth[TaskKind.PAYLOAD_MASS] = mass
            truth[TaskKind.PAYLOAD_DETECT] = DETECT_LABEL[true_status(mass)]
        targets[cond] = tuple(truth[task] for task in tasks)
    windows = [window if count is None
               else count_window(window, count, head.grid.sample_rate)
               for count in counts]
    masks = [normalize_mask(mask, head.n_sensors) for mask in masks]
    return [(subset, fit_window, mask) for subset in subsets
            for fit_window in windows for mask in masks], targets


def _solve(fits: Sequence, runs: Mapping, targets: Mapping,
           ridge: float) -> np.ndarray:
    """Fit one readout per (subset, window, mask) of ``fits``: each member's
    all-sensor R factor over the window (`window_factor`, always (1 + n)
    square) with one column per `_plan` target (its z for None, c R[:, 0] for
    a constant c), stacked over the subset and read on the mask's `columns`,
    with no second QR. Each distinct (condition, window) is read once, before
    grouping, into one bank: a (count, 1 + n, 1 + n) array of R and one of
    target columns. Fits of one subset size and mask size share one
    `solve_reduced` call, whose rows are one integer-array gather from the
    bank. It checks no run: `_plan` has given every run one sensor count n,
    which it reads off the R rows. Returns (len(fits), n_tasks, 1 + n) weight
    rows, zero outside each mask."""
    parts, bank, groups = {}, [], {}
    for i, (subset, window, mask) in enumerate(fits):
        part, at = parts.setdefault(window, {}), []
        for cond in subset:
            row = part.get(cond)
            if row is None:
                r, z = window_factor(runs[cond], window)[:2]
                row = part[cond] = len(bank)
                bank.append((r, np.column_stack([
                    z if c is None else c * r[:, 0] for c in targets[cond]])))
            at.append(row)
        groups.setdefault((len(subset), len(mask)), []).append((i, at))
    bank = [np.stack(b) for b in zip(*bank)]
    n = bank[0].shape[1] - 1
    out = np.zeros((len(fits), bank[1].shape[2], 1 + n))
    for group in groups.values():
        idx, at = map(np.array, zip(*group))
        # every member's (R, Z) over the group, side by side in rows
        r, z = (b[at].reshape(len(idx), -1, b.shape[2]) for b in bank)
        cols = np.array([columns(fits[i][2]) for i in idx])
        # every column in order: R as it stands; taking them too gives the
        # same bits but made an in-process recorded search 10-20% slower
        if cols.shape[1] <= n or (cols != np.arange(1 + n)).any():
            r = np.take_along_axis(r, cols[:, None, :], axis=2)
        out[idx[:, None], :, cols] = solve_reduced(r, z, ridge)
    return out


def _sweep(task: TaskKind, fits: Sequence, evaluation, runs: Mapping,
           targets: Mapping, test_window: Window, ridge: float,
           normalizer: str) -> tuple:
    """`_solve` every single-task readout of ``fits`` and `score` them all
    on each ``evaluation`` condition against its target in one call (a
    zero payload has no mass error); returns the error grid and weights."""
    if task is TaskKind.PAYLOAD_DETECT:
        raise ValueError(f"unsupported evaluation task {task}")
    for cond in evaluation:
        if targets[cond][0] == 0:
            raise ValueError(f"relative mass error undefined for "
                             f"zero-payload condition {cond.label}")
    w = _solve(fits, runs, targets, ridge)[:, 0]
    grid = np.column_stack([
        score(task, runs[cond], test_window, w, targets[cond][0], normalizer)
        for cond in evaluation])
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
    (fit,), targets = _plan((task,), runs, payloads, None, (subset,), window,
                            masks=(sensor_mask,))
    (w,) = _solve([fit], runs, targets, ridge)
    return ReadoutWeights(weights=w[:, columns(fit[2])].T,
                          sensor_mask=fit[2], task_names=(task.value,))


def subset_sweep(spec: SweepSpec, runs: Mapping,
                 payloads: PayloadSet) -> SweepResult:
    """Train one readout per subset and score it on every evaluation
    condition's test window."""
    fits, targets = _plan((spec.task,), runs, payloads, spec.evaluation,
                          spec.subsets, spec.train_window,
                          (spec.samples_per_condition,))
    return SweepResult(_sweep(spec.task, fits, spec.evaluation, runs,
                              targets, spec.test_window, spec.ridge,
                              spec.normalizer)[0])


def sample_count_sweep(
    task: TaskKind,
    counts: Sequence[int],
    subset: Sequence[InputCondition],
    evaluation: Sequence[InputCondition],
    runs: Mapping,
    payloads: PayloadSet,
    train_window: Window = TRAIN_WINDOW,
    test_window: Window = TEST_WINDOW,
    ridge: float = 0.0,
    normalizer: str = "range",
) -> SweepResult:
    """`subset_sweep` of ``subset`` at each count of training samples per
    condition, on the runs' clock, one row per count. No count, or one the
    train window does not hold, is refused before any fit; all counts are
    fitted and scored as one `_sweep`."""
    fits, targets = _plan((task,), runs, payloads, evaluation, (subset,),
                          train_window, [as_int(count) for count in counts])
    return SweepResult(_sweep(task, fits, evaluation, runs, targets,
                              test_window, ridge, normalizer)[0])


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
    fits, targets = _plan((task,), runs, payloads, evaluation, (subset,),
                          train_window, masks=masks)
    error_grid, w = _sweep(task, fits, evaluation, runs, targets,
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
    scored by `tasks.score`, as `armrc evaluate` scores a run.
    """
    cells = condition_grid(n_profiles, payloads)
    fits, targets = _plan(MULTITASK_TASKS, runs, payloads, cells,
                          (training_cells,), train_window)
    w_angle, w_detect, w_mass = _solve(fits, runs, targets, ridge)[0]
    detect, angle_error, mass_error = np.full((3, len(cells)), np.nan)
    present = np.empty(len(cells), dtype=bool)
    loaded = np.array([true_status(targets[c][2]) is PayloadStatus.PRESENT
                       for c in cells])
    for k, cond in enumerate(cells):
        run = runs[cond]
        detect[k] = score(TaskKind.PAYLOAD_DETECT, run, test_window, w_detect)
        present[k] = payload_status(detect[k]) is PayloadStatus.PRESENT
        if present[k] or not loaded[k]:
            angle_error[k] = score(TaskKind.BENDING_ANGLE, run, test_window,
                                   w_angle, None, normalizer)
        if present[k] and loaded[k]:
            mass_error[k] = score(TaskKind.PAYLOAD_MASS, run, test_window,
                                  w_mass, targets[cond][2])
    shape = (n_profiles, len(payloads))
    return MultitaskGridResult(
        detect_output=detect.reshape(shape),
        detect_correct=(present == loaded).reshape(shape),
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
    refuses fewer than 2 profiles or 3 payloads, before a sweep simulates
    (on 2 payloads the payload experiment would fit M2 alone, which the
    bias does exactly, and score rounding)."""
    n_profiles, n_payloads = len(cfg.profiles), len(cfg.payloads)
    if n_profiles < 2:
        raise ValueError("the bending experiment trains on P1+Pn and needs "
                         f"at least 2 profiles; the config has {n_profiles}")
    if n_payloads < 3:
        raise ValueError("the payload experiment trains on M2..Mm and needs "
                         f"at least 3 payloads; the config has {n_payloads}")
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


def _experiment_runs(cfg, families: bool = False) -> tuple:
    """Both experiments' conditions, the payload set they are of, and the
    conditions a fit trains on: each experiment's subset, and with
    ``families`` every family member too."""
    exps = experiments(cfg).values()
    trained = [c for exp in exps for c in exp.subset]
    if families:
        trained += [c for exp in exps for subsets in exp.families.values()
                    for subset in subsets for c in subset]
    return [c for exp in exps for c in exp.conditions], cfg.payloads, trained


def _multitask_runs(cfg) -> tuple:
    """The multitask grid's runs, its payload set, and the cells its
    training geometries fit; fewer than 2 profiles is refused here."""
    n_profiles, payloads = len(cfg.profiles), cfg.multitask_payloads
    if n_profiles < 2:
        raise ValueError("the multitask 2x2 geometry trains on P1+Pn and needs "
                         f"at least 2 profiles; the config has {n_profiles}")
    trained = [c for cells in multitask_training_subsets(
        n_profiles, len(payloads)).values() for c in cells]
    return condition_grid(n_profiles, payloads), payloads, trained


def _condition_tables(cfg, runs: Mapping):
    """Every experiment's families, each one `subset_sweep`."""
    for name, exp in experiments(cfg).items():
        for family, subsets in exp.families.items():
            spec = SweepSpec(
                task=exp.task, subsets=subsets, evaluation=exp.evaluation,
                train_window=training_window(cfg, exp.task),
                test_window=cfg.test, ridge=cfg.ridge,
                normalizer=cfg.normalizer)
            yield (f"{name}_{family}.csv",
                   subset_sweep(spec, runs, cfg.payloads).error_grid,
                   ["+".join(c.label for c in s) for s in subsets],
                   [c.label for c in exp.evaluation], {"task": exp.task.value})


def _sample_tables(cfg, runs: Mapping):
    """Both experiments' `sample_count_sweep`s, on the whole train window."""
    rows = [str(c) for c in cfg.sample_counts]
    for name, exp in experiments(cfg).items():
        res = sample_count_sweep(
            exp.task, cfg.sample_counts, exp.subset, exp.evaluation, runs,
            cfg.payloads, train_window=cfg.train, test_window=cfg.test,
            ridge=cfg.ridge, normalizer=cfg.normalizer)
        yield (f"{name}_sample_counts.csv", res.error_grid, rows,
               [c.label for c in exp.evaluation], {"task": exp.task.value})


def _sensor_tables(cfg, runs: Mapping):
    """Both experiments' `sensor_ablation_sweep`s: errors, weight shares."""
    n = cfg.surrogate.n_nodes
    masks = (tuple(range(n)),) + tip_sensor_masks(n)
    names = list(map(sensor_name, range(n)))
    rows = ["+".join(names[m] for m in mask) for mask in masks]
    for name, exp in experiments(cfg).items():
        res = sensor_ablation_sweep(
            exp.task, masks, exp.subset, exp.evaluation, runs, cfg.payloads,
            train_window=training_window(cfg, exp.task), test_window=cfg.test,
            ridge=cfg.ridge, normalizer=cfg.normalizer)
        yield (f"{name}_ablation.csv", res.error_grid, rows,
               [c.label for c in exp.evaluation], {"task": exp.task.value})
        yield (f"{name}_weight_shares.csv", res.weight_shares, rows, names,
               {"task": exp.task.value})


def _multitask_tables(cfg, runs: Mapping):
    """Each training geometry's `multitask_grid`, and a summary row each."""
    n_profiles, payloads = len(cfg.profiles), cfg.multitask_payloads
    rows = [f"P{i}" for i in range(1, n_profiles + 1)]
    cols = [f"{m:g}g" for m in payloads.masses]
    summary = {}
    for name, cells in multitask_training_subsets(n_profiles, len(payloads)).items():
        res = multitask_grid(
            cells, runs, payloads, n_profiles=n_profiles,
            train_window=cfg.train, test_window=cfg.test,
            ridge=cfg.ridge, normalizer=cfg.normalizer)
        for part, grid in (("detect", res.detect_output),
                           ("angle", res.angle_error),
                           ("mass", res.mass_error)):
            yield (f"multitask_{name}_{part}.csv", grid, rows, cols,
                   {"training": name})
        summary[name] = (float(res.detection_perfect), res.step2_mean)
    names = sorted(summary)
    yield ("multitask_summary.csv", [summary[k] for k in names], names,
           ["detection_perfect", "step2_mean_percent"], {})


# The kinds of `armrc sweep`: kind -> (the runs it reads, as (conditions,
# payload set, the conditions a fit trains on, taken from the subsets and
# families its tables fit); its tables of those runs at one noise seed, each
# (file name, matrix, row labels, column labels, provenance labels); None,
# or the config field of its number of seeds). `cli._sweep` simulates,
# noises and writes; a table reads a run no fit trains on only in the test
# window.
SWEEPS = {
    "conditions": (functools.partial(_experiment_runs, families=True),
                   _condition_tables, None),
    "samples": (_experiment_runs, _sample_tables, "sample_repeats"),
    "sensors": (_experiment_runs, _sensor_tables, None),
    "multitask": (_multitask_runs, _multitask_tables, None),
}
