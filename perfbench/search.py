"""The recorded-search workload: read a directory of recorded runs and run
exhaustive readout searches over it through the public ``armrc`` API.

This is the hardware-data path README advertises: nothing here simulates.
Every search runs twice, at ridge 0 (the minimum-norm path) and at
``RIDGE`` (the regularized path), so both solvers stay measured.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

RIDGE = 1e-3


def _nonempty_subsets(items, min_size=1):
    return [
        combo
        for size in range(min_size, len(items) + 1)
        for combo in itertools.combinations(items, size)
    ]


def _labels(subset):
    return "+".join(c.label for c in subset)


def ingest_all(run_dir):
    """Read every run CSV under ``run_dir/runs``, keyed by its condition."""
    from armrc import runio

    runs = {}
    for path in sorted(Path(run_dir, "runs").glob("*.csv")):
        series = runio.ingest_run(path)
        runs[series.condition] = series
    return runs


def search(cfg, runs, ridge):
    """All searches at one ridge. Returns {name: (rows, cols, matrix)}."""
    from armrc import sweeps
    from armrc.core import InputCondition, Window
    from armrc.tasks import TaskKind

    n_prof = len(cfg.profiles)
    n_pay = len(cfg.payloads)
    n_sensors = cfg.surrogate.n_nodes
    common = dict(train_window=cfg.train, test_window=cfg.test,
                  ridge=ridge, normalizer=cfg.normalizer)
    out = {}

    # every non-empty profile subset, per payload row
    rows, grid = [], []
    for j in range(1, n_pay + 1):
        evaluation = tuple(InputCondition(i, j) for i in range(1, n_prof + 1))
        subsets = _nonempty_subsets(evaluation)
        res = sweeps.subset_sweep(
            sweeps.SweepSpec(task=TaskKind.BENDING_ANGLE, subsets=subsets,
                             evaluation=evaluation, **common),
            runs, cfg.payloads)
        rows += [_labels(s) for s in subsets]
        grid.append(res.error_grid)
    out["bending"] = (rows, [f"P{i}" for i in range(1, n_prof + 1)],
                      np.vstack(grid))

    # every subset of at least two non-zero payloads, per profile
    mass_samples = int(round(cfg.mass_segment_seconds * cfg.grid.sample_rate))
    rows, grid = [], []
    for i in range(1, n_prof + 1):
        evaluation = tuple(InputCondition(i, j) for j in range(2, n_pay + 1))
        subsets = _nonempty_subsets(evaluation, min_size=2)
        res = sweeps.subset_sweep(
            sweeps.SweepSpec(task=TaskKind.PAYLOAD_MASS, subsets=subsets,
                             evaluation=evaluation,
                             samples_per_condition=mass_samples, **common),
            runs, cfg.payloads)
        rows += [_labels(s) for s in subsets]
        grid.append(res.error_grid)
    out["mass"] = (rows, [f"M{j}" for j in range(2, n_pay + 1)],
                   np.vstack(grid))

    # every non-empty sensor mask, for the two ablation jobs of `sweep sensors`
    masks = _nonempty_subsets(tuple(range(n_sensors)))
    mask_rows = ["+".join(f"s{m + 1}" for m in mask) for mask in masks]
    sensor_cols = [f"s{k + 1}" for k in range(n_sensors)]
    bend_eval = sweeps.bending_conditions(n_prof)
    pay_eval = sweeps.payload_conditions(n_pay)[1:]
    jobs = (
        ("bending", TaskKind.BENDING_ANGLE, (bend_eval[0], bend_eval[-1]),
         bend_eval, cfg.train),
        ("payload", TaskKind.PAYLOAD_MASS, pay_eval, pay_eval,
         Window(cfg.train.start, cfg.train.start + cfg.mass_segment_seconds)),
    )
    for name, task, subset, evaluation, window in jobs:
        res = sweeps.sensor_ablation_sweep(
            task, masks, subset, evaluation, runs, cfg.payloads,
            train_window=window, test_window=cfg.test,
            ridge=ridge, normalizer=cfg.normalizer)
        out[f"{name}_ablation"] = (mask_rows, [c.label for c in evaluation],
                                   res.error_grid)
        out[f"{name}_weight_shares"] = (mask_rows, sensor_cols,
                                        res.weight_shares)

    # the two-step multitask pipeline for the three shipped geometries
    profile_rows = [f"P{i}" for i in range(1, n_prof + 1)]
    payload_cols = [f"M{j}" for j in range(1, n_pay + 1)]
    geometries = sweeps.multitask_training_subsets(n_prof, n_pay)
    for name, cells in geometries.items():
        res = sweeps.multitask_grid(cells, runs, cfg.payloads,
                                    n_profiles=n_prof, **common)
        for part in ("detect_output", "angle_error", "mass_error"):
            out[f"multitask_{name}_{part}"] = (profile_rows, payload_cols,
                                               getattr(res, part))
    return out


def recorded_search(cfg, run_dir):
    """One timed pass: ingest every run, then search at both ridges."""
    runs = ingest_all(run_dir)
    out = {}
    for ridge in (0.0, RIDGE):
        for name, result in search(cfg, runs, ridge).items():
            out[f"ridge{ridge:g}/{name}"] = result
    return out
