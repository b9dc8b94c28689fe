"""The armrc pipeline written out in plain numpy, to be read rather than to
be fast: the runs `armrc simulate` writes, the weights `armrc train`
writes, the numbers `armrc evaluate` prints and every table of every
`armrc sweep` kind, each computed the long way from the config.

It imports from armrc only what a table is *of*: the config and its
`training_window`, the profile generator, the window rules, the noise key
layout, the payload reference pressure, the rank cutoff and the
experiment geometry. Nothing here simulates, draws noise, factors, solves
or scores through armrc. It is also the one home of the oracles the unit
tests compare single layers against.

- Kernel: x <- (g * x + C x) + drive, one sample at a time.
- Noise: sensor m's draws from a fresh ``Philox(key=[seed, key(cond, m)])``.
- Readout: least squares on the stacked ``[1 | S]`` training rows,
  ``lstsq`` with the package's rank cutoff at ridge 0 and
  ``(Phi^T Phi + ridge I)^-1 Phi^T y`` above it.
- Scores: RMSE over the truth's scale, the window-mean mass error and the
  window-mean detect output, as formulas.
"""

from collections import namedtuple

import numpy as np

from armrc.config import training_window
from armrc.core import condition_grid, count_window, window_indices
from armrc.profiles import generate_profile
from armrc.readout import RCOND
from armrc.surrogate import U_PAYLOAD_REF, _noise_key
from armrc.sweeps import (experiments, multitask_training_subsets,
                          tip_sensor_masks)

# One run: (n, T) sensor readings, the (T,) bending angle, the payload grams.
Run = namedtuple("Run", "sensors theta mass")


# -- the arm --------------------------------------------------------------

def states(params, trace, mass, x0=None):
    """(n, T) noise-free node states under actuation ``trace`` and payload
    ``mass``, from ``x0`` (zeros if None). Each step is
    ``(g * x + C x) + drive``, vectorized over nodes, with ``C x`` summed
    in j order from 0.0: the kernel's rounding order, so its bits."""
    leak, kp, gain, pgain = (np.asarray(v, dtype=float) for v in (
        params.leak, params.leak_pressure_coeff, params.input_gain,
        params.payload_gain))
    c = np.asarray(params.coupling, dtype=float)
    phi = 0.5 * (1.0 + np.tanh((trace - params.leak_pressure_knee)
                               / params.leak_pressure_width))
    v = np.tanh(trace / U_PAYLOAD_REF)
    rho = np.tanh(mass / params.payload_sat)
    x = np.zeros(params.n_nodes) if x0 is None else np.array(x0, dtype=float)
    out = np.empty((params.n_nodes, len(trace)))
    for k in range(len(trace)):
        g = (1.0 - leak * (1.0 - kp * phi[k])) + pgain * (rho * v[k])
        coupled = np.zeros(params.n_nodes)
        for j in range(params.n_nodes):
            coupled = coupled + c[:, j] * x[j]
        x = (g * x + coupled) + gain * trace[k]
        out[:, k] = x
    return out


def fresh_draws(seed, cond, sensor, n, std):
    """``sensor``'s noise under ``cond`` at ``seed``: a fresh generator."""
    key = np.array(_noise_key(seed, cond, sensor), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).normal(0.0, std, n)


def trace(cfg, cond):
    """The commanded pressure of ``cond``'s profile on the config's clock."""
    return generate_profile(cfg.profiles[cond.profile_index - 1], cfg.grid)


def simulate(cfg, conditions, seed, payloads=None):
    """{cond: Run} under ``cfg`` (payloads default to the config's); noise
    at ``seed``, none at None. The angle reads the noise-free states."""
    params, payloads = cfg.surrogate, payloads or cfg.payloads
    runs = {}
    for cond in conditions:
        mass = payloads.mass_of(cond.payload_index)
        x = states(params, trace(cfg, cond), mass)
        theta = (np.asarray(params.angle_weights) @ x
                 + params.angle_payload_slope * mass)
        runs[cond] = Run(x, theta, mass)
    return runs if seed is None else add_noise(cfg, runs, seed)


def add_noise(cfg, runs, seed):
    """``runs`` with every sensor's noise at ``seed`` added."""
    return {cond: run._replace(sensors=run.sensors + np.array([
        fresh_draws(seed, cond, m, run.sensors.shape[1],
                    cfg.surrogate.noise_std)
        for m in range(run.sensors.shape[0])])) for cond, run in runs.items()}


# -- the readout -----------------------------------------------------------

def design(sensors, mask=None):
    """The rows [1 | S] of (n, T) sensor traces: a bias column, then one
    column per sensor (only ``mask``'s, in mask order, when given)."""
    picked = sensors if mask is None else sensors[list(mask)]
    return np.column_stack([np.ones(sensors.shape[1]), picked.T])


def fit(phi, y, ridge=0.0):
    """Least-squares weights of design rows ``phi`` for targets ``y``: at
    ridge 0 the minimum-norm solution, singular values below RCOND of the
    largest cut; above it ``(Phi^T Phi + ridge I)^-1 Phi^T y``, the
    minimizer of |Phi w - y|^2 + ridge |w|^2, taken as the least-squares
    solution of Phi over sqrt(ridge) I against y over zeros, which does
    not square Phi's condition number as the Gram matrix does."""
    if ridge == 0.0:
        return np.linalg.lstsq(phi, y, rcond=RCOND)[0]
    k = phi.shape[1]
    return np.linalg.lstsq(np.vstack([phi, np.sqrt(ridge) * np.eye(k)]),
                           np.concatenate([y, np.zeros((k,) + y.shape[1:])]),
                           rcond=None)[0]


def normal_equations_oracle(phi, y, rcond=RCOND):
    """The ridge-0 fit from an explicitly formed Gram pseudoinverse.

    Cutting Gram singular values at (rcond * sigma_max)^2 matches cutting
    the design's singular values at rcond * sigma_max.
    """
    gram = phi.T @ phi
    return np.linalg.pinv(gram, rcond=rcond**2) @ (phi.T @ y)


def q_forming_oracle(phi, theta):
    """R, Q^T theta and |theta - Q Q^T theta|^2 from a reduced QR that
    forms Q."""
    q, r = np.linalg.qr(phi)
    z = q.T @ theta
    resid = theta - q @ z
    return r, z, resid @ resid


def target(task, run, rows):
    """A task's training target over ``rows`` of a run: the angle, the
    payload grams, or the detect label (+1 absent, -1 present)."""
    if task == "bending":
        return run.theta[rows]
    constant = run.mass if task == "mass" else 1.0 if run.mass == 0 else -1.0
    return np.full(len(run.theta[rows]), constant)


def rows_of(grid, window):
    """A window's samples on a clock, as a slice."""
    return slice(*window_indices(grid, window))


def train(cfg, runs, subset, task, window, mask=None):
    """One task's readout over ``subset``'s stacked ``window`` rows."""
    rows = rows_of(cfg.grid, window)
    phi = np.vstack([design(runs[c].sensors[:, rows], mask) for c in subset])
    y = np.concatenate([target(task, runs[c], rows) for c in subset])
    return fit(phi, y, cfg.ridge)


# -- the scores ------------------------------------------------------------

def nrmse(pred, truth, normalizer="range"):
    """RMSE as a percentage of the truth's range or largest magnitude."""
    scale = (truth.max() - truth.min() if normalizer == "range"
             else np.abs(truth).max())
    return 100.0 * np.sqrt(np.mean((pred - truth) ** 2)) / scale


def mass_error(pred, mass):
    """|window mean - mass| / mass, in percent."""
    return 100.0 * abs(np.mean(pred) - mass) / mass


def score(cfg, task, w, run, mask=None, window=None):
    """A readout's reported number on a run's window (the test window if
    None): its NRMSE, its mass error, or its window-mean detect output."""
    rows = rows_of(cfg.grid, cfg.test if window is None else window)
    pred = design(run.sensors[:, rows], mask) @ w
    if task == "bending":
        return nrmse(pred, run.theta[rows], cfg.normalizer)
    return mass_error(pred, run.mass) if task == "mass" else np.mean(pred)


def evaluate(cfg, task, w, run, window, mask=None):
    """The ``key=value`` fields `armrc evaluate` prints for one readout."""
    mean = score(cfg, "detect", w, run, mask, window)
    if task == "bending":
        return {"task": task,
                "nrmse_percent": score(cfg, task, w, run, mask, window)}
    if task == "mass":
        fields = {"task": task, "estimate_grams": mean}
        if run.mass > 0:
            fields.update(truth_grams=run.mass, relative_error_percent=score(
                cfg, task, w, run, mask, window))
        return fields
    verdict, truth = (("present" if v else "absent")
                      for v in (mean <= 0, run.mass > 0))
    return {"task": task, "mean_output": mean, "verdict": verdict,
            "truth": truth, "correct": str(verdict == truth)}


# -- the sweep tables: {file name: (matrix, row labels, column labels)} ----

def labels(conditions):
    return [c.label for c in conditions]


def experiment_runs(cfg, seed):
    return simulate(cfg, dict.fromkeys(
        c for exp in experiments(cfg).values() for c in exp.conditions), seed)


def conditions_tables(cfg):
    runs, tables = experiment_runs(cfg, cfg.seed), {}
    for name, exp in experiments(cfg).items():
        task, window = exp.task.value, training_window(cfg, exp.task)
        for family, subsets in exp.families.items():
            tables[f"{name}_{family}.csv"] = (
                [[score(cfg, task, train(cfg, runs, s, task, window), runs[c])
                  for c in exp.evaluation] for s in subsets],
                ["+".join(labels(s)) for s in subsets], labels(exp.evaluation))
    return tables


def samples_tables(cfg):
    """Mean and std (ddof 0) over repeats r, each at seed ``cfg.seed + r``,
    of training on each count's first samples of the whole train window."""
    clean, tables = experiment_runs(cfg, None), {}
    windows = [count_window(cfg.train, count, cfg.grid.sample_rate)
               for count in cfg.sample_counts]
    for name, exp in experiments(cfg).items():
        task = exp.task.value
        errors = []
        for r in range(cfg.sample_repeats):
            runs = add_noise(cfg, clean, cfg.seed + r)
            errors.append([[score(cfg, task, train(cfg, runs, exp.subset, task,
                                                   window), runs[c])
                            for c in exp.evaluation] for window in windows])
        errors = np.array(errors)
        for stat, grid in (("mean", errors.mean(axis=0)),
                           ("std", errors.std(axis=0))):
            tables[f"{name}_sample_counts_{stat}.csv"] = (
                grid, [str(c) for c in cfg.sample_counts],
                labels(exp.evaluation))
    return tables


def sensors_tables(cfg):
    """Errors with each mask, all sensors first, and each fit's absolute
    sensor weights as percent shares of their sum (NaN off the mask)."""
    n, runs, tables = cfg.surrogate.n_nodes, experiment_runs(cfg, cfg.seed), {}
    masks = (tuple(range(n)),) + tip_sensor_masks(n)
    names = [f"s{m + 1}" for m in range(n)]
    rows = ["+".join(names[m] for m in mask) for mask in masks]
    for name, exp in experiments(cfg).items():
        task, window = exp.task.value, training_window(cfg, exp.task)
        errors, shares = [], np.full((len(masks), n), np.nan)
        for k, mask in enumerate(masks):
            w = train(cfg, runs, exp.subset, task, window, mask)
            errors.append([score(cfg, task, w, runs[c], mask)
                           for c in exp.evaluation])
            mags = np.abs(w[1:])
            shares[k, list(mask)] = (100.0 * mags / mags.sum()
                                     if mags.sum() > 0 else 0.0)
        tables[f"{name}_ablation.csv"] = (errors, rows, labels(exp.evaluation))
        tables[f"{name}_weight_shares.csv"] = (shares, rows, names)
    return tables


def multitask_tables(cfg):
    """Each geometry's two-step grid: detect every cell (present iff its
    mean output is <= 0); score the angle where a payload is detected or
    truly absent, and the mass where one is detected and truly present."""
    payloads, n_profiles = cfg.multitask_payloads, len(cfg.profiles)
    cells = condition_grid(n_profiles, payloads)
    runs = simulate(cfg, cells, cfg.seed, payloads)
    rows = [f"P{i}" for i in range(1, n_profiles + 1)]
    cols = [f"{m:g}g" for m in payloads.masses]
    tables, summary = {}, {}
    geometries = multitask_training_subsets(n_profiles, len(payloads))
    for name, training in geometries.items():
        w = {task: train(cfg, runs, training, task, cfg.train)
             for task in ("bending", "detect", "mass")}
        grids = {part: np.full((n_profiles, len(payloads)), np.nan)
                 for part in ("detect", "angle", "mass")}
        correct = True
        for c in cells:
            run, at = runs[c], (c.profile_index - 1, c.payload_index - 1)
            grids["detect"][at] = score(cfg, "detect", w["detect"], run)
            present, loaded = grids["detect"][at] <= 0, run.mass > 0
            correct &= present == loaded
            if present or not loaded:
                grids["angle"][at] = score(cfg, "bending", w["bending"], run)
            if present and loaded:
                grids["mass"][at] = score(cfg, "mass", w["mass"], run)
        for part, grid in grids.items():
            tables[f"multitask_{name}_{part}.csv"] = (grid, rows, cols)
        summary[name] = (float(correct), np.nanmean(
            np.concatenate([grids["angle"].ravel(), grids["mass"].ravel()])))
    tables["multitask_summary.csv"] = (
        [summary[k] for k in sorted(summary)], sorted(summary),
        ["detection_perfect", "step2_mean_percent"])
    return tables


SWEEPS = {"conditions": conditions_tables, "samples": samples_tables,
          "sensors": sensors_tables, "multitask": multitask_tables}
