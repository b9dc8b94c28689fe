"""Command-line surface.

Subcommands: simulate, train, evaluate, sweep, correlate. Exit status 0 on
success, 1 with a machine-parsable ``error: ...`` line on failure, 2 on
usage errors. Each ``sweep`` kind is one `SWEEPS` entry, run by `_sweep`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

from .config import (ConfigError, ExperimentConfig, default_config,
                     load_config, training_window)
from .core import (Window, condition_grid, parse_condition_label,
                   slice_series, trace_columns)
from .readout import correlation_matrix, full_width, window_factor
from .runio import (
    config_digest,
    contiguous_chunks,
    export_run,
    fork_map,
    ingest_run,
    load_weights,
    save_weights,
    sidecar_path,
    usable_cpus,
    write_manifest,
    write_matrix_csv,
)
from .surrogate import simulate_conditions
from .sweeps import (
    SweepSpec,
    experiments,
    multitask_grid,
    multitask_training_subsets,
    sample_count_sweep,
    sensor_ablation_sweep,
    subset_sweep,
    tip_sensor_masks,
    train_on_subset,
)
from .tasks import TaskKind, payload_status, score

HARDWARE_NOTE = ("percent errors are surrogate results; hardware-measured "
                 "percentages are qualitative ordering targets only")


def _sensor_index(token: str, n_sensors: int) -> int:
    """0-based index of a sensor named as in a run CSV (`trace_columns`),
    read case- and space-blind; any other token is refused."""
    names, name = trace_columns(n_sensors)[1:-1], token.strip().lower()
    if name not in names:
        raise ValueError(f"unknown sensor {token!r}: sensors are "
                         f"s1..s{n_sensors}")
    return names.index(name)


def _load(args) -> ExperimentConfig:
    cfg = default_config() if args.config is None else load_config(args.config)
    overrides = {key: getattr(args, key) for key in ("seed", "ridge")
                 if getattr(args, key) is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _say(args, text) -> None:
    if not args.quiet:
        print(text)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    digest = config_digest(cfg)
    out = Path(args.out)
    t0 = time.perf_counter()

    def write(share):  # in a `fork_map` worker: only the paths go back
        return [export_run(series, out / "runs" / f"{cond.label}.csv",
                           config_hash=digest, seed=cfg.seed)
                for cond, series in _simulate(cfg, share).items()]

    grid = condition_grid(len(cfg.profiles), cfg.payloads)
    chunks = fork_map(write, contiguous_chunks(grid, usable_cpus()))
    paths = [path for chunk in chunks for path in chunk]
    written = [str(p.relative_to(out))
               for path in paths for p in (path, sidecar_path(path))]
    write_manifest(
        out / "manifest.json", config_hash=digest, seed=cfg.seed,
        outputs=written, elapsed_seconds=time.perf_counter() - t0,
        extra={"command": "simulate", "n_runs": len(paths)},
    )
    _say(args, f"wrote {len(paths)} runs to {out / 'runs'}")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    task = TaskKind(args.task)
    subset = tuple(parse_condition_label(t) for t in args.subset.split(","))
    mask = None if args.mask is None else [
        _sensor_index(t, cfg.surrogate.n_nodes) for t in args.mask.split(",")]
    runs = _simulate(cfg, subset)
    weights = train_on_subset(subset, runs, cfg.payloads, task,
                              training_window(cfg, task), mask, cfg.ridge)
    save_weights(
        args.out, weights,
        provenance={
            "task": task.value,
            "trained_on": [c.label for c in subset],
            "ridge": cfg.ridge,
            "config_hash": config_digest(cfg),
            "seed": cfg.seed,
        },
    )
    _say(args, f"wrote readout weights for task {task.value!r} to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load(args)
    weights, provenance = load_weights(args.weights)
    series = ingest_run(args.run)
    window = {"train": cfg.train, "test": cfg.test,
              "full": Window(series.grid.t0, series.grid.t_end)}[args.window]
    mass = series.payload_grams
    if mass is None and series.condition is not None:
        mass = cfg.payloads.mass_of(series.condition.payload_index)
        print(f"warning: {args.run}: the sidecar records no payload_grams; "
              f"taking {mass:g} g for {series.condition.label} from the "
              "config's payloads", file=sys.stderr)
    block = window_factor(series, window)
    for name, w in zip(weights.task_names,
                       full_width(weights, series.n_sensors)):
        # the window mean: the detect output, or the mass estimate
        mean = score(TaskKind.PAYLOAD_DETECT, block, w, mass, cfg.normalizer)
        if name == TaskKind.BENDING_ANGLE.value:
            err = score(TaskKind.BENDING_ANGLE, block, w, mass, cfg.normalizer)
            line = f"task=bending nrmse_percent={err:.4f}"
        elif name == TaskKind.PAYLOAD_MASS.value:
            line = f"task=mass estimate_grams={mean:.4f}"
            if mass is not None and mass > 0:
                err = score(TaskKind.PAYLOAD_MASS, block, w, mass,
                            cfg.normalizer)
                line += f" truth_grams={mass:.1f} relative_error_percent={err:.4f}"
        else:
            line = f"task={name} mean_output={mean:.4f}"
            if name == TaskKind.PAYLOAD_DETECT.value:
                verdict = payload_status(mean).value
                line += f" verdict={verdict}"
                if mass is not None:
                    truth = "present" if mass > 0 else "absent"
                    line += f" truth={truth} correct={verdict == truth}"
        print(line)
    return 0


def _simulate(cfg: ExperimentConfig, conditions, with_noise=True,
              payloads=None) -> dict:
    """``conditions``' runs under ``cfg``, noised at its run seed."""
    return simulate_conditions(
        cfg.surrogate, cfg.profiles, payloads or cfg.payloads, cfg.grid,
        conditions, seed=cfg.seed, with_noise=with_noise)


def _experiment_runs(cfg: ExperimentConfig, with_noise=True) -> tuple:
    """Both experiments' conditions, as `_simulate` arguments."""
    return ([c for exp in experiments(cfg).values() for c in exp.conditions],
            with_noise, cfg.payloads)


def _multitask_runs(cfg: ExperimentConfig) -> tuple:
    """The multitask grid's runs; fewer than 2 profiles is refused here,
    before any run is simulated."""
    n_profiles, payloads = len(cfg.profiles), cfg.multitask_payloads
    if n_profiles < 2:
        raise ValueError("the multitask 2x2 geometry trains on P1+Pn and needs "
                         f"at least 2 profiles; the config has {n_profiles}")
    return condition_grid(n_profiles, payloads), True, payloads


def _condition_tables(cfg: ExperimentConfig, runs: dict):
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


def _sample_tables(cfg: ExperimentConfig, noise_free: dict):
    """Both experiments' sample-count sweeps, one per `fork_map` worker:
    each takes several times the pool's start-up. Workers inherit the runs."""
    table = experiments(cfg)

    def sweep(exp):
        return sample_count_sweep(
            exp.task, cfg.sample_counts, exp.subset, exp.evaluation,
            cfg.surrogate, noise_free, cfg.payloads, train_window=cfg.train,
            test_window=cfg.test, repeats=cfg.sample_repeats,
            base_seed=cfg.seed, ridge=cfg.ridge, normalizer=cfg.normalizer,
        )

    rows = [str(c) for c in cfg.sample_counts]
    for (name, exp), res in zip(table.items(),
                                fork_map(sweep, table.values())):
        for stat, grid in (("mean", res.mean_grid), ("std", res.std_grid)):
            yield (f"{name}_sample_counts_{stat}.csv", grid, rows,
                   [c.label for c in exp.evaluation],
                   {"task": name, "repeats": cfg.sample_repeats})


def _sensor_tables(cfg: ExperimentConfig, runs: dict):
    n = cfg.surrogate.n_nodes
    masks = (tuple(range(n)),) + tip_sensor_masks(n)
    names = trace_columns(n)[1:-1]
    rows = ["+".join(names[m] for m in mask) for mask in masks]
    for name, exp in experiments(cfg).items():
        res = sensor_ablation_sweep(
            exp.task, masks, exp.subset, exp.evaluation, runs, cfg.payloads,
            train_window=training_window(cfg, exp.task), test_window=cfg.test,
            ridge=cfg.ridge, normalizer=cfg.normalizer,
        )
        yield (f"{name}_ablation.csv", res.error_grid, rows,
               [c.label for c in exp.evaluation], {"task": name})
        yield (f"{name}_weight_shares.csv", res.weight_shares, rows, names,
               {"task": name})


def _multitask_tables(cfg: ExperimentConfig, runs: dict):
    n_profiles = len(cfg.profiles)
    payloads = cfg.multitask_payloads
    rows = [f"P{i}" for i in range(1, n_profiles + 1)]
    cols = [f"{m:g}g" for m in payloads.masses]
    summary = {}
    for name, cells in multitask_training_subsets(n_profiles, len(payloads)).items():
        res = multitask_grid(
            cells, runs, payloads, n_profiles=n_profiles,
            train_window=cfg.train, test_window=cfg.test,
            ridge=cfg.ridge, normalizer=cfg.normalizer,
        )
        for part, grid in (("detect", res.detect_output),
                           ("angle", res.angle_error),
                           ("mass", res.mass_error)):
            yield (f"multitask_{name}_{part}.csv", grid, rows, cols,
                   {"training": name})
        summary[name] = (float(res.detection_perfect), res.step2_mean)
    names = sorted(summary)
    yield ("multitask_summary.csv", [summary[k] for k in names], names,
           ["detection_perfect", "step2_mean_percent"], {})


# kind -> (the runs it reads, as `_simulate` arguments; the tables of them)
SWEEPS = {
    "conditions": (_experiment_runs, _condition_tables),
    "samples": (lambda cfg: _experiment_runs(cfg, with_noise=False),
                _sample_tables),
    "sensors": (_experiment_runs, _sensor_tables),
    "multitask": (_multitask_runs, _multitask_tables),
}


def _sweep(kind: str, cfg: ExperimentConfig, out: Path, digest: str) -> list:
    """Simulate the runs a `SWEEPS` kind reads and compute all its tables;
    then write each, tagged with the config hash and seed, and a manifest."""
    t0 = time.perf_counter()
    reads, compute = SWEEPS[kind]
    tables = list(compute(cfg, _simulate(cfg, *reads(cfg))))
    for name, matrix, rows, cols, labels in tables:
        write_matrix_csv(out / name, matrix, rows, cols, provenance={
            "config": digest, "seed": cfg.seed, **labels})
    write_manifest(
        out / "manifest.json", config_hash=digest, seed=cfg.seed,
        outputs=[name for name, *_ in tables],
        elapsed_seconds=time.perf_counter() - t0,
        extra={"command": f"sweep {kind}", "note": HARDWARE_NOTE},
    )
    return tables


# each kind alone, as criterion 15 and the tests call it
_sweep_conditions = functools.partial(_sweep, "conditions")
_sweep_samples = functools.partial(_sweep, "samples")
_sweep_sensors = functools.partial(_sweep, "sensors")
_sweep_multitask = functools.partial(_sweep, "multitask")


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    tables = _sweep(args.kind, cfg, out, config_digest(cfg))
    if args.kind == "multitask" and not args.quiet:
        _, matrix, rows, _, _ = tables[-1]  # multitask_summary.csv
        print(f"{'training':>10} {'detection':>10} {'step-2 mean %':>14}")
        for label, (perfect, step2) in zip(rows, matrix):
            verdict = "perfect" if perfect == 1 else "errors"
            print(f"{label:>10} {verdict:>10} {step2:>14.2f}")
    _say(args, f"wrote {len(tables)} result files to {out}")
    return 0


def cmd_correlate(args) -> int:
    cfg = _load(args)
    channel = args.channel.strip().lower()
    traces = []
    labels = []
    clocks = []  # each run's (samples, rate) after the washout
    for path in args.runs:
        series = ingest_run(path)
        if channel != "s_in":
            idx = _sensor_index(args.channel, series.n_sensors)
        sub = slice_series(series, Window(cfg.washout.end, series.grid.t_end))
        traces.append(sub.s_in if channel == "s_in" else sub.sensors[idx])
        labels.append(
            series.condition.label if series.condition else Path(path).stem
        )
        clocks.append((sub.grid.n_samples, sub.grid.sample_rate))
        if clocks[-1] != clocks[0]:
            raise ValueError(
                "runs {} and {} cannot be correlated sample by sample: {} "
                "samples at {:g} Hz after the washout, and {} at {:g} Hz"
                .format(labels[0], labels[-1], *clocks[0], *clocks[-1]))
    corr = correlation_matrix(traces)
    if args.out is None:
        print("," + ",".join(labels))
        for label, row in zip(labels, corr):
            print(label + "," + ",".join(f"{v:.6f}" for v in row))
    else:
        write_matrix_csv(args.out, corr, labels, labels, provenance={
            "config": config_digest(cfg), "seed": cfg.seed,
            "channel": channel})
        _say(args, f"wrote correlation matrix to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="experiment config YAML (default: built-in)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    common.add_argument("--ridge", type=float, default=None,
                        help="override the readout regularizer")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress chatter")

    parser = argparse.ArgumentParser(
        prog="armrc",
        description="Pneumatic-arm reservoir surrogate and readout toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate the full condition grid to CSV runs")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", parents=[common],
                       help="train a readout on a condition subset")
    p.add_argument("--task", required=True,
                   choices=[t.value for t in TaskKind])
    p.add_argument("--subset", required=True,
                   help="comma list of conditions, e.g. P1,P7 or M2,M7")
    p.add_argument("--mask", default=None,
                   help="comma list of sensors to use, e.g. s5,s6,s7")
    p.add_argument("--out", required=True, help="weights JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score saved weights against a recorded run")
    p.add_argument("--weights", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--window", default="test",
                   choices=["train", "test", "full"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common],
                       help="run a shipped experiment sweep")
    p.add_argument("kind", choices=list(SWEEPS))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("correlate", parents=[common],
                       help="correlation matrix of one channel across runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--channel", default="s7", help="s_in or s1..s7")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_correlate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
