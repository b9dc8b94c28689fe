"""Command-line surface.

Subcommands: simulate, train, evaluate, sweep, correlate. Exit status 0 on
success, 1 with a machine-parsable ``error: ...`` line on failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from .config import ConfigError, ExperimentConfig, default_config, load_config
from .core import Window, condition_grid, parse_condition_label, slice_series
from .readout import correlation_matrix, nrmse_percent, predict
from .runio import (
    config_digest,
    export_run,
    ingest_run,
    load_weights,
    read_matrix_csv,
    save_weights,
    write_manifest,
    write_matrix_csv,
)
from .surrogate import simulate_grid
from .sweeps import (
    HARDWARE_NOTE,
    SweepSpec,
    experiments,
    multitask_grid,
    multitask_training_subsets,
    sample_count_sweep,
    sensor_ablation_sweep,
    simulate_conditions,
    subset_sweep,
    tip_sensor_masks,
    train_on_subset,
    training_window,
)
from .tasks import TaskKind, bending_target, mass_error_percent, payload_status


def _subset_label(subset) -> str:
    return "+".join(c.label for c in subset)


def _labels(conditions) -> list:
    return [c.label for c in conditions]


def _parse_mask(text):
    if text is None:
        return None
    mask = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token.startswith("s"):
            raise ValueError(f"sensor names look like s1..s7, got {token!r}")
        mask.append(int(token[1:]) - 1)
    return tuple(mask)


def _load(args) -> ExperimentConfig:
    cfg = default_config() if args.config is None else load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
        overrides["surrogate"] = dataclasses.replace(cfg.surrogate,
                                                     seed=args.seed)
    if args.ridge is not None:
        overrides["ridge"] = args.ridge
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _say(args, text) -> None:
    if not args.quiet:
        print(text)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    digest = config_digest(cfg)
    out = Path(args.out)
    t0 = time.perf_counter()
    runs = simulate_grid(cfg.surrogate, cfg.profiles, cfg.payloads, cfg.grid)
    written = []
    for cond, series in runs.items():
        path = export_run(series, out / "runs" / f"{cond.label}.csv",
                          config_hash=digest, seed=cfg.seed)
        written.append(str(path.relative_to(out)))
        written.append(str(path.with_suffix(".meta.json").relative_to(out)))
    write_manifest(
        out / "manifest.json", config_hash=digest, seed=cfg.seed,
        outputs=written, elapsed_seconds=time.perf_counter() - t0,
        extra={"command": "simulate", "n_runs": len(runs)},
    )
    _say(args, f"wrote {len(runs)} runs to {out / 'runs'}")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    task = TaskKind(args.task)
    subset = tuple(parse_condition_label(t) for t in args.subset.split(","))
    mask = _parse_mask(args.mask)
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
              "full": Window(cfg.grid.t0, cfg.grid.t_end)}[args.window]
    mass = series.payload_grams
    if mass is None and series.condition is not None:
        mass = cfg.payloads.mass_of(series.condition.payload_index)
        print(f"warning: {args.run}: the sidecar records no payload_grams; "
              f"taking {mass:g} g for {series.condition.label} from the "
              "config's payloads", file=sys.stderr)
    outputs = predict(weights, series, window).reshape(-1, weights.n_tasks)
    for name, trace in zip(weights.task_names, outputs.T):
        if name == TaskKind.BENDING_ANGLE.value:
            truth = bending_target(series, window)
            err = nrmse_percent(trace, truth, cfg.normalizer)
            print(f"task=bending nrmse_percent={err:.4f}")
        elif name == TaskKind.PAYLOAD_DETECT.value:
            verdict = payload_status(trace.mean()).value
            line = f"task=detect mean_output={trace.mean():.4f} verdict={verdict}"
            if mass is not None:
                truth = "present" if mass > 0 else "absent"
                line += f" truth={truth} correct={verdict == truth}"
            print(line)
        elif name == TaskKind.PAYLOAD_MASS.value:
            est = float(trace.mean())
            line = f"task=mass estimate_grams={est:.4f}"
            if mass is not None and mass > 0:
                line += (f" truth_grams={mass:.1f} relative_error_percent="
                         f"{mass_error_percent(est, mass):.4f}")
            print(line)
        else:
            print(f"task={name} mean_output={trace.mean():.4f}")
    return 0


def _simulate(cfg: ExperimentConfig, conditions, with_noise=True) -> dict:
    return simulate_conditions(cfg.surrogate, cfg.profiles, cfg.payloads,
                               cfg.grid, conditions, with_noise=with_noise)


def _write_result(path: Path, matrix, rows, cols, cfg: ExperimentConfig,
                  digest: str, **labels) -> Path:
    """Write one result matrix; its provenance line carries the config hash,
    the seed and ``labels``."""
    return write_matrix_csv(path, matrix, rows, cols, provenance={
        "config": digest, "seed": cfg.seed, **labels})


def _sweep_conditions(cfg: ExperimentConfig, out: Path, digest: str) -> list:
    table = experiments(cfg)
    runs = _simulate(cfg, [c for exp in table.values() for c in exp.conditions])
    written = []
    for name, exp in table.items():
        for family, subsets in exp.families.items():
            spec = SweepSpec(task=exp.task, subsets=subsets,
                             evaluation=exp.evaluation,
                             train_window=training_window(cfg, exp.task),
                             test_window=cfg.test, ridge=cfg.ridge,
                             normalizer=cfg.normalizer)
            res = subset_sweep(spec, runs, cfg.payloads)
            written.append(_write_result(
                out / f"{name}_{family}.csv", res.error_grid,
                [_subset_label(s) for s in subsets], _labels(exp.evaluation),
                cfg, digest, task=exp.task.value))
    return written


def _sweep_samples(cfg: ExperimentConfig, out: Path, digest: str) -> list:
    table = experiments(cfg)
    noise_free = _simulate(cfg, [c for exp in table.values()
                                 for c in exp.conditions], with_noise=False)
    written = []
    rows = [str(c) for c in cfg.sample_counts]
    for name, exp in table.items():
        res = sample_count_sweep(
            exp.task, cfg.sample_counts, exp.subset, exp.evaluation,
            cfg.surrogate, noise_free, cfg.payloads, cfg.grid,
            train_window=cfg.train, test_window=cfg.test,
            repeats=cfg.sample_repeats, base_seed=cfg.seed,
            ridge=cfg.ridge, normalizer=cfg.normalizer,
        )
        for stat, grid in (("mean", res.mean_grid), ("std", res.std_grid)):
            written.append(_write_result(
                out / f"{name}_sample_counts_{stat}.csv", grid, rows,
                _labels(exp.evaluation), cfg, digest, task=name,
                repeats=cfg.sample_repeats))
    return written


def _sweep_sensors(cfg: ExperimentConfig, out: Path, digest: str) -> list:
    n = cfg.surrogate.n_nodes
    masks = (tuple(range(n)),) + tip_sensor_masks(n)
    rows = ["+".join(f"s{m + 1}" for m in mask) for mask in masks]
    table = experiments(cfg)
    runs = _simulate(cfg, [c for exp in table.values() for c in exp.conditions])
    written = []
    for name, exp in table.items():
        res = sensor_ablation_sweep(
            exp.task, masks, exp.subset, exp.evaluation, runs, cfg.payloads,
            train_window=training_window(cfg, exp.task), test_window=cfg.test,
            ridge=cfg.ridge, normalizer=cfg.normalizer,
        )
        written.append(_write_result(
            out / f"{name}_ablation.csv", res.error_grid, rows,
            _labels(exp.evaluation), cfg, digest, task=name))
        written.append(_write_result(
            out / f"{name}_weight_shares.csv", res.weight_shares, rows,
            [f"s{k + 1}" for k in range(n)], cfg, digest, task=name))
    return written


def _sweep_multitask(cfg: ExperimentConfig, out: Path, digest: str) -> list:
    n_profiles = len(cfg.profiles)
    payloads = cfg.multitask_payloads
    runs = simulate_conditions(cfg.surrogate, cfg.profiles, payloads, cfg.grid,
                               condition_grid(n_profiles, payloads))
    rows = [f"P{i}" for i in range(1, n_profiles + 1)]
    cols = [f"{m:g}g" for m in payloads.masses]
    written = []
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
            written.append(_write_result(
                out / f"multitask_{name}_{part}.csv", grid, rows, cols,
                cfg, digest, training=name))
        summary[name] = (float(res.detection_perfect), res.step2_mean)
    names = sorted(summary)
    written.append(_write_result(
        out / "multitask_summary.csv", [summary[k] for k in names], names,
        ["detection_perfect", "step2_mean_percent"], cfg, digest))
    return written


def _multitask_table(path: Path) -> str:
    matrix, rows, _, _ = read_matrix_csv(path)
    lines = [f"{'training':>10} {'detection':>10} {'step-2 mean %':>14}"]
    for label, (perfect, step2) in zip(rows, matrix):
        verdict = "perfect" if perfect == 1 else "errors"
        lines.append(f"{label:>10} {verdict:>10} {step2:>14.2f}")
    return "\n".join(lines)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    digest = config_digest(cfg)
    out = Path(args.out)
    t0 = time.perf_counter()
    runner = {
        "conditions": _sweep_conditions,
        "samples": _sweep_samples,
        "sensors": _sweep_sensors,
        "multitask": _sweep_multitask,
    }[args.kind]
    written = runner(cfg, out, digest)
    write_manifest(
        out / "manifest.json", config_hash=digest, seed=cfg.seed,
        outputs=[str(Path(p).relative_to(out)) for p in written],
        elapsed_seconds=time.perf_counter() - t0,
        extra={"command": f"sweep {args.kind}", "note": HARDWARE_NOTE},
    )
    if args.kind == "multitask":
        _say(args, _multitask_table(out / "multitask_summary.csv"))
    _say(args, f"wrote {len(written)} result files to {out}")
    return 0


def cmd_correlate(args) -> int:
    cfg = _load(args)
    channel = args.channel.strip().lower()
    traces = []
    labels = []
    for path in args.runs:
        series = ingest_run(path)
        if channel != "s_in":
            idx = int(channel[1:]) - 1
            if not 0 <= idx < series.n_sensors:
                raise ValueError(
                    f"channel {args.channel!r} outside s1..s{series.n_sensors}"
                )
        sub = slice_series(series, Window(cfg.washout.end, series.grid.t_end))
        traces.append(sub.s_in if channel == "s_in" else sub.sensors[idx])
        labels.append(
            series.condition.label if series.condition else Path(path).stem
        )
    corr = correlation_matrix(traces)
    if args.out is None:
        print("," + ",".join(labels))
        for label, row in zip(labels, corr):
            print(label + "," + ",".join(f"{v:.6f}" for v in row))
    else:
        _write_result(Path(args.out), corr, labels, labels, cfg,
                      config_digest(cfg), channel=channel)
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
    p.add_argument("kind",
                   choices=["conditions", "samples", "sensors", "multitask"])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("correlate", parents=[common],
                       help="correlation matrix of one channel across runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--channel", default="s7")
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
