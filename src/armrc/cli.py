"""Command-line surface.

Subcommands: simulate, train, evaluate, sweep, correlate. Exit status 0 on
success, 1 with a machine-parsable ``error: ...`` line on failure, 2 on
usage errors. Each ``sweep`` kind is one `sweeps.SWEEPS` entry; `_sweep`
checks, seeds, noises, forks and writes every kind. A forked child
inherits the modules it uses (`_preload`); a successful `armrc simulate`
leaves ``runs/`` holding exactly its manifest's files.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .config import (ConfigError, ExperimentConfig, default_config,
                     load_config, training_window)
from .core import (Window, condition_grid, fork_map, parse_condition_label,
                   slice_series, trace_columns, window_indices)
from .profiles import cycle_period
from .readout import correlation_matrix, full_width
from .runio import (
    config_digest,
    export_run,
    ingest_run,
    load_weights,
    save_weights,
    sidecar_path,
    write_manifest,
    write_matrix_csv,
)
from .surrogate import _noise_key, add_noise, simulate_conditions
from .sweeps import SWEEPS, train_on_subset
from .tasks import PayloadStatus, TaskKind, payload_status, score, true_status

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


def _publish(staging: Path, out: Path, names: list) -> None:
    """Move the ``names`` written under ``staging`` into ``out/runs``, and
    then remove every other file there, so that ``runs/`` holds exactly
    ``names``: all of them, or, when one cannot move, none (those moved are
    removed). A non-file in ``runs/`` is refused before anything moves, so
    an earlier run's files stay; the earlier manifest goes before the first
    move, as from then on it no longer describes ``runs/``."""
    runs = out / "runs"
    runs.mkdir(exist_ok=True)
    for path in sorted(runs.iterdir()):
        if path.exists() and not path.is_file():
            raise FileExistsError(errno.EEXIST, "not a file, in the way",
                                  str(path))
    (out / "manifest.json").unlink(missing_ok=True)
    moved = []
    try:
        for name in names:
            (staging / name).replace(runs / name)
            moved.append(runs / name)
    except OSError:
        for path in moved:
            path.unlink()
        raise
    for path in set(runs.iterdir()).difference(moved):  # an earlier grid's
        path.unlink()


def _preload(cfg: ExperimentConfig, *modules: str) -> None:
    """Import ``modules``, and ``numpy.random`` when ``cfg`` draws noise,
    before `fork_map`, so that no forked child imports them itself."""
    if cfg.surrogate.noise_std > 0:
        modules += ("numpy.random",)
    for name in modules:
        importlib.import_module(name)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    digest = config_digest(cfg)
    out = Path(args.out)
    t0 = time.perf_counter()
    _preload(cfg, "orjson")
    out.mkdir(parents=True, exist_ok=True)
    # the children write here; runs/ receives every file or, on an error, none
    staging = Path(tempfile.mkdtemp(prefix=".runs-", dir=out))

    def write(share):  # in a `fork_map` child: only the names go back
        return [export_run(series, staging / f"{cond.label}.csv",
                           config_hash=digest, seed=cfg.seed).name
                for cond, series in _simulate(cfg, share, seed=cfg.seed).items()]

    try:
        csvs = fork_map(write, condition_grid(len(cfg.profiles), cfg.payloads))
        names = [name for csv in csvs
                 for name in (csv, sidecar_path(csv).name)]
        _publish(staging, out, names)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    write_manifest(
        out / "manifest.json", config_hash=digest, seed=cfg.seed,
        outputs=[f"runs/{name}" for name in names],
        elapsed_seconds=time.perf_counter() - t0,
        extra={"command": "simulate", "n_runs": len(csvs)},
    )
    _say(args, f"wrote {len(csvs)} runs to {out / 'runs'}")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    task = TaskKind(args.task)
    subset = tuple(parse_condition_label(t) for t in args.subset.split(","))
    mask = None if args.mask is None else [
        _sensor_index(t, cfg.surrogate.n_nodes) for t in args.mask.split(",")]
    _check_ramps(cfg)
    window = training_window(cfg, task)
    runs = _simulate(cfg, subset, seed=cfg.seed,
                     first=_samples_read(cfg, window)[0])
    weights = train_on_subset(subset, runs, cfg.payloads, task, window, mask,
                              cfg.ridge)
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
    truth = None if mass is None else true_status(mass)
    for name, w in zip(weights.task_names,
                       full_width(weights, series.n_sensors)):
        # the window mean: the detect output, or the mass estimate
        mean = score(TaskKind.PAYLOAD_DETECT, series, window, w)
        if name == TaskKind.BENDING_ANGLE.value:
            err = score(TaskKind.BENDING_ANGLE, series, window, w, None,
                        cfg.normalizer)
            line = f"task=bending nrmse_percent={err:.4f}"
        elif name == TaskKind.PAYLOAD_MASS.value:
            line = f"task=mass estimate_grams={mean:.4f}"
            if truth is PayloadStatus.PRESENT:
                err = score(TaskKind.PAYLOAD_MASS, series, window, w, mass)
                line += f" truth_grams={mass:.1f} relative_error_percent={err:.4f}"
        else:
            line = f"task={name} mean_output={mean:.4f}"
            if name == TaskKind.PAYLOAD_DETECT.value:
                verdict = payload_status(mean)
                line += f" verdict={verdict.value}"
                if truth is not None:
                    line += f" truth={truth.value} correct={verdict is truth}"
        print(line)
    return 0


def _simulate(cfg: ExperimentConfig, conditions, payloads=None, seed=None,
              first=0):
    """``conditions``' runs under ``cfg`` at ``seed`` (None: noise-free),
    kept from sample ``first`` on (an int, or one per condition)."""
    return simulate_conditions(
        cfg.surrogate, cfg.profiles, payloads or cfg.payloads, cfg.grid,
        conditions, seed=seed, first=first)


def _samples_read(cfg: ExperimentConfig, *windows: Window) -> tuple:
    """The first sample any of ``windows`` reads on ``cfg``'s grid, and one
    past the last (`window_indices`)."""
    spans = [window_indices(cfg.grid, w) for w in windows]
    return min(i0 for i0, _ in spans), max(i1 for _, i1 in spans)


def _check_ramps(cfg: ExperimentConfig) -> None:
    """Refuse profiles whose ramp cycles end before the last sample of the
    train or test window, where the trace would hold at u_min and every
    error read rounding: `generate_profile`'s test, on that sample."""
    last = _samples_read(cfg, cfg.train, cfg.test)[1]
    t = cfg.grid.times()[last - 1] - cfg.grid.t0
    for k, spec in enumerate(cfg.profiles, start=1):
        end = spec.n_cycles * cycle_period(spec)
        if t >= end:
            raise ValueError(
                f"profile P{k}'s {spec.n_cycles} ramp cycles end at {end:g} s,"
                f" before the last train or test sample at {t:g} s: give it "
                "more n_cycles")


def _sweep(kind: str, cfg: ExperimentConfig, out: Path, digest: str) -> list:
    """Simulate the noise-free runs a `SWEEPS` kind reads, once, and compute
    its tables at each of its seeds cfg.seed + r over `fork_map`: one seed
    noises the runs in place, so no noise-free run outlives its copy, and
    several each noise a copy. A kind of several writes each table X.csv as
    X_mean.csv and X_std.csv (ddof 0) over them. Each file is tagged with
    the config hash and seed; then a manifest. Ramps that end early, and
    seeds outside the noise key's range, are refused before any run. No
    table reads a sample before the train or test window, and none reads a
    run no fit trains on (`SWEEPS`) before the test window: a training run
    is kept from the first sample either window reads, every other run from
    the test window's first, and a table that reads before a run's kept
    span is refused (`window ... outside run`)."""
    t0 = time.perf_counter()
    _check_ramps(cfg)
    reads, compute, repeats = SWEEPS[kind]
    n = 1 if repeats is None else getattr(cfg, repeats)
    for seed in (cfg.seed, cfg.seed + n - 1):
        _noise_key(seed, None, 0)
    conditions, payloads, trained = reads(cfg)
    fitted = _samples_read(cfg, cfg.train, cfg.test)[0]
    tested = _samples_read(cfg, cfg.test)[0]
    keep = {c: fitted if c in trained else tested for c in conditions}
    first = list(keep.values())
    noise_free = _simulate(cfg, list(keep), payloads, first=first)
    _preload(cfg)

    def at(seeds):  # in a `fork_map` child when there are several
        return [list(compute(cfg, add_noise(
            cfg.surrogate, noise_free if n == 1 else dict(noise_free), seed,
            first))) for seed in seeds]

    tables = (per_seed := fork_map(at, range(cfg.seed, cfg.seed + n)))[0]
    if repeats is not None:  # each cell over the seeds, seed last
        tables = [(f"{name.removesuffix('.csv')}_{stat}.csv", getattr(
            np.stack([seed[k][1] for seed in per_seed], axis=2), stat)(axis=2),
            rows, cols, {**labels, "repeats": n})
            for k, (name, _, rows, cols, labels) in enumerate(tables)
            for stat in ("mean", "std")]
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
