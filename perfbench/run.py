"""armrc benchmark: one command, three batch workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file for why each was chosen):

- ``paper-sweeps``: the four ``armrc sweep`` kinds, each in its own process.
- ``grid-export``: ``armrc simulate`` of the 7x7 grid to run CSVs.
- ``recorded-search``: ingest a prepared ``armrc simulate`` tree, then
  exhaustive readout searches through the ``armrc.sweeps`` API.

Every process is a fresh interpreter started one at a time, at the
machine's default BLAS thread count. A run repeats passes for
``--seconds`` seconds: the first at the reference seed, checked against
``reference/``, the others at ``--seed``, each checked against the first
at that seed. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics. The last line of stdout is the JSON result; the exit
status is 1 if any pass failed, 2 if the checkout holds no armrc sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SWEEP_KINDS = ("conditions", "samples", "sensors", "multitask")
# set-up-only processes per run, on top of the set-ups of the measured passes
SETUP_ONLY_PROCESSES = 5
CHILD_TIMEOUT_S = 60


@contextlib.contextmanager
def work_dir(root: Path, name: str):
    """A scratch directory under ``root/.bench_work``, removed afterwards
    (with ``.bench_work`` itself once it is empty)."""
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child can subtract the launch time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Bench:
    """Starts child processes for one benchmark run, one at a time."""

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        self._jobs = 0

    def process(self, calls, trace=False) -> dict:
        """Run one armrc process; its result dict has ``error`` set on any
        failure, including a non-zero exit."""
        self._jobs += 1
        job = self.work / f"job{self._jobs}.json"
        out = self.work / f"result{self._jobs}.json"
        job.write_text(json.dumps({"src": str(self.src), "trace": trace,
                                   "calls": calls, "result": str(out)}))
        launched = _monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(job), repr(launched)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"process timed out after {CHILD_TIMEOUT_S} s"}
        try:
            result = json.loads(out.read_text())
        except (OSError, ValueError):
            result = {"error": f"no result (exit {proc.returncode})"}
        if proc.returncode != 0 and not result.get("error"):
            result["error"] = f"exit {proc.returncode}"
        if result.get("error"):
            result["error"] += proc.stderr[-2000:]
        job.unlink()
        out.unlink(missing_ok=True)
        return result


def _cli(*argv, seed):
    return {"cli": [*argv, "--seed", str(seed), "--quiet"]}


def _no_inputs(bench, seed):
    return None


def _prepare_runs(bench, seed):
    run_dir = bench.work / f"recorded-seed{seed}"
    result = bench.process([_cli("simulate", "--out", str(run_dir), seed=seed)])
    if result["error"]:
        raise RuntimeError(f"preparing recorded runs failed: {result['error']}")
    # write the 35 MB back now: write-back during the timed passes took the
    # second core from BLAS and made a pass up to 10x slower
    for path in run_dir.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
    return run_dir


# name -> (prepare inputs (untimed), processes of one pass, output sketches)
WORKLOADS = {
    "paper-sweeps": (
        _no_inputs,
        lambda out, seed, inputs: [
            [_cli("sweep", kind, "--out", str(out / kind), seed=seed)]
            for kind in SWEEP_KINDS],
        lambda out, results: {kind: checks.sweep_outputs(out / kind)
                              for kind in SWEEP_KINDS},
    ),
    "grid-export": (
        _no_inputs,
        lambda out, seed, inputs: [[_cli("simulate", "--out", str(out),
                                         seed=seed)]],
        lambda out, results: checks.run_checksums(out),
    ),
    "recorded-search": (
        _prepare_runs,
        lambda out, seed, run_dir: [[{"search": str(run_dir)}]],
        lambda out, results: results[0]["outputs"],
    ),
}


def run_pass(bench, workload, seed, inputs, trace) -> dict:
    """One pass: its processes in order, then its outputs' sketches."""
    _, processes, outputs = WORKLOADS[workload]
    out = bench.work / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    results = []
    for calls in processes(out, seed, inputs):
        results.append(bench.process(calls, trace))
        if results[-1]["error"]:
            break
    p = {
        "traced": trace,
        "error": next((r["error"] for r in results if r["error"]), None),
        "spans": [r["spans"] for r in results if r.get("spans")],
    }
    if p["error"] is None:
        p["wall_raw_s"] = sum(w for r in results for w in r["walls"])
        p["wall_s"] = sum(w for r in results for w in r["walls_scaled"])
        p["setups"] = [(r["setup_s"], r["setup_scaled_s"]) for r in results]
        p["rss_mb"] = max(r["rss_kib"] for r in results) / 1024
        try:
            p["outputs"] = outputs(out, results)
        except (OSError, ValueError) as exc:
            p["error"] = f"unreadable outputs: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return p


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if unknown."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
    }


def _quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


UNITS = {"unique_ratio": "ratio", "bytes": "B", "mb_per_s": "MB/s",
         "peak_rss_mb": "MiB", "us_per_step": "us", "us_per_row": "us"}


def _unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[-1]
    if stat in UNITS:
        return UNITS[stat]
    return "s" if stat == "s" or stat.endswith("_s") else "count"


def _report(series: dict) -> dict:
    """Print one line per metric (median, quartiles, sample count) and return
    the medians with their units."""
    metrics = {}
    for name, values in series.items():
        q1, med, q3 = _quartiles(values)
        unit = _unit(name)
        print(f"  {name:44s} {med:14.6g} {unit:6s} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def measure(args, root: Path, bench: Bench) -> int:
    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    prepare = WORKLOADS[args.workload][0]
    reference = checks.load_reference(args.workload)
    attempted = failed = 0

    def account(p, problems):
        nonlocal attempted, failed
        attempted += 1
        problems = [p["error"]] if p["error"] else problems
        if problems:
            failed += 1
            for line in problems[:20]:
                print(f"pass {attempted}: {line}", file=sys.stderr)
        return not problems

    bench.process([])  # fills bytecode caches in a fresh checkout; untimed
    setup_only = [bench.process([]) for _ in range(SETUP_ONLY_PROCESSES)]
    setup_only = [r for r in setup_only if not r["error"]]
    inputs = {checks.REFERENCE_SEED: prepare(bench, checks.REFERENCE_SEED)}
    if args.seed not in inputs:
        inputs[args.seed] = prepare(bench, args.seed)

    # The first pass runs at the reference seed and is checked against the
    # stored values; the others run at --seed. Work does not depend on the
    # seed, so all passes are timed alike.
    expected = {checks.REFERENCE_SEED: reference}
    passes, longest, start = [], 0.0, _monotonic()
    while True:
        seed = checks.REFERENCE_SEED if attempted == 0 else args.seed
        began = _monotonic()
        p = run_pass(bench, args.workload, seed, inputs[seed],
                     bool(args.trace) and len(passes) % 2 == 1)
        if p["error"]:
            problems = []
        elif seed not in expected:
            # no stored values for this seed: the first pass must match the
            # reference's layout, and every later pass must reproduce it
            problems = checks.compare(checks.layout(reference),
                                      checks.layout(p["outputs"]))
            if not problems:
                expected[seed] = p["outputs"]
        else:
            problems = checks.compare(expected[seed], p["outputs"])
        if account(p, problems):
            passes.append(p)
            print(f"  pass {attempted}: seed {seed}, wall {p['wall_s']:.4f} s "
                  f"(as measured {p['wall_raw_s']:.4f} s), traced={p['traced']}")
        longest = max(longest, _monotonic() - began)
        elapsed = _monotonic() - start
        enough = not args.trace or len({q["traced"] for q in passes}) == 2
        if elapsed + longest > args.seconds and (
                enough or elapsed > 3 * args.seconds):
            break

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {failed} of {attempted} failed "
          f"(fail_ratio {failed / attempted:.4g})")
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not args.trace:
        setups = ([(r["setup_s"], r["setup_scaled_s"]) for r in setup_only]
                  + [s for p in plain for s in p["setups"]])
        series = {
            "wall_s": [p["wall_s"] for p in plain],
            "setup_s": [s[1] for s in setups],
            "peak_rss_mb": [p["rss_mb"] for p in plain],
            # as measured, before scaling; printed but not part of the result
            "wall_raw_s": [p["wall_raw_s"] for p in plain],
            "setup_raw_s": [s[0] for s in setups],
        }
    else:
        layers = [spans.summarize(p["spans"]) for p in traced]
        series = {name: [m[name] for m in layers]
                  for name in spans.metric_names()}
        series["trace.overhead_s"] = [
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain)
        ] if plain and traced else []
    if any(not values for values in series.values()):
        print("error: no pass succeeded", file=sys.stderr)
        series = {name: values or [0.0] for name, values in series.items()}
    metrics = _report(series)
    for name in ("wall_raw_s", "setup_raw_s"):
        metrics.pop(name, None)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind: subprocess.run kills the running child, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    src = root / "src"
    if not (src / "armrc" / "__init__.py").is_file():
        print(f"error: no armrc sources under {src}; run from the root of "
              "an armrc checkout", file=sys.stderr)
        return 2
    with work_dir(root, "run") as work:
        return measure(args, root, Bench(src, work))


if __name__ == "__main__":
    sys.exit(main())
