"""One ``armrc`` process of a benchmark pass.

Usage: python3 child.py JOB.json LAUNCH_TIME

LAUNCH_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start, imports and building
the config. The child then times each call of the job, and writes its
timings, peak RSS, output sketches and (when traced) its spans to the job's
result file.
"""

import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# Every SAMPLE_EVERY_S of wall time the sampler times PROBE_STEPS steps of a
# fixed small-array recurrence, the same kind of work as the surrogate's
# inner loop but no armrc code. On a shared machine the speed a process gets
# swings by up to 1.8x within seconds; scaling each timed phase by the probe
# times taken during it reports the phase at the speed where the probe takes
# PROBE_REF_S, which cuts the run-to-run spread of times several-fold.
SAMPLE_EVERY_S = 0.02
PROBE_STEPS = 100
PROBE_REF_S = 2.5e-4


class Sampler:
    """Probe timings taken from a SIGALRM handler, as (start, seconds)."""

    def __init__(self):
        self.samples = []
        self._a = np.linspace(0.5, 0.9, 7)
        self._c = np.full((7, 7), 1e-3)
        self._x0 = np.zeros(7)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        x = self._x0
        for _ in range(PROBE_STEPS):
            x = self._a * x + self._c @ x + 0.01
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def scaled(self, seconds, t0, t1):
        """``seconds`` spent in [t0, t1), less the probes' own time, at the
        reference speed. Uses all samples if none fell in the interval."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        speed = inside or [d for _, d in self.samples]
        return (seconds - sum(inside)) * PROBE_REF_S / (sum(speed) / len(speed))


def run_call(armrc, cfg, call):
    """Run one timed call; returns (start, seconds, output sketches or None)."""
    if "cli" in call:
        start = time.perf_counter()
        status = armrc.cli.main(call["cli"])
        seconds = time.perf_counter() - start
        if status != 0:
            raise RuntimeError(f"armrc {' '.join(call['cli'])} exited {status}")
        return start, seconds, None
    import checks
    import search

    start = time.perf_counter()
    results = search.recorded_search(cfg, call["search"])
    seconds = time.perf_counter() - start
    return start, seconds, {name: checks.sketch(*r) for name, r in results.items()}


def main() -> int:
    sampler = Sampler()
    sampler.start()
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    launched = float(sys.argv[2])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    result = {"walls": [], "outputs": None, "error": None, "spans": None}
    recorder = None
    timed = []
    try:
        import armrc
        import armrc.cli

        if not Path(armrc.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"imported armrc from {armrc.__file__}, not {src}")
        if job["trace"]:
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
        cfg = armrc.config.default_config()
        setup_end = time.perf_counter()
        result["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - launched
        timed.append(("setup", result["setup_s"], 0.0, setup_end))
        for call in job["calls"]:
            start, seconds, outputs = run_call(armrc, cfg, call)
            timed.append(("call", seconds, start, start + seconds))
            if outputs is not None:
                result["outputs"] = outputs
    except Exception:
        result["error"] = traceback.format_exc()
    sampler.stop()
    for kind, seconds, t0, t1 in timed:
        scaled = sampler.scaled(seconds, t0, t1)
        if kind == "setup":
            result["setup_scaled_s"] = scaled
        else:
            result["walls"].append(seconds)
            result.setdefault("walls_scaled", []).append(scaled)
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["spans"] = recorder.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if result["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
