"""Span recorder for the traced run, built on ``time.perf_counter``.

``install`` wraps each public ``armrc`` function listed in ``TARGETS`` at
every place it is looked up: modules import names directly (``sweeps``
calls its own ``simulate`` binding), so replacing the defining module's
attribute alone would miss calls. Spans carry an id and the id of the
enclosing span; they stay in memory and the child process writes them out
when it ends. ``summarize`` turns one pass's spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time

import numpy as np

# layer (armrc module) -> public functions wrapped in the traced run
TARGETS = {
    "surrogate": ("simulate", "simulate_grid"),
    "profiles": ("generate_profile",),
    "readout": ("assemble", "train", "predict", "nrmse_percent"),
    "tasks": ("estimate_mass", "bending_target"),
    "core": ("slice_series",),
    "sweeps": ("simulate_conditions", "train_on_subset", "subset_sweep",
               "sample_count_sweep", "sensor_ablation_sweep", "multitask_grid"),
    "runio": ("export_run", "ingest_run", "write_matrix_csv", "write_manifest"),
    "config": ("default_config", "load_config"),
    "cli": ("main",),
}
STATS = ("calls", "s", "self_s", "errors")


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _simulate_attrs(call, result):
    a = call.arguments
    x0 = a.get("x0")
    key = hashlib.sha1(repr((a["params"], a["grid"], float(a["payload"]))).encode())
    key.update(result.s_in.tobytes())
    if x0 is not None:
        key.update(np.asarray(x0, dtype=float).tobytes())
    return {"steps": a["grid"].n_samples, "key": key.hexdigest()}


def _export_attrs(call, result):
    from armrc.runio import sidecar_path

    return {"bytes": _file_bytes(result, sidecar_path(result))}


def _ingest_attrs(call, result):
    from armrc.runio import sidecar_path

    a = call.arguments
    sidecar = a.get("sidecar") or sidecar_path(a["csv_path"])
    return {"bytes": _file_bytes(a["csv_path"], sidecar)}


# extra per-span attributes, computed after the span's clock has stopped
ATTRS = {
    "surrogate.simulate": _simulate_attrs,
    "readout.assemble": lambda call, result: {"rows": result.states.shape[0]},
    "readout.train": lambda call, result: {
        "rows": call.arguments["assembly"].states.shape[0],
        "ridge": float(call.arguments.get("ridge", 0.0)),
    },
    "runio.export_run": _export_attrs,
    "runio.ingest_run": _ingest_attrs,
}


class Recorder:
    """In-memory spans: [id, parent id, name, start, end, error, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1,
                    name, 0.0, 0.0, False, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                span[6] = attrs(call, result)
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Replace every binding of each target function in loaded armrc
    modules with a recording wrapper."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "armrc" or n.startswith("armrc.")]
    for layer, names in TARGETS.items():
        home = sys.modules[f"armrc.{layer}"]
        for name in names:
            original = getattr(home, name)
            wrapped = recorder.wrap(f"{layer}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def metric_names() -> list:
    """Every per-layer metric ``summarize`` reports, in a stable order."""
    names = [f"{layer}.{fn}.{stat}"
             for layer, fns in TARGETS.items() for fn in fns for stat in STATS]
    return names + [
        "surrogate.simulate.steps", "surrogate.simulate.us_per_step",
        "surrogate.simulate.unique_ratio",
        "readout.assemble.rows", "readout.train.rows",
        "readout.train.us_per_row", "readout.train_min_norm.s",
        "readout.train_ridge.s",
        "runio.export_run.bytes", "runio.export_run.mb_per_s",
        "runio.ingest_run.bytes", "runio.ingest_run.mb_per_s",
    ]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def summarize(processes) -> dict:
    """Per-layer metrics of one pass from the span lists of its processes.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, since each process has one thread.
    """
    m = {name: 0.0 for name in metric_names()}
    unique = 0
    for spans in processes:
        child_time = [0.0] * len(spans)
        for sid, parent, _, start, end, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        keys = set()  # distinct noise-free inputs, counted per process
        for sid, parent, name, start, end, error, attrs in spans:
            dur = end - start
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += dur
            m[f"{name}.self_s"] += dur - child_time[sid]
            m[f"{name}.errors"] += error
            if attrs is None:
                continue
            if name == "surrogate.simulate":
                m["surrogate.simulate.steps"] += attrs["steps"]
                keys.add(attrs["key"])
            elif name == "readout.train":
                m["readout.train.rows"] += attrs["rows"]
                kind = "min_norm" if attrs["ridge"] == 0.0 else "ridge"
                m[f"readout.train_{kind}.s"] += dur
            else:
                for key, value in attrs.items():
                    m[f"{name}.{key}"] += value
        unique += len(keys)
    sim, train = "surrogate.simulate", "readout.train"
    m[f"{sim}.us_per_step"] = _ratio(m[f"{sim}.s"], m[f"{sim}.steps"], 1e6)
    m[f"{sim}.unique_ratio"] = _ratio(unique, m[f"{sim}.calls"])
    m[f"{train}.us_per_row"] = _ratio(m[f"{train}.s"], m[f"{train}.rows"], 1e6)
    for io in ("runio.export_run", "runio.ingest_run"):
        m[f"{io}.mb_per_s"] = _ratio(m[f"{io}.bytes"], m[f"{io}.s"], 1e-6)
    return m
