"""File formats: recorded-run CSVs with JSON sidecars, readout-weight JSON,
result-matrix CSVs, and run manifests.

Run CSVs use 17-significant-digit decimal text, so export followed by
ingest reproduces every float bit-for-bit. Each artifact embeds the config
hash and seed for provenance; wall-clock timestamps appear only in
manifests so output trees stay byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import platform
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import InputCondition, PressureStateSeries, TimeGrid
from .readout import ReadoutWeights

RUN_FORMAT = "armrc-run-v2"
# still read, with unknown grams (`payload_grams` None): a reader takes them
# from a payload set
RUN_FORMAT_V1 = "armrc-run-v1"
WEIGHTS_FORMAT = "armrc-weights-v1"
# tolerance (seconds) for an ingested time column's spacing and for its
# first time stamp against the sidecar's t0
CLOCK_TOLERANCE = 1e-6
_FLOAT_FMT = "%.17g"


def config_digest(config) -> str:
    """Stable short hash of a config (or any nested dataclass)."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def _run_header(n_sensors: int) -> list:
    return ["t", "s_in"] + [f"s{k}" for k in range(1, n_sensors + 1)] + ["theta"]


def export_run(series: PressureStateSeries, csv_path, *,
               config_hash: str = "", seed: Optional[int] = None) -> Path:
    """Write one run as CSV plus its metadata sidecar; returns the CSV path."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    columns = np.column_stack(
        [series.grid.times(), series.s_in, series.sensors.T, series.theta]
    )
    header = ",".join(_run_header(series.n_sensors))
    np.savetxt(csv_path, columns, fmt=_FLOAT_FMT, delimiter=",",
               header=header, comments="")
    meta = {
        "format": RUN_FORMAT,
        "sample_rate": series.grid.sample_rate,
        "t0": series.grid.t0,
        "n_samples": series.grid.n_samples,
        "n_sensors": series.n_sensors,
        "condition": None if series.condition is None else {
            "profile_index": series.condition.profile_index,
            "payload_index": series.condition.payload_index,
        },
        "payload_grams": series.payload_grams,
        "units": {"pressure": "psi", "angle": "deg", "time": "s"},
        "config_hash": config_hash,
        "seed": seed,
    }
    with open(sidecar_path(csv_path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path


def ingest_run(csv_path, sidecar: Optional[Path] = None) -> PressureStateSeries:
    """Parse and validate a recorded run; returns the series bit-identical
    to the one exported."""
    csv_path = Path(csv_path)
    sidecar = sidecar_path(csv_path) if sidecar is None else Path(sidecar)
    if not sidecar.exists():
        raise FileNotFoundError(f"missing metadata sidecar {sidecar}")
    with open(sidecar, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("format") not in (RUN_FORMAT, RUN_FORMAT_V1):
        raise ValueError(f"unsupported run format {meta.get('format')!r}")
    grams = None
    if meta["format"] == RUN_FORMAT:
        if "payload_grams" not in meta:
            raise ValueError(f"{sidecar.name}: missing field 'payload_grams'")
        grams = meta["payload_grams"]
        if grams is not None and (type(grams) not in (int, float)
                                  or not math.isfinite(grams) or grams < 0):
            raise ValueError(
                f"{sidecar.name}: field 'payload_grams' must be null or a "
                f"finite mass >= 0, got {grams!r}")
    n_sensors = int(meta["n_sensors"])
    expected = _run_header(n_sensors)

    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != expected:
            missing = [c for c in expected if c not in header]
            extra = [c for c in header if c not in expected]
            detail = []
            if missing:
                detail.append(f"missing column(s) {missing}")
            if extra:
                detail.append(f"unexpected column(s) {extra}")
            raise ValueError(
                f"run schema mismatch in {csv_path.name}: "
                + ("; ".join(detail) or f"expected {expected}, got {header}")
            )
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{csv_path.name}: no samples")
    if data.shape[1] != len(expected):
        raise ValueError(
            f"{csv_path.name}: {data.shape[1]} columns, expected {len(expected)}"
        )
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"{csv_path.name}: non-finite value in column "
            f"{expected[col]!r} at data row {row}"
        )
    if int(meta["n_samples"]) != data.shape[0]:
        raise ValueError(
            f"{csv_path.name}: sidecar n_samples {meta['n_samples']} does "
            f"not match the {data.shape[0]} data rows"
        )
    t = data[:, 0]
    if abs(t[0] - float(meta["t0"])) > CLOCK_TOLERANCE:
        raise ValueError(
            f"{csv_path.name}: sidecar t0 {meta['t0']} does not match the "
            f"first time stamp {t[0]!r} within {CLOCK_TOLERANCE} s"
        )
    if data.shape[0] > 1:
        steps = np.diff(t)
        if (steps <= 0).any():
            raise ValueError(f"{csv_path.name}: time column is not increasing")
        nominal = 1.0 / float(meta["sample_rate"])
        if np.abs(steps - nominal).max() > CLOCK_TOLERANCE:
            raise ValueError(
                f"{csv_path.name}: non-uniform sampling (expected "
                f"{nominal:.6g} s steps within {CLOCK_TOLERANCE} s)"
            )
    grid = TimeGrid(
        sample_rate=float(meta["sample_rate"]),
        n_samples=data.shape[0],
        t0=float(meta["t0"]),
    )
    cond = meta.get("condition")
    condition = None if cond is None else InputCondition(
        int(cond["profile_index"]), int(cond["payload_index"])
    )
    return PressureStateSeries(
        grid=grid,
        s_in=data[:, 1],
        sensors=data[:, 2 : 2 + n_sensors].T,
        theta=data[:, -1],
        condition=condition,
        payload_grams=None if grams is None else float(grams),
    )


def save_weights(path, weights: ReadoutWeights, *,
                 provenance: Optional[Mapping] = None) -> Path:
    """Serialize readout weights with task names, mask, and provenance."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": WEIGHTS_FORMAT,
        "task_names": list(weights.task_names),
        "sensor_mask": list(weights.sensor_mask),
        "sensor_names": [f"s{m + 1}" for m in weights.sensor_mask],
        "weights": [list(row) for row in weights.weights.tolist()],
        "provenance": dict(provenance or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _weights_mask(value) -> tuple:
    if not isinstance(value, list) or not value or any(
            type(m) is not int or m < 0 for m in value):
        raise TypeError("expected a non-empty list of sensor indices >= 0")
    return tuple(value)


def _weights_names(value) -> tuple:
    if not isinstance(value, list) or any(type(n) is not str for n in value):
        raise TypeError("expected a list of task names")
    return tuple(value)


def _weights_matrix(value) -> np.ndarray:
    matrix = np.array(value, dtype=float)
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite weight")
    return matrix


def load_weights(path):
    """Returns (ReadoutWeights, provenance dict). A malformed file raises a
    ValueError that names the file and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != WEIGHTS_FORMAT:
        raise ValueError(
            f"{path}: unsupported weights format {doc.get('format')!r}")
    fields = {}
    for key, parse in (("weights", _weights_matrix),
                       ("sensor_mask", _weights_mask),
                       ("task_names", _weights_names)):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
        try:
            fields[key] = parse(doc[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: field {key!r}: {exc}") from None
    try:
        weights = ReadoutWeights(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: field 'weights': {exc}") from None
    return weights, doc.get("provenance", {})


def write_matrix_csv(path, matrix, row_labels: Sequence[str],
                     col_labels: Sequence[str], *,
                     provenance: Optional[Mapping] = None) -> Path:
    """Plot-ready CSV: one provenance comment line, a header, labeled rows.

    NaN cells (e.g. pipeline-skipped grid entries) serialize as empty
    fields.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(row_labels), len(col_labels)):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match "
            f"{len(row_labels)} row / {len(col_labels)} column labels"
        )
    items = " ".join(f"{k}={v}" for k, v in sorted((provenance or {}).items()))
    lines = [f"# {items}".rstrip(), ",".join([""] + list(col_labels))]
    for label, row in zip(row_labels, matrix):
        cells = ["" if np.isnan(v) else _FLOAT_FMT % v for v in row]
        lines.append(",".join([label] + cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_matrix_csv(path):
    """Inverse of write_matrix_csv; returns (matrix, row_labels, col_labels,
    provenance_line)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    comment = lines[0].lstrip("# ").strip()
    col_labels = lines[1].split(",")[1:]
    row_labels = []
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        row_labels.append(cells[0])
        rows.append([np.nan if c == "" else float(c) for c in cells[1:]])
    return np.array(rows), row_labels, col_labels, comment


def write_manifest(path, *, config_hash: str, seed: int,
                   outputs: Sequence[str], extra: Optional[Mapping] = None,
                   elapsed_seconds: Optional[float] = None) -> Path:
    """Run manifest: provenance, versions, and timing (timestamps live only
    here)."""
    import armrc

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "config_hash": config_hash,
        "seed": seed,
        "outputs": sorted(outputs),
        "versions": {
            "armrc": armrc.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "created_unix": time.time(),
    }
    if elapsed_seconds is not None:
        doc["elapsed_seconds"] = elapsed_seconds
    doc.update(extra or {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
