"""File formats: recorded-run CSVs with JSON sidecars, readout-weight JSON,
result-matrix CSVs, and run manifests. A caller that writes many runs
hands them to `core.fork_map`, whose children write their own shares.

Run CSVs hold each float as its shortest round-trip decimal (``orjson``'s
Ryu writer), so export followed by ingest reproduces every float
bit-for-bit. Export dumps each block of rows as one flat list and cuts it
into rows with one byte scan (`export_run`). Ingest parses rows of plain
JSON numbers with ``orjson``, one flat list per 64 KiB block, made float64
by one ``struct`` pack read through ``np.frombuffer``; any other text, or a
value the pack refuses, goes to ``np.loadtxt``: the same floats and the
same errors either way (`_read_rows`). Each artifact
embeds the config hash and seed for provenance; wall-clock timestamps
appear only in manifests so output trees stay byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import platform
import struct
import time
import warnings
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (InputCondition, PressureStateSeries, TimeGrid, __version__,
                   as_float, as_int, numeric, sensor_name, trace_columns)
from .readout import ReadoutWeights, normalize_mask

RUN_FORMAT = "armrc-run-v2"
# still read, with unknown grams (`payload_grams` None): a reader takes them
# from a payload set
RUN_FORMAT_V1 = "armrc-run-v1"
WEIGHTS_FORMAT = "armrc-weights-v1"
# tolerance (seconds) for an ingested time column's spacing and for its
# first time stamp against the sidecar's t0
CLOCK_TOLERANCE = 1e-6
# run rows per orjson call, each block dumped as one flat list and cut into
# rows by one byte scan: a run's whole text is never held, only its floats
_ROWS_PER_WRITE = 256
_COMMA, _NEWLINE = b",\n"
# every byte of a plain JSON number; a body's other bytes are its row shape
_VALUE_BYTES = b"0123456789.eE+-"


def config_digest(config) -> str:
    """Stable short hash of a config (or any nested dataclass)."""
    import hashlib  # here, so that importing armrc does not map OpenSSL

    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def _write_json(path, doc: Mapping) -> Path:
    """Write ``doc`` as sorted, 2-space-indented JSON plus a newline, parent
    directories made: every sidecar, weights file and manifest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def export_run(series: PressureStateSeries, csv_path, *,
               config_hash: str = "", seed: Optional[int] = None) -> Path:
    """Write one run's metadata sidecar, then its CSV; returns the CSV path."""
    import orjson  # here, so that importing armrc does not pay for it

    csv_path = Path(csv_path)
    _write_json(sidecar_path(csv_path), {
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
    })
    columns = np.ascontiguousarray(np.column_stack(  # orjson needs C order
        [series.grid.times(), series.s_in, series.sensors.T, series.theta]))
    width = columns.shape[1]
    with open(csv_path, "wb") as fh:
        fh.write(",".join(["t", *trace_columns(series.n_sensors)]).encode()
                 + b"\n")
        for k in range(0, len(columns), _ROWS_PER_WRITE):
            # [a,b,c,d] -> a,b\nc,d\n at width 2, the bytes of a 2-D dump
            # split at its rows: every width-th comma and the closing
            # bracket become newlines in place, and the opening one is not
            # written. No NaN, which orjson writes as null, reaches here: a
            # series holds finite floats
            text = bytearray(orjson.dumps(
                columns[k:k + _ROWS_PER_WRITE].ravel(),
                option=orjson.OPT_SERIALIZE_NUMPY))
            chars = np.frombuffer(text, np.uint8)
            chars[np.flatnonzero(chars == _COMMA)[width - 1::width]] = _NEWLINE
            chars[-1] = _NEWLINE
            fh.write(memoryview(text)[1:])
    return csv_path


def _read_object(path: Path, label: str) -> dict:
    """The JSON object in ``path``; else a ValueError naming ``label``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{label}: not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(
            f"{label}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _field(doc: dict, key: str, label: str, parse):
    """``parse(doc[key])``; a missing field, or one ``parse`` refuses, is a
    ValueError naming ``label`` and the field, with ``parse``'s message."""
    if key not in doc:
        raise ValueError(f"{label}: missing field {key!r}")
    try:
        return parse(doc[key])
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"{label}: field {key!r}: {exc}") from None


def _grams(value) -> Optional[float]:
    if value is None or type(value) in (int, float) and 0 <= value < math.inf:
        return None if value is None else float(value)
    raise ValueError(f"must be null or a finite mass >= 0, got {value!r}")


def _n_sensors(value) -> int:
    if (n := as_int(value)) < 1:
        raise ValueError(f"must be an integer >= 1, got {value!r}")
    return n


def _condition(value) -> Optional[InputCondition]:
    keys = ("profile_index", "payload_index")
    if value is None:
        return None
    if not isinstance(value, dict) or not value.keys() >= set(keys):
        raise ValueError(f"expected null or an object with {keys}, got {value!r}")
    return InputCondition(*(as_int(value[key]) for key in keys))


def _read_rows(fh) -> np.ndarray:
    """``np.loadtxt(delimiter=",", ndmin=2)`` of the UTF-8 text left in the
    binary file ``fh``: the same floats bit for bit, or its ValueError, and
    no rows without its warning (the caller refuses them in one line).

    Per 64 KiB chunk, cut after its last newline, deleting the value bytes
    ``0-9 . e E + -`` must leave the first line's commas and newline once
    per row (no other byte, no ragged row); then one flat ``orjson`` list,
    correctly rounded and faster than loadtxt's ``strtod``, becomes float64
    through one ``struct.pack(f"{n}d", ...)``, read by ``np.frombuffer``
    and given the (rows, w) shape. The pack rounds an int that orjson
    returns (an integer inside 64 bits) as ``float()`` and ``strtod`` do.
    Any other body (``nan``, ``.5``, CRLF, comments, blank lines, an empty
    cell, an integer ``-0`` that orjson reads as +0, no final newline, a
    value the pack refuses, ...) goes to `np.loadtxt`. A block is searched
    for the text ``-0`` only when one of its zero cells parsed as an int,
    which no exported zero (``0.0`` or ``-0.0``) does."""
    import orjson  # here, so that importing armrc does not pay for it

    start = fh.tell()
    blocks, rest, row_shape = [], b"", None
    try:
        # a line longer than a chunk is carried whole, and the next read is
        # at least as long, so carrying a line of L bytes copies O(L) bytes
        while chunk := fh.read(max(1 << 16, len(rest))):
            text, newline, rest = (rest + chunk).rpartition(b"\n")
            if not newline:
                continue
            shape = text.translate(None, _VALUE_BYTES) + b"\n"
            row_shape = row_shape or shape[:shape.index(b"\n") + 1]
            if shape != row_shape * (rows := shape.count(b"\n")):
                raise ValueError("not rows of plain JSON numbers")
            flat = b"[" + text.replace(b"\n", b",") + b"]"
            values = orjson.loads(flat)
            block = np.frombuffer(struct.pack(f"{len(values)}d", *values))
            # orjson reads an integer -0 as the int 0: an exported zero,
            # 0.0 or -0.0, is a float, so exported blocks are not searched
            if any(type(values[i]) is int
                   for i in np.flatnonzero(block == 0)) and (
                    b"-0," in flat or b"-0]" in flat):
                raise ValueError("an integer -0")
            blocks.append(block.reshape(rows, len(row_shape)))
        if blocks and not rest:
            return np.concatenate(blocks)
    # a numeral outside JSON, an empty cell, a check above, a value the pack
    # refuses
    except (ValueError, OverflowError, struct.error):
        pass
    fh.seek(start)
    with io.TextIOWrapper(fh, encoding="utf-8") as text, \
            warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(text, delimiter=",", ndmin=2)


def ingest_run(csv_path) -> PressureStateSeries:
    """Parse and validate a recorded run and its `sidecar_path`; returns the
    series bit-identical to the one exported."""
    csv_path = Path(csv_path)
    sidecar = sidecar_path(csv_path)
    if not sidecar.exists():
        raise FileNotFoundError(f"missing metadata sidecar {sidecar}")
    label = sidecar.name
    meta = _read_object(sidecar, label)
    if meta.get("format") not in (RUN_FORMAT, RUN_FORMAT_V1):
        raise ValueError(
            f"{label}: unsupported run format {meta.get('format')!r}")
    grams = (_field(meta, "payload_grams", label, _grams)
             if meta["format"] == RUN_FORMAT else None)
    condition = _field({"condition": None, **meta}, "condition", label, _condition)
    n_sensors, n_samples, t0, sample_rate = (
        _field(meta, key, label, parse) for key, parse in (
            ("n_sensors", _n_sensors), ("n_samples", as_int), ("t0", as_float),
            ("sample_rate", as_float)))
    try:
        grid = TimeGrid(sample_rate=sample_rate, n_samples=n_samples, t0=t0)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None

    with open(csv_path, "rb") as fh:
        # the header ends at the first \n, \r or \r\n, as in a text-mode read;
        # a UTF-8 byte-order mark (spreadsheet exports write one) is dropped
        first = fh.readline()
        head = first.splitlines()[0] if first else b""
        fh.seek(len(head) + 1 + first.startswith(b"\r\n", len(head)))
        header = head.decode("utf-8-sig").strip().split(",")
        if n_sensors > len(header):  # no header of that many names is built
            raise ValueError(f"{csv_path.name}: {len(header)} columns, too few "
                             f"for n_sensors {n_sensors} in {label}")
        expected = ["t", *trace_columns(n_sensors)]
        if header != expected:
            missing = [c for c in expected if c not in header]
            extra = [c for c in header if c not in expected]
            detail = []
            if missing:
                detail.append(f"missing column(s) {missing}")
            if extra:
                detail.append(f"unexpected column(s) {extra}")
            raise ValueError(
                f"run schema mismatch between {csv_path.name} and {label}: "
                + ("; ".join(detail) or f"expected {expected}, got {header}"))
        try:
            data = _read_rows(fh)
        except ValueError as exc:
            raise ValueError(f"{csv_path.name}: {exc}") from None
    if data.shape[0] == 0:
        raise ValueError(f"{csv_path.name}: no samples")
    if data.shape[1] != len(expected):
        raise ValueError(
            f"{csv_path.name}: {data.shape[1]} columns, expected {len(expected)}"
        )
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(
            f"{csv_path.name}: non-finite value in column "
            f"{expected[col]!r} at data row {row}"
        )
    if n_samples != data.shape[0]:
        raise ValueError(
            f"{csv_path.name}: n_samples {n_samples} in {label} does "
            f"not match the {data.shape[0]} data rows"
        )
    t = data[:, 0]
    if abs(t[0] - t0) > CLOCK_TOLERANCE:
        raise ValueError(
            f"{csv_path.name}: t0 {t0} in {label} does not match the "
            f"first time stamp {t[0]!r} within {CLOCK_TOLERANCE} s"
        )
    if data.shape[0] > 1:
        steps = np.diff(t)
        if (steps <= 0).any():
            raise ValueError(f"{csv_path.name}: time column is not increasing")
        nominal = 1.0 / sample_rate
        if np.abs(steps - nominal).max() > CLOCK_TOLERANCE:
            raise ValueError(
                f"{csv_path.name}: non-uniform sampling (expected "
                f"{nominal:.6g} s steps, from {label}, within "
                f"{CLOCK_TOLERANCE} s)"
            )
    return PressureStateSeries(
        grid=grid,
        s_in=data[:, 1],
        sensors=data[:, 2 : 2 + n_sensors].T,
        theta=data[:, -1],
        condition=condition,
        payload_grams=grams,
    )


def save_weights(path, weights: ReadoutWeights, *,
                 provenance: Optional[Mapping] = None) -> Path:
    """Serialize readout weights with task names, mask, and provenance."""
    return _write_json(path, {
        "format": WEIGHTS_FORMAT,
        "task_names": list(weights.task_names),
        "sensor_mask": list(weights.sensor_mask),
        "sensor_names": list(map(sensor_name, weights.sensor_mask)),
        "weights": [list(row) for row in weights.weights.tolist()],
        "provenance": dict(provenance or {}),
    })


def _weights_mask(value) -> tuple:
    if not isinstance(value, list) or not value or any(
            type(m) is not int or m < 0 for m in value):
        raise TypeError("expected a non-empty list of sensor indices >= 0")
    return normalize_mask(value, 1 + max(value))


def _weights_names(value) -> tuple:
    if not isinstance(value, list) or any(type(n) is not str for n in value):
        raise TypeError("expected a list of task names")
    return tuple(value)


def _weights_matrix(value) -> np.ndarray:
    if not numeric(value):
        raise TypeError(f"expected rows of JSON numbers, got {value!r}")
    matrix = np.array(value, dtype=float)
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite weight")
    return matrix


def load_weights(path):
    """Returns (ReadoutWeights, provenance dict). A malformed file raises a
    ValueError that names the file and the field."""
    doc = _read_object(path, str(path))
    if doc.get("format") != WEIGHTS_FORMAT:
        raise ValueError(
            f"{path}: unsupported weights format {doc.get('format')!r}")
    fields = {key: _field(doc, key, str(path), parse) for key, parse in (
        ("weights", _weights_matrix), ("sensor_mask", _weights_mask),
        ("task_names", _weights_names))}
    names = list(map(sensor_name, fields["sensor_mask"]))
    if doc.get("sensor_names") != names:
        raise ValueError(f"{path}: field 'sensor_names': must be the mask's "
                         f"{names}, got {doc.get('sensor_names')!r}")
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
        cells = ["" if np.isnan(v) else "%.17g" % v for v in row]
        lines.append(",".join([label] + cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_manifest(path, *, config_hash: str, seed: int,
                   outputs: Sequence[str], elapsed_seconds: float,
                   extra: Optional[Mapping] = None) -> Path:
    """Run manifest: provenance, versions, and timing (timestamps live only
    here)."""
    doc = {
        "config_hash": config_hash,
        "seed": seed,
        "outputs": sorted(outputs),
        "versions": {
            "armrc": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "created_unix": time.time(),
        "elapsed_seconds": elapsed_seconds,
    }
    doc.update(extra or {})
    return _write_json(path, doc)
