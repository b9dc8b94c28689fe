"""Output checks: compact sketches of result matrices and run CSVs, and
their comparison against the reference stored for the default seed.

Values are compared within ``RTOL`` rather than byte for byte, so a
numerically equivalent kernel or solver (results moved by ~1e-14) still
passes while a wrong result does not.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The reference is stored for the config's default seed.
REFERENCE_SEED = 7
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Relative tolerance (with the same absolute floor) for every sketch number.
# Swapping the readout solver for a QR-based one, or perturbing every
# simulated sample by ~1 ulp, moves these sketches by at most 7e-11.
RTOL = 1e-8


def _matrix_layout(rows, cols) -> str:
    text = json.dumps([list(rows), list(cols)])
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return f"{len(rows)}x{len(cols)} {digest}"


def _weights(n: int) -> np.ndarray:
    return np.random.default_rng(0).uniform(-1.0, 1.0, n)


def sketch(rows, cols, matrix) -> dict:
    """Summary of one labelled result matrix: shape, NaN count, moments,
    extremes, and a fixed random projection that catches permuted cells."""
    m = np.asarray(matrix, dtype=float).reshape(len(rows), len(cols))
    flat = m.ravel()
    nan = np.isnan(flat)
    vals = flat[~nan]
    weights = _weights(flat.size)
    return {
        "layout": _matrix_layout(rows, cols),
        "nan": int(nan.sum()),
        "sum": float(vals.sum()),
        "abs": float(np.abs(vals).sum()),
        "sq": float((vals * vals).sum()),
        "min": float(vals.min()) if vals.size else None,
        "max": float(vals.max()) if vals.size else None,
        "proj": float((vals * weights[~nan]).sum()),
    }


def read_result_csv(path):
    """Parse a result-matrix CSV: provenance comment, header, labelled rows;
    empty cells are NaN."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError(f"{path}: not a result-matrix CSV")
    cols = lines[1].split(",")[1:]
    rows, values = [], []
    for line in lines[2:]:
        cells = line.split(",")
        rows.append(cells[0])
        values.append([math.nan if c == "" else float(c) for c in cells[1:]])
    return rows, cols, np.array(values, dtype=float).reshape(len(rows), len(cols))


def sweep_outputs(out_dir) -> dict:
    """Sketch every result CSV of one sweep output directory."""
    return {
        p.name: sketch(*read_result_csv(p))
        for p in sorted(Path(out_dir).glob("*.csv"))
    }


def run_checksums(out_dir) -> dict:
    """Per-run column checksums of an `armrc simulate` tree: sums, sums of
    squares, and a fixed random projection of each column."""
    sums = {}
    for path in sorted(Path(out_dir, "runs").glob("*.csv")):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        sums[path.stem] = {
            "layout": f"{data.shape[0]}x{header}",
            "sum": data.sum(axis=0).tolist(),
            "sq": (data * data).sum(axis=0).tolist(),
            "proj": (_weights(data.shape[0]) @ data).tolist(),
        }
    return sums


def compare(reference, got, where="") -> list:
    """Every difference between two nested sketch structures, as text.

    Numbers compare within RTOL; strings, ints and structure exactly.
    """
    if isinstance(reference, dict) and isinstance(got, dict):
        problems = []
        for key in sorted(set(reference) | set(got)):
            if key not in got:
                problems.append(f"{where}/{key}: missing from output")
            elif key not in reference:
                problems.append(f"{where}/{key}: not in the reference")
            else:
                problems += compare(reference[key], got[key], f"{where}/{key}")
        return problems
    if isinstance(reference, list) and isinstance(got, list):
        if len(reference) != len(got):
            return [f"{where}: length {len(got)} != reference {len(reference)}"]
        problems = []
        for k, (a, b) in enumerate(zip(reference, got)):
            problems += compare(a, b, f"{where}[{k}]")
        return problems
    if isinstance(reference, float) and isinstance(got, float):
        ok = math.isclose(reference, got, rel_tol=RTOL, abs_tol=RTOL)
    else:
        ok = reference == got
    return [] if ok else [f"{where}: {got!r} != reference {reference!r}"]


def layout(tree):
    """The tree without its numbers: output names, labels and shapes, which
    do not depend on the seed."""
    if isinstance(tree, dict):
        return {k: layout(v) for k, v in tree.items() if isinstance(v, (dict, str))}
    return tree


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("seed") != REFERENCE_SEED:
        raise ValueError(f"reference for {workload} is not for seed {REFERENCE_SEED}")
    return doc["outputs"]
