from pathlib import Path

import numpy as np
import pytest

from armrc.config import default_config
from armrc.core import InputCondition, condition_grid
from armrc.surrogate import simulate_conditions


def read_matrix_csv(path):
    """Read a `runio.write_matrix_csv` file back: (matrix, row_labels,
    col_labels, provenance_line), an empty cell as NaN."""
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


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Record one pass/fail line per acceptance criterion, then assert."""

    def record(criterion, ok, detail=""):
        line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
        request.config._acceptance_lines.append((criterion, line))
        assert ok, f"acceptance criterion {criterion} failed: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def bending_runs(cfg):
    """All seven profiles at zero payload (payload index 1)."""
    conds = [InputCondition(i, 1) for i in range(1, len(cfg.profiles) + 1)]
    return simulate_conditions(
        cfg.surrogate, cfg.profiles, cfg.payloads, cfg.grid, conds
    )


@pytest.fixture(scope="session")
def payload_runs(cfg):
    """Profile P1 across all seven payloads."""
    conds = [InputCondition(1, j) for j in range(1, len(cfg.payloads) + 1)]
    return simulate_conditions(
        cfg.surrogate, cfg.profiles, cfg.payloads, cfg.grid, conds
    )


@pytest.fixture(scope="session")
def multitask_runs(cfg):
    """The 7x5 multi-task grid."""
    conds = condition_grid(len(cfg.profiles), cfg.multitask_payloads)
    return simulate_conditions(
        cfg.surrogate, cfg.profiles, cfg.multitask_payloads, cfg.grid, conds
    )
