import pytest

from armrc.config import default_config
from armrc.core import InputCondition, condition_grid
from armrc.surrogate import simulate_conditions


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
