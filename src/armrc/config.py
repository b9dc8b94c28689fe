"""Experiment configuration: a single YAML file describing the grid,
profiles, payload sets, surrogate parameters, windows, and sweep knobs.

Loading validates everything up front and reports every problem found, not
just the first; unknown keys are rejected to catch typos.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import yaml

from .core import PayloadSet, TimeGrid, Window, sample_count, window_indices
from .profiles import RampProfileSpec, default_profile_family
from .surrogate import SurrogateParams
from .sweeps import training_window
from .tasks import TaskKind

MULTITASK_PAYLOADS_G = (0.0, 100.0, 200.0, 300.0, 400.0)
DEFAULT_SAMPLE_COUNTS = tuple(range(100, 1001, 100))


class ConfigError(ValueError):
    """Carries every validation problem found in a config file."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"- {p}" for p in self.problems)
        )


@dataclass(frozen=True)
class ExperimentConfig:
    grid: TimeGrid = TimeGrid()
    profiles: tuple = field(default_factory=default_profile_family)
    payloads: PayloadSet = PayloadSet()
    multitask_payloads: PayloadSet = PayloadSet(MULTITASK_PAYLOADS_G)
    surrogate: SurrogateParams = SurrogateParams()
    washout: Window = Window(0.0, 50.0)
    train: Window = Window(50.0, 75.0)
    test: Window = Window(75.0, 100.0)
    ridge: float = 0.0
    normalizer: str = "range"
    detection_seconds: float = 5.0
    mass_segment_seconds: float = 5.0
    sample_counts: tuple = DEFAULT_SAMPLE_COUNTS
    sample_repeats: int = 10
    seed: int = 7

    def __post_init__(self) -> None:
        problems = validate_config(self)
        if problems:
            raise ConfigError(problems)


def validate_config(cfg: ExperimentConfig) -> list:
    """Cross-field checks; per-type invariants are enforced by the types."""
    problems = []
    if cfg.ridge < 0:
        problems.append(f"ridge must be >= 0, got {cfg.ridge}")
    if cfg.normalizer not in ("range", "maxabs"):
        problems.append(f"normalizer must be 'range' or 'maxabs', got {cfg.normalizer!r}")
    if cfg.sample_repeats < 1:
        problems.append(f"sample_repeats must be >= 1, got {cfg.sample_repeats}")
    if len(cfg.profiles) == 0:
        problems.append("need at least one pressure profile")
    if cfg.train.end > cfg.test.start and cfg.test.end > cfg.train.start:
        problems.append(
            f"train window [{cfg.train.start}, {cfg.train.end}) overlaps test "
            f"window [{cfg.test.start}, {cfg.test.end})"
        )
    if cfg.washout.end > cfg.train.start:
        problems.append(
            f"washout window must end by the training window start "
            f"({cfg.washout.end} > {cfg.train.start})"
        )
    for name in ("washout", "train", "test"):
        win = getattr(cfg, name)
        try:
            window_indices(cfg.grid, win)
        except ValueError:
            problems.append(
                f"{name} window [{win.start}, {win.end}) lies outside the run"
            )
        if name != "washout" and sample_count(win, cfg.grid.sample_rate) < 1:
            problems.append(
                f"{name} window [{win.start}, {win.end}) holds no samples")
    train_samples = sample_count(cfg.train, cfg.grid.sample_rate)
    for task, key in ((TaskKind.PAYLOAD_DETECT, "detection_seconds"),
                      (TaskKind.PAYLOAD_MASS, "mass_segment_seconds")):
        seconds = getattr(cfg, key)
        if seconds <= 0:
            problems.append(f"{key} must be > 0, got {seconds}")
            continue
        n = sample_count(training_window(cfg, task), cfg.grid.sample_rate)
        if not 1 <= n <= train_samples:
            problems.append(
                f"{key} {seconds} gives a {n}-sample {task.value} training "
                f"window; it must hold 1..{train_samples} samples, inside "
                f"the train window"
            )
    for c in cfg.sample_counts:
        if not 1 <= int(c) <= train_samples:
            problems.append(
                f"sample count {c} outside the {train_samples}-sample training window"
            )
    if cfg.surrogate.n_nodes < 1:
        problems.append("surrogate must have at least one node")
    return problems


def _check_keys(section: dict, allowed, where: str, problems: list) -> None:
    for key in section:
        if key not in allowed:
            problems.append(f"{where}: unknown key {key!r}")


def _build_window(raw, where: str, problems: list) -> Optional[Window]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        problems.append(f"{where}: expected [start, end] seconds, got {raw!r}")
        return None
    try:
        return Window(float(raw[0]), float(raw[1]))
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def build_config(raw: dict) -> ExperimentConfig:
    """Construct a validated config from parsed YAML, collecting every
    problem before raising."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError([f"config root must be a mapping, got {type(raw).__name__}"])
    problems = []
    top_keys = {
        "grid", "profiles", "payloads", "multitask_payloads", "surrogate",
        "windows", "ridge", "normalizer", "detection_seconds",
        "mass_segment_seconds", "sample_counts", "sample_repeats", "seed",
    }
    _check_keys(raw, top_keys, "config", problems)
    values = {}

    if "grid" in raw:
        section = raw["grid"] or {}
        _check_keys(section, {"sample_rate", "n_samples", "t0"}, "grid", problems)
        try:
            values["grid"] = TimeGrid(**section)
        except (TypeError, ValueError) as exc:
            problems.append(f"grid: {exc}")

    if "profiles" in raw:
        entries = raw["profiles"] or []
        if len(entries) == 0:
            problems.append("profiles: need at least one pressure profile")
        specs = []
        allowed = {f.name for f in fields(RampProfileSpec)}
        for k, entry in enumerate(entries, start=1):
            _check_keys(entry or {}, allowed, f"profiles[{k}]", problems)
            try:
                specs.append(RampProfileSpec(**entry))
            except (TypeError, ValueError) as exc:
                problems.append(f"profiles[{k}]: {exc}")
        if specs and len(specs) == len(entries):
            values["profiles"] = tuple(specs)

    for key in ("payloads", "multitask_payloads"):
        if key in raw:
            try:
                values[key] = PayloadSet(tuple(raw[key]))
            except (TypeError, ValueError) as exc:
                problems.append(f"{key}: {exc}")

    if "surrogate" in raw:
        section = dict(raw["surrogate"] or {})
        allowed = {f.name for f in fields(SurrogateParams)}
        _check_keys(section, allowed, "surrogate", problems)
        section = {k: v for k, v in section.items() if k in allowed}
        for name in ("leak", "coupling", "input_gain", "payload_gain",
                     "angle_weights", "leak_pressure_coeff"):
            if name in section and isinstance(section[name], list):
                section[name] = tuple(
                    tuple(row) if isinstance(row, list) else row
                    for row in section[name]
                ) if name == "coupling" else tuple(section[name])
        if "seed" not in section and "seed" in raw:
            section["seed"] = raw["seed"]
        try:
            values["surrogate"] = SurrogateParams(**section)
        except (TypeError, ValueError) as exc:
            problems.append(f"surrogate: {exc}")

    if "windows" in raw:
        section = raw["windows"] or {}
        _check_keys(section, {"washout", "train", "test"}, "windows", problems)
        for name in ("washout", "train", "test"):
            if name in section:
                win = _build_window(section[name], f"windows.{name}", problems)
                if win is not None:
                    values[name] = win

    for key in ("ridge", "detection_seconds", "mass_segment_seconds"):
        if key in raw:
            try:
                values[key] = float(raw[key])
            except (TypeError, ValueError):
                problems.append(f"{key}: expected a number, got {raw[key]!r}")
    for key in ("sample_repeats", "seed"):
        if key in raw:
            try:
                values[key] = int(raw[key])
            except (TypeError, ValueError):
                problems.append(f"{key}: expected an integer, got {raw[key]!r}")
    if "normalizer" in raw:
        values["normalizer"] = str(raw["normalizer"])
    if "sample_counts" in raw:
        try:
            values["sample_counts"] = tuple(int(c) for c in raw["sample_counts"])
        except (TypeError, ValueError):
            problems.append(f"sample_counts: expected integers, got {raw['sample_counts']!r}")

    # the run seed governs the surrogate's noise streams unless the
    # surrogate section pins its own
    if "surrogate" not in values and "seed" in values:
        try:
            values["surrogate"] = SurrogateParams(seed=values["seed"])
        except ValueError as exc:
            problems.append(f"surrogate: {exc}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a YAML experiment config."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError([f"YAML parse error: {exc}"]) from exc
    return build_config(raw)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
