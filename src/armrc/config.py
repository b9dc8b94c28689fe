"""Experiment configuration: a single YAML file describing the grid,
profiles, payload sets, surrogate parameters, windows, and sweep knobs,
with `training_window`, each task's per-condition training window.

Loading validates everything up front and reports every problem found, not
just the first; unknown keys are rejected to catch typos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .core import (DEFAULT_SEED, TEST_WINDOW, TRAIN_WINDOW, WASHOUT_WINDOW,
                   PayloadSet, TimeGrid, Window, as_int, count_window,
                   window_indices)
from .profiles import RampProfileSpec, default_profile_family
from .readout import NORMALIZERS
from .surrogate import SurrogateParams
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
    washout: Window = WASHOUT_WINDOW
    train: Window = TRAIN_WINDOW
    test: Window = TEST_WINDOW
    ridge: float = 0.0
    normalizer: str = "range"
    detection_seconds: float = 5.0
    mass_segment_seconds: float = 5.0
    sample_counts: tuple = DEFAULT_SAMPLE_COUNTS
    sample_repeats: int = 10
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        problems = validate_config(self)
        if problems:
            raise ConfigError(problems)


def training_window(cfg: ExperimentConfig, task: TaskKind) -> Window:
    """A task's per-condition training window: the whole train window for
    bending, its first ``detection_seconds`` / ``mass_segment_seconds`` for
    detection / mass."""
    if task is TaskKind.BENDING_ANGLE:
        return cfg.train
    seconds = (cfg.detection_seconds if task is TaskKind.PAYLOAD_DETECT
               else cfg.mass_segment_seconds)
    return Window(cfg.train.start, cfg.train.start + seconds)


# the fields the YAML `windows` section sets, in time order
_WINDOWS = tuple(f.name for f in fields(ExperimentConfig)
                if isinstance(f.default, Window))


def _samples(grid: TimeGrid, window) -> Optional[int]:
    """The samples ``window()`` covers on ``grid``; None if it fails or
    leaves the run."""
    try:
        i0, i1 = window_indices(grid, window())
    except (ValueError, ArithmeticError):
        return None
    return i1 - i0


def validate_config(cfg: ExperimentConfig) -> list:
    """Cross-field checks; per-type invariants are enforced by the types."""
    problems = []
    if not 0 <= cfg.ridge < math.inf:
        problems.append(f"ridge must be a finite number >= 0, got {cfg.ridge}")
    if cfg.normalizer not in NORMALIZERS:
        problems.append(f"normalizer must be {' or '.join(map(repr, NORMALIZERS))}"
                        f", got {cfg.normalizer!r}")
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
    for name in _WINDOWS:
        win = getattr(cfg, name)
        n = _samples(cfg.grid, lambda: win)
        if n is None or name != "washout" and n < 1:
            problems.append(f"{name} window [{win.start}, {win.end}) " + (
                "lies outside the run" if n is None else "holds no samples"))
    train_samples = _samples(cfg.grid, lambda: cfg.train)
    for task, key in ((TaskKind.PAYLOAD_DETECT, "detection_seconds"),
                      (TaskKind.PAYLOAD_MASS, "mass_segment_seconds")):
        seconds = getattr(cfg, key)
        n = _samples(cfg.grid, lambda: training_window(cfg, task))
        if not 0 < seconds < math.inf:
            problems.append(f"{key} must be a finite number > 0, got {seconds}")
        elif train_samples is not None and not 1 <= (n or 0) <= train_samples:
            problems.append(
                f"{key} {seconds} gives no {task.value} training window of "
                f"1..{train_samples} samples inside the train window")
    if len(cfg.sample_counts) == 0:
        problems.append("sample_counts must be non-empty")
    for count in cfg.sample_counts if train_samples is not None else ():
        try:
            count_window(cfg.train, int(count), cfg.grid.sample_rate)
        except ValueError as exc:
            problems.append(str(exc))
    return problems


def _mapping(raw, allowed, where: str, problems: list) -> Optional[dict]:
    """``raw``'s entries with ``allowed`` keys, {} for YAML null; None, with
    a problem, for a value that is no mapping. Each unknown key is a problem."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        problems.append(f"{where}: expected a mapping, got {raw!r}")
        return None
    problems.extend(f"{where}: unknown key {key!r}"
                    for key in raw if key not in allowed)
    return {key: value for key, value in raw.items() if key in allowed}


def _parse(parse, value, where: str, problems: list):
    """``parse(value)``, or None with what it raised recorded as a problem."""
    try:
        return parse(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _tuples(value):
    """``value`` with each YAML list in it, at any depth, made a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _build(cls, raw, where: str, problems: list):
    """A ``cls`` from a YAML mapping of its fields; None, with the problems
    recorded, if the mapping or the constructor refuses it."""
    kwargs = _mapping(raw, {f.name for f in fields(cls)}, where, problems)
    return None if kwargs is None else _parse(
        lambda kw: cls(**{k: _tuples(v) for k, v in kw.items()}),
        kwargs, where, problems)


def _window(raw) -> Window:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValueError(f"expected [start, end] seconds, got {raw!r}")
    return Window(float(raw[0]), float(raw[1]))


# top-level key -> parser of its YAML value, for the keys that set one
# ExperimentConfig field and are not a section of their own
_VALUES = {
    **dict.fromkeys(("payloads", "multitask_payloads"),
                    lambda raw: PayloadSet(tuple(raw))),
    **dict.fromkeys(("ridge", "detection_seconds", "mass_segment_seconds"),
                    float),
    **dict.fromkeys(("sample_repeats", "seed"), as_int),
    "normalizer": str,
    "sample_counts": lambda raw: tuple(map(as_int, raw)),
}
_SECTIONS = {"grid": TimeGrid, "surrogate": SurrogateParams}


def build_config(raw) -> ExperimentConfig:
    """Construct a validated config from parsed YAML, collecting every
    problem before raising."""
    problems = []
    top = _mapping(raw, {*_VALUES, *_SECTIONS, "profiles", "windows"},
                   "config", problems) or {}
    values = {key: _build(cls, top[key], key, problems)
              for key, cls in _SECTIONS.items() if key in top}
    values.update((key, _parse(parse, top[key], key, problems))
                  for key, parse in _VALUES.items() if key in top)
    values.update(
        (name, _parse(_window, raw_window, f"windows.{name}", problems))
        for name, raw_window in (_mapping(top.get("windows"), _WINDOWS,
                                          "windows", problems) or {}).items())
    if not isinstance(top.get("profiles", []), list):
        problems.append(f"profiles: expected a list, got {top['profiles']!r}")
    elif "profiles" in top:
        values["profiles"] = tuple(
            _build(RampProfileSpec, entry, f"profiles[{k}]", problems)
            for k, entry in enumerate(top["profiles"], start=1))
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a YAML experiment config."""
    import yaml  # here, not at the top: no other command reads YAML

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError([f"YAML parse error: {exc}"]) from exc
    return build_config(raw)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
