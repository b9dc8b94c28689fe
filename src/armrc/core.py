"""Shared domain types: uniform sample clocks, half-open time windows, the
pressure-profile x payload condition grid, and recorded pressure-state runs.

All types are immutable value objects and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_SAMPLE_RATE = 40.0
DEFAULT_RUN_SECONDS = 100.0
DEFAULT_PAYLOADS_G = (0.0, 100.0, 140.0, 160.0, 200.0, 240.0, 300.0)
# The run seed when none is given; it keys every sensor-noise stream.
DEFAULT_SEED = 7

# Fuzz for seconds -> sample-index conversion; window edges are human-entered
# decimals while the clock itself is exact.
_INDEX_EPS = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sample clock: ``n_samples`` points spaced ``1/sample_rate`` from ``t0``."""

    sample_rate: float = DEFAULT_SAMPLE_RATE
    n_samples: int = int(DEFAULT_RUN_SECONDS * DEFAULT_SAMPLE_RATE)
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and > 0, got {self.sample_rate}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be a finite number, got {self.t0}")
        n = self.n_samples
        if isinstance(n, float) and not n.is_integer() or n < 0:
            raise ValueError(f"n_samples must be an integer >= 0, got {n}")
        object.__setattr__(self, "n_samples", int(n))

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    @property
    def t_end(self) -> float:
        return self.t0 + self.duration

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_samples) / self.sample_rate


@dataclass(frozen=True)
class Window:
    """Half-open time interval [start, end) in seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window end {self.end} precedes start {self.start}")
        if not math.isfinite(self.end - self.start):
            raise ValueError(
                f"window [{self.start}, {self.end}) must span a finite time")

    @property
    def duration(self) -> float:
        return self.end - self.start


# Default windowing convention: discard the first 50 s as washout, train on
# the next 25 s, test on the last 25 s (1000 samples each at 40 Hz).
WASHOUT_WINDOW = Window(0.0, 50.0)
TRAIN_WINDOW = Window(50.0, 75.0)
TEST_WINDOW = Window(75.0, 100.0)


@dataclass(frozen=True)
class InputCondition:
    """One experiment run, identified by (pressure profile, payload) indices.

    Both indices are 1-based; the payload index points into a PayloadSet.
    """

    profile_index: int
    payload_index: int

    def __post_init__(self) -> None:
        if self.profile_index < 1:
            raise ValueError(f"profile_index must be >= 1, got {self.profile_index}")
        if self.payload_index < 1:
            raise ValueError(f"payload_index must be >= 1, got {self.payload_index}")

    @property
    def label(self) -> str:
        return f"P{self.profile_index}M{self.payload_index}"


@dataclass(frozen=True)
class PayloadSet:
    """Ordered set of end-payload masses in grams, strictly increasing."""

    masses: tuple = DEFAULT_PAYLOADS_G

    def __post_init__(self) -> None:
        if len(self.masses) == 0:
            raise ValueError("payload set must be non-empty")
        if not all(0 <= m < math.inf for m in self.masses):
            raise ValueError(
                f"payload masses must be finite and >= 0 grams: {self.masses}")
        if any(b <= a for a, b in zip(self.masses, self.masses[1:])):
            raise ValueError(f"payload masses must be strictly increasing: {self.masses}")
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))

    def __len__(self) -> int:
        return len(self.masses)

    def mass_of(self, payload_index: int) -> float:
        """Mass in grams for a 1-based payload index."""
        if not 1 <= payload_index <= len(self.masses):
            raise ValueError(
                f"payload_index {payload_index} outside 1..{len(self.masses)}"
            )
        return self.masses[payload_index - 1]


def as_int(value) -> int:
    """``int(value)``, but a non-integral number is refused, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def parse_condition_label(token: str) -> InputCondition:
    """Parse 'P3', 'M4', or 'P3M4' style labels (1-based, defaults to 1)."""
    import re

    match = re.fullmatch(r"(?:P(\d+))?(?:M(\d+))?", token.strip(), re.IGNORECASE)
    if match is None or token.strip() == "":
        raise ValueError(
            f"cannot parse condition {token!r}; expected forms P3, M4, or P3M4"
        )
    profile = int(match.group(1)) if match.group(1) else 1
    payload = int(match.group(2)) if match.group(2) else 1
    return InputCondition(profile, payload)


def condition_grid(n_profiles: int, payloads: PayloadSet) -> list:
    """Full condition grid, profile-outer / payload-inner order.

    The fixed enumeration order makes downstream sweep matrices reproducible
    byte-for-byte.
    """
    if n_profiles < 1:
        raise ValueError(f"need at least one profile, got {n_profiles}")
    return [
        InputCondition(i, j)
        for i in range(1, n_profiles + 1)
        for j in range(1, len(payloads) + 1)
    ]


def trace_columns(n_sensors: int) -> list:
    """The run CSV's column names of a series' traces, in file order."""
    return ["s_in"] + [f"s{k}" for k in range(1, n_sensors + 1)] + ["theta"]


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PressureStateSeries:
    """One run: actuation trace, sensor pressure matrix, and bending angle.

    ``sensors`` is (n_sensors, n_samples) with row k the k-th sensor ordered
    base to tip. All traces share the grid's clock. Each array is stored
    as a read-only copy of the one passed in, so slicing (`slice_series`)
    also copies. ``payload_grams`` is the end mass the run carried, when
    known: a payload index means different grams in different payload sets.
    A non-finite sample is refused, naming its `trace_columns` column.
    """

    grid: TimeGrid
    s_in: np.ndarray
    sensors: np.ndarray
    theta: np.ndarray
    condition: Optional[InputCondition] = None
    payload_grams: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_in", _as_readonly(self.s_in))
        object.__setattr__(self, "sensors", _as_readonly(self.sensors))
        object.__setattr__(self, "theta", _as_readonly(self.theta))
        n = self.grid.n_samples
        if self.s_in.ndim != 1 or self.s_in.shape[0] != n:
            raise ValueError(f"s_in must have shape ({n},), got {self.s_in.shape}")
        if self.theta.ndim != 1 or self.theta.shape[0] != n:
            raise ValueError(f"theta must have shape ({n},), got {self.theta.shape}")
        if self.sensors.ndim != 2 or self.sensors.shape[1] != n:
            raise ValueError(
                f"sensors must have shape (n_sensors, {n}), got {self.sensors.shape}"
            )
        traces = (self.s_in, self.sensors, self.theta)
        if not all(np.isfinite(a).all() for a in traces):
            column, sample = np.argwhere(~np.isfinite(np.vstack(traces)))[0]
            raise ValueError(
                f"non-finite value in column "
                f"{trace_columns(self.n_sensors)[column]!r} at sample {sample}")

    @property
    def n_sensors(self) -> int:
        return self.sensors.shape[0]


def window_indices(grid: TimeGrid, window: Window) -> tuple:
    """Sample index range [i0, i1) covered by a window.

    i0 = floor((start - t0) * rate); the count is floor(duration * rate), so
    half-open windows never double-count boundary samples.
    """
    i0 = int(np.floor((window.start - grid.t0) * grid.sample_rate + _INDEX_EPS))
    i1 = i0 + sample_count(window, grid.sample_rate)
    if i0 < 0 or i1 > grid.n_samples:
        raise ValueError(
            f"window [{window.start}, {window.end}) outside run "
            f"[{grid.t0}, {grid.t_end})"
        )
    return i0, i1


def sample_count(window: Window, sample_rate: float) -> int:
    """Number of samples a window holds: floor(duration * rate)."""
    return int(np.floor(window.duration * sample_rate + _INDEX_EPS))


def count_window(window: Window, count: int, sample_rate: float) -> Window:
    """The first ``count`` samples of a training window on a clock; a count
    the window does not hold (`sample_count`) is refused."""
    full = sample_count(window, sample_rate)
    if not 1 <= count <= full:
        raise ValueError(
            f"sample count {count} outside the {full}-sample training window")
    return Window(window.start, window.start + count / sample_rate)


def slice_series(series: PressureStateSeries, window: Window) -> PressureStateSeries:
    """Sub-series with samples whose time lies in the half-open window."""
    i0, i1 = window_indices(series.grid, window)
    sub_grid = TimeGrid(
        sample_rate=series.grid.sample_rate,
        n_samples=i1 - i0,
        t0=series.grid.t0 + i0 / series.grid.sample_rate,
    )
    return PressureStateSeries(
        grid=sub_grid,
        s_in=series.s_in[i0:i1],
        sensors=series.sensors[:, i0:i1],
        theta=series.theta[i0:i1],
        condition=series.condition,
        payload_grams=series.payload_grams,
    )
