"""Ramp-cycle actuation pressure profiles.

Each profile is a train of identical triangular ramp cycles: pressure rises
from u_min to u_max at r_up, falls back at r_down, and repeats n_cycles
times, after which the trace holds at u_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, check_numbers

DEFAULT_RAMP_RATE = 5.0  # psi/s, both directions
DEFAULT_N_CYCLES = 8


@dataclass(frozen=True)
class RampProfileSpec:
    """Parameters of one ramp-cycle pressure profile (psi, psi/s)."""

    u_min: float
    u_max: float
    r_up: float = DEFAULT_RAMP_RATE
    r_down: float = DEFAULT_RAMP_RATE
    n_cycles: int = DEFAULT_N_CYCLES

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.u_min < 0:
            raise ValueError(f"u_min must be >= 0 psi, got {self.u_min}")
        if self.u_max <= self.u_min:
            raise ValueError(
                f"u_max must exceed u_min, got u_min={self.u_min} u_max={self.u_max}"
            )
        if self.r_up <= 0 or self.r_down <= 0:
            raise ValueError(
                f"ramp rates must be > 0 psi/s, got r_up={self.r_up} r_down={self.r_down}"
            )
        if self.n_cycles < 1:
            raise ValueError(f"n_cycles must be >= 1, got {self.n_cycles}")


def peak_time(spec: RampProfileSpec) -> float:
    """Seconds from cycle start to the pressure peak."""
    return (spec.u_max - spec.u_min) / spec.r_up


def cycle_period(spec: RampProfileSpec) -> float:
    """Duration of one complete ramp-up / ramp-down cycle in seconds."""
    du = spec.u_max - spec.u_min
    return du / spec.r_up + du / spec.r_down


def generate_profile(spec: RampProfileSpec, grid: TimeGrid) -> np.ndarray:
    """Commanded pressure at every grid sample.

    Within each cycle the rising segment covers [0, T_peak) and the falling
    segment [T_peak, T); at exactly T_peak the falling branch applies (and
    equals u_max). After n_cycles full cycles the trace holds at u_min, so
    any grid length is valid.
    """
    t = grid.times() - grid.t0
    t_peak = peak_time(spec)
    period = cycle_period(spec)
    tau = np.mod(t, period)
    rising = spec.u_min + spec.r_up * tau
    falling = spec.u_max - spec.r_down * (tau - t_peak)
    u = np.where(tau < t_peak, rising, falling)
    u = np.where(t < spec.n_cycles * period, u, spec.u_min)
    # branch values are exact at segment boundaries; clip only guards ulps
    return np.clip(u, spec.u_min, spec.u_max)


def default_profile_family() -> tuple:
    """The seven stock profiles P1..P7.

    All share a 31.25 psi swing so that, at 5 psi/s both ways, one cycle
    lasts 12.5 s and eight cycles span a 100 s run exactly; magnitudes step
    up with the profile index via the floor pressure.
    """
    return tuple(
        RampProfileSpec(u_min=1.0 + 2.5 * i, u_max=32.25 + 2.5 * i)
        for i in range(7)
    )
