"""Deterministic surrogate dynamics for the pneumatic arm.

The arm is modeled as a leaky diffusion network of n pressure nodes
(base to tip) driven by the commanded actuation pressure u(t):

    x[k+1] = retain(u[k]) * x[k] + C @ x[k] + input_gain * u[k] + nl[k]

with per-node retention

    retain_m(u) = 1 - leak_m * (1 - leak_pressure_coeff_m * phi(u)),
    phi(u) = (1 + tanh((u - leak_pressure_knee) / leak_pressure_width)) / 2.

phi is a soft pressure threshold: once the line pressure climbs past the
knee the pouches seal and stiffen, the leak slows, and both gain and
phase lag jump. The knee sits above the low profiles' peaks, so only the
stronger actuation profiles ever wake these slow high-pressure modes --
which is what makes readouts trained solely on weak profiles extrapolate
poorly. The end payload enters only through the bilinear term

    nl_m[k] = payload_gain_m * tanh(payload / payload_sat)
              * x_m[k] * tanh(u[k] / U_PAYLOAD_REF),

i.e. a mass-dependent shift of each node's pole. With no payload the
input->state map is exactly linear. The shipped gains are negative: mass
damps the pneumatic response, pulling the slow tip poles down so that
gain, phase lag, and waveform shape all collapse together as the arm
loads up -- a strongly non-affine signature that a linear readout can
only resolve with enough training conditions. Damping never pushes a
pole toward instability, which leaves the passive poles free to sit
close to 1 (seconds of memory). The bending angle is a fixed linear
functional of the node states plus a mass-proportional droop:

    theta[k] = angle_weights @ x[k] + angle_payload_slope * payload.

Sensor readings are the node states plus white Gaussian noise drawn from
counter-based streams keyed by (seed, condition, sensor), so results never
depend on simulation order. The noise is added after the states are
computed, so one noise-free run serves every seed (`add_noise`).

One kernel, `simulate_batch`, steps all runs of a call together; every
other entry point is a thin call into it. A run's bits do not depend on
the batch it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    InputCondition,
    PayloadSet,
    PressureStateSeries,
    TimeGrid,
    condition_grid,
)
from .profiles import RampProfileSpec, generate_profile

# Payload-term pressure scale (psi): well inside the profiles' range, so
# tanh(u / U_PAYLOAD_REF) sweeps most of [0, 1) within every ramp cycle.
U_PAYLOAD_REF = 15.0

_UINT64_MASK = (1 << 64) - 1

# Time steps buffered between flushes into the per-run state arrays: short,
# so the buffers stay small next to the runs themselves.
_CHUNK = 64


def default_coupling(n_nodes: int = 7, strength: float = 0.02) -> tuple:
    """Symmetric nearest-neighbor diffusion between adjacent pouches."""
    c = np.zeros((n_nodes, n_nodes))
    for m in range(n_nodes - 1):
        c[m, m + 1] = strength
        c[m + 1, m] = strength
    return tuple(tuple(row) for row in c)


@dataclass(frozen=True)
class SurrogateParams:
    """Arm surrogate parameters. Defaults are the shipped, tuned set."""

    n_nodes: int = 7
    leak: tuple = (0.14, 0.13, 0.40, 0.075, 0.055, 0.035, 0.0175)
    coupling: tuple = default_coupling(7, strength=0.004)
    input_gain: tuple = (0.018, 0.02, 0.02, 0.02, 0.030, 0.032, 0.032)
    payload_gain: tuple = (-0.16, -0.21, 0.32, 0.0, -0.15, -0.13, -0.90)
    payload_sat: float = 300.0
    noise_std: float = 0.30
    angle_weights: tuple = (0.33, 0.25, 0.21, 0.23, 0.28, 0.45, 0.75)
    angle_payload_slope: float = -0.03
    leak_pressure_coeff: tuple = (0.90, 0.90, 0.05, 0.75, 0.45, 0.25, 0.12)
    leak_pressure_knee: float = 38.0
    leak_pressure_width: float = 3.0
    seed: int = 7

    def __post_init__(self) -> None:
        n = self.n_nodes
        if n < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n}")
        for name in ("leak", "input_gain", "payload_gain", "angle_weights",
                     "leak_pressure_coeff"):
            vec = getattr(self, name)
            if len(vec) != n:
                raise ValueError(f"{name} must have {n} entries, got {len(vec)}")
        if any(not 0 < l <= 1 for l in self.leak):
            raise ValueError(f"leak rates must lie in (0, 1]: {self.leak}")
        cmat = np.asarray(self.coupling, dtype=float)
        if cmat.shape != (n, n):
            raise ValueError(f"coupling must be {n}x{n}, got {cmat.shape}")
        if (cmat < 0).any():
            raise ValueError("coupling entries must be >= 0")
        if any(g <= 0 for g in self.input_gain):
            raise ValueError("input_gain entries must be > 0")
        if any(b < a for a, b in zip(self.input_gain, self.input_gain[1:])):
            raise ValueError(
                "input_gain must be non-decreasing base to tip: "
                f"{self.input_gain}"
            )
        if any(abs(g) >= 1 - l for g, l in zip(self.payload_gain, self.leak)):
            raise ValueError(
                "payload_gain magnitudes must stay below each node's "
                "retention headroom 1 - leak"
            )
        if self.payload_sat <= 0:
            raise ValueError(f"payload_sat must be > 0 grams, got {self.payload_sat}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if any(not 0 <= c < 1 for c in self.leak_pressure_coeff):
            raise ValueError(
                "leak_pressure_coeff entries must lie in [0, 1): "
                f"{self.leak_pressure_coeff}"
            )
        if self.leak_pressure_width <= 0:
            raise ValueError(
                f"leak_pressure_width must be > 0 psi, got {self.leak_pressure_width}"
            )
        margin = stability_margin(self)
        if margin <= 0:
            raise ValueError(
                "unstable parameters: worst-case update norm "
                f"{1 - margin:.4f} >= 1 (reduce leak_pressure_coeff, coupling, "
                "or payload_gain)"
            )


def stability_margin(params: SurrogateParams) -> float:
    """1 minus the worst-case row-sum norm of the state update map.

    The bound takes u -> inf and payload -> inf, so it holds for every input
    trace and mass; a positive margin makes the update a contraction.
    Negative payload gains only damp the poles, so they never enter the
    worst case.
    """
    leak = np.asarray(params.leak, dtype=float)
    kp = np.asarray(params.leak_pressure_coeff, dtype=float)
    retain_hi = 1.0 - leak * (1.0 - kp)
    m = np.asarray(params.coupling, dtype=float).copy()
    pg_destab = np.maximum(np.asarray(params.payload_gain, dtype=float), 0.0)
    m[np.diag_indices_from(m)] += retain_hi + pg_destab
    return float(1.0 - np.abs(m).sum(axis=1).max())


def _noise_key(condition: Optional[InputCondition], sensor: int) -> int:
    """Second Philox key word, (profile << 32) | (payload << 16) | (sensor + 1).
    An index that overflows its field would alias another stream."""
    ci, cj = ((0, 0) if condition is None
              else (condition.profile_index, condition.payload_index))
    if ci >> 32 or cj >> 16 or (sensor + 1) >> 16:
        raise ValueError(
            f"condition {condition.label if condition else '-'} sensor "
            f"s{sensor + 1} overflows the noise key (profile < 2**32, "
            "payload and sensor < 2**16)"
        )
    return (ci << 32) | (cj << 16) | (sensor + 1)


def _noise_stream(seed: int, condition: Optional[InputCondition], sensor: int,
                  n_samples: int, noise_std: float) -> np.ndarray:
    key = np.array([seed & _UINT64_MASK, _noise_key(condition, sensor)],
                   dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.normal(0.0, noise_std, n_samples)


def add_noise(params: SurrogateParams, run: PressureStateSeries,
              seed: Optional[int] = None) -> PressureStateSeries:
    """A noise-free run plus its sensor noise at ``seed``: the run
    ``simulate(..., seed=seed)`` gives, as noise never feeds back into the
    states."""
    if params.noise_std == 0:
        return run
    sensors = run.sensors.copy()
    noise_seed = params.seed if seed is None else seed
    for m in range(sensors.shape[0]):
        sensors[m] += _noise_stream(noise_seed, run.condition, m,
                                    sensors.shape[1], params.noise_std)
    return replace(run, sensors=sensors)


def _advance(params: SurrogateParams, traces: list, masses: Sequence[float],
             x0: Optional[np.ndarray]) -> list:
    """Noise-free (n, T) states of B runs, stepped together as one block.

    The block is held as (n, B), a column per run. A run meets only
    elementwise operations, drive terms taken with ``np.tanh`` per distinct
    (T,) trace and per scalar mass, and the coupling: one multiply into a
    (j, i, B) block of ``C[i, j] * x[j]`` and one reduce over its outermost
    axis j, which adds the slabs in j order for every B (never BLAS). Axis 1
    of an (i, j, B) block would not do: at B = 1 and n >= 8 numpy sums that
    contiguous axis pairwise. So a run's bits do not depend on the batch.
    """
    n, n_samples, n_runs = params.n_nodes, len(traces[0]), len(traces)
    leak, kp, ig, pg = (np.asarray(v)[:, None] for v in (
        params.leak, params.leak_pressure_coeff, params.input_gain,
        params.payload_gain))
    ct = np.asarray(params.coupling).T[:, :, None]
    distinct = {id(t): t for t in traces}
    row = {key: u for u, key in enumerate(distinct)}
    idx = [row[id(t)] for t in traces]
    s_u = np.array(list(distinct.values()))
    phi_u = np.array([0.5 * (1.0 + np.tanh(
        (t - params.leak_pressure_knee) / params.leak_pressure_width))
        for t in s_u])
    v_u = np.array([np.tanh(t / U_PAYLOAD_REF) for t in s_u])
    rho = np.array([np.tanh(m / params.payload_sat) for m in masses])

    x = np.zeros((n, n_runs)) if x0 is None else np.array(x0, dtype=float).T
    states = [np.empty((n, n_samples)) for _ in traces]
    buf = np.empty((_CHUNK, n, n_runs))
    t3, cx = np.empty((n, n, n_runs)), np.empty((n, n_runs))
    for k0 in range(0, n_samples, _CHUNK):
        k1 = min(k0 + _CHUNK, n_samples)
        phi = phi_u[idx, k0:k1].T[:, None, :]
        gain = ((1.0 - leak * (1.0 - kp * phi))
                + pg * (rho * v_u[idx, k0:k1].T)[:, None, :])
        drive = ig * s_u[idx, k0:k1].T[:, None, :]
        for k in range(k1 - k0):
            np.multiply(ct, x[:, None, :], out=t3)
            np.add.reduce(t3, axis=0, out=cx)
            x = np.multiply(gain[k], x, out=buf[k])
            x += cx
            x += drive[k]
        for b, st in enumerate(states):
            st[:, k0:k1] = buf[:k1 - k0, :, b].T
    return states


def simulate_batch(
    params: SurrogateParams,
    traces: Sequence[np.ndarray],
    masses: Sequence[float],
    grid: TimeGrid,
    *,
    conditions: Optional[Sequence[Optional[InputCondition]]] = None,
    x0: Optional[np.ndarray] = None,
    with_noise: bool = True,
    seed: Optional[int] = None,
) -> list:
    """Run B (trace, mass) pairs through one shared step loop, one series
    each, every one bit-identical to the run ``simulate`` gives alone.

    ``x0`` is (B, n). Pass a repeated trace as the same array object so its
    drive terms are computed once.
    """
    traces = [np.asarray(t, dtype=float) for t in traces]
    conditions = [None] * len(traces) if conditions is None else conditions
    if not len(traces) == len(masses) == len(conditions):
        raise ValueError("need one mass and one condition per trace")
    for t, mass in zip(traces, masses):
        if t.shape != (grid.n_samples,):
            raise ValueError(
                f"s_in must have shape ({grid.n_samples},), got {t.shape}"
            )
        if mass < 0:
            raise ValueError(f"payload mass must be >= 0 grams, got {mass}")
    shape = (len(traces), params.n_nodes)
    if x0 is not None and np.shape(x0) != shape:
        raise ValueError(f"x0 must have shape {shape}, got {np.shape(x0)}")
    noisy = with_noise and params.noise_std > 0
    for cond in conditions if noisy else ():
        _noise_key(cond, params.n_nodes - 1)
    states = _advance(params, traces, masses, x0) if traces else []
    runs = []
    for b, (trace, mass, cond) in enumerate(zip(traces, masses, conditions)):
        st, states[b] = states[b], None
        theta = (sum(w * s for w, s in zip(params.angle_weights, st))
                 + params.angle_payload_slope * mass)
        run = PressureStateSeries(grid=grid, s_in=trace, sensors=st,
                                  theta=theta, condition=cond,
                                  payload_grams=float(mass))
        runs.append(add_noise(params, run, seed) if noisy else run)
    return runs


def simulate(
    params: SurrogateParams,
    s_in: np.ndarray,
    payload: float,
    grid: TimeGrid,
    *,
    condition: Optional[InputCondition] = None,
    x0: Optional[np.ndarray] = None,
    with_noise: bool = True,
    seed: Optional[int] = None,
) -> PressureStateSeries:
    """Run the surrogate on one actuation trace and payload mass: a batch of
    one. Bit-reproducible for fixed (params, inputs, seed)."""
    return simulate_batch(
        params, [s_in], [payload], grid, conditions=[condition],
        x0=None if x0 is None else [x0], with_noise=with_noise, seed=seed,
    )[0]


def echo_check(
    params: SurrogateParams,
    s_in: np.ndarray,
    payload: float,
    *,
    grid: Optional[TimeGrid] = None,
    washout_seconds: float = 50.0,
    tol: float = 1e-6,
    rng_seed: int = 0,
) -> bool:
    """Common-signal synchronization test.

    Runs the noise-free surrogate from two random initial states under the
    same input, as one two-row batch; True iff the post-washout state
    trajectories agree within ``tol``. Required before treating the arm as a
    reservoir: readouts of the state must not depend on where the state
    started.
    """
    s_in = np.asarray(s_in, dtype=float)
    if grid is None:
        grid = TimeGrid(n_samples=len(s_in))
    rng = np.random.Generator(np.random.Philox(key=rng_seed & _UINT64_MASK))
    x0 = [rng.uniform(0.0, 10.0, params.n_nodes) for _ in range(2)]
    run_a, run_b = simulate_batch(params, [s_in, s_in], [payload, payload],
                                  grid, x0=x0, with_noise=False)
    k0 = int(round(washout_seconds * grid.sample_rate))
    gap = np.abs(run_a.sensors[:, k0:] - run_b.sensors[:, k0:]).max()
    return bool(gap < tol)


def simulate_conditions(
    params: SurrogateParams,
    profile_specs: Sequence[RampProfileSpec],
    payloads: PayloadSet,
    grid: TimeGrid,
    conditions: Sequence[InputCondition],
    seed: Optional[int] = None,
    with_noise: bool = True,
) -> dict:
    """Simulate just the listed conditions (deduplicated), as one batch.

    A condition outside the profiles x payloads grid is refused up front.
    """
    for cond in conditions:
        if (cond.profile_index > len(profile_specs)
                or cond.payload_index > len(payloads)):
            raise ValueError(
                f"condition {cond.label} is outside the "
                f"{len(profile_specs)}x{len(payloads)} profile x payload grid"
            )
    conds = list(dict.fromkeys(conditions))
    traces = {i: generate_profile(profile_specs[i - 1], grid)
              for i in {c.profile_index for c in conds}}
    runs = simulate_batch(
        params, [traces[c.profile_index] for c in conds],
        [payloads.mass_of(c.payload_index) for c in conds], grid,
        conditions=conds, with_noise=with_noise, seed=seed,
    )
    return dict(zip(conds, runs))


def simulate_grid(
    params: SurrogateParams,
    profile_specs: Sequence[RampProfileSpec],
    payloads: PayloadSet,
    grid: TimeGrid,
    *,
    seed: Optional[int] = None,
) -> Mapping[InputCondition, PressureStateSeries]:
    """Simulate every (profile, payload) condition of the experiment grid."""
    return simulate_conditions(
        params, profile_specs, payloads, grid,
        condition_grid(len(profile_specs), payloads), seed=seed,
    )
