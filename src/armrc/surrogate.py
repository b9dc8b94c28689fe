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
depend on simulation order; ``seed=None`` gives noise-free runs. Noise is
added after the states, so one noise-free run serves every seed
(`add_noise`). A run's noise is one `_noise_blocks` block, drawn in-process
or, in a process's first noisy batch of long runs with numpy.random not yet
imported, by a forked child while the kernel steps (`_take_noise_child`).

One kernel, `simulate_batch`, steps all runs of a call together; every
other entry point is a thin call into it. A run's bits do not depend on
the batch it runs in. A step reads only the coupling's band (`bandwidth`
w, 1 for the shipped nearest-neighbour coupling): 2w + 1 terms per node
rather than n. Each run's states, angle and trace are made once and kept
by its series uncopied; its noise makes one new sensors array, and each
series is built once.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_SEED,
    InputCondition,
    PayloadSet,
    PressureStateSeries,
    TimeGrid,
    Window,
    condition_grid,
    fork_width,
    forked,
    sample_count,
    sensor_name,
)
from .profiles import RampProfileSpec, generate_profile

# Payload-term pressure scale (psi): well inside the profiles' range, so
# tanh(u / U_PAYLOAD_REF) sweeps most of [0, 1) within every ramp cycle.
U_PAYLOAD_REF = 15.0

_UINT64_MASK = (1 << 64) - 1

# Time steps buffered between flushes into the per-run state arrays: short,
# so the buffers stay small next to the runs themselves.
_CHUNK = 64

# Run length (samples) from which `_take_noise_child` forks: the child
# pays once the steps hide its numpy.random import and its draws. A fresh
# process's first simulate of one 7-sensor run on a 2-core Xeon took 5 ms
# longer with the child at 1000 samples, and 3 ms less at 2000 and 5 ms
# less at 4000 (medians of 15 pairs).
_NOISE_CHILD_SAMPLES = 2000
_noise_child_taken = False  # set by `_take_noise_child`'s one yes


def default_coupling(n_nodes: int) -> tuple:
    """Symmetric nearest-neighbor diffusion, 0.004, between adjacent pouches."""
    c = 0.004 * (np.eye(n_nodes, k=1) + np.eye(n_nodes, k=-1))
    return tuple(tuple(row) for row in c)


@dataclass(frozen=True)
class SurrogateParams:
    """Arm surrogate parameters. Defaults are the shipped, tuned set."""

    n_nodes: int = 7
    leak: tuple = (0.14, 0.13, 0.40, 0.075, 0.055, 0.035, 0.0175)
    coupling: Optional[tuple] = None  # None: nearest-neighbour at 0.004
    input_gain: tuple = (0.018, 0.02, 0.02, 0.02, 0.030, 0.032, 0.032)
    payload_gain: tuple = (-0.16, -0.21, 0.32, 0.0, -0.15, -0.13, -0.90)
    payload_sat: float = 300.0
    noise_std: float = 0.30
    angle_weights: tuple = (0.33, 0.25, 0.21, 0.23, 0.28, 0.45, 0.75)
    angle_payload_slope: float = -0.03
    leak_pressure_coeff: tuple = (0.90, 0.90, 0.05, 0.75, 0.45, 0.25, 0.12)
    leak_pressure_knee: float = 38.0
    leak_pressure_width: float = 3.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None and not np.isfinite(
                    np.asarray(value, dtype=float)).all():
                raise ValueError(f"{name} must be finite, got {value}")
        n = self.n_nodes
        if n < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n}")
        for name in ("leak", "input_gain", "payload_gain", "angle_weights",
                     "leak_pressure_coeff"):
            vec = getattr(self, name)
            if len(vec) != n:
                raise ValueError(f"{name} must have {n} entries, got {len(vec)}")
        if self.coupling is None:
            object.__setattr__(self, "coupling", default_coupling(n))
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
            f"{sensor_name(sensor)} overflows the noise key "
            "(profile < 2**32, payload and sensor < 2**16)")
    return (ci << 32) | (cj << 16) | (sensor + 1)


def _noise_stream(gen: np.random.Generator, seed: int,
                  condition: Optional[InputCondition], sensor: int,
                  n_samples: int, noise_std: float) -> np.ndarray:
    """``sensor``'s noise under ``condition`` at ``seed``, from ``gen``
    re-keyed at counter 0 with an empty buffer: the draws of a fresh
    ``Generator(Philox(key=...))``, whatever ``gen`` drew before."""
    key = [seed & _UINT64_MASK, _noise_key(condition, sensor)]
    gen.bit_generator.state = {
        "bit_generator": "Philox", "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0, "buffer": np.zeros(4, dtype=np.uint64),
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array(key, dtype=np.uint64)}}
    return gen.normal(0.0, noise_std, n_samples)


def _noise_blocks(params: SurrogateParams, conditions: Sequence,
                  shape: tuple, seed: int):
    """Each run's (n_sensors, n_samples) sensor noise at ``seed`` in run
    order, row m sensor m's `_noise_stream`, from one generator re-keyed
    per sensor: building a Philox costs a fifth of a 4000-sample stream."""
    gen = np.random.Generator(np.random.Philox(0))
    for cond in conditions:
        yield np.array([_noise_stream(gen, seed, cond, m, shape[1],
                                      params.noise_std)
                        for m in range(shape[0])])


def add_noise(params: SurrogateParams, run: PressureStateSeries,
              seed: int) -> PressureStateSeries:
    """A noise-free run plus its sensor noise at ``seed``: the run
    ``simulate(..., seed=seed)`` gives, as noise never feeds back into the
    states."""
    if params.noise_std == 0:
        return run
    noise, = _noise_blocks(params, [run.condition], run.sensors.shape, seed)
    return replace(run, sensors=_frozen(np.add(run.sensors, noise, out=noise)))


def _noise_child(pipe, params: SurrogateParams, conditions: Sequence,
                 shape: tuple, seed: int) -> None:
    """`simulate_batch`'s noise child: every run's `_noise_blocks` block,
    all drawn before the first is sent, so drawing never waits on the pipe."""
    pipe.writelines(list(_noise_blocks(params, conditions, shape, seed)))


def _piped_blocks(pipe, shape: tuple):
    """The `_noise_child`'s blocks, each read as its run is built."""
    while True:
        noise = np.empty(shape)
        if pipe.readinto(noise) < noise.nbytes:
            raise EOFError("the noise child's reply ended early")
        yield noise


def _take_noise_child(n_samples: int) -> bool:
    """Whether a noisy batch of ``n_samples``-sample runs draws its noise in
    a `_noise_child`: yes, once per process, if numpy.random is not yet
    imported, the runs are at least `_NOISE_CHILD_SAMPLES` long, and
    `fork_width` gives 2 CPUs (so never in a forked child).

    The child pays by taking the numpy.random import (12-15 ms) off the
    parent. Where it was already imported, 4000-sample batches of 1, 7 and
    13 runs were 0.4-8.6 ms slower with the child (medians of 16
    interleaved calls). Each child would import it again, so a process
    forks at most one; its later batches draw in-process.
    """
    global _noise_child_taken
    if (_noise_child_taken or "numpy.random" in sys.modules
            or n_samples < _NOISE_CHILD_SAMPLES or fork_width(2) < 2):
        return False
    _noise_child_taken = True
    return True


def bandwidth(coupling) -> int:
    """The largest |i - j| with ``coupling[i][j]`` nonzero (0 if none)."""
    i, j = np.nonzero(np.asarray(coupling))
    return int(np.abs(i - j).max(initial=0))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a `PressureStateSeries` keeps it uncopied."""
    a.setflags(write=False)
    return a


def _advance(params: SurrogateParams, traces: list, masses: Sequence[float],
             x0: Optional[np.ndarray]) -> list:
    """Noise-free (n, T) states of B runs, stepped together as one block.

    The block is held as (n, B), a column per run, inside a history buffer
    whose rows are padded with w zero rows on each side, w the coupling's
    `bandwidth`. A step is two multiplies and one ``np.add.reduce`` over
    the outermost axis of 2w + 3 (n, B) slabs: ``C[i, i + s - w] *
    x[i + s - w]`` for s = 0..2w (a sliding view of the padded row, so j
    ascends), ``gain * x``, and the drive; the reduce writes the next
    history row, so no step copies x. It adds the slabs in order for every
    B (never BLAS), so a step is ``(C x + gain * x) + drive`` with ``C x``
    summed in j order, the bits of ``(gain * x + C x) + drive`` as IEEE
    addition commutes. The terms outside the band are 0 * x, exact zeros,
    so leaving them out can flip only the sign of a zero partial sum. (A
    dense coupling is a full band of 2n - 1 slots: exact, but slower than
    the n terms a step would need.)
    Reducing a contiguous inner axis would not do: at B = 1 and n >= 8
    numpy sums it pairwise. So a run's bits do not depend on the batch.
    The drive terms are taken with ``np.tanh`` per distinct (T,) trace and
    per scalar mass.
    """
    n, n_samples, n_runs = params.n_nodes, len(traces[0]), len(traces)
    leak, kp, ig, pg = (np.asarray(v)[:, None] for v in (
        params.leak, params.leak_pressure_coeff, params.input_gain,
        params.payload_gain))
    distinct = {id(t): t for t in traces}
    row = {key: u for u, key in enumerate(distinct)}
    idx = [row[id(t)] for t in traces]
    s_u = np.array(list(distinct.values()))
    phi_u = np.array([0.5 * (1.0 + np.tanh(
        (t - params.leak_pressure_knee) / params.leak_pressure_width))
        for t in s_u])
    v_u = np.array([np.tanh(t / U_PAYLOAD_REF) for t in s_u])
    rho = np.array([np.tanh(m / params.payload_sat) for m in masses])

    w = bandwidth(params.coupling)
    slots = 2 * w + 1
    # band[s, i] = C[i, i + s - w], zero where i + s - w falls off the arm
    cpad = np.zeros((n, n + 2 * w))
    cpad[:, w:w + n] = params.coupling
    band = np.empty((slots, n, n_runs))
    band[...] = np.array([cpad[i, i:i + slots] for i in range(n)]).T[
        :, :, None]
    # history row k holds the states after step k of the chunk (row 0: the
    # chunk's start) between w zero rows on each side
    hist = np.zeros((_CHUNK + 1, n + 2 * w, n_runs))
    if x0 is not None:
        hist[0, w:w + n] = np.asarray(x0, dtype=float).T
    # windows[k][s, i] = hist[k, i + s]: x[i + s - w] on the padded row
    windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(
        hist[:-1], slots, axis=1), 3, 1)
    x = hist[:, w:w + n]
    # step k: terms[k][:slots] = band * window, terms[k][slots] = gain * x,
    # terms[k][slots + 1] is the drive; gain and drive filled once a chunk
    terms = np.empty((_CHUNK, slots + 2, n, n_runs))
    gain = np.empty((_CHUNK, n, n_runs))
    steps = [(windows[k], terms[k, :slots], gain[k], x[k], terms[k, slots],
              terms[k], x[k + 1]) for k in range(_CHUNK)]
    states = [np.empty((n, n_samples)) for _ in traces]
    for k0 in range(0, n_samples, _CHUNK):
        k1 = min(k0 + _CHUNK, n_samples)
        phi = phi_u[idx, k0:k1].T[:, None, :]
        gain[:k1 - k0] = ((1.0 - leak * (1.0 - kp * phi))
                          + pg * (rho * v_u[idx, k0:k1].T)[:, None, :])
        terms[:k1 - k0, slots + 1] = ig * s_u[idx, k0:k1].T[:, None, :]
        for window, coupled, g, xk, gained, summands, nxt in steps[:k1 - k0]:
            np.multiply(band, window, out=coupled)
            np.multiply(g, xk, out=gained)
            np.add.reduce(summands, axis=0, out=nxt)
        for b, st in enumerate(states):
            st[:, k0:k1] = x[1:k1 - k0 + 1, :, b].T
        hist[0] = hist[k1 - k0]
    return states


def simulate_batch(
    params: SurrogateParams,
    traces: Sequence[np.ndarray],
    masses: Sequence[float],
    grid: TimeGrid,
    *,
    conditions: Optional[Sequence[Optional[InputCondition]]] = None,
    x0: Optional[np.ndarray] = None,
    seed: Optional[int] = DEFAULT_SEED,
) -> list:
    """Run B (trace, mass) pairs through one shared step loop, one series
    each, every one bit-identical to the run ``simulate`` gives alone.

    ``x0`` is (B, n). Pass a repeated trace as the same array object so its
    drive terms are computed once. Each run's `_noise_blocks` block (none
    at ``seed=None``), from a `_noise_child` where `_take_noise_child` says
    a fork pays, is added into its clean states before the run is built.
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
    noisy = seed is not None and params.noise_std > 0
    for cond in conditions if noisy else ():
        _noise_key(cond, params.n_nodes - 1)
    shape = (params.n_nodes, grid.n_samples)
    child = (forked(_noise_child, params, conditions, shape, seed)
             if noisy and traces and _take_noise_child(grid.n_samples)
             else contextlib.nullcontext())
    with child as pipe:
        states = _advance(params, traces, masses, x0) if traces else []
        blocks = (_piped_blocks(pipe, shape) if pipe is not None else
                  _noise_blocks(params, conditions, shape, seed) if noisy else ())
        # one read-only copy of each distinct trace, shared by its runs
        s_in = {id(t): _frozen(t.copy()) for t in traces}
        runs = []
        for b, (trace, mass, cond) in enumerate(
                zip(traces, masses, conditions)):
            sensors, states[b] = _frozen(states[b]), None
            theta = (sum(w * s for w, s in zip(params.angle_weights, sensors))
                     + params.angle_payload_slope * mass)
            if noisy:  # this run's noise, plus its clean states
                noise = next(blocks)
                sensors = _frozen(np.add(sensors, noise, out=noise))
            runs.append(PressureStateSeries(
                grid=grid, s_in=s_in[id(trace)], sensors=sensors,
                theta=_frozen(theta), condition=cond,
                payload_grams=float(mass)))
    return runs


def simulate(
    params: SurrogateParams,
    s_in: np.ndarray,
    payload: float,
    grid: TimeGrid,
    *,
    condition: Optional[InputCondition] = None,
    x0: Optional[np.ndarray] = None,
    seed: Optional[int] = DEFAULT_SEED,
) -> PressureStateSeries:
    """Run the surrogate on one actuation trace and payload mass: a batch of
    one. Bit-reproducible for fixed (params, inputs, seed)."""
    return simulate_batch(
        params, [s_in], [payload], grid, conditions=[condition],
        x0=None if x0 is None else [x0], seed=seed,
    )[0]


def echo_check(
    params: SurrogateParams,
    s_in: np.ndarray,
    payload: float,
    *,
    grid: Optional[TimeGrid] = None,
    washout_seconds: float = 50.0,
) -> bool:
    """Common-signal synchronization test.

    Runs the noise-free surrogate from two random initial states (drawn
    from Philox key 0, so the check is deterministic) under the same input,
    as one two-row batch; True iff the post-washout state trajectories
    agree within 1e-6. Required before treating the arm as a
    reservoir: readouts of the state must not depend on where the state
    started.
    """
    s_in = np.asarray(s_in, dtype=float)
    if grid is None:
        grid = TimeGrid(n_samples=len(s_in))
    rng = np.random.Generator(np.random.Philox(key=0))
    x0 = [rng.uniform(0.0, 10.0, params.n_nodes) for _ in range(2)]
    run_a, run_b = simulate_batch(params, [s_in, s_in], [payload, payload],
                                  grid, x0=x0, seed=None)
    k0 = sample_count(Window(0.0, washout_seconds), grid.sample_rate)
    gap = np.abs(run_a.sensors[:, k0:] - run_b.sensors[:, k0:]).max()
    return bool(gap < 1e-6)


def simulate_conditions(
    params: SurrogateParams,
    profile_specs: Sequence[RampProfileSpec],
    payloads: PayloadSet,
    grid: TimeGrid,
    conditions: Sequence[InputCondition],
    seed: Optional[int] = DEFAULT_SEED,
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
        conditions=conds, seed=seed,
    )
    return dict(zip(conds, runs))


def simulate_grid(
    params: SurrogateParams,
    profile_specs: Sequence[RampProfileSpec],
    payloads: PayloadSet,
    grid: TimeGrid,
    *,
    seed: int = DEFAULT_SEED,
) -> Mapping[InputCondition, PressureStateSeries]:
    """Simulate every (profile, payload) condition of the experiment grid."""
    return simulate_conditions(
        params, profile_specs, payloads, grid,
        condition_grid(len(profile_specs), payloads), seed=seed,
    )
