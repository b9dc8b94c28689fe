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
depend on simulation order; ``seed=None`` gives noise-free runs, and a
seed outside 0..2**64 - 1 is refused rather than wrapped. Noise
never feeds back into the states, so it enters in one step after the
kernel: `add_noise` puts each run's `_noise_blocks` block into a batch of
noise-free runs, and one noise-free run serves every seed. A block is
drawn standard-normal and scaled in place, with ``normal``'s bits.
Each stream stays keyed to sample 0, whatever a run keeps of it.

One noise-free kernel, `simulate_batch`, steps all runs of a call
together; every other entry point is a thin call into it. A run's bits do
not depend on the batch it runs in. A step reads only the coupling's band
(`bandwidth` w, 1 for the shipped nearest-neighbour coupling): 2w + 1
terms per node rather than n. Each run's states, angle and trace are made
once and kept by its series uncopied; its noise makes one new sensors
array. A caller that reads no sample of a run before some sample
``first`` (a sweep reads a run no fit trains on only in its test window)
keeps only that run's tail, each run from its own ``first``: the kernel
steps through the samples before it without storing them, and the tail's
noise draws and drops the stream's first ``first`` normals, so every kept
sample has the bits of the whole run's.
"""

from __future__ import annotations

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
    check_numbers,
    condition_grid,
    sample_count,
    sensor_name,
)
from .profiles import RampProfileSpec, generate_profile

# Payload-term pressure scale (psi): well inside the profiles' range, so
# tanh(u / U_PAYLOAD_REF) sweeps most of [0, 1) within every ramp cycle.
U_PAYLOAD_REF = 15.0

# Time steps buffered between flushes into the per-run state arrays: short,
# so the buffers stay small next to the runs themselves. A chunk's gain and
# drive are computed in place in those buffers, so no (_CHUNK, n, B)
# temporary is made (each one past glibc's 128 KiB mmap threshold is fresh
# pages to fault in).
_CHUNK = 64


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
        check_numbers(self)
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


def _noise_key(seed: int, condition: Optional[InputCondition],
               sensor: int) -> list:
    """The Philox key of a noise stream, [seed, (profile << 32) |
    (payload << 16) | (sensor + 1)]. A seed outside 0..2**64 - 1, or an
    index that overflows its field, would alias another stream."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside the noise key's range "
                         "0..2**64 - 1")
    ci, cj = ((0, 0) if condition is None
              else (condition.profile_index, condition.payload_index))
    if ci >> 32 or cj >> 16 or (sensor + 1) >> 16:
        raise ValueError(
            f"condition {condition.label if condition else '-'} sensor "
            f"{sensor_name(sensor)} overflows the noise key "
            "(profile < 2**32, payload and sensor < 2**16)")
    return [seed, (ci << 32) | (cj << 16) | (sensor + 1)]


def _rekey(gen: np.random.Generator, seed: int,
           condition: Optional[InputCondition], sensor: int) -> None:
    """Re-key ``gen`` to ``sensor``'s noise stream under ``condition`` at
    ``seed``, at counter 0 with an empty buffer: it then draws what a fresh
    ``Generator(Philox(key=...))`` draws, whatever it drew before."""
    key = _noise_key(seed, condition, sensor)
    gen.bit_generator.state = {
        "bit_generator": "Philox", "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0, "buffer": np.zeros(4, dtype=np.uint64),
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array(key, dtype=np.uint64)}}


def _per_run(first, n_runs: int) -> list:
    """``first`` as each of ``n_runs`` runs' first kept sample: an int is
    every run's, a sequence gives one per run, in order."""
    if np.ndim(first) == 0:
        return [first] * n_runs
    if len(first) != n_runs:
        raise ValueError(f"need one first kept sample per run: got "
                         f"{len(first)} for {n_runs} runs")
    return list(first)


def _noise_blocks(params: SurrogateParams, runs: Mapping, seed: int,
                  firsts: Sequence[int]):
    """Each of ``runs``' sensor noise at ``seed``, in order: one (n_sensors,
    L) block per run of L samples kept from its own sample ``first`` on
    (``firsts``, one per run), row m samples ``first``..``first`` + L - 1
    of ``normal(0.0, noise_std)`` of sensor m's stream under the run's
    condition, from one generator re-keyed per sensor (building a Philox
    costs a fifth of a 4000-sample stream). The first ``first`` normals of
    a stream are drawn into one scratch row and dropped; rows are drawn
    standard-normal in place, then scaled and shifted by 0.0 as
    ``normal``'s ``loc + scale * z``: its bits, signed zeros included."""
    gen = np.random.Generator(np.random.Philox(0))
    dropped = np.empty(max(firsts, default=0))
    for run, first in zip(runs.values(), firsts):
        block = np.empty(run.sensors.shape)
        for m, row in enumerate(block):
            _rekey(gen, seed, run.condition, m)
            gen.standard_normal(out=dropped[:first])
            gen.standard_normal(out=row)
        with np.errstate(over="ignore"):  # as ``normal``, on a huge std
            np.multiply(block, params.noise_std, out=block)
        yield np.add(block, 0.0, out=block)


def add_noise(params: SurrogateParams, runs: dict, seed: Optional[int],
              first=0) -> dict:
    """``runs``, noise-free runs keyed by condition, with their sensor
    noise at ``seed`` (none at None) put in place: each run is replaced as
    soon as its noisy copy is built, so no noise-free run that only
    ``runs`` holds outlives its copy. ``first`` is each run's first kept
    sample (`simulate_batch`): an int is every run's, a sequence gives one
    per run in ``runs``' order. A run kept from sample ``first`` on takes
    its streams from that sample on, so each kept sample gets the noise it
    gets in the whole run."""
    firsts = _per_run(first, len(runs))
    if seed is None or params.noise_std == 0:
        return runs
    for cond, noise in zip(runs, _noise_blocks(params, runs, seed, firsts)):
        runs[cond] = replace(runs[cond], sensors=_frozen(
            np.add(runs[cond].sensors, noise, out=noise)))
    return runs


def bandwidth(coupling) -> int:
    """The largest |i - j| with ``coupling[i][j]`` nonzero (0 if none)."""
    i, j = np.nonzero(np.asarray(coupling))
    return int(np.abs(i - j).max(initial=0))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a `PressureStateSeries` keeps it uncopied."""
    a.setflags(write=False)
    return a


def _advance(params: SurrogateParams, traces: list, masses: Sequence[float],
             x0: Optional[np.ndarray], firsts: Sequence[int]) -> list:
    """Noise-free (n, T - first) states of B runs, each from its own sample
    ``first`` (``firsts``) on, stepped together as one block through all T
    samples.

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
    per scalar mass. Each chunk of steps is flushed into the per-run arrays
    from sample ``first`` on; a chunk wholly before it is not copied.
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
    states = [np.empty((n, n_samples - first)) for first in firsts]
    lowest = min(firsts)
    # gain's memory, read by no step once a chunk's steps are done
    chunk = gain.reshape(n_runs, n, _CHUNK)
    multiply, reduce = np.multiply, np.add.reduce  # looked up once a call
    for k0 in range(0, n_samples, _CHUNK):
        k1 = min(k0 + _CHUNK, n_samples)
        # (1 - leak * (1 - kp * phi)) + pg * (rho * v), then ig * u, each
        # op in place in its slab: the drive slab holds pg * (rho * v) first
        gains, drive = gain[:k1 - k0], terms[:k1 - k0, slots + 1]
        np.multiply(kp, phi_u[idx, k0:k1].T[:, None, :], gains)
        np.subtract(1.0, gains, gains)
        np.multiply(leak, gains, gains)
        np.subtract(1.0, gains, gains)
        np.multiply(pg, (rho * v_u[idx, k0:k1].T)[:, None, :], drive)
        np.add(gains, drive, gains)
        np.multiply(ig, s_u[idx, k0:k1].T[:, None, :], drive)
        for window, coupled, g, xk, gained, summands, nxt in steps[:k1 - k0]:
            multiply(band, window, coupled)
            multiply(g, xk, gained)
            reduce(summands, 0, None, nxt)
        # one transposing copy of the steps any run keeps, then a
        # contiguous one per run of the steps it keeps
        if k1 > lowest:
            lo = max(k0, lowest)
            chunk[:, :, :k1 - lo] = x[lo - k0 + 1:k1 - k0 + 1].transpose(
                2, 1, 0)
            for st, rows, first in zip(states, chunk, firsts):
                if k1 > first:
                    at = max(lo, first)
                    st[:, at - first:k1 - first] = rows[:, at - lo:k1 - lo]
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
    first=0,
) -> list:
    """Run B (trace, mass) pairs through one shared step loop, one
    noise-free series each, every one bit-identical to the run it gives
    alone.

    ``x0`` is (B, n). Pass a repeated trace as the same array object so its
    drive terms are computed once. ``first`` is each run's first kept
    sample: an int is every run's, a sequence gives one per run. Each
    series keeps its samples ``first``..T - 1 on the grid's clock from
    there (`TimeGrid.span`), bit for bit the tail of the whole run; a
    ``first`` outside 0..T - 1, for any run, is refused before the kernel
    steps (0 is always taken).
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
    firsts = _per_run(first, len(traces))
    for first in firsts:
        if first and not 0 < first < grid.n_samples:
            raise ValueError(f"first kept sample {first} is outside the "
                             f"run's samples 0..{grid.n_samples - 1}")
    states = _advance(params, traces, masses, x0, firsts) if traces else []
    kept = {first: grid.span(first, grid.n_samples) for first in firsts}
    # one read-only copy of each distinct trace's tail, shared by its runs
    s_in = {(id(t), first): _frozen(t[first:].copy())
            for t, first in zip(traces, firsts)}
    runs = []
    for b, (trace, mass, cond, first) in enumerate(zip(
            traces, masses, conditions, firsts)):
        sensors, states[b] = _frozen(states[b]), None
        theta = (sum(w * s for w, s in zip(params.angle_weights, sensors))
                 + params.angle_payload_slope * mass)
        runs.append(PressureStateSeries(
            grid=kept[first], s_in=s_in[id(trace), first], sensors=sensors,
            theta=_frozen(theta), condition=cond, payload_grams=float(mass)))
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
    one, plus its noise. Bit-reproducible for fixed (params, inputs, seed);
    a seed outside the noise key's range is refused before the kernel."""
    if seed is not None:
        _noise_key(seed, condition, params.n_nodes - 1)
    run, = simulate_batch(params, [s_in], [payload], grid,
                          conditions=[condition],
                          x0=None if x0 is None else [x0])
    return add_noise(params, {condition: run}, seed)[condition]


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
    as one two-row batch that steps through the washout without storing
    it; True iff the post-washout state trajectories agree within 1e-6.
    Required before treating the arm as a reservoir: readouts of the state
    must not depend on where the state started. A washout that leaves no
    sample of the run is refused.
    """
    s_in = np.asarray(s_in, dtype=float)
    if grid is None:
        grid = TimeGrid(n_samples=len(s_in))
    k0 = sample_count(Window(0.0, washout_seconds), grid.sample_rate)
    if k0 >= grid.n_samples:
        raise ValueError(
            f"a washout of {washout_seconds:g} s ({k0} samples) leaves no "
            f"sample of the {grid.n_samples}-sample run to compare")
    rng = np.random.Generator(np.random.Philox(key=0))
    x0 = [rng.uniform(0.0, 10.0, params.n_nodes) for _ in range(2)]
    run_a, run_b = simulate_batch(params, [s_in, s_in], [payload, payload],
                                  grid, x0=x0, first=k0)
    gap = np.abs(run_a.sensors - run_b.sensors).max()
    return bool(gap < 1e-6)


def simulate_conditions(
    params: SurrogateParams,
    profile_specs: Sequence[RampProfileSpec],
    payloads: PayloadSet,
    grid: TimeGrid,
    conditions: Sequence[InputCondition],
    seed: Optional[int] = DEFAULT_SEED,
    first=0,
) -> dict:
    """Simulate just the listed conditions (deduplicated), as one batch,
    plus their noise at ``seed``. ``first`` is each condition's first kept
    sample (`simulate_batch`; its noise as in the whole run, `add_noise`):
    an int is every condition's, a sequence gives one per listed
    condition, and a condition listed twice is kept from the earlier of its
    two. A condition outside the profiles x payloads grid, or, with a seed,
    a noise key that overflows (the seed's or the condition's), is refused
    up front."""
    for cond in conditions:
        if (cond.profile_index > len(profile_specs)
                or cond.payload_index > len(payloads)):
            raise ValueError(
                f"condition {cond.label} is outside the "
                f"{len(profile_specs)}x{len(payloads)} profile x payload grid"
            )
    for cond in conditions if seed is not None else ():
        _noise_key(seed, cond, params.n_nodes - 1)
    keep = {}
    for cond, at in zip(conditions, _per_run(first, len(conditions))):
        keep[cond] = min(at, keep.get(cond, at))
    conds, firsts = list(keep), list(keep.values())
    traces = {i: generate_profile(profile_specs[i - 1], grid)
              for i in {c.profile_index for c in conds}}
    # the dict holds the only reference to each noise-free run
    return add_noise(params, dict(zip(conds, simulate_batch(
        params, [traces[c.profile_index] for c in conds],
        [payloads.mass_of(c.payload_index) for c in conds], grid,
        conditions=conds, first=firsts))), seed, firsts)


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
