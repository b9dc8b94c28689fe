import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armrc import core
from armrc.core import (
    DEFAULT_PAYLOADS_G,
    InputCondition,
    PayloadSet,
    PressureStateSeries,
    TEST_WINDOW,
    TRAIN_WINDOW,
    TimeGrid,
    WASHOUT_WINDOW,
    Window,
    condition_grid,
    fork_map,
    parse_condition_label,
    slice_series,
    window_indices,
)


def make_series(n=4000, rate=40.0, n_sensors=7):
    grid = TimeGrid(sample_rate=rate, n_samples=n)
    t = grid.times()
    return PressureStateSeries(
        grid=grid,
        s_in=np.sin(t),
        sensors=np.arange(n_sensors)[:, None] + np.cos(t)[None, :],
        theta=2.0 * t,
        condition=InputCondition(1, 1),
    )


class TestTimeGrid:
    def test_defaults_are_a_100s_run_at_40hz(self):
        grid = TimeGrid()
        assert grid.sample_rate == 40.0
        assert grid.n_samples == 4000
        assert grid.duration == 100.0

    def test_times_are_uniform(self):
        grid = TimeGrid(sample_rate=40.0, n_samples=10, t0=2.0)
        t = grid.times()
        assert t[0] == 2.0
        assert np.allclose(np.diff(t), 0.025)

    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": 0.0},
        {"sample_rate": -1.0},
        {"n_samples": -5},
        {"n_samples": 4000.5},
        {"n_samples": float("nan")},
        {"sample_rate": float("inf")},
        {"sample_rate": float("nan")},
        {"t0": float("inf")},
        {"t0": float("nan")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TimeGrid(**kwargs)

    def test_an_integral_float_sample_count_is_an_int(self):
        grid = TimeGrid(n_samples=40.0)
        assert type(grid.n_samples) is int and grid == TimeGrid(n_samples=40)


class TestWindow:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            Window(5.0, 1.0)

    def test_duration(self):
        assert Window(50.0, 75.0).duration == 25.0

    @pytest.mark.parametrize("bounds", [(0.0, float("inf")),
                                        (float("nan"), 1.0),
                                        (float("nan"), float("nan")),
                                        (-1e308, 1e308)])
    def test_rejects_a_span_that_is_not_finite(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            Window(*bounds)


class TestPayloadSet:
    def test_default_masses(self):
        assert PayloadSet().masses == DEFAULT_PAYLOADS_G
        assert PayloadSet().masses[0] == 0.0
        assert PayloadSet().masses[6] == 300.0

    def test_mass_of_is_one_based(self):
        payloads = PayloadSet()
        assert payloads.mass_of(1) == 0.0
        assert payloads.mass_of(7) == 300.0
        with pytest.raises(ValueError):
            payloads.mass_of(0)
        with pytest.raises(ValueError):
            payloads.mass_of(8)

    @pytest.mark.parametrize("mass", [float("nan"), float("inf")])
    def test_rejects_a_mass_that_is_not_finite(self, mass):
        with pytest.raises(ValueError, match="finite"):
            PayloadSet((0.0, mass))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            PayloadSet((0.0, 100.0, 100.0))
        with pytest.raises(ValueError):
            PayloadSet(())


class TestConditionGrid:
    def test_default_grid_has_49_conditions(self):
        grid = condition_grid(7, PayloadSet())
        assert len(grid) == 49
        assert len(set(grid)) == 49

    def test_profile_outer_order(self):
        grid = condition_grid(7, PayloadSet())
        assert grid[0] == InputCondition(1, 1)
        assert grid[1] == InputCondition(1, 2)
        assert grid[7] == InputCondition(2, 1)

    def test_multitask_grid_has_35_conditions(self):
        grid = condition_grid(7, PayloadSet((0, 100, 200, 300, 400)))
        assert len(grid) == 35

    def test_single_condition(self):
        assert condition_grid(1, PayloadSet((0.0,))) == [InputCondition(1, 1)]


class TestConditionLabels:
    @pytest.mark.parametrize("token,expected", [
        ("P3", InputCondition(3, 1)),
        ("M4", InputCondition(1, 4)),
        ("P2M5", InputCondition(2, 5)),
        ("p7m2", InputCondition(7, 2)),
    ])
    def test_parse(self, token, expected):
        assert parse_condition_label(token) == expected

    def test_label_round_trip(self):
        cond = InputCondition(4, 6)
        assert parse_condition_label(cond.label) == cond

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_condition_label("X9")
        with pytest.raises(ValueError):
            parse_condition_label("")


class TestSlicing:
    def test_default_windows_sample_counts(self):
        series = make_series()
        assert slice_series(series, WASHOUT_WINDOW).grid.n_samples == 2000
        assert slice_series(series, TRAIN_WINDOW).grid.n_samples == 1000
        assert slice_series(series, TEST_WINDOW).grid.n_samples == 1000

    def test_full_window_is_identity(self):
        series = make_series()
        sub = slice_series(series, Window(0.0, 100.0))
        assert sub.grid == series.grid
        assert np.array_equal(sub.sensors, series.sensors)
        assert np.array_equal(sub.theta, series.theta)

    def test_empty_window_is_valid(self):
        sub = slice_series(make_series(), Window(50.0, 50.0))
        assert sub.grid.n_samples == 0
        assert sub.sensors.shape == (7, 0)

    def test_window_outside_run_raises(self):
        series = make_series()
        with pytest.raises(ValueError):
            slice_series(series, Window(50.0, 120.0))
        with pytest.raises(ValueError):
            slice_series(series, Window(-1.0, 10.0))

    def test_slice_keeps_time_alignment(self):
        series = make_series()
        sub = slice_series(series, TRAIN_WINDOW)
        assert sub.grid.t0 == 50.0
        assert sub.theta[0] == series.theta[2000]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 4000), st.integers(0, 4000), st.integers(0, 4000))
    def test_slice_composes(self, i, j, k):
        a, b, c = sorted((i, j, k))
        series = make_series()
        rate = series.grid.sample_rate
        wa_c = Window(a / rate, c / rate)
        wa_b = Window(a / rate, b / rate)
        direct = slice_series(series, wa_b)
        nested = slice_series(slice_series(series, wa_c), wa_b)
        assert direct.grid == nested.grid
        assert np.array_equal(direct.sensors, nested.sensors)
        assert np.array_equal(direct.theta, nested.theta)


class TestPressureStateSeries:
    def test_shape_validation(self):
        grid = TimeGrid(n_samples=10)
        good = np.zeros(10)
        with pytest.raises(ValueError):
            PressureStateSeries(grid, np.zeros(9), np.zeros((7, 10)), good)
        with pytest.raises(ValueError):
            PressureStateSeries(grid, good, np.zeros((7, 9)), good)
        with pytest.raises(ValueError):
            PressureStateSeries(grid, good, np.zeros((7, 10)), np.zeros(11))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column, trace, index", [
        ("s_in", "s_in", (3,)),
        ("s1", "sensors", (0, 5)),
        ("s7", "sensors", (6, 0)),
        ("theta", "theta", (9,)),
    ])
    def test_rejects_a_sample_that_is_not_finite(self, column, trace, index,
                                                 bad):
        # such a run would export as inf/nan text that ingest_run refuses
        traces = {"s_in": np.zeros(10), "sensors": np.zeros((7, 10)),
                  "theta": np.zeros(10)}
        traces[trace][index] = bad
        with pytest.raises(ValueError, match=(
                rf"^non-finite value in column '{column}' at sample "
                rf"{index[-1]}$")):
            PressureStateSeries(TimeGrid(n_samples=10), **traces)

    def test_names_the_first_bad_column_then_its_first_bad_sample(self):
        sensors = np.zeros((7, 10))
        sensors[4, 1] = np.nan
        sensors[2, 8] = np.inf
        sensors[2, 6] = -np.inf
        with pytest.raises(ValueError, match="column 's3' at sample 6$"):
            PressureStateSeries(TimeGrid(n_samples=10), np.zeros(10),
                                sensors, np.zeros(10))

    def test_arrays_are_read_only(self):
        series = make_series()
        with pytest.raises(ValueError):
            series.sensors[0, 0] = 1.0
        with pytest.raises(ValueError):
            series.theta[0] = 1.0

    def test_a_writable_array_is_copied_and_a_frozen_owner_kept(self):
        grid = TimeGrid(n_samples=10)
        s_in, sensors = np.arange(10.0), np.ones((2, 10))
        theta = np.zeros(10)
        theta.setflags(write=False)
        series = PressureStateSeries(grid, s_in, sensors, theta)
        s_in[0] = sensors[0, 0] = 5.0
        assert series.s_in[0] == 0.0 and series.sensors[0, 0] == 1.0
        assert series.theta is theta
        # a read-only view of another array is not its own: copied
        view = np.ones((3, 10))[1:]
        view.setflags(write=False)
        assert PressureStateSeries(grid, s_in, view, theta).sensors is not view

    def test_window_indices_match_floor_convention(self):
        grid = TimeGrid()
        assert window_indices(grid, Window(50.0, 75.0)) == (2000, 3000)
        assert window_indices(grid, Window(0.0, 100.0)) == (0, 4000)


def _absolutes(share):
    return [abs(k) for k in share]


def _spy_forks(monkeypatch):
    """The names of the functions `core.forked` starts in children,
    appended as each fork is asked for."""
    children = []
    real = core.forked

    def spy(fn, *args):
        children.append(fn.__name__)
        return real(fn, *args)

    monkeypatch.setattr(core, "forked", spy)
    return children


def _run_fresh(code, timeout):
    """``code`` in a fresh interpreter that imports this checkout's armrc."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is buffered
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _outcome(call):
    """``call()``'s result, or the type and message of what it raised."""
    try:
        return "returned", call()
    except Exception as exc:
        return type(exc), str(exc)


class TestForkMap:
    # `fork_map` gives each usable CPU one contiguous share of the items,
    # and joins the children's replies in share order
    @settings(max_examples=200, deadline=None)
    @given(cpus=st.integers(1, 8), n_items=st.integers(0, 60),
           data=st.data())
    def test_shares_are_contiguous_in_order_and_even(self, cpus, n_items,
                                                     data):
        # `core.forked` runs the child in-process into a BytesIO reply, so
        # no process starts; every item from ``failing`` on raises
        failing = data.draw(st.none() | st.integers(0, max(n_items - 1, 0)))
        items = list(range(n_items))
        shares = []

        def fn(share):
            for k in share:
                if failing is not None and k >= failing:
                    raise ValueError(f"item {k}")
            return [k * k for k in share]

        @contextlib.contextmanager
        def fake_forked(child, *args):
            shares.append(list(args[1]))
            reply = io.BytesIO()
            child(reply, *args)
            reply.seek(0)
            yield reply

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            mp.setattr(core, "forked", fake_forked)
            mapped = _outcome(lambda: fork_map(fn, items))
        assert mapped == _outcome(lambda: fn(items))
        width = min(cpus, n_items)
        assert len(shares) == (width if width > 1 else 0)
        if shares:
            assert [k for share in shares for k in share] == items
            sizes = [len(share) for share in shares]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_output_buffered_before_the_fork_is_written_once(self):
        # a forked child inherits the parent's stdio buffers: they are
        # flushed before the fork, so no child writes them a second time;
        # what a child prints is flushed before it leaves with os._exit
        proc = _run_fresh(
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from armrc.core import fork_map\n"
            "def shout(share):\n"
            "    for k in share:\n"
            "        print('child', k)\n"
            "    return [abs(k) for k in share]\n"
            "print('before')\n"
            "print('before', file=sys.stderr)\n"
            "assert fork_map(shout, [-1, -2, -3, -4]) == [1, 2, 3, 4]\n",
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "before" and proc.stderr == "before\n"
        assert sorted(lines[1:]) == [f"child {k}" for k in (-1, -2, -3, -4)]

    def test_a_child_that_dies_is_an_error_naming_its_status(self):
        # a dead child's pipe ends, so the map neither waits for a reply
        # that will never come nor leaves either child unreaped
        proc = _run_fresh(
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from armrc.core import fork_map\n"
            "def share_of(share):\n"
            "    if 3 in share:\n"
            "        os._exit(3)\n"
            "    return share\n"
            "try:\n"
            "    fork_map(share_of, range(4))\n"
            "except ChildProcessError as exc:\n"
            "    print(exc)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n",
            timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("a forked child exited with status 3\n"
                               "no child left\n")

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_results_and_the_first_error_are_the_serial_ones(
            self, cpus, monkeypatch):
        # one child per share; the results come back in item order, and of
        # several failing shares the first one's error is raised
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        children = _spy_forks(monkeypatch)
        assert fork_map(lambda share: [k * k for k in share],
                        range(7)) == [k * k for k in range(7)]
        assert children == ["_map_share"] * cpus

        def fail_from_4(share):
            for k in share:
                if k >= 4:
                    raise ValueError(f"item {k}")
            return share

        with pytest.raises(ValueError, match="^item 4$"):
            fork_map(fail_from_4, range(7))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_forked_child_maps_in_process(self, monkeypatch):
        # a child's parent already keeps every usable CPU busy
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        children = _spy_forks(monkeypatch)

        def inner(share):  # the forks asked for inside a child, sent back
            before = len(children)
            assert [fork_map(_absolutes, [-k, k]) for k in share] == [
                [k, k] for k in share]
            return [children[before:] for _ in share]

        assert fork_map(inner, [1, 2]) == [[], []]
        assert children == ["_map_share"] * 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors through /proc")
    @pytest.mark.parametrize("failing", [1, 2])
    def test_a_fork_that_fails_leaves_no_pipe_and_no_child(self, failing,
                                                           monkeypatch):
        # the fork's own error passes; a child already forked is reaped
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real, forks = os.fork, []

        def fork():
            forks.append(1)
            if len(forks) == failing:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", fork)
        before = set(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            fork_map(_absolutes, [-1, -2])
        assert set(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
