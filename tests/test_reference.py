"""Every armrc command's output against `reference`, the plain numpy
pipeline, on small drawn configs. Every number must match within 1e-10
relative or 1e-12 absolute, NaN for NaN; a readout-weight share within
1e-10 of its row's 100% (`SHARE_ATOL`)."""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import reference
from armrc import cli
from armrc.config import load_config, training_window
from armrc.core import PressureStateSeries, Window, condition_grid
from armrc.readout import NORMALIZERS
from armrc.runio import export_run, ingest_run
from armrc.tasks import TaskKind
from conftest import read_matrix_csv
from test_surrogate import banded_arm, banded_arms

# A weight share is 100 |w_m| / sum |w| over its row's sensors. Both
# pipelines fit w to within a small fraction of the row's weights, and
# that error moves every share by as small a fraction of the row's 100%,
# however small the share itself: a 0.005% share can move by 3e-9 of
# itself. So the relative bar is taken of the row's sum, in percentage
# points. (On 21 drawn 8-sensor arms whose shares crossed the relative bar
# of their own value, the package and the reference each stayed within
# 8.3e-11 points of a 60-digit solve of the same design, neither closer
# throughout.)
SHARE_ATOL = 1e-10 * 100.0


@st.composite
def configs(draw):
    """A small valid config as parsed YAML: 2-4 profiles, 3-4 payloads,
    2-4 multitask payloads (0 g first), an arm of 1-9 nodes with a coupling of bandwidth 0-2, a 100 s run at 4-16 Hz
    (100-400 samples per window), 1-3 sample counts and 1-3 repeats, ridge
    0 or 0.5, either normalizer and any seed below 2**32."""
    params, _, _ = draw(banded_arms(max_width=2))
    rate = draw(st.integers(4, 16))
    grams = st.lists(st.integers(1, 400), min_size=1, max_size=3, unique=True)
    return {
        "grid": {"sample_rate": float(rate), "n_samples": 100 * rate},
        # at least 6 s a cycle: 17 cycles ramp through the whole run
        "profiles": [{"u_min": lo, "u_max": lo + swing, "n_cycles": 17}
                     for lo, swing in draw(st.lists(st.tuples(
                         st.floats(0.0, 15.0), st.floats(15.0, 35.0)),
                         min_size=2, max_size=4))],
        # 3 payloads at least, as `sweeps.experiments` requires: the payload
        # experiment then trains on two or more masses
        "payloads": sorted(draw(st.lists(st.integers(0, 400), min_size=3,
                                         max_size=4, unique=True))),
        "multitask_payloads": [0] + sorted(draw(grams)),
        "surrogate": json.loads(json.dumps(dataclasses.asdict(params))),
        "sample_counts": draw(st.lists(st.integers(1, 25 * rate),
                                       min_size=1, max_size=3)),
        "sample_repeats": draw(st.integers(1, 3)),
        "ridge": draw(st.sampled_from([0.0, 0.5])),
        "normalizer": draw(st.sampled_from(NORMALIZERS)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@contextlib.contextmanager
def config_file(doc):
    """A fresh directory holding ``doc`` as cfg.yaml, and its config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        yield Path(tmp), load_config(path)


def assert_close(got, want, atol=1e-12):
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-10, atol=atol, equal_nan=True)


def pinned(w, seed, diagonal):
    """An 8-sensor arm (`banded_arm` of these draws) at 4 Hz on two ramps,
    on whose payload_weight_shares.csv the package and the reference
    differ by more than 1e-10 of a small share's own value."""
    params, _ = banded_arm(8, w, seed, diagonal)
    return {
        "grid": {"sample_rate": 4.0, "n_samples": 400},
        "profiles": [{"u_min": 0.0, "u_max": 24.5, "n_cycles": 17},
                     {"u_min": 0.0, "u_max": 15.0, "n_cycles": 17}],
        "payloads": [0, 372, 388], "multitask_payloads": [0, 1],
        "surrogate": json.loads(json.dumps(dataclasses.asdict(params))),
        "sample_counts": [1], "sample_repeats": 1, "ridge": 0.0,
        "normalizer": "range", "seed": 3736204}


def run_main(*argv) -> str:
    """``armrc <argv>``'s stdout; it must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


@settings(max_examples=5, deadline=None)
@given(doc=configs())
def test_simulate_writes_the_reference_runs(doc):
    with config_file(doc) as (tmp, cfg):
        run_main("simulate", "--config", tmp / "cfg.yaml", "--out", tmp,
                 "--quiet")
        conds = condition_grid(len(cfg.profiles), cfg.payloads)
        assert sorted(p.stem for p in (tmp / "runs").glob("*.csv")) == sorted(
            c.label for c in conds)
        for cond, want in reference.simulate(cfg, conds, cfg.seed).items():
            got = ingest_run(tmp / "runs" / f"{cond.label}.csv")
            assert (got.condition, got.payload_grams) == (cond, want.mass)
            assert np.array_equal(got.s_in, reference.trace(cfg, cond))
            assert_close(got.sensors, want.sensors)
            assert_close(got.theta, want.theta)


@pytest.mark.parametrize("kind", list(cli.SWEEPS))
@settings(max_examples=5, deadline=None)
@given(doc=configs())
# the s8 share of s6+s7+s8: 3.3e-9 of a 0.0046% share, and 8.2e-11 points
@example(doc=pinned(2, 3749382835, False))
@example(doc=pinned(0, 451169310, False))
# every count 1..n + 2 on the 8-sensor arm: fits on 1 to 10 rows a
# condition, windows shorter than their 9-square R and longer
@example(doc={**pinned(1, 7, True), "sample_counts": list(range(1, 11)),
              "sample_repeats": 2})
def test_sweep_writes_the_reference_tables(kind, doc):
    with config_file(doc) as (tmp, cfg):
        cli._sweep(kind, cfg, tmp, "digest")
        tables = reference.SWEEPS[kind](cfg)
        assert sorted(p.name for p in tmp.glob("*.csv")) == sorted(tables)
        for name, (matrix, rows, cols) in tables.items():
            got, got_rows, got_cols, _ = read_matrix_csv(tmp / name)
            assert (got_rows, got_cols) == (rows, cols)
            assert_close(got, matrix, SHARE_ATOL if name.endswith(
                "_weight_shares.csv") else 1e-12)


@settings(max_examples=5, deadline=None)
@given(doc=configs(), data=st.data())
def test_train_and_evaluate_give_the_reference_numbers(doc, data):
    with config_file(doc) as (tmp, cfg):
        task = data.draw(st.sampled_from([t.value for t in TaskKind]))
        grid = condition_grid(len(cfg.profiles), cfg.payloads)
        subset = data.draw(st.lists(st.sampled_from(grid), min_size=1,
                                    max_size=4, unique=True))
        mask = data.draw(st.none() | st.lists(
            st.integers(0, cfg.surrogate.n_nodes - 1), min_size=1, unique=True))
        mask_args = () if mask is None else (
            "--mask", ",".join(f"s{m + 1}" for m in mask))
        run_main("train", "--config", tmp / "cfg.yaml", "--task", task,
                 "--subset", ",".join(c.label for c in subset), *mask_args,
                 "--out", tmp / "w.json", "--quiet")
        runs = reference.simulate(cfg, subset, cfg.seed)
        want = reference.train(cfg, runs, subset, task,
                               training_window(cfg, TaskKind(task)), mask)
        got = np.array(json.loads((tmp / "w.json").read_text())["weights"])[:, 0]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

        # evaluate reads the reference's own run of a drawn condition
        cond = data.draw(st.sampled_from(grid))
        run = reference.simulate(cfg, [cond], cfg.seed)[cond]
        export_run(PressureStateSeries(cfg.grid, reference.trace(cfg, cond),
                                       run.sensors, run.theta, cond, run.mass),
                   tmp / "run.csv")
        window = data.draw(st.sampled_from(["train", "test", "full"]))
        line = run_main("evaluate", "--config", tmp / "cfg.yaml", "--weights",
                        tmp / "w.json", "--run", tmp / "run.csv", "--window",
                        window)
        printed = dict(field.split("=") for field in line.split())
        fields = reference.evaluate(cfg, task, want, run, {
            "train": cfg.train, "test": cfg.test,
            "full": Window(0.0, cfg.grid.duration)}[window], mask)
        assert printed.keys() == fields.keys()
        for key, value in fields.items():
            if isinstance(value, str):
                assert printed[key] == value
            else:  # within half a unit of the last printed decimal
                decimals = len(printed[key].partition(".")[2])
                assert abs(float(printed[key]) - value) <= 0.5 * 10**-decimals
