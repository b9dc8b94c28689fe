import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import armrc
import reference
from armrc import cli, core, readout, surrogate, sweeps
from armrc.cli import main
from armrc.config import (ExperimentConfig, build_config, default_config,
                          training_window)
from armrc.core import (InputCondition, PayloadSet, PressureStateSeries,
                        TimeGrid)
from armrc.profiles import RampProfileSpec
from armrc.readout import ReadoutWeights, full_width
from armrc.runio import export_run, ingest_run, load_weights, save_weights
from armrc.surrogate import simulate_conditions
from armrc.sweeps import experiments
from armrc.tasks import TaskKind, score
from conftest import read_matrix_csv


def _kept_from(kind: str) -> dict:
    """Each default-config run of `sweep kind` and the first sample it is
    kept from: 2,000, the train window's (50 s at 40 Hz), for a run a fit
    trains on, and 3,000, the test window's, for any other. The condition
    sweep trains on every run; the sample and sensor sweeps on P1 and P7 at
    M1 and on M2..M7 at P1, so P2..P6 at M1 are scored only; the multitask
    geometries on their cells (2x2 lies within 5x2), 13 of 35."""
    if kind == "multitask":
        cells = [(i, j) for i in range(1, 8) for j in range(1, 6)]
        trained = ({(i, j) for i in (1, 2, 4, 6, 7) for j in (1, 5)}
                   | {(i, j) for i in (1, 4, 7) for j in (1, 3, 5)})
    else:
        cells = [(i, 1) for i in range(1, 8)] + [(1, j) for j in range(2, 8)]
        trained = (set(cells) if kind == "conditions" else
                   {(1, 1), (7, 1)} | {(1, j) for j in range(2, 8)})
    return {InputCondition(*c): 2000 if c in trained else 3000 for c in cells}


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    assert main(["simulate", "--out", str(out), "--quiet"]) == 0
    return out


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--bogus"])
        assert err.value.code == 2


class TestSimulate:
    def test_writes_all_49_runs_with_sidecars(self, grid_dir):
        runs = sorted((grid_dir / "runs").glob("*.csv"))
        assert len(runs) == 49
        assert (grid_dir / "runs" / "P1M1.meta.json").exists()
        manifest = json.loads((grid_dir / "manifest.json").read_text())
        assert manifest["n_runs"] == 49


# 49 runs of 400 rows: the default grid at a tenth of its sample rate
SMALL_RUNS = "grid: {sample_rate: 4.0, n_samples: 400}\nsample_counts: [10]\n"


def _python(code, argv):
    """``python -c code argv`` in a fresh interpreter that imports this
    checkout's armrc."""
    src = str(Path(armrc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code] + argv, env=env,
                          capture_output=True, text=True, timeout=120)


def _fresh(argv, cpus):
    """``armrc <argv>`` in a fresh interpreter that sees ``cpus`` CPUs, so
    the export pool runs (or not) whatever the host has."""
    return _python("import os, sys; os.sched_getaffinity = lambda pid: "
                   f"set(range({cpus})); from armrc.cli import main; "
                   "sys.exit(main(sys.argv[1:]))", argv)


def _main_on_cpus(argv, cpus, monkeypatch, status=0):
    """``main(argv)``, which must exit ``status``, seeing ``cpus`` usable
    CPUs; returns the name of the function each child `core.forked` started
    ran, in order."""
    children = []
    real = core.forked

    def spy(fn, *args):
        children.append(fn.__name__)
        return real(fn, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(core, "forked", spy)
    assert main(argv) == status
    return children


def _no_child_left():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tree(out):
    """{relative path: bytes} of every file under ``out`` but the manifest,
    and the manifest's ``outputs``."""
    files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
             if p.is_file() and p.name != "manifest.json"}
    return files, json.loads((out / "manifest.json").read_text())["outputs"]


class TestSimulatePool:
    # the grid is simulated and its run files written by one forked child
    # per usable CPU, each a contiguous share of the grid, or in-process
    # with one; nothing about the output may tell which
    @pytest.fixture
    def small(self, tmp_path):
        cfg = tmp_path / "small.yaml"
        cfg.write_text(SMALL_RUNS)
        return cfg

    def _simulate(self, out, small, cpus, monkeypatch, status=0):
        return _main_on_cpus(["simulate", "--config", str(small), "--out",
                              str(out), "--quiet"], cpus, monkeypatch, status)

    def test_pool_and_one_process_write_the_same_tree(self, small, tmp_path,
                                                      monkeypatch):
        pooled, alone = tmp_path / "pooled", tmp_path / "alone"
        assert self._simulate(pooled, small, 2, monkeypatch) == [
            "_map_share"] * 2
        assert self._simulate(alone, small, 1, monkeypatch) == []
        files = sorted(p.relative_to(pooled) for p in pooled.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        assert len(files) == 98
        assert files == sorted(p.relative_to(alone) for p in alone.rglob("*")
                               if p.is_file() and p.name != "manifest.json")
        for name in files:
            assert (pooled / name).read_bytes() == (alone / name).read_bytes()
        outputs = [json.loads((out / "manifest.json").read_text())["outputs"]
                   for out in (pooled, alone)]
        assert outputs[0] == outputs[1] == sorted(map(str, files))

    def test_no_run_crosses_the_pipe(self, small, tmp_path, monkeypatch):
        def refuse(self, protocol):
            raise AssertionError("a run was pickled")

        monkeypatch.setattr(PressureStateSeries, "__reduce_ex__", refuse)
        out = tmp_path / "out"
        assert self._simulate(out, small, 2, monkeypatch) == [
            "_map_share"] * 2
        assert len(list((out / "runs").glob("*.csv"))) == 49

    def test_a_worker_error_is_one_error_line_and_no_manifest(
            self, small, tmp_path, monkeypatch, capsys):
        real = surrogate.simulate_batch

        def fail_on_p7m7(*args, conditions, **kwargs):
            if InputCondition(7, 7) in conditions:
                raise ValueError("cannot simulate P7M7")
            return real(*args, conditions=conditions, **kwargs)

        monkeypatch.setattr(surrogate, "simulate_batch", fail_on_p7m7)
        out = tmp_path / "out"
        assert self._simulate(out, small, 2, monkeypatch, status=1) == [
            "_map_share"] * 2
        assert capsys.readouterr().err == "error: cannot simulate P7M7\n"
        assert not (out / "manifest.json").exists()
        # the other worker's share succeeded, yet none of its files stays
        assert list(out.rglob("*.csv")) == []
        assert list(out.rglob("*.meta.json")) == []
        _no_child_left()

    def test_a_run_path_in_the_way_is_one_error_line(self, small, tmp_path,
                                                     monkeypatch, capsys):
        out = tmp_path / "out"
        (out / "runs" / "P3M4.csv").mkdir(parents=True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rc = main(["simulate", "--config", str(small), "--out", str(out),
                   "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "P3M4.csv" in err
        # the runs before P3M4 were in place; they are taken out again
        assert [p for p in out.rglob("*") if p.is_file()] == []
        _no_child_left()

    def test_a_run_path_in_the_way_spares_an_earlier_runs_files(
            self, small, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert self._simulate(out, small, 2, monkeypatch) == [
            "_map_share"] * 2
        (out / "runs" / "P3M4.csv").unlink()
        (out / "runs" / "P3M4.csv").mkdir()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        self._simulate(out, small, 2, monkeypatch, status=1)
        assert "P3M4.csv" in capsys.readouterr().err
        # refused before anything moved: every earlier file is as it was
        assert {p: p.read_bytes()
                for p in out.rglob("*") if p.is_file()} == before

    def test_a_move_that_fails_leaves_no_stale_manifest(
            self, small, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert self._simulate(out, small, 2, monkeypatch) == [
            "_map_share"] * 2
        real = Path.replace

        def refuse_p3m4(self, target):
            if Path(target).name == "P3M4.csv":
                raise PermissionError(13, "Permission denied", str(target))
            return real(self, target)

        monkeypatch.setattr(Path, "replace", refuse_p3m4)
        self._simulate(out, small, 2, monkeypatch, status=1)
        assert "P3M4.csv" in capsys.readouterr().err
        # the runs moved before P3M4 are taken out again, so the earlier
        # manifest, which listed them, is gone too
        assert not (out / "manifest.json").exists()
        assert not (out / "runs" / "P1M1.csv").exists()
        assert (out / "runs" / "P7M7.csv").exists()

    def test_a_second_grid_leaves_only_its_own_runs(self, small, tmp_path,
                                                    monkeypatch, capsys):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert self._simulate(out, small, 2, monkeypatch) == [
            "_map_share"] * 2
        two = tmp_path / "two.yaml"
        two.write_text(SMALL_RUNS + "payloads: [0.0, 100.0, 200.0]\n"
                       "profiles:\n  - {u_min: 1.0, u_max: 32.25}\n"
                       "  - {u_min: 3.5, u_max: 34.75}\n")
        for target in (out, fresh):
            self._simulate(target, two, 2, monkeypatch)
        files, outputs = _tree(out)
        assert sorted(map(str, files)) == outputs and len(outputs) == 12
        assert _tree(out) == _tree(fresh)
        # no run of the earlier grid is left to be read beside the new ones
        capsys.readouterr()
        assert main(["correlate", "--runs", str(out / "runs" / "P1M1.csv"),
                     str(out / "runs" / "P7M7.csv")]) == 1
        assert "P7M7" in capsys.readouterr().err

    def test_a_stray_directory_in_runs_is_refused_before_anything_moves(
            self, small, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert self._simulate(out, small, 2, monkeypatch) == [
            "_map_share"] * 2
        (out / "runs" / "notes").mkdir()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        self._simulate(out, small, 2, monkeypatch, status=1)
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "notes" in err
        assert {p: p.read_bytes()
                for p in out.rglob("*") if p.is_file()} == before

    def test_a_run_path_in_the_way_leaves_no_traceback(self, small, tmp_path):
        out = tmp_path / "out"
        (out / "runs" / "P3M4.csv").mkdir(parents=True)
        proc = _fresh(["simulate", "--config", str(small), "--out", str(out),
                       "--quiet"], cpus=2)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    def test_a_piped_stdout_says_wrote_once(self, small, tmp_path):
        proc = _fresh(["simulate", "--config", str(small), "--out",
                       str(tmp_path / "out")], cpus=2)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines()
                if "wrote 49 runs" in line] == [proc.stdout.strip()]


class TestPreload:
    # the modules a forked child uses are imported before `fork_map`, so
    # that each child inherits them rather than importing them itself
    @pytest.mark.parametrize("argv, modules", [
        (["simulate"], ["numpy.random", "orjson"]),
        (["sweep", "samples"], ["numpy.random"]),
    ], ids=["simulate", "samples"])
    def test_a_childs_modules_are_imported_before_the_fork(
            self, argv, modules, tmp_path):
        cfg = tmp_path / "small.yaml"
        cfg.write_text(SMALL_RUNS + "sample_repeats: 3\n")
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from armrc import cli\n"
            "real = cli.fork_map\n"
            "def spy(fn, items):\n"
            f"    print([m for m in {modules!r} if m not in sys.modules])\n"
            "    return real(fn, items)\n"
            "cli.fork_map = spy\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = _python(code, argv + ["--config", str(cfg), "--out",
                                     str(tmp_path / "out"), "--quiet"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestSamplesPool:
    # sweep samples runs its seeds on one forked child per usable CPU, or
    # in-process with one; nothing about the output may tell which
    def test_pool_and_one_process_write_the_same_tree(self, tmp_path,
                                                      monkeypatch):
        cfg = tmp_path / "small.yaml"
        cfg.write_text(SMALL_RUNS + "sample_repeats: 2\n")
        trees = {}
        for cpus, children in ((2, ["_map_share"] * 2), (1, [])):
            out = tmp_path / f"cpus{cpus}"
            assert _main_on_cpus(["sweep", "samples", "--config", str(cfg),
                                  "--out", str(out), "--quiet"],
                                 cpus, monkeypatch) == children
            trees[cpus] = _tree(out)
        files, outputs = trees[2]
        assert trees[1] == trees[2]
        assert sorted(map(str, files)) == outputs and len(outputs) == 4


class TestFreshProcessForks:
    # a fresh process that imported numpy first and may use 2 CPUs forks
    # only `fork_map` children: every noisy batch draws its noise
    # in-process, and numpy.random is imported at the first draw, never by
    # importing the CLI. The spy replaces every armrc module's binding of
    # `core.forked`, so a fork asked for by a module that imported it by
    # name counts too.
    SPY = (
        "import os, sys\n"
        "import numpy\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "import armrc.cli\n"
        "print('numpy.random' in sys.modules)\n"
        "real, children = armrc.core.forked, []\n"
        "def spy(fn, *args):\n"
        "    children.append(fn.__name__)\n"
        "    return real(fn, *args)\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.startswith('armrc') and getattr(module, 'forked', None) "
        "is real:\n"
        "        module.forked = spy\n"
        "print(armrc.cli.main(sys.argv[1:]), children)\n")

    @pytest.mark.parametrize("argv, children", [
        (["sweep", "conditions"], []),
        (["sweep", "multitask"], []),
        # ten seeds: five on each of two children
        (["sweep", "samples"], ["_map_share"] * 2),
        # one seed, in-process
        (["sweep", "samples", "--config", "one_repeat.yaml"], []),
        (["sweep", "sensors"], []),
        (["train", "--task", "mass", "--subset", "M2,M3,M4,M5,M6,M7"], []),
    ], ids=["conditions", "multitask", "samples", "samples-one-repeat",
            "sensors", "train"])
    def test_forks_only_fork_map_children(self, argv, children, tmp_path):
        out = tmp_path / ("mass.json" if argv[0] == "train" else "out")
        (tmp_path / "one_repeat.yaml").write_text("sample_repeats: 1\n")
        argv = [str(tmp_path / a) if a.endswith(".yaml") else a for a in argv]
        proc = _python(self.SPY, argv + ["--out", str(out), "--quiet"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"False\n0 {children}\n"
        if argv[1] == "samples":  # a mean and a std at any number of seeds
            assert sorted(p.name for p in out.glob("*.csv")) == [
                f"{name}_sample_counts_{stat}.csv"
                for name in ("bending", "payload") for stat in ("mean", "std")]


class TestImportCost:
    def test_importing_the_cli_loads_no_openssl(self):
        # `config_digest` imports hashlib when it hashes: its libcrypto
        # mapping is a few MiB of every armrc process's peak RSS
        proc = _python("import sys, armrc.cli; print(sorted("
                       "{'hashlib', '_hashlib'} & set(sys.modules)))", [])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestTrainEvaluate:
    def test_train_then_evaluate(self, grid_dir, tmp_path, capsys):
        weights = tmp_path / "w.json"
        assert main(["train", "--task", "bending", "--subset", "P1,P7",
                     "--out", str(weights), "--quiet"]) == 0
        assert weights.exists()
        rc = main(["evaluate", "--weights", str(weights),
                   "--run", str(grid_dir / "runs" / "P4M1.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "task=bending" in out
        assert "nrmse_percent=" in out

    def test_detection_weights_report_a_verdict(self, grid_dir, tmp_path, capsys):
        weights = tmp_path / "wd.json"
        assert main(["train", "--task", "detect", "--subset", "M1,M2",
                     "--out", str(weights), "--quiet"]) == 0
        rc = main(["evaluate", "--weights", str(weights),
                   "--run", str(grid_dir / "runs" / "P1M5.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict=present" in out
        assert "correct=True" in out

    @pytest.mark.parametrize("task, subset, factors", [
        ("mass", "M2,M3,M4,M5,M6,M7", 0), ("detect", "M1,M2", 0),
        ("bending", "P1,P7", 1)])
    def test_only_bending_weights_factor_the_window(
            self, grid_dir, tmp_path, capsys, monkeypatch, task, subset,
            factors):
        # mass and detect lines read the window's column means alone
        weights = tmp_path / f"{task}.json"
        assert main(["train", "--task", task, "--subset", subset,
                     "--out", str(weights), "--quiet"]) == 0
        run = grid_dir / "runs" / "P1M5.csv"
        series, (w,) = ingest_run(run), full_width(
            load_weights(weights)[0], 7)
        mean = score(TaskKind.PAYLOAD_DETECT, series, default_config().test, w)
        calls, real = [], readout.factor

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(readout, "factor", spy)
        assert main(["evaluate", "--weights", str(weights),
                     "--run", str(run)]) == 0
        assert len(calls) == factors
        if not factors:
            # the window mean of the design's column means
            assert f"={mean:.4f} " in capsys.readouterr().out

    def test_mask_mismatch_is_a_machine_parsable_failure(self, grid_dir,
                                                         tmp_path, capsys):
        weights = tmp_path / "wm.json"
        assert main(["train", "--task", "bending", "--subset", "P1,P7",
                     "--mask", "s5,s6,s7", "--out", str(weights),
                     "--quiet"]) == 0
        doc = json.loads(weights.read_text())
        doc["sensor_mask"] = [4, 5, 6, 7]
        weights.write_text(json.dumps(doc))
        rc = main(["evaluate", "--weights", str(weights),
                   "--run", str(grid_dir / "runs" / "P1M1.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")


class TestMultitaskEvaluate:
    def test_evaluate_prints_the_numbers_of_the_multitask_grid(
            self, cfg, multitask_runs, tmp_path, capsys):
        # `armrc evaluate` of the saved 3x3 readout, on each cell's run,
        # prints what `multitask_grid` reports for that cell
        payloads = cfg.multitask_payloads
        cells = sweeps.multitask_training_subsets()["3x3"]
        res = sweeps.multitask_grid(cells, multitask_runs, payloads)
        fits, targets = sweeps._plan(sweeps.MULTITASK_TASKS, multitask_runs,
                                     payloads, None, (cells,), cfg.train)
        (w,) = sweeps._solve(fits, multitask_runs, targets, cfg.ridge)
        weights = save_weights(tmp_path / "w.json", ReadoutWeights(
            w.T, tuple(range(7)),
            tuple(t.value for t in sweeps.MULTITASK_TASKS)))
        compared = 0
        for (i, j), detect in np.ndenumerate(res.detect_output):
            cond = InputCondition(i + 1, j + 1)
            run = export_run(multitask_runs[cond],
                             tmp_path / f"{cond.label}.csv")
            assert main(["evaluate", "--weights", str(weights),
                         "--run", str(run)]) == 0
            lines = dict(line.split(" ", 1)
                         for line in capsys.readouterr().out.splitlines())
            assert lines["task=detect"].startswith(
                f"mean_output={detect:.4f} ")
            for grid, task, key in (
                    (res.angle_error, "bending", "nrmse_percent"),
                    (res.mass_error, "mass", "relative_error_percent")):
                if not np.isnan(grid[i, j]):
                    compared += 1
                    assert f"{key}={grid[i, j]:.4f}" in lines[f"task={task}"]
        assert compared > 35


class TestFullWindow:
    # `--window full` is the run's own clock, not the config's 100 s
    @pytest.fixture(scope="class")
    def bending_weights(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("full") / "w.json"
        assert main(["train", "--task", "bending", "--subset", "P1,P7",
                     "--out", str(path), "--quiet"]) == 0
        return path

    @pytest.mark.parametrize("seconds", [80, 120])
    def test_scores_the_whole_run(self, bending_weights, tmp_path, capsys,
                                  seconds):
        cfg = default_config()
        cond = InputCondition(4, 1)
        grid = TimeGrid(sample_rate=40.0, n_samples=40 * seconds)
        run = simulate_conditions(cfg.surrogate, cfg.profiles, cfg.payloads,
                                  grid, [cond])[cond]
        path = export_run(run, tmp_path / "P4M1.csv")
        rc = main(["evaluate", "--weights", str(bending_weights),
                   "--run", str(path), "--window", "full"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        (line,) = captured.out.splitlines()
        got = float(line.split("nrmse_percent=")[1])
        weights, _ = load_weights(bending_weights)
        ref = reference.nrmse(reference.design(run.sensors)
                              @ weights.weights[:, 0], run.theta)
        # printed to 4 decimals
        assert got == pytest.approx(ref, abs=6e-5)


class TestSweeps:
    def test_conditions_sweep_layout(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "conditions", "--out", str(out), "--quiet"]) == 0
        matrix, rows, cols, comment = read_matrix_csv(out / "bending_subsets.csv")
        assert matrix.shape == (7, 7)
        assert cols == [f"P{i}M1" for i in range(1, 8)]
        assert "config=" in comment and "seed=" in comment
        pairs, rows, _, _ = read_matrix_csv(out / "bending_pairs.csv")
        assert pairs.shape == (21, 7)
        payload, rows, cols, _ = read_matrix_csv(out / "payload_subsets.csv")
        assert payload.shape == (5, 6)
        assert cols == [f"P1M{j}" for j in range(2, 8)]

    def test_samples_sweep_layout(self, tmp_path):
        cfg = tmp_path / "light.yaml"
        cfg.write_text("sample_counts: [200, 400]\nsample_repeats: 2\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "samples", "--config", str(cfg),
                     "--out", str(out), "--quiet"]) == 0
        mean, rows, cols, _ = read_matrix_csv(out / "bending_sample_counts_mean.csv")
        assert rows == ["200", "400"]
        assert mean.shape == (2, 7)
        std, _, _, _ = read_matrix_csv(out / "payload_sample_counts_std.csv")
        assert std.shape == (2, 6)
        assert np.all(std >= 0.0)

    @settings(max_examples=8, deadline=None)
    @given(repeats=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_samples_are_the_mean_and_std_over_the_seeds_seed_plus_r(
            self, repeats, seed):
        # repeat r is one `sample_count_sweep` of the noise-free runs noised
        # at seed + r; each file is its cells' mean or std over r (ddof 0),
        # taken along a last axis of seeds, bit for bit
        cfg = dataclasses.replace(
            build_config({"grid": {"sample_rate": 4.0, "n_samples": 400},
                          "sample_counts": [10, 60, 100]}),
            sample_repeats=repeats, seed=seed)
        noise_free = simulate_conditions(
            cfg.surrogate, cfg.profiles, cfg.payloads, cfg.grid,
            [c for exp in experiments(cfg).values() for c in exp.conditions],
            seed=None)
        with tempfile.TemporaryDirectory() as tmp:
            cli._sweep("samples", cfg, Path(tmp), "digest")
            for name, exp in experiments(cfg).items():
                errors = np.stack([sweeps.sample_count_sweep(
                    exp.task, cfg.sample_counts, exp.subset, exp.evaluation,
                    surrogate.add_noise(cfg.surrogate, dict(noise_free),
                                        seed + r), cfg.payloads,
                    train_window=cfg.train, test_window=cfg.test,
                    ridge=cfg.ridge, normalizer=cfg.normalizer).error_grid
                    for r in range(repeats)], axis=2)
                for stat in ("mean", "std"):
                    got, rows, _, comment = read_matrix_csv(
                        Path(tmp) / f"{name}_sample_counts_{stat}.csv")
                    assert rows == ["10", "60", "100"]
                    assert f"repeats={repeats} seed={seed} " in comment
                    assert got.tobytes() == getattr(errors, stat)(
                        axis=2).tobytes()

    @pytest.mark.parametrize("kind", ["conditions", "samples", "sensors",
                                      "multitask"])
    def test_each_kind_simulates_one_noise_free_batch_and_draws_its_seeds(
            self, kind, tmp_path, monkeypatch):
        batches, draws = [], []
        real_batch, real_blocks = surrogate.simulate_batch, surrogate._noise_blocks

        def batch(*args, **kwargs):
            batches.append((kwargs["conditions"], kwargs["first"]))
            return real_batch(*args, **kwargs)

        def blocks(params, runs, seed, first):
            draws.append((seed, set(runs), first))
            return real_blocks(params, runs, seed, first)

        monkeypatch.setattr(surrogate, "simulate_batch", batch)
        monkeypatch.setattr(surrogate, "_noise_blocks", blocks)
        # one CPU: `sweep samples` draws in-process, where the spy sees it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = ExperimentConfig(sample_counts=(100,), sample_repeats=2)
        getattr(cli, f"_sweep_{kind}")(cfg, tmp_path, "digest")
        table = experiments(cfg)
        if kind == "multitask":  # the 7 x 5 profile x multitask-payload grid
            runs = {InputCondition(i, j) for i in range(1, 8)
                    for j in range(1, 6)}
        else:  # P1..P7 under M1, and M2..M7 under P1
            runs = {c for exp in table.values() for c in exp.conditions}
        assert len(runs) == {"multitask": 35}.get(kind, 13)
        assert len(batches) == 1
        conditions, first = batches[0]
        assert len(conditions) == len(runs) and set(conditions) == runs
        # each run kept from its own first sample (`_kept_from`)
        assert dict(zip(conditions, first)) == _kept_from(kind)
        # every run once a seed: samples at seed + r, the rest at the seed
        assert draws == [(cfg.seed + r, runs, first)
                         for r in range({"samples": 2}.get(kind, 1))]

    def test_sensors_sweep_layout(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "sensors", "--out", str(out), "--quiet"]) == 0
        shares, rows, cols, _ = read_matrix_csv(out / "bending_weight_shares.csv")
        assert cols == [f"s{k}" for k in range(1, 8)]
        assert rows[0] == "s1+s2+s3+s4+s5+s6+s7"
        sums = np.nansum(shares, axis=1)
        assert np.allclose(sums, 100.0)

    def test_multitask_sweep_layout(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "multitask", "--out", str(out)]) == 0
        detect, rows, cols, _ = read_matrix_csv(out / "multitask_2x2_detect.csv")
        assert detect.shape == (7, 5)
        assert cols == ["0g", "100g", "200g", "300g", "400g"]
        mass, _, _, _ = read_matrix_csv(out / "multitask_2x2_mass.csv")
        assert np.all(np.isnan(mass[:, 0]))
        # the printed summary table restates multitask_summary.csv
        summary, names, _, _ = read_matrix_csv(out / "multitask_summary.csv")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["training", "detection", "step-2",
                                    "mean", "%"]
        for line, name, (perfect, step2) in zip(lines[1:], names, summary):
            verdict = "perfect" if perfect == 1 else "errors"
            assert line.split() == [name, verdict, f"{step2:.2f}"]
        assert len(lines) == 1 + len(names) + 1

    def test_correlate_run_with_itself(self, grid_dir, tmp_path):
        out = tmp_path / "corr.csv"
        run = str(grid_dir / "runs" / "P1M1.csv")
        assert main(["correlate", "--runs", run, run, "--channel", "s7",
                     "--out", str(out), "--quiet"]) == 0
        matrix, _, _, _ = read_matrix_csv(out)
        assert np.allclose(matrix, 1.0)

    def test_correlate_rejects_unknown_channel(self, grid_dir, capsys):
        run = str(grid_dir / "runs" / "P1M1.csv")
        rc = main(["correlate", "--runs", run, "--channel", "s9"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSidecarMismatch:
    @pytest.mark.parametrize("field, value", [("n_samples", 3999),
                                              ("t0", 1.0)])
    def test_sidecar_disagreeing_with_its_csv_is_an_error_line(
            self, grid_dir, tmp_path, capsys, field, value):
        run = tmp_path / "P1M1.csv"
        shutil.copy(grid_dir / "runs" / "P1M1.csv", run)
        meta = json.loads((grid_dir / "runs" / "P1M1.meta.json").read_text())
        meta[field] = value
        (tmp_path / "P1M1.meta.json").write_text(json.dumps(meta))
        rc = main(["correlate", "--runs", str(run), "--channel", "s7",
                   "--out", str(tmp_path / "corr.csv"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "P1M1.csv" in err and field in err

    @pytest.mark.parametrize("field", ["n_sensors", "sample_rate", "t0",
                                       "n_samples"])
    def test_a_sidecar_missing_a_field_is_an_error_line_naming_it(
            self, grid_dir, tmp_path, capsys, field):
        run = tmp_path / "P1M1.csv"
        shutil.copy(grid_dir / "runs" / "P1M1.csv", run)
        meta = json.loads((grid_dir / "runs" / "P1M1.meta.json").read_text())
        del meta[field]
        (tmp_path / "P1M1.meta.json").write_text(json.dumps(meta))
        rc = main(["correlate", "--runs", str(run), "--channel", "s7",
                   "--out", str(tmp_path / "corr.csv"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: P1M1.meta.json: missing field '{field}'\n"


def _edited_run(grid_dir, tmp_path, edit):
    """A copy of run P1M1 whose sidecar is ``edit(sidecar dict)``."""
    run = tmp_path / "P1M1.csv"
    shutil.copy(grid_dir / "runs" / "P1M1.csv", run)
    meta = json.loads((grid_dir / "runs" / "P1M1.meta.json").read_text())
    (tmp_path / "P1M1.meta.json").write_text(json.dumps(edit(meta)))
    return run


SIDECAR_DEFECTS = {
    "sample-rate-zero": (lambda meta: {**meta, "sample_rate": 0},
                         "sample_rate"),
    "not-an-object": (lambda meta: [1], "object"),
    "condition-label": (lambda meta: {**meta, "condition": "P1M1"},
                        "condition"),
    "condition-empty": (lambda meta: {**meta, "condition": {}}, "condition"),
    "n-sensors-fraction": (lambda meta: {**meta, "n_sensors": 7.9},
                           "n_sensors"),
}


class TestMalformedSidecar:
    @pytest.mark.parametrize("defect", SIDECAR_DEFECTS)
    def test_is_one_error_line_naming_the_sidecar_and_field(
            self, grid_dir, tmp_path, capsys, defect):
        edit, field = SIDECAR_DEFECTS[defect]
        run = _edited_run(grid_dir, tmp_path, edit)
        rc = main(["correlate", "--runs", str(run), "--channel", "s7",
                   "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: P1M1.meta.json") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("n_sensors", [0, -1])
    def test_a_run_of_no_sensors_is_one_error_line(self, grid_dir, tmp_path,
                                                   capsys, n_sensors):
        # cut to t,s_in,theta, the run would be correlated as one of no
        # sensors
        run = _edited_run(grid_dir, tmp_path,
                          lambda meta: {**meta, "n_sensors": n_sensors})
        run.write_text("".join(
            ",".join(cells[:2] + cells[-1:]) + "\n"
            for cells in (line.split(",")
                          for line in run.read_text().splitlines())))
        rc = main(["correlate", "--runs", str(run), "--channel", "s_in",
                   "--quiet"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == ("error: P1M1.meta.json: field 'n_sensors': "
                                f"must be an integer >= 1, got {n_sensors}\n")

    def test_a_text_cell_is_an_error_line_naming_the_csv(self, grid_dir,
                                                        tmp_path, capsys):
        run = _edited_run(grid_dir, tmp_path, lambda meta: meta)
        lines = run.read_text().splitlines()
        cells = lines[4].split(",")
        cells[3] = "abc"
        lines[4] = ",".join(cells)
        run.write_text("\n".join(lines) + "\n")
        rc = main(["correlate", "--runs", str(run), "--channel", "s7",
                   "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: P1M1.csv: ") and "abc" in err


CONFIG_DEFECTS = {"profiles": "profiles: [1]\n",
                  "surrogate": "surrogate: [1]\n",
                  "seed": "seed: 1.5\n",
                  "grid": "grid: {n_samples: 4000.5}\n"}


class TestMalformedConfig:
    @pytest.mark.parametrize("key", CONFIG_DEFECTS)
    def test_is_one_config_error_before_anything_runs(self, key, tmp_path,
                                                      capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a malformed config")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(CONFIG_DEFECTS[key])
        rc = main(["train", "--task", "bending", "--subset", "P1",
                   "--config", str(cfg), "--out", str(tmp_path / "w.json"),
                   "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: config:") and err.count("error:") == 1
        assert f"- {key}" in err


class TestNumbersInSections:
    # a bool or a quoted number in a section is one config error naming its
    # field, where it was stored, built a 1 Hz grid or failed a comparison
    @pytest.mark.parametrize("text, problem", [
        ("surrogate: {noise_std: true}\n",
         "- surrogate: noise_std must be numeric, got True"),
        ("grid: {sample_rate: true, n_samples: 100}\n",
         "- grid: sample_rate must be numeric, got True"),
        ("profiles:\n  - {u_min: 1.0, u_max: 32.25, n_cycles: true}\n",
         "- profiles[1]: n_cycles must be numeric, got True"),
        ("windows: {train: [\"50\", \"75\"]}\n",
         "- windows.train: expected a number, got '50'"),
        ("profiles:\n  - {u_min: 1.0, u_max: \"32.25\"}\n",
         "- profiles[1]: u_max must be numeric, got '32.25'"),
        # simulated as a 1 g payload
        ("payloads: [0.0, true, 200.0]\n",
         "- payloads: masses must be numeric, got (0.0, True, 200.0)"),
    ], ids=["noise_std", "sample_rate", "n_cycles", "windows", "u_max",
            "payloads"])
    def test_is_one_config_error_naming_the_field(self, text, problem,
                                                   tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        rc = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: config:") and err.count("error:") == 1
        assert problem in err.splitlines()
        assert not (tmp_path / "out").exists()


class TestNoTraceback:
    # the installed entry point, in a fresh process: one error line, exit 1
    @pytest.mark.parametrize("case", ["profiles", "surrogate",
                                      "sample-rate-zero", "condition-label"])
    def test_a_malformed_input_is_one_error_line(self, case, grid_dir,
                                                 tmp_path):
        if case in CONFIG_DEFECTS:
            cfg = tmp_path / "bad.yaml"
            cfg.write_text(CONFIG_DEFECTS[case])
            argv = ["train", "--task", "bending", "--subset", "P1",
                    "--config", str(cfg), "--out", str(tmp_path / "w.json")]
        else:
            run = _edited_run(grid_dir, tmp_path, SIDECAR_DEFECTS[case][0])
            argv = ["correlate", "--runs", str(run)]
        src = str(Path(armrc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "armrc.cli"] + argv
                              + ["--quiet"], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert [line for line in proc.stderr.splitlines()
                if line.startswith("error:")] == [proc.stderr.splitlines()[0]]


class TestNoRows:
    # a run CSV of a header and no rows, or only blank lines, read in a
    # fresh process: the one error line is all of stderr, no warning first
    @pytest.mark.parametrize("body", ["", "\n\n"],
                             ids=["header-only", "blank-lines"])
    @pytest.mark.parametrize("command", ["correlate", "evaluate"])
    def test_is_exactly_one_error_line(self, command, body, grid_dir,
                                       tmp_path):
        run = _edited_run(grid_dir, tmp_path, lambda meta: meta)
        run.write_text(run.read_text().split("\n", 1)[0] + "\n" + body)
        argv = ["correlate", "--runs", str(run)]
        if command == "evaluate":
            weights = save_weights(tmp_path / "w.json", ReadoutWeights(
                np.zeros((8, 1)), tuple(range(7)), ("bending",)))
            argv = ["evaluate", "--weights", str(weights), "--run", str(run)]
        proc = _fresh(argv, cpus=1)
        assert proc.returncode == 1
        assert proc.stderr == "error: P1M1.csv: no samples\n"


class TestNonFiniteArm:
    # an arm or profile value that is not finite is one config error: a nan
    # noise_std trained noise-free with exit 0, an infinite u_max ran one
    # endless ramp
    @pytest.mark.parametrize("text, field", [
        ("surrogate: {noise_std: .nan}\n", "noise_std"),
        ("surrogate: {payload_sat: .nan}\n", "payload_sat"),
        ("surrogate: {leak_pressure_knee: .inf}\n", "leak_pressure_knee"),
        ("surrogate: {angle_payload_slope: .nan}\n", "angle_payload_slope"),
        ("surrogate: {input_gain: [0.018, 0.02, 0.02, 0.02, 0.03, 0.032, .inf]}\n",
         "input_gain"),
        ("profiles: [{u_min: 1.0, u_max: .inf}]\n", "u_max"),
        ("profiles: [{u_min: .nan, u_max: 32.25}]\n", "u_min"),
        ("profiles: [{u_min: 1.0, u_max: 32.25, r_down: .nan}]\n", "r_down"),
    ])
    def test_is_one_config_error_before_anything_runs(self, text, field,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a non-finite arm")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        rc = main(["train", "--task", "bending", "--subset", "P1",
                   "--config", str(cfg), "--out", str(tmp_path / "w.json"),
                   "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: config:") and err.count("error:") == 1
        assert f"{field} must be finite" in err
        assert not (tmp_path / "w.json").exists()


class TestTrainingWindowBounds:
    # a task's training window starts where the train window does; it must
    # end inside it and hold at least one sample, or the config is refused
    # at load, before any sweep trains on test rows or on nothing
    @pytest.mark.parametrize("key, seconds", [
        ("mass_segment_seconds", 40),  # [50, 90) runs into the test window
        ("mass_segment_seconds", 60),  # [50, 110) runs past the run
        ("detection_seconds", 45),
        ("detection_seconds", 0.01),   # 0.4 samples at 40 Hz
    ])
    def test_a_window_leaving_the_train_window_is_a_config_error(
            self, key, seconds, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{key}: {seconds}\n")
        rc = main(["train", "--task", "bending", "--subset", "P1",
                   "--config", str(cfg), "--out", str(tmp_path / "w.json"),
                   "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: config:")
        assert "training window" in err and key in err


class TestEmptyWindows:
    # a train or test window holding no sample is refused at load, before
    # anything is simulated
    @pytest.mark.parametrize("window", ["train", "test"])
    @pytest.mark.parametrize("argv", [
        ["train", "--task", "bending", "--subset", "P1"],
        ["sweep", "sensors"],
    ], ids=["train", "sweep-sensors"])
    def test_is_a_config_error_naming_the_window(self, argv, window,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a config with an empty window")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        cfg = tmp_path / "empty.yaml"
        cfg.write_text(f"windows: {{{window}: [75.0, 75.0]}}\n")
        rc = main(argv + ["--config", str(cfg), "--out",
                          str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: config:") and err.count("error:") == 1
        assert f"{window} window [75.0, 75.0) holds no samples" in err


class TestPayloadGrams:
    @pytest.fixture(scope="class")
    def mass_weights(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("mass") / "w.json"
        assert main(["train", "--task", "mass", "--subset",
                     "M2,M3,M4,M5,M6,M7", "--out", str(path),
                     "--quiet"]) == 0
        return path

    @pytest.fixture
    def p1m5_400g(self, tmp_path):
        # M5 is 400 g among the multitask payloads, 200 g in the default set
        cfg = default_config()
        cond = InputCondition(1, 5)
        run = simulate_conditions(cfg.surrogate, cfg.profiles,
                                  cfg.multitask_payloads, cfg.grid,
                                  [cond])[cond]
        return export_run(run, tmp_path / "P1M5.csv")

    def test_evaluate_takes_the_truth_from_the_run(self, mass_weights,
                                                   p1m5_400g, capsys):
        rc = main(["evaluate", "--weights", str(mass_weights),
                   "--run", str(p1m5_400g)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "truth_grams=400.0" in captured.out
        assert captured.err == ""

    def test_a_v1_run_takes_its_grams_from_the_index_with_a_warning(
            self, mass_weights, p1m5_400g, capsys):
        sidecar = p1m5_400g.with_suffix(".meta.json")
        meta = json.loads(sidecar.read_text())
        del meta["payload_grams"]
        meta["format"] = "armrc-run-v1"
        sidecar.write_text(json.dumps(meta))
        rc = main(["evaluate", "--weights", str(mass_weights),
                   "--run", str(p1m5_400g)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "truth_grams=200.0" in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:")
        assert "payload_grams" in lines[0] and "P1M5" in lines[0]


def _valid_weights_doc(tmp_path) -> dict:
    path = save_weights(tmp_path / "valid.json",
                        ReadoutWeights(np.ones((8, 1)), tuple(range(7)),
                                       ("bending",)))
    return json.loads(path.read_text())


class TestMalformedWeights:
    @pytest.mark.parametrize("edit, field", [
        (lambda doc: {**doc, "task_names": 5}, "task_names"),
        (lambda doc: {**doc, "sensor_mask": None}, "sensor_mask"),
        (lambda doc: {k: v for k, v in doc.items() if k != "weights"},
         "weights"),
        (lambda doc: {**doc, "weights": [[1.0], [1.0, 2.0]]}, "weights"),
        (lambda doc: [doc], "object"),
        (lambda doc: {**doc, "sensor_mask": [0, 0, 1, 2, 3, 4, 5]},
         "sensor_mask"),
        (lambda doc: {**doc, "sensor_names": doc["sensor_names"][::-1]},
         "sensor_names"),
        # a cell is a JSON number: "0.5" and true were scored as 0.5 and 1
        (lambda doc: {**doc, "weights": [["0.5"]] + doc["weights"][1:]},
         "field 'weights': expected rows of JSON numbers"),
        (lambda doc: {**doc, "weights": [[True]] + doc["weights"][1:]},
         "field 'weights': expected rows of JSON numbers"),
    ], ids=["task-names-number", "mask-null", "no-weights", "ragged-weights",
            "top-level-list", "mask-repeated", "names-reversed",
            "string-cell", "bool-cell"])
    def test_is_one_error_line_naming_the_file_and_field(self, edit, field,
                                                         tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(edit(_valid_weights_doc(tmp_path))))
        rc = main(["evaluate", "--weights", str(path),
                   "--run", str(tmp_path / "absent.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "w.json" in err and field in err


class TestBlasThreadCount:
    # the samples sweep runs on a small config to keep the suite fast
    CONFIGS = {"samples": "sample_repeats: 2\nsample_counts: [100, 1000]\n"}

    @pytest.mark.parametrize("kind, n_csvs", [("sensors", 4),
                                              ("conditions", 3),
                                              ("multitask", 10),
                                              ("samples", 4)])
    def test_sweep_csvs_do_not_depend_on_the_thread_count(self, kind,
                                                           n_csvs, tmp_path):
        src = str(Path(armrc.__file__).resolve().parents[1])
        argv = []
        if kind in self.CONFIGS:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(self.CONFIGS[kind])
            argv = ["--config", str(cfg)]
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH"))
                           if p))
            subprocess.run([sys.executable, "-m", "armrc.cli", "sweep",
                            kind, "--out", str(out), "--quiet"] + argv,
                           env=env, check=True)
            trees.append({p.name: p.read_bytes()
                          for p in sorted(out.glob("*.csv"))})
        assert len(trees[0]) == n_csvs
        assert trees[0] == trees[1]


class TestOneMassWindow:
    def test_condition_and_sensor_sweeps_train_on_the_same_window(self,
                                                                 tmp_path):
        # 4.99 s is 199.6 samples at 40 Hz: a window rounded to whole
        # samples and one floored from seconds would disagree
        cfg = tmp_path / "mass499.yaml"
        cfg.write_text("mass_segment_seconds: 4.99\n")
        for kind in ("conditions", "sensors"):
            assert main(["sweep", kind, "--config", str(cfg), "--out",
                         str(tmp_path / kind), "--quiet"]) == 0
        subsets, rows, cols, _ = read_matrix_csv(
            tmp_path / "conditions" / "payload_subsets.csv")
        ablation, masks, ablation_cols, _ = read_matrix_csv(
            tmp_path / "sensors" / "payload_ablation.csv")
        assert rows[-1] == "+".join(f"P1M{j}" for j in range(2, 8))
        assert masks[0] == "s1+s2+s3+s4+s5+s6+s7"
        assert cols == ablation_cols
        assert np.array_equal(subsets[-1], ablation[0])


FIVE_PROFILES = """profiles:
  - {u_min: 1.0, u_max: 32.25}
  - {u_min: 3.5, u_max: 34.75}
  - {u_min: 6.0, u_max: 37.25}
  - {u_min: 8.5, u_max: 39.75}
  - {u_min: 11.0, u_max: 42.25}
"""


class TestOutOfGridConditions:
    # a sweep's families follow the grid (TestAnyShape); a named condition
    # beyond it is refused
    @pytest.mark.parametrize("argv", [
        ["train", "--task", "bending", "--subset", "P1,P7"],
    ], ids=["train"])
    def test_profile_beyond_the_grid_is_an_error_line(self, argv, tmp_path,
                                                      capsys):
        cfg = tmp_path / "five.yaml"
        cfg.write_text(FIVE_PROFILES)
        rc = main(argv + ["--config", str(cfg), "--out",
                          str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "P7M1" in err and "5x7" in err

    def test_a_missing_run_is_one_plain_error_line(self, tmp_path, capsys,
                                                   monkeypatch):
        # a sweep that lacks a run refuses it as a ValueError: one line,
        # not a KeyError's quoted repr
        monkeypatch.setattr(cli, "_simulate", lambda *args, **kwargs: {})
        rc = main(["train", "--task", "bending", "--subset", "P1",
                   "--out", str(tmp_path / "w.json"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: condition P1M1 is not present in the simulated/loaded "
            "runs\n")
        assert not (tmp_path / "w.json").exists()


def _arm(n):
    """A stable n-node `surrogate` section of per-node vectors, with no
    `coupling`: the nearest-neighbour default follows n_nodes."""
    def per_node(first, last):
        return [round(float(v), 4) for v in np.linspace(first, last, n)]
    return {"n_nodes": n, "leak": per_node(0.14, 0.02),
            "input_gain": per_node(0.018, 0.032),
            "payload_gain": per_node(-0.16, -0.5),
            "angle_weights": per_node(0.33, 0.75),
            "leak_pressure_coeff": per_node(0.9, 0.1)}


def _grid(n_profiles, n_payloads):
    """``n_profiles`` ramp profiles 2.5 psi apart, and ``n_payloads``
    masses 100 g apart, for both payload sets."""
    masses = [100.0 * j for j in range(n_payloads)]
    return {"profiles": [{"u_min": 1.0 + 2.5 * k, "u_max": 32.25 + 2.5 * k}
                         for k in range(n_profiles)],
            "payloads": masses, "multitask_payloads": masses}


class TestAnyShape:
    """Every sweep kind follows the config's shape: p profiles, m payloads,
    n sensors and k multitask payloads give CSVs of the sizes the two index
    rules predict. The runs are short (4 Hz, 100 s) to keep this fast."""

    SHORT = {"grid": {"sample_rate": 4.0, "n_samples": 400},
             "sample_counts": [10, 20], "sample_repeats": 2}

    @staticmethod
    def _sizes(p, m, n, k):
        """Each CSV's (rows, columns): bending families of 1..p profiles and
        all pairs, payload families of 2..m-1 payloads, the all-sensor mask
        and tip masks of n-1..2 sensors, and p x k multitask grids."""
        sizes = {"bending_subsets": (p, p),
                 "bending_pairs": (p * (p - 1) // 2, p),
                 "payload_subsets": (m - 2, m - 1)}
        for name, cols in (("bending", p), ("payload", m - 1)):
            sizes[f"{name}_ablation"] = (n - 1, cols)
            sizes[f"{name}_weight_shares"] = (n - 1, n)
            for stat in ("mean", "std"):
                sizes[f"{name}_sample_counts_{stat}"] = (2, cols)
        # each geometry is named by the cells it trains; a repeat is one
        geometries = {f"{min(a, p)}x{min(b, k)}"
                      for a, b in ((2, 2), (5, 2), (3, 3))}
        sizes["multitask_summary"] = (len(geometries), 2)
        for geometry in geometries:
            for part in ("detect", "angle", "mass"):
                sizes[f"multitask_{geometry}_{part}"] = (p, k)
        return sizes

    @pytest.mark.parametrize("doc, shape", [
        ({"surrogate": _arm(3)}, (7, 7, 3, 5)),
        ({"surrogate": _arm(5)}, (7, 7, 5, 5)),
        ({"surrogate": _arm(9)}, (7, 7, 9, 5)),
        (_grid(3, 3), (3, 3, 7, 3)),
        (_grid(5, 5), (5, 5, 7, 5)),
        (_grid(9, 4), (9, 4, 7, 4)),
    ], ids=["arm3", "arm5", "arm9", "grid3x3", "grid5x5", "grid9x4"])
    def test_every_sweep_runs_with_csvs_of_the_predicted_size(self, doc,
                                                             shape, tmp_path):
        cfg = tmp_path / "shape.yaml"
        cfg.write_text(json.dumps({**self.SHORT, **doc}))
        sizes = {}
        for kind in ("conditions", "samples", "sensors", "multitask"):
            out = tmp_path / kind
            assert main(["sweep", kind, "--config", str(cfg), "--out",
                         str(out), "--quiet"]) == 0
            sizes.update((path.stem, read_matrix_csv(path)[0].shape)
                         for path in out.glob("*.csv"))
        assert sizes == self._sizes(*shape)

    def test_nine_profiles_train_bending_on_both_ends(self):
        cfg = build_config({"profiles": _grid(9, 7)["profiles"]})
        bending = experiments(cfg)["bending"]
        assert bending.subset == (InputCondition(1, 1), InputCondition(9, 1))
        assert bending.families["subsets"][1] == bending.subset


def _csvs(out):
    return sorted(str(p.relative_to(out)) for p in out.rglob("*.csv"))


class TestSweepOutputs:
    """A sweep computes every table before it writes any: one that fails
    writes nothing, and one that succeeds lists each file it wrote in its
    manifest. Short runs, as in `TestAnyShape`."""

    ONE_PROFILE = {"profiles": [{"u_min": 1.0, "u_max": 32.25}]}
    ONE_PAYLOAD = {"payloads": [0.0]}
    TWO_PAYLOADS = {"payloads": [0.0, 100.0]}
    TWO_PROFILES = ("the bending experiment trains on P1+Pn and needs at "
                    "least 2 profiles; the config has 1")
    MULTITASK_TWO_PROFILES = ("the multitask 2x2 geometry trains on P1+Pn and "
                              "needs at least 2 profiles; the config has 1")

    def _sweep(self, kind, doc, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(json.dumps({**TestAnyShape.SHORT, **doc}))
        out = tmp_path / kind
        return main(["sweep", kind, "--config", str(cfg), "--out", str(out),
                     "--quiet"]), out

    @pytest.mark.parametrize("kind, doc, message", [
        ("conditions", ONE_PROFILE, TWO_PROFILES),
        ("samples", ONE_PROFILE, TWO_PROFILES),
        ("sensors", ONE_PROFILE, TWO_PROFILES),
        ("multitask", ONE_PROFILE, MULTITASK_TWO_PROFILES),
        ("conditions", ONE_PAYLOAD, "the payload experiment trains on M2..Mm "
         "and needs at least 3 payloads; the config has 1"),
        ("samples", ONE_PAYLOAD, "needs at least 3 payloads; the config has 1"),
        ("sensors", ONE_PAYLOAD, "needs at least 3 payloads; the config has 1"),
        # M2 alone, which the bias fits exactly: every score is rounding
        ("conditions", TWO_PAYLOADS, "the payload experiment trains on "
         "M2..Mm and needs at least 3 payloads; the config has 2"),
        ("samples", TWO_PAYLOADS, "needs at least 3 payloads; the config has 2"),
        ("sensors", TWO_PAYLOADS, "needs at least 3 payloads; the config has 2"),
    ], ids=["conditions-1-profile", "samples-1-profile", "sensors-1-profile",
            "multitask-1-profile", "conditions-1-payload", "samples-1-payload",
            "sensors-1-payload", "conditions-2-payloads", "samples-2-payloads",
            "sensors-2-payloads"])
    def test_a_failing_sweep_is_one_error_line_and_writes_nothing(
            self, kind, doc, message, tmp_path, capsys):
        rc, out = self._sweep(kind, doc, tmp_path)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_multitask_runs_on_a_2_payload_grid(self, tmp_path, capsys):
        # multitask trains on its own payload set, whatever the grid holds
        rc, out = self._sweep("multitask", self.TWO_PAYLOADS, tmp_path)
        assert rc == 0, capsys.readouterr().err
        assert (out / "multitask_summary.csv").is_file()

    @pytest.mark.parametrize("kind, message", [
        ("conditions", TWO_PROFILES), ("samples", TWO_PROFILES),
        ("sensors", TWO_PROFILES), ("multitask", MULTITASK_TWO_PROFILES),
    ], ids=["conditions", "samples", "sensors", "multitask"])
    def test_one_profile_is_refused_before_any_simulation(
            self, kind, message, tmp_path, capsys, monkeypatch):
        # each kind refuses the grid as the runs it reads are named, before
        # a run is simulated
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a sweep of a 1-profile grid")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        rc, out = self._sweep(kind, self.ONE_PROFILE, tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # 8 cycles of 6 s: both traces hold at u_min from 48 s on, and every
    # bending cell would read rounding as percent errors of 1e8 and more
    SHORT_RAMPS = {"profiles": [{"u_min": 0.0, "u_max": 15.0},
                                {"u_min": 1.0, "u_max": 16.0}]}

    @pytest.mark.parametrize("kind", list(cli.SWEEPS))
    def test_ramps_that_stop_early_are_refused_before_any_simulation(
            self, kind, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated ramps that stop early")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        rc, out = self._sweep(kind, self.SHORT_RAMPS, tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: profile P1's 8 ramp cycles end at 48 s, before the last "
            "train or test sample at 99.75 s: give it more n_cycles\n")
        assert not out.exists()

    def test_train_refuses_ramps_that_stop_early_before_any_simulation(
            self, tmp_path, capsys, monkeypatch):
        # `train` fits on the config's simulated runs, as a sweep does
        def refuse(*args, **kwargs):
            raise AssertionError("simulated ramps that stop early")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(json.dumps({**TestAnyShape.SHORT, **self.SHORT_RAMPS}))
        out = tmp_path / "w.json"
        assert main(["train", "--config", str(cfg), "--task", "bending",
                     "--subset", "P1,P2", "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: profile P1's 8 ramp cycles end at 48 s, before the last "
            "train or test sample at 99.75 s: give it more n_cycles\n")
        assert not out.exists()

    @pytest.mark.parametrize("n_cycles, refused", [(133, True), (134, False)])
    def test_a_ramp_ending_at_the_last_sample_is_refused(self, n_cycles,
                                                         refused):
        # at 4 Hz the last test sample is at 99.75 s, where 133 cycles of
        # 0.75 s end: `generate_profile` holds the trace from that sample on
        ramp = RampProfileSpec(u_min=1.0, u_max=1.375, r_up=1.0, r_down=1.0,
                               n_cycles=n_cycles)
        cfg = ExperimentConfig(grid=TimeGrid(sample_rate=4.0, n_samples=400),
                               profiles=(RampProfileSpec(1.0, 32.25), ramp),
                               sample_counts=(10,))
        if refused:
            with pytest.raises(ValueError, match=r"^profile P2's 133 ramp "
                               r"cycles end at 99\.75 s, before the last "
                               r"train or test sample at 99\.75 s"):
                cli._check_ramps(cfg)
        else:
            cli._check_ramps(cfg)

    def _simulate_writes_7_runs(self, tmp_path):
        # simulate reads no experiment: 7 runs either way
        cfg = tmp_path / "cfg.yaml"  # the config `_sweep` wrote
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "grid"), "--quiet"]) == 0
        assert len(list((tmp_path / "grid" / "runs").glob("*.csv"))) == 7

    def test_one_payload_still_runs_multitask_and_simulate(self, tmp_path):
        # multitask reads its own payload set: 3 x 3 + 1 tables
        rc, out = self._sweep("multitask", self.ONE_PAYLOAD, tmp_path)
        assert rc == 0 and len(_csvs(out)) == 10
        self._simulate_writes_7_runs(tmp_path)

    def test_one_profile_refuses_multitask_and_still_simulates(
            self, tmp_path, capsys):
        rc, out = self._sweep("multitask", self.ONE_PROFILE, tmp_path)
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: {self.MULTITASK_TWO_PROFILES}\n")
        self._simulate_writes_7_runs(tmp_path)

    @pytest.mark.parametrize("kind", ["conditions", "samples", "sensors",
                                      "multitask"])
    def test_the_manifest_lists_exactly_the_files_written(self, kind,
                                                          tmp_path):
        rc, out = self._sweep(kind, {}, tmp_path)
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == _csvs(out)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            _csvs(out) + ["manifest.json"])


class TestSweepKinds:
    """Each `sweeps.SWEEPS` kind, on its own and through `cli._sweep`."""

    @pytest.mark.parametrize("kind", ["conditions", "samples", "sensors"])
    def test_every_table_is_labelled_with_its_tasks_name(self, kind,
                                                          tmp_path):
        # as `armrc train` and `evaluate` name the tasks: mass, not payload
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(json.dumps(TestAnyShape.SHORT))
        out = tmp_path / kind
        assert main(["sweep", kind, "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        for experiment, task in (("bending", "bending"), ("payload", "mass")):
            paths = sorted(out.glob(f"{experiment}_*.csv"))
            assert paths
            for path in paths:
                labels = read_matrix_csv(path)[3].split()
                assert [x for x in labels if x.startswith("task=")] == [
                    f"task={task}"], path.name

    @pytest.mark.parametrize("kind", list(sweeps.SWEEPS))
    @settings(max_examples=8, deadline=None)
    @given(n_profiles=st.integers(2, 4), n_payloads=st.integers(3, 5),
           n_sensors=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_each_reader_names_exactly_the_runs_its_tables_read(
            self, kind, n_profiles, n_payloads, n_sensors, seed):
        cfg = build_config({**TestAnyShape.SHORT,
                            **_grid(n_profiles, n_payloads),
                            "surrogate": _arm(n_sensors),
                            "sample_repeats": 1, "seed": seed})
        reads, compute, repeats = sweeps.SWEEPS[kind]
        conditions, payloads, trained = reads(cfg)
        runs = simulate_conditions(cfg.surrogate, cfg.profiles, payloads,
                                   cfg.grid, conditions, seed=cfg.seed)
        with tempfile.TemporaryDirectory() as tmp:
            want = cli._sweep(kind, cfg, Path(tmp), "digest")
        if repeats is not None:  # one seed: each X_mean.csv is X.csv
            want = [(name.replace("_mean.csv", ".csv"), matrix, rows, cols,
                     {k: v for k, v in labels.items() if k != "repeats"})
                    for name, matrix, rows, cols, labels in want
                    if name.endswith("_mean.csv")]
        got = list(compute(cfg, runs))
        assert [t[0] for t in got] == [t[0] for t in want]
        for (_, *a), (_, *b) in zip(got, want):
            assert np.asarray(a[0], float).tobytes() == np.asarray(
                b[0], float).tobytes()
            assert a[1:] == b[1:]
        # every run it names is read: without any one, the tables refuse
        for cond in runs:
            fewer = {c: run for c, run in runs.items() if c != cond}
            with pytest.raises(ValueError, match=(
                    f"condition {cond.label} is not present")):
                list(compute(cfg, fewer))
        # a run it names as untrained is read only in the test window, and
        # every run it names as trained before it: kept from the test
        # window's first sample on, the first give the same tables, and any
        # one of the others is refused
        tested = core.Window(cfg.test.start, cfg.grid.t_end)
        kept = {c: run if c in trained else core.slice_series(run, tested)
                for c, run in runs.items()}
        for (_, *a), (_, *b) in zip(compute(cfg, kept), got, strict=True):
            assert np.asarray(a[0], float).tobytes() == np.asarray(
                b[0], float).tobytes()
        for cond in set(trained):
            late = {**kept, cond: core.slice_series(runs[cond], tested)}
            with pytest.raises(ValueError, match="outside run"):
                list(compute(cfg, late))


class TestIngestedRuns:
    # a run read back from its CSV holds the simulated bits in another
    # memory layout (sensors transposed); no sweep cell may tell them apart
    def test_sweeps_score_them_as_the_simulated_runs(self, grid_dir):
        cfg = default_config()
        table = experiments(cfg)
        conds = list(dict.fromkeys(c for exp in table.values()
                                   for c in exp.conditions))
        simulated = cli._simulate(cfg, conds, seed=cfg.seed)
        ingested = {c: ingest_run(grid_dir / "runs" / f"{c.label}.csv")
                    for c in conds}
        for exp in table.values():
            window = training_window(cfg, exp.task)
            cells = []
            for runs in (simulated, ingested):
                spec = sweeps.SweepSpec(
                    task=exp.task, subsets=exp.families["subsets"],
                    evaluation=exp.evaluation, train_window=window,
                    test_window=cfg.test)
                ablation = sweeps.sensor_ablation_sweep(
                    exp.task, (None,) + sweeps.tip_sensor_masks(), exp.subset,
                    exp.evaluation, runs, cfg.payloads, train_window=window,
                    test_window=cfg.test)
                cells.append((sweeps.subset_sweep(spec, runs,
                                                  cfg.payloads).error_grid,
                              ablation.error_grid, ablation.weight_shares))
            for a, b in zip(*cells):
                assert np.array_equal(a, b, equal_nan=True)


class TestNoiseKeyRange:
    def test_payload_index_beyond_16_bits_is_an_error_line(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        # P1M65536's noise key would alias P2's; building the 65536-mass
        # config in code skips a slow YAML parse
        wide = ExperimentConfig(payloads=PayloadSet(tuple(range(1 << 16))))
        monkeypatch.setattr(cli, "default_config", lambda: wide)
        rc = main(["train", "--task", "bending", "--subset", "P1M65536",
                   "--out", str(tmp_path / "w.json"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "P1M65536" in err


class TestSeedRange:
    # a noise key's seed word is 64 bits; a seed outside 0..2**64 - 1 would
    # wrap onto another seed's noise while manifests record it unwrapped.
    # It is refused before the kernel runs a batch.
    @staticmethod
    def _spy_on_batches(mp):
        batches, real = [], surrogate.simulate_batch
        mp.setattr(surrogate, "simulate_batch", lambda *a, **k: (
            batches.append(a) or real(*a, **k)))
        return batches

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["train", "--task", "bending", "--subset", "P1,P7"],
        ["sweep", "conditions"],
        ["sweep", "samples"],
        ["sweep", "sensors"],
        ["sweep", "multitask"],
    ], ids=lambda argv: "-".join(a for a in argv[:2] if a[0] != "-"))
    def test_is_one_error_line_and_publishes_nothing(self, argv, seed,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        cfg = tmp_path / "small.yaml"
        cfg.write_text(SMALL_RUNS + "sample_repeats: 2\n")
        out = tmp_path / ("w.json" if argv[0] == "train" else "out")
        batches = self._spy_on_batches(monkeypatch)
        rc = main(argv + [f"--seed={seed}", "--config", str(cfg),
                          "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert (rc, batches) == (1, [])
        assert err == f"error: seed {seed} is outside the noise key's range " \
                      "0..2**64 - 1\n"
        assert not out.exists() or [p for p in out.rglob("*")
                                    if p.is_file()] == []

    def test_a_samples_seed_is_refused_when_a_repeat_leaves_the_range(
            self, tmp_path, capsys, monkeypatch):
        # repeat r draws at seed + r: r = 2 would wrap onto seed 0
        cfg = tmp_path / "small.yaml"
        cfg.write_text(SMALL_RUNS + "sample_repeats: 3\n")
        out = tmp_path / "out"
        batches = self._spy_on_batches(monkeypatch)
        rc = main(["sweep", "samples", f"--seed={(1 << 64) - 2}", "--config",
                   str(cfg), "--out", str(out), "--quiet"])
        assert (rc, batches) == (1, [])
        assert capsys.readouterr().err == (
            f"error: seed {1 << 64} is outside the noise key's range "
            "0..2**64 - 1\n")
        assert [p for p in out.rglob("*") if p.is_file()] == []


class TestOverrides:
    def test_seed_flag_changes_the_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["sweep", "conditions", "--out", str(a), "--quiet"]) == 0
        assert main(["sweep", "conditions", "--out", str(b), "--seed", "99",
                     "--quiet"]) == 0
        ma, _, _, _ = read_matrix_csv(a / "bending_subsets.csv")
        mb, _, _, _ = read_matrix_csv(b / "bending_subsets.csv")
        assert not np.array_equal(ma, mb)

    def test_a_surrogate_seed_is_a_config_error(self, tmp_path, capsys,
                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a config with two seeds")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        cfg = tmp_path / "two_seeds.yaml"
        cfg.write_text("seed: 123\nsurrogate: {seed: 9}\n")
        rc = main(["sweep", "conditions", "--config", str(cfg),
                   "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: config:") and err.count("error:") == 1
        assert "surrogate: unknown key 'seed'" in err

    def test_bad_config_reports_all_problems_and_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("ridge: -1\nnormalizer: bogus\n")
        rc = main(["sweep", "conditions", "--config", str(bad),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "ridge" in err and "normalizer" in err


class TestKeptSamples:
    # a command keeps its runs from the first sample its windows read: a
    # sweep from its train or test window, whichever starts first, train
    # from its training window; here the test window comes first
    SWAPPED = "windows: {test: [50.0, 75.0], train: [75.0, 100.0]}\n"

    @pytest.mark.parametrize("argv, first", [
        (["train", "--task", "mass", "--subset", "M2,M5,M7"], 3000),
        (["sweep", "conditions"], 2000),
    ], ids=["train", "sweep"])
    def test_from_the_first_sample_its_windows_read(self, argv, first,
                                                    tmp_path, monkeypatch):
        kept, real = [], surrogate.simulate_batch

        def batch(*args, **kwargs):  # every run's first, one per run
            kept.append(set(kwargs["first"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(surrogate, "simulate_batch", batch)
        cfg = tmp_path / "swapped.yaml"
        cfg.write_text(self.SWAPPED)
        out = tmp_path / ("out.json" if argv[0] == "train" else "out")
        assert main(argv + ["--config", str(cfg), "--out", str(out),
                            "--quiet"]) == 0
        assert kept == [{first}]

    @pytest.mark.parametrize("kind", list(sweeps.SWEEPS))
    def test_a_sweep_keeps_a_run_no_fit_trains_on_from_the_test_window(
            self, kind, tmp_path, monkeypatch):
        # the tables get each training run from sample 2,000, the train
        # window's first, and every other run from sample 3,000, the test
        # window's: the whole run's tail on the run's clock from there
        reads, compute, repeats = sweeps.SWEEPS[kind]
        seen = {}

        def tables(cfg, runs):
            seen.update(runs)
            return compute(cfg, runs)

        monkeypatch.setitem(sweeps.SWEEPS, kind, (reads, tables, repeats))
        cli._sweep(kind, ExperimentConfig(sample_repeats=1), tmp_path,
                   "digest")
        assert {c: run.grid for c, run in seen.items()} == {
            c: TimeGrid(n_samples=4000 - first, t0=first / 40.0)
            for c, first in _kept_from(kind).items()}

    def test_train_writes_the_weights_of_the_whole_runs(self, tmp_path):
        cfg = build_config({"windows": {"test": [50.0, 75.0],
                                        "train": [75.0, 100.0]}})
        subset = [InputCondition(1, j) for j in (2, 5, 7)]
        whole = simulate_conditions(cfg.surrogate, cfg.profiles, cfg.payloads,
                                    cfg.grid, subset, seed=cfg.seed)
        expected = sweeps.train_on_subset(
            subset, whole, cfg.payloads, TaskKind.PAYLOAD_MASS,
            training_window(cfg, TaskKind.PAYLOAD_MASS))
        path = tmp_path / "swapped.yaml"
        path.write_text(self.SWAPPED)
        out = tmp_path / "mass.json"
        assert main(["train", "--task", "mass", "--subset", "M2,M5,M7",
                     "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        got, _ = load_weights(out)
        assert got.weights.tobytes() == expected.weights.tobytes()


class TestOneSeed:
    # every sensor-noise draw of a command uses the run seed: the config's,
    # or --seed's when given; sweep samples draws repeat r at seed + r
    REPEATS = 3

    @pytest.mark.parametrize("extra, seed", [([], 123), (["--seed", "99"], 99)],
                             ids=["config", "flag"])
    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["train", "--task", "bending", "--subset", "P1,P7"],
        ["sweep", "conditions"],
        ["sweep", "samples"],
        ["sweep", "sensors"],
        ["sweep", "multitask"],
    ], ids=lambda argv: "-".join(a for a in argv[:2] if a[0] != "-"))
    def test_every_noise_draw_uses_the_run_seed(self, argv, extra, seed,
                                                tmp_path, monkeypatch):
        # a line per noise source, so that draws in forked children count too
        log = tmp_path / "seeds.txt"
        real = surrogate._noise_blocks

        def spy(params, runs, noise_seed, first):
            with open(log, "a", encoding="utf-8") as fh:
                for cond, at in zip(runs, first, strict=True):
                    fh.write(f"{noise_seed} {cond.label} {at}\n")
            return real(params, runs, noise_seed, first)

        monkeypatch.setattr(surrogate, "_noise_blocks", spy)
        # the run CSVs are not under test; skip writing 35 MB of them, and
        # moving them into runs/
        monkeypatch.setattr(cli, "export_run",
                            lambda series, path, **kw: Path(path))
        monkeypatch.setattr(cli, "_publish", lambda *args: None)
        cfg = tmp_path / "seeded.yaml"
        cfg.write_text("seed: 123\nsample_counts: [100, 1000]\n"
                       f"sample_repeats: {self.REPEATS}\n")
        out = tmp_path / ("out.json" if argv[0] == "train" else "out")
        assert main(argv + extra + ["--config", str(cfg), "--out", str(out),
                                    "--quiet"]) == 0
        expected = ({seed + r for r in range(self.REPEATS)}
                    if argv[-1] == "samples" else {seed})
        draws = ([line.split() for line in log.read_text().splitlines()]
                 if log.exists() else [])
        assert draws and {int(s) for s, _, _ in draws} == expected
        # each run's noise from its own first kept sample: simulate keeps
        # every sample, train the train window's, 50 s at 40 Hz, and a
        # sweep each run's own (`_kept_from`)
        kept = {label: int(first) for _, label, first in draws}
        assert len({(label, first) for _, label, first in draws}) == len(kept)
        if argv[0] == "sweep":
            assert kept == {c.label: first
                            for c, first in _kept_from(argv[1]).items()}
        else:
            assert set(kept.values()) == {0 if argv[0] == "simulate" else 2000}


class TestSensorNames:
    # `train --mask` and `correlate --channel` accept the sensor columns of
    # a run CSV, s1..s7, and refuse any other token by name
    @pytest.mark.parametrize("token", ["x7", "7", "foo", "s0", "s8", "s"])
    def test_correlate_refuses_a_token_that_names_no_sensor(self, grid_dir,
                                                            token, capsys):
        run = str(grid_dir / "runs" / "P1M1.csv")
        rc = main(["correlate", "--runs", run, "--channel", token])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("error:") == 1
        assert repr(token) in err and "s1..s7" in err

    @pytest.mark.parametrize("token", ["x7", "7", "s0", "s8", "s1s2"])
    def test_train_refuses_a_mask_token_that_names_no_sensor(self, token,
                                                             tmp_path, capsys,
                                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the mask was checked")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        rc = main(["train", "--task", "bending", "--subset", "P1",
                   "--mask", f"s5,{token}", "--out", str(tmp_path / "w.json"),
                   "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("error:") == 1
        assert repr(token) in err and "s1..s7" in err

    def test_names_are_read_case_and_space_blind(self, grid_dir, tmp_path):
        weights = tmp_path / "w.json"
        assert main(["train", "--task", "bending", "--subset", "P1",
                     "--mask", " S5, s7", "--out", str(weights),
                     "--quiet"]) == 0
        assert json.loads(weights.read_text())["sensor_mask"] == [4, 6]
        run = str(grid_dir / "runs" / "P1M1.csv")
        for channel in ("S7", "s_in"):
            assert main(["correlate", "--runs", run, run, "--channel",
                         channel, "--out", str(tmp_path / "c.csv"),
                         "--quiet"]) == 0


class TestEmptySampleCounts:
    # `sample_counts: []` asks for a sweep of no fit: one config error, not
    # a traceback from the sweep
    def test_is_one_config_error_before_anything_runs(self, tmp_path, capsys,
                                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a sweep of no sample count")

        monkeypatch.setattr(surrogate, "simulate_batch", refuse)
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("sample_counts: []\n")
        rc = main(["sweep", "samples", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: config:") and err.count("error:") == 1
        assert "- sample_counts must be non-empty" in err


class TestCorrelateOneClock:
    # a correlation pairs the runs sample by sample, so they must share one
    # clock and one post-washout length
    @staticmethod
    def run_on(tmp_path, cfg, grid, name):
        (series,) = simulate_conditions(cfg.surrogate, cfg.profiles,
                                        cfg.payloads, grid,
                                        [InputCondition(4, 1)]).values()
        return str(export_run(series, tmp_path / name / "P4M1.csv"))

    @pytest.mark.parametrize("grid, detail", [
        # 100 s after the washout at 20 Hz: 2000 samples, as at 40 Hz
        (TimeGrid(sample_rate=20.0, n_samples=3000),
         "2000 samples at 40 Hz after the washout, and 2000 at 20 Hz"),
        (TimeGrid(sample_rate=40.0, n_samples=4800),
         "2000 samples at 40 Hz after the washout, and 2800 at 40 Hz"),
    ], ids=["rate", "length"])
    def test_is_one_error_line_naming_both_runs(self, grid_dir, tmp_path,
                                                capsys, grid, detail):
        other = self.run_on(tmp_path, default_config(), grid, "other")
        rc = main(["correlate", "--runs", str(grid_dir / "runs" / "P1M1.csv"),
                   other, "--channel", "s7"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("error:") == 1
        assert "P1M1" in captured.err and "P4M1" in captured.err
        assert detail in captured.err
