import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import armrc
from armrc import cli, core, readout, surrogate, sweeps
from armrc.cli import main
from armrc.config import (ExperimentConfig, build_config, default_config,
                          training_window)
from armrc.core import (InputCondition, PayloadSet, PressureStateSeries,
                        TimeGrid)
from armrc.readout import (ReadoutWeights, full_width, nrmse_percent,
                           predict, window_factor)
from armrc.runio import export_run, ingest_run, load_weights, save_weights
from armrc.surrogate import simulate_conditions
from armrc.sweeps import experiments
from armrc.tasks import TaskKind, score
from conftest import read_matrix_csv


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


def _fresh(argv, cpus):
    """``armrc <argv>`` in a fresh interpreter that sees ``cpus`` CPUs, so
    the export pool runs (or not) whatever the host has."""
    src = str(Path(armrc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import os, sys; os.sched_getaffinity = lambda pid: "
            f"set(range({cpus})); from armrc.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code] + argv, env=env,
                          capture_output=True, text=True, timeout=120)


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


class TestSamplesPool:
    # sweep samples runs its two experiments on one forked child per usable
    # CPU, or in-process with one; nothing about the output may tell which
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
        mean = score(TaskKind.PAYLOAD_DETECT,
                     window_factor(series, default_config().test), w, None,
                     "range")
        calls, real = [], readout.factor

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(readout, "factor", spy)
        assert main(["evaluate", "--weights", str(weights),
                     "--run", str(run)]) == 0
        assert len(calls) == factors
        if not factors:
            # the window mean a full factor's `means` gives
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
        series = ingest_run(path)
        weights, _ = load_weights(bending_weights)
        ref = nrmse_percent(predict(weights, series), series.theta)
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

    @pytest.mark.parametrize("kind", ["conditions", "samples", "sensors",
                                      "multitask"])
    def test_each_kind_simulates_exactly_the_runs_it_declares_in_one_batch(
            self, kind, tmp_path, monkeypatch):
        calls = []
        real = surrogate.simulate_batch

        def spy(*args, **kwargs):
            calls.append((kwargs["conditions"], kwargs["seed"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(surrogate, "simulate_batch", spy)
        cfg = ExperimentConfig(sample_counts=(100,), sample_repeats=1)
        getattr(cli, f"_sweep_{kind}")(cfg, tmp_path, "digest")
        if kind == "multitask":  # the 7 x 5 profile x multitask-payload grid
            runs = {InputCondition(i, j) for i in range(1, 8)
                    for j in range(1, 6)}
        else:  # P1..P7 under M1, and M2..M7 under P1
            runs = {c for exp in experiments(cfg).values()
                    for c in exp.conditions}
        assert len(runs) == {"multitask": 35}.get(kind, 13)
        assert len(calls) == 1
        conditions, seed = calls[0]
        assert len(conditions) == len(runs) and set(conditions) == runs
        # sweep samples reads noise-free runs and draws each repeat's noise
        assert seed == (None if kind == "samples" else cfg.seed)

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
    ], ids=["task-names-number", "mask-null", "no-weights", "ragged-weights",
            "top-level-list", "mask-repeated", "names-reversed"])
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
         "and needs at least 2 payloads; the config has 1"),
        ("samples", ONE_PAYLOAD, "needs at least 2 payloads; the config has 1"),
        ("sensors", ONE_PAYLOAD, "needs at least 2 payloads; the config has 1"),
    ], ids=["conditions-1-profile", "samples-1-profile", "sensors-1-profile",
            "multitask-1-profile", "conditions-1-payload", "samples-1-payload",
            "sensors-1-payload"])
    def test_a_failing_sweep_is_one_error_line_and_writes_nothing(
            self, kind, doc, message, tmp_path, capsys):
        rc, out = self._sweep(kind, doc, tmp_path)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert [p for p in out.rglob("*") if p.is_file()] == []

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


class TestIngestedRuns:
    # a run read back from its CSV holds the simulated bits in another
    # memory layout (sensors transposed); no sweep cell may tell them apart
    def test_sweeps_score_them_as_the_simulated_runs(self, grid_dir):
        cfg = default_config()
        table = experiments(cfg)
        conds = list(dict.fromkeys(c for exp in table.values()
                                   for c in exp.conditions))
        simulated = cli._simulate(cfg, conds, cfg.seed)
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

        def spy(params, conditions, shape, noise_seed):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{noise_seed}\n")
            return real(params, conditions, shape, noise_seed)

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
        seeds = [int(s) for s in log.read_text().split()] if log.exists() else []
        assert seeds and set(seeds) == expected


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
