import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import armrc
from armrc import cli, surrogate
from armrc.cli import main
from armrc.config import ExperimentConfig, default_config
from armrc.core import InputCondition, PayloadSet
from armrc.readout import ReadoutWeights
from armrc.runio import export_run, read_matrix_csv, save_weights
from armrc.sweeps import experiments, simulate_conditions


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

    def test_samples_sweep_simulates_both_experiments_in_one_batch(
            self, tmp_path, monkeypatch):
        calls = []
        real = surrogate.simulate_batch

        def spy(*args, **kwargs):
            calls.append(kwargs["conditions"])
            return real(*args, **kwargs)

        monkeypatch.setattr(surrogate, "simulate_batch", spy)
        cfg = ExperimentConfig(sample_counts=(100,), sample_repeats=1)
        cli._sweep_samples(cfg, tmp_path, "digest")
        union = {c for exp in experiments(cfg).values()
                 for c in exp.conditions}
        assert len(union) == 13
        assert len(calls) == 1 and set(calls[0]) == union

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
    ], ids=["task-names-number", "mask-null", "no-weights", "ragged-weights",
            "top-level-list"])
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
    @pytest.mark.parametrize("argv", [
        ["train", "--task", "bending", "--subset", "P1,P7"],
        ["sweep", "samples"],
    ], ids=["train", "sweep-samples"])
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

    def test_bad_config_reports_all_problems_and_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("ridge: -1\nnormalizer: bogus\n")
        rc = main(["sweep", "conditions", "--config", str(bad),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "ridge" in err and "normalizer" in err
