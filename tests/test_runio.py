import json

import numpy as np
import pytest

from armrc.core import InputCondition, TimeGrid
from armrc.profiles import default_profile_family, generate_profile
from armrc.readout import ReadoutWeights
from armrc.runio import (
    CLOCK_TOLERANCE,
    config_digest,
    export_run,
    ingest_run,
    load_weights,
    read_matrix_csv,
    save_weights,
    sidecar_path,
    write_manifest,
    write_matrix_csv,
)
from armrc.surrogate import SurrogateParams, simulate


@pytest.fixture(scope="module")
def sample_run():
    grid = TimeGrid()
    trace = generate_profile(default_profile_family()[0], grid)
    return simulate(SurrogateParams(), trace, 100.0, grid,
                    condition=InputCondition(1, 2))


class TestRunRoundTrip:
    def test_bit_identical(self, sample_run, tmp_path):
        path = export_run(sample_run, tmp_path / "run.csv",
                          config_hash="abc", seed=7)
        back = ingest_run(path)
        assert np.array_equal(back.s_in, sample_run.s_in)
        assert np.array_equal(back.sensors, sample_run.sensors)
        assert np.array_equal(back.theta, sample_run.theta)
        assert back.grid == sample_run.grid
        assert back.condition == sample_run.condition
        assert back.payload_grams == sample_run.payload_grams == 100.0

    def test_sidecar_carries_provenance_and_units(self, sample_run, tmp_path):
        path = export_run(sample_run, tmp_path / "run.csv",
                          config_hash="abc", seed=7)
        meta = json.loads(sidecar_path(path).read_text())
        assert meta["config_hash"] == "abc"
        assert meta["seed"] == 7
        assert meta["units"]["pressure"] == "psi"
        assert meta["sample_rate"] == 40.0

    def test_row_count_sets_duration(self, sample_run, tmp_path):
        path = export_run(sample_run, tmp_path / "run.csv")
        back = ingest_run(path)
        assert back.grid.n_samples == 4000
        assert back.grid.duration == 100.0


class TestIngestValidation:
    def _write(self, tmp_path, mutate):
        path = export_run(
            simulate(SurrogateParams(),
                     generate_profile(default_profile_family()[0], TimeGrid(n_samples=50)),
                     0.0, TimeGrid(n_samples=50), condition=InputCondition(1, 1)),
            tmp_path / "run.csv")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutate(lines)) + "\n")
        return path

    def test_missing_theta_column_is_named(self, tmp_path):
        def drop_theta(lines):
            return [",".join(line.split(",")[:-1]) for line in lines]
        path = self._write(tmp_path, drop_theta)
        with pytest.raises(ValueError, match="theta"):
            ingest_run(path)

    def test_nan_cell_is_located(self, tmp_path):
        def poison(lines):
            cells = lines[3].split(",")
            cells[4] = "nan"
            lines[3] = ",".join(cells)
            return lines
        path = self._write(tmp_path, poison)
        with pytest.raises(ValueError, match="s3"):
            ingest_run(path)

    def test_non_uniform_clock_rejected(self, tmp_path):
        def jitter(lines):
            cells = lines[10].split(",")
            cells[0] = repr(float(cells[0]) + 0.003)
            lines[10] = ",".join(cells)
            return lines
        path = self._write(tmp_path, jitter)
        with pytest.raises(ValueError, match="non-uniform|not increasing"):
            ingest_run(path)

    def _retag(self, tmp_path, **fields):
        path = self._write(tmp_path, lambda lines: lines)
        meta = json.loads(sidecar_path(path).read_text())
        meta.update(fields)
        sidecar_path(path).write_text(json.dumps(meta))
        return path

    @pytest.mark.parametrize("n_samples", [49, 51])
    def test_sidecar_sample_count_must_match_the_rows(self, tmp_path,
                                                      n_samples):
        path = self._retag(tmp_path, n_samples=n_samples)
        with pytest.raises(ValueError, match=r"run\.csv.*n_samples"):
            ingest_run(path)

    def test_sidecar_t0_must_match_the_first_time_stamp(self, tmp_path):
        path = self._retag(tmp_path, t0=0.5)
        with pytest.raises(ValueError, match=r"run\.csv.*t0"):
            ingest_run(path)

    def test_t0_within_the_clock_tolerance_is_accepted(self, tmp_path):
        path = self._retag(tmp_path, t0=CLOCK_TOLERANCE / 2)
        assert ingest_run(path).grid.n_samples == 50

    def test_a_v1_sidecar_reads_with_unknown_grams(self, tmp_path):
        path = self._retag(tmp_path, format="armrc-run-v1")
        meta = json.loads(sidecar_path(path).read_text())
        del meta["payload_grams"]
        sidecar_path(path).write_text(json.dumps(meta))
        back = ingest_run(path)
        assert back.payload_grams is None
        assert back.condition == InputCondition(1, 1)

    @pytest.mark.parametrize("grams", [-1.0, "400", True, float("inf")])
    def test_bad_payload_grams_is_named(self, tmp_path, grams):
        path = self._retag(tmp_path, payload_grams=grams)
        with pytest.raises(ValueError, match=r"run\.meta\.json.*payload_grams"):
            ingest_run(path)

    def test_a_v2_sidecar_must_carry_payload_grams(self, tmp_path):
        path = self._retag(tmp_path)
        meta = json.loads(sidecar_path(path).read_text())
        del meta["payload_grams"]
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="payload_grams"):
            ingest_run(path)

    def test_missing_sidecar_rejected(self, tmp_path, sample_run):
        path = export_run(sample_run, tmp_path / "run.csv")
        sidecar_path(path).unlink()
        with pytest.raises(FileNotFoundError):
            ingest_run(path)


class TestWeightsRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(0)
        weights = ReadoutWeights(rng.normal(size=(4, 2)), (4, 5, 6),
                                 ("bending", "mass"))
        path = save_weights(tmp_path / "w.json", weights,
                            provenance={"ridge": 0.0, "seed": 7})
        back, provenance = load_weights(path)
        assert np.array_equal(back.weights, weights.weights)
        assert back.sensor_mask == weights.sensor_mask
        assert back.task_names == weights.task_names
        assert provenance["seed"] == 7

    def test_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="format"):
            load_weights(path)


class TestMatrixCsv:
    def test_round_trip_with_nan_cells(self, tmp_path):
        matrix = np.array([[1.5, np.nan], [2.0, 3.0]])
        path = write_matrix_csv(tmp_path / "m.csv", matrix, ["r1", "r2"],
                                ["c1", "c2"], provenance={"seed": 7})
        back, rows, cols, comment = read_matrix_csv(path)
        assert rows == ["r1", "r2"]
        assert cols == ["c1", "c2"]
        assert "seed=7" in comment
        assert np.isnan(back[0, 1])
        assert back[1, 1] == 3.0

    def test_label_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2)),
                             ["r1"], ["c1", "c2"])


class TestDigestAndManifest:
    def test_digest_is_stable_and_sensitive(self):
        from armrc.config import default_config
        import dataclasses

        cfg = default_config()
        assert config_digest(cfg) == config_digest(default_config())
        other = dataclasses.replace(cfg, seed=8)
        assert config_digest(cfg) != config_digest(other)

    def test_manifest_contents(self, tmp_path):
        path = write_manifest(tmp_path / "manifest.json", config_hash="abc",
                              seed=7, outputs=["a.csv"], elapsed_seconds=1.5)
        doc = json.loads(path.read_text())
        assert doc["config_hash"] == "abc"
        assert doc["outputs"] == ["a.csv"]
        assert "armrc" in doc["versions"]
        assert "created_unix" in doc
