import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from armrc.core import InputCondition, PressureStateSeries, TimeGrid
from armrc.profiles import default_profile_family, generate_profile
from armrc.readout import ReadoutWeights
from armrc.runio import (
    CLOCK_TOLERANCE,
    config_digest,
    contiguous_chunks,
    export_run,
    ingest_run,
    load_weights,
    save_weights,
    sidecar_path,
    write_manifest,
    write_matrix_csv,
)
from armrc.surrogate import SurrogateParams, simulate
from conftest import read_matrix_csv


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def recorded_runs(draw):
    """A run on any grid: 1-12 sensors, 1-200 samples, any sample rate and
    t0, finite values, with or without a condition and payload grams."""
    n_sensors = draw(st.integers(1, 12))
    grid = TimeGrid(sample_rate=draw(st.floats(0.1, 10_000.0)),
                    n_samples=draw(st.integers(1, 200)),
                    t0=draw(st.floats(-1_000.0, 1_000.0)))
    n = grid.n_samples
    return PressureStateSeries(
        grid=grid,
        s_in=draw(arrays(float, n, elements=FINITE)),
        sensors=draw(arrays(float, (n_sensors, n), elements=FINITE)),
        theta=draw(arrays(float, n, elements=FINITE)),
        condition=draw(st.none() | st.builds(
            InputCondition, st.integers(1, 2**32 - 1),
            st.integers(1, 2**16 - 1))),
        payload_grams=draw(st.none() | st.floats(0.0, 1e6)),
    )


class TestRunRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(recorded_runs())
    def test_any_grid_round_trips_bit_identically(self, run):
        with tempfile.TemporaryDirectory() as tmp:
            back = ingest_run(export_run(run, Path(tmp) / "run.csv"))
        assert back.grid == run.grid
        assert back.condition == run.condition
        assert back.payload_grams == run.payload_grams
        for name in ("s_in", "sensors", "theta"):
            assert getattr(back, name).tobytes() == getattr(run, name).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(recorded_runs())
    def test_any_run_is_its_shortest_round_trip_text(self, run):
        _assert_shortest_text(run)


def _assert_shortest_text(run):
    # repr is an independent oracle of each float's shortest round-trip
    # decimal: every cell holds its value, and its sign for a zero
    with tempfile.TemporaryDirectory() as tmp:
        text = export_run(run, Path(tmp) / "run.csv").read_bytes()
    header, body = text.split(b"\n", 1)
    assert header == ",".join(["t", "s_in"] + [
        f"s{k + 1}" for k in range(run.n_sensors)] + ["theta"]).encode()
    lines = body.split(b"\n")
    assert lines.pop() == b""  # each line ends in a newline
    columns = np.column_stack(
        [run.grid.times(), run.s_in, run.sensors.T, run.theta])
    assert len(lines) == len(columns)
    for line, row in zip(lines, columns.tolist()):
        cells = line.decode("ascii").split(",")
        assert len(cells) == run.n_sensors + 3
        for cell, x in zip(cells, row):
            assert Decimal(cell) == Decimal(repr(x)), (cell, x)
            assert Decimal(cell).is_signed() == (math.copysign(1.0, x) < 0)


class TestExportBlocks:
    def test_more_than_one_write_is_the_shortest_round_trip_text(self):
        # values whose text is easy to get wrong, over three row blocks
        grid = TimeGrid(n_samples=600)
        s_in = np.linspace(0.0, 1.0, 600)
        s_in[:4] = (-0.0, 5e-324, 1.7976931348623157e308, 0.1)
        _assert_shortest_text(PressureStateSeries(
            grid=grid, s_in=s_in + 3, sensors=np.vstack([s_in] * 3) / 3,
            theta=-s_in, condition=InputCondition(3, 1)))


class TestForkMap:
    # `armrc simulate` gives each `fork_map` worker one contiguous chunk
    @pytest.mark.parametrize("cpus", range(1, 9))
    def test_chunks_are_contiguous_in_order_and_even(self, cpus):
        for n_items in range(1, 61):
            items = list(range(n_items))
            chunks = contiguous_chunks(items, cpus)
            assert len(chunks) == min(cpus, n_items)
            assert [x for chunk in chunks for x in chunk] == items
            sizes = [len(chunk) for chunk in chunks]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_output_buffered_before_the_pool_is_written_once(self):
        # a pool worker flushes the stdio buffers it inherited as it exits
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from armrc.runio import fork_map\n"
            "print('before')\n"
            "print('before', file=sys.stderr)\n"
            "assert fork_map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == ("before\n", "before\n")


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

    def test_reordered_columns_are_shown(self, tmp_path):
        def swap(lines):
            return [line.replace("s1,s2", "s2,s1", 1) for line in lines[:1]] \
                + lines[1:]
        path = self._write(tmp_path, swap)
        with pytest.raises(ValueError, match=r"expected \['t', 's_in', 's1'"):
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

    @pytest.mark.parametrize("field, value", [("n_sensors", "seven"),
                                              ("n_samples", None),
                                              ("t0", [0.0]),
                                              ("sample_rate", "fast"),
                                              ("n_sensors", 7.9),
                                              ("n_samples", 49.5)])
    def test_an_unparsable_clock_field_is_named(self, tmp_path, field, value):
        path = self._retag(tmp_path, **{field: value})
        with pytest.raises(ValueError,
                           match=rf"run\.meta\.json: field '{field}'"):
            ingest_run(path)

    @pytest.mark.parametrize("rate", [0, -40.0, float("inf"), float("nan")])
    def test_a_sample_rate_the_clock_cannot_use_is_named(self, tmp_path,
                                                         rate):
        path = self._retag(tmp_path, sample_rate=rate)
        with pytest.raises(ValueError, match=r"run\.meta\.json.*sample_rate"):
            ingest_run(path)

    @pytest.mark.parametrize("condition", [
        "P1M1", {}, {"profile_index": 1}, [1, 1],
        {"profile_index": "one", "payload_index": 1},
        {"profile_index": 0, "payload_index": 1},
        {"profile_index": 1.5, "payload_index": 1},
    ])
    def test_a_malformed_condition_is_named(self, tmp_path, condition):
        path = self._retag(tmp_path, condition=condition)
        with pytest.raises(ValueError,
                           match=r"run\.meta\.json: field 'condition'"):
            ingest_run(path)

    @pytest.mark.parametrize("doc", [[1], "run", None])
    def test_a_sidecar_that_is_not_an_object_is_named(self, tmp_path, doc):
        path = self._write(tmp_path, lambda lines: lines)
        sidecar_path(path).write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"run\.meta\.json"):
            ingest_run(path)

    def test_a_text_cell_names_the_csv(self, tmp_path):
        def poison(lines):
            cells = lines[4].split(",")
            cells[3] = "abc"
            lines[4] = ",".join(cells)
            return lines
        path = self._write(tmp_path, poison)
        with pytest.raises(ValueError, match=r"run\.csv: .*abc"):
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


# cells the run-row parser must read as np.loadtxt does: both zeros,
# subnormals, integral values and magnitudes up to 1e300
CELLS = st.floats(-1e300, 1e300) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.225073858507201e-308, 9007199254740993.0])
CELL_TEXT = {
    "%.17g": "%.17g".__mod__,
    "repr": repr,
    "%.6g": "%.6g".__mod__,
    "%.3E": "%.3E".__mod__,
    "integer": lambda v: str(int(v)),
}


@st.composite
def run_texts(draw):
    """(format name, cells): 1-300 samples of s_in, 1-12 sensors and theta,
    integral cells for the integer format."""
    fmt = draw(st.sampled_from(sorted(CELL_TEXT)))
    shape = (draw(st.integers(1, 300)), draw(st.integers(1, 12)) + 2)
    cells = CELLS.map(lambda v: float(int(v))) if fmt == "integer" else CELLS
    return fmt, draw(arrays(float, shape, elements=cells))


def _write_run_text(tmp, cells, cell_text):
    """A run CSV of ``cells`` (s_in, sensors, theta) on a 1 Hz clock from 0,
    every cell printed by ``cell_text``, beside its sidecar."""
    n = len(cells)
    path = export_run(PressureStateSeries(
        grid=TimeGrid(sample_rate=1.0, n_samples=n), s_in=cells[:, 0],
        sensors=cells[:, 1:-1].T, theta=cells[:, -1]), Path(tmp) / "run.csv")
    header = path.read_text().split("\n", 1)[0]
    path.write_text(header + "\n" + "".join(
        ",".join(map(cell_text, [float(k), *row])) + "\n"
        for k, row in enumerate(cells.tolist())))
    return path


class _LoadtxtCalled(Exception):
    pass


class TestReadPaths:
    """Plain JSON numbers parse with orjson, any other text with np.loadtxt;
    both give loadtxt's floats bit for bit, or loadtxt's error."""

    @settings(max_examples=60, deadline=None)
    @given(run_texts())
    def test_any_number_text_reads_as_loadtxt_reads_it(self, drawn):
        fmt, cells = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_run_text(tmp, cells, CELL_TEXT[fmt])
            back = ingest_run(path)
            ref = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
        got = np.column_stack([back.s_in, back.sensors.T, back.theta])
        assert got.tobytes() == ref[:, 1:].tobytes()

    def _spy(self, monkeypatch, refuse=False):
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(1)
            if refuse:
                raise _LoadtxtCalled
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr("armrc.runio.np.loadtxt", spy)
        return calls

    def _mutated(self, tmp_path, mutate):
        run = simulate(SurrogateParams(),
                       generate_profile(default_profile_family()[0],
                                        TimeGrid(n_samples=50)),
                       0.0, TimeGrid(n_samples=50),
                       condition=InputCondition(1, 1))
        path = export_run(run, tmp_path / "run.csv")
        path.write_bytes(mutate(path.read_bytes()))
        return run, path

    @staticmethod
    def _cell(text):
        def put(body):
            # data row 2, column s3
            lines = body.split(b"\n")
            cells = lines[3].split(b",")
            cells[4] = text
            lines[3] = b",".join(cells)
            return b"\n".join(lines)
        return put

    @pytest.mark.parametrize("mutate, expected", [
        (_cell(b"-0"), -0.0),
        (_cell(b".5"), 0.5),
        (_cell(b"1."), 1.0),
        (_cell(b"+1"), 1.0),
        (_cell(b"nan"), "run.csv: non-finite value in column 's3' at data row 2"),
        (_cell(b"inf"), "run.csv: non-finite value in column 's3' at data row 2"),
        (_cell(b"1e400"),
         "run.csv: non-finite value in column 's3' at data row 2"),
        (lambda body: body.replace(b"\n", b"\r\n"), None),
        (lambda body: body.replace(b"\n", b"\r"), None),
        (lambda body: body + b"\n", None),
        (lambda body: body.replace(b"\n", b"\n# a comment\n", 5), None),
        (lambda body: body[:-1], None),
        pytest.param(lambda body: body.split(b"\n", 1)[0] + b"\n\n\n",
                     "run.csv: no samples",
                     marks=pytest.mark.filterwarnings("error::UserWarning")),
        pytest.param(lambda body: body.split(b"\n", 1)[0] + b"\n",
                     "run.csv: no samples",
                     marks=pytest.mark.filterwarnings("error::UserWarning")),
    ], ids=["-0", ".5", "1.", "+1", "nan", "inf", "1e400", "CRLF", "lone CR",
            "blank last line", "comment", "no last newline",
            "only blank lines", "header only"])
    def test_other_text_reads_through_loadtxt(self, tmp_path, monkeypatch,
                                               mutate, expected):
        run, path = self._mutated(tmp_path, mutate)
        calls = self._spy(monkeypatch)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                ingest_run(path)
            assert str(info.value) == expected
        else:
            back = ingest_run(path)
            sensors = np.array(run.sensors)
            if expected is not None:
                sensors[2, 2] = expected
            assert back.sensors.tobytes() == sensors.tobytes()
            assert back.s_in.tobytes() == run.s_in.tobytes()
            assert back.theta.tobytes() == run.theta.tobytes()
        assert calls

    def test_a_ragged_row_is_loadtxts_error(self, tmp_path):
        _, path = self._mutated(tmp_path, self._cell(b"1,2"))
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            with pytest.raises(ValueError) as ref:
                np.loadtxt(fh, delimiter=",", ndmin=2)
        with pytest.raises(ValueError) as info:
            ingest_run(path)
        assert str(info.value) == f"run.csv: {ref.value}"

    def test_an_export_reads_without_loadtxt_a_minus_zero_too(
            self, sample_run, tmp_path, monkeypatch):
        sensors = np.array(sample_run.sensors)
        sensors[2, 3000] = -0.0  # in a late block of a 4000-sample run
        run = dataclasses.replace(sample_run, sensors=sensors)
        path = export_run(run, tmp_path / "signed.csv")
        self._spy(monkeypatch, refuse=True)
        back = ingest_run(path)
        for name in ("s_in", "sensors", "theta"):
            assert getattr(back, name).tobytes() == getattr(run, name).tobytes()
        assert math.copysign(1.0, back.sensors[2, 3000]) == -1.0

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
    def test_a_byte_order_mark_copy_reads_as_the_plain_run(
            self, sample_run, tmp_path, monkeypatch, newline):
        # spreadsheet exports often start a CSV with a UTF-8 byte-order mark
        path = export_run(sample_run, tmp_path / "run.csv")
        copy = tmp_path / "bom" / "run.csv"
        copy.parent.mkdir()
        copy.write_bytes(b"\xef\xbb\xbf"
                         + path.read_bytes().replace(b"\n", newline))
        sidecar_path(copy).write_bytes(sidecar_path(path).read_bytes())
        plain = ingest_run(path)
        self._spy(monkeypatch, refuse=newline == b"\n")
        back = ingest_run(copy)
        assert (back.grid, back.condition, back.payload_grams) == (
            plain.grid, plain.condition, plain.payload_grams)
        for name in ("s_in", "sensors", "theta"):
            assert getattr(back, name).tobytes() == getattr(plain, name).tobytes()


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
        assert doc["elapsed_seconds"] == 1.5

    def test_manifest_requires_its_elapsed_seconds(self, tmp_path):
        with pytest.raises(TypeError, match="elapsed_seconds"):
            write_manifest(tmp_path / "manifest.json", config_hash="abc",
                           seed=7, outputs=["a.csv"])
        assert not (tmp_path / "manifest.json").exists()


# JSON-shaped values: what json.load can return, nested
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


@pytest.fixture(scope="module")
def small_run_files(tmp_path_factory):
    """One exported 50-sample run: its CSV text and its sidecar."""
    grid = TimeGrid(n_samples=50)
    path = export_run(
        simulate(SurrogateParams(),
                 generate_profile(default_profile_family()[0], grid), 100.0,
                 grid, condition=InputCondition(1, 2)),
        tmp_path_factory.mktemp("small") / "run.csv")
    return path.read_text(), json.loads(sidecar_path(path).read_text())


class TestSidecarFuzz:
    FIELDS = ["format", "sample_rate", "t0", "n_samples", "n_sensors",
              "condition", "payload_grams", "units", "config_hash", "seed"]

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(FIELDS + ["condition.profile_index",
                                           "condition.payload_index"]),
           value=JSON_VALUES | st.floats() | st.integers())
    def test_any_field_value_reads_or_is_refused_naming_the_sidecar(
            self, small_run_files, field, value):
        text, meta = small_run_files
        meta = json.loads(json.dumps(meta))
        if "." in field:
            outer, inner = field.split(".")
            meta[outer][inner] = value
        else:
            meta[field] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.csv"
            path.write_text(text)
            sidecar_path(path).write_text(json.dumps(meta))
            try:
                ingest_run(path)
            except ValueError as exc:
                assert "run.meta.json" in str(exc), str(exc)


class TestWeightsFuzz:
    FIELDS = ["format", "task_names", "sensor_mask", "sensor_names",
              "weights", "provenance"]

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(FIELDS),
           value=JSON_VALUES | st.lists(st.lists(st.floats(), max_size=3),
                                        max_size=9))
    def test_any_field_value_loads_or_is_refused_naming_the_file(
            self, field, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = save_weights(Path(tmp) / "w.json", ReadoutWeights(
                np.ones((8, 1)), tuple(range(7)), ("bending",)))
            doc = json.loads(path.read_text())
            doc[field] = value
            path.write_text(json.dumps(doc))
            try:
                load_weights(path)
            except ValueError as exc:
                assert "w.json" in str(exc), str(exc)
