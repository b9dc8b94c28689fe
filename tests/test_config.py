import copy
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import armrc
from armrc.config import (
    ConfigError,
    ExperimentConfig,
    build_config,
    default_config,
    load_config,
)
from armrc.core import Window
from armrc.runio import config_digest

REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"


def write_config(tmp_path, doc):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


class TestDefaults:
    def test_default_config_is_valid_and_encodes_the_7x7_grid(self):
        cfg = default_config()
        assert len(cfg.profiles) == 7
        assert len(cfg.payloads) == 7
        assert cfg.grid.n_samples == 4000

    def test_shipped_yaml_matches_code_defaults(self):
        assert load_config(REPO_CONFIG) == default_config()

    def test_yaml_is_imported_only_to_load_a_file(self):
        # no workload reads YAML, so start-up does not pay for the parser
        src = str(Path(armrc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, armrc, armrc.cli; "
                "armrc.cli.default_config(); print('yaml' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_start_up_imports_neither_numpy_random_nor_multiprocessing(self):
        # the noise generator, the fork pool and the run-row parser are
        # loaded when first used, so start-up does not pay for their modules
        src = str(Path(armrc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, armrc.cli; armrc.cli.default_config(); "
                "print(sorted({'numpy.random', 'multiprocessing', 'orjson'} "
                "& set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"sede": 3})
        with pytest.raises(ConfigError, match="sede"):
            load_config(path)

    def test_unknown_surrogate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"surrogate": {"leek": [1]}})
        with pytest.raises(ConfigError, match="leek"):
            load_config(path)

    def test_zero_ramp_rate_rejected_citing_the_profile(self, tmp_path):
        path = write_config(tmp_path, {
            "profiles": [{"u_min": 1.0, "u_max": 5.0, "r_up": 0.0}],
        })
        with pytest.raises(ConfigError, match=r"profiles\[1\].*r_up"):
            load_config(path)

    def test_overlapping_train_test_windows_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "windows": {"train": [50.0, 80.0], "test": [75.0, 100.0]},
        })
        with pytest.raises(ConfigError, match="overlap"):
            load_config(path)

    def test_all_problems_reported_not_just_the_first(self, tmp_path):
        path = write_config(tmp_path, {
            "ridge": -1.0,
            "normalizer": "bogus",
            "sample_repeats": 0,
        })
        with pytest.raises(ConfigError) as err:
            load_config(path)
        text = str(err.value)
        assert "ridge" in text and "normalizer" in text and "sample_repeats" in text

    def test_window_outside_run_rejected(self):
        with pytest.raises(ConfigError, match="outside the run"):
            ExperimentConfig(test=type(default_config().test)(75.0, 130.0))

    def test_sample_counts_validated_against_train_window(self, tmp_path):
        path = write_config(tmp_path, {"sample_counts": [100, 5000]})
        with pytest.raises(ConfigError, match="5000"):
            load_config(path)

    def test_sample_counts_use_the_windows_floored_row_count(self):
        # 24.99 s at 40 Hz holds 999 rows, not round(999.6) = 1000
        short = type(default_config().train)(50.0, 74.99)
        assert ExperimentConfig(train=short, sample_counts=(999,))
        with pytest.raises(ConfigError, match="1000"):
            ExperimentConfig(train=short, sample_counts=(999, 1000))

    def test_parse_error_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="parse"):
            load_config(path)


class TestOverrides:
    def test_top_level_seed_is_the_only_seed(self):
        cfg = build_config({"seed": 123})
        assert cfg.seed == 123
        assert "seed" not in {f.name for f in fields(cfg.surrogate)}

    def test_a_surrogate_seed_is_refused(self):
        with pytest.raises(ConfigError, match="surrogate: unknown key 'seed'"):
            build_config({"seed": 123, "surrogate": {"seed": 9}})

    def test_partial_surrogate_section_inherits_run_seed(self):
        cfg = build_config({"seed": 123, "surrogate": {"noise_std": 0.2}})
        assert cfg.surrogate.noise_std == 0.2
        assert cfg.seed == 123


class TestDefaultCoupling:
    # an n-node arm may leave out `coupling`: it defaults to nearest-neighbour
    # diffusion at the shipped 0.004 between adjacent pouches, n x n
    def test_a_five_node_config_without_coupling_loads(self, tmp_path):
        surrogate = {"n_nodes": 5, "leak": [0.14, 0.11, 0.08, 0.05, 0.02],
                     "input_gain": [0.018, 0.02, 0.025, 0.03, 0.032],
                     "payload_gain": [-0.1, -0.2, 0.0, -0.3, -0.5],
                     "angle_weights": [0.3, 0.3, 0.4, 0.5, 0.75],
                     "leak_pressure_coeff": [0.9, 0.7, 0.5, 0.3, 0.1]}
        cfg = load_config(write_config(tmp_path, {"surrogate": surrogate}))
        expected = 0.004 * (np.eye(5, k=1) + np.eye(5, k=-1))
        assert np.array_equal(cfg.surrogate.coupling, expected)

    def test_the_default_is_the_shipped_coupling(self):
        assert build_config({"surrogate": {"n_nodes": 7}}) == default_config()
        assert default_config().surrogate.coupling[3] == (
            0.0, 0.0, 0.004, 0.0, 0.004, 0.0, 0.0)


# every key and sub-key set, none at its default
EVERY_KEY = {
    "seed": 11,
    "ridge": 0.5,
    "normalizer": "maxabs",
    "grid": {"sample_rate": 20.0, "n_samples": 2400, "t0": 1.0},
    "windows": {"washout": [1.0, 31.0], "train": [31.0, 61.0],
                "test": [61.0, 121.0]},
    "profiles": [{"u_min": 2.0, "u_max": 30.0, "r_up": 4.0, "r_down": 6.0,
                  "n_cycles": 3},
                 {"u_min": 5.0, "u_max": 40.0}],
    "payloads": [0, 50, 150],
    "multitask_payloads": [0, 250],
    "surrogate": {
        "n_nodes": 3,
        "leak": [0.2, 0.1, 0.05],
        "coupling": [[0.0, 0.01, 0.0], [0.01, 0.0, 0.01], [0.0, 0.01, 0.0]],
        "input_gain": [0.01, 0.02, 0.03],
        "payload_gain": [-0.1, 0.02, -0.5],
        "payload_sat": 250.0,
        "noise_std": 0.1,
        "angle_weights": [0.5, 0.25, 0.75],
        "angle_payload_slope": -0.01,
        "leak_pressure_coeff": [0.5, 0.4, 0.3],
        "leak_pressure_knee": 30.0,
        "leak_pressure_width": 2.0,
    },
    "detection_seconds": 4.0,
    "mass_segment_seconds": 6.0,
    "sample_counts": [10, 20],
    "sample_repeats": 3,
}


# the arms CI's tier-1 workflow writes as shape.yaml and band2.yaml
SHAPE_YAML = """\
profiles:
  - {u_min: 1.0, u_max: 32.25}
  - {u_min: 3.5, u_max: 34.75}
  - {u_min: 6.0, u_max: 37.25}
  - {u_min: 8.5, u_max: 39.75}
  - {u_min: 11.0, u_max: 42.25}
surrogate:
  n_nodes: 5
  leak: [0.14, 0.11, 0.08, 0.05, 0.02]
  input_gain: [0.018, 0.0215, 0.025, 0.0285, 0.032]
  payload_gain: [-0.16, -0.245, -0.33, -0.415, -0.5]
  angle_weights: [0.33, 0.435, 0.54, 0.645, 0.75]
  leak_pressure_coeff: [0.9, 0.7, 0.5, 0.3, 0.1]
sample_repeats: 2
"""
BAND2_YAML = """\
surrogate:
  n_nodes: 6
  leak: [0.14, 0.12, 0.10, 0.08, 0.06, 0.04]
  coupling:
    - [0.002, 0.004, 0.002, 0.0, 0.0, 0.0]
    - [0.004, 0.002, 0.004, 0.002, 0.0, 0.0]
    - [0.002, 0.004, 0.002, 0.004, 0.002, 0.0]
    - [0.0, 0.002, 0.004, 0.002, 0.004, 0.002]
    - [0.0, 0.0, 0.002, 0.004, 0.002, 0.004]
    - [0.0, 0.0, 0.0, 0.002, 0.004, 0.002]
  input_gain: [0.018, 0.021, 0.024, 0.027, 0.030, 0.032]
  payload_gain: [-0.16, -0.2, -0.25, -0.3, -0.4, -0.5]
  angle_weights: [0.33, 0.4, 0.47, 0.54, 0.64, 0.75]
  leak_pressure_coeff: [0.5, 0.5, 0.4, 0.3, 0.2, 0.1]
sample_repeats: 2
"""


class TestEveryKey:
    # pinned digests: a config keeps every value, type and nesting it loads
    # with, so the provenance hash of every output stays put
    def test_a_config_setting_every_key_keeps_its_digest(self, tmp_path):
        cfg = load_config(write_config(tmp_path, EVERY_KEY))
        assert config_digest(cfg) == "f2e684d12f5cb580"
        assert cfg.surrogate.coupling[1] == (0.01, 0.0, 0.01)
        assert cfg.test.end == 121.0

    def test_the_default_config_keeps_its_digest(self):
        assert config_digest(load_config(REPO_CONFIG)) == "7b590ced32fb296b"
        assert config_digest(default_config()) == "7b590ced32fb296b"

    @pytest.mark.parametrize("text, digest", [
        (SHAPE_YAML, "f124e6f7d7f96548"), (BAND2_YAML, "eb2ca79cc82d187f")],
        ids=["shape", "band2"])
    def test_the_ci_arms_keep_their_digests(self, text, digest):
        assert config_digest(build_config(yaml.safe_load(text))) == digest

    def test_a_whole_float_integer_field_keeps_the_default_digest(self):
        # `n_nodes: 7.0` builds the 7-node arm, and `n_cycles: 8.0` the
        # default ramps, so the experiment's digest is the default one
        doc = copy.deepcopy(DEFAULT_DOC)
        doc["surrogate"]["n_nodes"] = 7.0
        for profile in doc["profiles"]:
            profile["n_cycles"] = 8.0
        cfg = build_config(doc)
        assert type(cfg.surrogate.n_nodes) is int
        assert {type(p.n_cycles) for p in cfg.profiles} == {int}
        assert cfg == default_config()
        assert config_digest(cfg) == "7b590ced32fb296b"

    def test_a_float_field_written_as_an_int_keeps_the_default_digest(self):
        # equal configs have one digest: `payload_sat: 300` is the default
        # 300.0, and so is a window built from ints
        cfg = build_config({"surrogate": {"payload_sat": 300}})
        assert type(cfg.surrogate.payload_sat) is float
        assert cfg == default_config()
        assert config_digest(cfg) == "7b590ced32fb296b"
        cfg = ExperimentConfig(train=Window(50, 75))
        assert (type(cfg.train.start), type(cfg.train.end)) == (float, float)
        assert config_digest(cfg) == "7b590ced32fb296b"
        cfg = build_config({"grid": {"sample_rate": 40, "t0": 0}})
        assert config_digest(cfg) == "7b590ced32fb296b"

    def test_an_integral_float_is_an_integer(self):
        cfg = build_config({"grid": {"n_samples": 4000.0}, "seed": 9.0})
        assert type(cfg.grid.n_samples) is int and type(cfg.seed) is int
        assert cfg == build_config({"seed": 9})


class TestMalformedSections:
    @pytest.mark.parametrize("doc, problem", [
        ({"profiles": [1]}, "profiles[1]: expected a mapping"),
        ({"surrogate": [1]}, "surrogate: expected a mapping"),
        ({"grid": 5}, "grid: expected a mapping"),
        ({"windows": ["train"]}, "windows: expected a mapping"),
        ({"profiles": {"u_min": 1.0}}, "profiles: expected a list"),
        ({"profiles": "P1"}, "profiles: expected a list"),
        ({"windows": {"trian": [0, 1]}}, "windows: unknown key 'trian'"),
        ({"grid": {"rate": 40}}, "grid: unknown key 'rate'"),
        ({"profiles": [{"u_min": 1, "u_max": 5, "peak": 3}]},
         "profiles[1]: unknown key 'peak'"),
        ({"windows": {"train": [50, 60, 70]}}, "windows.train: expected"),
        ({"payloads": 5}, "payloads:"),
        ({"seed": 1.5}, "seed: expected an integer"),
        ({"sample_repeats": 2.5}, "sample_repeats: expected an integer"),
        ({"sample_counts": [100, 200.5]}, "sample_counts: expected an integer"),
        ({"seed": float("inf")}, "seed: expected an integer"),
        ({"ridge": [1]}, "ridge: float() argument"),
        ({"ridge": 10 ** 400}, "ridge:"),
        # a bool or a quoted number is no number: YAML `seed: true` would
        # run at seed 1
        ({"seed": True}, "seed: expected an integer, got True"),
        ({"seed": "7"}, "seed: expected an integer, got '7'"),
        ({"sample_repeats": "3"}, "sample_repeats: expected an integer"),
        ({"sample_counts": [100, "200"]}, "sample_counts: expected an integer"),
        ({"ridge": "0.5"}, "ridge: expected a number, got '0.5'"),
        ({"detection_seconds": False}, "detection_seconds: expected a number"),
        # nor in a section: `noise_std: true` stored True, `sample_rate:
        # true` built a 1 Hz grid, a quoted leak rate was read as a float
        ({"surrogate": {"noise_std": True}},
         "surrogate: noise_std must be numeric, got True"),
        ({"surrogate": {"leak": [0.14, 0.13, "0.40", 0.075, 0.055, 0.035,
                                 0.0175]}}, "surrogate: leak must be numeric"),
        ({"grid": {"sample_rate": True, "n_samples": 100}},
         "grid: sample_rate must be numeric, got True"),
        ({"grid": {"n_samples": "4000"}},
         "grid: n_samples must be numeric, got '4000'"),
        ({"profiles": [{"u_min": 1.0, "u_max": 32.25, "n_cycles": True}]},
         "profiles[1]: n_cycles must be numeric, got True"),
        ({"profiles": [{"u_min": 1.0, "u_max": "32.25"}]},
         "profiles[1]: u_max must be numeric, got '32.25'"),
        ({"windows": {"train": ["50", "75"]}},
         "windows.train: expected a number, got '50'"),
        ({"windows": {"test": [75.0, True]}},
         "windows.test: expected a number, got True"),
        # nor in a payload set, which simulated a 1 g payload for `true`
        ({"payloads": [0.0, True, 200.0]},
         "payloads: masses must be numeric, got (0.0, True, 200.0)"),
        ({"payloads": [0.0, "100", 200.0]},
         "payloads: masses must be numeric, got (0.0, '100', 200.0)"),
        ({"multitask_payloads": [0, True, 2, 3]},
         "multitask_payloads: masses must be numeric"),
        # an integer field takes a whole float only, and a scalar field one
        # number
        ({"profiles": [{"u_min": 1.0, "u_max": 32.25, "n_cycles": 8.5}]},
         "profiles[1]: n_cycles: expected an integer, got 8.5"),
        ({"surrogate": {"n_nodes": 7.5}},
         "surrogate: n_nodes: expected an integer, got 7.5"),
        ({"grid": {"n_samples": 4000.5}},
         "grid: n_samples: expected an integer, got 4000.5"),
        ({"grid": {"t0": None}}, "grid: t0 must be numeric, got None"),
        ({"grid": {"t0": []}}, "grid: t0 must be numeric, got ()"),
        ({"surrogate": {"noise_std": [0.3]}},
         "surrogate: noise_std must be numeric, got (0.3,)"),
        # an integer past the largest float is no finite number
        ({"surrogate": {"noise_std": 10 ** 400}}, "surrogate:"),
        ({"profiles": [{"u_min": 1.0, "u_max": 10 ** 400}]}, "profiles[1]:"),
        # ... and the problem names its field
        ({"surrogate": {"noise_std": 10 ** 400}},
         "surrogate: noise_std must be finite"),
        ({"profiles": [{"u_min": 1.0, "u_max": 10 ** 400}]},
         "profiles[1]: u_max must be finite"),
        ({"surrogate": {"leak": [10 ** 400, 0.13, 0.40, 0.075, 0.055, 0.035,
                                 0.0175]}}, "surrogate: leak must be finite"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_is_one_config_error_naming_the_place(self, doc, problem):
        with pytest.raises(ConfigError) as err:
            build_config(doc)
        assert any(p.startswith(problem) for p in err.value.problems), \
            err.value.problems


def test_an_exponent_without_a_dot_is_a_yaml_string(tmp_path):
    # YAML 1.1 reads `1e-3` as a string, refused like "0.5"; `1.0e-3` is a
    # number
    path = tmp_path / "cfg.yaml"
    path.write_text("ridge: 1e-3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="ridge: expected a number, got '1e-3'"):
        load_config(path)
    path.write_text("ridge: 1.0e-3\n", encoding="utf-8")
    assert load_config(path).ridge == 0.001


class TestWholeNumbers:
    # a config built in Python is held to the integers YAML is: a fraction,
    # a bool or a string is refused (`sweep samples` would label a 150.7 row
    # and fit 150 samples; `cli._sweep` would fail on a 2.5 repeat count)
    @pytest.mark.parametrize("key, value, problem", [
        ("sample_counts", (150.7, 200), "sample_counts: expected an integer"),
        ("sample_counts", (True,), "sample_counts: expected an integer"),
        ("sample_repeats", 2.5, "sample_repeats: expected an integer"),
        ("sample_repeats", "3", "sample_repeats: expected an integer"),
        ("seed", 7.5, "seed: expected an integer"),
        ("seed", True, "seed: expected an integer"),
    ])
    def test_a_non_integer_is_refused(self, key, value, problem):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{key: value})
        assert any(p.startswith(problem) for p in err.value.problems), \
            err.value.problems

    def test_a_whole_float_is_the_int_it_equals(self):
        cfg = ExperimentConfig(seed=7.0, sample_repeats=2.0,
                               sample_counts=[100.0, 200])
        assert (cfg.seed, cfg.sample_repeats, cfg.sample_counts) == (
            7, 2, (100, 200))
        assert {type(v) for v in (cfg.seed, cfg.sample_repeats,
                                  *cfg.sample_counts)} == {int}
        assert cfg == ExperimentConfig(seed=7, sample_repeats=2,
                                       sample_counts=(100, 200))


class TestNonFinite:
    @pytest.mark.parametrize("key", ["detection_seconds",
                                     "mass_segment_seconds", "ridge"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_a_non_finite_number_is_refused(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("grid", [{"n_samples": 4000.5},
                                      {"sample_rate": float("inf")},
                                      {"t0": float("nan")}])
    def test_a_grid_the_clock_cannot_represent_is_refused(self, grid):
        with pytest.raises(ConfigError, match="grid: " + next(iter(grid))):
            build_config({"grid": grid})

    @pytest.mark.parametrize("bounds", [[0.0, float("inf")],
                                        [float("nan"), 50.0],
                                        [-1e308, 1e308]])
    def test_a_window_without_a_finite_span_is_refused(self, bounds):
        with pytest.raises(ConfigError, match="windows.washout"):
            build_config({"windows": {"washout": bounds}})


# YAML-shaped values: what yaml.safe_load can return, nested
YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=4),
    max_leaves=12)
# numbers and [start, end] pairs reach the cross-field checks more often
VALUES = (YAML_VALUES | st.floats() | st.integers()
          | st.lists(st.floats() | st.integers(), min_size=2, max_size=2))
DEFAULT_DOC = yaml.safe_load(REPO_CONFIG.read_text(encoding="utf-8"))
PATHS = ([(key,) for key in DEFAULT_DOC]
         + [(section, sub) for section in ("grid", "windows", "surrogate")
            for sub in DEFAULT_DOC[section]]
         + [("profiles", 0), ("payloads", 0)]
         + [("profiles", 0, sub) for sub in
            ("u_min", "u_max", "r_up", "r_down", "n_cycles")])


def _set(doc, path, value):
    """``doc`` at ``path`` set to ``value``, where the path still exists."""
    try:
        for step in path[:-1]:
            doc = doc[step]
        if isinstance(doc, list) == isinstance(path[-1], int):
            doc[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


@st.composite
def config_docs(draw):
    """The shipped config or an empty one, with one to three keys or
    sub-keys replaced by random YAML values; or any YAML value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(YAML_VALUES)
    doc = copy.deepcopy(DEFAULT_DOC) if draw(st.booleans()) else {}
    for path, value in draw(st.lists(st.tuples(st.sampled_from(PATHS),
                                               VALUES),
                                     min_size=1, max_size=3)):
        _set(doc, path, value)
    return doc


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(config_docs())
    def test_any_yaml_value_loads_or_is_a_config_error(self, doc):
        try:
            cfg = build_config(doc)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)



def _numeric_leaves(doc, path=()):
    """The path of each number in a parsed YAML document, at any depth."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if type(doc) in (int, float) else []
    return [leaf for key, value in items
            for leaf in _numeric_leaves(value, path + (key,))]


def _at(doc, path):
    """The value at ``path`` in a parsed YAML document."""
    for step in path:
        doc = doc[step]
    return doc


def _place(path) -> str:
    """How a problem with the leaf at ``path`` begins: the key, section or
    list it is read in, and the field it sets."""
    head = path[0]
    if head in ("grid", "surrogate"):
        return f"{head}: {path[1]} "
    if head == "profiles":
        return f"profiles[{path[1] + 1}]: {path[2]} "
    if head == "windows":
        return f"windows.{path[1]}: "
    if head in ("payloads", "multitask_payloads"):
        return f"{head}: masses "
    return head


# the shipped config and the two arms CI runs, as parsed YAML
RULE_DOCS = {"default": DEFAULT_DOC, "shape": yaml.safe_load(SHAPE_YAML),
             "band2": yaml.safe_load(BAND2_YAML)}


class TestNumberRule:
    # every number a config sets, wherever it sits, is held to one rule: a
    # bool, a quoted number, a NaN or an infinity is one problem naming its
    # place, and a whole float in place of an integer is that integer
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_non_number_anywhere_is_one_problem_naming_its_place(self, data):
        doc = copy.deepcopy(RULE_DOCS[data.draw(st.sampled_from(
            sorted(RULE_DOCS)))])
        path = data.draw(st.sampled_from(_numeric_leaves(doc)))
        value = _at(doc, path)
        _set(doc, path, data.draw(st.sampled_from(
            [True, str(value)] + ([float("nan"), float("inf")]
                                  if type(value) is float else []))))
        with pytest.raises(ConfigError) as err:
            build_config(doc)
        assert len(err.value.problems) == 1, err.value.problems
        assert err.value.problems[0].startswith(_place(path)), (
            path, err.value.problems)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_whole_float_for_an_integer_changes_nothing(self, data):
        name = data.draw(st.sampled_from(sorted(RULE_DOCS)))
        doc = copy.deepcopy(RULE_DOCS[name])
        path = data.draw(st.sampled_from([
            p for p in _numeric_leaves(doc) if type(_at(doc, p)) is int]))
        _set(doc, path, float(_at(doc, path)))
        cfg, original = build_config(doc), build_config(RULE_DOCS[name])
        assert cfg == original
        assert config_digest(cfg) == config_digest(original)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_an_int_for_a_whole_float_changes_nothing(self, data):
        # a float field holds a float however it is written; the entries of
        # a list in a section (`leak`, `coupling`) stay as written, and
        # band2.yaml sets no other float
        name = data.draw(st.sampled_from(["default", "shape"]))
        doc = copy.deepcopy(RULE_DOCS[name])
        path = data.draw(st.sampled_from([
            p for p in _numeric_leaves(doc) if type(_at(doc, p)) is float
            and _at(doc, p).is_integer()
            and not (p[0] == "surrogate" and len(p) > 2)]))
        _set(doc, path, int(_at(doc, path)))
        cfg, original = build_config(doc), build_config(RULE_DOCS[name])
        assert cfg == original
        assert config_digest(cfg) == config_digest(original)
