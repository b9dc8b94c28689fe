from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from armrc.config import (
    ConfigError,
    ExperimentConfig,
    build_config,
    default_config,
    load_config,
)

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