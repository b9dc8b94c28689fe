"""The traced benchmark wraps `armrc` functions by name
(`perfbench/spans.py` TARGETS); a renamed or deleted one would fail only
when the benchmark runs. This pins each name to a callable in its module."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, name) for layer, names in spans.TARGETS.items()
            for name in names]


@pytest.mark.parametrize("layer, name", _targets(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_every_traced_name_resolves_in_its_module(layer, name):
    module = importlib.import_module(f"armrc.{layer}")
    assert callable(getattr(module, name, None)), f"armrc.{layer}.{name}"
