"""The benchmark's layer tracer wraps package attributes by name
(``perfbench/tracing.py`` ``WRAP_POINTS``); deleting or renaming one makes
every traced benchmark pass fail with ``AttributeError``. This reads the
tracer's table and changes nothing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


@pytest.mark.parametrize("span, owner_path, attr", _wrap_points())
def test_wrap_point_resolves_to_a_callable(span, owner_path, attr):
    module_path, _, class_name = owner_path.partition(".")
    owner = importlib.import_module(f"competing_bandits.{module_path}")
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None)), f"{span}: {owner_path}.{attr} is gone"
