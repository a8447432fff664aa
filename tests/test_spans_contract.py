"""The benchmark traces groundrec by wrapping the functions and methods that
perfbench/spans.py names in FUNCTIONS and METHODS. A rename in groundrec
would break every traced benchmark run; these tests make it fail here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("module", SPANS.MODULES)
def test_module_exists(module):
    importlib.import_module(f"groundrec.{module}")


@pytest.mark.parametrize("name, module, attr",
                         [entry[:3] for entry in SPANS.FUNCTIONS])
def test_traced_function_exists(name, module, attr):
    assert callable(getattr(importlib.import_module(f"groundrec.{module}"), attr, None)), name


@pytest.mark.parametrize("name, module, cls, attr",
                         [entry[:4] for entry in SPANS.METHODS])
def test_traced_method_exists(name, module, cls, attr):
    klass = getattr(importlib.import_module(f"groundrec.{module}"), cls, None)
    assert klass is not None and callable(getattr(klass, attr, None)), name
