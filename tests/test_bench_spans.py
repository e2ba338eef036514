"""The benchmark's span table (jobbench/spans.py) names only functions and
methods the package defines, so a rename or deletion fails here rather than
halfway through a traced benchmark run. The table is read, never installed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "jobbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.exists():
        pytest.skip("jobbench/spans.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("_jobbench_spans_table", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_spans_resolve(spans):
    targets = [(mod, attr) for _, mod, attr in spans.FUNCTION_SPANS]
    # the benchmark's own tests count calls to this helper by code object
    targets.append(("covbody.polytope", "_intersection_vertices"))
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing


def test_method_spans_resolve(spans):
    # the tracer patches methods through the class's own __dict__
    targets = [(mod, cls, meth) for _, mod, cls, meth in spans.METHOD_SPANS]
    targets.append(("covbody.covariogram", "CovRay", "g"))
    missing = [f"{mod}.{cls}.{meth}" for mod, cls, meth in targets
               if meth not in vars(getattr(importlib.import_module(mod), cls, object))]
    assert not missing
