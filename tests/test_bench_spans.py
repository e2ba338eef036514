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


def test_qhull_callers_bind_convexhull_at_module_level():
    # spans.py counts hulls by patching every covbody module that binds
    # scipy's ConvexHull; a hull built through a function-local import or
    # an attribute path would escape the `polytope.hull` counter
    import ast

    import scipy.spatial

    package = Path(importlib.import_module("covbody").__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        uses = False
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                    a.name == "ConvexHull" for a in node.names):
                uses = True
                if id(node) not in top:
                    offenders.append(f"{path.name}:{node.lineno} imports ConvexHull locally")
            elif isinstance(node, ast.Attribute) and node.attr == "ConvexHull":
                offenders.append(f"{path.name}:{node.lineno} reaches ConvexHull by attribute")
            elif isinstance(node, ast.Name) and node.id == "ConvexHull":
                uses = True
        module = importlib.import_module(f"covbody.{path.stem}" if path.stem != "__init__"
                                         else "covbody")
        if uses and getattr(module, "ConvexHull", None) is not scipy.spatial.ConvexHull:
            offenders.append(f"{path.name} does not bind scipy's ConvexHull")
    assert not offenders
