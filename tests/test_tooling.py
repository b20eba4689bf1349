"""The benchmark tracer's function list still names real package functions.

``perfbench/spans.py`` wraps each ``module.function`` in ``TRACED`` for a
traced run; a rename in the package would otherwise only show up as a
``--trace 1`` failure.  The two constants are read from the file's syntax
tree; the file is neither executed nor modified.
"""

import ast
import importlib
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    consts = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("PACKAGE", "TRACED"):
                consts[node.targets[0].id] = ast.literal_eval(node.value)
    return consts["PACKAGE"], [(mod, fn) for mod, fns in consts["TRACED"].items() for fn in fns]


PACKAGE, TRACED = _traced()


@pytest.mark.parametrize("mod,fn", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_name_is_a_package_function(mod, fn):
    module = importlib.import_module(f"{PACKAGE}.{mod}")
    assert callable(getattr(module, fn, None)), f"{PACKAGE}.{mod}.{fn} is not a callable"
