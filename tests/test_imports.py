"""The four computation paths stay independent: each library module may
import only the modules its row of the table names.  The front ends (the
package itself, ``cli`` and ``verify``) join the paths and are not listed."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowvol

PACKAGE = Path(flowvol.__file__).parent
FRONT_ENDS = {"__init__", "cli", "verify"}

# module -> the modules of the package it may import
ALLOWED = {
    "_record": set(),
    "graphs": {"_record"},
    "kostant": {"graphs"},
    "lidskii": {"graphs", "kostant"},
    # ct_volume witnesses the table of kostant's sweep, set up by lidskii
    "ctengine": {"_record", "graphs"},
    # the Dyck and cyclic-lemma witnesses load no flow count
    "dyck": {"_record", "graphs"},
    "cyclic": {"_record", "dyck", "graphs"},
    "closedforms": {"dyck", "graphs", "kostant"},
}


def package_imports(source: str) -> set[str]:
    """The package modules that source imports, in any of the forms
    ``from .x import y``, ``from . import x``, ``from flowvol.x import y``,
    ``from flowvol import x`` and ``import flowvol.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is read as the absolute one it stands for
            base = ".".join(filter(None, ("flowvol" if node.level else "", node.module)))
            dotted = [f"{base}.{alias.name}" for alias in node.names] if base == "flowvol" else [base]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("flowvol."))
    return found


def test_each_module_imports_only_what_its_row_allows():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - FRONT_ENDS
    assert modules == set(ALLOWED)
    disallowed = {}
    for name, allowed in ALLOWED.items():
        found = package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) - allowed
        if found:
            disallowed[name] = found
    assert disallowed == {}


def test_every_import_form_is_read():
    source = """
from itertools import chain
from . import kostant
from .lidskii import volume
from flowvol import ctengine, dyck
from flowvol.cyclic import shift
import flowvol.closedforms as cf
import math
def lazy():
    from ._record import Record
"""
    assert package_imports(source) == {
        "kostant", "lidskii", "ctengine", "dyck", "cyclic", "closedforms", "_record"
    }


def test_the_word_witnesses_load_no_flow_count_at_run_time():
    # the package's exports load their module on first use, so the rows
    # above hold in a running interpreter too, not only in the source text
    code = "import sys, flowvol.dyck, flowvol.cyclic; print(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(result.stdout))
    assert {"flowvol.dyck", "flowvol.cyclic"} <= loaded
    assert not {"flowvol.kostant", "flowvol.lidskii"} & loaded


def test_every_export_is_its_module_attribute():
    for name in flowvol.__all__:
        module = importlib.import_module(f"flowvol.{flowvol._EXPORTS[name]}")
        assert getattr(flowvol, name) is getattr(module, name)
    assert set(flowvol.__all__) <= set(dir(flowvol))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        flowvol.no_such_name
