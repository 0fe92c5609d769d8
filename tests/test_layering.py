"""Module layering, read from the source: no ``dyncorr`` module imports or
reads a private (underscore) name of another, and the shared estimator form
(``form.py``) imports neither family (``bm``, ``gbm``)."""

import ast
from pathlib import Path

import pytest

import dyncorr

SRC = Path(dyncorr.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _origin(node: ast.ImportFrom):
    """The ``dyncorr`` module an import reads from, ``""`` for the package, or
    None for an import from outside ``dyncorr``."""
    dotted = node.module or ""
    if node.level == 0 and dotted.split(".")[0] != "dyncorr":
        return None
    return dotted.removeprefix("dyncorr").lstrip(".")


def _module_of(expr, modules: dict):
    """The ``dyncorr`` module ``expr`` names (``""`` for the package), or None."""
    if isinstance(expr, ast.Name):
        return modules.get(expr.id)
    if isinstance(expr, ast.Attribute) and _module_of(expr.value, modules) == "":
        return expr.attr
    return None


def violations(module: str, source: str) -> list:
    """Each breach of the layering in ``source``, the text of ``dyncorr.<module>``."""
    tree = ast.parse(source)
    found, modules, touched = [], {}, set()   # modules: local name -> module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (origin := _origin(node)) is not None:
            touched.add(origin)
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name} from {origin!r}")
                if origin == "" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                    touched.add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dyncorr":
                    sub = alias.name.removeprefix("dyncorr").lstrip(".")
                    modules[alias.asname or "dyncorr"] = sub if alias.asname else ""
                    touched.add(sub)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _module_of(node.value, modules)
            if owner is not None:
                found.append(f"line {node.lineno}: reads {node.attr} of {owner!r}")
    if module == "form" and touched & {"bm", "gbm"}:
        found.append(f"form imports {sorted(touched & {'bm', 'gbm'})}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reaches_into_another(module):
    assert violations(module, (SRC / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("module, source", [
    ("gbm", "from .bm import _products\n"),
    ("gbm", "from dyncorr.bm import _products\n"),
    ("harness", "def f():\n    from .form import _curve_estimate\n"),
    ("cli", "from . import bm\nbm._lags(5)\n"),
    ("cli", "import dyncorr.bm as bm\nbm._lags(5)\n"),
    ("cli", "import dyncorr.bm\ndyncorr.bm._lags(5)\n"),
    ("form", "from . import bm\n"),
    ("form", "from .gbm import GbmEstimatorParams\n"),
    ("form", "import dyncorr.bm\n"),
])
def test_each_breach_is_caught(module, source):
    assert violations(module, source)


def test_public_dunder_and_local_names_pass():
    source = "from . import __version__, bm, form\nfrom .bm import BmEstimatorParams\nform.rowdot\n"
    assert violations("cli", source) == []
    assert violations("gbm", "import numpy as np\nnp._x\nself._y = 1\n_z = 2\n_z.attr\n") == []
