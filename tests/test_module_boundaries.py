"""No module of the package imports or calls a sibling module's private
(underscore) name: each module's private state stays its own."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlvar"

#: (module, sibling, name) reaches that stay. The benchmark tracer times the
#: CV solves by wrapping the binding nlvar.harness._solve_stacked, so harness
#: imports the stacked solver by that name.
ALLOWED = {("harness", "grouplasso", "_solve_stacked")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reaches(module: str, source: str, siblings) -> set:
    """(module, sibling, name) for every sibling private name that `source`
    imports, or reads as an attribute of an imported sibling module."""
    tree = ast.parse(source)
    bound = {}  # local name -> sibling module bound to it
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] == "nlvar":
            parts = parts[1:]
        elif node.level != 1:
            continue
        for alias in node.names:
            if not parts or not parts[0]:  # from . import sibling
                if alias.name in siblings:
                    bound[alias.asname or alias.name] = alias.name
            elif parts[0] in siblings and _private(alias.name):
                found.add((module, parts[0], alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            found.add((module, bound[node.value.id], node.attr))
    return found


def test_the_checker_sees_imports_and_calls():
    source = ("from . import harness as h\nfrom .solver import _x, y\n"
              "from nlvar.kernels import _z\nh._read_keys({}, (), '')\nh.public()\n")
    assert _reaches("cli", source, {"harness", "solver", "kernels"}) == {
        ("cli", "harness", "_read_keys"), ("cli", "solver", "_x"), ("cli", "kernels", "_z")}


def test_no_module_reaches_a_siblings_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    siblings = {path.stem for path in paths}
    found = set()
    for path in paths:
        found |= _reaches(path.stem, path.read_text(), siblings)
    assert found - ALLOWED == set()


#: (module, name) imports that the module never reads. The benchmark tracer
#: wraps the binding nlvar.harness.build_feature_stack, so harness keeps it.
UNREAD_ALLOWED = {("harness", "build_feature_stack")}


def _unread_imports(module: str, source: str) -> set:
    """(module, name) for every name that `source` imports and never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {(module, name) for name in imported - read}


def test_the_checker_sees_unread_imports():
    source = ("from __future__ import annotations\nimport scipy.linalg\nimport json as j\n"
              "from .solver import fit, predict as p\nx: j.JSONDecoder = fit\np = 1\n")
    assert _unread_imports("cli", source) == {("cli", "scipy"), ("cli", "p")}


def test_no_module_imports_a_name_it_never_reads():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":  # the package's imports are its public names
            found |= _unread_imports(path.stem, path.read_text())
    assert found - UNREAD_ALLOWED == set()


def _float_conversions(source: str) -> list[int]:
    """Lines of every np.asarray or np.array call in `source` that converts
    to float (dtype=float, by keyword or position)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
                and node.func.attr in ("asarray", "array")):
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
            if any(isinstance(dtype, ast.Name) and dtype.id == "float" for dtype in dtypes):
                lines.append(node.lineno)
    return lines


def test_the_checker_sees_float_conversions():
    source = ("import numpy as np\nnp.asarray(x, dtype=float)\nnp.array(x, float)\n"
              "np.asarray(x)\nnp.array(x, dtype=int)\nnp.zeros(3, dtype=float)\n")
    assert _float_conversions(source) == [2, 3]


def test_only_errors_converts_arrays_to_float():
    # errors.data_array is the one reader of numeric arrays: a conversion
    # elsewhere would read past its finite-numbers rule
    found = {path.stem: lines for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "errors" and (lines := _float_conversions(path.read_text()))}
    assert found == {}
