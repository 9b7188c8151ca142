"""The README's library examples and experiment config must match the
package's public API and config parser."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

from nlvar.grouplasso import SolverOptions
from nlvar.harness import experiment_config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[ast.Module]:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python example"
    return [ast.parse(block) for block in blocks]


def test_readme_library_examples_bind_to_the_api():
    for tree in _python_blocks():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "nlvar":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id in imported]
        assert calls
        for call in calls:
            assert not any(isinstance(a, ast.Starred) for a in call.args)
            assert all(kw.arg is not None for kw in call.keywords)
            signature = inspect.signature(imported[call.func.id])
            try:
                signature.bind(*[None] * len(call.args), **{kw.arg: None for kw in call.keywords})
            except TypeError as exc:
                raise AssertionError(
                    f"README line {call.lineno}: {ast.unparse(call)} does not fit "
                    f"{call.func.id}{signature}: {exc}") from None


def test_readme_experiment_config_parses_at_the_default_budget():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, "README should hold one experiment-config JSON block"
    # a tiny data spec: parsing reads it, and nothing is generated
    doc = {**json.loads(blocks[0]), "data": {"synthetic": {"length": 20}}}
    assert experiment_config_from_dict(doc).options == SolverOptions()
