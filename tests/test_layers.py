"""The modules of the package reach each other only through public names."""

import ast
from pathlib import Path

import pytest

import symcub

SRC = Path(symcub.__file__).parent
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(source):
    """Underscore names a module imports from, or reads off, another symcub module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "symcub"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(alias.name)
                if node.level and node.module is None:  # from . import ruleio
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "symcub":
                    modules.add(alias.asname or alias.name.split(".")[0])
                    found.extend(part for part in alias.name.split(".") if _private(part))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(node.attr)
    return found


def test_every_module_is_checked():
    assert {"assembly.py", "cli.py", "decomposition.py", "search.py", "validation.py"} <= set(MODULES)


@pytest.mark.parametrize("filename", MODULES)
def test_chain_layers_use_no_private_name_of_another_module(filename):
    assert _private_uses((SRC / filename).read_text()) == []


def test_private_uses_are_found():
    source = (
        "from .assembly import _write_chain, assemble_rule\n"
        "from symcub.moments import _PATTERN_TO_FIELD\n"
        "from . import ruleio\n"
        "import symcub.search\n"
        "ruleio._DUMPS['json']\n"
        "symcub.search._walker(1, 2)\n"
        "ruleio.__name__\n"
        "self._table\n"
    )
    assert _private_uses(source) == ["_write_chain", "_PATTERN_TO_FIELD", "_DUMPS", "_walker"]
