"""Every ``repro`` name the pipeline benchmark imports still exists.

``pipebench/`` calls into the library from its workloads' set-up and
from its timed children, mostly through imports inside functions, so a
renamed or deleted name would otherwise surface only when the
benchmark's own self-test runs.  This reads the benchmark's sources
with :mod:`ast` (it never imports or changes them) and resolves each
``from repro... import name`` and ``import repro...`` against the
library.
"""

import ast
import importlib
from pathlib import Path

import pytest

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"


def repro_imports(path):
    """``(line, module, name)`` for every repro import in *path*, nested
    ones included; *name* is None for a plain ``import``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                found.extend((node.lineno, module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (node.lineno, alias.name, None)
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
    return found


def resolves(module_name, name):
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", sorted(PIPEBENCH.glob("*.py")), ids=lambda path: path.name)
def test_every_repro_name_resolves(path):
    imports = repro_imports(path)
    missing = [
        f"{path.name}:{line}: {module}{'' if name is None else ' ' + name}"
        for line, module, name in imports
        if not resolves(module, name)
    ]
    assert missing == []


def test_the_guarded_calls_are_read():
    """The names the benchmark's oracle references and traced layers
    call are among those checked."""
    names = {
        name
        for path in PIPEBENCH.glob("*.py")
        for _, _, name in repro_imports(path)
    }
    assert {
        "build_interface_graph",
        "accumulate_neighbors",
        "finish_interface_graph",
        "sanitize_traces",
        "InterfaceGraph",
    } <= names
