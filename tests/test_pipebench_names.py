"""Every ``repro`` name and ``mapit run`` flag the pipeline benchmark
uses still exists.

``pipebench/`` calls into the library from its workloads' set-up and
from its timed children, mostly through imports inside functions, and
launches ``mapit run`` with the flags its workloads list, so a renamed
or deleted name or flag would otherwise surface only when the
benchmark's own self-test runs.  This reads the benchmark's sources
with :mod:`ast` (it never imports or changes them), resolves each
``from repro... import name`` and ``import repro...`` against the
library, and parses each ``mapit run`` command line with the CLI's own
parser.
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


def _words(node):
    """A list literal's elements: each string literal as itself, any
    other expression as ``"1"``, a value every benchmark flag takes."""
    return [
        element.value
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
        else "1"
        for element in node.elts
    ]


def run_command_lines(path):
    """The ``mapit run`` argv lists *path* builds: a list literal naming
    ``"cli", "run"`` (from ``"run"`` on), and that command line with each
    option list literal (one opening with a ``--`` flag) of the same
    function appended."""
    found = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        lists = [_words(node) for node in ast.walk(function) if isinstance(node, ast.List)]
        bases = [
            words[index + 1 :]
            for words in lists
            for index in range(len(words) - 1)
            if words[index : index + 2] == ["cli", "run"]
        ]
        found.extend(bases)
        if bases:
            found.extend(
                bases[0] + words for words in lists if words and words[0].startswith("--")
            )
    return found


def test_the_benchmark_run_flags_parse():
    """``mapit run`` still parses every command line the benchmark
    launches (run-dense's plain, ``--jobs``, ``--cache`` and
    ``--journal`` runs)."""
    from repro.cli import build_parser

    command_lines = run_command_lines(PIPEBENCH / "workloads.py")
    flags = {word for argv in command_lines for word in argv if word.startswith("--")}
    assert {"--json", "--output", "--cache", "--jobs", "--journal"} <= flags
    parser = build_parser()
    for argv in command_lines:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"mapit cannot parse: {' '.join(argv)}")
        assert args.func.__name__ == "cmd_run"
