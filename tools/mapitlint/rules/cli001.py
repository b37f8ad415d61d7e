"""CLI001 — CLI flag / subcommand ↔ doc sync.

Walks the argparse construction of each documented command-line
module statically — ``repro/cli.py`` against docs/CLI.md, and
``repro/diff/cli.py`` (``python -m repro.diff``) against
docs/DIFFERENTIAL_TESTING.md: every ``add_parser("name", ...)``
subcommand must be shown as ``mapit name`` in the module's doc, and
every literal ``--flag`` handed to ``add_argument`` must appear there
too (as a whole token — ``--f`` does not match ``--foo``).  This
supersedes the ad-hoc runtime coverage test: the rule needs no import
of the package and composes with the pragma/baseline workflow.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.mapitlint.findings import Finding
from tools.mapitlint.registry import Rule, register

#: (command-line module path suffix, the doc that must describe it)
CLI_DOCS = (
    ("repro/cli.py", "docs/CLI.md"),
    ("repro/diff/cli.py", "docs/DIFFERENTIAL_TESTING.md"),
)


@register
class CliDocSync(Rule):
    rule_id = "CLI001"
    name = "cli-doc-sync"
    description = (
        "every argparse subcommand and --flag in repro/cli.py and "
        "repro/diff/cli.py is documented in docs/CLI.md and "
        "docs/DIFFERENTIAL_TESTING.md"
    )

    def check_project(self, ctx) -> Iterator[Finding]:
        for suffix, doc in CLI_DOCS:
            module = ctx.module(suffix)
            if module is not None:
                yield from self._check_module(ctx, module, doc)

    def _check_module(self, ctx, module, doc) -> Iterator[Finding]:
        subcommands = []
        options = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr == "add_parser":
                if node.args and isinstance(node.args[0], ast.Constant):
                    value = node.args[0].value
                    if isinstance(value, str):
                        subcommands.append((value, node.lineno, node.col_offset))
            elif node.func.attr == "add_argument":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        if arg.value.startswith("--"):
                            options.append((arg.value, arg.lineno, arg.col_offset))
        if not subcommands and not options:
            return
        text = ctx.doc_text(doc)
        if text is None:
            anchor = subcommands[0] if subcommands else options[0]
            yield Finding(
                rule=self.rule_id,
                path=module.relpath,
                line=anchor[1],
                col=anchor[2],
                message=f"{doc} not found; CLI surface cannot be verified",
            )
            return
        for name, line, col in subcommands:
            if f"mapit {name}" not in text:
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=line,
                    col=col,
                    message=f"subcommand {name!r} is not documented in {doc}",
                )
        for option, line, col in options:
            if option == "--help":
                continue
            pattern = re.escape(option) + r"(?![A-Za-z0-9-])"
            if not re.search(pattern, text):
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=line,
                    col=col,
                    message=f"flag {option} is not documented in {doc}",
                )
