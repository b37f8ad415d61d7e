"""ORA001 — oracle independence from the production code.

The paper-literal reference implementation (``repro.oracle``) exists
to check production code differentially (docs/DIFFERENTIAL_TESTING.md):
its fold checks ``repro.perf``'s and its passes check ``repro.core``.
That only works while the two share *no code*: an oracle that imports
a production helper inherits the helper's bugs, and the harness stops
being able to see them.  This rule flags any import of a ``repro``
module outside ``repro.oracle`` inside ``src/repro/oracle/`` —
including relative imports that climb out of the package
(``from ..perf.flat import GraphFold``) and imports nested in
functions, which a reader of the file's import block would miss.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.mapitlint.findings import Finding
from tools.mapitlint.registry import Rule, register

PACKAGE = "repro"
ORACLE = "repro.oracle"
ORACLE_DIR = "repro/oracle/"


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _absolute(relpath: str, node: ast.ImportFrom) -> str:
    """The dotted module a ``from ... import`` reads, relative imports
    resolved against the package of the module at *relpath*."""
    if not node.level:
        return node.module or ""
    package = relpath[relpath.index(ORACLE_DIR):].split("/")[:-1]
    base = package[: max(0, len(package) - node.level + 1)]
    return ".".join(base + ([node.module] if node.module else []))


@register
class OracleIndependence(Rule):
    rule_id = "ORA001"
    name = "oracle-independence"
    description = (
        "repro.oracle imports nothing from repro outside repro.oracle — "
        "the reference implementation must not share code with what it checks"
    )

    def check_module(self, module, ctx) -> Iterator[Finding]:
        if ORACLE_DIR not in module.relpath:
            return
        for node in ast.walk(module.tree):
            offender = None
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _within(alias.name, PACKAGE) and not _within(alias.name, ORACLE):
                        offender = alias.name
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(module.relpath, node)
                if _within(source, PACKAGE) and not _within(source, ORACLE):
                    offender = source
            if offender is not None:
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"oracle module imports {offender!r}; the reference "
                        "implementation must stay independent of repro.core, "
                        "repro.perf and every other module it checks (restate "
                        "the logic instead — see repro/oracle/__init__.py)"
                    ),
                )
