"""IO001 — no unpickling.

Nothing read from disk may be executed.  ``pickle`` rebuilds whatever
objects — and runs whatever code — its input bytes name (``marshal``
loads code objects; ``shelve`` is pickle underneath), and a sha256
stored beside those bytes protects their integrity, not their trust.
On-disk state has non-executable encodings instead: JSON records and
the packed codecs of ``repro.perf.flat``.  This rule flags every call
to ``load``, ``loads`` or ``Unpickler`` from ``pickle``, ``load`` or
``loads`` from ``marshal``, and ``shelve.open`` anywhere mapitlint
scans, however it was imported (aliases resolve through the project
model).  The fork pool needs no
exception: ``multiprocessing`` unpickles worker results inside the
standard library.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.mapitlint.findings import Finding
from tools.mapitlint.registry import Rule, register
from tools.mapitlint.rules._helpers import call_name

#: per module, the calls that turn bytes into objects by executing
#: what the bytes say
FORBIDDEN = {
    "pickle": ("load", "loads", "Unpickler"),
    "marshal": ("load", "loads"),
    "shelve": ("open",),
}
FORBIDDEN_CALLS = frozenset(
    f"{module}.{name}" for module, names in FORBIDDEN.items() for name in names
)


@register
class NoUnpickling(Rule):
    rule_id = "IO001"
    name = "no-unpickling"
    description = (
        "pickle/marshal/shelve loads anywhere — bytes read from disk are "
        "decoded, never executed"
    )

    def check_module(self, module, ctx) -> Iterator[Finding]:
        project = ctx.project()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = project.resolve_name(module, call_name(node) or "")
            if resolved in FORBIDDEN_CALLS:
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{resolved}() executes whatever its bytes name, and a "
                        "checksum stored beside them protects integrity, not "
                        "trust; decode JSON or a repro.perf.flat codec instead"
                    ),
                )
