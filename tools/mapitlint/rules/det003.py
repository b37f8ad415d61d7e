"""DET003 — nondeterminism taint flowing into deterministic artifacts.

DET002 bans wall-clock/entropy *call sites* in golden-covered modules;
this rule upgrades the check to dataflow: a nondeterministic value —
``time.time()``, ``datetime.now()``, ``uuid4()``, ``os.urandom()``,
``id()``, and the monotonic timers ``perf_counter``/``monotonic``
(fine for *timing*, catastrophic in *output*) — must never flow, even
through helper functions, into any artifact the byte-identity contract
covers:

* **fingerprints** — calls to (or returns of) anything named
  ``*fingerprint*`` (the §4.6 state fingerprint is the contract the
  differential harness checks, its serve replay and its chaos
  schedules included);
* **journal records** — ``RunJournal.append`` /
  ``append_with_blob`` / ``store_blob`` and ``write_checkpoint``
  (a resumed run must replay to the same bytes);
* **cache keys** — anything named ``*cache_key*`` (a
  time-salted key silently defeats every warm-start equivalence test);
* **snapshot fields** — arguments of a ``*Snapshot`` constructor (the
  serve query API promises snapshot-derived payloads are reproducible).

Taint propagation is the bounded engine in
:mod:`tools.mapitlint.dataflow`: intraprocedural reaching definitions
with strong updates plus memoised interprocedural summaries to
``MAX_DEPTH`` call levels.  Every finding names the source and its hop
chain in the message and carries the source location in ``related``,
so "``time.time()`` two calls deep" is reported at the sink with the
full route.  Timestamps that stay inside ``repro.obs`` trace events
are *not* sinks — the trace comparators strip volatile keys by design.
Suppress a reviewed exception with
``# mapitlint: disable=DET003 -- <why>``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from tools.mapitlint.dataflow import MAX_DEPTH, TaintEngine, TaintOrigin
from tools.mapitlint.findings import Finding
from tools.mapitlint.project import ClassInfo, FunctionInfo, ProjectModel
from tools.mapitlint.registry import Rule, register
from tools.mapitlint.rules._helpers import call_name
from tools.mapitlint.rules.det002 import FORBIDDEN_CALLS, FORBIDDEN_WHEN_ARGLESS

#: monotonic timers: legal for timing (DET002 allows them), still
#: nondeterministic data the moment they land in output
TIMER_CALLS = {"time.perf_counter", "time.perf_counter_ns", "time.monotonic",
               "time.monotonic_ns"}

#: journal methods whose arguments become durable, replay-compared bytes
JOURNAL_SINKS = {"append", "append_with_blob", "store_blob"}

#: function-name fragments that mark a deterministic-artifact producer
NAME_SINKS = ("fingerprint", "cache_key")


def _source_probe(project: ProjectModel):
    """The TaintEngine policy hook: is this call a nondeterminism source?"""

    def probe(module, node: ast.Call) -> Optional[str]:
        name = call_name(node)
        if name is None:
            return None
        resolved = project.resolve_name(module, name) or name
        for candidate in (name, resolved):
            if candidate in FORBIDDEN_CALLS or candidate in TIMER_CALLS:
                return f"{candidate}()"
            if candidate in FORBIDDEN_WHEN_ARGLESS and not node.args:
                return f"{candidate}()"
            if candidate.startswith("secrets."):
                return f"{candidate}()"
        if name == "id" and len(node.args) == 1:
            return "id()"
        return None

    return probe


def _sink_description(project: ProjectModel, info: FunctionInfo, node: ast.Call):
    """What deterministic artifact this call produces, else None."""
    name = call_name(node) or ""
    tail = name.rsplit(".", 1)[-1]
    lowered = tail.lower()
    for fragment in NAME_SINKS:
        if fragment in lowered:
            return f"{tail}() ({fragment} of the byte-identity contract)"
    if tail == "write_checkpoint":
        return "write_checkpoint() (journal checkpoint bytes)"
    if tail in JOURNAL_SINKS and isinstance(node.func, ast.Attribute):
        receiver = node.func.value
        receiver_type = project.expr_type(info, receiver) or ""
        receiver_name = _dotted(receiver) or ""
        if "journal" in receiver_type.lower() or "journal" in receiver_name.lower():
            return f"journal.{tail}() (durable replay-compared record)"
    callee = project.resolve_call(info, node)
    if isinstance(callee, ClassInfo) and "snapshot" in callee.node.name.lower():
        return f"{callee.node.name}(...) (published snapshot field)"
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class DeterminismTaint(Rule):
    rule_id = "DET003"
    name = "determinism-taint"
    description = (
        "wall-clock/entropy/id() values flowing (interprocedurally) into "
        "fingerprints, journal records, cache keys, or snapshot fields"
    )

    def check_project(self, ctx) -> Iterator[Finding]:
        project = ctx.project()
        engine = TaintEngine(project, _source_probe(project))
        for qname in sorted(project.functions):
            info = project.functions[qname]
            env = engine.reach(info, {})
            yield from self._check_sink_calls(project, engine, info, env)
            yield from self._check_producer_returns(engine, info, env)

    def _check_sink_calls(
        self,
        project: ProjectModel,
        engine: TaintEngine,
        info: FunctionInfo,
        env: Dict[str, TaintOrigin],
    ) -> Iterator[Finding]:
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            sink = _sink_description(project, info, node)
            if sink is None:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                origin = engine.expr_taint(info, arg, env, MAX_DEPTH)
                if origin is None or origin.kind != "source":
                    continue
                yield Finding(
                    rule=self.rule_id,
                    path=info.module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"nondeterministic value reaches {sink}: "
                        f"{origin.describe_route()} — byte-identical "
                        "replay/differential runs will diverge; derive the "
                        "value from the input data or move it to repro.obs"
                    ),
                    related=f"source {origin.path}:{origin.line}",
                )
                break  # one finding per sink call

    def _check_producer_returns(
        self,
        engine: TaintEngine,
        info: FunctionInfo,
        env: Dict[str, TaintOrigin],
    ) -> Iterator[Finding]:
        lowered = info.name.lower()
        if not any(fragment in lowered for fragment in NAME_SINKS):
            return
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            origin = engine.expr_taint(info, node.value, env, MAX_DEPTH)
            if origin is None or origin.kind != "source":
                continue
            yield Finding(
                rule=self.rule_id,
                path=info.module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{info.qname}() returns a nondeterministic value: "
                    f"{origin.describe_route()} — a "
                    f"{'/'.join(NAME_SINKS)} producer must be a pure "
                    "function of its inputs"
                ),
                related=f"source {origin.path}:{origin.line}",
            )
            break
