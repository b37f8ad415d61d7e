"""MAP-IT output records.

The algorithm produces two lists (section 4.4.4): high-confidence
inter-AS link inferences and a much smaller list of uncertain ones.
Each record names the interface address, which half carried the
evidence, the two ASes the link connects, the inferred other-side
address, and how the inference was reached (direct, indirect, or via
the stub heuristic).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.graph.halves import Half, half_str
from repro.net.ipv4 import format_address

DIRECT = "direct"
INDIRECT = "indirect"
STUB = "stub"

_ADDRESS = attrgetter("address")
_AS_PAIR = attrgetter("local_as", "remote_as")


def _unordered(first: int, second: int) -> Tuple[int, int]:
    """The pair ascending, as ``tuple(sorted(...))`` orders it."""
    return (first, second) if first <= second else (second, first)


class LinkInference(NamedTuple):
    """One inferred inter-AS link interface half.

    ``kind`` records the mechanism that produced it: ``direct``
    (Alg 2), ``indirect`` (§4.4.2 other-side propagation), or their
    stub-heuristic variants (Alg 4, §4.8).

    A record is an immutable tuple of its fields, in the order below:
    it unpacks, and it equals and hashes as a plain tuple of the same
    values.  Hashing, comparison and field reads run in C, and no
    record carries a ``__dict__``.
    """

    address: int
    forward: bool
    local_as: int
    remote_as: int
    kind: str
    other_side: Optional[int] = None
    uncertain: bool = False

    @property
    def half(self) -> Half:
        """The interface half (§3.2) this inference is attached to."""
        return (self.address, self.forward)

    def pair(self) -> Tuple[int, int]:
        """The unordered AS pair the link connects."""
        return _unordered(self.local_as, self.remote_as)

    def involves(self, asn: int) -> bool:
        """True when *asn* is one of the link's endpoints."""
        return asn in (self.local_as, self.remote_as)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "address": format_address(self.address),
            "direction": "forward" if self.forward else "backward",
            "local_as": self.local_as,
            "remote_as": self.remote_as,
            "kind": self.kind,
            "other_side": (
                format_address(self.other_side)
                if self.other_side is not None
                else None
            ),
            "uncertain": self.uncertain,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LinkInference":
        """Inverse of :meth:`to_dict`."""
        from repro.net.ipv4 import parse_address

        other = data.get("other_side")
        return cls(
            address=parse_address(data["address"]),
            forward=data["direction"] == "forward",
            local_as=int(data["local_as"]),
            remote_as=int(data["remote_as"]),
            kind=str(data["kind"]),
            other_side=parse_address(other) if other else None,
            uncertain=bool(data.get("uncertain", False)),
        )

    def __str__(self) -> str:
        other = (
            format_address(self.other_side) if self.other_side is not None else "?"
        )
        flags = " (uncertain)" if self.uncertain else ""
        return (
            f"{half_str(self.half)} [{self.kind}] "
            f"AS{self.local_as} <-> AS{self.remote_as}, other side {other}{flags}"
        )


@dataclass
class Checkpoint:
    """A labelled snapshot of inferences mid-run (drives Fig 7)."""

    label: str
    inferences: List[LinkInference]

    def __len__(self) -> int:
        return len(self.inferences)


@dataclass
class MapItResult:
    """Everything a MAP-IT run produced.

    Two inference lists, as the paper reports them: the
    high-confidence ``inferences`` and the small ``uncertain`` list of
    §4.4.4 conflicting pairs.
    """

    inferences: List[LinkInference]
    uncertain: List[LinkInference]
    iterations: int
    converged: bool
    diagnostics: Dict[str, int] = field(default_factory=dict)
    checkpoints: List[Checkpoint] = field(default_factory=list)

    def by_address(self) -> Dict[int, List[LinkInference]]:
        """High-confidence inferences grouped by interface address."""
        grouped: Dict[int, List[LinkInference]] = {}
        for inference in self.inferences:
            grouped.setdefault(inference.address, []).append(inference)
        return grouped

    def addresses(self) -> Set[int]:
        """Addresses carrying at least one high-confidence inference."""
        return set(map(_ADDRESS, self.inferences))

    def as_links(self) -> Set[Tuple[int, int]]:
        """The AS-level links implied by the high-confidence inferences:
        each distinct (local, remote) pair ordered once, not each record."""
        return {
            _unordered(local, remote)
            for local, remote in dict.fromkeys(map(_AS_PAIR, self.inferences))
        }

    def involving(self, asn: int) -> List[LinkInference]:
        """High-confidence inferences with *asn* as an endpoint."""
        return [inference for inference in self.inferences if inference.involves(asn)]

    def summary(self) -> Dict[str, int]:
        """Headline counts: inferences, interfaces, AS links, iterations."""
        return {
            "inferences": len(self.inferences),
            "uncertain": len(self.uncertain),
            "interfaces": len(self.addresses()),
            "as_links": len(self.as_links()),
            "iterations": self.iterations,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the full result for downstream pipelines: the bytes
        of ``json.dumps`` at *indent*.  Any ``indent`` drops ``json`` to
        its pure-Python encoder, so only the small head takes that path
        (:func:`_records_json` writes the records)."""
        head = {
            "summary": self.summary(),
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }
        if indent is None:
            return json.dumps(
                {
                    **head,
                    "inferences": [i.to_dict() for i in self.inferences],
                    "uncertain": [i.to_dict() for i in self.uncertain],
                }
            )
        pad = " " * indent
        return (
            f"{json.dumps(head, indent=indent)[:-2]},\n"
            f'{pad}"inferences": {_records_json(self.inferences, pad)},\n'
            f'{pad}"uncertain": {_records_json(self.uncertain, pad)}\n}}'
        )

    @classmethod
    def from_json(cls, text: str) -> "MapItResult":
        """Inverse of :meth:`to_json` (checkpoints are not persisted)."""
        data = json.loads(text)
        return cls(
            inferences=[LinkInference.from_dict(d) for d in data["inferences"]],
            uncertain=[LinkInference.from_dict(d) for d in data["uncertain"]],
            iterations=int(data["summary"]["iterations"]),
            converged=bool(data["converged"]),
            diagnostics=dict(data.get("diagnostics", {})),
        )


#: ``to_dict``'s keys in its order, each with the ``%`` conversion that
#: writes its value the way ``json.dumps`` does (the string values
#: arrive quoted or escaped; see :func:`_records_json`)
_RECORD_FIELDS = (
    ("address", '"%s"'),
    ("direction", '"%s"'),
    ("local_as", "%d"),
    ("remote_as", "%d"),
    ("kind", "%s"),
    ("other_side", "%s"),
    ("uncertain", "%s"),
)


def _records_json(records: List[LinkInference], pad: str) -> str:
    """*records* as ``json.dumps`` lays out a list at depth 1 of a
    document indented by *pad*: one ``%`` template per record, built
    from ``to_dict``'s key order, so no record becomes a dict.
    Addresses and directions are digits, dots and letters, which JSON
    never escapes; ``kind`` is any string, so it goes through
    ``json.dumps`` once per distinct value in the call."""
    if not records:
        return "[]"
    fields, braces = "\n" + pad * 3, "\n" + pad * 2
    template = (
        "{"
        + ",".join(f'{fields}"{key}": {spec}' for key, spec in _RECORD_FIELDS)
        + braces
        + "}"
    )
    kinds: Dict[str, str] = {}
    blocks = []
    for address, forward, local_as, remote_as, kind, other_side, uncertain in records:
        quoted = kinds.get(kind)
        if quoted is None:
            quoted = kinds[kind] = json.dumps(kind)
        blocks.append(
            template
            % (
                format_address(address),
                "forward" if forward else "backward",
                local_as,
                remote_as,
                quoted,
                "null" if other_side is None else f'"{format_address(other_side)}"',
                "true" if uncertain else "false",
            )
        )
    return f"[{braces}{(',' + braces).join(blocks)}\n{pad}]"
