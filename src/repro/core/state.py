"""Mutable algorithm state: inferences and per-half IP-to-AS mappings.

Key design decisions, each anchored in the paper:

* IP-to-AS mappings are maintained **per interface half** (section
  4.4.1: "An IP2AS update on one half of an interface does not affect
  the IP2AS mapping for the other half").
* Updates are derived entirely from live inferences: the visible
  mapping for a half is the AS of its direct inference, else of its
  indirect inference, else the original BGP-derived origin.  Discarding
  an inference therefore automatically rolls back its update (Alg 3
  line 6).
* Determinism (section 4.4.5): passes read a *snapshot* of the visible
  mappings taken at the start of the pass; updates become visible only
  on the next pass.  :meth:`MapItState.refresh_visible` takes that
  snapshot.
* An indirect inference is linked to the direct inference on the other
  side of its link; it survives only while that direct does (section
  4.4.2).  Other-side assignment is not guaranteed symmetric, so the
  link is stored explicitly, and indexed by source so that dropping a
  direct finds its dependents without a scan.
* Every mutation appends the halves it touched to one log
  (:attr:`MapItState.touched`); the snapshot refresh and each
  contradiction fix read only the halves touched since they last ran
  (:meth:`MapItState.touched_since`), because no other half's inputs
  changed (docs/SERVE.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.graph.halves import Half, half_str


@dataclass
class DirectInference:
    """A direct inference on one interface half (Alg 2).

    The inference asserts: the interface is used on an inter-AS link
    between ``local_as`` (the half's mapping when the inference was
    made) and ``remote_as`` (the AS dominating its neighbor set).  The
    half's visible mapping becomes ``remote_as``.
    """

    half: Half
    local_as: int
    remote_as: int
    uncertain: bool = False
    via_stub: bool = False

    def pair(self) -> Tuple[int, int]:
        """The unordered AS pair the link connects."""
        return (min(self.local_as, self.remote_as), max(self.local_as, self.remote_as))

    def __str__(self) -> str:
        return f"{half_str(self.half)}: AS{self.local_as} <-> AS{self.remote_as}"


@dataclass
class IndirectInference:
    """An indirect inference (section 4.4.2): the other side of a link.

    ``source`` is the half carrying the supporting direct inference.
    The half's visible mapping becomes ``remote_as`` (the same AS_N as
    the source's), unless a direct inference on this half overrides it.
    """

    half: Half
    local_as: int
    remote_as: int
    source: Half
    detached: bool = False  # divergent-other-side: update suppressed

    def __str__(self) -> str:
        return (
            f"{half_str(self.half)}: AS{self.local_as} <-> AS{self.remote_as}"
            f" (via {half_str(self.source)})"
        )


class MapItState:
    """All mutable state of a MAP-IT run.

    Live direct/indirect inference tables, the per-pass mapping
    snapshot of §4.4.5 (``visible``, refreshed between passes so every
    pass reads end-of-previous-pass state), the §4.4.4 uncertain log,
    the log of touched halves the passes read instead of rescanning the
    tables, the exact state key the §4.6 convergence test compares, and
    the order-independent digest of that state serve publishes.
    """

    def __init__(self) -> None:
        #: live direct inferences, keyed by half
        self.direct: Dict[Half, DirectInference] = {}
        #: live indirect inferences, keyed by half
        self.indirect: Dict[Half, IndirectInference] = {}
        #: halves that received a direct inference during the current
        #: add step; Alg 2 skips them even if a contradiction fix later
        #: removed the inference ("only a single direct inference can be
        #: made on each IH per add step")
        self.inferred_this_step: Set[Half] = set()
        #: mapping snapshot the current pass reads (half -> AS override)
        self.visible: Dict[Half, int] = {}
        #: the snapshot ``visible`` was patched from, and the halves
        #: whose entry differs between the two (the tally cache's input)
        self.visible_base: Dict[Half, int] = self.visible
        self.visible_changed: List[Half] = []
        #: halves ever classified uncertain (section 4.4.4) — such
        #: inference pairs are typically added and removed forever (the
        #: section 4.6 cycle), so the final uncertain output is the
        #: union over the run, not a snapshot
        self.uncertain_log: Dict[Half, DirectInference] = {}
        #: every half whose direct or indirect entry a mutation added,
        #: replaced, removed or detached, in mutation order
        self.touched: List[Half] = []
        #: per reader of ``touched``, how far it has read
        self._read: Dict[str, int] = {}
        #: per direct half, a stamp that orders the halves as
        #: ``direct`` iterates them (insertion order): the order a scan
        #: of the whole table would act on them in
        self.order: Dict[Half, int] = {}
        #: per source half, the halves of the indirects it supports
        self.dependents: Dict[Half, Set[Half]] = {}
        #: addresses whose two halves carry directs toward the same
        #: (sibling-merged) AS: the §4.4.3 dual pairs the fix keeps
        self.dual_pairs: Set[int] = set()
        #: directs whose remove test held under their current tally
        #: (the engine drops a half when its tally is voided)
        self.held: Set[Half] = set()
        #: diagnostic counters
        self.dual_resolved = 0
        self.dual_same_as = 0
        self.divergent_other_sides = 0
        self.inverse_removed = 0
        self.uncertain_pairs = 0

    # -- the touched log ---------------------------------------------------

    def touched_since(self, reader: str) -> List[Half]:
        """The halves touched since *reader* last asked (all of them on
        its first call), duplicates included."""
        start = self._read.get(reader, 0)
        end = self._read[reader] = len(self.touched)
        return self.touched[start:end]

    def added_since(self, reader: str) -> List[Half]:
        """The halves given a direct inference since *reader* last asked
        that still hold it, duplicates included.  A direct is stamped
        with the log's length when added, and the passes never replace
        a live direct in place, so the stamp tells a new direct from a
        half touched for another reason."""
        start = self._read.get(reader, 0)
        direct, order = self.direct, self.order
        return [
            half
            for half in self.touched_since(reader)
            if half in direct and order[half] >= start
        ]

    # -- inference bookkeeping -------------------------------------------

    def add_direct(self, inference: DirectInference) -> None:
        """Record an Alg 2 direct inference and mark its half used
        for the rest of this add step (§4.4.5)."""
        half = inference.half
        if half not in self.direct:
            self.order[half] = len(self.touched)
        self.touched.append(half)
        self.direct[half] = inference
        self.inferred_this_step.add(half)

    def add_indirect(self, inference: IndirectInference) -> None:
        """Record a §4.4.2 indirect (other-side) inference."""
        half = inference.half
        replaced = self.indirect.get(half)
        if replaced is not None:
            self.dependents[replaced.source].discard(half)
        self.indirect[half] = inference
        supported = self.dependents.get(inference.source)
        if supported is None:
            self.dependents[inference.source] = {half}
        else:
            supported.add(half)
        self.touched.append(half)

    def detach(self, indirect: IndirectInference) -> None:
        """Suppress an indirect's mapping update (§4.4.3 divergent
        other sides)."""
        indirect.detached = True
        self.touched.append(indirect.half)

    def remove_direct(self, half: Half) -> Optional[DirectInference]:
        """Discard a direct inference and its dependent indirects."""
        inference = self.direct.pop(half, None)
        if inference is None:
            return None
        self.touched.append(half)
        dependents = self.dependents.pop(half, ())
        for key in dependents:
            del self.indirect[key]
        self.touched.extend(dependents)
        return inference

    def demote_direct(self, half: Half) -> DirectInference:
        """Pop a direct inference the remove step demotes, leaving its
        dependents for :meth:`sweep_unsupported_indirect` (Alg 3)."""
        self.touched.append(half)
        return self.direct.pop(half)

    def sweep_unsupported_indirect(self) -> int:
        """Drop indirect inferences whose supporting direct is gone.

        Only a half touched since the last sweep can have lost its
        direct or gained an indirect, so only those are looked at: the
        dependents of each that holds no direct, and its own indirect.
        """
        direct = self.direct
        indirect = self.indirect
        doomed: Set[Half] = set()
        for half in self.touched_since("sweep"):
            if half not in direct:
                doomed.update(self.dependents.get(half, ()))
            inference = indirect.get(half)
            if inference is not None and inference.source not in direct:
                doomed.add(half)
        for half in doomed:
            self.dependents[indirect.pop(half).source].discard(half)
        self.touched.extend(doomed)
        return len(doomed)

    # -- visible mappings --------------------------------------------------

    def refresh_visible(self) -> None:
        """Take the mapping snapshot the next pass will read.

        Direct inferences take precedence over indirect ones; detached
        indirect inferences (divergent other sides) contribute nothing.
        A copy of the previous snapshot is patched at the halves touched
        since the last refresh, and the halves whose entry moved are
        kept in ``visible_changed``.  A snapshot is never updated in
        place, since the engine's tally cache notices a new one by
        identity; when no entry moved the previous one stays.
        """
        previous = self.visible
        direct = self.direct
        indirect = self.indirect
        moved: Dict[Half, Optional[int]] = {}
        for half in dict.fromkeys(self.touched_since("visible")):
            inference = direct.get(half)
            if inference is not None:
                asn: Optional[int] = inference.remote_as
            else:
                other = indirect.get(half)
                asn = None if other is None or other.detached else other.remote_as
            if asn != previous.get(half):
                moved[half] = asn
        if not moved:
            return
        visible = previous.copy()
        for half, asn in moved.items():
            if asn is None:
                del visible[half]
            else:
                visible[half] = asn
        self.visible_base, self.visible_changed = previous, list(moved)
        self.visible = visible

    def visible_asn(self, half: Half, original: int) -> int:
        """Mapping of *half* in the current snapshot."""
        return self.visible.get(half, original)

    # -- convergence ---------------------------------------------------------

    def state_key(self) -> Tuple[FrozenSet, FrozenSet]:
        """The exact inference state section 4.6's stopping rule
        compares: the overall loop ends when the state at the end of a
        remove step repeats.

        Frozensets of the fields :meth:`fingerprint` hashes, as the
        oracle's ``state_snapshot`` builds them, so two states have
        equal keys exactly when they have equal fingerprints (neither
        reads a direct's ``via_stub`` or an indirect's ``local_as``).
        A key is compared only inside the run that made it, so it
        needs no canonical text and no digest: one tuple per inference.
        """
        return (
            frozenset(
                (half, direct.local_as, direct.remote_as, direct.uncertain)
                for half, direct in self.direct.items()
            ),
            frozenset(
                (half, indirect.remote_as, indirect.source, indirect.detached)
                for half, indirect in self.indirect.items()
            ),
        )

    def fingerprint(self) -> str:
        """Deterministic, order-independent digest of the inference state
        (the state :meth:`state_key` names)."""
        return self.digest(self.direct, self.indirect)

    @staticmethod
    def digest(
        direct: Dict[Half, DirectInference], indirect: Dict[Half, IndirectInference]
    ) -> str:
        """The digest of one state's direct and indirect tables.

        A sha256 over a canonical sorted encoding — *not* Python's
        ``hash()``, whose per-process string salt (PYTHONHASHSEED)
        would make fingerprints incomparable across processes — serve
        publishes them in snapshots and checkpoints.  A serve snapshot
        keeps the tables of the state its quiesce ended in and hashes
        them only when its digest is first read.
        """
        lines = sorted(
            f"d:{half[0]}:{int(half[1])}:{inference.local_as}:"
            f"{inference.remote_as}:{int(inference.uncertain)}"
            for half, inference in direct.items()
        )
        lines += sorted(
            f"i:{half[0]}:{int(half[1])}:{inference.remote_as}:"
            f"{inference.source[0]}:{int(inference.source[1])}:"
            f"{int(inference.detached)}"
            for half, inference in indirect.items()
        )
        return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()

    # -- introspection ------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Live table sizes plus the §4.4.3–4.4.4 diagnostic counters."""
        return {
            "direct": len(self.direct),
            "indirect": len(self.indirect),
            "uncertain": sum(1 for d in self.direct.values() if d.uncertain),
        }

    def __len__(self) -> int:
        return len(self.direct) + len(self.indirect)

