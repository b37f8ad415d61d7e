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
  link is stored explicitly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

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
    the exact state key the §4.6 convergence test compares, and the
    order-independent digest of that state serve publishes.
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
        #: halves ever classified uncertain (section 4.4.4) — such
        #: inference pairs are typically added and removed forever (the
        #: section 4.6 cycle), so the final uncertain output is the
        #: union over the run, not a snapshot
        self.uncertain_log: Dict[Half, DirectInference] = {}
        #: diagnostic counters
        self.dual_resolved = 0
        self.dual_same_as = 0
        self.divergent_other_sides = 0
        self.inverse_removed = 0
        self.uncertain_pairs = 0

    # -- inference bookkeeping -------------------------------------------

    def add_direct(self, inference: DirectInference) -> None:
        """Record an Alg 2 direct inference and mark its half used
        for the rest of this add step (§4.4.5)."""
        self.direct[inference.half] = inference
        self.inferred_this_step.add(inference.half)

    def add_indirect(self, inference: IndirectInference) -> None:
        """Record a §4.4.2 indirect (other-side) inference."""
        self.indirect[inference.half] = inference

    def remove_direct(self, half: Half) -> Optional[DirectInference]:
        """Discard a direct inference and its dependent indirect."""
        inference = self.direct.pop(half, None)
        if inference is None:
            return None
        for key, indirect in list(self.indirect.items()):
            if indirect.source == half:
                del self.indirect[key]
        return inference

    def sweep_unsupported_indirect(self) -> int:
        """Drop indirect inferences whose supporting direct is gone."""
        doomed = [
            key
            for key, indirect in self.indirect.items()
            if indirect.source not in self.direct
        ]
        for key in doomed:
            del self.indirect[key]
        return len(doomed)

    # -- visible mappings --------------------------------------------------

    def refresh_visible(self) -> None:
        """Take the mapping snapshot the next pass will read.

        Direct inferences take precedence over indirect ones; detached
        indirect inferences (divergent other sides) contribute nothing.
        """
        # Always build a new dict, never update the old one in place: the
        # engine's tally cache notices a new snapshot by identity and
        # diffs it against the dict it last synced to.
        visible: Dict[Half, int] = {}
        for half, indirect in self.indirect.items():
            if not indirect.detached:
                visible[half] = indirect.remote_as
        for half, direct in self.direct.items():
            visible[half] = direct.remote_as
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
        (the state :meth:`state_key` names).

        A sha256 over a canonical sorted encoding — *not* Python's
        ``hash()``, whose per-process string salt (PYTHONHASHSEED)
        would make fingerprints incomparable across processes — serve
        publishes them in snapshots and checkpoints.
        """
        lines = sorted(
            f"d:{half[0]}:{int(half[1])}:{direct.local_as}:"
            f"{direct.remote_as}:{int(direct.uncertain)}"
            for half, direct in self.direct.items()
        )
        lines += sorted(
            f"i:{half[0]}:{int(half[1])}:{indirect.remote_as}:"
            f"{indirect.source[0]}:{int(indirect.source[1])}:"
            f"{int(indirect.detached)}"
            for half, indirect in self.indirect.items()
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
