"""Persistent fold state + dirty-region re-inference.

:class:`IncrementalIndex` is the serve daemon's heart: it owns the
:class:`~repro.perf.flat.GraphFold` an arriving record folds into (the
fused loader's per-record step, which reports exactly which interface
halves gained a member) and a persistent
:class:`~repro.core.mapit.MapIt` whose engine keeps its tally cache
across quiesces.  A quiesce re-judges other sides for
the /30 blocks that gained an address, then calls
:meth:`~repro.core.mapit.MapIt.run_incremental` with the accumulated
dirty halves — producing a result byte-identical to a batch run over
every trace folded so far (docs/SERVE.md proves why).

Folding is order-independent (set unions), so permuted arrival orders
quiesce to identical states; the differential harness's serve replay
(:func:`repro.diff.harness.compare_world` with a cadence) holds every
prefix to byte-identity with batch.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro.bgp.ip2as import IP2AS
from repro.core.config import MapItConfig
from repro.core.mapit import MapIt
from repro.core.results import MapItResult
from repro.graph.neighbors import InterfaceGraph
from repro.graph.othersides import block_members, patch_other_sides
from repro.obs.observer import NULL_OBS, Observability
from repro.org.as2org import AS2Org
from repro.perf.flat import FlatGraphBundle, GraphFold
from repro.rel.relationships import RelationshipDataset
from repro.traceroute.model import Trace
from repro.traceroute.parse import RecordTuple, trace_record


class IncrementalIndex:
    """Streaming MAP-IT state: fold traces in, quiesce results out."""

    def __init__(
        self,
        ip2as: IP2AS,
        org: Optional[AS2Org] = None,
        rel: Optional[RelationshipDataset] = None,
        config: Optional[MapItConfig] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        #: every record folded so far (or restored)
        self.fold_state = GraphFold()
        self.obs = obs
        self._dirty: Set[Tuple[int, bool]] = set()
        #: the universe as of the last other-side table
        self._judged: Set[int] = set()
        self.graph = InterfaceGraph(
            forward=self.fold_state.forward, backward=self.fold_state.backward
        )
        self._mapit = MapIt(self.graph, ip2as, org=org, rel=rel, config=config, obs=obs)
        self.result: Optional[MapItResult] = None

    # -- folding ------------------------------------------------------------

    def fold(self, traces: Iterable[Trace]) -> int:
        """Sanitize and fold *traces* into the neighbor tables.

        Returns the number of traces retained (§4.1 may discard).  The
        trace-list entry point (the differential harness, tests); the
        daemon folds parsed records with :meth:`fold_record`.
        """
        return sum(self.fold_record(trace_record(trace)) for trace in traces)

    def fold_record(self, record: RecordTuple) -> bool:
        """Sanitize and fold one parsed record; True when retained.

        The interface halves whose neighbor set actually grew
        accumulate in the dirty set consumed by the next
        :meth:`quiesce`.
        """
        with self.obs.span("serve/fold"):
            return self.fold_state.fold(record[3], self._dirty)

    # -- quiescing ----------------------------------------------------------

    @property
    def dirty_halves(self) -> int:
        """Interface halves touched since the last quiesce."""
        return len(self._dirty)

    def quiesce(self) -> MapItResult:
        """Re-run inference over the current graph, dirty region only.

        Byte-identical to a batch run over every trace folded so far:
        the other-side table equals the one :func:`finish_interface_graph`
        would build from the grown address universe (the /30 blocks
        that gained an address are re-judged in a fresh copy; a table a
        snapshot holds is never mutated), and the multipass restarts
        from an empty state with the engine's tally cache confining
        recounts to the halves whose inputs changed (docs/SERVE.md).
        """
        added = self.fold_state.universe - self._judged
        if added or self.graph.other_sides is None:
            self._judged |= added
            with self.obs.span("serve/other_sides"):
                judged = block_members(added, self._observed)
                self.graph.other_sides = patch_other_sides(
                    self.graph.other_sides, judged
                )
            self.obs.inc("serve.other_sides.judged", len(judged))
        dirty, self._dirty = self._dirty, set()
        with self.obs.span("serve/quiesce"):
            self.result = self._mapit.run_incremental(dirty)
        return self.result

    def _observed(self, address: int) -> bool:
        """Whether the §4.2 rule sees *address*: folded, not special."""
        fold = self.fold_state
        return address in fold.universe and not fold.is_special(address)

    def fingerprint(self) -> str:
        """The §4.6 state fingerprint of the last quiesce."""
        return self._mapit.engine.state.fingerprint()

    def tables(self):
        """The direct and indirect tables of the last quiesce's state,
        which the next quiesce leaves as they are (it starts a fresh
        state); a snapshot hashes them when its digest is read."""
        state = self._mapit.engine.state
        return state.direct, state.indirect

    # -- checkpoint plumbing -------------------------------------------------

    def export_state(self) -> FlatGraphBundle:
        """The fold state a checkpoint captures, packed with the
        counter-bundle codec (the fused loader's shard result, and a
        ``.mapitc`` entry's payload).

        Inference state is deliberately absent: it is a pure function
        of the graph and is recomputed (cache cold) on the first quiesce
        after a restore.
        """
        return self.fold_state.bundle()

    def restore_state(self, fold: GraphFold) -> None:
        """Adopt *fold* as the whole fold state: a checkpoint's, decoded
        from what :meth:`export_state` captured, or the fold a batch
        load of the dataset's traces file built (the serve warm base).

        The engine's graph then points at the fold's tables.  The tally
        cache, dirty tracking and other-side table reset — the next
        quiesce judges every address and recounts from scratch, which
        is exactly the batch trajectory.
        """
        self.fold_state = fold
        self.graph.forward = fold.forward
        self.graph.backward = fold.backward
        self._dirty = set()
        self._judged = set()
        self.graph.other_sides = None
        self._mapit.engine.reset_caches()
        self.result = None
