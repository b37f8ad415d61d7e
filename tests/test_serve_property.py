"""Dirty-region property tests: sweeps, fault injection, shrinking.

Two directions:

* a healthy incremental engine never diverges from batch across a
  seeded world sweep (the CI serve job runs the big version of this,
  ``python -m repro.diff --check-every 1``);
* a *broken* one — :func:`dirty_tracking_fault` drops a fraction of
  dirty-half invalidations, the canonical incremental bug — is caught
  by the differential harness's serve replay, ddmin-shrunk, and
  written out as a replayable regression bundle that still reproduces;
  so is an engine whose settled halves or start tallies outlive what
  they were judged on, or a pass that skips a half its touched set
  should have named.
"""

from __future__ import annotations

import copy
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.add as add_module
from repro.bgp.table import CollectorDump
from repro.core.engine import Engine
from repro.core.state import MapItState
from repro.diff.harness import compare_world, world_diverges
from repro.diff.shrink import divergence_predicate, shrink_world, write_regression
from repro.diff.worlds import World, world_from_bundle, world_from_preset
from repro.graph.halves import BACKWARD
from repro.graph.othersides import infer_other_sides
from repro.net.ipv4 import format_address, parse_address
from repro.net.special import default_special_registry
from repro.obs.observer import NULL_OBS
from repro.perf.flat import GraphFold
from repro.robust.errors import IngestReport
from repro.robust.faults import dirty_tracking_fault
from repro.serve.daemon import ServeDaemon
from repro.serve.incremental import IncrementalIndex
from repro.traceroute.parse import parse_text_trace, parse_text_traces


def test_sweep_of_seeded_worlds_never_diverges():
    for seed in (11, 12, 13):
        outcome = compare_world(world_from_preset("tiny", seed), check_every=16)
        assert outcome.ok, outcome.report
        assert outcome.prefixes > 0


def test_sweep_reports_world_and_prefix_on_divergence():
    """Under an injected dirty-tracking bug the sweep names the
    diverging world and the first bad prefix."""
    with dirty_tracking_fault(rate=0.9, seed=2):
        outcomes = [
            compare_world(world_from_preset("tiny", seed), check_every=8)
            for seed in (0, 1)
        ]
    diverged = [outcome for outcome in outcomes if not outcome.ok]
    assert diverged
    outcome = diverged[0]
    assert outcome.serve_prefix >= 1
    assert outcome.divergences == []  # batch, hence the oracle diff, is unharmed
    assert f"world {outcome.world} (remove_rule=majority)" in outcome.report
    assert f"serve vs batch at prefix {outcome.serve_prefix}" in outcome.report
    batch, serve = re.search(r"batch (\w+) vs serve (\w+)", outcome.report).groups()
    assert batch != serve


def test_fault_is_scoped_to_the_context():
    """The fault patch restores the engine on exit: the same world
    that diverged inside the context is clean outside it."""
    world = world_from_preset("tiny", 0)
    original = Engine.invalidate_halves
    with dirty_tracking_fault(rate=0.9, seed=2):
        assert world_diverges(world, check_every=8)
    assert Engine.invalidate_halves is original
    assert not world_diverges(world, check_every=8)


def test_shrink_writes_replayable_regression(tmp_path):
    """A diverging world shrinks and the written bundle still
    reproduces the divergence under the same fault."""
    world = world_from_preset("tiny", 0)
    with dirty_tracking_fault(rate=0.9, seed=2):
        assert not compare_world(world, check_every=1000).ok
        shrunk, report = shrink_world(world, divergence_predicate("majority", 1000))
        written = write_regression(shrunk, "majority", tmp_path, check_every=1000)
        assert len(shrunk.traces) <= len(world.traces)
        assert report.tests_run >= 1
        replayed = world_from_bundle(written)
        assert world_diverges(replayed, check_every=1000)
    # manifest records the cadence the regression replays at
    manifest = json.loads((written / "manifest.json").read_text())
    assert manifest["diff"]["check_every"] == 1000


def never_unsettles_own_mapping(monkeypatch):
    """A settled half stays settled when the sync changed only its own
    mapping (its tally survived)."""
    sync = Engine._sync_tallies

    def sticky(self, visible):
        parked = self._parked
        opened = parked[1] if visible and parked is not None else self._open
        before = set(opened) if opened is not None else None
        sync(self, visible)
        if before is not None:
            self._open.difference_update(
                [half for half in self._open - before if half in self._tallies]
            )

    monkeypatch.setattr(Engine, "_sync_tallies", sticky)


def keeps_grown_start_tallies(monkeypatch):
    """A half the fold grew keeps its start tally (the empty snapshot's)."""
    invalidate = Engine.invalidate_halves

    def keeping(self, halves):
        halves = list(halves)
        start = self._start[0] if self._start is not None else {}
        kept = {half: start[half] for half in halves if half in start}
        dropped = invalidate(self, halves)
        start.update(kept)
        return dropped

    monkeypatch.setattr(Engine, "invalidate_halves", keeping)


def refresh_drops_detached_halves(monkeypatch):
    """The snapshot refresh skips every touched half whose indirect is
    detached, so a half that loses its direct keeps the direct's
    mapping in the snapshot."""
    touched_since = MapItState.touched_since

    def leaky(self, reader):
        touched = touched_since(self, reader)
        if reader != "visible":
            return touched
        indirect = self.indirect
        return [half for half in touched if half not in indirect or not indirect[half].detached]

    monkeypatch.setattr(MapItState, "touched_since", leaky)


def inverse_ignores_new_predecessors(monkeypatch):
    """The §4.4.4 fix judges only the backward directs added since its
    last run, never an older one whose predecessor gained a forward
    direct."""
    fix = add_module._fix_inverse_inferences

    def backward_only(engine, added):
        return fix(engine, [half for half in added if half[1] == BACKWARD])

    monkeypatch.setattr(add_module, "_fix_inverse_inferences", backward_only)


def late_forward_inverse_world():
    """9.0.0.1 (AS100) precedes 9.1.0.1, 9.2.0.1, 9.3.0.1 and 9.4.0.1.
    Pass 1 infers 9.1.0.1's backward half toward AS100 (all its
    predecessors are AS100) and those of 9.2.0.1 and 9.3.0.1 toward
    AS200; only then does AS200 win 9.0.0.1's forward set, so pass 2
    infers it toward AS200 — the inverse of the older backward
    inference, which the §4.4.4 fix must now discard."""
    p, x = "9.0.0.1", "9.1.0.1"
    adjacencies = [(p, x), ("9.0.0.5", x), ("9.0.0.9", x), (p, "9.4.0.1")]
    for target, preds in (("9.2.0.1", ("9.1.0.5", "9.1.0.9")), ("9.3.0.1", ("9.1.0.13", "9.1.0.17"))):
        adjacencies += [(p, target)] + [(pred, target) for pred in preds]
    lines = [f"m|9.9.{n}.1|{a} {b}" for n, (a, b) in enumerate(adjacencies)]
    dump = CollectorDump.from_lines(
        ["#collector c0 AS999"]
        + [f"9.{n}.0.0/16|999 {asn}" for n, asn in enumerate((100, 200, 300, 400, 500))]
    )
    return World("late-forward-inverse", list(parse_text_traces(lines)), collector_dumps=[dump])


#: each planted fault, the world its gate runs on, and the serve
#: cadence (0: the oracle comparison alone, for faults batch shares)
CACHE_FAULTS = {
    "never_unsettles_own_mapping": (never_unsettles_own_mapping, ("tiny", 12), 1),
    "keeps_grown_start_tallies": (keeps_grown_start_tallies, ("tiny", 12), 1),
    "refresh_drops_detached_halves": (refresh_drops_detached_halves, ("small", 9), 0),
    "inverse_ignores_new_predecessors": (inverse_ignores_new_predecessors, None, 1),
}


@pytest.mark.parametrize("fault", sorted(CACHE_FAULTS))
def test_replay_catches_stale_settled_halves_and_start_tallies(monkeypatch, fault):
    """The gate passes each fault's world, and diverges under the
    planted fault: the every-prefix replay of tiny seed 12 from batch
    under either stale cache, and the oracle comparison (small seed 9,
    and a hand-built world whose backward inference gains an inverse
    forward predecessor a pass later) under either skipped half, which
    batch shares."""
    plant, preset, check_every = CACHE_FAULTS[fault]
    world = world_from_preset(*preset) if preset else late_forward_inverse_world()
    for rule in ("majority", "add_rule"):
        assert compare_world(world, remove_rule=rule, check_every=check_every).ok
    plant(monkeypatch)
    outcome = compare_world(world, check_every=check_every)
    assert not outcome.ok
    if check_every and preset:
        assert outcome.serve_prefix is not None
    else:
        assert outcome.divergences


@pytest.mark.parametrize("seed", [0, 1])
def test_check_world_counts_every_prefix(seed):
    world = world_from_preset("tiny", seed)
    outcome = compare_world(world, check_every=len(world.traces))
    assert outcome.ok, outcome.report
    # cadence of N over N traces still always compares the final prefix
    assert outcome.prefixes == 1


#: every address of five /30 blocks: two adjacent public blocks, one
#: more public block, and two special-purpose (RFC 1918) blocks — so
#: batches hit network and broadcast addresses, both middle hosts, and
#: addresses the other-side rule must never see
_BLOCK_ADDRESSES = [
    parse_address(base) + offset
    for base in ("8.8.8.0", "8.8.8.4", "41.0.0.252", "10.0.0.0", "192.168.1.4")
    for offset in range(4)
]

_batches = st.lists(
    st.lists(st.sampled_from(_BLOCK_ADDRESSES), min_size=1, max_size=6),
    min_size=2,
    max_size=6,
)


@pytest.fixture(scope="module")
def tiny_world():
    return world_from_preset("tiny", 0)


@settings(max_examples=40, deadline=None)
@given(batches=_batches, start=st.sampled_from(["live", "warm", "restore"]))
def test_incremental_other_sides_equal_batch(tiny_world, batches, start):
    """After every quiesce the patched other-side table equals the batch
    table over the non-special universe, and no table an earlier
    snapshot captured has changed — from a live start, after a warm
    fold, and after a checkpoint restore."""
    index = IncrementalIndex(
        tiny_world.ip2as(), org=tiny_world.as2org, rel=tiny_world.relationships
    )
    daemon = ServeDaemon(index, format="text", quiesce_every=0)
    lines = [
        "m|8.8.4.4|" + " ".join(format_address(address) for address in batch)
        for batch in batches
    ]
    held = []
    special = default_special_registry().is_special

    def quiesce_and_check():
        snapshot = daemon.quiesce()
        universe = index.fold_state.universe
        observed = [address for address in universe if not special(address)]
        assert index.graph.other_sides == infer_other_sides(observed)
        held.append((snapshot.other_sides, copy.deepcopy(snapshot.other_sides)))
        for table, frozen in held:
            assert table == frozen

    if start == "warm":
        # a batch load's finished fold of the first line's trace
        base = IncrementalIndex(tiny_world.ip2as())
        base.fold([parse_text_trace(lines.pop(0))])
        fold = GraphFold.merged([base.export_state()])
        fold.finish(NULL_OBS, 1, 0)
        daemon.adopt(fold, IngestReport(source="warm", parsed=1), "warm", 0, 1)
        quiesce_and_check()
    elif start == "restore":
        daemon.ingest_entry(lines.pop(0), "stream")
        saved = copy.deepcopy(index.export_state())
        daemon.ingest_entry(lines.pop(0), "stream")
        quiesce_and_check()
        index.restore_state(GraphFold.merged([saved]))
        quiesce_and_check()
    for line in lines:
        daemon.ingest_entry(line, "stream")
        quiesce_and_check()
