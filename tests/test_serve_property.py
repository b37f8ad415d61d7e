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
  they were judged on.
"""

from __future__ import annotations

import copy
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.diff.harness import compare_world, world_diverges
from repro.diff.shrink import divergence_predicate, shrink_world, write_regression
from repro.diff.worlds import world_from_bundle, world_from_preset
from repro.graph.othersides import infer_other_sides
from repro.net.ipv4 import format_address, parse_address
from repro.net.special import default_special_registry
from repro.obs.observer import NULL_OBS
from repro.perf.flat import GraphFold
from repro.robust.errors import IngestReport
from repro.robust.faults import dirty_tracking_fault
from repro.serve.daemon import ServeDaemon
from repro.serve.incremental import IncrementalIndex
from repro.traceroute.parse import parse_text_trace


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
        settled = parked[1] if visible and parked is not None else self._settled
        before = set(settled)
        sync(self, visible)
        settled.update(half for half in before if half in self._tallies)

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


CACHE_FAULTS = {
    "never_unsettles_own_mapping": never_unsettles_own_mapping,
    "keeps_grown_start_tallies": keeps_grown_start_tallies,
}


@pytest.mark.parametrize("fault", sorted(CACHE_FAULTS))
def test_replay_catches_stale_settled_halves_and_start_tallies(monkeypatch, fault):
    """The every-prefix replay of tiny seed 12 is clean, and diverges
    from batch under either patched cache."""
    world = world_from_preset("tiny", 12)
    assert compare_world(world, check_every=1).ok
    CACHE_FAULTS[fault](monkeypatch)
    outcome = compare_world(world, check_every=1)
    assert not outcome.ok
    assert outcome.serve_prefix is not None


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
