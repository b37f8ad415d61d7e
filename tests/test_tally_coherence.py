"""Tally-cache and touched-set coherence: every cached answer and every
skip the passes take is the answer a fresh look would give.

:meth:`Engine.plurality` serves both the add and the remove pass from
one cache that survives snapshot refreshes, outer iterations, serve
quiesces and checkpoint restores.  These property tests wrap it so that
each answer is checked against :meth:`Engine.count_plurality` on the
spot, and check each remove decision against a fresh count under its
rule — the majority reading against ``dominance(...).is_majority()``.

Every pass also leaves work out, and each omission is checked:

* the direct pass judges only :meth:`Engine.open_candidates`; each
  candidate it leaves out holds a direct, was inferred this add step,
  or is settled, and then a fresh count and its own mapping must agree
  that it cannot fire;
* a remove pass re-tests only ``remove._retested``; each direct it
  skips must still hold under a fresh count;
* the dual, divergent and inverse fixes judge only the halves the
  state's touched log names; each is also run as a full scan (every
  half touched) on a copy of the state it started from, which must end
  in the same state, counters and uncertain log included;
* the stub step's address list equals a fresh one.
"""

from __future__ import annotations

import copy

import pytest

import repro.core.add as add_module
import repro.core.remove as remove_module
from repro.core.config import REMOVE_ADD_RULE, REMOVE_MAJORITY, MapItConfig
from repro.core.engine import Engine
from repro.core.mapit import MapIt
from repro.diff.harness import build_graph, reference_state
from repro.diff.worlds import world_from_preset
from repro.perf.flat import GraphFold
from repro.serve.incremental import IncrementalIndex

WORLDS = [("tiny", 0), ("tiny", 1), ("tiny", 2), ("small", 0), ("small", 1)]
RULES = [REMOVE_MAJORITY, REMOVE_ADD_RULE]
#: f values besides the default 0.5, which the coherence tests run at
OTHER_FS = [0.25, 0.75]
#: the fixes that read the touched log, by name in ``repro.core.add``
FIXES = ("_fix_dual_inferences", "_flag_divergent_other_sides", "_fix_inverse_inferences")


def holds_fresh(engine, direct):
    """The remove test of *direct* on a fresh count, under the rule."""
    canonical = engine.canonical(direct.remote_as)
    if engine.config.remove_rule == REMOVE_MAJORITY:
        return engine.dominance(direct.half, canonical).is_majority()
    fresh = engine.count_plurality(direct.half)
    return (
        fresh is not None
        and fresh.canonical_as == canonical
        and fresh.satisfies_f(engine.config.f)
    )


def fix_outcome(state, returned):
    """Everything a fix can change, comparable across two states."""
    return (
        state.state_key(),
        sorted(
            (half, direct.local_as, direct.remote_as, direct.uncertain)
            for half, direct in state.uncertain_log.items()
        ),
        state.dual_resolved,
        state.dual_same_as,
        state.divergent_other_sides,
        state.inverse_removed,
        state.uncertain_pairs,
        returned,
    )


@pytest.fixture
def checked(monkeypatch):
    """Check every cached plurality, every skip the passes take and every
    remove decision against a fresh look; returns the number of checks
    made so far."""
    checks = {"plurality": 0, "settled": 0, "remove": 0, "held": 0, "fix": 0, "stub": 0}
    plurality = Engine.plurality
    open_candidates = Engine.open_candidates
    stub_addresses = Engine.stub_addresses
    still_holds = remove_module._still_holds
    retested = remove_module._retested

    def checked_plurality(self, half):
        answer = plurality(self, half)
        assert answer == self.count_plurality(half), f"stale tally for {half}"
        checks["plurality"] += 1
        return answer

    def checked_open_candidates(self):
        judged = open_candidates(self)
        assert judged == sorted(set(judged))
        state = self.state
        for half in self.candidate_set().difference(judged):
            if half in state.direct or half in state.inferred_this_step:
                continue
            assert half not in self._open, f"candidate {half} left out unsettled"
            fresh = self.count_plurality(half)
            assert (
                fresh is None
                or not fresh.satisfies_f(self.config.f)
                or self.canonical(self.half_asn(half)) == fresh.canonical_as
            ), f"settled half {half} can fire"
            checks["settled"] += 1
        return judged

    def checked_still_holds(engine, direct):
        holds = still_holds(engine, direct)
        assert holds == holds_fresh(engine, direct), f"remove decision for {direct.half}"
        checks["remove"] += 1
        return holds

    def checked_retested(engine):
        tested = retested(engine)
        state = engine.state
        for half in state.direct.keys() - set(tested):
            assert holds_fresh(engine, state.direct[half]), f"held direct {half} fails"
            checks["held"] += 1
        return tested

    def checked_fix(name):
        fix = getattr(add_module, name)

        def full_scan_agrees(engine, touched):
            before = copy.deepcopy(engine.state)
            outcome = fix_outcome(engine.state, fix(engine, touched))
            live, engine.state = engine.state, before
            try:
                everything = list(before.direct) + list(before.indirect) + list(touched)
                expected = fix_outcome(before, fix(engine, everything))
            finally:
                engine.state = live
            assert outcome == expected, f"{name} missed a half the full scan changes"
            checks["fix"] += 1
            return outcome[-1]

        return full_scan_agrees

    def checked_stub_addresses(self):
        listed = stub_addresses(self)
        fresh = sorted(a for a, members in self.graph.forward.items() if len(members) == 1)
        assert listed == fresh, "stale single-member list"
        checks["stub"] += 1
        return listed

    monkeypatch.setattr(Engine, "plurality", checked_plurality)
    monkeypatch.setattr(Engine, "open_candidates", checked_open_candidates)
    monkeypatch.setattr(Engine, "stub_addresses", checked_stub_addresses)
    monkeypatch.setattr(remove_module, "_still_holds", checked_still_holds)
    monkeypatch.setattr(remove_module, "_retested", checked_retested)
    for name in FIXES:
        monkeypatch.setattr(add_module, name, checked_fix(name))
    return checks


def batch_run(world, config):
    mapit = MapIt(
        build_graph(world),
        world.ip2as(),
        org=world.as2org,
        rel=world.relationships,
        config=config,
    )
    return mapit.run()


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("preset,seed", WORLDS)
def test_batch_passes_read_coherent_tallies(checked, preset, seed, rule):
    result = batch_run(world_from_preset(preset, seed), MapItConfig(remove_rule=rule))
    assert result.inferences
    assert checked["plurality"] > 0
    assert checked["settled"] > 0
    assert checked["remove"] > 0
    assert checked["held"] > 0
    assert checked["fix"] > 0
    assert checked["stub"] > 0


@pytest.mark.parametrize("f", OTHER_FS)
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("preset,seed", WORLDS)
def test_batch_settled_skips_cannot_fire(checked, preset, seed, rule, f):
    batch_run(world_from_preset(preset, seed), MapItConfig(f=f, remove_rule=rule))
    assert checked["settled"] > 0
    assert checked["fix"] > 0


def replay_with_restore(world, config):
    """Quiesce every 8 folds; halfway, restore a checkpoint taken 24
    folds earlier and re-fold from there, as a resumed daemon does.
    Returns the index after the last quiesce."""
    index = IncrementalIndex(
        world.ip2as(), org=world.as2org, rel=world.relationships, config=config
    )
    traces = world.traces
    restore_at = (len(traces) // 2) // 8 * 8
    saved_at = restore_at - 24
    saved = None
    position = 0
    restored = False
    while position < len(traces):
        index.fold([traces[position]])
        position += 1
        if position == saved_at:
            saved = copy.deepcopy(index.export_state())
        if position % 8 and position != len(traces):
            continue
        index.quiesce()
        if position == restore_at and not restored:
            index.restore_state(GraphFold.merged([saved]))
            index.quiesce()
            position, restored = saved_at, True
    assert restored
    return index


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("preset,seed", [("tiny", 0), ("small", 0)])
def test_serve_replay_reads_coherent_tallies(checked, preset, seed, rule):
    world = world_from_preset(preset, seed)
    config = MapItConfig(remove_rule=rule)
    index = replay_with_restore(world, config)
    assert (index.fingerprint(), index.result.to_json(indent=2)) == reference_state(
        world, len(world.traces), config
    )
    assert checked["plurality"] > 0
    assert checked["settled"] > 0
    assert checked["remove"] > 0
    assert checked["held"] > 0
    assert checked["fix"] > 0
    assert checked["stub"] > 0


@pytest.mark.parametrize("f", OTHER_FS)
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("preset,seed", [("tiny", 0), ("small", 0)])
def test_serve_replay_settled_skips_cannot_fire(checked, preset, seed, rule, f):
    world = world_from_preset(preset, seed)
    config = MapItConfig(f=f, remove_rule=rule)
    index = replay_with_restore(world, config)
    assert (index.fingerprint(), index.result.to_json(indent=2)) == reference_state(
        world, len(world.traces), config
    )
    assert checked["settled"] > 0
    assert checked["fix"] > 0
