"""Tally-cache coherence: every cached answer the passes consume is the
answer a fresh count would give.

:meth:`Engine.plurality` serves both the add and the remove pass from
one cache that survives snapshot refreshes, outer iterations, serve
quiesces and checkpoint restores.  These property tests wrap it so that
each answer is checked against :meth:`Engine.count_plurality` on the
spot, and check each remove decision against a fresh count under its
rule — the majority reading against ``dominance(...).is_majority()``.
The direct pass skips settled halves without asking
:meth:`Engine.plurality` at all, so every such skip is checked too: a
fresh count and the half's own mapping must agree it cannot fire.
"""

from __future__ import annotations

import copy

import pytest

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


class CheckedSettled:
    """The settled set as the direct pass reads it: each skip it grants
    is checked against a fresh count and the half's own mapping."""

    def __init__(self, engine, held, checks):
        self.engine, self.held, self.checks = engine, held, checks

    def __contains__(self, half):
        if half not in self.held:
            return False
        engine = self.engine
        fresh = engine.count_plurality(half)
        assert (
            fresh is None
            or not fresh.satisfies_f(engine.config.f)
            or engine.canonical(engine.half_asn(half)) == fresh.canonical_as
        ), f"settled half {half} can fire"
        self.checks["settled"] += 1
        return True

    def add(self, half):
        self.held.add(half)


@pytest.fixture
def checked(monkeypatch):
    """Check every cached plurality, every settled skip and every remove
    decision against a fresh count; returns the number of checks made
    so far."""
    checks = {"plurality": 0, "settled": 0, "remove": 0}
    plurality = Engine.plurality
    settled = Engine.settled
    still_holds = remove_module._still_holds

    def checked_plurality(self, half):
        answer = plurality(self, half)
        assert answer == self.count_plurality(half), f"stale tally for {half}"
        checks["plurality"] += 1
        return answer

    def checked_still_holds(engine, direct):
        holds = still_holds(engine, direct)
        canonical = engine.canonical(direct.remote_as)
        if engine.config.remove_rule == REMOVE_MAJORITY:
            expected = engine.dominance(direct.half, canonical).is_majority()
        else:
            fresh = engine.count_plurality(direct.half)
            expected = (
                fresh is not None
                and fresh.canonical_as == canonical
                and fresh.satisfies_f(engine.config.f)
            )
        assert holds == expected, f"remove decision for {direct.half}"
        checks["remove"] += 1
        return holds

    monkeypatch.setattr(Engine, "plurality", checked_plurality)
    monkeypatch.setattr(
        Engine, "settled", lambda self: CheckedSettled(self, settled(self), checks)
    )
    monkeypatch.setattr(remove_module, "_still_holds", checked_still_holds)
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


@pytest.mark.parametrize("f", OTHER_FS)
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("preset,seed", WORLDS)
def test_batch_settled_skips_cannot_fire(checked, preset, seed, rule, f):
    batch_run(world_from_preset(preset, seed), MapItConfig(f=f, remove_rule=rule))
    assert checked["settled"] > 0


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
