"""The differential harness end to end: sweeps, metamorphic checks,
fault-driven divergence detection, shrinking, regression-bundle
round-trips, and the remove-rule reading divergence fixture.

The harness exists to catch *future* bugs, so these tests seed a known
fault (:func:`repro.robust.faults.engine_fault`) and check the whole
chain fires: the sweep detects the divergence, the report names the
half and both tallies, the shrinker minimizes the world, and the
written bundle replays the divergence while staying clean against the
unfaulted engine.
"""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro import MapItConfig, run_mapit
from repro.bgp.cymru import CymruTable
from repro.bgp.ip2as import IP2AS
from repro.bgp.table import CollectorDump
from repro.core.engine import Engine
from repro.diff.cli import build_parser as diff_parser
from repro.diff.cli import main as diff_main
from repro.diff.harness import (
    DEFAULT_RULES,
    build_graph,
    compare_world,
    oracle_config_for,
    world_diverges,
)
from repro.diff.metamorphic import CHECKS, check_world
from repro.diff.shrink import regression_name, shrink_world, write_regression
from repro.diff.worlds import (
    World,
    duplicate_traces,
    fold_twin,
    permute_traces,
    renumber_ases,
    world_from_bundle,
    world_from_preset,
)
from repro.io import atomic, load_bundle
from repro.ixp.dataset import IXPDataset
from repro.net.special import default_special_registry
from repro.org.as2org import AS2Org
from repro.oracle import oracle_run
from repro.perf.flat import GraphFold
from repro.rel.relationships import RelationshipDataset
from repro.robust.faults import dirty_tracking_fault, engine_fault
from repro.sim.presets import SCENARIO_PRESETS
from repro.traceroute.parse import parse_text_traces
from tests.test_oracle import oracle_graph

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_BUNDLE = REPO_ROOT / "tests" / "fixtures" / "regressions" / (
    "small-seed4-shrunk-majority"
)

#: the seeded fault every detection test uses: always pick the
#: highest-numbered sibling member instead of the most frequent one
FAULT = dict(kind="member_high", rate=1.0, seed=1)
#: a world where that fault is known to change the answer
FAULTY_SEED = 4


def _no_ttl0_strip(monkeypatch):
    monkeypatch.setattr(GraphFold, "_stripped", lambda self, hops: [hop[0] for hop in hops])


def _no_cycle_test(monkeypatch):
    def admit(self, addresses):
        distinct = {*addresses} - {None}
        self.universe |= distinct
        self.seen |= distinct
        self.retained += 1
        return True

    monkeypatch.setattr(GraphFold, "_admit", admit)


def _special_adjacent(monkeypatch):
    init = GraphFold.__init__

    def plain(self):
        init(self)
        self.is_special = lambda address: False

    monkeypatch.setattr(GraphFold, "__init__", plain)


#: faults planted in GraphFold only: a quoted-TTL-0 hop kept, a cyclic
#: trace kept, a special address that neither breaks adjacency nor
#: stays out of the tables (the fold's own test, not the registry the
#: oracle's fold receives)
FOLD_FAULTS = {
    "no-ttl0-strip": _no_ttl0_strip,
    "no-cycle-test": _no_cycle_test,
    "special-adjacent": _special_adjacent,
}


class TestSweep:
    @pytest.mark.parametrize("rule", DEFAULT_RULES)
    def test_small_worlds_agree(self, rule):
        for seed in (0, 1):
            outcome = compare_world(world_from_preset("small", seed), rule)
            assert outcome.ok, outcome.report
            assert outcome.core_inferences == outcome.oracle_inferences > 0

    def test_presets_cover_all_factories(self):
        assert set(SCENARIO_PRESETS) == {"tiny", "small", "paper", "dense"}
        choices = next(
            action.choices
            for action in diff_parser()._actions
            if "--preset" in action.option_strings
        )
        assert choices == sorted(SCENARIO_PRESETS)

    def test_oracle_config_mapping_is_total(self):
        config = MapItConfig(f=0.7, min_neighbors=3, remove_rule="add_rule")
        mapped = oracle_config_for(config)
        assert mapped.f == 0.7
        assert mapped.min_neighbors == 3
        assert mapped.remove_rule == "add_rule"


class TestHarnessGraph:
    def test_graph_is_the_run_pipeline_graph(self, tmp_path):
        """Both implementations run on the graph ``mapit run`` builds:
        its other-side universe includes addresses seen only in
        discarded traces (§4.2), which tiny seed 2 has."""
        world = world_from_preset("tiny", 2)
        want = load_bundle(world.save(tmp_path / "world"), graph_only=True).graph
        graph = build_graph(world)
        assert graph.forward == want.forward
        assert graph.backward == want.backward
        assert graph.other_sides == want.other_sides

    def test_twin_plants_special_and_buggy_hops(self):
        """The fold comparison's twin holds what the simulator's tiny
        worlds lack: private/shared hops and quoted-TTL-0 hops, seeded
        per trace, so a trace's twin does not depend on the others."""
        world = world_from_preset("tiny", 0)
        twin = fold_twin(world)
        assert fold_twin(world).traces == twin.traces
        kept = world.replaced(traces=world.traces[1::3])
        assert fold_twin(kept).traces == twin.traces[1::3]
        hops = [hop for trace in twin.traces for hop in trace.hops if hop.responded]
        is_special = default_special_registry().is_special
        assert not any(is_special(h.address) for t in world.traces for h in t.hops if h.responded)
        assert sum(1 for hop in hops if is_special(hop.address)) > 10
        assert sum(1 for hop in hops if hop.quoted_ttl == 0) > 10
        assert [len(trace.hops) for trace in twin.traces] == [
            len(trace.hops) for trace in world.traces
        ]


class TestMetamorphic:
    def test_invariants_hold_on_clean_world(self):
        outcome = check_world(world_from_preset("small", 0), seed=0)
        assert outcome.ok, [f.summary() for f in outcome.failures]
        assert outcome.checks == len(CHECKS) == 3

    def test_transforms_change_what_they_claim(self):
        import random

        world = world_from_preset("small", 0)
        permuted = permute_traces(world, random.Random(0))
        assert sorted(map(str, permuted.traces)) == sorted(map(str, world.traces))
        duplicated = duplicate_traces(world, random.Random(0))
        assert len(duplicated.traces) > len(world.traces)
        renumbered, mapping = renumber_ases(world, random.Random(0))
        assert set(mapping) >= set(world.address_as.values())
        # order-preserving: the relabeling never flips an ASN comparison
        ordered = sorted(asn for asn in mapping if asn > 0)
        relabeled = [mapping[asn] for asn in ordered]
        assert relabeled == sorted(relabeled)
        assert len(set(relabeled)) == len(relabeled)


class TestFaultDetection:
    def test_seeded_fault_diverges_and_reports(self):
        world = world_from_preset("small", FAULTY_SEED)
        with engine_fault(**FAULT):
            outcome = compare_world(world, "majority")
        assert not outcome.ok
        assert "first divergence" in outcome.report
        assert "core final tally" in outcome.report
        assert "oracle final tally" in outcome.report
        assert "oracle journal" in outcome.report

    def test_fault_restores_engine(self):
        original = Engine.plurality
        with engine_fault(**FAULT):
            assert Engine.plurality is not original
        assert Engine.plurality is original
        assert compare_world(world_from_preset("small", FAULTY_SEED), "majority").ok

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            with engine_fault(kind="nope"):
                pass

    @pytest.mark.parametrize("fault", sorted(FOLD_FAULTS))
    def test_planted_fold_fault_diverges(self, fault, monkeypatch):
        """A fault planted in the production §4.1–§4.3 fold alone fails
        the world as a fold divergence: tiny seed 0 has two cyclic
        traces, and its twin the quoted-TTL-0 and special hops."""
        FOLD_FAULTS[fault](monkeypatch)
        world = world_from_preset("tiny", 0)
        outcome = compare_world(world)
        assert not outcome.ok
        assert outcome.folds and not outcome.divergences
        assert "§4.1–§4.3 fold differs" in outcome.report
        assert world_diverges(world)

    def test_sweep_checks_the_fold_once_per_world(self, monkeypatch, tmp_path, capsys):
        """The fold does not depend on the remove rule: a sweep over
        both readings counts a fold fault, and shrinks it, once."""
        FOLD_FAULTS["special-adjacent"](monkeypatch)
        folds = compare_world(world_from_preset("tiny", 0)).folds
        regressions = tmp_path / "regressions"
        code = diff_main(
            ["--preset", "tiny", "--worlds", "1", "--no-metamorphic", "--json",
             "--shrink", "--regressions-dir", str(regressions)]
        )
        summary = json.loads(capsys.readouterr().out)
        assert code == 1
        assert summary["comparisons"] == 2
        assert summary["divergences"] == len(folds) > 0
        assert len(summary["shrunk"]) == 1


class TestTrajectory:
    """The §4.6 loop is held to the oracle's on every world: the same
    number of outer iterations, and the same answer to whether the
    state repeated (``TestSweep`` holds clean worlds to it)."""

    def test_a_loop_that_never_sees_a_repeat_fails_the_world(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.core.state import MapItState

        # every state key is new, so the core loop runs to max_iterations
        monkeypatch.setattr(MapItState, "state_key", lambda self: object())
        outcome = compare_world(world_from_preset("tiny", 0), "majority")
        core, oracle = outcome.trajectory
        assert core == (MapItConfig().max_iterations, False)
        assert oracle[1] is True and oracle[0] < core[0]
        assert not outcome.ok
        assert outcome.divergence_count == len(outcome.divergences) + 1
        assert "§4.6 trajectory differs, core vs oracle" in outcome.report
        assert f"oracle {oracle[0]} iteration(s), converged=True" in outcome.report

        metrics_path = tmp_path / "metrics.json"
        code = diff_main(
            [
                "--preset", "tiny", "--worlds", "1", "--rules", "majority",
                "--no-metamorphic", "--metrics", str(metrics_path),
                "--shrink", "--regressions-dir", str(tmp_path / "regressions"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "§4.6 trajectory differs" in err
        # a trajectory failure is shrunk like a record divergence
        assert "not shrunk" not in err and "minimized" in err
        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["diff.divergences"] == outcome.divergence_count


class TestShrinker:
    def test_minimizes_faulty_world(self):
        world = world_from_preset("small", FAULTY_SEED)

        def predicate(candidate):
            with engine_fault(**FAULT):
                return world_diverges(candidate, "majority")

        assert predicate(world)
        shrunk, report = shrink_world(world, predicate)
        assert predicate(shrunk), "the minimized world must still diverge"
        assert report.final_traces < report.original_traces
        assert report.final_traces <= 5
        assert report.tests_run > 0
        assert any(stage.startswith("traces:") for stage in report.stages)

    def test_write_regression_round_trips(self, tmp_path):
        world = world_from_preset("small", 0)
        path = write_regression(world, "majority", tmp_path, {"note": "fixture"})
        assert path.name == regression_name(world, "majority")
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["diff"]["remove_rule"] == "majority"
        assert manifest["diff"]["note"] == "fixture"
        replayed = world_from_bundle(path)
        assert compare_world(replayed, "majority").ok
        # shrink metadata survives, so a replayed world can keep shrinking
        assert replayed.router_addresses == world.router_addresses
        assert replayed.address_as == world.address_as


def traced_addresses(world):
    return sorted(
        {hop.address for trace in world.traces for hop in trace.hops if hop.address is not None}
    )


class TestReplayReader:
    """A replayed bundle is read by the loader's own readers
    (:func:`repro.io.bundle.read_mappings`), so it loads whatever
    ``load_bundle`` loads, degrades as ``mapit run`` degrades, and its
    mapper equals the loader's."""

    def assert_maps_like_the_loader(self, world, directory):
        want = load_bundle(directory).ip2as
        addresses = traced_addresses(world)
        assert addresses
        assert [world.ip2as().asn(a) for a in addresses] == [want.asn(a) for a in addresses]

    def test_latin1_collector_header(self, tmp_path):
        """Regression: a non-UTF-8 byte in a dump's ``#collector`` line
        raised ``UnicodeDecodeError`` in replay, not in the loader."""
        directory = world_from_preset("tiny", 0).save(tmp_path / "world")
        dump = directory / "bgp" / "collector-0.txt"
        head, _, rest = dump.read_bytes().partition(b"\n")
        dump.write_bytes(head + b" Z\xfcrich\n" + rest)
        world = world_from_bundle(directory)
        assert world.collector_dumps[0].location.endswith("rich")
        self.assert_maps_like_the_loader(world, directory)

    def test_garbled_ixp_degrades_to_empty(self, tmp_path):
        """Regression: a garbled ``ixp.txt`` raised in replay while the
        loader degrades it to an empty IXP set."""
        directory = world_from_preset("small", 4).save(tmp_path / "world")
        assert len(world_from_bundle(directory).ixp) > 0
        (directory / "ixp.txt").write_text("not-a-prefix|64500|garbled\n")
        assert load_bundle(directory).health.status_of("ixp.txt") == "degraded"
        world = world_from_bundle(directory)
        assert len(world.ixp) == 0
        self.assert_maps_like_the_loader(world, directory)

    def test_reads_each_file_once_and_hashes_none(self, tmp_path, monkeypatch):
        """A replay parses each dump, ``cymru.txt`` and ``ixp.txt`` once
        and hashes no file.  (It used to load the bundle, then parse
        the three again, and hash every file for a manifest check whose
        result it never read.)"""
        directory = world_from_preset("small", 4).save(tmp_path / "world")
        calls = Counter()
        for owner in (CollectorDump, CymruTable, IXPDataset):
            parse = owner.from_lines

            def counted(cls, lines, parse=parse, name=owner.__name__):
                calls[name] += 1
                return parse(lines)

            monkeypatch.setattr(owner, "from_lines", classmethod(counted))
        sha256 = atomic.file_sha256
        monkeypatch.setattr(
            atomic, "file_sha256", lambda path: calls.update(["sha256"]) or sha256(path)
        )
        world = world_from_bundle(directory)
        assert len(world.collector_dumps) == 3
        assert calls == {"CollectorDump": 3, "CymruTable": 1, "IXPDataset": 1}


class TestRegressionFixture:
    """The checked-in bundle produced by shrinking the seeded fault."""

    def test_bundle_exists_and_is_minimal(self):
        assert FIXTURE_BUNDLE.is_dir()
        world = world_from_bundle(FIXTURE_BUNDLE)
        assert len(world.traces) <= 5

    def test_replays_clean_against_fixed_engine(self):
        world = world_from_bundle(FIXTURE_BUNDLE)
        outcome = compare_world(world, "majority")
        assert outcome.ok, outcome.report

    def test_replays_divergence_with_fault_armed(self):
        world = world_from_bundle(FIXTURE_BUNDLE)
        with engine_fault(**FAULT):
            assert not compare_world(world, "majority").ok


class TestRemoveRuleReadings:
    """Section 4.5's two defensible readings genuinely differ: a
    strict-plurality winner at exactly half the neighbor set survives
    the add-rule re-check but fails the majority test."""

    PAIRS = [
        ("9.0.0.0/16", 100),
        ("9.1.0.0/16", 200),
        ("9.2.0.0/16", 300),
        ("9.3.0.0/16", 400),
    ]
    # N_F(9.0.0.1) = {AS200 x2, AS300, AS400}: plurality AS200 with
    # count 2 of 4 — passes f=0.5 and the strict-winner test, but
    # 2*2 > 4 is false.
    LINES = [
        "m1|9.9.9.1|9.0.0.1 9.1.0.1",
        "m2|9.9.9.2|9.0.0.1 9.1.0.5",
        "m3|9.9.9.3|9.0.0.1 9.2.0.1",
        "m4|9.9.9.4|9.0.0.1 9.3.0.1",
    ]

    def run_rule(self, rule):
        return run_mapit(
            list(parse_text_traces(self.LINES)),
            IP2AS.from_pairs(self.PAIRS),
            config=MapItConfig(f=0.5, remove_rule=rule),
        )

    def half_inferences(self, result):
        from repro.net.ipv4 import parse_address

        target = parse_address("9.0.0.1")
        return [
            i for i in result.inferences if i.address == target and i.forward
        ]

    def test_rules_diverge_on_fixture(self):
        majority = self.half_inferences(self.run_rule("majority"))
        add_rule = self.half_inferences(self.run_rule("add_rule"))
        assert majority == []  # demoted/removed: 2*2 > 4 fails
        assert len(add_rule) == 1 and add_rule[0].remote_as == 200

    @pytest.mark.parametrize("rule", DEFAULT_RULES)
    def test_each_reading_matches_oracle(self, rule):
        core = self.run_rule(rule)
        traces = list(parse_text_traces(self.LINES))
        graph, _ = oracle_graph(traces)
        oracle = oracle_run(
            graph,
            IP2AS.from_pairs(self.PAIRS),
            AS2Org(),
            RelationshipDataset(),
            oracle_config_for(MapItConfig(f=0.5, remove_rule=rule)),
        )
        core_map = {
            (i.address, i.forward): (i.local_as, i.remote_as, i.kind, i.uncertain)
            for i in core.inferences + core.uncertain
        }
        oracle_map = {
            r.half: (r.local_as, r.remote_as, r.kind, r.uncertain)
            for r in oracle.confident + oracle.uncertain
        }
        assert core_map == oracle_map


class TestCLI:
    def test_sweep_json_summary(self, capsys):
        code = diff_main(["--worlds", "2", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["worlds"] == 2
        assert summary["comparisons"] == 4  # both rules by default
        assert summary["divergences"] == 0
        assert summary["metamorphic_failures"] == 0
        assert "prefixes" not in summary  # no serve replay by default

    def test_check_every_adds_prefixes_to_summary(self, capsys):
        code = diff_main(
            ["--preset", "tiny", "--worlds", "1", "--check-every", "1",
             "--no-metamorphic", "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        # every prefix of the one world, under both rules
        assert summary["prefixes"] == 2 * len(world_from_preset("tiny", 0).traces)
        assert summary["divergences"] == 0

    def test_negative_check_every_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            diff_main(["--worlds", "0", "--check-every", "-1"])
        assert exit_info.value.code == 2
        assert "--check-every" in capsys.readouterr().err

    def test_single_rule_flag(self, capsys):
        code = diff_main(["--worlds", "1", "--rules", "majority", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["comparisons"] == 1

    def test_replay_fixture_bundle(self, capsys):
        code = diff_main(
            ["--worlds", "0", "--no-metamorphic", "--replay", str(FIXTURE_BUNDLE)]
        )
        capsys.readouterr()
        assert code == 0

    def test_observability_outputs(self, tmp_path, capsys):
        trace_path = tmp_path / "diff.jsonl"
        metrics_path = tmp_path / "diff-metrics.json"
        code = diff_main(
            [
                "--worlds", "1", "--no-metamorphic",
                "--trace", str(trace_path), "--metrics", str(metrics_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert any(event["event"] == "diff.sweep.end" for event in events)
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["diff.worlds"] == 2  # one world, two rules
        assert metrics["counters"]["diff.divergences"] == 0

    def test_mapit_diff_subcommand_forwards(self, capsys):
        from repro.cli import main as mapit_main

        code = mapit_main(["diff", "--worlds", "1", "--no-metamorphic", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["worlds"] == 1


class TestServeReplay:
    """A serve divergence goes through the same CLI as an oracle one:
    ``--shrink`` writes a bundle that records its cadence, and
    ``--replay`` replays serve at that cadence."""

    #: drops 90% of dirty-half invalidations; tiny seed 0 diverges
    FAULT = dict(rate=0.9, seed=2)

    def test_replay_reproduces_a_shrunk_serve_divergence(self, tmp_path, capsys):
        regressions = tmp_path / "regressions"
        with dirty_tracking_fault(**self.FAULT):
            code = diff_main(
                ["--preset", "tiny", "--worlds", "1", "--seed", "0",
                 "--check-every", "1000", "--shrink",
                 "--regressions-dir", str(regressions), "--no-metamorphic"]
            )
        assert code == 1
        bundles = sorted(regressions.iterdir())
        assert bundles
        capsys.readouterr()
        replay = ["--worlds", "0", "--replay", str(bundles[0])]
        with dirty_tracking_fault(**self.FAULT):
            assert diff_main(replay) == 1
        assert re.search(r"serve vs batch at prefix \d+", capsys.readouterr().err)
        assert diff_main(replay) == 0

    def test_mapper_builds_do_not_depend_on_the_cadence(self, monkeypatch):
        """The replay builds the world's IP2AS once and shares it with
        every reference run, instead of one build per compared prefix."""
        builds = []
        build = World.ip2as

        def counted(self):
            builds.append(self.name)
            return build(self)

        monkeypatch.setattr(World, "ip2as", counted)
        world = world_from_preset("tiny", 0)
        counts = {}
        for cadence in (1, 16, len(world.traces)):
            builds.clear()
            outcome = compare_world(world, check_every=cadence)
            assert outcome.ok, outcome.report
            counts[cadence] = len(builds)
        assert len(set(counts.values())) == 1, counts
