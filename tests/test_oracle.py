"""The paper-literal oracle: equivalence with the production engine,
independence from it, and the shape of its result object.

The oracle (:mod:`repro.oracle`) restates the §4.1/§4.3 fold and
Algorithms 1-4 in the slowest, most literal form; these tests pin (a)
that, from the same traces, it reaches the same inferences as the
production fold and :mod:`repro.core` on the worked Fig 2 example and
on seeded simulator worlds under both remove-rule readings, and (b)
that it really is a second implementation — its modules load with no
``repro`` code at all.  :func:`oracle_graph` is the oracle's fold as
an interface graph, for the tests that hold production folds to it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import MapItConfig, run_mapit
from repro.graph.neighbors import InterfaceGraph
from repro.graph.othersides import infer_other_sides
from repro.net.special import default_special_registry
from repro.org.as2org import AS2Org
from repro.oracle import OracleConfig, oracle_fold, oracle_run
from repro.rel.relationships import RelationshipDataset
from repro.sim.presets import small_scenario
from repro.traceroute.model import Hop, Trace

REPO_ROOT = Path(__file__).resolve().parent.parent


def oracle_graph(traces):
    """``(graph, fold)``: the oracle's §4.1/§4.3 fold of *traces* and an
    interface graph over its tables, keys sorted as production's are.
    The oracle restates no §4.2, so the other sides are production's
    rule over the fold's non-special addresses."""
    is_special = default_special_registry().is_special
    fold = oracle_fold(traces, is_special)
    graph = InterfaceGraph(
        forward={address: fold.forward[address] for address in sorted(fold.forward)},
        backward={address: fold.backward[address] for address in sorted(fold.backward)},
        other_sides=infer_other_sides(
            address for address in fold.all_addresses if not is_special(address)
        ),
    )
    return graph, fold


def core_map(result):
    return {
        (i.address, i.forward): (i.local_as, i.remote_as, i.kind, i.uncertain)
        for i in result.inferences + result.uncertain
    }


def oracle_map(result):
    return {
        record.half: (record.local_as, record.remote_as, record.kind, record.uncertain)
        for record in result.confident + result.uncertain
    }


def run_both(traces, ip2as, org=None, rel=None, **config_kwargs):
    org = org or AS2Org()
    rel = rel or RelationshipDataset()
    config = MapItConfig(**config_kwargs)
    core = run_mapit(list(traces), ip2as, org=org, rel=rel, config=config)
    graph, _ = oracle_graph(traces)
    oracle = oracle_run(
        graph,
        ip2as,
        org,
        rel,
        OracleConfig(
            f=config.f,
            min_neighbors=config.min_neighbors,
            remove_rule=config.remove_rule,
            max_iterations=config.max_iterations,
            enable_stub_heuristic=config.enable_stub_heuristic,
            fix_dual_inferences=config.fix_dual_inferences,
            fix_divergent_other_sides=config.fix_divergent_other_sides,
            fix_inverse_inferences=config.fix_inverse_inferences,
            enable_remove_step=config.enable_remove_step,
        ),
    )
    return core, oracle


class TestEquivalence:
    @pytest.mark.parametrize("rule", ["majority", "add_rule"])
    def test_fig2_example(self, fig2_traces, fig2_ip2as, rule):
        core, oracle = run_both(fig2_traces, fig2_ip2as, remove_rule=rule)
        assert core_map(core) == oracle_map(oracle)
        assert core_map(core)  # the worked example infers something

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rule", ["majority", "add_rule"])
    def test_small_worlds(self, seed, rule):
        scenario = small_scenario(seed=seed)
        core, oracle = run_both(
            scenario.traces,
            scenario.ip2as,
            org=scenario.as2org,
            rel=scenario.relationships,
            remove_rule=rule,
        )
        assert core_map(core) == oracle_map(oracle)
        assert core.converged == oracle.converged
        assert core.iterations == oracle.iterations

    def test_ablation_knobs_respected(self, fig2_traces, fig2_ip2as):
        """The oracle honours the same ablation switches the engine
        does — with the inverse fix and remove step off, both keep the
        mistaken backward inference."""
        core, oracle = run_both(
            fig2_traces,
            fig2_ip2as,
            fix_inverse_inferences=False,
            enable_remove_step=False,
        )
        assert core_map(core) == oracle_map(oracle)


class TestIndependence:
    def test_reference_loads_standalone(self):
        """ORA001's runtime counterpart: every oracle module executes in
        a fresh interpreter with *no* repro package on the path — each
        depends on nothing but the standard library (``__init__`` only
        re-exports them)."""
        entry_points = {"fold.py": "oracle_fold", "reference.py": "oracle_run"}
        modules = sorted((REPO_ROOT / "src" / "repro" / "oracle").glob("*.py"))
        modules = [path for path in modules if path.name != "__init__.py"]
        assert [path.name for path in modules] == sorted(entry_points)
        for path in modules:
            code = (
                "import importlib.util, sys\n"
                f"spec = importlib.util.spec_from_file_location('ref', {str(path)!r})\n"
                "module = importlib.util.module_from_spec(spec)\n"
                "sys.modules['ref'] = module\n"
                "spec.loader.exec_module(module)\n"
                "loaded = [m for m in sys.modules if m.startswith('repro')]\n"
                "assert not loaded, loaded\n"
                f"assert callable(module.{entry_points[path.name]})\n"
            )
            subprocess.run([sys.executable, "-c", code], check=True, env={})

    def test_oracle_sources_never_mention_core(self):
        for path in (REPO_ROOT / "src" / "repro" / "oracle").glob("*.py"):
            assert "from repro.core" not in path.read_text()
            assert "import repro.core" not in path.read_text()


class TestFold:
    """The oracle's §4.1/§4.3 fold on hand-built traces, rule by rule
    (the production fold is held to it in tests/test_perf_flat.py and
    by the differential harness)."""

    @staticmethod
    def fold(*hop_lists, special=()):
        traces = [Trace("m", 1, tuple(Hop(*hop) for hop in hops)) for hops in hop_lists]
        return oracle_fold(traces, set(special).__contains__)

    def test_cycles(self):
        assert self.fold([(1,), (1,), (1,), (2,)]).discarded == 0  # one run
        assert self.fold([(1,), (2,), (1,)]).discarded == 1
        assert self.fold([(1,), (None,), (1,)]).discarded == 1  # a gap separates
        assert self.fold([(1,), (2,), (3,), (2,)]).discarded == 1

    def test_ttl0_hop_is_a_gap_counted_even_when_discarded(self):
        fold = self.fold([(1,), (2, 0), (3,)], [(4,), (5, 0), (4,)])
        assert (fold.retained, fold.discarded, fold.buggy_hops_removed) == (1, 1, 2)
        assert fold.forward == {} and fold.all_addresses == {1, 2, 3, 4, 5}
        assert fold.retained_addresses == {1, 3}

    def test_gaps_and_special_addresses_break_adjacency(self):
        fold = self.fold([(1,), (2,), (None,), (3,), (9,), (4,), (4,)], special=[9])
        assert fold.forward == {1: {2}, 4: {4}}
        assert fold.backward == {2: {1}, 4: {4}}
        assert fold.retained_addresses == {1, 2, 3, 4, 9}


class TestResultShape:
    def test_journal_and_by_half(self, fig2_traces, fig2_ip2as):
        _, oracle = run_both(fig2_traces, fig2_ip2as)
        assert oracle.converged
        assert oracle.journal, "a non-trivial run must journal its rules"
        for entry in oracle.journal:
            assert {"iteration", "pass", "rule", "address", "forward"} <= set(entry)
        by_half = oracle.by_half()
        for record in oracle.confident:
            assert by_half[record.half] is record
            assert oracle.journal_for(record.half), (
                "every final inference has journal entries for its half"
            )

    def test_final_visible_reflects_inferences(self, fig2_traces, fig2_ip2as):
        _, oracle = run_both(fig2_traces, fig2_ip2as)
        for record in oracle.confident:
            assert oracle.final_visible.get(record.half) == record.remote_as

    def test_config_defaults_mirror_production(self):
        """Field-by-field: a new MapItConfig knob must be mirrored (or
        consciously diverged) in the oracle's config."""
        production = MapItConfig()
        reference = OracleConfig()
        for name in (
            "f",
            "min_neighbors",
            "remove_rule",
            "max_iterations",
            "enable_stub_heuristic",
            "fix_dual_inferences",
            "fix_divergent_other_sides",
            "fix_inverse_inferences",
            "enable_remove_step",
        ):
            assert getattr(production, name) == getattr(reference, name), name
