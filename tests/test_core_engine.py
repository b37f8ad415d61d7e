"""Tests for neighbor-set counting and plurality (Alg 2 lines 2-3)."""

from repro.bgp.ip2as import IP2AS
from repro.core.engine import Engine
from repro.graph.halves import BACKWARD, FORWARD
from repro.graph.neighbors import InterfaceGraph, build_interface_graph
from repro.net.ipv4 import parse_address
from repro.org.as2org import AS2Org
from repro.traceroute.parse import parse_text_traces


def addr(text: str) -> int:
    return parse_address(text)


def make_engine(lines, pairs, org=None, config=None):
    graph = build_interface_graph(parse_text_traces(lines))
    ip2as = IP2AS.from_pairs(pairs)
    return Engine(graph, ip2as, org=org, config=config)


BASE_PAIRS = [
    ("9.0.0.0/16", 100),
    ("9.1.0.0/16", 200),
    ("9.2.0.0/16", 300),
]


class TestPlurality:
    def test_strict_plurality(self):
        engine = make_engine(
            [
                "m|9.9.9.1|9.0.0.1 9.1.0.1",
                "m|9.9.9.2|9.0.0.1 9.1.0.5",
                "m|9.9.9.3|9.0.0.1 9.2.0.1",
            ],
            BASE_PAIRS,
        )
        engine.state.refresh_visible()
        plurality = engine.plurality((addr("9.0.0.1"), FORWARD))
        assert plurality is not None
        assert plurality.canonical_as == 200
        assert plurality.member_as == 200
        assert plurality.count == 2
        assert plurality.total == 3

    def test_tie_means_no_plurality(self):
        """'appears more than all other ASes' is strict."""
        engine = make_engine(
            [
                "m|9.9.9.1|9.0.0.1 9.1.0.1",
                "m|9.9.9.2|9.0.0.1 9.2.0.1",
            ],
            BASE_PAIRS,
        )
        engine.state.refresh_visible()
        assert engine.plurality((addr("9.0.0.1"), FORWARD)) is None

    def test_empty_set(self):
        engine = make_engine(["m|9.9.9.1|9.0.0.1 9.1.0.1"], BASE_PAIRS)
        engine.state.refresh_visible()
        assert engine.plurality((addr("9.0.0.1"), BACKWARD)) is None

    def test_unknown_addresses_compete(self):
        """A neighbor set made primarily of unannounced addresses must
        not yield an inference (section 5.4)."""
        engine = make_engine(
            [
                "m|9.9.9.1|9.0.0.1 8.0.0.1",
                "m|9.9.9.2|9.0.0.1 8.0.1.1",
                "m|9.9.9.3|9.0.0.1 9.1.0.1",
            ],
            BASE_PAIRS,  # 8/8 unannounced
        )
        engine.state.refresh_visible()
        assert engine.plurality((addr("9.0.0.1"), FORWARD)) is None

    def test_siblings_counted_together(self):
        org = AS2Org.from_pairs([(200, 300)])
        engine = make_engine(
            [
                "m|9.9.9.1|9.0.0.1 9.1.0.1",
                "m|9.9.9.2|9.0.0.1 9.2.0.1",
                "m|9.9.9.3|9.0.0.1 9.2.0.5",
            ],
            BASE_PAIRS,
            org=org,
        )
        engine.state.refresh_visible()
        plurality = engine.plurality((addr("9.0.0.1"), FORWARD))
        assert plurality is not None
        assert plurality.canonical_as == org.canonical(200)
        assert plurality.count == 3
        # The recorded member is the sibling appearing most often.
        assert plurality.member_as == 300

    def test_f_threshold(self):
        from repro.core.engine import Plurality

        plurality = Plurality(canonical_as=1, member_as=1, count=2, total=4)
        assert plurality.satisfies_f(0.5)
        assert not plurality.satisfies_f(0.6)
        assert plurality.satisfies_f(0.0)

    def test_majority(self):
        from repro.core.engine import Plurality

        assert Plurality(1, 1, 3, 5).is_majority()
        assert not Plurality(1, 1, 2, 4).is_majority()


class TestVisibleMappings:
    def test_updates_read_from_snapshot(self):
        engine = make_engine(["m|9.9.9.1|9.0.0.1 9.1.0.1"], BASE_PAIRS)
        half = (addr("9.1.0.1"), BACKWARD)
        assert engine.half_asn(half) == 200
        from repro.core.state import DirectInference

        engine.state.add_direct(
            DirectInference(half=half, local_as=200, remote_as=100)
        )
        # Not visible until the snapshot refreshes (determinism rule).
        assert engine.half_asn(half) == 200
        engine.state.refresh_visible()
        assert engine.half_asn(half) == 100

    def test_per_half_isolation(self):
        """An update to one half never affects the other half."""
        engine = make_engine(["m|9.9.9.1|9.0.0.1 9.1.0.1"], BASE_PAIRS)
        from repro.core.state import DirectInference

        backward = (addr("9.1.0.1"), BACKWARD)
        forward = (addr("9.1.0.1"), FORWARD)
        engine.state.add_direct(
            DirectInference(half=backward, local_as=200, remote_as=100)
        )
        engine.state.refresh_visible()
        assert engine.half_asn(backward) == 100
        assert engine.half_asn(forward) == 200


class TestCandidates:
    def test_min_neighbors_filter(self):
        engine = make_engine(
            [
                "m|9.9.9.1|9.0.0.1 9.1.0.1",
                "m|9.9.9.2|9.0.0.1 9.1.0.5",
            ],
            BASE_PAIRS,
        )
        candidates = engine.candidate_halves()
        assert (addr("9.0.0.1"), FORWARD) in candidates
        # Backward sets here all have a single member.
        assert all(direction or False is False for _, direction in candidates) or True
        assert (addr("9.1.0.1"), BACKWARD) not in candidates

    def test_sorted(self):
        engine = make_engine(
            [
                "m|9.9.9.1|9.0.0.1 9.1.0.1",
                "m|9.9.9.2|9.0.0.1 9.1.0.5",
            ],
            BASE_PAIRS,
        )
        candidates = engine.candidate_halves()
        assert candidates == sorted(candidates)


class TestDominanceMemberAlignment:
    """The remove step's dominance tally and the add step's plurality
    must agree on which member AS a sibling group stands for
    (most-frequent member, lowest ASN on ties) — a disagreement would
    let the remove step demote an inference the add step just made."""

    SIBLING_LINES = [
        "m|9.9.9.1|9.0.0.1 9.1.0.1",
        "m|9.9.9.2|9.0.0.1 9.2.0.1",
        "m|9.9.9.3|9.0.0.1 9.2.0.5",
    ]

    def test_sibling_group_member_matches_plurality(self):
        org = AS2Org.from_pairs([(200, 300)])
        engine = make_engine(self.SIBLING_LINES, BASE_PAIRS, org=org)
        engine.state.refresh_visible()
        half = (addr("9.0.0.1"), FORWARD)
        plurality = engine.plurality(half)
        dominance = engine.dominance(half, plurality.canonical_as)
        # AS300 appears twice, AS200 once: the most frequent member
        # wins on both sides even though AS200 is the lower number.
        assert plurality.member_as == 300
        assert dominance.member_as == 300
        assert dominance.count == plurality.count == 3

    def test_dominance_of_absent_group_falls_back_to_canonical(self):
        engine = make_engine(self.SIBLING_LINES, BASE_PAIRS)
        engine.state.refresh_visible()
        dominance = engine.dominance((addr("9.0.0.1"), FORWARD), 999)
        assert dominance.count == 0
        assert dominance.member_as == 999


class TestMostFrequentMember:
    def test_ties_break_to_lowest_asn(self):
        from repro.core.engine import most_frequent_member

        assert most_frequent_member({300: 2, 200: 2}, 0) == 200
        assert most_frequent_member({300: 3, 200: 2}, 0) == 300
        assert most_frequent_member({}, 7) == 7

    def test_matches_naive_reference_on_seeded_tallies(self):
        """Property test against the obviously-correct (but O(n^2))
        sort-based reference the fast helper replaced."""
        import random

        from repro.core.engine import most_frequent_member

        rng = random.Random(20160814)
        for _ in range(300):
            members = {
                rng.randint(1, 40): rng.randint(1, 9)
                for _ in range(rng.randint(0, 15))
            }
            if members:
                naive = sorted(members.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            else:
                naive = 77
            assert most_frequent_member(members, 77) == naive


class TestTallyCache:
    """The cache behind :meth:`Engine.plurality`: a tally is recounted
    only when the snapshot changed a mapping it reads, or the fold grew
    its neighbor set."""

    LINES = [
        "m|9.9.9.1|9.0.0.1 9.1.0.1 9.2.0.1",
        "m|9.9.9.2|9.0.0.5 9.1.0.1 9.2.0.5",
        "m|9.9.9.3|9.0.0.1 9.1.0.5 9.2.0.1",
        "m|9.9.9.4|9.0.0.5 9.1.0.5",
    ]

    @staticmethod
    def counting(engine):
        """Record every half :meth:`Engine.count_plurality` recounts."""
        recounted = []
        count = engine.count_plurality

        def wrapper(half):
            recounted.append(half)
            return count(half)

        engine.count_plurality = wrapper
        return recounted

    @staticmethod
    def every_half(engine):
        addresses = set(engine.graph.forward) | set(engine.graph.backward)
        return [(a, d) for a in sorted(addresses) for d in (BACKWARD, FORWARD)]

    def test_unchanged_snapshot_does_not_recount(self):
        engine = make_engine(self.LINES, BASE_PAIRS)
        recounted = self.counting(engine)
        engine.state.refresh_visible()
        halves = self.every_half(engine)
        first = [engine.plurality(half) for half in halves]
        assert sorted(recounted) == halves
        recounted.clear()
        engine.state.refresh_visible()  # a new dict, equal content
        assert [engine.plurality(half) for half in halves] == first
        assert recounted == []

    def test_changed_half_recounts_exactly_its_dependents(self):
        from repro.core.state import DirectInference

        engine = make_engine(self.LINES, BASE_PAIRS)
        recounted = self.counting(engine)
        halves = self.every_half(engine)
        for half in halves:
            engine.plurality(half)
        changed = (addr("9.1.0.1"), BACKWARD)
        engine.state.add_direct(DirectInference(half=changed, local_as=200, remote_as=100))
        engine.state.refresh_visible()
        recounted.clear()
        answers = [engine.plurality(half) for half in halves]
        dependents = {
            (a, FORWARD) for a in engine.graph.backward[addr("9.1.0.1")]
        }
        assert dependents == {(addr("9.0.0.1"), FORWARD), (addr("9.0.0.5"), FORWARD)}
        assert set(recounted) == dependents
        assert changed not in recounted
        assert answers == [engine.count_plurality(half) for half in halves]

    def test_removed_mapping_recounts_its_dependents(self):
        from repro.core.state import DirectInference

        engine = make_engine(self.LINES, BASE_PAIRS)
        changed = (addr("9.2.0.1"), BACKWARD)
        engine.state.add_direct(DirectInference(half=changed, local_as=300, remote_as=100))
        engine.state.refresh_visible()
        halves = self.every_half(engine)
        for half in halves:
            engine.plurality(half)
        recounted = self.counting(engine)
        engine.state.remove_direct(changed)
        engine.state.refresh_visible()
        for half in halves:
            engine.plurality(half)
        assert set(recounted) == {(addr("9.1.0.1"), FORWARD), (addr("9.1.0.5"), FORWARD)}

    def test_invalidate_drops_only_dirty_halves_and_inserts_candidates(self):
        engine = make_engine(self.LINES, BASE_PAIRS)
        engine.state.refresh_visible()
        before = list(engine.candidate_halves())
        halves = self.every_half(engine)
        for half in halves:
            engine.plurality(half)
        # Grow the graph the way a serve fold does: 9.2.0.5 gains a
        # second forward member, and 9.3.0.9 its first backward one.
        graph = engine.graph
        grown_forward = (addr("9.2.0.5"), FORWARD)
        graph.forward.setdefault(addr("9.2.0.5"), set()).update(
            {addr("9.3.0.1"), addr("9.3.0.9")}
        )
        for member in (addr("9.3.0.1"), addr("9.3.0.9")):
            graph.backward.setdefault(member, set()).add(addr("9.2.0.5"))
        dirty = [
            grown_forward,
            (addr("9.3.0.1"), BACKWARD),
            (addr("9.3.0.9"), BACKWARD),
        ]
        assert grown_forward not in before
        recounted = self.counting(engine)
        # Only 9.2.0.5's forward half had a cached tally to drop.
        assert engine.invalidate_halves(dirty) == 1
        candidates = engine.candidate_halves()
        assert candidates == sorted(before + [grown_forward])
        fresh = Engine(graph, engine.ip2as, config=engine.config)
        assert candidates == fresh.candidate_halves()
        for half in halves:
            engine.plurality(half)
        assert recounted == [grown_forward]

    def test_reset_clears_the_cache(self):
        engine = make_engine(self.LINES, BASE_PAIRS)
        engine.state.refresh_visible()
        halves = self.every_half(engine)
        for half in halves:
            engine.plurality(half)
        engine.candidate_halves()
        engine.graph.forward[addr("9.2.0.5")] = {addr("9.3.0.1"), addr("9.3.0.9")}
        recounted = self.counting(engine)
        engine.reset_caches()
        for half in halves:
            engine.plurality(half)
        assert sorted(recounted) == halves
        assert (addr("9.2.0.5"), FORWARD) in engine.candidate_halves()

    #: gives 9.0.0.9's forward half a tied neighbor set (AS200 vs
    #: AS300): a candidate that cannot fire, so the first pass settles it
    TIED = ["m|9.9.9.5|9.0.0.9 9.1.0.9", "m|9.9.9.6|9.0.0.9 9.2.0.9"]

    def quiesced(self):
        """A serve-style run over LINES + TIED, quiesced once."""
        from repro.core.mapit import MapIt

        engine = make_engine(self.LINES + self.TIED, BASE_PAIRS)
        mapit = MapIt(engine.graph, engine.ip2as)
        assert mapit.run_incremental(self.every_half(engine)).inferences
        return mapit

    @staticmethod
    def first_pass_recounts(engine):
        """Record every half recounted under the empty snapshot."""
        recounted = []
        count = engine.count_plurality

        def wrapper(half):
            if not engine.state.visible:
                recounted.append(half)
            return count(half)

        engine.count_plurality = wrapper
        return recounted

    def test_quiesce_without_growth_recounts_no_start_tally(self):
        mapit = self.quiesced()
        before = mapit.run_incremental(()).to_json()
        recounted = self.first_pass_recounts(mapit.engine)
        assert mapit.run_incremental(()).to_json() == before
        assert recounted == []

    def test_invalidate_clears_start_tally_and_settled_half(self):
        mapit = self.quiesced()
        engine = mapit.engine
        tied = (addr("9.0.0.9"), FORWARD)
        assert tied in engine.candidate_halves()
        recounted = self.first_pass_recounts(engine)
        mapit.run_incremental(())
        assert recounted == []
        # Settled but unchanged, 9.0.0.9 is recounted only once the
        # fold names it: a kept start tally or settled mark would skip it.
        mapit.run_incremental([tied])
        assert recounted == [tied]

    def test_reset_clears_start_tallies_and_settled_halves(self):
        mapit = self.quiesced()
        engine = mapit.engine
        recounted = self.first_pass_recounts(engine)
        engine.reset_caches()
        mapit.run_incremental(())
        assert recounted == engine.candidate_halves()


class _CountingMapper:
    def __init__(self):
        self.calls = []

    def asn(self, address):
        self.calls.append(address)
        return address % 13 or None


class TestPrimeOrigins:
    def test_matches_per_address_lookups(self):
        mapper = _CountingMapper()
        engine = Engine(InterfaceGraph(), mapper)
        addresses = [9, 3, 9, 26, 3, 7]
        assert engine.prime_origins(addresses) == len(set(addresses))
        assert engine._origin_cache == {a: (a % 13 or None) for a in set(addresses)}
        assert sorted(mapper.calls) == sorted(set(addresses))
