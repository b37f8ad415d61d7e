"""Tests for MAP-IT state bookkeeping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import DirectInference, IndirectInference, MapItState
from repro.graph.halves import BACKWARD, FORWARD


def direct(half, local=1, remote=2, **kwargs):
    return DirectInference(half=half, local_as=local, remote_as=remote, **kwargs)


def indirect(half, source, local=1, remote=2, **kwargs):
    return IndirectInference(
        half=half, local_as=local, remote_as=remote, source=source, **kwargs
    )


H1, H2, H3 = (10, FORWARD), (11, BACKWARD), (12, FORWARD)


class TestInferenceBookkeeping:
    def test_add_and_remove_direct(self):
        state = MapItState()
        state.add_direct(direct(H1))
        assert H1 in state.direct
        assert H1 in state.inferred_this_step
        removed = state.remove_direct(H1)
        assert removed is not None
        assert H1 not in state.direct
        # The step marker is intentionally retained: only one direct
        # inference may be attempted per IH per add step.
        assert H1 in state.inferred_this_step

    def test_remove_direct_cascades_to_indirect(self):
        state = MapItState()
        state.add_direct(direct(H1))
        state.add_indirect(indirect(H2, source=H1))
        state.remove_direct(H1)
        assert H2 not in state.indirect

    def test_remove_missing_direct(self):
        assert MapItState().remove_direct(H1) is None

    def test_sweep_unsupported(self):
        state = MapItState()
        state.add_direct(direct(H1))
        state.add_indirect(indirect(H2, source=H1))
        state.add_indirect(indirect(H3, source=(99, FORWARD)))
        swept = state.sweep_unsupported_indirect()
        assert swept == 1
        assert H2 in state.indirect
        assert H3 not in state.indirect


class TestVisibleMappings:
    def test_direct_overrides_indirect(self):
        state = MapItState()
        state.add_direct(direct(H1, remote=5))
        state.add_indirect(indirect(H1, source=H2, remote=7))
        state.refresh_visible()
        assert state.visible_asn(H1, 0) == 5

    def test_detached_indirect_contributes_nothing(self):
        state = MapItState()
        inference = indirect(H1, source=H2, remote=7)
        inference.detached = True
        state.add_indirect(inference)
        state.refresh_visible()
        assert state.visible_asn(H1, 42) == 42

    def test_fallback_to_original(self):
        state = MapItState()
        state.refresh_visible()
        assert state.visible_asn(H1, 1234) == 1234


class TestFingerprint:
    def test_equal_states_equal_fingerprints(self):
        a, b = MapItState(), MapItState()
        for state in (a, b):
            state.add_direct(direct(H1))
            state.add_indirect(indirect(H2, source=H1))
        assert a.fingerprint() == b.fingerprint()

    def test_order_independent(self):
        a, b = MapItState(), MapItState()
        a.add_direct(direct(H1))
        a.add_direct(direct(H3))
        b.add_direct(direct(H3))
        b.add_direct(direct(H1))
        assert a.fingerprint() == b.fingerprint()

    def test_changes_move_fingerprint(self):
        state = MapItState()
        empty = state.fingerprint()
        state.add_direct(direct(H1))
        with_one = state.fingerprint()
        assert empty != with_one
        state.direct[H1].uncertain = True
        assert state.fingerprint() != with_one

    def test_counts(self):
        state = MapItState()
        state.add_direct(direct(H1, uncertain=True))
        state.add_indirect(indirect(H2, source=H1))
        assert state.counts() == {"direct": 1, "indirect": 1, "uncertain": 1}
        assert len(state) == 2


# Tiny domains, so two drawn tables often agree on a field.
_halves = st.tuples(st.integers(0, 2), st.booleans())
_asns = st.integers(0, 2)
#: direct fields: local_as, remote_as, uncertain, via_stub
_direct_fields = (_asns, _asns, st.booleans(), st.booleans())
#: indirect fields: local_as, remote_as, source, detached
_indirect_fields = (_asns, _asns, _halves, st.booleans())


def _table(fields):
    return st.dictionaries(_halves, st.tuples(*fields), max_size=4)


def _edited(data, table, fields):
    """*table* with each field kept or redrawn, and perhaps one entry
    dropped or one added."""
    edited = {
        half: tuple(
            data.draw(st.one_of(st.just(value), strategy))
            for value, strategy in zip(values, fields)
        )
        for half, values in table.items()
    }
    if edited and data.draw(st.booleans()):
        del edited[data.draw(st.sampled_from(sorted(edited)))]
    if data.draw(st.booleans()):
        edited[data.draw(_halves)] = data.draw(st.tuples(*fields))
    return edited


def _state(directs, indirects, reverse):
    state = MapItState()
    for half in sorted(directs, reverse=reverse):
        local, remote, uncertain, via_stub = directs[half]
        state.add_direct(direct(half, local, remote, uncertain=uncertain, via_stub=via_stub))
    for half in sorted(indirects, reverse=reverse):
        local, remote, source, detached = indirects[half]
        state.add_indirect(indirect(half, source, local, remote, detached=detached))
    return state


class TestStateKey:
    """§4.6 compares :meth:`MapItState.state_key`; serve publishes
    :meth:`MapItState.fingerprint`.  They must name the same state."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_keys_equal_exactly_when_fingerprints_equal(self, data):
        directs = data.draw(_table(_direct_fields))
        indirects = data.draw(_table(_indirect_fields))
        a = _state(directs, indirects, reverse=False)
        b = _state(
            _edited(data, directs, _direct_fields),
            _edited(data, indirects, _indirect_fields),
            reverse=data.draw(st.booleans()),
        )
        assert (a.state_key() == b.state_key()) == (a.fingerprint() == b.fingerprint())

    def test_fields_neither_reads(self):
        a, b = MapItState(), MapItState()
        a.add_direct(direct(H1, via_stub=False))
        b.add_direct(direct(H1, via_stub=True))
        a.add_indirect(indirect(H2, source=H1, local=1))
        b.add_indirect(indirect(H2, source=H1, local=9))
        assert a.state_key() == b.state_key()
        assert a.fingerprint() == b.fingerprint()

    def test_flags_move_both(self):
        state = MapItState()
        state.add_direct(direct(H1))
        state.add_indirect(indirect(H2, source=H1))
        before = (state.state_key(), state.fingerprint())
        state.direct[H1].uncertain = True
        uncertain = (state.state_key(), state.fingerprint())
        state.indirect[H2].detached = True
        detached = (state.state_key(), state.fingerprint())
        for one, other in ((before, uncertain), (uncertain, detached), (before, detached)):
            assert one[0] != other[0] and one[1] != other[1]

    def test_key_is_order_independent_and_hashable(self):
        a, b = MapItState(), MapItState()
        a.add_direct(direct(H1))
        a.add_direct(direct(H3))
        b.add_direct(direct(H3))
        b.add_direct(direct(H1))
        assert a.state_key() == b.state_key()
        assert len({a.state_key(), b.state_key(), MapItState().state_key()}) == 2
