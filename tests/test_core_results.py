"""Tests for MAP-IT result records."""

import pytest

from repro.core.results import DIRECT, INDIRECT, STUB, LinkInference, MapItResult
from repro.net.ipv4 import parse_address


def addr(text: str) -> int:
    return parse_address(text)


def make(address="9.0.0.1", forward=True, local=1, remote=2, kind=DIRECT, **kwargs):
    return LinkInference(
        address=addr(address),
        forward=forward,
        local_as=local,
        remote_as=remote,
        kind=kind,
        **kwargs,
    )


class TestLinkInference:
    def test_pair_is_sorted(self):
        assert make(local=20, remote=10).pair() == (10, 20)
        assert make(local=10, remote=20).pair() == (10, 20)
        assert make(local=5, remote=5).pair() == (5, 5)

    def test_involves(self):
        inference = make(local=1, remote=2)
        assert inference.involves(1)
        assert inference.involves(2)
        assert not inference.involves(3)

    def test_half(self):
        assert make(forward=False).half == (addr("9.0.0.1"), False)

    def test_str_mentions_kind_and_ases(self):
        text = str(make(kind=INDIRECT, other_side=addr("9.0.0.2")))
        assert "indirect" in text
        assert "AS1" in text and "AS2" in text
        assert "9.0.0.2" in text

    def test_str_marks_uncertain(self):
        assert "(uncertain)" in str(make(uncertain=True))


class TestLinkInferenceContract:
    """A record is a tuple of its fields: what the frozen dataclass it
    replaced promised (keyword construction, immutability, value
    equality, the field-tuple hash, the repr) still holds; ``pair()``
    and the dict round trip are pinned above and below."""

    def test_keyword_construction_with_defaults(self):
        # as the baselines and from_dict build records
        inference = LinkInference(
            address=addr("9.0.0.1"), forward=True, local_as=1, remote_as=2, kind=DIRECT
        )
        assert inference.other_side is None
        assert inference.uncertain is False
        assert inference == make()

    def test_positional_construction_follows_field_order(self):
        fields = (addr("9.0.0.1"), False, 7, 3, STUB, addr("9.0.0.2"), True)
        inference = LinkInference(*fields)
        assert (
            inference.address,
            inference.forward,
            inference.local_as,
            inference.remote_as,
            inference.kind,
            inference.other_side,
            inference.uncertain,
        ) == fields

    def test_attribute_assignment_raises(self):
        inference = make()
        with pytest.raises(AttributeError):
            inference.remote_as = 3
        with pytest.raises(AttributeError):
            inference.note = "no __dict__"
        assert not hasattr(inference, "__dict__")

    def test_value_equality_and_field_tuple_hash(self):
        one, two = make(other_side=addr("9.0.0.2")), make(other_side=addr("9.0.0.2"))
        assert one == two and one is not two
        assert one != make(other_side=addr("9.0.0.2"), uncertain=True)
        fields = (
            one.address,
            one.forward,
            one.local_as,
            one.remote_as,
            one.kind,
            one.other_side,
            one.uncertain,
        )
        # what the frozen dataclass's generated __hash__ returned, so
        # records key dicts (ServeSnapshot.records) as before
        assert hash(one) == hash(fields)
        assert {one: "published"}[two] == "published"

    def test_unpacks_and_equals_its_field_tuple(self):
        inference = make(kind=INDIRECT, other_side=addr("9.0.0.2"), uncertain=True)
        address, forward, local_as, remote_as, kind, other_side, uncertain = inference
        assert inference == (address, forward, local_as, remote_as, kind, other_side, uncertain)
        assert (kind, other_side, uncertain) == (INDIRECT, addr("9.0.0.2"), True)

    def test_repr_text_is_unchanged(self):
        assert repr(make(other_side=addr("9.0.0.2"))) == (
            "LinkInference(address=150994945, forward=True, local_as=1, "
            "remote_as=2, kind='direct', other_side=150994946, uncertain=False)"
        )



class TestMapItResult:
    def result(self):
        return MapItResult(
            inferences=[
                make("9.0.0.1", local=1, remote=2),
                make("9.0.0.2", local=1, remote=2, kind=INDIRECT),
                make("9.0.0.5", local=1, remote=3),
            ],
            uncertain=[make("9.0.0.9", local=2, remote=3, uncertain=True)],
            iterations=3,
            converged=True,
        )

    def test_by_address(self):
        grouped = self.result().by_address()
        assert len(grouped) == 3
        assert len(grouped[addr("9.0.0.1")]) == 1

    def test_as_links(self):
        assert self.result().as_links() == {(1, 2), (1, 3)}

    def test_as_links_and_interfaces_count_each_once(self):
        result = MapItResult(
            inferences=[
                make("9.0.0.1", local=2, remote=1),
                make("9.0.0.1", forward=False, local=1, remote=2),
                make("9.0.0.2", local=3, remote=3),
                make("9.0.0.5", local=3, remote=1),
            ],
            uncertain=[],
            iterations=1,
            converged=True,
        )
        assert result.as_links() == {i.pair() for i in result.inferences}
        assert result.as_links() == {(1, 2), (3, 3), (1, 3)}
        assert result.addresses() == {addr("9.0.0.1"), addr("9.0.0.2"), addr("9.0.0.5")}
        summary = result.summary()
        assert (summary["interfaces"], summary["as_links"]) == (3, 3)

    def test_involving(self):
        assert len(self.result().involving(3)) == 1
        assert len(self.result().involving(1)) == 3

    def test_summary(self):
        summary = self.result().summary()
        assert summary["inferences"] == 3
        assert summary["uncertain"] == 1
        assert summary["as_links"] == 2
        assert summary["iterations"] == 3


class TestSerialization:
    def test_link_inference_dict_roundtrip(self):
        inference = make(
            "9.0.0.1", forward=False, local=10, remote=20,
            kind=INDIRECT, other_side=addr("9.0.0.2"), uncertain=True,
        )
        assert LinkInference.from_dict(inference.to_dict()) == inference
        stub = make(forward=False, local=30, remote=4, kind=STUB, uncertain=True)
        assert LinkInference.from_dict(stub.to_dict()) == stub

    def test_dict_roundtrip_without_other_side(self):
        inference = make("9.0.0.1")
        assert LinkInference.from_dict(inference.to_dict()) == inference

    def test_result_json_roundtrip(self):
        result = MapItResult(
            inferences=[make("9.0.0.1"), make("9.0.0.5", local=1, remote=3)],
            uncertain=[make("9.0.0.9", uncertain=True)],
            iterations=2,
            converged=True,
            diagnostics={"dual_resolved": 1},
        )
        back = MapItResult.from_json(result.to_json())
        assert back.inferences == result.inferences
        assert back.uncertain == result.uncertain
        assert back.converged
        assert back.iterations == 2
        assert back.diagnostics == result.diagnostics
