"""Tests for BGP announcement records and collector dumps."""

import pytest

from repro.bgp.table import Announcement, CollectorDump
from repro.io import load_bundle
from repro.net.prefix import Prefix


class TestAnnouncement:
    def test_origin_is_last_hop(self):
        announcement = Announcement(Prefix.parse("10.0.0.0/8"), (100, 200, 300))
        assert announcement.origin == 300

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Announcement(Prefix.parse("10.0.0.0/8"), ())

    def test_line_roundtrip(self):
        announcement = Announcement(Prefix.parse("192.0.2.0/24"), (64500, 64501))
        assert Announcement.from_line(announcement.to_line()) == announcement

    def test_from_line_malformed(self):
        with pytest.raises(ValueError):
            Announcement.from_line("192.0.2.0/24")


class TestCollectorDump:
    def test_add_route(self):
        dump = CollectorDump(name="rv", location="ams")
        dump.add_route(Prefix.parse("10.0.0.0/8"), [1, 2, 3])
        assert len(dump) == 1
        assert next(iter(dump)).origin == 3

    def test_prefixes(self):
        dump = CollectorDump(name="rv")
        dump.add_route(Prefix.parse("10.0.0.0/8"), [1])
        dump.add_route(Prefix.parse("10.0.0.0/8"), [2, 1])
        dump.add_route(Prefix.parse("11.0.0.0/8"), [2])
        assert dump.prefixes() == {Prefix.parse("10.0.0.0/8"), Prefix.parse("11.0.0.0/8")}

    def test_dump_lines_roundtrip(self):
        dump = CollectorDump(name="rrc00", location="Amsterdam NL")
        dump.add_route(Prefix.parse("10.0.0.0/8"), [10, 20])
        dump.add_route(Prefix.parse("192.0.2.0/24"), [10, 30, 40])
        parsed = CollectorDump.from_lines(dump.dump_lines())
        assert parsed.name == "rrc00"
        assert parsed.location == "Amsterdam NL"
        assert parsed.announcements == dump.announcements

    def test_from_lines_skips_blanks(self):
        parsed = CollectorDump.from_lines(["", "#collector x", "10.0.0.0/8|5"])
        assert parsed.name == "x"
        assert len(parsed) == 1

    def test_comment_lines_are_skipped(self):
        """``#`` lines are comments, as in every dataset file; only a
        first token of exactly ``#collector`` heads the dump."""
        dump = CollectorDump(name="rrc00", location="Amsterdam NL")
        dump.add_route(Prefix.parse("10.0.0.0/8"), [10, 20])
        dump.add_route(Prefix.parse("192.0.2.0/24"), [10, 30, 40])
        head, *routes = dump.dump_lines()
        lines = [
            head,
            "# exported 2016-01-01 from the RIB",
            routes[0],
            "#collectors vote once per prefix",
            "#",
            routes[1],
        ]
        parsed = CollectorDump.from_lines(lines)
        assert (parsed.name, parsed.location) == ("rrc00", "Amsterdam NL")
        assert parsed.announcements == dump.announcements


@pytest.mark.parametrize("on_error", ["strict", "lenient"])
def test_load_bundle_skips_dump_comments(tmp_bundle, on_error):
    """A comment line in every dump changes no mapping.  (Regression:
    it aborted a strict load and dropped the whole collector under
    ``--on-error lenient``.)"""
    clean = tmp_bundle(seed=7)
    commented = tmp_bundle(seed=7, copy=True)
    dumps = sorted((commented / "bgp").glob("*.txt"))
    assert dumps
    for path in dumps:
        head, _, rest = path.read_text().partition("\n")
        path.write_text(f"{head}\n# exported from the collector's RIB\n{rest}")
    want = load_bundle(clean)
    got = load_bundle(commented, on_error=on_error)
    assert [status for status in got.health.statuses if status.status == "corrupt"] == []
    addresses = sorted(
        {hop.address for trace in want.traces for hop in trace.hops if hop.address is not None}
    )
    assert addresses
    assert [got.ip2as.asn(a) for a in addresses] == [want.ip2as.asn(a) for a in addresses]
