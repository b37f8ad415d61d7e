"""BGP announcement records and per-collector RIB dumps.

A RIB dump is modelled as the set of ``(prefix, AS path)`` routes a
collector holds; the origin AS is the last hop of the AS path.  We keep
the full path (not just the origin) because path data is also what the
simulator emits, and because AS-path information is useful for
relationship inference in the :mod:`repro.rel` substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple

from repro.net.prefix import Prefix


@dataclass(frozen=True)
class Announcement:
    """One route: a prefix plus the AS path that reached the collector.

    ``as_path`` is ordered from the collector's peer to the origin, so
    ``as_path[-1]`` is the origin AS.
    """

    prefix: Prefix
    as_path: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.as_path:
            raise ValueError("empty AS path")

    @property
    def origin(self) -> int:
        """The origin AS (last hop of the AS path)."""
        return self.as_path[-1]

    def to_line(self) -> str:
        """Serialize to the textual dump format."""
        path = " ".join(str(asn) for asn in self.as_path)
        return f"{self.prefix}|{path}"

    @classmethod
    def from_line(cls, line: str) -> "Announcement":
        """Parse a line produced by :meth:`to_line`."""
        prefix_text, _, path_text = line.strip().partition("|")
        if not path_text:
            raise ValueError(f"malformed announcement line: {line!r}")
        path = tuple(int(tok) for tok in path_text.split())
        return cls(Prefix.parse(prefix_text), path)


@dataclass
class CollectorDump:
    """All routes held by one collector (one RIB dump).

    ``name`` identifies the collector (e.g. ``"route-views2"``), and
    ``location`` is free-form metadata mirroring the paper's interest in
    geographically diverse collectors.
    """

    name: str
    location: str = ""
    announcements: List[Announcement] = field(default_factory=list)

    def add(self, announcement: Announcement) -> None:
        self.announcements.append(announcement)

    def add_route(self, prefix: Prefix, as_path: Iterable[int]) -> None:
        self.announcements.append(Announcement(prefix, tuple(as_path)))

    def __iter__(self) -> Iterator[Announcement]:
        return iter(self.announcements)

    def __len__(self) -> int:
        return len(self.announcements)

    def prefixes(self) -> set:
        """The set of distinct prefixes in this dump."""
        return {a.prefix for a in self.announcements}

    def dump_lines(self) -> Iterator[str]:
        """Serialize to the textual dump format, one route per line."""
        yield f"#collector {self.name} {self.location}".rstrip()
        for announcement in self.announcements:
            yield announcement.to_line()

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "CollectorDump":
        """Parse the format produced by :meth:`dump_lines`.

        A ``#`` line whose first token is exactly ``#collector`` is the
        header; every other ``#`` line is a comment.
        """
        dump = cls(name="unnamed")
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split(maxsplit=2)
                if parts[0] == "#collector":
                    dump.name = parts[1] if len(parts) > 1 else "unnamed"
                    dump.location = parts[2] if len(parts) > 2 else ""
                continue  # any other ``#`` line is a comment
            dump.add(Announcement.from_line(line))
        return dump
