"""The serve-vs-batch differential layer.

Batch is the spec: for every prefix of the trace stream, a quiesced
serve state must be **byte-identical** to ``mapit run`` over exactly
those traces — same §4.6 state fingerprint, same result JSON.  This
module holds serve to that bar three ways:

* :func:`check_world` replays a world trace by trace through an
  :class:`~repro.serve.incremental.IncrementalIndex`, quiescing after
  every fold and comparing prefixes against fresh batch runs;
* :func:`check_sweep` runs that over a seeded world sweep (the CI
  serve job's ≥25-world property leg);
* on divergence, :func:`shrink_serve_divergence` minimizes the world
  with the differential harness's ddmin shrinker and writes a
  replayable regression bundle.

:func:`dirty_tracking_fault` deliberately drops a fraction of
dirty-half invalidations — the exact bug class this layer exists to
catch — so the tests can prove the sweep and the shrinker actually
fire on a broken incremental engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.core.config import MapItConfig
from repro.core.mapit import MapIt
from repro.diff.shrink import ShrinkReport, shrink_world, write_regression
from repro.diff.worlds import World, world_sweep
from repro.graph.neighbors import graph_from_traces
from repro.obs.observer import NULL_OBS, Observability
from repro.robust.faults import _half_selected
from repro.serve.incremental import IncrementalIndex


def batch_state(
    world: World, prefix: int, config: MapItConfig
) -> Tuple[str, str]:
    """(fingerprint, result JSON) of a batch run over the first
    *prefix* traces — the ground truth a quiesce is held to."""
    graph, _ = graph_from_traces(world.traces[:prefix])
    mapit = MapIt(
        graph, world.ip2as(), org=world.as2org, rel=world.relationships,
        config=config,
    )
    result = mapit.run()
    return mapit.engine.state.fingerprint(), result.to_json(indent=2)


@dataclass
class ServeDivergence:
    """Serve and batch disagreed after folding *prefix* traces."""

    world: str
    prefix: int
    batch_fingerprint: str
    serve_fingerprint: str
    json_equal: bool

    def summary(self) -> str:
        return (
            f"{self.world}: divergence at prefix {self.prefix} "
            f"(batch {self.batch_fingerprint[:12]} vs serve "
            f"{self.serve_fingerprint[:12]}, json_equal={self.json_equal})"
        )


@dataclass
class SweepOutcome:
    """One property sweep's verdict."""

    preset: str
    worlds: int
    prefixes_checked: int = 0
    divergences: List[ServeDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def lines(self) -> List[str]:
        status = "OK" if self.ok else "DIVERGED"
        out = [
            f"serve sweep [{status}]: {self.worlds} {self.preset} world(s), "
            f"{self.prefixes_checked} prefix compare(s), "
            f"{len(self.divergences)} divergence(s)"
        ]
        out.extend(f"  {d.summary()}" for d in self.divergences)
        return out


def check_world(
    world: World,
    config: Optional[MapItConfig] = None,
    check_every: int = 1,
    obs: Observability = NULL_OBS,
) -> Tuple[Optional[ServeDivergence], int]:
    """Fold *world* trace by trace; compare prefixes against batch.

    Quiesces after **every** fold (so the dirty-region engine runs its
    worst case); compares fingerprints and result JSON against a fresh
    batch run every *check_every* prefixes and always at the end.
    Returns ``(first divergence or None, prefixes compared)``.
    """
    config = config or MapItConfig()
    index = IncrementalIndex(
        world.ip2as(), org=world.as2org, rel=world.relationships,
        config=config, obs=obs,
    )
    checked = 0
    total = len(world.traces)
    for position, trace in enumerate(world.traces, start=1):
        index.fold([trace])
        result = index.quiesce()
        if position % max(1, check_every) and position != total:
            continue
        checked += 1
        batch_fp, batch_json = batch_state(world, position, config)
        serve_fp = index.fingerprint()
        serve_json = result.to_json(indent=2)
        if serve_fp != batch_fp or serve_json != batch_json:
            obs.inc("serve.verify.divergences")
            return (
                ServeDivergence(
                    world=world.name,
                    prefix=position,
                    batch_fingerprint=batch_fp,
                    serve_fingerprint=serve_fp,
                    json_equal=serve_json == batch_json,
                ),
                checked,
            )
    obs.inc("serve.verify.prefixes", checked)
    return None, checked


def serve_world_diverges(
    world: World, config: Optional[MapItConfig] = None, check_every: int = 1
) -> bool:
    """The shrinker predicate: does *world* still diverge?"""
    divergence, _ = check_world(world, config, check_every=check_every)
    return divergence is not None


def check_sweep(
    preset: str,
    worlds: int,
    seed: int,
    config: Optional[MapItConfig] = None,
    check_every: int = 1,
    obs: Observability = NULL_OBS,
) -> SweepOutcome:
    """Run :func:`check_world` over a deterministic world sweep."""
    outcome = SweepOutcome(preset=preset, worlds=worlds)
    for world in world_sweep(preset, worlds, seed):
        with obs.span("serve/verify_world"):
            divergence, checked = check_world(
                world, config, check_every=check_every, obs=obs
            )
        outcome.prefixes_checked += checked
        if divergence is not None:
            outcome.divergences.append(divergence)
    return outcome


def shrink_serve_divergence(
    world: World,
    config: Optional[MapItConfig] = None,
    directory=None,
    check_every: int = 1,
    obs: Observability = NULL_OBS,
) -> Tuple[World, ShrinkReport, Optional[str]]:
    """Minimize a diverging world; optionally write the repro bundle.

    The caller must hold whatever made the world diverge (e.g. a
    :func:`dirty_tracking_fault` context) open across the shrink, so
    the predicate keeps observing the same bug.
    """
    config = config or MapItConfig()

    def predicate(candidate: World) -> bool:
        return serve_world_diverges(candidate, config, check_every=check_every)

    shrunk, report = shrink_world(world, predicate, obs=obs)
    written = None
    if directory is not None:
        written = str(
            write_regression(
                shrunk,
                config.remove_rule,
                directory,
                extra_manifest={"layer": "serve-incremental"},
            )
        )
    return shrunk, report, written


@contextmanager
def dirty_tracking_fault(rate: float = 0.5, seed: int = 0) -> Iterator[None]:
    """Deliberately drop a fraction of dirty-half invalidations.

    Simulates the canonical incremental-engine bug — a stale cached
    tally (and a missed newly eligible candidate) surviving a
    neighbor-set change — so tests can prove the differential layer
    catches it.  Selection is per-half deterministic
    (same ``(seed, half)`` always drops), so shrinking under the fault
    converges.
    """
    from repro.core.engine import Engine

    original = Engine.invalidate_halves

    def leaky(self, halves):
        kept = [
            half for half in halves if not _half_selected(half, rate, seed)
        ]
        return original(self, kept)

    Engine.invalidate_halves = leaky
    try:
        yield
    finally:
        Engine.invalidate_halves = original
