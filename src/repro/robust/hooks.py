"""The chaos hook: the one piece of fault injection production code reads.

The journal, the bundle cache, the shard supervisor and the serve
daemon ask :func:`active_chaos` whether a chaos run armed an injector.
This module holds only that switch and the schedule names ``mapit
chaos`` offers, so running, serving and folding load neither the
injectors (:mod:`repro.robust.faults`) nor the harness
(:mod:`repro.robust.chaos`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.robust.faults import ChaosInjector

#: chaos schedule names, in run order (:mod:`repro.robust.chaos`)
CHAOS_SCHEDULES = (
    "kill",
    "hang",
    "torn-journal",
    "enospc",
    "corrupt-cache",
    "serve",
)

#: the armed injector, if any; forked workers inherit it copy-on-write
_ACTIVE_CHAOS: Optional[ChaosInjector] = None


def active_chaos() -> Optional[ChaosInjector]:
    """The injector armed by :func:`chaos`, or None outside a chaos run."""
    return _ACTIVE_CHAOS


@contextmanager
def chaos(injector: ChaosInjector) -> Iterator[ChaosInjector]:
    """Arm *injector* for the duration of the context.

    Fault hooks (:meth:`ChaosInjector.maybe_fault_shard` in pool
    workers, write hooks in the journal and cache) consult
    :func:`active_chaos`, so arming must happen *before* the pool forks.
    """
    global _ACTIVE_CHAOS
    previous = _ACTIVE_CHAOS
    _ACTIVE_CHAOS = injector
    try:
        yield injector
    finally:
        _ACTIVE_CHAOS = previous
