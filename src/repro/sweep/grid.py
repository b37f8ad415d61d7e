"""Sweep grids: canonical (preset, seed, f-value) cell expansion.

A grid is the cartesian product of three axes.  Everything downstream —
the sweep identity, the journal's plan record, cell file names, resume
bookkeeping, and the final aggregate — keys off the *canonical* form
built here: axes deduplicated and sorted, cells expanded in one fixed
order.  Two invocations that mean the same sweep (however the flags
were ordered or repeated) therefore share one identity and one journal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.sim.presets import (
    SCENARIO_PRESETS,
    stress_config,
    stress_large_config,
    stress_smoke_config,
)

#: bump when the cell result layout or expansion order changes; old
#: journals then key to a different sweep id and are not resumed
SWEEP_VERSION = 1

#: stress presets: closed-form worlds generated shard-by-shard
#: (:mod:`repro.sim.stress`); never materialized to disk
STRESS_PRESETS = {
    "stress-smoke": stress_smoke_config,
    "stress": stress_config,
    "stress-large": stress_large_config,
}

#: what each cell computes: ``dataset`` scores a materialized world
#: against its ground truth (stress presets fold their generated
#: shards instead); ``experiment``/``compare`` rebuild the scenario
#: in memory and run the paper's evaluation/baseline pipelines
SWEEP_KINDS = ("dataset", "experiment", "compare")


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a preset's world at one seed, run at one f."""

    preset: str
    seed: int
    f: float

    @property
    def world_id(self) -> str:
        """The world this cell runs over (shared across f-values)."""
        return f"{self.preset}-s{self.seed:04d}"

    @property
    def cell_id(self) -> str:
        """Filename-safe unique cell name, stable across resumes."""
        return f"{self.world_id}-f{self.f:g}"

    @property
    def is_stress(self) -> bool:
        return self.preset in STRESS_PRESETS


@dataclass(frozen=True)
class SweepGrid:
    """A canonicalized sweep grid (build via :meth:`build`)."""

    presets: Tuple[str, ...]
    seeds: Tuple[int, ...]
    f_values: Tuple[float, ...]
    kind: str = "dataset"

    @classmethod
    def build(
        cls,
        presets: Iterable[str],
        seeds: Iterable[int],
        f_values: Iterable[float],
        kind: str = "dataset",
    ) -> "SweepGrid":
        """Canonicalize and validate the axes.

        Deduplicates and sorts each axis (flag order and repetition
        never change the sweep identity), rejects unknown presets and
        kinds, and rejects stress presets outside ``dataset`` kind —
        the experiment/compare pipelines need the in-memory scenario
        the closed-form stress worlds deliberately do not build.
        """
        if kind not in SWEEP_KINDS:
            raise ValueError(
                f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}"
            )
        preset_axis = tuple(sorted(set(presets)))
        seed_axis = tuple(sorted(set(seeds)))
        f_axis = tuple(sorted(set(float(f) for f in f_values)))
        if not preset_axis or not seed_axis or not f_axis:
            raise ValueError("a sweep grid needs at least one value per axis")
        for preset in preset_axis:
            if preset not in SCENARIO_PRESETS and preset not in STRESS_PRESETS:
                known = sorted(SCENARIO_PRESETS) + sorted(STRESS_PRESETS)
                raise ValueError(
                    f"unknown preset {preset!r}; expected one of {known}"
                )
            if preset in STRESS_PRESETS and kind != "dataset":
                raise ValueError(
                    f"stress preset {preset!r} only supports the dataset "
                    "kind (experiment/compare need the in-memory scenario)"
                )
        grid = cls(preset_axis, seed_axis, f_axis, kind)
        ids = [cell.cell_id for cell in grid.cells()]
        if len(set(ids)) != len(ids):
            raise ValueError("f-values collide in cell naming; space them out")
        return grid

    def cells(self) -> List[SweepCell]:
        """Every cell, in canonical (preset, seed, f) order."""
        return [
            SweepCell(preset, seed, f)
            for preset in self.presets
            for seed in self.seeds
            for f in self.f_values
        ]

    def worlds(self) -> List[Tuple[str, int]]:
        """Every distinct (preset, seed) world, in canonical order."""
        return [(preset, seed) for preset in self.presets for seed in self.seeds]


def sweep_identity(grid: SweepGrid, base_config) -> str:
    """The sweep id for a grid and its shared engine configuration.

    16 hex chars of a sha256 over everything that determines every
    cell's bytes; *base_config* is the cell :class:`MapItConfig` with
    ``f`` pinned to 0.0 (each cell substitutes its own f), contributing
    through its canonical frozen-dataclass repr — exactly the scheme
    :func:`repro.robust.journal.run_identity` uses for single runs.
    """
    material = "\n".join(
        (
            "mapit-sweep",
            str(SWEEP_VERSION),
            grid.kind,
            ",".join(grid.presets),
            ",".join(str(seed) for seed in grid.seeds),
            ",".join(repr(f) for f in grid.f_values),
            repr(base_config),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]
