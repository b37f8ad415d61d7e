"""The sweep orchestrator: plan, fan out, checkpoint, aggregate.

One :func:`run_sweep` call drives a whole grid:

1. **Identity.**  The sweep id is a sha256 prefix over the canonical
   grid and base config (:func:`repro.sweep.grid.sweep_identity`); a
   ``--resume`` id that does not match fails loudly with every
   differing field named (:class:`SweepMismatchError`) — the recorded
   plan is read back from the journal of the id the caller gave.
2. **Worlds.**  Dataset-kind scenario cells need materialized worlds;
   missing ones are built across the pool (one task per world,
   manifest-last so a killed build is detectably incomplete), existing
   ones are reused.
3. **Cells.**  Tasks fan across :func:`repro.perf.pool.fork_map` under
   the supervisor, one shard per task.  The ``on_result`` hook makes
   every cell durable the moment it lands: the canonical document is
   written atomically to ``out/cells/<cell_id>.json`` and a ``cell``
   unit (id + content sha256) is appended to the journal.  A resumed
   sweep skips every journaled cell whose file still verifies.
4. **Aggregate.**  Cell files are re-read in canonical grid order and
   combined into ``out/sweep.json`` — reading files rather than
   in-memory results makes the fresh and resumed paths literally the
   same code over the same bytes.

Peak-RSS accounting (``sweep.rss.*``) reads ``ru_maxrss`` at start and
end of the parent process: with ``--jobs 1`` the stress fold runs
inline, so the gauge bounds the streamed fold's parent residency.
"""

from __future__ import annotations

import hashlib
import json
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import MapItConfig
from repro.io.atomic import atomic_write_bytes
from repro.io import dataset_complete
from repro.obs.observer import NULL_OBS, Observability
from repro.perf.pool import fork_map
from repro.robust.journal import RunJournal
from repro.sweep.cells import cell_worker, world_worker
from repro.sweep.grid import (
    SWEEP_VERSION,
    SweepCell,
    SweepGrid,
    sweep_identity,
)


class SweepMismatchError(ValueError):
    """``--resume`` was given an id recorded for a different sweep."""


@dataclass
class SweepPlan:
    """Everything one sweep invocation needs, resolved."""

    grid: SweepGrid
    workdir: Path
    out_dir: Path
    journal_dir: Path
    cache_dir: Optional[Path] = None
    jobs: int = 1
    shard_timeout: Optional[float] = None
    enable_stub_heuristic: bool = True
    remove_rule: str = "majority"
    #: sweep id to resume, or None for a fresh run
    resume: Optional[str] = None

    @property
    def base_config(self) -> MapItConfig:
        """The shared engine config with f pinned (cells substitute)."""
        return MapItConfig(
            f=0.0,
            enable_stub_heuristic=self.enable_stub_heuristic,
            remove_rule=self.remove_rule,
        )


@dataclass
class SweepOutcome:
    """What :func:`run_sweep` hands back to the CLI."""

    sweep_id: str
    out_dir: Path
    completed: int = 0
    skipped: int = 0
    worlds_built: int = 0
    worlds_reused: int = 0
    rows: List[Dict[str, Any]] = field(default_factory=list)


def _rss_kb() -> int:
    """The process's lifetime peak RSS in KB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _plan_payload(plan: SweepPlan) -> Dict[str, Any]:
    """The journaled plan record: the fields identity is made of."""
    return {
        "version": SWEEP_VERSION,
        "kind": plan.grid.kind,
        "presets": list(plan.grid.presets),
        "seeds": list(plan.grid.seeds),
        "f_values": list(plan.grid.f_values),
        "config": repr(plan.base_config),
    }


def _check_resume_identity(plan: SweepPlan, sweep_id: str) -> None:
    """Fail loudly when ``--resume`` names a different sweep.

    Reads the plan record the *given* id journaled and names every
    field that differs from the current invocation, so the error says
    what changed instead of silently restarting (or, worse, silently
    continuing with mixed results).
    """
    if plan.resume == sweep_id:
        return
    recorded_plans = RunJournal(plan.journal_dir, plan.resume).units("plan")
    if not recorded_plans:
        raise SweepMismatchError(
            f"--resume {plan.resume}: unknown sweep id (no journaled plan "
            f"in {plan.journal_dir}; this invocation is sweep {sweep_id})"
        )
    recorded = recorded_plans[-1]
    current = _plan_payload(plan)
    differences = [
        f"{key}: recorded {recorded.get(key)!r} != requested {current[key]!r}"
        for key in current
        if recorded.get(key) != current[key]
    ]
    detail = "; ".join(differences) if differences else "sweep version/layout"
    raise SweepMismatchError(
        f"--resume {plan.resume} does not match this grid and "
        f"configuration (expected sweep id {sweep_id}): {detail}"
    )


def _verified_cells(
    journal: RunJournal, cells_dir: Path
) -> Dict[str, str]:
    """cell_id -> sha256 for journaled cells whose files still verify."""
    verified: Dict[str, str] = {}
    for payload in journal.units("cell"):
        cell_id = payload.get("cell")
        sha = payload.get("sha256")
        if not cell_id or not sha:
            continue
        try:
            data = (cells_dir / f"{cell_id}.json").read_bytes()
        except OSError:
            continue
        if hashlib.sha256(data).hexdigest() == sha:
            verified[cell_id] = sha
    return verified


def _build_worlds(
    plan: SweepPlan,
    outcome: SweepOutcome,
    obs: Observability,
) -> None:
    """Materialize missing scenario worlds (dataset kind only)."""
    if plan.grid.kind != "dataset":
        return
    needed = [
        (preset, seed)
        for preset, seed in plan.grid.worlds()
        if not SweepCell(preset, seed, 0.0).is_stress
    ]
    missing: List[Tuple[str, int]] = []
    for preset, seed in needed:
        world_dir = plan.workdir / "worlds" / f"{preset}-s{seed:04d}"
        if dataset_complete(world_dir):
            outcome.worlds_reused += 1
            obs.inc("sweep.worlds.reused")
        else:
            missing.append((preset, seed))
    if not missing:
        return

    def on_world(index: int, built: List[str]) -> None:
        for world_id in built:
            outcome.worlds_built += 1
            obs.inc("sweep.worlds.built")
            if obs.enabled:
                obs.event("sweep.world", world=world_id)

    with obs.span("sweep.worlds"):
        fork_map(
            world_worker,
            (missing, str(plan.workdir)),
            [(index, index + 1) for index in range(len(missing))],
            plan.jobs,
            timeout=plan.shard_timeout,
            obs=obs,
            on_result=on_world,
        )


def _cell_tasks(
    plan: SweepPlan, pending: List[SweepCell]
) -> List[Tuple[str, int, Tuple[float, ...]]]:
    """Group pending cells into dispatch tasks.

    Dataset-kind cells dispatch individually (per-cell durability at
    its finest); experiment/compare cells group by world, because the
    in-memory scenario build dominates and is shared across f-values.
    """
    if plan.grid.kind == "dataset":
        return [(cell.preset, cell.seed, (cell.f,)) for cell in pending]
    grouped: Dict[Tuple[str, int], List[float]] = {}
    for cell in pending:
        grouped.setdefault((cell.preset, cell.seed), []).append(cell.f)
    return [
        (preset, seed, tuple(sorted(f_values)))
        for (preset, seed), f_values in sorted(grouped.items())
    ]


def run_sweep(plan: SweepPlan, obs: Observability = NULL_OBS) -> SweepOutcome:
    """Run (or resume) one sweep; see the module docstring for the flow."""
    sweep_id = sweep_identity(plan.grid, plan.base_config)
    if plan.resume:
        _check_resume_identity(plan, sweep_id)
    journal = RunJournal(plan.journal_dir, sweep_id, obs=obs)
    cells_dir = plan.out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    # A SIGKILL between atomic_write_bytes' write and rename strands a
    # `<cell>.json.tmp.<pid>` alongside the cells; sweep them so a
    # resumed run's output directory byte-matches an uninterrupted one.
    for stale in sorted(cells_dir.glob("*.json.tmp.*")):
        try:
            stale.unlink()
        except OSError:
            pass

    rss_start = _rss_kb()
    obs.gauge("sweep.rss.start_kb", rss_start)
    all_cells = plan.grid.cells()
    obs.gauge("sweep.cells.total", len(all_cells))

    done: Dict[str, str] = {}
    if plan.resume:
        done = _verified_cells(journal, cells_dir)
        if obs.enabled:
            obs.event(
                "sweep.resume", sweep_id=sweep_id, verified_cells=len(done)
            )
    else:
        journal.append("plan", _plan_payload(plan))
    if obs.enabled:
        obs.event(
            "sweep.start",
            sweep_id=sweep_id,
            kind=plan.grid.kind,
            cells=len(all_cells),
            resumed=bool(plan.resume),
        )

    outcome = SweepOutcome(sweep_id=sweep_id, out_dir=plan.out_dir)
    outcome.skipped = len(done)
    for _ in range(len(done)):
        obs.inc("sweep.cells.skipped")

    _build_worlds(plan, outcome, obs)

    pending = [cell for cell in all_cells if cell.cell_id not in done]
    tasks = _cell_tasks(plan, pending)

    stress_peak_block = 0

    def on_cells(index: int, encoded: List[str]) -> None:
        nonlocal stress_peak_block
        meta = json.loads(encoded[0])
        obs.inc("sweep.cache.hits", meta.get("cache_hits", 0))
        obs.inc("sweep.cache.misses", meta.get("cache_misses", 0))
        obs.inc("sweep.stress.shards", meta.get("stress_shards", 0))
        obs.inc(
            "sweep.stress.stream_bytes", meta.get("stress_stream_bytes", 0)
        )
        stress_peak_block = max(
            stress_peak_block, meta.get("stress_peak_block_bytes", 0)
        )
        for document_text in encoded[1:]:
            cell_id = json.loads(document_text)["cell"]
            data = document_text.encode()
            atomic_write_bytes(cells_dir / f"{cell_id}.json", data)
            sha = hashlib.sha256(data).hexdigest()
            journal.append("cell", {"cell": cell_id, "sha256": sha})
            outcome.completed += 1
            obs.inc("sweep.cells.completed")
            if obs.enabled:
                obs.event("sweep.cell", cell=cell_id, sha256=sha)

    if tasks:
        with obs.span("sweep.cells"):
            fork_map(
                cell_worker,
                (
                    plan.grid.kind,
                    tasks,
                    str(plan.workdir),
                    str(plan.cache_dir) if plan.cache_dir else None,
                    plan.enable_stub_heuristic,
                    plan.remove_rule,
                ),
                [(index, index + 1) for index in range(len(tasks))],
                plan.jobs,
                timeout=plan.shard_timeout,
                obs=obs,
                on_result=on_cells,
            )

    # Aggregate from the files, in canonical order: the fresh and the
    # resumed path both read the same bytes back.
    documents: List[Dict[str, Any]] = []
    for cell in all_cells:
        path = cells_dir / f"{cell.cell_id}.json"
        documents.append(json.loads(path.read_text()))
        if plan.grid.kind == "dataset" and cell.is_stress:
            stream = documents[-1].get("stream", {})
            stress_peak_block = max(
                stress_peak_block, stream.get("peak_block_bytes", 0)
            )
    aggregate = {
        "sweep_id": sweep_id,
        "version": SWEEP_VERSION,
        "kind": plan.grid.kind,
        "grid": {
            "presets": list(plan.grid.presets),
            "seeds": list(plan.grid.seeds),
            "f_values": list(plan.grid.f_values),
        },
        "cells": documents,
    }
    atomic_write_bytes(
        plan.out_dir / "sweep.json",
        (json.dumps(aggregate, sort_keys=True, indent=2) + "\n").encode(),
    )

    if stress_peak_block:
        obs.gauge("sweep.stress.peak_block_bytes", stress_peak_block)
    rss_peak = _rss_kb()
    obs.gauge("sweep.rss.peak_kb", rss_peak)
    if obs.enabled:
        obs.event(
            "sweep.done",
            sweep_id=sweep_id,
            completed=outcome.completed,
            skipped=outcome.skipped,
            rss_start_kb=rss_start,
            rss_peak_kb=rss_peak,
        )
    outcome.rows = [_summary_row(document) for document in documents]
    return outcome


def _summary_row(document: Dict[str, Any]) -> Dict[str, Any]:
    """One human-readable table row per cell for the CLI."""
    row: Dict[str, Any] = {
        "cell": document["cell"],
        "kind": document["kind"],
        "f": document["f"],
    }
    scores = document.get("scores")
    if scores is None and document.get("methods"):
        scores = document["methods"].get("MAP-IT") or next(
            iter(document["methods"].values()), None
        )
    if scores:
        tp = sum(score["tp"] for score in scores.values())
        fp = sum(score["fp"] for score in scores.values())
        fn = sum(score["fn"] for score in scores.values())
        row["TP"] = tp
        row["FP"] = fp
        row["FN"] = fn
        row["precision"] = round(tp / (tp + fp), 3) if tp + fp else 1.0
        row["recall"] = round(tp / (tp + fn), 3) if tp + fn else 1.0
    stream = document.get("stream")
    if stream:
        row["traces"] = stream["traces"]
        row["shards"] = stream["shards"]
        row["stream_mb"] = round(stream["stream_bytes"] / 1e6, 1)
    summary = document.get("result")
    if summary:
        row["inferences"] = summary["inferences"]
    return row
