"""Worker-side sweep execution: one task in, canonical JSON out.

Every sweep task runs inside the supervised fork pool
(:func:`repro.perf.pool.fork_map`), so what crosses the boundary is a
``List[str]``: element 0 is a *meta* record (cache hits, worker
accounting — allowed to vary between runs), elements 1..n are the cell
result documents.  A cell document is a **pure function of (preset,
seed, f, config)** — no timings, no RSS, no cache status — which is
what makes a killed-and-resumed sweep byte-identical to an
uninterrupted one: however a cell's bytes were produced (fresh world or
reused, cache cold or warm, pooled or inline), they are the same bytes.

Task shapes by sweep kind:

* ``dataset`` — one task per cell.  Scenario presets load their
  materialized world through the ``.mapitc`` cache and score against
  ground truth per the manifest's verification ASNs (the ``mapit
  evaluate`` pipeline); stress presets fold their generated shard
  stream (:func:`repro.perf.ingest.fold_graph_from_blocks`) and report
  the streaming accounting instead of scores.
* ``experiment`` / ``compare`` — one task per *world*, covering every
  f-value: the in-memory scenario build dominates, so cells sharing a
  world share it, and the task returns one document per f.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import MapItConfig
from repro.perf.pool import Shard, shared_payload
from repro.sweep.grid import SCENARIO_PRESETS, STRESS_PRESETS, SweepCell

#: payload tuple: (kind, tasks, workdir, cache_dir, stub, remove_rule);
#: a task is (preset, seed, (f, ...))
SweepTask = Tuple[str, int, Tuple[float, ...]]


def cell_config(f: float, stub: bool, remove_rule: str) -> MapItConfig:
    """The engine configuration one cell runs with."""
    return MapItConfig(f=f, enable_stub_heuristic=stub, remove_rule=remove_rule)


def canonical_cell_json(document: Dict[str, Any]) -> str:
    """The one serialization every cell file uses (byte-stable)."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _score_json(score) -> Dict[str, Any]:
    """A Score as sorted JSON-safe fields."""
    return {
        "tp": score.tp,
        "fp": score.fp,
        "fn": score.fn,
        "precision": round(score.precision, 6),
        "recall": round(score.recall, 6),
        "fp_reasons": {
            reason: score.fp_reasons[reason]
            for reason in sorted(score.fp_reasons)
        },
    }


def _dataset_cell(
    cell: SweepCell,
    workdir: str,
    cache_dir,
    stub: bool,
    remove_rule: str,
    meta: Dict[str, Any],
) -> Dict[str, Any]:
    """Score one materialized world at one f (the evaluate pipeline)."""
    from repro.eval.verify import score_bundle
    from repro.io import load_bundle

    world_dir = Path(workdir) / "worlds" / cell.world_id
    bundle = load_bundle(world_dir, jobs=1, cache=cache_dir, graph_only=True)
    if bundle.health.cache_format:
        meta["cache_hits"] += 1
    else:
        meta["cache_misses"] += 1
    result = bundle.run_mapit(cell_config(cell.f, stub, remove_rule))
    scores: Dict[str, Any] = {
        f"AS{asn}": _score_json(score_bundle(bundle, result.inferences, asn))
        for asn in bundle.manifest.get("verification_asns") or []
    }
    return {
        "cell": cell.cell_id,
        "kind": "dataset",
        "preset": cell.preset,
        "seed": cell.seed,
        "f": cell.f,
        "scores": scores,
        "result": result.summary(),
    }


def _stress_cell(
    cell: SweepCell,
    stub: bool,
    remove_rule: str,
    meta: Dict[str, Any],
) -> Dict[str, Any]:
    """Fold one generated stress world at one f, shard by shard."""
    from repro.core.mapit import run_mapit_graph
    from repro.perf.ingest import fold_graph_from_blocks
    from repro.sim.stress import (
        stress_blocks,
        stress_ip2as,
        stress_org,
        stress_relationships,
    )

    config = STRESS_PRESETS[cell.preset](cell.seed)
    graph, stats = fold_graph_from_blocks(stress_blocks(config))
    result = run_mapit_graph(
        graph,
        stress_ip2as(config),
        org=stress_org(config),
        rel=stress_relationships(config),
        config=cell_config(cell.f, stub, remove_rule),
    )
    meta["stress_shards"] += stats.shards
    meta["stress_stream_bytes"] += stats.stream_bytes
    meta["stress_peak_block_bytes"] = max(
        meta["stress_peak_block_bytes"], stats.peak_block_bytes
    )
    return {
        "cell": cell.cell_id,
        "kind": "stress",
        "preset": cell.preset,
        "seed": cell.seed,
        "f": cell.f,
        "world": {"ases": config.as_count, "monitors": config.monitor_count},
        "stream": {
            "shards": stats.shards,
            "traces": stats.traces,
            "retained": stats.retained,
            "discarded": stats.discarded,
            "stream_bytes": stats.stream_bytes,
            "peak_block_bytes": stats.peak_block_bytes,
        },
        "result": result.summary(),
    }


def _experiment_cells(
    kind: str,
    preset: str,
    seed: int,
    f_values: Tuple[float, ...],
    stub: bool,
    remove_rule: str,
) -> List[Dict[str, Any]]:
    """Run every f over one in-memory world (experiment/compare kinds)."""
    from repro.eval.experiment import prepare_experiment
    from repro.sim.scenario import build_scenario

    scenario = build_scenario(SCENARIO_PRESETS[preset](seed))
    experiment = prepare_experiment(scenario)
    documents: List[Dict[str, Any]] = []
    for f in f_values:
        cell = SweepCell(preset, seed, f)
        config = cell_config(f, stub, remove_rule)
        document: Dict[str, Any] = {
            "cell": cell.cell_id,
            "kind": kind,
            "preset": preset,
            "seed": seed,
            "f": f,
        }
        if kind == "experiment":
            result = experiment.run_mapit(config)
            document["scores"] = {
                label: _score_json(score)
                for label, score in experiment.score(result.inferences).items()
            }
            document["result"] = result.summary()
        else:
            from repro.eval.compare import compare_methods

            comparison = compare_methods(experiment, mapit_config=config)
            document["methods"] = {
                method: {
                    label: _score_json(score)
                    for label, score in by_network.items()
                }
                for method, by_network in comparison.scores.items()
            }
        documents.append(document)
    return documents


def cell_worker(shard: Shard) -> List[str]:
    """Run the sweep tasks in *shard* (worker process).

    Returns the meta record followed by one canonical cell document per
    (task, f); the orchestrator's ``on_result`` callback persists each
    document as it lands.
    """
    kind, tasks, workdir, cache_dir, stub, remove_rule = shared_payload()
    start, end = shard
    meta: Dict[str, Any] = {
        "tasks": end - start,
        "cache_hits": 0,
        "cache_misses": 0,
        "stress_shards": 0,
        "stress_stream_bytes": 0,
        "stress_peak_block_bytes": 0,
    }
    documents: List[Dict[str, Any]] = []
    for preset, seed, f_values in tasks[start:end]:
        if kind in ("experiment", "compare"):
            documents.extend(
                _experiment_cells(kind, preset, seed, f_values, stub, remove_rule)
            )
            continue
        for f in f_values:
            cell = SweepCell(preset, seed, f)
            if cell.is_stress:
                documents.append(_stress_cell(cell, stub, remove_rule, meta))
            else:
                documents.append(
                    _dataset_cell(
                        cell, workdir, cache_dir, stub, remove_rule, meta
                    )
                )
    encoded = [json.dumps(meta, sort_keys=True)]
    encoded.extend(canonical_cell_json(document) for document in documents)
    return encoded


def world_worker(shard: Shard) -> List[str]:
    """Materialize the worlds in *shard* as dataset directories.

    The manifest is written last and atomically, so a directory with a
    manifest is complete — a killed build leaves no manifest and the
    resume rebuilds it.  Returns the built world ids.
    """
    from repro.io import save_scenario
    from repro.sim.scenario import build_scenario

    tasks, workdir = shared_payload()
    start, end = shard
    built: List[str] = []
    for preset, seed in tasks[start:end]:
        world_id = f"{preset}-s{seed:04d}"
        directory = Path(workdir) / "worlds" / world_id
        scenario = build_scenario(SCENARIO_PRESETS[preset](seed))
        save_scenario(scenario, directory)
        built.append(world_id)
    return built
