"""Ingestion robustness: corruption rate vs accuracy and load success.

Damages a saved dataset's ``traces.txt`` at increasing line-corruption
rates with the deterministic fault injector (garbled lines, invalid
addresses, null fields, byte flips), then loads it back in lenient
mode and runs MAP-IT on the survivors.  Reported per rate: how many
records were rejected, whether a default error budget (10%) would
admit the load, and the precision of the inferences that survive.
Expected shape: load success flips to no past the budget, while
precision on the surviving traces stays flat — lenient mode loses
coverage, not correctness.
"""

import tempfile
from pathlib import Path

from conftest import publish

from repro import MapItConfig
from repro.io import load_bundle, save_scenario
from repro.robust import ErrorBudgetExceeded
from repro.robust.faults import FaultInjector
from repro.sim.presets import small_scenario

RATES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)
BUDGET = 0.1  # the CLI's default --max-error-rate
SEED = 11


def _precision(inferences, truth):
    observed = [i for i in inferences if i.kind != "indirect"]
    if not observed:
        return 1.0
    correct = sum(1 for i in observed if truth.connected_pair(i.address) == i.pair())
    return correct / len(observed)


def _sweep():
    scenario = small_scenario(seed=SEED)
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        clean = save_scenario(scenario, Path(workdir) / "clean")
        clean_lines = (clean / "traces.txt").read_text().splitlines()
        for rate in RATES:
            injector = FaultInjector(seed=SEED)
            damaged, faults = injector.corrupt_lines(clean_lines, rate)
            (clean / "traces.txt").write_text("\n".join(damaged) + "\n")
            try:
                load_bundle(clean, on_error="lenient", max_error_rate=BUDGET)
                within_budget = True
            except ErrorBudgetExceeded:
                within_budget = False
            bundle = load_bundle(clean, on_error="lenient")
            report = bundle.health.ingest
            assert report.malformed == len(faults)
            result = bundle.run_mapit(MapItConfig(f=0.5))
            rows.append(
                {
                    "corruption_rate": rate,
                    "malformed": report.malformed,
                    "survivors": report.parsed,
                    "load_ok_at_10%_budget": "yes" if within_budget else "no",
                    "precision": round(
                        _precision(result.inferences, scenario.ground_truth), 3
                    ),
                    "inferences": len(result.inferences),
                }
            )
    return rows


def test_ingest_robustness(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    publish(
        "ingest_robustness",
        "Ingestion robustness: corruption rate vs accuracy and load success",
        rows,
    )
    by_rate = {row["corruption_rate"]: row for row in rows}
    assert by_rate[0.0]["malformed"] == 0
    assert by_rate[0.0]["load_ok_at_10%_budget"] == "yes"
    assert by_rate[0.4]["load_ok_at_10%_budget"] == "no"
    # lenient ingestion loses coverage, not correctness: precision on
    # the surviving traces stays high at every corruption level
    for row in rows:
        assert row["precision"] >= 0.85, row
    survivors = [row["survivors"] for row in rows]
    assert survivors == sorted(survivors, reverse=True)
