"""Shared fixtures: a small deterministic scenario, an on-disk bundle
factory, and the paper's worked examples (Fig 2/3 neighborhood of
Internet2)."""

from __future__ import annotations

import shutil

import pytest

from repro.bgp.ip2as import IP2AS
from repro.eval.experiment import Experiment, prepare_experiment
from repro.sim.presets import SCENARIO_PRESETS, small_scenario
from repro.sim.scenario import Scenario, build_scenario
from repro.traceroute.parse import parse_text_traces


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    """One small synthetic world shared by integration-style tests."""
    return small_scenario(seed=42)


@pytest.fixture(scope="session")
def tmp_bundle(tmp_path_factory):
    """Factory for on-disk dataset bundles: ``tmp_bundle(seed=3)``.

    Builds what ``mapit simulate`` would write (scenario + hostnames +
    manifest) and memoizes it per ``(seed, scale, hostnames)`` for the
    whole session — simulation dominates the cost, so tests needing the
    same dataset share one build.  Tests that *mutate* the dataset must
    pass ``copy=True`` to get a private copy of the cached original.
    """
    built = {}

    def factory(seed=3, scale="small", hostnames=True, copy=False):
        key = (seed, scale, hostnames)
        if key not in built:
            from repro.io import save_scenario

            scn = build_scenario(SCENARIO_PRESETS[scale](seed))
            names = None
            if hostnames:
                from repro.dns.naming import generate_hostnames

                names = generate_hostnames(
                    scn.network, scn.ground_truth, scn.tier1_asns[:2], seed=seed
                )
            root = tmp_path_factory.mktemp(f"bundle-{scale}-{seed}") / "ds"
            built[key] = save_scenario(scn, root, hostnames=names)
        if copy:
            dest = tmp_path_factory.mktemp("bundle-copy") / "ds"
            shutil.copytree(built[key], dest)
            return dest
        return built[key]

    return factory


@pytest.fixture()
def refuse_unpickling(monkeypatch):
    """Make ``pickle.load``, ``pickle.loads`` and ``pickle.Unpickler``
    record their call and raise; returns the record of calls.

    The fork pool is unaffected: ``multiprocessing`` bound its own
    reference to ``pickle.loads`` when it was imported.
    """
    import pickle

    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("bytes read from disk were unpickled")

    for name in ("load", "loads", "Unpickler"):
        monkeypatch.setattr(pickle, name, refuse)
    return calls


@pytest.fixture(scope="session")
def experiment(scenario) -> Experiment:
    """The prepared experiment over the shared scenario."""
    return prepare_experiment(scenario)


@pytest.fixture()
def fig2_ip2as() -> IP2AS:
    """IP-to-AS mappings for the paper's Fig 2 neighborhood."""
    return IP2AS.from_pairs(
        [
            ("109.105.98.0/24", 2603),   # NORDUnet
            ("198.71.44.0/22", 11537),   # Internet2
            ("199.109.5.0/24", 3754),    # NYSERNet
            ("205.233.255.0/24", 10466), # MAGPI-ish
            ("216.249.136.0/24", 237),   # Merit-ish
            ("192.73.48.0/24", 3807),    # U. Montana
        ]
    )


@pytest.fixture()
def fig2_traces():
    """Traces reproducing the interface neighborhoods of Fig 2/3.

    109.105.98.10 is a NORDUnet-numbered ingress on an Internet2
    router; its forward neighbors are dominated by AS11537, with
    199.109.5.1 (NYSERNet-numbered, on the AS3754 side of another
    Internet2 link) also appearing after it.
    """
    lines = [
        "m1|205.233.255.99|109.105.98.10 198.71.46.180 205.233.255.36",
        "m1|216.249.136.99|109.105.98.10 198.71.46.180 216.249.136.197",
        "m2|205.233.255.99|198.71.45.236 198.71.46.180 205.233.255.36",
        "m1|199.109.5.99|109.105.98.10 199.109.5.1 199.109.5.99",
        "m2|199.109.5.99|109.105.98.10 199.109.5.1 199.109.5.88",
        "m1|199.109.5.77|109.105.98.10 198.71.45.2",
    ]
    return list(parse_text_traces(lines))
