"""The three workloads: inputs, references, timed loops, checks.

Each workload function generates its inputs from the seed, computes
its reference once (outside timing), makes one untimed warm-up run,
then repeats its timed operations until the next round would overrun
``seconds``.  Every timed or traced operation runs in a fresh
interpreter (``child.py``, which also runs the ``mapit`` CLI) and every
output it writes is checked; a check that fails or a process that exits
non-zero is counted as failed, never retried.  A bounded time is the
median over the run's processes of each one's time at the reference
host speed, set by the probe the process ran first (README.md,
"Steadiness").  README.md says why each workload exists and which
metric each layer should move.
"""

import collections
import dataclasses
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import BLOCK_LENGTH, read_blocks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120

#: set-up samples per run (after one discarded warm-up sample)
SETUP_REPEATS = 7

#: stress-10k campaign size: about a second of fold + passes per
#: process, so that a run holds some 15 processes (README.md, "Steadiness")
STRESS_TRACES = 12_000

#: the monitors of the run-dense world (the dense preset has 24) and of
#: the serve-paper world (the paper preset has 16), so that one
#: operation takes a second or two and a run holds 10 to 20 of them
#: (README.md, "Steadiness")
DENSE_MONITORS = 12
SERVE_MONITORS = 3

#: the run-dense ``--jobs`` value: 2, never more than the host has
JOBS = max(1, min(2, os.cpu_count() or 1))

#: the seed of the dense, paper and stress worlds (the evaluation seed
#: of benchmarks/); ``--seed`` picks the order their traces arrive in.
#: Serve cost differs 2x between worlds of one preset but only ~3%
#: between arrival orders, so a seed-chosen world would swamp any change
#: the benchmark should see.
WORLD_SEED = 7

#: the host probe's time on a quiet reference host (README.md,
#: "Steadiness"); bounded times are quoted at that host speed
PROBE_REFERENCE_S = 0.1

#: one finished operation: its wall time (spawn to exit, less the
#: probe), the time of the host probe it ran first, the process's own
#: peak RSS, and the JSON a ``child.py`` process printed (every timed
#: process is one)
Launch = collections.namedtuple("Launch", "wall_s probe_s peak_rss_mb data")


class Session:
    """One benchmark run's scratch directory and operation tally."""

    def __init__(self, workdir, corrupt_reference=False):
        self.workdir = Path(workdir)
        self.corrupt_reference = corrupt_reference
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._launched = 0

    def path(self, name):
        return self.workdir / name

    def launch(self, label, argv, out=None, check=None):
        """Run one operation to completion in a fresh process.

        Returns a :class:`Launch`, or ``None`` when the process failed
        or *check* rejected the bytes it wrote to *out*.  Its wall time
        leaves out the host probe the process ran first.
        """
        self._launched += 1
        self.attempted += 1
        log = self.path(f"{self._launched:03d}-{label}")
        env = {key: value for key, value in os.environ.items() if not key.startswith("MAPIT_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        with open(f"{log}.out", "wb") as stdout, open(f"{log}.err", "wb") as stderr:
            began = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                # A timeout kills the child, which then counts as failed.
                proc.kill()
                proc.wait()
                if not isinstance(sys.exc_info()[1], subprocess.TimeoutExpired):
                    raise
            wall_s = time.perf_counter() - began
        problem = None
        data = {}
        if proc.returncode != 0:
            tail = Path(f"{log}.err").read_text(errors="replace").strip().splitlines()[-1:]
            problem = f"exit {proc.returncode}: {' '.join(tail)}"
        else:
            data = json.loads(Path(f"{log}.out").read_text().splitlines()[-1])
        if problem is None and check is not None:
            try:
                problem = check(Path(out).read_bytes())
            except (OSError, ValueError, KeyError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
            return None
        probe_s = data["probe_s"]
        return Launch(wall_s - probe_s, probe_s, data["peak_rss_mb"], data)


def repeat(seconds, body):
    """Call *body* at least once, and again while another round of the
    same length still ends within *seconds*."""
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - began + (now - round_began) > seconds:
            return


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(values):
    """The fastest sample (0.0 when empty)."""
    return min(values) if values else 0.0


def percentile(values, share):
    """Nearest-rank percentile of *values* (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def layer_medians(samples):
    """Median per key over a list of ``{name: value}`` dicts (the lower
    median, so counts stay whole numbers)."""
    keys = sorted({key for sample in samples for key in sample})
    return {
        key: statistics.median_low([sample[key] for sample in samples if key in sample])
        for key in keys
    }


class TraceSamples:
    """What the traced rounds of one run measured, one entry per round."""

    def __init__(self):
        self.layers = []
        self.counts = []
        self.coverage = []
        self.overhead = []

    def add(self, layers, counts, untraced_wall, traced_wall, outside=()):
        """Record one traced round: *layers* (busy seconds) and *counts*
        against the untraced wall time of the same round; layers in
        *outside* are not part of that wall (another execution path)."""
        self.layers.append(layers)
        self.counts.append(counts)
        covered = sum(value for name, value in layers.items() if name not in outside)
        self.coverage.append(covered / untraced_wall)
        self.overhead.append(traced_wall - untraced_wall)

    def table(self, names, graph, infer, wall_s=None):
        """The per-layer table: *names* (``.s`` = busy seconds, else a
        count), then the metrics every workload reports, with ``graph.s``
        and ``infer.s`` summing the layers *graph* and *infer*."""
        seconds = layer_medians(self.layers)
        count = layer_medians(self.counts)
        table = {}
        for name in names:
            if name.endswith(".s"):
                value = seconds.get(name[:-2], 0.0)
                note = f"{100 * value / wall_s:.1f}% of wall_raw_s" if wall_s else ""
                table[name] = (value, "s", note)
            else:
                table[name] = (count.get(name, 0), "count", "")
        table["graph.s"] = (sum(seconds.get(n, 0.0) for n in graph), "s", " + ".join(graph))
        table["infer.s"] = (sum(seconds.get(n, 0.0) for n in infer), "s", " + ".join(infer))
        for name in ("neighbors.addresses", "passes.inferences", "passes.iterations"):
            table.setdefault(name, (count.get(name, 0), "count", ""))
        table["trace.coverage"] = (median(self.coverage), "ratio", "layer time / untraced process wall")
        table["trace.overhead_s"] = (median(self.overhead), "s", "traced - untraced wall")
        return table


# ----------------------------------------------------------------------
# references and checks


def oracle_records(graph, ip2as, org, rel, session):
    """The paper-literal oracle's final inferences on *graph*, keyed by
    half; one record is dropped when the self-test asks for a corrupt
    reference."""
    from repro.core.config import MapItConfig
    from repro.diff.harness import oracle_config_for
    from repro.oracle import oracle_run

    result = oracle_run(graph, ip2as, org, rel, oracle_config_for(MapItConfig()))
    records = {
        record.half: (record.local_as, record.remote_as, record.kind, record.uncertain)
        for record in result.confident + result.uncertain
    }
    if session.corrupt_reference and records:
        records.pop(min(records))
    return records


def output_records(data):
    """The inference records of a ``mapit run --json`` output."""
    from repro.net.ipv4 import parse_address

    result = json.loads(data)
    return {
        (parse_address(item["address"]), item["direction"] == "forward"): (
            item["local_as"],
            item["remote_as"],
            item["kind"],
            item["uncertain"],
        )
        for item in result["inferences"] + result["uncertain"]
    }


class BatchCheck:
    """Every output equals the oracle's records, and every output is
    byte-identical to the first one checked (the warm-up run's)."""

    def __init__(self, expected_records):
        self.expected_records = expected_records
        self.first = None

    def __call__(self, data):
        if self.first is None:
            self.first = data
        if output_records(data) != self.expected_records:
            return "inference records differ from the oracle"
        if data != self.first:
            return "output bytes differ from the warm-up run"
        return None


def saved_world(session, config, seed):
    """Build *config*'s world and save it as a dataset, its traces in a
    seed-chosen order of monitors (each monitor's campaign contiguous)."""
    from repro.io.save import save_scenario
    from repro.sim.scenario import build_scenario

    scenario = build_scenario(config)
    campaigns = {}
    for trace in scenario.traces:
        campaigns.setdefault(trace.monitor, []).append(trace)
    monitors = sorted(campaigns)
    random.Random(seed).shuffle(monitors)
    scenario.traces[:] = [trace for monitor in monitors for trace in campaigns[monitor]]
    return save_scenario(scenario, session.path("dataset"))


def graph_size(graph):
    from repro.perf.flat import graph_address_universe

    return len(graph_address_universe(graph))


def setup_samples(session, workload, source):
    """One discarded warm-up set-up, then SETUP_REPEATS timed ones."""
    argv = [sys.executable, CHILD, "setup", workload, str(source)]
    session.launch("setup-warmup", argv)
    samples = []
    for _ in range(SETUP_REPEATS):
        done = session.launch("setup", argv)
        if done is not None:
            samples.append((done.data["setup_s"], done.probe_s))
    return samples


def at_reference(samples):
    """Each ``(seconds, probe_s)`` sample of one process, quoted at the
    reference host speed: its seconds times the reference probe time
    over the time of the probe the same process ran."""
    return [seconds * PROBE_REFERENCE_S / probe_s for seconds, probe_s in samples]


def process_metrics(setup, walls, rss, traces):
    """The end-to-end rows every workload reports, from its timed
    processes' ``(seconds, probe_s)`` set-up and wall samples and peak
    RSS.  The bounded times are medians at the reference host speed;
    the raw rows are the same samples as measured."""
    wall_s = median(at_reference(walls))
    raw_setup = [seconds for seconds, _ in setup]
    raw_walls = [seconds for seconds, _ in walls]
    return {
        "setup_s": (
            median(at_reference(setup)), "s",
            f"median of {len(setup)}, at the reference host speed",
        ),
        "wall_s": (
            wall_s, "s",
            f"spawn to exit less the probe, median of {len(walls)}, at the reference host speed",
        ),
        "setup_raw_s": (
            median(raw_setup), "s", f"as measured, median; fastest {fastest(raw_setup):.4g}"
        ),
        "wall_raw_s": (
            median(raw_walls), "s", f"as measured, median; fastest {fastest(raw_walls):.4g}"
        ),
        "host_speed": (
            median([PROBE_REFERENCE_S / probe_s for _, probe_s in walls]), "ratio",
            f"{PROBE_REFERENCE_S} s / probe time, median of {len(walls)}",
        ),
        "peak_rss_mb": (median(rss), "MB", f"median of {len(rss)}"),
        "traces_per_s": (traces / wall_s if wall_s else 0.0, "1/s", "traces / wall_s"),
    }


# ----------------------------------------------------------------------
# run-dense: the `mapit run` command on the dense preset


def run_dense(session, seed, seconds, trace, scale):
    from repro.graph.neighbors import build_interface_graph
    from repro.io.bundle import load_bundle
    from repro.sim.presets import dense_config, tiny_config
    from repro.traceroute.sanitize import sanitize_traces

    if scale == "full":
        config = dataclasses.replace(dense_config(WORLD_SEED), monitor_count=DENSE_MONITORS)
    else:
        config = tiny_config(WORLD_SEED)
    dataset = saved_world(session, config, seed)
    bundle = load_bundle(dataset)
    report = sanitize_traces(bundle.traces)
    graph = build_interface_graph(report.traces, all_addresses=report.all_addresses)
    check = BatchCheck(
        oracle_records(graph, bundle.ip2as, bundle.as2org, bundle.relationships, session)
    )
    info = {"traces": len(bundle.traces), "addresses": graph_size(graph)}
    del bundle, report, graph

    out = session.path("out.json")
    cache = session.path("cache")
    cli = [sys.executable, CHILD, "cli", "run", str(dataset), "--json", "--output", str(out)]
    # The warm-up fills the page cache, the .mapitc entry the warm path
    # hits, and the first output every later one must equal byte for byte.
    session.launch("warmup", cli + ["--cache", str(cache)], out, check)

    walls = {"serial": [], "jobs": [], "warm": [], "journal": []}
    serial = []
    rss = []
    traced = TraceSamples()
    other_paths = [
        ("jobs", ["--jobs", str(JOBS)]),
        ("warm", ["--cache", str(cache)]),
        ("journal", ["--journal", str(session.path("journal"))]),
    ]

    def timed(path, extra):
        done = session.launch(path, cli + extra, out, check)
        if done is not None:
            walls[path].append(done.wall_s)
            if path == "serial":
                serial.append((done.wall_s, done.probe_s))
                rss.append(done.peak_rss_mb)
        return done


    def traced_round():
        # The other execution paths take one untraced sample each, in
        # the first round, beside the layers (fused_load, cache_load)
        # that should move them.
        while other_paths:
            timed(*other_paths.pop(0))
        plain = timed("serial", [])
        pipeline = session.launch(
            "traced", [sys.executable, CHILD, "dense-trace", str(dataset), str(out)], out, check
        )
        paths = session.launch(
            "paths",
            [
                sys.executable, CHILD, "dense-paths", str(dataset), str(cache), str(JOBS),
                str(info["traces"]), str(info["addresses"]),
            ],
        )
        if plain is None or pipeline is None or paths is None:
            return
        traced.add(
            {**pipeline.data["layers"], **paths.data["layers"]},
            {**pipeline.data["counts"], **paths.data["counts"]},
            plain.wall_s,
            pipeline.wall_s,
            outside=("fused_load", "cache_load"),
        )

    if not trace:
        setup = setup_samples(session, "run-dense", dataset)
        repeat(seconds, lambda: timed("serial", []))
        return info, process_metrics(setup, serial, rss, info["traces"])
    repeat(seconds, traced_round)
    table = traced.table(
        [
            "ingest.s", "mappings.s", "sanitize.s", "neighbors.s", "other_sides.s",
            "origins.s", "passes.s", "write.s", "fused_load.s", "cache_load.s",
            "ingest.traces", "ingest.malformed", "sanitize.retained",
            "sanitize.discarded", "neighbors.addresses", "origins.resolved",
            "passes.iterations", "passes.inferences", "write.bytes",
            "cache_load.attempts", "cache_load.hits",
        ],
        graph=("ingest", "sanitize", "neighbors", "other_sides"),
        infer=("origins", "passes"),
        wall_s=median(walls["serial"]),
    )
    table["fused_load.s"] = table["fused_load.s"][:2] + (f"--jobs {JOBS} path",)
    table["cache_load.s"] = table["cache_load.s"][:2] + ("--cache warm path",)
    attempts = table.pop("cache_load.attempts")[0]
    hits = table.pop("cache_load.hits")[0]
    table["cache_load.hit_ratio"] = (hits / attempts if attempts else 0.0, "ratio", "")
    for path, note in (
        ("jobs", f"--jobs {JOBS}"), ("warm", "--cache, warm entry"), ("journal", "--journal, fresh")
    ):
        table[f"{path}_wall_s"] = (
            fastest(walls[path]), "s", f"untraced {note}; n={len(walls[path])}, unbounded"
        )
    return info, table


def traced_pair(child, traced):
    """One untraced and one traced run of a ``child.py`` workload."""
    plain = child("run", "0")
    spans = child("traced", "1")
    if plain is not None and spans is not None:
        traced.add(spans.data["layers"], spans.data["counts"], plain.wall_s, spans.wall_s)


# ----------------------------------------------------------------------
# stress-10k: streamed block fold → passes → write, no text


def run_stress(session, seed, seconds, trace, scale):
    from repro.perf.flat import pack_traces
    from repro.perf.ingest import fold_graph_from_blocks
    from repro.sim.presets import stress_config, stress_smoke_config
    from repro.sim.stress import stress_ip2as, stress_org, stress_relationships, stress_traces

    if scale == "full":
        config = dataclasses.replace(stress_config(WORLD_SEED), trace_count=STRESS_TRACES)
    else:
        config = stress_smoke_config(WORLD_SEED)
    config_path = session.path("stress.json")
    config_path.write_text(json.dumps(dataclasses.asdict(config)))
    traces = [trace for shard in stress_traces(config) for trace in shard]
    random.Random(seed).shuffle(traces)
    blocks = session.path("blocks.bin")
    with open(blocks, "wb") as handle:
        for start in range(0, len(traces), config.shard_size):
            data = pack_traces(traces[start : start + config.shard_size]).to_bytes()
            handle.write(BLOCK_LENGTH.pack(len(data)))
            handle.write(data)
    del traces
    graph, stats = fold_graph_from_blocks(read_blocks(blocks))
    check = BatchCheck(
        oracle_records(
            graph, stress_ip2as(config), stress_org(config), stress_relationships(config), session
        )
    )
    info = {"traces": stats.traces, "addresses": graph_size(graph)}
    del graph

    out = session.path("out.json")

    def child(label, traced):
        argv = [sys.executable, CHILD, "stress", str(config_path), str(blocks), str(out), traced]
        return session.launch(label, argv, out, check)

    child("warmup", "0")
    walls, rss, setup = [], [], []
    traced = TraceSamples()

    def e2e_round():
        done = child("run", "0")
        if done is not None:
            setup.append((done.data["setup_s"], done.probe_s))
            walls.append((done.wall_s, done.probe_s))
            rss.append(done.peak_rss_mb)

    if trace:
        repeat(seconds, lambda: traced_pair(child, traced))
        return info, traced.table(
            [
                "mappings.s", "stream_fold.s", "origins.s", "passes.s", "write.s",
                "stream_fold.traces", "stream_fold.bytes", "stream_fold.peak_block_bytes",
                "origins.resolved", "passes.iterations", "passes.inferences",
            ],
            graph=("stream_fold",),
            infer=("origins", "passes"),
        )
    repeat(seconds, e2e_round)
    return info, process_metrics(setup, walls, rss, info["traces"])


# ----------------------------------------------------------------------
# serve-paper: text lines through one ServeDaemon, closed loop


def run_serve(session, seed, seconds, trace, scale):
    from repro import run_mapit
    from repro.graph.neighbors import build_interface_graph
    from repro.io.bundle import load_bundle
    from repro.robust.ingest import ingest_trace_file
    from repro.sim.presets import paper_config, small_config
    from repro.traceroute.sanitize import sanitize_traces

    if scale == "full":
        config = dataclasses.replace(paper_config(WORLD_SEED), monitor_count=SERVE_MONITORS)
    else:
        config = small_config(WORLD_SEED)
    dataset = saved_world(session, config, seed)
    traces, _ = ingest_trace_file(dataset / "traces.txt")
    bundle = load_bundle(dataset, skip_traces=True)
    reference = run_mapit(traces, bundle.ip2as, org=bundle.as2org, rel=bundle.relationships)
    expected = (reference.to_json(indent=2) + "\n").encode()
    if session.corrupt_reference:
        expected += b" "
    report = sanitize_traces(traces)
    graph = build_interface_graph(report.traces, all_addresses=report.all_addresses)
    info = {"traces": len(traces), "addresses": graph_size(graph)}
    del traces, bundle, reference, report, graph

    def check(data):
        if data != expected:
            return "final snapshot differs from the batch run"
        return None

    out = session.path("out.json")

    def child(label, traced):
        argv = [sys.executable, CHILD, "serve", str(dataset), str(out), traced]
        return session.launch(label, argv, out, check)

    walls, rates, refresh, rss, setup = [], [], [], [], []
    traced = TraceSamples()

    def e2e_round():
        done = child("replay", "0")
        if done is not None:
            setup.append((done.data["setup_s"], done.probe_s))
            walls.append((done.wall_s, done.probe_s))
            rates.append(done.data["traces"] / done.data["replay_s"])
            refresh.extend(done.data["refresh_s"])
            rss.append(done.peak_rss_mb)

    # The warm-up for this workload is a discarded set-up: the dataset
    # was just written, so its pages are already cached.
    session.launch("warmup", [sys.executable, CHILD, "setup", "serve-paper", str(dataset)])
    if trace:
        repeat(seconds, lambda: traced_pair(child, traced))
        table = traced.table(
            [
                "serve.ingest.s", "serve.quiesce.s", "mappings.s", "write.s",
                "serve.quiesces", "serve.dirty_halves", "serve.iterations",
            ],
            graph=("serve.ingest",),
            infer=("serve.quiesce",),
        )
        table["passes.iterations"] = table["serve.iterations"][:2] + ("summed over quiesces",)
        return info, table
    repeat(seconds, e2e_round)
    beyond = sum(1 for value in refresh if value > percentile(refresh, 0.95))
    table = process_metrics(setup, walls, rss, info["traces"])
    table["traces_per_s"] = (
        median(rates), "1/s", f"replay, quiesces included; median of {len(rates)}"
    )
    table["refresh_ms_p50"] = (1000 * median(refresh), "ms", f"n={len(refresh)} quiesces")
    table["refresh_ms_p95"] = (
        1000 * percentile(refresh, 0.95), "ms", f"n={len(refresh)}, {beyond} beyond"
    )
    return info, table


WORKLOADS = {
    "run-dense": run_dense,
    "stress-10k": run_stress,
    "serve-paper": run_serve,
}
