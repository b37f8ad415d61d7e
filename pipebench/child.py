"""The fresh-interpreter side of the pipeline benchmark.

Every timed or traced measurement runs here, in its own interpreter, so
``import repro`` is paid as users pay it.  Each process reports its own
peak RSS (``VmHWM``): ``wait4``'s figure would include the parent's
resident set at the time of the spawn.  The parent (``workloads.py``)
generates the inputs beforehand; this module only consumes them.

Usage: ``python child.py <command> <args...>``; the last stdout line is
one JSON object with the measurement.  Commands:

* ``cli <mapit arguments...>``: the ``mapit`` command, as
  ``python -m repro.cli`` runs it;
* ``setup <workload> <input>``: the program's set-up alone;
* ``stress <config.json> <blocks> <out> <trace>``: fold → passes → write;
* ``serve <dataset> <out> <trace>``: replay a dataset through one daemon;
* ``dense-trace <dataset> <out>``: the serial pipeline, one call per layer;
* ``dense-paths <dataset> <cache> <jobs> <traces> <addresses>``: the
  fused and cache loaders, checked against the expected sizes.

Spans are recorded around calls into each layer's public functions
from this file; nothing inside ``repro`` is instrumented.

Before anything else, every process runs a fixed probe (``host_probe``)
and reports its time as ``probe_s``; the parent subtracts it from the
process's wall time and quotes times at a reference host speed with it
(README.md, "Steadiness").
"""

import time


def host_probe():
    """A fixed pure-Python job, the same on every run and every commit:
    a dict of some 25 MB filled with scattered keys and read back in
    another order, the scattered memory access the pipeline's dicts and
    sets make, with no import.  Returns its seconds.  The peak resident
    set is reset after it, so ``VmHWM`` is the program's own."""
    began = time.perf_counter()
    table = {}
    for index in range(PROBE_ITEMS):
        table[index * 2_654_435_761 % 4_294_967_291] = (index, -index)
    total = 0
    for index in range(PROBE_ITEMS - 1, -1, -7):
        total += table[index * 2_654_435_761 % 4_294_967_291][0]
    del table
    seconds = time.perf_counter() - began
    with open("/proc/self/clear_refs", "w") as clear:
        clear.write("5")
    return seconds


#: the probe's size: about 0.1 s on the reference host
PROBE_ITEMS = 150_000

PROBE_S = host_probe() if __name__ == "__main__" else 0.0
START = time.perf_counter()

import json  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: the serve daemon's default quiesce cadence (``ServeDaemon.quiesce_every``)
QUIESCE_EVERY = 64

#: block framing of the stress input file: a little-endian u64 length
#: before each ``FlatTraces.to_bytes`` block
BLOCK_LENGTH = struct.Struct("<Q")


class Spans:
    """Busy seconds per layer plus exact counts, kept in memory."""

    def __init__(self):
        self.seconds = {}
        self.counts = {}

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` and charge its duration to *name*."""
        began = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(name, time.perf_counter() - began)

    def add(self, name, seconds):
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


def write_result(result, path):
    """Write *result* exactly as ``mapit run --json --output`` does;
    returns the bytes written."""
    text = result.to_json(indent=2) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return len(text.encode())


def infer_traced(spans, mapit, out):
    """``run_mapit_graph`` + write, one span per layer: origins (the
    batched LPM warm over the graph's address universe), passes
    (add/remove/stub/collect), write."""
    from repro.perf.flat import graph_address_universe

    universe = spans.call("origins", graph_address_universe, mapit.engine.graph)
    resolved = spans.call("origins", mapit.engine.prime_origins, universe)
    result = spans.call("passes", mapit.run)
    written = spans.call("write", write_result, result, out)
    spans.count("neighbors.addresses", len(universe))
    spans.count("origins.resolved", resolved)
    spans.count("passes.iterations", result.iterations)
    spans.count("passes.inferences", len(result.inferences) + len(result.uncertain))
    spans.count("write.bytes", written)
    return result


def read_blocks(path):
    """Yield the stress campaign's blocks one at a time from *path*."""
    from repro.perf.flat import FlatTraces

    with open(path, "rb") as handle:
        while header := handle.read(BLOCK_LENGTH.size):
            (size,) = BLOCK_LENGTH.unpack(header)
            yield FlatTraces.from_bytes(handle.read(size))


# ----------------------------------------------------------------------
# set-up: import + mapping datasets + daemon/index construction


def setup_dense(dataset, spans=None):
    import repro.cli  # noqa: F401 - what ``mapit run`` imports
    from repro.io.bundle import load_bundle

    spans = spans or Spans()
    return spans.call("mappings", load_bundle, dataset, skip_traces=True)


def stress_config(path):
    from repro.sim.stress import StressConfig

    return StressConfig(**json.loads(Path(path).read_text()))


def setup_stress(config_path, spans=None):
    from repro.sim.stress import stress_ip2as, stress_org, stress_relationships

    spans = spans or Spans()
    config = stress_config(config_path)
    began = time.perf_counter()
    mappings = (
        stress_ip2as(config),
        stress_org(config),
        stress_relationships(config),
    )
    spans.add("mappings", time.perf_counter() - began)
    return mappings


def setup_serve(dataset, spans=None):
    from repro.io.bundle import load_bundle
    from repro.serve.daemon import ServeDaemon
    from repro.serve.incremental import IncrementalIndex

    spans = spans or Spans()
    bundle = spans.call("mappings", load_bundle, dataset, skip_traces=True)
    index = IncrementalIndex(bundle.ip2as, org=bundle.as2org, rel=bundle.relationships)
    return ServeDaemon(index, format="text", quiesce_every=0)


SETUPS = {"run-dense": setup_dense, "stress-10k": setup_stress, "serve-paper": setup_serve}


def cmd_setup(workload, source):
    SETUPS[workload](source)
    return {"setup_s": time.perf_counter() - START}


# ----------------------------------------------------------------------
# stress: streamed block fold → origins → passes → write


def cmd_stress(config_path, blocks_path, out, trace):
    from repro.core.mapit import MapIt, run_mapit_graph
    from repro.perf.ingest import fold_graph_from_blocks

    spans = Spans()
    ip2as, org, rel = setup_stress(config_path, spans)
    setup_s = time.perf_counter() - START
    began = time.perf_counter()
    if trace:
        graph, stats = spans.call(
            "stream_fold", fold_graph_from_blocks, read_blocks(blocks_path)
        )
        result = infer_traced(spans, MapIt(graph, ip2as, org=org, rel=rel), out)
        spans.count("stream_fold.traces", stats.traces)
        spans.count("stream_fold.bytes", stats.stream_bytes)
        spans.count("stream_fold.peak_block_bytes", stats.peak_block_bytes)
    else:
        graph, stats = fold_graph_from_blocks(read_blocks(blocks_path))
        write_result(run_mapit_graph(graph, ip2as, org=org, rel=rel), out)
    return {
        "setup_s": setup_s,
        "wall_s": time.perf_counter() - began,
        "traces": stats.traces,
        "layers": spans.seconds,
        "counts": spans.counts,
    }


# ----------------------------------------------------------------------
# serve: one daemon, text lines, quiesce after every 64 folds


def cmd_serve(dataset, out, trace):
    spans = Spans()
    daemon = setup_serve(dataset, spans)
    setup_s = time.perf_counter() - START
    source = "traces.txt"
    with open(Path(dataset) / source, errors="replace") as handle:
        lines = handle.readlines()
    refresh = []
    stats = daemon.stats
    index = daemon.index

    def quiesce():
        if trace:
            spans.count("serve.dirty_halves", index.dirty_halves)
        began = time.perf_counter()
        snapshot = daemon.quiesce()
        refresh.append(time.perf_counter() - began)
        if trace:
            spans.count("serve.iterations", snapshot.result.iterations)

    began = time.perf_counter()
    pending = 0
    for line in lines:
        folds = stats["folds"]
        if trace:
            spans.call("serve.ingest", daemon.ingest_entry, line, source)
        else:
            daemon.ingest_entry(line, source)
        pending += stats["folds"] - folds
        if pending >= QUIESCE_EVERY:
            pending = 0
            quiesce()
    if pending or not refresh:
        quiesce()
    replay_s = time.perf_counter() - began
    written = spans.call("write", write_result, daemon.snapshot.result, out)
    wall_s = time.perf_counter() - began
    if trace:
        spans.add("serve.quiesce", sum(refresh))
        spans.count("serve.quiesces", len(refresh))
        from repro.perf.flat import graph_address_universe

        result = daemon.snapshot.result
        spans.count("neighbors.addresses", len(graph_address_universe(index.graph)))
        spans.count("passes.inferences", len(result.inferences) + len(result.uncertain))
        spans.count("write.bytes", written)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "replay_s": replay_s,
        "traces": stats["folds"],
        "refresh_s": refresh,
        "layers": spans.seconds,
        "counts": spans.counts,
    }


# ----------------------------------------------------------------------
# run-dense: the serial pipeline decomposed, and the alternative loaders


def cmd_dense_trace(dataset, out):
    from repro.core.mapit import MapIt
    from repro.graph.neighbors import (
        InterfaceGraph,
        accumulate_neighbors,
        finish_interface_graph,
    )
    from repro.net.special import default_special_registry
    from repro.robust.ingest import ingest_trace_file
    from repro.traceroute.sanitize import sanitize_traces

    spans = Spans()
    bundle = setup_dense(dataset, spans)
    traces, report = spans.call("ingest", ingest_trace_file, Path(dataset) / "traces.txt")
    sanitized = spans.call("sanitize", sanitize_traces, traces)
    is_special = default_special_registry().is_special
    graph = InterfaceGraph()
    seen = set()
    spans.call(
        "neighbors",
        accumulate_neighbors,
        sanitized.traces,
        graph.forward,
        graph.backward,
        seen,
        is_special,
    )
    universe = set(sanitized.all_addresses) | seen
    spans.call("other_sides", finish_interface_graph, graph, seen, universe, is_special)
    mapit = MapIt(graph, bundle.ip2as, org=bundle.as2org, rel=bundle.relationships)
    infer_traced(spans, mapit, out)
    spans.count("ingest.traces", report.parsed)
    spans.count("ingest.malformed", report.malformed)
    spans.count("sanitize.retained", len(sanitized.traces))
    spans.count("sanitize.discarded", sanitized.discarded)
    return {"layers": spans.seconds, "counts": spans.counts}


def cmd_dense_paths(dataset, cache, jobs, traces, addresses):
    """Exits non-zero when the fused graph or the cache entry does not
    hold the dataset's *traces* and *addresses*, or the entry misses."""
    from repro.io.atomic import file_sha256
    from repro.perf.cache import BundleCache
    from repro.perf.flat import graph_address_universe
    from repro.perf.ingest import stream_graph_from_file

    spans = Spans()
    path = Path(dataset) / "traces.txt"
    graph, report, _ = spans.call("fused_load", stream_graph_from_file, path, int(jobs))
    fused = (report.parsed, len(graph_address_universe(graph)))
    if fused != (int(traces), int(addresses)):
        sys.exit(f"fused load: {fused} (traces, addresses), expected {(traces, addresses)}")
    digest = file_sha256(path)
    hit = spans.call("cache_load", BundleCache(cache).load_entry, digest, "text")
    if hit is None:
        sys.exit("cache load: the warm entry missed")
    if hit.parsed != int(traces):
        sys.exit(f"cache load: {hit.parsed} traces, expected {traces}")
    spans.count("cache_load.attempts", 1)
    spans.count("cache_load.hits", 1)
    return {"layers": spans.seconds, "counts": spans.counts}


def cmd_cli(*argv):
    from repro.cli import main

    code = main(list(argv))
    if code:
        sys.exit(code)
    return {}


def peak_rss_mb():
    """This process's own peak resident set (``VmHWM``), in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


COMMANDS = {
    "cli": cmd_cli,
    "setup": cmd_setup,
    "stress": lambda config, blocks, out, trace: cmd_stress(config, blocks, out, trace == "1"),
    "serve": lambda dataset, out, trace: cmd_serve(dataset, out, trace == "1"),
    "dense-trace": cmd_dense_trace,
    "dense-paths": cmd_dense_paths,
}


if __name__ == "__main__":
    measured = COMMANDS[sys.argv[1]](*sys.argv[2:])
    print(json.dumps({**measured, "probe_s": PROBE_S, "peak_rss_mb": peak_rss_mb()}))
