"""Command-line interface.

Six subcommands cover the paper's released-tool workflow plus the
reproduction experiments:

* ``mapit simulate`` — generate a synthetic dataset directory;
* ``mapit run`` — run MAP-IT over a dataset directory (real or
  synthetic) and print/write the inferred inter-AS link interfaces;
* ``mapit serve`` — long-running incremental daemon: tail a trace
  stream, re-infer only the dirty region at each quiesce, answer
  queries over HTTP (docs/SERVE.md);
* ``mapit evaluate`` — run and score against the directory's ground
  truth, per verification network;
* ``mapit experiment`` — regenerate one of the paper's tables/figures
  (``stats``, ``fig6``, ``fig7``, ``fig8``, ``table1``) on a preset
  scenario;
* ``mapit explain`` — why was (or wasn't) an interface inferred;
* ``mapit report`` — a human-readable summary of a run;
* ``mapit inspect-trace`` — summarize a ``--trace`` JSONL file
  (per-pass deltas, convergence curve, slowest spans).

``run``, ``evaluate``, and ``experiment`` accept the observability
flags ``--trace FILE``, ``--metrics FILE``, and ``--profile`` (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro import MapItConfig
from repro.io import find_traces, load_bundle, save_scenario
from repro.io.atomic import atomic_write_lines
from repro.robust.errors import ErrorBudgetExceeded
from repro.robust.supervise import ShardDeadlineExhausted

#: the scenario presets `simulate`/`experiment` accept; their factories
#: (repro.sim.presets) load only in the commands that build one
_PRESETS = ("dense", "paper", "small")
#: every preset `mapit sweep` accepts: scenario worlds plus the
#: shard-generated stress tiers (repro.sweep.grid holds the registries)
_SWEEP_PRESETS = (
    "tiny", "small", "paper", "dense", "stress-smoke", "stress", "stress-large"
)

#: exit code for an ingest whose malformed fraction exceeded the budget
EXIT_BUDGET_EXCEEDED = 3
#: exit code when a shard missed its deadline on every attempt,
#: including inline execution (the timeout(1) convention)
EXIT_SHARD_TIMEOUT = 124
#: exit code for SIGINT/SIGTERM (128 + SIGINT), after clean teardown
EXIT_INTERRUPTED = 130

_EPILOG = """\
exit codes (docs/CLI.md has the full contract table):
  0    success
  1    unexpected internal error (uncaught exception)
  2    usage or data error (missing ground truth, no verification ASNs,
       unreadable trace file, --resume id mismatch — run or sweep,
       negative --jobs, a --shard-timeout not > 0)
  3    ingest error budget exceeded: under --on-error lenient/quarantine,
       more than --max-error-rate of the records were malformed (strict
       mode exits 3 on the first malformed record; serve counts shed
       lines against the same budget)
  124  a shard exceeded --shard-timeout on every attempt, including the
       final inline one
  130  interrupted (SIGINT/SIGTERM); workers are terminated promptly,
       and a serve daemon drains its queue, quiesces, and writes a
       final checkpoint before exiting

serve (incremental daemon; see docs/SERVE.md):
  mapit serve DATASET --follow FILE [--http PORT] [--socket PATH]
                  tail FILE into the inference state; each quiesce is
                  byte-identical to `mapit run` over the traces so far
  mapit serve DATASET --follow FILE --once --json --output F
                  batch-equivalence mode: fold to end-of-file and emit
                  exactly what `mapit run --json --output F` would

--on-error semantics (simulate/run/evaluate/explain/report):
  strict      abort on the first malformed record (default)
  lenient     skip malformed records, count them in the health summary
  quarantine  like lenient, and write rejects to <dataset>/quarantine/

observability (run/evaluate/experiment):
  --trace FILE    stream JSONL events (deterministic: no wall-clock
                  timestamps); summarize with `mapit inspect-trace FILE`
  --metrics FILE  write the counters/gauges/timers registry as JSON
  --profile       add span timing events (dur_ms) to the trace

sweep (grid orchestration; see docs/CLI.md and docs/PERFORMANCE.md):
  mapit sweep WORKDIR --preset paper --seed 0 --seed 1 --f 0.1 --f 0.5
                  expand the (preset, seed, f) grid, fan the cells across
                  the worker pool, checkpoint each completed cell in the
                  journal; re-run with --resume SWEEP_ID after a kill and
                  the per-cell results are byte-identical
  mapit sweep WORKDIR --preset stress --jobs 1
                  stress tier: generate a 10k-AS world shard-by-shard
                  (never fully resident) and fold it streaming

performance (see docs/PERFORMANCE.md):
  --jobs N        run/explain/report: shard parsing and graph
                  construction across N worker processes; sweep: run
                  grid cells in parallel (default $MAPIT_JOBS or 1);
                  results identical. N=0 (or MAPIT_JOBS=0) means all
                  cores; negative N is a usage error (exit 2)
  --cache DIR     run/evaluate/explain/report/sweep/serve: reuse the
                  folded graph stored in DIR when the source file's
                  sha256 matches (default $MAPIT_CACHE or off)
  --no-cache      always parse from source
  --shard-timeout SECONDS
                  run/explain/report/sweep: per-shard deadline (> 0);
                  late shards are retried and degraded to inline
                  execution (default $MAPIT_SHARD_TIMEOUT or none;
                  docs/ROBUSTNESS.md)

resilience (run; see docs/ROBUSTNESS.md):
  --journal DIR   keep the run's folded-graph cache entry in DIR
                  (default $MAPIT_JOURNAL or off)
  --resume ID     re-run the passes over the graph cached in DIR;
                  output is byte-identical to an uninterrupted run
"""


def _print_rows(rows: Iterable[Dict], stream=None) -> None:
    """Render dict rows as an aligned text table."""
    stream = stream or sys.stdout
    rows = list(rows)
    if not rows:
        print("(no rows)", file=stream)
        return
    headers = list(rows[0].keys())
    widths = {
        header: max(len(str(header)), *(len(str(row.get(header, ""))) for row in rows))
        for header in headers
    }
    line = "  ".join(str(header).ljust(widths[header]) for header in headers)
    print(line, file=stream)
    print("-" * len(line), file=stream)
    for row in rows:
        print(
            "  ".join(str(row.get(header, "")).ljust(widths[header]) for header in headers),
            file=stream,
        )


def _mapit_config(args) -> MapItConfig:
    return MapItConfig(
        f=args.f,
        enable_stub_heuristic=not args.no_stub_heuristic,
        remove_rule=args.remove_rule,
    )


def _add_robust_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--on-error",
        choices=("strict", "lenient", "quarantine"),
        default="strict",
        help=(
            "malformed-record policy: strict aborts on the first bad record, "
            "lenient skips and counts them, quarantine also writes rejects "
            "to <dataset>/quarantine/"
        ),
    )
    parser.add_argument(
        "--max-error-rate",
        type=float,
        default=0.1,
        metavar="FRACTION",
        help=(
            "abort when more than this fraction of records is malformed "
            "(lenient/quarantine modes; default 0.1)"
        ),
    )


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="FILE",
        help="stream trace events to FILE as JSON lines (see inspect-trace)",
    )
    group.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the metrics registry (counters/gauges/timers) to FILE as JSON",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="record span timings into the metrics and the trace",
    )


def _jobs_type(text: str) -> int:
    """argparse type for ``--jobs``: non-negative int, 0 = all cores.

    Negative values are a usage error (exit 2) rather than a silent
    clamp — a typo like ``--jobs -4`` should not quietly serialize.
    """
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = all cores), got {value}"
        )
    return value


def _seconds_type(text: str) -> float:
    """argparse type for ``--shard-timeout`` and serve's
    ``--poll-interval``: finite seconds, > 0.

    Zero, a negative or a non-finite value is a usage error (exit 2),
    not a traceback from the pool (``SIGALRM`` cannot arm an infinite
    timer), a silent no-op, or an idle daemon that spins (a wait of
    zero or less returns at once).
    """
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be > 0 seconds and finite, got {text}")
    return value


def _bounded_int_type(low: int, high: Optional[int] = None):
    """argparse type: an int in ``[low, high]``; anything else is a
    usage error (exit 2) naming the flag (serve's cadences, queue limit
    and port)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"between {low} and {high}" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _add_perf_options(parser: argparse.ArgumentParser, shards: bool = True) -> None:
    """The performance group: ``--cache``/``--no-cache`` always, and
    ``--jobs``/``--shard-timeout`` only for commands that shard work
    (*shards*)."""
    group = parser.add_argument_group("performance")
    if shards:
        group.add_argument(
            "--jobs",
            type=_jobs_type,
            default=None,
            metavar="N",
            help=(
                "shard trace parsing and graph construction across N worker "
                "processes (results are identical; 0 = all cores; default "
                "$MAPIT_JOBS or 1)"
            ),
        )
    group.add_argument(
        "--cache",
        metavar="DIR",
        help=(
            "cache the folded graph in DIR keyed by the traces file's sha256; "
            "a verified hit skips parsing and folding (default $MAPIT_CACHE "
            "or off)"
        ),
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache and $MAPIT_CACHE; always parse from source",
    )
    if shards:
        group.add_argument(
            "--shard-timeout",
            type=_seconds_type,
            default=None,
            metavar="SECONDS",
            help=(
                "per-shard deadline for pooled work; late shards are retried "
                "and finally run inline (default $MAPIT_SHARD_TIMEOUT or none)"
            ),
        )


def _missing_journal(journal_dir: Optional[str], *flags) -> bool:
    """Whether one of *flags*, ``(name, value)`` pairs of options that
    need a journal, is set without one; prints the usage error (the
    command then exits 2)."""
    if journal_dir:
        return False
    for name, value in flags:
        if value:
            print(f"error: {name} requires --journal (or $MAPIT_JOURNAL)", file=sys.stderr)
            return True
    return False


def _cache_dir(args) -> Optional[str]:
    """The cache directory from ``--cache``/``--no-cache`` and env."""
    if args.no_cache:
        return None
    return args.cache or os.environ.get("MAPIT_CACHE") or None


def _perf_settings(args):
    """Resolve (jobs, cache_dir, shard_timeout) from flags and env
    (``$MAPIT_SHARD_TIMEOUT`` is read where a pool starts,
    :func:`repro.perf.pool.fork_map`)."""
    from repro.perf.pool import resolve_jobs

    return resolve_jobs(args.jobs), _cache_dir(args), args.shard_timeout


def _build_obs(args):
    """An Observability handle for the parsed flags, or None when unused.

    CLI traces are written without wall-clock timestamps so the same
    dataset and flags always produce a byte-identical file; ``--profile``
    adds the (non-deterministic) ``dur_ms`` span events.
    """
    if not (args.trace or args.metrics or args.profile):
        return None
    from repro.obs import Metrics, Observability, Tracer

    tracer = Tracer.to_file(args.trace, timestamps=False) if args.trace else None
    metrics = Metrics() if (args.metrics or args.profile) else None
    return Observability(tracer=tracer, metrics=metrics, profile=args.profile)


def _finish_obs(obs, args) -> None:
    """Write the metrics file (if requested) and close the trace sink."""
    if obs is None:
        return
    if args.metrics and obs.metrics is not None:
        obs.metrics.write(args.metrics)
    obs.close()


def _load_bundle_checked(args, obs=None):
    """Load the dataset's graph under the CLI's robustness and perf flags.

    Prints the ingest health summary to stderr; returns None (caller
    exits with EXIT_BUDGET_EXCEEDED) when the error budget is blown.
    Every command loads through the fused loader, sharded by
    ``--jobs`` where the command has it (``run``, ``explain``,
    ``report``); ``evaluate`` has none and loads as one inline shard.
    """
    from repro.obs import NULL_OBS

    if hasattr(args, "jobs"):
        jobs, cache, shard_timeout = _perf_settings(args)
    else:
        jobs, cache, shard_timeout = 1, _cache_dir(args), None
    try:
        bundle = load_bundle(
            args.dataset,
            on_error=args.on_error,
            max_error_rate=args.max_error_rate,
            obs=obs if obs is not None else NULL_OBS,
            jobs=jobs,
            cache=cache,
            shard_timeout=shard_timeout,
            graph_only=True,
        )
    except ErrorBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    for line in bundle.health.summary_lines():
        print(line, file=sys.stderr)
    return bundle


def _emit_result(result, output: Optional[str], as_json: bool) -> None:
    """Write a result the way ``mapit run`` always has.

    ``mapit serve --once`` shares this writer, which is what makes the
    serve-vs-batch equivalence a *byte* identity: both commands produce
    their output through the very same code path.  An *output* file is
    replaced atomically once all of it is encoded, so an interrupted
    write leaves the previous file whole.
    """
    if as_json:
        lines = [result.to_json(indent=2)]
    else:
        lines = [str(inference) for inference in result.inferences]
        if result.uncertain:
            lines.append("# uncertain inferences:")
            lines.extend(f"# {inference}" for inference in result.uncertain)
    if output:
        atomic_write_lines(output, lines)
    else:
        for line in lines:
            print(line)


def _print_result_summary(result) -> None:
    summary = result.summary()
    print(
        f"{summary['inferences']} inferences on {summary['interfaces']} interfaces "
        f"({summary['as_links']} AS links, {summary['uncertain']} uncertain, "
        f"{summary['iterations']} iterations)",
        file=sys.stderr,
    )


def _add_mapit_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--f", type=float, default=0.5, help="Alg 2 threshold f")
    parser.add_argument(
        "--no-stub-heuristic",
        action="store_true",
        help="disable the Alg 4 low-visibility stub heuristic",
    )
    parser.add_argument(
        "--remove-rule",
        choices=("majority", "add_rule"),
        default="majority",
        help="remove-step test (section 4.5 prose vs Alg 3 literal)",
    )


def _preset_scenario(name: str, seed: int):
    from repro.sim.presets import SCENARIO_PRESETS
    from repro.sim.scenario import build_scenario

    return build_scenario(SCENARIO_PRESETS[name](seed))


def cmd_simulate(args) -> int:
    scenario = _preset_scenario(args.scale, args.seed)
    hostnames = None
    if not args.no_hostnames:
        from repro.dns.naming import generate_hostnames

        hostnames = generate_hostnames(
            scenario.network,
            scenario.ground_truth,
            scenario.tier1_asns[:2],
            seed=args.seed,
        )
    root = save_scenario(scenario, args.output, hostnames=hostnames)
    print(f"wrote {len(scenario.traces)} traces and datasets to {root}")
    # Re-ingest what was just written under the selected policy: a
    # cheap end-to-end check that the dataset is loadable, with the
    # same health summary the run/evaluate commands print.
    from repro.robust.errors import ErrorBudget
    from repro.robust.ingest import ingest_trace_file

    try:
        _, report = ingest_trace_file(
            find_traces(root),
            mode=args.on_error,
            budget=ErrorBudget(args.max_error_rate),
        )
    except ErrorBudgetExceeded as exc:  # pragma: no cover - fresh writes are clean
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    if args.describe:
        from repro.sim.describe import describe_lines

        for line in describe_lines(scenario.graph, scenario.network):
            print(f"  {line}")
    return 0


def cmd_run(args) -> int:
    journal_dir = args.journal or os.environ.get("MAPIT_JOURNAL") or None
    if _missing_journal(journal_dir, ("--resume", args.resume)):
        return 2
    if journal_dir and not args.no_cache and args.cache is None:
        # The journal directory holds the run's folded-graph cache
        # entry: a resume is a run whose load hits it.
        args.cache = os.environ.get("MAPIT_CACHE") or journal_dir
    obs = _build_obs(args)
    try:
        bundle = _load_bundle_checked(args, obs=obs)
        if bundle is None:
            return EXIT_BUDGET_EXCEEDED
        config = _mapit_config(args)
        if journal_dir:
            from repro.robust.journal import run_identity
            from repro.traceroute.parse import trace_format_for_path

            # The load hashed the traces file already (cache key,
            # manifest check); the run id reuses that digest.
            traces = Path(args.dataset) / bundle.health.ingest.source
            run_id = run_identity(
                bundle.health.digest(traces),
                config,
                args.on_error,
                trace_format_for_path(traces.name),
            )
            if args.resume and args.resume != run_id:
                print(
                    f"error: --resume {args.resume} does not match this "
                    f"dataset and configuration (expected run id {run_id})",
                    file=sys.stderr,
                )
                return 2
            print(f"journal: run {run_id} in {journal_dir}", file=sys.stderr)
        result = bundle.run_mapit(config, obs=obs)
    finally:
        _finish_obs(obs, args)
    _emit_result(result, args.output, args.json)
    _print_result_summary(result)
    return 0


def _serve_warm_start(
    daemon: "ServeDaemon", traces_path: Path, cache_dir, health
) -> None:
    """Fold the dataset's own traces file into a serve daemon.

    A fresh session — nothing folded, no offset for the file — loads it
    the way ``mapit run --cache`` does (the graph loader at one shard,
    under the daemon's ingest mode and error budget: a verified
    ``.mapitc`` hit keyed by the digest the dataset load already took
    in *health*, else a parse that quarantines its rejects and stores
    the entry when clean), records its ingest report in *health* as
    ``mapit run``'s load does, and adopts the fold as its warm base.  A
    resumed session replays the file's tail, as every followed file
    resumes.
    """
    from repro.io.bundle import _load_graph
    from repro.serve.sources import FollowSource, file_extent

    name = str(traces_path)
    if daemon.stats_view()["folds"] or name in daemon.offsets:
        FollowSource(traces_path, offset=daemon.offsets.get(name, 0)).replay(daemon)
        return
    # measured before the load: a line appended meanwhile is re-read
    # by a follow of the file, never skipped (folds are idempotent)
    offset, lines = file_extent(traces_path)
    _, report, fold = _load_graph(
        traces_path,
        mode=daemon.on_error,
        budget=daemon.budget,
        quarantine_dir=None,
        obs=daemon.obs,
        jobs=1,
        cache=cache_dir,
        shard_timeout=None,
        health=health,
    )
    health.record_ingest(traces_path.name, report)
    daemon.adopt(fold, report, name, offset, lines)


def cmd_serve(args) -> int:
    import signal
    import threading
    from pathlib import Path

    from repro.obs import NULL_OBS
    from repro.robust.errors import ErrorBudget
    from repro.robust.journal import RunJournal
    from repro.serve.api import QueryAPI, ServeHTTPServer
    from repro.serve.checkpoint import serve_run_identity
    from repro.serve.daemon import ServeDaemon
    from repro.serve.incremental import IncrementalIndex
    from repro.serve.sources import FollowSource, SocketSource
    from repro.traceroute.parse import TraceParseError, trace_format_for_path

    journal_dir = args.journal or os.environ.get("MAPIT_JOURNAL") or None
    if _missing_journal(
        journal_dir, ("--resume", args.resume), ("--checkpoint-every", args.checkpoint_every)
    ):
        return 2
    obs = _build_obs(args)
    handle = obs if obs is not None else NULL_OBS
    http_server = None
    socket_source = None
    restore_handlers: Dict[int, object] = {}
    exit_code = 0
    try:
        bundle = load_bundle(
            args.dataset,
            on_error=args.on_error,
            max_error_rate=args.max_error_rate,
            obs=handle,
            skip_traces=True,
        )
        dataset_traces = find_traces(args.dataset)
        follow_paths = [Path(p) for p in (args.follow or [])]
        stream_paths = ([dataset_traces] if dataset_traces else []) + follow_paths
        formats = {trace_format_for_path(path.name) for path in stream_paths}
        if len(formats) > 1:
            print(
                f"error: mixed {'/'.join(sorted(formats))} sources; one serve "
                "session streams one record format",
                file=sys.stderr,
            )
            return 2
        format = formats.pop() if formats else "jsonl"
        config = _mapit_config(args)
        index = IncrementalIndex(
            bundle.ip2as,
            org=bundle.as2org,
            rel=bundle.relationships,
            config=config,
            obs=handle,
        )
        budget = (
            ErrorBudget(args.max_error_rate) if args.on_error != "strict" else None
        )
        journal = None
        if journal_dir:
            run_id = serve_run_identity(
                args.dataset, config, format, bundle.health
            )
            journal = RunJournal(journal_dir, run_id, obs=handle)
            print(f"journal: serve run {run_id} in {journal_dir}", file=sys.stderr)
        daemon = ServeDaemon(
            index,
            format=format,
            on_error=args.on_error,
            budget=budget,
            journal=journal,
            obs=handle,
            quiesce_every=args.quiesce_every,
            checkpoint_every=args.checkpoint_every,
            queue_limit=args.queue_limit,
        )
        if args.resume:
            if daemon.resume():
                print(
                    "resume: restored checkpoint at "
                    f"{daemon.stats_view()['folds']} folds",
                    file=sys.stderr,
                )
            else:
                print("resume: no usable checkpoint; starting cold", file=sys.stderr)
        try:
            if dataset_traces is not None:
                _serve_warm_start(
                    daemon, dataset_traces, _cache_dir(args), bundle.health
                )
            # printed once the base is taken, so it reports the warm
            # base's ingest as `mapit run` reports its load
            for line in bundle.health.summary_lines():
                print(line, file=sys.stderr)
            if args.once:
                for path in follow_paths:
                    FollowSource(
                        path,
                        offset=daemon.offsets.get(str(path), 0),
                        poll_interval=args.poll_interval,
                    ).replay(daemon)
                snapshot = daemon.finalize()
                _emit_result(snapshot.result, args.output, args.json)
                _print_result_summary(snapshot.result)
            else:
                stop = threading.Event()

                def _request_stop(signum, frame):
                    stop.set()

                for signum in (signal.SIGINT, signal.SIGTERM):
                    try:
                        restore_handlers[signum] = signal.signal(
                            signum, _request_stop
                        )
                    except ValueError:  # pragma: no cover - non-main thread
                        pass
                for path in follow_paths:
                    source = FollowSource(
                        path,
                        offset=daemon.offsets.get(str(path), 0),
                        poll_interval=args.poll_interval,
                    )
                    threading.Thread(
                        target=source.feed,
                        args=(daemon,),
                        kwargs={"stop": stop},
                        daemon=True,
                    ).start()
                if args.socket:
                    socket_source = SocketSource(args.socket, daemon)
                    socket_source.start()
                if args.http is not None:
                    http_server = ServeHTTPServer(QueryAPI(daemon), port=args.http)
                    http_server.start()
                    print(
                        f"serve: http on {http_server.host}:{http_server.port}",
                        file=sys.stderr,
                        flush=True,
                    )
                print(
                    "serve: streaming (SIGINT/SIGTERM drains, checkpoints, exits)",
                    file=sys.stderr,
                    flush=True,
                )
                daemon.run_loop(stop, idle_wait=args.poll_interval)
                if stop.is_set():
                    exit_code = EXIT_INTERRUPTED
                if args.output or args.json:
                    _emit_result(daemon.snapshot.result, args.output, args.json)
        except ErrorBudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            exit_code = EXIT_BUDGET_EXCEEDED
        except TraceParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            exit_code = EXIT_BUDGET_EXCEEDED
    finally:
        if http_server is not None:
            http_server.close()
        if socket_source is not None:
            socket_source.close()
        for signum, handler in restore_handlers.items():
            signal.signal(signum, handler)
        _finish_obs(obs, args)
    return exit_code


def cmd_evaluate(args) -> int:
    from repro.eval.verify import score_bundle

    obs = _build_obs(args)
    try:
        bundle = _load_bundle_checked(args, obs=obs)
        if bundle is None:
            return EXIT_BUDGET_EXCEEDED
        if bundle.ground_truth is None:
            print(
                "dataset has no groundtruth.txt; nothing to evaluate", file=sys.stderr
            )
            return 2
        result = bundle.run_mapit(_mapit_config(args), obs=obs)
    finally:
        _finish_obs(obs, args)
    targets = args.asn or bundle.manifest.get("verification_asns") or []
    if not targets:
        print("no verification ASNs (pass --asn)", file=sys.stderr)
        return 2
    rows = []
    for asn in targets:
        row = {"network": f"AS{asn}"}
        row.update(score_bundle(bundle, result.inferences, asn).row())
        rows.append(row)
    _print_rows(rows)
    return 0


def cmd_explain(args) -> int:
    from repro.analysis.explain import explain_interface
    from repro.core.mapit import MapIt
    from repro.net.ipv4 import parse_address

    bundle = _load_bundle_checked(args)
    if bundle is None:
        return EXIT_BUDGET_EXCEEDED
    mapit = MapIt(
        bundle.graph,
        bundle.ip2as,
        org=bundle.as2org,
        rel=bundle.relationships,
        config=_mapit_config(args),
    )
    mapit.run()
    for address_text in args.address:
        print(explain_interface(mapit, parse_address(address_text)).render())
        print()
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import run_report

    bundle = _load_bundle_checked(args)
    if bundle is None:
        return EXIT_BUDGET_EXCEEDED
    result = bundle.run_mapit(_mapit_config(args))
    print(run_report(result, bundle.relationships, bundle.as2org))
    return 0


def cmd_experiment(args) -> int:
    from repro.eval.experiment import prepare_experiment

    scenario = _preset_scenario(args.scale, args.seed)
    experiment = prepare_experiment(scenario)
    obs = _build_obs(args)
    try:
        if args.which == "stats":
            from repro.eval.stats import pipeline_stats

            rows = [
                {"statistic": key, "value": value}
                for key, value in pipeline_stats(experiment).rows().items()
            ]
            _print_rows(rows)
        elif args.which == "fig6":
            from repro.eval.fsweep import sweep_f

            _print_rows(sweep_f(experiment, obs=obs).rows())
        elif args.which == "fig7":
            from repro.eval.steps import step_impact

            _print_rows(step_impact(experiment, MapItConfig(f=args.f), obs=obs).rows())
        elif args.which == "fig8":
            from repro.eval.compare import compare_methods

            _print_rows(compare_methods(experiment, obs=obs).rows())
        elif args.which == "aspath":
            from repro.analysis.paths import path_accuracy

            mapit = experiment.new_mapit(MapItConfig(f=args.f), obs=obs)
            mapit.run()
            truth = experiment.scenario.ground_truth.router_as
            accuracy = path_accuracy(mapit, experiment.report.traces, truth)
            _print_rows([accuracy.summary()])
        elif args.which == "table1":
            from repro.eval.breakdown import breakdown_by_relationship

            result = experiment.run_mapit(MapItConfig(f=args.f), obs=obs)
            rows = []
            for label, dataset in experiment.datasets.items():
                breakdown = breakdown_by_relationship(
                    result.inferences,
                    dataset,
                    scenario.relationships,
                    scenario.as2org,
                    experiment.graph,
                )
                for row in breakdown.rows():
                    out = {"network": label}
                    out.update(row)
                    rows.append(out)
            _print_rows(rows)
        else:  # pragma: no cover - argparse restricts choices
            return 2
    finally:
        _finish_obs(obs, args)
    return 0


def cmd_inspect_trace(args) -> int:
    from repro.obs import read_trace, summarize

    try:
        events = read_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize(events, top=args.top)
    for line in summary.header_lines():
        print(line)
    print()
    print("per-pass inference deltas:")
    _print_rows(summary.passes)
    print()
    print("convergence (live inferences per outer iteration):")
    _print_rows(summary.convergence)
    if args.rules:
        print()
        print("rule census:")
        _print_rows(summary.rules)
    if summary.spans:
        print()
        print(f"slowest spans (top {args.top}, by total duration):")
        _print_rows(summary.spans)
    return 0


def cmd_sweep(args) -> int:
    from repro.sweep import SweepGrid, SweepMismatchError, SweepPlan, run_sweep

    try:
        grid = SweepGrid.build(
            args.preset or ["tiny"],
            args.seed or [0],
            args.f or [0.5],
            kind=args.kind,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs, cache, shard_timeout = _perf_settings(args)
    workdir = Path(args.workdir)
    if cache is None and not args.no_cache:
        cache = workdir / "cache"
    plan = SweepPlan(
        grid=grid,
        workdir=workdir,
        out_dir=Path(args.out) if args.out else workdir / "results",
        journal_dir=Path(args.journal) if args.journal else workdir / "journal",
        cache_dir=Path(cache) if cache else None,
        jobs=jobs,
        shard_timeout=shard_timeout,
        enable_stub_heuristic=not args.no_stub_heuristic,
        remove_rule=args.remove_rule,
        resume=args.resume,
    )
    from repro.sweep import sweep_identity

    # Printed before any work so a killed sweep's id is on record for
    # --resume (the journal filename carries it too).
    print(
        f"sweep {sweep_identity(grid, plan.base_config)} "
        f"(journal: {plan.journal_dir})",
        file=sys.stderr,
    )
    obs = _build_obs(args)
    from repro.obs import NULL_OBS

    try:
        outcome = run_sweep(plan, obs=obs if obs is not None else NULL_OBS)
    except SweepMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _finish_obs(obs, args)
    print(f"sweep {outcome.sweep_id}: {outcome.completed} cells completed, "
          f"{outcome.skipped} resumed, {outcome.worlds_built} worlds built, "
          f"{outcome.worlds_reused} reused -> {outcome.out_dir}",
          file=sys.stderr)
    _print_rows(outcome.rows)
    return 0


def cmd_diff(args) -> int:
    """Forward to the differential harness (``python -m repro.diff``).

    Arguments pass through verbatim — the harness owns its own flag
    set (docs/DIFFERENTIAL_TESTING.md documents it), so ``mapit diff``
    never drifts out of sync with ``python -m repro.diff``.
    """
    from repro.diff.cli import main as diff_main

    return diff_main(args.diff_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapit",
        description="MAP-IT: inferring inter-AS link interfaces from traceroute",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate a synthetic dataset")
    simulate.add_argument("output", help="dataset directory to create")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--scale", choices=_PRESETS, default="small")
    simulate.add_argument("--no-hostnames", action="store_true")
    simulate.add_argument(
        "--describe", action="store_true", help="print a topology summary"
    )
    _add_robust_options(simulate)
    simulate.set_defaults(func=cmd_simulate)

    run = sub.add_parser("run", help="run MAP-IT over a dataset directory")
    run.add_argument("dataset", help="dataset directory")
    run.add_argument("--output", help="write inferences here instead of stdout")
    run.add_argument("--json", action="store_true", help="emit JSON instead of text")
    run.add_argument(
        "--journal",
        metavar="DIR",
        help=(
            "keep the run's folded-graph cache entry in DIR (unless "
            "--cache names another) so a killed run can be resumed "
            "(default $MAPIT_JOURNAL or off)"
        ),
    )
    run.add_argument(
        "--resume",
        metavar="RUN_ID",
        help=(
            "resume the run RUN_ID: re-run the passes over the graph "
            "cached in --journal; the id is printed when the run starts, "
            "and the resumed output is byte-identical to an "
            "uninterrupted run"
        ),
    )
    _add_mapit_options(run)
    _add_robust_options(run)
    _add_obs_options(run)
    _add_perf_options(run)
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser(
        "serve",
        help="incremental inference daemon over a trace stream",
        description=(
            "Fold traces into the inference state as they arrive, "
            "re-running only the dirty region of the graph at each "
            "quiesce.  A quiesced serve state is byte-identical to "
            "`mapit run` over the same traces (docs/SERVE.md)."
        ),
    )
    serve.add_argument(
        "dataset",
        help=(
            "dataset directory with the IP2AS mapping files; its own "
            "traces file (if present) is loaded as `mapit run` loads it "
            "into the warm base"
        ),
    )
    serve.add_argument(
        "--follow",
        action="append",
        metavar="FILE",
        help="tail FILE for appended trace records (repeatable)",
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        help="accept newline-delimited records on a unix socket at PATH",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help=(
            "fold the dataset and --follow files to end-of-file, emit "
            "the result, and exit (the batch-equivalence mode)"
        ),
    )
    serve.add_argument("--output", help="write inferences here instead of stdout")
    serve.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    serve.add_argument(
        "--quiesce-every",
        type=_bounded_int_type(0),
        default=64,
        metavar="N",
        help="re-run inference after every N folded traces (default 64; "
        "an idle stream quiesces immediately)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=_bounded_int_type(0),
        default=0,
        metavar="N",
        help="checkpoint fold state to the journal every N folds "
        "(default 0 = only at shutdown; requires --journal)",
    )
    serve.add_argument(
        "--journal",
        metavar="DIR",
        help="journal serve checkpoints to DIR so a killed daemon can "
        "--resume (default $MAPIT_JOURNAL or off)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore the newest checkpoint from --journal and continue "
        "from its source offsets",
    )
    serve.add_argument(
        "--http",
        type=_bounded_int_type(0, 65535),
        default=None,
        metavar="PORT",
        help="serve the query API on 127.0.0.1:PORT (0 = ephemeral; the "
        "bound port is printed to stderr)",
    )
    serve.add_argument(
        "--queue-limit",
        type=_bounded_int_type(1),
        default=1024,
        metavar="N",
        help="bound the ingest queue at N lines; arrivals beyond it are "
        "shed deterministically and counted (default 1024)",
    )
    serve.add_argument(
        "--poll-interval",
        type=_seconds_type,
        default=0.1,
        metavar="SECONDS",
        help="file-tail polling interval (default 0.1)",
    )
    _add_mapit_options(serve)
    _add_robust_options(serve)
    _add_obs_options(serve)
    _add_perf_options(serve, shards=False)
    serve.set_defaults(func=cmd_serve)

    evaluate = sub.add_parser("evaluate", help="run and score against ground truth")
    evaluate.add_argument("dataset", help="dataset directory with groundtruth.txt")
    evaluate.add_argument(
        "--asn", type=int, action="append", help="verification network(s)"
    )
    _add_mapit_options(evaluate)
    _add_robust_options(evaluate)
    _add_obs_options(evaluate)
    _add_perf_options(evaluate, shards=False)
    evaluate.set_defaults(func=cmd_evaluate)

    explain = sub.add_parser("explain", help="explain one interface's inference")
    explain.add_argument("dataset", help="dataset directory")
    explain.add_argument("address", nargs="+", help="interface address(es)")
    _add_mapit_options(explain)
    _add_robust_options(explain)
    _add_perf_options(explain)
    explain.set_defaults(func=cmd_explain)

    report = sub.add_parser("report", help="summarize a run over a dataset")
    report.add_argument("dataset", help="dataset directory")
    _add_mapit_options(report)
    _add_robust_options(report)
    _add_perf_options(report)
    report.set_defaults(func=cmd_report)

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "which", choices=("stats", "fig6", "fig7", "fig8", "table1", "aspath")
    )
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument("--scale", choices=_PRESETS, default="paper")
    experiment.add_argument("--f", type=float, default=0.5)
    _add_obs_options(experiment)
    experiment.set_defaults(func=cmd_experiment)

    inspect_trace = sub.add_parser(
        "inspect-trace", help="summarize a --trace JSONL file"
    )
    inspect_trace.add_argument("trace_file", help="JSON-lines trace file")
    inspect_trace.add_argument(
        "--top", type=int, default=10, help="how many slowest spans to show"
    )
    inspect_trace.add_argument(
        "--rules", action="store_true", help="also print the per-rule event census"
    )
    inspect_trace.set_defaults(func=cmd_inspect_trace)

    diff = sub.add_parser(
        "diff",
        help="differential testing against the paper-literal oracle",
        add_help=False,
    )
    diff.add_argument("diff_args", nargs=argparse.REMAINDER)
    diff.set_defaults(func=cmd_diff)

    sweep = sub.add_parser(
        "sweep",
        help="fan a (preset, seed, f) grid across the worker pool with "
        "per-cell checkpoints",
        description=(
            "Expand a grid of (preset, seed, f-value) cells, run them "
            "across the supervised process pool, and checkpoint every "
            "completed cell in the run journal.  A killed sweep resumed "
            "with --resume produces byte-identical per-cell results to an "
            "uninterrupted one.  Stress presets (stress-smoke, stress, "
            "stress-large) generate their worlds shard-by-shard instead "
            "of materializing them (docs/CLI.md, docs/PERFORMANCE.md)."
        ),
    )
    sweep.add_argument(
        "workdir",
        help="sweep working directory (worlds/, cache/, journal/ live here)",
    )
    sweep.add_argument(
        "--preset",
        action="append",
        choices=sorted(_SWEEP_PRESETS),
        metavar="NAME",
        help=(
            "world preset(s) to sweep (repeatable; default tiny); "
            f"one of {', '.join(sorted(_SWEEP_PRESETS))}"
        ),
    )
    sweep.add_argument(
        "--seed",
        action="append",
        type=int,
        metavar="N",
        help="world seed(s) to sweep (repeatable; default 0)",
    )
    sweep.add_argument(
        "--f",
        action="append",
        type=float,
        metavar="F",
        help="Alg 2 threshold value(s) to sweep (repeatable; default 0.5)",
    )
    sweep.add_argument(
        "--kind",
        choices=("dataset", "experiment", "compare"),
        default="dataset",
        help=(
            "what each cell computes: dataset scores a materialized world "
            "(the evaluate pipeline), experiment runs the in-memory f-sweep "
            "pipeline, compare runs the Fig 8 baseline comparison"
        ),
    )
    sweep.add_argument(
        "--out",
        metavar="DIR",
        help="result directory (cells/ and sweep.json; default WORKDIR/results)",
    )
    sweep.add_argument(
        "--journal",
        metavar="DIR",
        help="journal completed cells to DIR (default WORKDIR/journal)",
    )
    sweep.add_argument(
        "--resume",
        metavar="SWEEP_ID",
        help=(
            "continue the journaled sweep SWEEP_ID, skipping verified "
            "cells; a different grid or config fails with the mismatch "
            "named (exit 2)"
        ),
    )
    sweep.add_argument(
        "--no-stub-heuristic",
        action="store_true",
        help="disable the Alg 4 low-visibility stub heuristic",
    )
    sweep.add_argument(
        "--remove-rule",
        choices=("majority", "add_rule"),
        default="majority",
        help="remove-step test (section 4.5 prose vs Alg 3 literal)",
    )
    _add_obs_options(sweep)
    _add_perf_options(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "diff":
        # Forwarded before argparse sees the flags: REMAINDER does not
        # capture a leading option-like token (python issue 17050), and
        # the harness owns its own flag set anyway.
        return cmd_diff(argparse.Namespace(diff_args=argv[1:]))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # SIGTERM during pooled work is routed here too (perf.pool);
        # children are already terminated and the payload stash restored.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ShardDeadlineExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHARD_TIMEOUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
