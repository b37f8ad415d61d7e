"""``python -m repro.diff`` — the differential sweep driver.

Sweeps seeded simulator worlds through oracle vs. production engine
(both §4.5 remove-rule readings by default), with ``--check-every N``
also replays each world through serve against batch at every N-th
prefix, with ``--chaos NAME`` also holds the CLI's faulted runs to
the core run's bytes (:mod:`repro.diff.chaos`), layers the
metamorphic invariant checks on the same worlds, replays checked-in
regression bundles, and — with ``--shrink`` — minimizes any world
diverging from the oracle or from batch and writes it under
``tests/fixtures/regressions/``.

Exit status is 0 only when every comparison and every invariant held,
so CI can run it directly (the ``diff`` job in ci.yml does).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.core.config import REMOVE_ADD_RULE, REMOVE_MAJORITY
from repro.diff.harness import DEFAULT_RULES, compare_world
from repro.diff.metamorphic import check_world
from repro.diff.shrink import divergence_predicate, shrink_world, write_regression
from repro.diff.worlds import world_from_bundle, world_from_preset
from repro.obs.metrics import Metrics
from repro.obs.observer import NULL_OBS, Observability
from repro.obs.trace import Tracer
from repro.sim.presets import SCENARIO_PRESETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diff",
        description="differential + metamorphic testing of repro.core "
        "against the paper-literal oracle",
    )
    parser.add_argument(
        "--worlds", type=int, default=20, help="number of sweep worlds (default 20)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="first world seed (default 0)"
    )
    parser.add_argument(
        "--preset",
        choices=sorted(SCENARIO_PRESETS),
        default="small",
        help="scenario preset for sweep worlds (default small)",
    )
    parser.add_argument(
        "--rules",
        default="both",
        choices=(REMOVE_MAJORITY, REMOVE_ADD_RULE, "both"),
        help="remove-rule reading(s) to compare under (default both)",
    )
    parser.add_argument(
        "--check-every",
        type=int,
        default=0,
        metavar="N",
        help="also fold each world into serve trace by trace and compare "
        "every N-th prefix (and the last) with batch (default 0: no serve "
        "replay)",
    )
    parser.add_argument(
        "--chaos",
        action="append",
        default=[],
        metavar="NAME",
        help="also run the CLI on each compared world under chaos schedule "
        "NAME and hold its output to the core run's bytes (repeatable; 'all' "
        "runs every schedule; docs/DIFFERENTIAL_TESTING.md lists them)",
    )
    parser.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the metamorphic invariant checks",
    )
    parser.add_argument(
        "--replay",
        action="append",
        default=[],
        metavar="BUNDLE",
        help="also compare a saved world bundle (repeatable); "
        "regression bundles replay under their recorded remove rule "
        "and serve cadence",
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="minimize any diverging world and write the repro bundle",
    )
    parser.add_argument(
        "--regressions-dir",
        default="tests/fixtures/regressions",
        help="where --shrink writes repro bundles "
        "(default tests/fixtures/regressions)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable summary on stdout"
    )
    parser.add_argument(
        "--trace", metavar="FILE", help="write observability events (JSON lines)"
    )
    parser.add_argument(
        "--metrics", metavar="FILE", help="write diff.* metric counters (JSON)"
    )
    return parser


def _rules_for(choice: str) -> List[str]:
    if choice == "both":
        return list(DEFAULT_RULES)
    return [choice]


def _build_obs(args) -> Observability:
    """An observability handle for the parsed flags (NULL when unused).

    Matches the main CLI's determinism choice: traces are written
    without wall-clock timestamps.
    """
    if not (args.trace or args.metrics):
        return NULL_OBS
    tracer = Tracer.to_file(args.trace, timestamps=False) if args.trace else None
    metrics = Metrics() if args.metrics else None
    return Observability(tracer=tracer, metrics=metrics)


def _recorded(world) -> Tuple[Optional[str], Optional[int]]:
    """The remove rule and serve cadence a replayed world's manifest
    records (None for each it does not)."""
    rule = world.recorded.get("remove_rule")
    check_every = world.recorded.get("check_every")
    if rule not in (REMOVE_MAJORITY, REMOVE_ADD_RULE):
        rule = None
    if not isinstance(check_every, int) or check_every < 0:
        check_every = None
    return rule, check_every


def _schedules(parser: argparse.ArgumentParser, names: List[str]) -> Tuple[str, ...]:
    """The chaos schedules ``--chaos`` names; the registry loads only
    when the flag is given."""
    if not names:
        return ()
    from repro.diff.chaos import CHAOS_SCHEDULES

    unknown = sorted(set(names) - set(CHAOS_SCHEDULES) - {"all"})
    if unknown:
        parser.error(
            f"unknown chaos schedule(s) {', '.join(unknown)}; choose from "
            f"{', '.join(CHAOS_SCHEDULES)} or all"
        )
    return CHAOS_SCHEDULES if "all" in names else tuple(names)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.check_every < 0:
        parser.error(f"--check-every must be >= 0, got {args.check_every}")
    chaos = _schedules(parser, args.chaos)
    obs = _build_obs(args)
    rules = _rules_for(args.rules)
    summary = {
        "worlds": 0,
        "comparisons": 0,
        "divergences": 0,
        "metamorphic_failures": 0,
        "replayed": 0,
        "shrunk": [],
    }
    failed = False

    def compare(world, rule: str, check_every: int) -> None:
        nonlocal failed
        outcome = compare_world(
            world, rule, obs=obs, check_every=check_every, chaos=chaos
        )
        summary["comparisons"] += 1
        summary["divergences"] += outcome.divergence_count
        if check_every:
            summary["prefixes"] = summary.get("prefixes", 0) + outcome.prefixes
        if chaos:
            summary["chaos"] = summary.get("chaos", 0) + len(outcome.chaos)
            for run in outcome.chaos:
                if not run.failure:
                    print(outcome.chaos_line(run), file=sys.stderr)
        if outcome.ok:
            return
        failed = True
        print(outcome.report, file=sys.stderr)
        if args.shrink and outcome.only_chaos_failed:
            # Shrinking chaos would fork pools and start daemons in every
            # predicate run, and regression bundles record no schedules.
            print("  chaos failures are not shrunk", file=sys.stderr)
        elif args.shrink:
            predicate = divergence_predicate(rule, check_every)
            shrunk, report = shrink_world(world, predicate, obs=obs)
            path = write_regression(
                shrunk,
                rule,
                args.regressions_dir,
                extra_manifest={"shrink": report.stages},
                check_every=check_every,
            )
            summary["shrunk"].append(str(path))
            print(
                f"  minimized {report.original_traces} -> {report.final_traces} "
                f"traces ({report.tests_run} predicate runs); wrote {path}",
                file=sys.stderr,
            )

    for index in range(args.worlds):
        world = world_from_preset(args.preset, args.seed + index)
        summary["worlds"] += 1
        for rule in rules:
            compare(world, rule, args.check_every)
        if not args.no_metamorphic:
            meta = check_world(world, rules[0], seed=args.seed + index, obs=obs)
            summary["metamorphic_failures"] += len(meta.failures)
            if not meta.ok:
                failed = True
                for failure in meta.failures[:3]:
                    print(failure.summary(), file=sys.stderr)

    for bundle in args.replay:
        world = world_from_bundle(bundle)
        summary["replayed"] += 1
        rule, check_every = _recorded(world)
        if check_every is None:
            check_every = args.check_every
        for replay_rule in [rule] if rule else rules:
            compare(world, replay_rule, check_every)

    if obs.enabled:
        obs.event(
            "diff.sweep.end",
            worlds=summary["worlds"],
            comparisons=summary["comparisons"],
            divergences=summary["divergences"],
            metamorphic_failures=summary["metamorphic_failures"],
        )
        if args.metrics and obs.metrics is not None:
            obs.metrics.write(args.metrics)
        obs.close()

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        prefixes = (
            f", {summary['prefixes']} serve prefix(es)" if "prefixes" in summary else ""
        )
        runs = f", {summary['chaos']} chaos run(s)" if "chaos" in summary else ""
        print(
            f"{summary['worlds']} world(s) + {summary['replayed']} replay(s), "
            f"{summary['comparisons']} comparison(s){prefixes}{runs}: "
            f"{summary['divergences']} divergence(s), "
            f"{summary['metamorphic_failures']} metamorphic failure(s)"
        )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
