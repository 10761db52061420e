"""Command-line entry point: ``python -m repro <experiment> [options]``.

Examples::

    python -m repro fig1a
    python -m repro fig2 --duration 30
    python -m repro table1 --pages 10 --jobs 4
    python -m repro all --quick --jobs 8
    python -m repro fig1a --no-cache
    python -m repro sweep-urllc-bw --cache-dir /tmp/repro-cache
    python -m repro fig1a --trace-dir /tmp/traces
    python -m repro obs summarize /tmp/traces/fig1a-cubic.jsonl
    python -m repro chaos --quick --jobs 4

Every experiment decomposes into independent simulation units executed
through :class:`repro.runner.ParallelRunner`: ``--jobs N`` fans units out
over N worker processes (results are merged deterministically, so output
is identical to a serial run), and units are memoized in a
content-addressed cache so repeated runs skip already-computed work.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENTS
from repro.runner import ParallelRunner, ResultCache, default_cache_dir, resolve_fn

#: Experiments that export repro.obs traces when given ``--trace-dir``.
TRACEABLE = ("fig1a", "fig1b", "fig2", "table1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures/tables and ablations.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help=(
            "override the simulated duration in seconds; an error for an "
            "experiment that runs to completion instead, e.g. table1 (the "
            "error names those that take one)"
        ),
    )
    parser.add_argument(
        "--pages", type=int, default=None, help="corpus size for table1"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short runs (smoke-test scale, not paper scale)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run simulation units on N worker processes (default: 1, inline)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every unit instead of reusing the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "result cache location (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="background tenant count for the fleet experiment",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "split fleet foreground flows across N shard units (the "
            "background replays identically in every shard; flows in "
            "different shards do not contend, so this changes the scenario)"
        ),
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "export repro.obs packet-lifecycle traces (JSONL) into DIR "
            f"({'/'.join(TRACEABLE)}); inspect with `python -m repro obs "
            "summarize`"
        ),
    )
    return parser


def _runner_for(args: argparse.Namespace) -> ParallelRunner:
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return ParallelRunner(jobs=args.jobs, cache=cache)


def _takes_duration(name: str) -> bool:
    run = resolve_fn(EXPERIMENTS[name])
    return "duration" in inspect.signature(run).parameters


def _duration_experiments() -> List[str]:
    """Error path only: imports every experiment module, and leaves out one
    that cannot import here (``fleet``/``resilience`` without numpy)."""
    names = []
    for name in sorted(EXPERIMENTS):
        try:
            if _takes_duration(name):
                names.append(name)
        except ImportError:
            pass
    return names


def _kwargs_for(name: str, args: argparse.Namespace, runner: ParallelRunner) -> dict:
    kwargs: dict = {"seed": args.seed, "runner": runner}
    if args.duration is not None:
        if _takes_duration(name):
            kwargs["duration"] = args.duration
    elif args.quick and name in (
        "fig1a", "fig1b", "fig2", "ab-cc", "ab-mlo", "ab-mp", "ab-reseq", "faults"
    ):
        kwargs["duration"] = 10.0
    if name == "faults" and args.quick:
        # One outage length: smoke-test scale.
        kwargs["outages"] = (1.0,)
    if name == "resilience":
        # Quick keeps the full regime x policy x CCA grid (the scorecard's
        # acceptance bar includes every cell) and the 10k-tenant fleet
        # cells — only the simulated duration shrinks.
        if args.quick:
            from repro.experiments.resilience import QUICK_DURATION

            kwargs.setdefault("duration", QUICK_DURATION)
            kwargs["fleet_duration"] = 6.0
        if args.tenants is not None:
            kwargs["fleet_tenants"] = args.tenants
    if name == "cc-matrix" and args.quick:
        # Headline CCAs only: 6 pairs instead of 21 per preset/policy.
        from repro.experiments.cc_matrix import QUICK_CCAS

        kwargs.setdefault("duration", 2.5)
        kwargs["ccas"] = QUICK_CCAS
    # ablate: quick keeps the full 8 s duration — the fault scenarios need
    # their cycles to play out for the deltas to be meaningful, and the
    # whole grid is only 30 short units.
    if name == "fleet":
        if args.quick:
            kwargs["tenants"] = 2_000
            kwargs["foreground"] = 6
            kwargs.setdefault("duration", 6.0)
        if args.tenants is not None:
            kwargs["tenants"] = args.tenants
        if args.shards is not None:
            kwargs["shards"] = args.shards
    if name in ("table1", "baselines", "sweep-urllc-bw", "sweep-threshold", "sweep-urllc-rtt"):
        if args.pages is not None:
            kwargs["page_count"] = args.pages
        elif args.quick:
            kwargs["page_count"] = 4 if name == "table1" else 3
    if args.trace_dir is not None and name in TRACEABLE:
        kwargs["trace_dir"] = args.trace_dir
    return kwargs


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        # Observability tooling has its own subcommand tree; dispatch before
        # argparse so `python -m repro obs summarize trace.jsonl` works.
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "chaos":
        # Same pattern for the invariant-checked chaos campaign
        # (`python -m repro chaos --quick`, `... chaos --replay bundle.json`).
        from repro.check.chaos import main as chaos_main

        return chaos_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.trace_dir is not None and args.experiment not in TRACEABLE + ("all",):
        parser.error(
            f"--trace-dir is not supported by {args.experiment!r}; "
            f"only {', '.join(TRACEABLE)} export traces"
        )
    if (
        args.duration is not None
        and args.experiment != "all"
        and not _takes_duration(args.experiment)
    ):
        parser.error(
            f"--duration is not supported by {args.experiment!r}; "
            f"only {', '.join(_duration_experiments())} run for a set time"
        )
    runner = _runner_for(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        run = resolve_fn(EXPERIMENTS[name])
        result = run(**_kwargs_for(name, args, runner))
        print(result.render())
        print()
    if runner.cache is not None and (runner.cache_hits or runner.executed):
        print(
            f"[runner] jobs={runner.jobs} units={runner.cache_hits + runner.executed} "
            f"cache_hits={runner.cache_hits} executed={runner.executed} "
            f"cache={runner.cache.root}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
