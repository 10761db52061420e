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
through :class:`repro.runner.ParallelRunner`: units fan out over one worker
process per usable CPU (``--jobs N`` sets the count; ``--jobs 1`` runs them
inline, the reference mode), results are merged deterministically, so
output is identical to a serial run, and units are memoized in a
content-addressed cache so repeated runs skip already-computed work.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import EXPERIMENTS
from repro.runner import (
    ParallelRunner,
    ResultCache,
    default_cache_dir,
    resolve_fn,
    usable_cpus,
)

#: Scale flag (argparse dest) -> the ``run_*`` parameter it sets. An
#: experiment takes a flag when its signature declares one of the names;
#: everything else about an experiment — its ``--quick`` scale included, the
#: ``quick`` dict on its run function — lives with the experiment.
FLAG_PARAMS: Dict[str, Tuple[str, ...]] = {
    "duration": ("duration",),
    "pages": ("page_count",),
    "tenants": ("tenants", "fleet_tenants"),
    "shards": ("shards",),
    "trace_dir": ("trace_dir",),
}


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
            "simulated duration in seconds; like --pages, --tenants, --shards "
            "and --trace-dir an error for an experiment with no such parameter "
            "(the error names those that take it; 'all' applies it where taken)"
        ),
    )
    parser.add_argument(
        "--pages", type=int, default=None, help="corpus size for the page-load experiments"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short runs (smoke-test scale, not paper scale)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=usable_cpus(),
        metavar="N",
        help=(
            "run simulation units on N worker processes (default: the CPUs "
            "this process may use; 1 runs them inline, no pool)"
        ),
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
        help="background tenant count, for experiments with fleet cells",
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
            "export repro.obs packet-lifecycle traces (JSONL) into DIR, for "
            "experiments that trace; traced units always execute (the cache "
            "holds no files); inspect with `python -m repro obs summarize`"
        ),
    )
    return parser


def _flag_params(run: Callable) -> Dict[str, str]:
    """Scale flag -> the parameter of ``run`` it sets, for each flag ``run``
    takes (the one signature read per experiment)."""
    parameters = inspect.signature(run).parameters
    return {
        flag: param
        for flag, candidates in FLAG_PARAMS.items()
        for param in candidates
        if param in parameters
    }


def _experiments_taking(flag: str) -> List[str]:
    """Error path only: imports every experiment module, and leaves out one
    that cannot import here (``fleet``/``resilience`` without numpy)."""
    names = []
    for name in sorted(EXPERIMENTS):
        try:
            if flag in _flag_params(resolve_fn(EXPERIMENTS[name])):
                names.append(name)
        except ImportError:
            pass
    return names


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
    given = {
        flag: getattr(args, flag)
        for flag in FLAG_PARAMS
        if getattr(args, flag) is not None
    }
    cache = None if args.no_cache else ResultCache(args.cache_dir or default_cache_dir())
    runner = ParallelRunner(jobs=args.jobs, cache=cache)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        run = resolve_fn(EXPERIMENTS[name])
        params = _flag_params(run)
        unsupported = [flag for flag in given if flag not in params]
        if unsupported and args.experiment != "all":
            option = "--" + unsupported[0].replace("_", "-")
            parser.error(
                f"{option} is not supported by {name!r}; only "
                f"{', '.join(_experiments_taking(unsupported[0]))} take it"
            )
        # seed and runner, then the experiment's own --quick scale, then
        # whatever the command line set explicitly.
        kwargs = {"seed": args.seed, "runner": runner}
        if args.quick:
            kwargs.update(getattr(run, "quick", {}))
        kwargs.update(
            (params[flag], value) for flag, value in given.items() if flag in params
        )
        print(run(**kwargs).render())
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
