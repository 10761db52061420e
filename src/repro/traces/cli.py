"""Trace tooling CLI: ``python -m repro.traces <command>``.

Commands::

    list                                  # catalog names
    show 5g-lowband-driving               # summary statistics
    export 5g-mmwave-driving out.trace    # write Mahimahi format
    import real.trace --delay-ms 25       # summarize a Mahimahi file
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.traces.catalog import get_trace, list_traces
from repro.traces.mahimahi import read_mahimahi, write_mahimahi
from repro.traces.model import NetworkTrace
from repro.units import ms, to_ms


def _summarize(trace: NetworkTrace) -> str:
    return (
        f"{trace.name}: duration {trace.duration:.1f}s, "
        f"rate mean {trace.mean_rate() / 1e6:.1f} Mbps "
        f"(min {trace.min_rate() / 1e6:.2f}, max {trace.max_rate() / 1e6:.1f}), "
        f"one-way delay p50 {to_ms(trace.percentile_delay(50)):.1f} ms, "
        f"p98 {to_ms(trace.percentile_delay(98)):.1f} ms"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traces", description="Trace catalog tooling."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog trace names")

    show = sub.add_parser("show", help="summarize a catalog trace")
    show.add_argument("name")
    show.add_argument("--seed", type=int, default=None)

    export = sub.add_parser("export", help="write a catalog trace as Mahimahi")
    export.add_argument("name")
    export.add_argument("path")
    export.add_argument("--seed", type=int, default=None)
    export.add_argument("--duration", type=float, default=None)

    imp = sub.add_parser("import", help="summarize a Mahimahi trace file")
    imp.add_argument("path")
    imp.add_argument("--delay-ms", type=float, default=25.0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in list_traces():
            print(name)
        return 0
    if args.command == "show":
        print(_summarize(get_trace(args.name, seed=args.seed)))
        return 0
    if args.command == "export":
        trace = get_trace(args.name, seed=args.seed)
        count = write_mahimahi(trace, args.path, duration=args.duration)
        print(f"wrote {count} delivery opportunities to {args.path}")
        return 0
    if args.command == "import":
        trace = read_mahimahi(args.path, delay=ms(args.delay_ms))
        print(_summarize(trace))
        return 0
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
