"""CLI of the benchmark harness: ``python -m benchmarks run|compare``.

Run from the repository root with ``src`` importable (e.g.
``PYTHONPATH=src python -m benchmarks run``).  ``run`` produces
``BENCH_<rev>.json``; ``compare`` is the CI regression gate over two such
files (exit 1 on regression).
"""

from __future__ import annotations

import argparse
import glob
import sys

from .harness import (
    MAX_REGRESS,
    compare,
    load_report,
    run_bench,
    skipped_gates,
    summarize,
    write_report,
)


def _resolve_report(spec: str) -> str:
    """Accept a path or a glob (CI passes ``bench-out/BENCH_*.json``)."""
    matches = sorted(glob.glob(spec))
    if matches:
        return matches[0]
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks",
        description="toolchain benchmark harness (the sections of benchmarks/harness.py)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="measure the corpus and write BENCH_<rev>.json")
    p.add_argument("--jobs", type=int, default=None, metavar="N")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument(
        "--system",
        action="append",
        dest="systems",
        metavar="IDENT",
        help="restrict the corpus (repeatable; default: every system)",
    )

    p = sub.add_parser("compare", help="gate CURRENT against BASELINE")
    p.add_argument("baseline")
    p.add_argument("current")
    p.add_argument(
        "--max-regress",
        type=float,
        default=MAX_REGRESS,
        metavar="FRACTION",
        help=f"allowed regression of each baseline gate (default {MAX_REGRESS})",
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        data = run_bench(jobs=args.jobs, identifiers=args.systems)
        print(summarize(data))
        path = write_report(data, args.out_dir)
        print(f"wrote {path}")
        return 0

    baseline = load_report(_resolve_report(args.baseline))
    current = load_report(_resolve_report(args.current))
    print(summarize(baseline))
    print(summarize(current))
    problems = compare(baseline, current, max_regress=args.max_regress)
    for gate in skipped_gates(current):
        print(f"bench gate: skipped: {gate}")
    for problem in problems:
        print(f"bench gate: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("bench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
