"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload with spans around each layer and prints the per-layer metrics
instead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON report with the workload's named figures, sample
counts, output digests, check results and host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("build", "introspect", "serve", "fleet")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: no program source at src/repro; run from the root of "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # The server child and pool workers import the same trees.
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    os.environ.pop("XPDL_MODEL_PATH", None)

    from perfbench import build, fleet, introspect, serve
    from perfbench.common import Context, gc_layers, host_facts, peak_rss_mb
    from perfbench.spans import GcMonitor, Tracer
    from perfbench.stats import median

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    # Keep every temporary file of this run (and of its children) inside
    # the checkout.
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    module = {"build": build, "introspect": introspect, "serve": serve, "fleet": fleet}[
        args.workload
    ]
    monitor = GcMonitor().start() if args.trace else None
    tracer = None
    if args.trace:
        spool = os.path.join(workdir, "spool")
        os.makedirs(spool)
        tracer = Tracer(spool_dir=spool)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
        root=ROOT,
        jobs=_jobs(),
        tracer=tracer,
    )
    # A terminated run unwinds like a failed one: the server is stopped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, _terminated)
    try:
        outcome = module.run(ctx)
    finally:
        if monitor is not None:
            monitor.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)  # only when no other run is using it
        except OSError:
            pass

    # Set-ups take a second or more, so the run's pace scales them.
    outcome.metrics["setup_s"] = (median(outcome.setup_s) * outcome.pace.run_factor(), "s")
    rss = peak_rss_mb()
    outcome.metrics["peak_rss_mb"] = (max(rss.values()), "MiB")
    if monitor is not None:
        outcome.layers.update(gc_layers(monitor.events, "gc", *outcome.trace_window))
    # BENCHMARK.json names the metrics each kind of run prints; a layer the
    # workload's measured phase never enters reads 0.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = outcome.layers if args.trace else outcome.metrics
    metrics = {}
    for m in wanted:
        value = source.get(m["name"], (0, m["unit"]))[0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = outcome.ops_failed == 0 and all(outcome.checks.values())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": outcome.ops,
        "ops_failed": outcome.ops_failed,
        "checks": outcome.checks,
        "figures": outcome.report,
        "setup_s": {"samples": outcome.setup_s, "unit": "s"},
        "pace": outcome.pace.facts(),
        "peak_rss_mb": rss,
        "digests": outcome.digests,
        "host": host_facts(),
    }
    if args.trace:
        report["layers"] = {
            k: {"value": v, "unit": u} for k, (v, u) in sorted(outcome.layers.items())
        }
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{args.workload:10s} {name:28s} {value:14.6g} {unit}")
    for name, figure in sorted(outcome.report.items()):
        if isinstance(figure, dict) and "value" in figure:
            print(
                f"{args.workload:10s} {name:28s} {figure['value']:14.6g} "
                f"{figure['unit']} (n={figure.get('n', 1)})"
            )
    print(f"{args.workload:10s} {'ops':28s} {outcome.ops:14d}")
    print(f"{args.workload:10s} {'ops_failed':28s} {outcome.ops_failed:14d}")
    for name, digest in sorted(outcome.digests.items()):
        if isinstance(digest, str):
            print(f"{args.workload:10s} digest {name:21s} {digest}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, outcome.ops),
                "failed": outcome.ops_failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _terminated(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def _jobs() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


if __name__ == "__main__":
    sys.exit(main())
