"""Start ``xpdl serve`` for the ``serve`` workload.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out FILE] -- <xpdl arguments>

Without ``--trace-out`` this is ``xpdl <arguments>`` and nothing else.
With it, the service layers are wrapped in spans and the cyclic GC is
watched through ``gc.callbacks`` before the server starts; when the
server shuts down (SIGTERM) the spans and GC pauses are written to FILE.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]

    from repro.cli import main as xpdl_main

    if trace_out is None:
        return xpdl_main(argv)

    from perfbench.layers import SERVICE
    from perfbench.spans import GcMonitor, Tracer, dump_json, span_rows

    tracer = Tracer()
    tracer.patch_all(SERVICE)
    monitor = GcMonitor().start()
    try:
        code = xpdl_main(argv)
    finally:
        monitor.stop()
        dump_json({"spans": span_rows(tracer.spans), "gc": monitor.events}, trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
