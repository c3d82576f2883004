"""What every workload shares: the run context, the host's pace, host
facts, peak memory and the result a workload hands back to ``run.py``."""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import signal
import socket
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

from .spans import Tracer, gc_window

#: Each workload sets itself up :data:`SETUP_REPEATS` times, or only
#: :data:`SETUP_MIN_REPEATS` times once :data:`SETUP_BUDGET_S` seconds of
#: set-up have passed; ``setup_s`` is the median, so one slow set-up does
#: not move the figure.
SETUP_REPEATS = 5
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 6.0

#: Kernel readings on each CPU before each sample of a second or more.
LONG_SAMPLE_READS = 6


#: A nominal time of the reference kernel, about its median on the host
#: where the benchmark was defined (2-CPU Xeon at 2.1 GHz, CPython 3.11)
#: while that host ran slow: paced timings read as if the kernel took
#: this long.
REFERENCE_KERNEL_S = 0.0030


def reference_kernel() -> float:
    """Seconds of a fixed stretch of interpreter work of the kind the
    program does (calls, attribute and dict lookups, small strings, a
    sort), with the collector paused so that it times the host alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[str, list[int]] = {}
        for i in range(2500):
            key = f"n{i % 257}.{i & 7}"
            row = table.get(key)
            if row is None:
                table[key] = row = []
            row.append(len(key) + i)
        keys = sorted(table, key=lambda k: (len(table[k]), k))
        if len(keys) != 257 * 8 or sum(map(len, table.values())) != 2500:
            raise AssertionError("reference kernel miscounted")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def kernel_on_every_cpu(reads: int) -> list[float]:
    """``reads`` kernel times on each CPU this process may use, all at
    once: this process and one forked child per other CPU, each pinned to
    its CPU (left to itself, the scheduler may run both on one CPU)."""
    cpus = sorted(os.sched_getaffinity(0))
    children: list[tuple[int, int]] = []
    times: list[float] = []
    try:
        for cpu in cpus[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child only times the kernel and reports back
                try:
                    os.close(r)
                    os.sched_setaffinity(0, {cpu})
                    reference_kernel()  # settles the child's copied pages
                    os.write(w, array("d", [reference_kernel() for _ in range(reads)]).tobytes())
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        os.sched_setaffinity(0, {cpus[0]})
        try:
            reference_kernel()
            times += [reference_kernel() for _ in range(reads)]
        finally:
            os.sched_setaffinity(0, cpus)
        for _, r in children:
            data = b""
            while chunk := os.read(r, 1 << 16):
                data += chunk
            times += array("d", data)
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
    return times


#: A nominal round trip of :func:`echo_round_trip`, about its median on the
#: host where the benchmark was defined: paced ``serve`` figures read as if
#: a round trip took this long.
REFERENCE_ROUND_TRIP_S = 0.0002


def _echo_work() -> int:
    """A fixed sliver of interpreter work, done on each side of a round
    trip, like the parsing and rendering around a real request."""
    table: dict[str, int] = {}
    for i in range(150):
        key = f"e{i % 37}"
        table[key] = table.get(key, 0) + i
    return len(table)


def echo_round_trip(trips: int) -> float:
    """Median seconds of a request-reply exchange with a forked echo process
    over TCP on the loopback interface, the two pinned to different CPUs,
    each doing :func:`_echo_work` per message.  It takes the wake-ups,
    system calls and interpreter work a served request takes, and none of
    the program's code."""
    cpus = sorted(os.sched_getaffinity(0))
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        pid = os.fork()
        if pid == 0:  # the echo side: answer until the other side closes
            try:
                os.sched_setaffinity(0, {cpus[-1]})
                conn, _ = listener.accept()
                reader = conn.makefile("rb")
                while line := reader.readline():
                    _echo_work()
                    conn.sendall(line)
            finally:
                os._exit(0)
    sock = None
    try:
        os.sched_setaffinity(0, {cpus[0]})
        sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")
        times = []
        for _ in range(trips):
            t0 = time.perf_counter()
            _echo_work()
            sock.sendall(b"ping\n")
            if not reader.readline():
                raise ConnectionError("the echo process closed the connection")
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        os.sched_setaffinity(0, cpus)
        if sock is None:
            os.kill(pid, signal.SIGKILL)  # it still waits for a connection
        else:
            sock.shutdown(socket.SHUT_RDWR)  # the echo side reads the end
            sock.close()
        os.waitpid(pid, 0)


class Pace:
    """How fast the shared host runs Python, read between timed samples.

    Each CPU of the shared host slows by up to about 1.7x, on its own, for
    tens of milliseconds to minutes at a time, and the program's timings
    swing with it.  A workload times the reference kernel just before each
    timed sample and scales its timings to :data:`REFERENCE_KERNEL_S`, so
    that the program's own speed stays in the figure and the host's swings
    mostly cancel.  A sample of a few milliseconds in this process is
    scaled by the reading just before it (:meth:`factor`).  A sample of a
    second or more spans many swings and, with pool workers or a server,
    every CPU: before it the workload reads the kernel on every CPU at once
    (:meth:`read_every_cpu`), and it is scaled by the mean of every reading
    of the run (:meth:`run_factor`).
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []

    def factor(self) -> float:
        """Time the kernel once here; the factor of that reading."""
        t = reference_kernel()
        self.kernel_s.append(t)
        return REFERENCE_KERNEL_S / t

    def read_every_cpu(self) -> None:
        """Take :data:`LONG_SAMPLE_READS` readings on every CPU at once."""
        self.kernel_s += kernel_on_every_cpu(LONG_SAMPLE_READS)

    def run_factor(self) -> float:
        """The factor of the mean of every reading so far."""
        return REFERENCE_KERNEL_S * len(self.kernel_s) / sum(self.kernel_s)

    def facts(self) -> dict[str, Any]:
        ks = sorted(self.kernel_s)
        return {"reference_s": REFERENCE_KERNEL_S, "n": len(ks),
                "mean_s": statistics.fmean(ks), "median_s": statistics.median(ks),
                "min_s": ks[0], "max_s": ks[-1], "run_factor": self.run_factor()}


@dataclass
class Context:
    """One invocation of a workload."""

    seed: int
    seconds: float
    trace: bool
    workdir: str
    root: str
    jobs: int
    tracer: Tracer | None = None

    def fresh_dir(self, *parts: str) -> str:
        path = os.path.join(self.workdir, *parts)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


@dataclass
class Outcome:
    """What a workload measured and checked.

    ``metrics`` holds the end-to-end metrics of ``BENCHMARK.json`` (plus
    ``setup_s`` and ``peak_rss_mb``, which ``run.py`` adds); ``report``
    holds the workload's own named figures with units and sample counts;
    ``layers`` the per-layer figures of a traced run.
    """

    ops: int = 0
    ops_failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, Any] = field(default_factory=dict)
    digests: dict[str, Any] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Set-up times as measured; ``run.py`` scales their median by the
    #: run's pace.
    setup_s: list[float] = field(default_factory=list)
    pace: Pace = field(default_factory=Pace)
    #: ``(start, end)`` of the traced phase, on ``time.perf_counter``.
    trace_window: tuple[float, float] = (float("-inf"), float("inf"))

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return ok

    def count(self, ok: bool, n: int = 1) -> None:
        self.ops += n
        if not ok:
            self.ops_failed += n


def repeat_setup(
    out: Outcome, setup: Callable[[int], Any], teardown: Callable[[Any], None]
) -> Any:
    """Run ``setup(k)`` repeatedly (:data:`SETUP_REPEATS`), timing each;
    tear down all but the last, which the workload measures."""
    state = None
    k = 0
    while k < SETUP_MIN_REPEATS or (k < SETUP_REPEATS and sum(out.setup_s) < SETUP_BUDGET_S):
        if state is not None:
            teardown(state)
        state = timed_setup(out, lambda: setup(k))
        k += 1
    return state


def timed_setup(out: Outcome, setup: Callable[[], Any]) -> Any:
    """Read the pace, then run one set-up and record its time."""
    out.pace.read_every_cpu()
    t0 = time.perf_counter()
    state = setup()
    out.setup_s.append(time.perf_counter() - t0)
    return state


def peak_rss_mb() -> dict[str, float]:
    """Peak resident set of this process and of the largest child it has
    reaped, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self": own / 1024.0, "children": kids / 1024.0}  # ru_maxrss is KiB


def calibration_spin() -> float:
    """Seconds of a fixed pure-Python loop: how fast this host runs Python."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    if acc < 0:  # keeps the loop from being optimised away
        raise AssertionError
    return time.perf_counter() - t0


def host_facts() -> dict[str, Any]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    spins = [calibration_spin() for _ in range(3)]
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "calibration_s": statistics.median(spins),
    }


def gc_layers(
    events: list[list[float]], prefix: str, start: float = float("-inf"),
    end: float = float("inf"),
) -> dict[str, tuple[float, str]]:
    pause, gen2 = gc_window(events, start, end)
    return {
        f"{prefix}.pause_s": (pause, "s"),
        f"{prefix}.gen2_collections": (gen2, "count"),
    }


def compile_corpus(
    ctx: Context, k: int, seed: int, scale: int, gen_s: list[float]
) -> tuple[str, str, list[str], dict[str, str]]:
    """Generate and write a corpus, compile its systems from an empty
    persistent cache at ``jobs = nproc`` and locate each system's cached
    runtime image.  Returns ``(corpus_dir, cache_dir, systems, images)``.
    """
    from repro.corpus import generate_corpus
    from repro.modellib import standard_repository
    from repro.toolchain import ToolchainSession, run_batch
    from repro.toolchain.diskcache import PersistentStageCache

    t0 = time.perf_counter()
    corpus = generate_corpus(seed, scale)
    gen_s.append(time.perf_counter() - t0)
    corpus_dir = ctx.fresh_dir(f"corpus{k}")
    cache_dir = ctx.fresh_dir(f"cache{k}")
    corpus.write_to(corpus_dir)
    systems = list(corpus.systems)
    report = run_batch(
        standard_repository(corpus_dir, use_env=False),
        systems,
        jobs=ctx.jobs,
        cache_dir=cache_dir,
    )
    if not report.ok:
        raise RuntimeError(f"corpus build failed: {report.diagnostics}")
    session = ToolchainSession(
        standard_repository(corpus_dir, use_env=False),
        disk_cache=PersistentStageCache(cache_dir),
    )
    images = {}
    for ident in systems:
        key = session.emit_ir(ident).image_key
        path = session.disk_cache.find_image(key) if key else None
        if path is None:
            raise RuntimeError(f"no cached runtime image for {ident}")
        images[ident] = path
    return corpus_dir, cache_dir, systems, images


def remove_dirs(*paths: str) -> None:
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)
