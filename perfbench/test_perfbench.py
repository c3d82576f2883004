"""Tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from perfbench import common, httpload
from perfbench.layers import harness_time, worker_residual
from perfbench.spans import Tracer
from perfbench.stats import (
    Rung,
    Span,
    backlog_growing,
    covered,
    max_sustainable_rate,
    open_loop_latencies,
    p99,
    percentile,
    rung_passes,
    samples_beyond,
    self_times,
    tail,
)


# -- percentiles ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(999, 99.0) == 9
    assert p99([1.0] * 999) is None
    assert p99(list(range(1010))) == 999


def test_tail_picks_the_highest_percentile_with_ten_beyond():
    assert tail(list(range(100))) == (90.0, 89)
    assert tail(list(range(10_000)))[0] == 99.9
    assert tail(list(range(20))) is None  # p75 leaves only 5 beyond


# -- open loop --------------------------------------------------------------


def test_latency_counts_from_the_due_time():
    assert open_loop_latencies([0.0, 1.0], [0.5, 3.0]) == [0.5, 2.0]


def test_a_stalled_server_inflates_later_requests():
    """One connection, a request every 10 ms, the third reply stalls for
    100 ms: the requests queued behind it were sent late, and their
    latency from the due time carries the wait."""
    calls = []

    def send(raw: bytes):
        calls.append(raw)
        time.sleep(0.1 if raw == b"2" else 0.001)
        return 200, b"{}"

    requests = [str(i).encode() for i in range(8)]
    got = httpload.run_open_loop([send], requests, [r.decode() for r in requests], 100.0)
    assert len(got) == 8 and all(s.status == 200 for s in got)
    lat = open_loop_latencies([s.due for s in got], [s.done for s in got])
    service = [s.done - s.sent for s in got]
    assert lat[3] > 0.05 and service[3] < 0.05  # waited, then served fast
    assert lat[1] < 0.05
    assert got[3].sent - got[3].due > 0.05  # the generator ran late


def test_open_loop_records_failures_as_status_zero():
    def send(raw: bytes):
        raise ConnectionError("gone")

    got = httpload.run_open_loop([send], [b"a"], ["a"], 1000.0)
    assert [s.status for s in got] == [0]


# -- self time --------------------------------------------------------------


def _span(name, start, end, sid, parent=None):
    return Span(name, start, end, sid, parent, sid if parent is None else 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, 1),
        _span("b", 1.0, 4.0, 2, 1),
        _span("c", 2.0, 3.0, 3, 2),
        _span("b", 5.0, 6.0, 4, 1),
    ]
    rows = self_times(spans)
    assert rows["a"]["self_s"] == 10.0 - 3.0 - 1.0
    assert rows["b"]["self_s"] == (3.0 - 1.0) + 1.0
    assert rows["b"]["calls"] == 2
    assert rows["c"]["self_s"] == 1.0
    total_self = sum(r["self_s"] for r in rows.values())
    assert total_self == 10.0  # self times partition the outermost span


def test_covered_counts_outermost_spans_clipped_to_the_window():
    spans = [_span("a", 0.0, 2.0, 1), _span("b", 0.5, 1.0, 2, 1), _span("a", 3.0, 5.0, 3)]
    assert covered(spans, 1.0, 4.0) == 1.0 + 1.0


def test_tracer_nests_spans_and_shares_the_request_id():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return traced_inner() + 1

    traced_inner = tracer.wrap(inner, "inner")
    assert tracer.wrap(outer, "outer")() == 2
    spans = {s.name: s for s in tracer.spans}
    assert spans["inner"].parent == spans["outer"].span_id
    assert spans["inner"].rid == spans["outer"].rid == spans["outer"].span_id
    assert spans["outer"].pid == os.getpid()


def test_tracer_keeps_threads_apart():
    """Eight threads record nested spans with a tiny switch interval: no
    span is lost and every child names its own thread's parent."""
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")

    def work():
        for _ in range(500):
            outer()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans
    assert len(spans) == 8 * 500 * 2
    outers = {s.span_id: s for s in spans if s.name == "outer"}
    for s in spans:
        assert s.start <= s.end
        if s.name == "inner":
            parent = outers[s.parent]
            assert s.rid == parent.rid == parent.span_id
            assert parent.start <= s.start and s.end <= parent.end


# -- the serve ladder -------------------------------------------------------


def _rung(rate, latency_s, n=1100, failed=0, achieved=None):
    return Rung(rate, tuple([latency_s] * n), failed, rate if achieved is None else achieved)


def _overloaded(rate, achieved):
    growing = tuple(0.001 + 0.15 * i / 1100 for i in range(1100))
    return Rung(rate, growing, 0, achieved)


def test_ladder_stops_at_the_first_failing_rung():
    rungs = [_rung(500, 0.01), _rung(600, 0.30), _rung(700, 0.01)]
    # The 700 rung passes, but the climb ended at 600 (a tail failure).
    assert max_sustainable_rate(rungs, 0.2) == 500


def test_overload_reports_the_achieved_throughput_within_the_bracket():
    assert max_sustainable_rate([_rung(500, 0.01), _overloaded(650, 560)], 0.2) == 560
    # Clamped into [last pass, first fail].
    assert max_sustainable_rate([_rung(500, 0.01), _overloaded(650, 420)], 0.2) == 500
    assert max_sustainable_rate([_rung(500, 0.01), _overloaded(650, 700)], 0.2) == 650


def test_ladder_top_and_bottom():
    assert max_sustainable_rate([_rung(500, 0.01), _rung(600, 0.01)], 0.2) == 600
    assert max_sustainable_rate([_rung(500, 0.3)], 0.2) == 0.0


def test_failed_requests_fail_a_rung():
    rungs = [_rung(500, 0.01), _rung(600, 0.01, failed=1)]
    assert max_sustainable_rate(rungs, 0.2) == 500


def test_growing_backlog_fails_a_rung_under_the_limit():
    growing = _overloaded(600, 550).latencies
    assert max(growing) < 0.2
    assert backlog_growing(growing, 0.2)
    assert not backlog_growing(tuple([0.001] * 1100), 0.2)
    assert not rung_passes(Rung(600, growing), 0.2)


# -- the residual -------------------------------------------------------------


def _in(pid, name, start, end, sid, parent=None):
    return Span(name, start, end, (pid << 32) + sid, parent, 0)


def test_worker_residual_counts_busy_time_outside_worker_spans():
    main, worker = 100, 200
    entry = _in(main, "entry", 0.0, 10.0, 1)
    spans = [
        entry,
        _in(main, "plan", 0.0, 1.0, 2, entry.span_id),  # not worker work
        _in(worker, "stage", 1.0, 4.0, 1),
        _in(worker, "inner", 2.0, 3.0, 2, (worker << 32) + 1),  # nested: counted once
        _in(worker, "stage", 5.0, 6.0, 3),
        _in(main, "stage", 11.0, 12.0, 3),  # a call of the benchmark's own
    ]
    assert worker_residual(spans, 6.0, main, "entry", ("stage", "inner")) == 2.0


def test_worker_residual_in_process_uses_the_entry_children():
    main = 100
    entry = _in(main, "entry", 0.0, 10.0, 1)
    spans = [
        entry,
        _in(main, "plan", 0.0, 1.0, 2, entry.span_id),
        _in(main, "stage", 1.0, 5.0, 3, entry.span_id),
        _in(main, "inner", 2.0, 3.0, 4, (main << 32) + 3),
    ]
    assert worker_residual(spans, 6.0, main, "entry", ("stage", "inner")) == 2.0


def test_harness_time_is_the_benchmark_process_outside_every_span():
    main, worker = 100, 200
    spans = [
        _in(main, "entry", 1.0, 4.0, 1),
        _in(main, "inner", 2.0, 3.0, 2, (main << 32) + 1),
        _in(worker, "stage", 0.0, 10.0, 1),
    ]
    assert harness_time(spans, main, 0.0, 10.0) == 7.0


# -- the host's pace ----------------------------------------------------------


def test_pace_scales_to_the_reference_kernel(monkeypatch):
    readings = iter([0.002, 0.004, 0.006, 0.006])
    monkeypatch.setattr(common, "reference_kernel", lambda: next(readings))
    pace = common.Pace()
    ref = common.REFERENCE_KERNEL_S
    # A host that runs the kernel in half the reference time doubles a timing.
    assert pace.factor() == pytest.approx(ref / 0.002)
    assert pace.factor() == pytest.approx(ref / 0.004)
    pace.kernel_s += [0.006, 0.006]
    # The run's factor comes from the mean of every reading.
    assert pace.run_factor() == pytest.approx(ref / 0.0045)


def _no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_kernel_on_every_cpu_reads_each_cpu_and_reaps_its_children():
    cpus = os.sched_getaffinity(0)
    times = common.kernel_on_every_cpu(2)
    assert len(times) == 2 * len(cpus)
    assert all(t > 0 for t in times)
    assert os.sched_getaffinity(0) == cpus
    assert _no_child_left()


def test_echo_round_trip_restores_affinity_and_reaps_the_echo_process():
    cpus = os.sched_getaffinity(0)
    assert common.echo_round_trip(20) > 0
    assert os.sched_getaffinity(0) == cpus
    assert _no_child_left()


def test_reference_kernel_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert common.reference_kernel() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        common.reference_kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_repeat_setup_takes_the_minimum_once_the_budget_is_spent(monkeypatch):
    monkeypatch.setattr(common, "reference_kernel", lambda: common.REFERENCE_KERNEL_S)
    clock = iter(range(0, 1000, 4))  # every set-up takes 4 s
    monkeypatch.setattr(common.time, "perf_counter", lambda: next(clock))
    out = common.Outcome()
    torn = []
    state = common.repeat_setup(out, lambda k: k, torn.append)
    assert out.setup_s == [4, 4, 4]
    assert (state, torn) == (2, [0, 1])
