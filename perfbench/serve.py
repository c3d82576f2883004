"""``serve``: open-loop HTTP load against ``xpdl serve``.

The server runs in its own process, on an ephemeral port, with default
flags except ``-I`` and ``--cache-dir`` (it is started through
``serve_launcher.py``, which only adds spans and a GC watch in a traced
run).  Load comes from this process over ``nproc`` keep-alive
connections.  After an untimed warm-up, each of eight rounds runs a
lone-request window (one connection, one request in flight), an open-loop
window at a fixed rate and a closed-loop saturation window.
``latency_ms`` is the median of the lone windows' p50 latencies and
``rate_per_s`` the median of the saturation windows' throughputs, both
scaled by the mean of echo round trips read before each of those windows
(:func:`common.echo_round_trip`).  The fixed windows give ``serve_p50_ms``
from the due time and the p99.  Then a ladder of rising rates climbs until
a rung's tail exceeds the limit or its backlog grows (``serve_max_rps``).
The mix is ``/query`` with seeded path templates, ``/info``,
``/analysis`` and a share of ``/batch``, with Zipf-skewed model
popularity.  Paired with ``introspect``, it separates service overhead
from query cost.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import urllib.parse

from . import httpload
from .common import (
    REFERENCE_ROUND_TRIP_S,
    Context,
    Outcome,
    compile_corpus,
    echo_round_trip,
    gc_layers,
    remove_dirs,
    repeat_setup,
    timed_setup,
)
from .introspect import _cold_paths, _hot_paths
from .layers import SERVICE, layer_figures
from .stats import (
    Rung,
    Span,
    lateness,
    max_sustainable_rate,
    median,
    open_loop_latencies,
    p99,
    percentile,
)

CORPUS_SEED = 7
CORPUS_SCALE = 40

#: The fixed rate of the latency phase, as a share of the closed-loop
#: throughput the warm-up measured, and the shares of ``--seconds`` that it
#: and the saturation phase take; the ladder gets the rest.  A constant
#: rate sat too close to capacity while the shared host ran slow (500 req/s
#: against under 1000: the p50 was queueing) or too far below it while the
#: host ran fast (200 req/s against 4000: the p50 was mostly the wake-up of
#: idle CPUs between requests).  A share of capacity keeps the server
#: about equally busy in both.
FIXED_LOAD = 0.3
FIXED_SHARE = 0.3
SATURATION_SHARE = 0.3
#: Requests of each lone-request window: one connection, each request
#: sent when the previous reply arrives, so one request is in flight and
#: none queues.
LONE_REQUESTS = 150
#: Rates 30 % apart, climbed until a rung fails.
LADDER = tuple(round(600 * 1.3**k) for k in range(12))
#: Each rung offers its rate for this long, and at least this many
#: requests (a p95 with ten samples beyond it).
RUNG_S = 0.4
RUNG_MIN_REQUESTS = 200
#: The fixed-rate and saturation phases are split into this many
#: alternating windows, and each figure is the median of its windows: a
#: stretch of the run in which the shared host runs slow moves one or two
#: windows, not the figure.
WINDOWS = 8
#: Closed-loop requests over every connection after set-up and before the
#: first window, untimed: the server's caches and the interpreter's
#: specialisation settle, so the first windows read like the last.  Its
#: throughput sizes the saturation windows (every connection sends its
#: next request as soon as the reply arrives) to their share of the run.
WARMUP_REQUESTS = 2000
#: Round trips of each echo reading (:func:`common.echo_round_trip`),
#: taken before every lone-request and saturation window.
ECHO_TRIPS = 200
#: The tail a rung may not exceed.  The server's generation-2 collections
#: pause it for about 0.1 s, which any rung may catch; a limit above that
#: lets the ladder find where the queue stops draining, not where a GC
#: pause happened to fall.
LIMIT_S = 0.200

#: Request mix shares and the Zipf exponent of model popularity.
MIX = (("query", 0.70), ("info", 0.10), ("analysis", 0.10), ("batch", 0.10))
BATCH_SIZE = 4
ZIPF_S = 1.1
HOT_SHARE = 0.8

_ANALYSES = ["count_cores", "count_cuda_devices", "total_static_power"]


class _Server:
    #: Servers started and not yet stopped, so a failed run stops them too.
    live: set["_Server"] = set()

    def __init__(self, ctx: Context, corpus_dir: str, cache_dir: str, trace_out: str | None):
        launcher = os.path.join(ctx.root, "perfbench", "serve_launcher.py")
        cmd = [sys.executable, launcher]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        cmd += ["--", "-I", corpus_dir, "serve", "--cache-dir", cache_dir, "--port", "0"]
        self.log_path = os.path.join(ctx.workdir, f"server-{os.getpid()}-{time.monotonic_ns()}.log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, cwd=ctx.workdir
        )
        self.live.add(self)
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            with open(self.log_path, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"xpdl serve did not start: {line!r}\n{fh.read()[-2000:]}")
        address = line.rsplit("http://", 1)[1].strip()
        host, port = address.rsplit(":", 1)
        self.address, self.port = host, int(port)

    def stop(self) -> None:
        """Shut the server down and wait for it (safe to call twice)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()
        self.live.discard(self)


def _path_pools(images: dict[str, str]) -> dict[str, tuple[list[str], list[str]]]:
    from repro.ir import IRModel

    pools = {}
    for ident, path in images.items():
        ir = IRModel.load(path)
        pools[ident] = (_hot_paths(ir), _cold_paths(ir))
    return pools


def _mix(rng: random.Random, pools: dict, n: int) -> list[tuple[str, bytes]]:
    """``n`` seeded requests: ``(key, raw HTTP bytes)``.

    Popularity ranks follow the model names, not the seed: which model is
    hot decides how much work a request does, and the figures must not
    move with ``--seed``.
    """
    order = sorted(pools)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(order))]
    hot = {s: pools[s][0] for s in order}
    cold = {s: pools[s][1] for s in order}
    kinds, shares = zip(*MIX)

    def path_for(model: str) -> str:
        return rng.choice(hot[model] if rng.random() < HOT_SHARE else cold[model])

    out = []
    for _ in range(n):
        model = rng.choices(order, weights)[0]
        kind = rng.choices(kinds, shares)[0]
        if kind == "query":
            path = path_for(model)
            query = urllib.parse.urlencode({"model": model, "path": path})
            out.append((json.dumps(["query", model, path]), httpload.get(f"/query?{query}")))
        elif kind == "info":
            query = urllib.parse.urlencode({"model": model})
            out.append((json.dumps(["info", model]), httpload.get(f"/info?{query}")))
        elif kind == "analysis":
            body = {"model": model, "analyses": _ANALYSES}
            out.append((json.dumps(["analysis", model]),
                        httpload.post("/analysis", json.dumps(body).encode())))
        else:
            subs = []
            for _ in range(BATCH_SIZE):
                m = rng.choices(order, weights)[0]
                subs.append({"op": "query", "model": m, "path": path_for(m)})
            out.append((json.dumps(["batch", subs], sort_keys=True),
                        httpload.post("/batch", json.dumps({"requests": subs}).encode())))
    return out


def _rung(rate: float, got: list) -> Rung:
    latencies = open_loop_latencies([s.due for s in got], [s.done for s in got])
    span = max(s.done for s in got) - got[0].due
    return Rung(rate, tuple(latencies), sum(s.status != 200 for s in got), len(got) / span)


def _expected(key: str, contexts: dict, memo: dict) -> object:
    """The reply a correct server gives, computed in-process: queries by
    the naive evaluator (memoized per model and path in ``memo``), info
    and analyses by the shared renderers."""
    from repro.runtime import query_all_naive
    from repro.service.core import handle_payload, info_payload, run_analyses

    def query(model: str, path: str) -> dict:
        if (model, path) not in memo:
            handles = query_all_naive(contexts[model], path)
            results = [handle_payload(h) for h in handles]
            memo[model, path] = {
                "model": model, "path": path, "count": len(results), "results": results
            }
        return memo[model, path]

    kind, *rest = json.loads(key)
    if kind == "query":
        body = query(*rest)
    elif kind == "info":
        body = info_payload(contexts[rest[0]])
    elif kind == "analysis":
        body = {"model": rest[0], "results": run_analyses(contexts[rest[0]], tuple(_ANALYSES))}
    else:
        subs = [query(s["model"], s["path"]) for s in rest[0]]
        body = {"count": len(subs), "results": subs}
    return json.loads(json.dumps(body, sort_keys=True))


def run(ctx: Context) -> Outcome:
    try:
        return _run(ctx)
    finally:
        for server in list(_Server.live):
            server.stop()


def _run(ctx: Context) -> Outcome:
    from repro.runtime import xpdl_init

    out = Outcome()
    gen_s: list[float] = []
    trace_path = os.path.join(ctx.workdir, "server-trace.json") if ctx.trace else None

    def setup(k: int, traced: bool = False):
        corpus_dir, cache_dir, systems, images = compile_corpus(
            ctx, k, CORPUS_SEED, CORPUS_SCALE, gen_s
        )
        server = _Server(ctx, corpus_dir, cache_dir, trace_path if traced else None)
        conns = [httpload.Connection(server.address, server.port) for _ in range(ctx.jobs)]
        # Warm-up: host every model, then a closed-loop pass of the mix.
        for ident in systems:
            query = urllib.parse.urlencode({"model": ident})
            status, _ = conns[0].request(httpload.get(f"/info?{query}"))
            if status != 200:
                raise RuntimeError(f"warm-up /info for {ident} returned {status}")
        pools = _path_pools(images)
        for _key, raw in _mix(random.Random("warmup"), pools, 200):
            conns[0].request(raw)
        return {"dirs": (corpus_dir, cache_dir), "systems": systems, "images": images,
                "server": server, "conns": conns, "pools": pools}

    def teardown(state) -> None:
        for conn in state["conns"]:
            conn.close()
        state["server"].stop()
        remove_dirs(*state["dirs"])

    #: The digest of each key's checked reply, and the keys answered wrongly.
    checked: dict[str, bytes] = {}
    wrong: set[str] = set()
    check_s = [0.0]

    def check(state, keys: list[str], got: list) -> None:
        """Check, untimed, each key's first reply against what the naive
        evaluator (or the shared renderer) gives in-process, and count
        every reply: a 200 whose key was answered correctly and whose bytes
        equal the checked reply's.  Bodies are dropped, so that the
        client's memory stays below the server's."""
        t0 = time.perf_counter()
        if "contexts" not in state:
            state["contexts"] = {s: xpdl_init(state["images"][s]) for s in state["systems"]}
        memo: dict = {}  # the naive evaluator's answers by (model, path)
        for key, s in zip(keys, got):
            if s.body is not None and key not in checked:
                try:
                    ok = json.loads(s.body) == _expected(key, state["contexts"], memo)
                except ValueError:
                    ok = False
                if not ok:
                    wrong.add(key)
                checked[key] = s.digest
            s.body = None
            out.count(s.status == 200 and key not in wrong and s.digest == checked.get(key))
        check_s[0] += time.perf_counter() - t0

    def phase(
        state, rate: float, n: int, rng: random.Random, width: int | None = None
    ) -> tuple[list, list[str]]:
        """Offer ``n`` requests at ``rate`` over the first ``width``
        connections (all by default)."""
        reqs = _mix(rng, state["pools"], n)
        keys = [k for k, _ in reqs]
        got = httpload.run_open_loop(
            [c.request for c in state["conns"][:width]], [r for _, r in reqs], keys, rate
        )
        check(state, keys, got)
        time.sleep(0.1)  # let the server settle before the next phase
        return got, keys

    def stats(state) -> dict:
        status, body = state["conns"][0].request(httpload.get("/stats"))
        return json.loads(body) if status == 200 else {}

    def warm_up(state) -> float:
        """The untimed closed-loop warm-up; returns its throughput."""
        got, _ = phase(state, math.inf, WARMUP_REQUESTS, random.Random(f"{ctx.seed}:warmup"))
        return len(got) / (max(s.done for s in got) - min(s.sent for s in got))

    saturation_n = 0
    rungs: list[Rung] = []
    window = (0.0, 0.0)
    #: Per window: p50 latency at the fixed rate, p50 latency of a lone
    #: request and saturation throughput; the echo readings.
    p50s: list[float] = []
    lone: list[float] = []
    rps: list[float] = []
    round_trips: list[float] = []
    if ctx.trace:
        # Untraced reference first, then the same load on a traced server.
        plain = setup(0)
        fixed_rps = FIXED_LOAD * warm_up(plain)
        fixed_n = int(fixed_rps * ctx.seconds * FIXED_SHARE)
        ref, _ = phase(plain, fixed_rps, fixed_n // 2, random.Random(f"{ctx.seed}:ref"))
        teardown(plain)
        state = timed_setup(out, lambda: setup(1, traced=True))
        before = stats(state)
        t0 = time.perf_counter()
        fixed, fixed_keys = phase(state, fixed_rps, fixed_n // 2,
                                  random.Random(f"{ctx.seed}:fixed"))
        window = (t0, time.perf_counter())
        after = stats(state)
        p50s.append(median(open_loop_latencies([s.due for s in fixed], [s.done for s in fixed])))
    else:
        state = repeat_setup(out, setup, teardown)
        warm_rps = warm_up(state)
        fixed_rps = FIXED_LOAD * warm_rps
        fixed_n = int(fixed_rps * ctx.seconds * FIXED_SHARE)
        window_n = max(RUNG_MIN_REQUESTS,
                       int(warm_rps * ctx.seconds * SATURATION_SHARE / WINDOWS))
        saturation_n = window_n * WINDOWS
        # Fixed-rate and saturation windows alternate, so that each figure
        # samples the whole run rather than one stretch of it.
        fixed, fixed_keys = [], []
        for w in range(WINDOWS):
            round_trips.append(echo_round_trip(ECHO_TRIPS))
            got, _ = phase(state, math.inf, LONE_REQUESTS, random.Random(f"{ctx.seed}:lone:{w}"),
                           width=1)
            lone.append(median([s.done - s.sent for s in got]))
            got, keys = phase(state, fixed_rps, fixed_n // WINDOWS,
                              random.Random(f"{ctx.seed}:fixed:{w}"))
            fixed += got
            fixed_keys += keys
            p50s.append(median(open_loop_latencies([s.due for s in got], [s.done for s in got])))
            round_trips.append(echo_round_trip(ECHO_TRIPS))
            got, _ = phase(state, math.inf, window_n, random.Random(f"{ctx.seed}:saturation:{w}"))
            rps.append(len(got) / (max(s.done for s in got) - min(s.sent for s in got)))
        rungs.append(_rung(fixed_rps, fixed))

        def climb(rate: float, i: int, seconds: float) -> bool:
            n = max(RUNG_MIN_REQUESTS, int(rate * seconds))
            got, _ = phase(state, rate, n, random.Random(f"{ctx.seed}:rung:{i}"))
            rungs.append(_rung(rate, got))
            return max_sustainable_rate(rungs, LIMIT_S) >= rate

        for i, rate in enumerate(LADDER):
            if not climb(rate, i, RUNG_S):
                break

    systems = state["systems"]
    teardown(state)

    out.check("replies_correct", not wrong)

    lat = open_loop_latencies([s.due for s in fixed], [s.done for s in fixed])
    late = lateness([s.due for s in fixed], [s.sent for s in fixed])
    tail99 = p99(lat)
    listing = "".join(
        f"{k}\t{checked[k].hex()}\n" for k in sorted(set(fixed_keys)) if k in checked
    )
    out.digests["responses"] = hashlib.sha256(listing.encode()).hexdigest()
    out.report.update(
        {
            "models": len(systems),
            "connections": ctx.jobs,
            "serve_p50_ms": {"value": median(p50s) * 1e3, "unit": "ms", "n": len(lat),
                             "rate": fixed_rps, "windows_ms": [v * 1e3 for v in p50s]},
            "client_lag_p99_ms": {"value": percentile(late, 99.0) * 1e3,
                                  "unit": "ms", "n": len(late)},
            "check_s": {"value": check_s[0], "unit": "s", "keys": len(checked)},
        }
    )
    if tail99 is not None:
        out.report["serve_p99_ms"] = {"value": tail99 * 1e3, "unit": "ms", "n": len(lat)}
    out.layers["corpus.generate_s"] = (median(gen_s), "s")

    if ctx.trace:
        with open(trace_path, encoding="utf-8") as fh:
            data = json.load(fh)
        t0, t1 = window
        spans = [sp for sp in (Span(*row) for row in data["spans"]) if t0 <= sp.start <= t1]
        out.layers.update(layer_figures(spans, SERVICE))
        out.layers.update(gc_layers(data["gc"], "service.gc", t0, t1))
        handles = [sp for sp in spans if sp.name == "service.handle" and sp.parent is None]
        client = sum(s.done - s.sent for s in fixed)
        # The request time no layer covers is the HTTP work around
        # ModelHost.handle; service.http_s is the same time per request.
        uncovered = client - sum(sp.duration for sp in handles)
        out.layers["service.http_s"] = (uncovered / max(1, len(fixed)), "s")
        out.layers["trace.residual_s"] = (uncovered, "s")
        out.layers["trace.residual_share"] = (uncovered / client, "ratio")
        out.layers["client.lag_ms"] = (out.report["client_lag_p99_ms"]["value"], "ms")
        counters_before = before.get("observer", {}).get("counters", {})
        counters_after = after.get("observer", {}).get("counters", {})
        out.layers["service.model.revalidations"] = (
            counters_after.get("service.model.revalidations", 0)
            - counters_before.get("service.model.revalidations", 0), "count"
        )
        ref_lat = open_loop_latencies([s.due for s in ref], [s.done for s in ref])
        out.layers["trace.overhead"] = (median(lat) / median(ref_lat) - 1.0, "ratio")
        out.layers["trace.spans"] = (len(spans), "count")
        out.trace_window = window
    else:
        # The gated figures are the lone request's latency and the
        # saturation throughput, scaled by the run's mean echo round trip:
        # a served request slows down with the host's wake-ups and
        # hand-offs between processes, beyond what the interpreter alone
        # does.  The host swings faster than one reading can follow, so a
        # window scaled by the reading just before it came out noisier.
        # The fixed-rate p50 is reported as measured: its load relative to
        # the server's capacity moves with the host, and queueing with it.
        paced = REFERENCE_ROUND_TRIP_S / statistics.fmean(round_trips)
        out.metrics["latency_ms"] = (median(lone) * paced * 1e3, "ms")
        out.metrics["rate_per_s"] = (median(rps) / paced, "1/s")
        out.report["serve_lone_p50_ms"] = {
            "value": median(lone) * 1e3, "unit": "ms", "n": LONE_REQUESTS * WINDOWS,
            "windows_ms": [v * 1e3 for v in lone],
        }
        out.report["echo_round_trip_ms"] = {
            "value": statistics.fmean(round_trips) * 1e3, "unit": "ms",
            "n": len(round_trips), "windows": [t * 1e3 for t in round_trips],
        }
        out.report["serve_saturation_rps"] = {
            "value": median(rps), "unit": "req/s", "n": saturation_n, "windows": rps
        }
        out.report["serve_max_rps"] = {
            "value": max_sustainable_rate(rungs, LIMIT_S), "unit": "req/s",
            "n": sum(len(r.latencies) for r in rungs),
        }
        out.report["ladder"] = [
            {"rate": r.rate, "n": len(r.latencies), "p50_ms": median(r.latencies) * 1e3,
             "tail_ms": (p99(r.latencies) or max(r.latencies)) * 1e3, "failed": r.failed,
             "achieved_rps": r.achieved}
            for r in rungs
        ]
    return out
