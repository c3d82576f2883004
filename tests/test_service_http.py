"""The HTTP daemon: routing, keep-alive, concurrent clients, smoke parity."""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import logging
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cli import main
from repro.repository import MemoryStore, ModelRepository
from repro.service import (
    ModelHost,
    ServiceClient,
    ServiceClientError,
    XpdlHttpServer,
    format_query_results,
)
from repro.service import http

CPU = (
    "<cpu name='SynthCpu'>"
    "<group prefix='core' quantity='4'>"
    "<core frequency='2' frequency_unit='GHz'/>"
    "</group>"
    "</cpu>"
)
SYSTEM = (
    "<system id='SynthSys'><node>"
    "<cpu id='PE0' type='SynthCpu'/>"
    "</node></system>"
)


@contextlib.contextmanager
def _serving(host: ModelHost):
    """An XpdlHttpServer for ``host`` on an ephemeral port, its event loop
    running on its own thread; yields ``((address, port), loop_thread)``."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = XpdlHttpServer(host, port=0, workers=4)
    address, port = asyncio.run_coroutine_threadsafe(
        server.start(), loop
    ).result(timeout=30)
    try:
        yield (address, port), thread
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(
            timeout=30
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()


def _host() -> tuple[ModelHost, MemoryStore]:
    store = MemoryStore({"cpu.xpdl": CPU, "sys.xpdl": SYSTEM})
    return ModelHost(ModelRepository([store]), reload_ttl_s=60.0), store


@pytest.fixture(scope="module")
def service():
    """One daemon on an ephemeral port, shared by the module's tests."""
    host, store = _host()
    with _serving(host) as (addr, _thread):
        yield ServiceClient(*addr), host, addr, store


@pytest.fixture
def fresh():
    """A daemon of its own, every model cold:
    ``(client, host, (address, port), loop_thread)``."""
    host, _store = _host()
    with _serving(host) as (addr, thread):
        yield ServiceClient(*addr), host, addr, thread


def _raw(addr, payload: bytes) -> bytes:
    """Send ``payload`` on a new connection; everything the server sent."""
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


def _post_raw(addr, route: str, payload) -> tuple[int, dict]:
    """POST ``payload`` as JSON on a raw socket; (status, decoded body).
    A dropped connection fails the assertion here."""
    body = json.dumps(payload).encode()
    raw = _raw(
        addr,
        f"POST {route} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n".encode() + body,
    )
    assert raw.startswith(b"HTTP/1.1 "), raw
    head, _, data = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(data)


def _record_threads(host: ModelHost, monkeypatch) -> list[threading.Thread]:
    """The thread of every ``host.handle`` call from now on (a batch's
    sub-requests included)."""
    threads: list[threading.Thread] = []
    handle = host.handle

    def recording(request):
        threads.append(threading.current_thread())
        return handle(request)

    monkeypatch.setattr(host, "handle", recording)
    return threads


def _in_pool(thread: threading.Thread) -> bool:
    return thread.name.startswith("xpdl-serve")


class TestRouting:
    def test_health(self, service):
        client, _, _, _ = service
        assert client.health() == {"ok": True}

    def test_query_get_and_post_agree(self, service):
        client, _, _, _ = service
        via_post = client.query("SynthSys", "//core")
        via_get = client.get("/query", model="SynthSys", path="//core")
        assert via_post == via_get
        assert via_post["count"] == 4

    def test_info_and_analysis(self, service):
        client, _, _, _ = service
        assert client.info("SynthSys")["cores"] == 4
        ana = client.analysis("SynthSys", ["count_kind:core"])
        assert ana["results"]["count_kind:core"] == 4

    def test_doctor_and_compose(self, service):
        client, _, _, _ = service
        report = client.doctor(["SynthSys"])
        assert "findings" in report and "summary" in report
        comp = client.compose("SynthSys")
        assert comp["elements"] > 4

    def test_models_listing(self, service):
        client, _, _, _ = service
        idents = [m["identifier"] for m in client.models()["models"]]
        assert "SynthSys" in idents

    def test_batch_round_trip(self, service):
        client, _, _, _ = service
        body = client.batch(
            [
                {"op": "query", "model": "SynthSys", "path": "//core"},
                {"op": "info", "model": "SynthSys"},
                {"op": "query", "model": "nope", "path": "//x"},
            ]
        )
        assert body["count"] == 3
        assert body["results"][0]["count"] == 4
        assert body["results"][1]["cores"] == 4
        assert body["results"][2]["status"] == 404

    def test_stats_counts_requests(self, service):
        client, _, _, _ = service
        before = client.stats()["observer"]["counters"].get(
            "service.requests", 0
        )
        client.query("SynthSys", "//core")
        after = client.stats()["observer"]["counters"]["service.requests"]
        assert after >= before + 2  # the query plus the first stats call

    def test_unknown_model_raises_with_status(self, service):
        client, _, _, _ = service
        with pytest.raises(ServiceClientError) as exc_info:
            client.query("nope", "//x")
        assert exc_info.value.status == 404

    def test_unknown_path_is_404(self, service):
        client, _, _, _ = service
        with pytest.raises(ServiceClientError) as exc_info:
            client.get("/nope")
        assert exc_info.value.status == 404

    def test_bad_json_body_is_400(self, service):
        client, _, addr, _ = service
        import urllib.request

        req = urllib.request.Request(
            client.base_url + "/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=10)
        exc_info.value.close()
        assert exc_info.value.code == 400


class TestWireProtocol:
    def test_keep_alive_serves_two_requests_on_one_connection(self, service):
        _, _, addr, _ = service
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        raw = _raw(addr, request)
        assert raw.count(b"HTTP/1.1 200 OK") == 2
        assert raw.count(b'{"ok": true}') == 2

    def test_malformed_request_line_is_400(self, service):
        _, _, addr, _ = service
        raw = _raw(addr, b"BOGUS\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_is_rejected(self, service):
        _, _, addr, _ = service
        head = (
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 99999999999\r\n\r\n"
        )
        raw = _raw(addr, head)
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_method_not_allowed(self, service):
        _, _, addr, _ = service
        raw = _raw(addr, b"PUT /query HTTP/1.1\r\nHost: x\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 405 ")

    def test_header_line_over_the_stream_limit_is_400(self, service):
        _, _, addr, _ = service
        request = (
            b"GET /healthz HTTP/1.1\r\nX-Long: "
            + b"a" * (64 * 1024 + 1)
            + b"\r\n\r\n"
        )
        raw = _raw(addr, request)
        assert raw.startswith(b"HTTP/1.1 400 "), raw[:80]
        assert b"header line too long" in raw


class TestRequestBoundary:
    """Field types are checked where a request enters the host, and no
    request drops its connection."""

    @pytest.mark.parametrize(
        "route, payload, field",
        [
            ("/query", {"model": ["SynthSys"], "path": "//core"}, "model"),
            ("/info", {"model": {"a": 1}}, "model"),
            ("/query", {"model": "SynthSys", "path": 5}, "path"),
            ("/analysis", {"model": "SynthSys", "analyses": "count_cores"}, "analyses"),
            ("/analysis", {"model": "SynthSys", "analyses": ["count_cores", 1]}, "analyses"),
            ("/doctor", {"models": "SynthSys"}, "models"),
            ("/doctor", {"suppress": "XPDL0211"}, "suppress"),
            ("/batch", {"requests": [{"op": "query", "model": 7, "path": "//core"}]}, "model"),
        ],
    )
    def test_wrong_field_type_is_a_400_naming_it(self, service, route, payload, field):
        _, _, addr, _ = service
        status, body = _post_raw(addr, route, payload)
        if route == "/batch":
            status, body = body["results"][0]["status"], body["results"][0]
        assert status == 400, body
        assert f"{field!r} must be a" in body["error"]

    def test_defect_answers_500_on_both_dispatch_paths(
        self, fresh, monkeypatch, caplog
    ):
        client, host, addr, loop_thread = fresh
        threads = _record_threads(host, monkeypatch)

        def broken(ctx):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.service.core.info_payload", broken)
        with caplog.at_level(logging.ERROR, logger="repro.service.core"):
            cold = _post_raw(addr, "/info", {"model": "SynthSys"})
            hot = _post_raw(addr, "/info", {"model": "SynthSys"})
        assert _in_pool(threads[0]) and threads[1] is loop_thread
        for status, body in (cold, hot):
            assert status == 500
            assert body == {
                "error": "internal error: RuntimeError: boom",
                "status": 500,
            }
        assert host.observer.counter("service.errors") == 2
        logged = [r for r in caplog.records if r.name == "repro.service.core"]
        assert len(logged) == 2 and all(r.exc_info for r in logged)
        assert client.health() == {"ok": True}


class TestInlineDispatch:
    """Hot requests are answered on the event loop; everything that may
    run or wait on a toolchain stage goes to the pool."""

    def test_hot_requests_run_on_the_loop_thread(self, fresh, monkeypatch):
        client, host, _, loop_thread = fresh
        threads = _record_threads(host, monkeypatch)
        client.info("SynthSys")  # cold: hosted by a pool thread
        assert len(threads) == 1 and _in_pool(threads[0])
        calls = [
            lambda: client.query("SynthSys", "//core"),
            lambda: client.get("/query", model="SynthSys", path="//core"),
            lambda: client.info("SynthSys"),
            lambda: client.get("/info", model="SynthSys"),
            lambda: client.analysis("SynthSys"),
            lambda: client.analysis("SynthSys", ["count_kind:core"]),
            lambda: client.batch(
                [
                    {"op": "query", "model": "SynthSys", "path": "//core"},
                    {"op": "info", "model": "SynthSys"},
                    {"op": "analysis", "model": "SynthSys"},
                ]
            ),
        ]
        for call in calls:
            threads.clear()
            call()
            assert threads and all(t is loop_thread for t in threads)

    def test_toolchain_work_and_cold_models_run_in_the_pool(
        self, fresh, monkeypatch
    ):
        client, host, _, loop_thread = fresh
        threads = _record_threads(host, monkeypatch)
        calls = [
            lambda: client.query("SynthSys", "//core"),  # cold
            lambda: client.compose("SynthSys"),
            lambda: client.doctor(["SynthSys"]),
            lambda: client.models(),
            lambda: client.stats(),
            lambda: client.batch(
                [
                    {"op": "query", "model": "SynthSys", "path": "//core"},
                    {"op": "compose", "model": "SynthSys"},
                ]
            ),
        ]
        for call in calls:
            threads.clear()
            call()
            assert threads and all(_in_pool(t) for t in threads)
        with pytest.raises(ServiceClientError):
            client.query("nope", "//core")  # never hosted
        host.reload_ttl_s = 0.0  # every model is stale
        for call in (
            lambda: client.query("SynthSys", "//core"),
            lambda: client.info("SynthSys"),
            lambda: client.analysis("SynthSys"),
        ):
            threads.clear()
            call()
            assert threads and all(_in_pool(t) for t in threads)

    def test_dispatch_counters_count_each_request_once(self, fresh):
        client, host, _, _ = fresh
        query = {"op": "query", "model": "SynthSys", "path": "//core"}
        pooled = [
            lambda: client.info("SynthSys"),  # cold
            lambda: client.compose("SynthSys"),
            lambda: client.models(),
            lambda: client.post("/query", {"path": "//core"}),  # no model
        ]
        inline = [
            lambda: client.query("SynthSys", "//core"),
            lambda: client.analysis("SynthSys", ["no_such_analysis"]),
            lambda: client.batch([query, query]),
        ]
        for call in pooled + inline:
            with contextlib.suppress(ServiceClientError):
                call()
        counters = client.stats()["observer"]["counters"]
        assert counters["service.dispatch.inline"] == len(inline)
        assert counters["service.dispatch.pool"] == len(pooled) + 1  # + stats

    def test_held_host_lock_stalls_hot_query_not_the_loop(self, fresh):
        client, host, _, _ = fresh
        client.info("SynthSys")
        pooled = host.observer.counter("service.dispatch.pool")
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            with host._lock:
                pending = pool.submit(client.query, "SynthSys", "//core")
                deadline = time.monotonic() + 30
                while host.observer.counter("service.dispatch.pool") == pooled:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                assert client.health() == {"ok": True}
                time.sleep(0.2)
                assert not pending.done()
            assert pending.result(timeout=30)["count"] == 4


class TestConcurrentClients:
    def _hammer(self, service, monkeypatch, ttl: float) -> dict[str, int]:
        """Eight clients query while a descriptor changes under ``ttl``;
        returns how many of their requests each dispatch path took."""
        client, host, addr, store = service
        valid = {4, 8}
        failures: list[str] = []
        emit_threads: list[threading.Thread] = []
        emit_ir = host.session.emit_ir

        def recording_emit_ir(*args, **kwargs):
            emit_threads.append(threading.current_thread())
            return emit_ir(*args, **kwargs)

        monkeypatch.setattr(host.session, "emit_ir", recording_emit_ir)
        client.query("SynthSys", "//core")
        paths = ("service.dispatch.inline", "service.dispatch.pool")
        before = {k: host.observer.counter(k) for k in paths}
        requests = host.observer.counter("service.requests")

        def hammer(_i: int) -> None:
            local = ServiceClient(*addr)
            for _ in range(15):
                body = local.query("SynthSys", "//core")
                if body["count"] not in valid:
                    failures.append(f"torn count {body['count']}")
                    return

        # shorten the TTL so edits are probed during the hammer, and the
        # switch interval so threads interleave finely
        host.reload_ttl_s = ttl
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(hammer, i) for i in range(8)]
                store.put("cpu.xpdl", CPU.replace("'4'", "'8'"))
                for f in futures:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            host.reload_ttl_s = 60.0
            store.put("cpu.xpdl", CPU)
            host.session.invalidate()
        assert not failures, failures[:3]
        stats = host.stats()
        assert stats["inflight"] == 0
        assert all(row["refs"] == 0 for row in stats["hosted"])
        assert host.observer.counter("service.requests") == requests + 8 * 15
        # The loop never runs a toolchain stage, and every request is
        # counted on exactly one path.
        assert emit_threads and all(_in_pool(t) for t in emit_threads)
        took = {k: host.observer.counter(k) - before[k] for k in paths}
        assert sum(took.values()) == 8 * 15
        return took

    def test_many_clients_hammering_while_descriptor_changes(
        self, service, monkeypatch
    ):
        took = self._hammer(service, monkeypatch, ttl=0.0)
        assert took["service.dispatch.inline"] == 0

    def test_hammering_with_a_short_ttl_while_descriptor_changes(
        self, service, monkeypatch
    ):
        # Requests within the TTL of a check are answered on the loop
        # (about a quarter of them on a 2-CPU host) while the rest
        # revalidate in the pool.
        self._hammer(service, monkeypatch, ttl=0.005)

    def test_responses_are_json_with_content_length(self, service):
        _, _, addr, _ = service
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(
                b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        raw = b"".join(chunks)
        head, _, body = raw.partition(b"\r\n\r\n")
        headers = dict(
            line.split(b": ", 1)
            for line in head.split(b"\r\n")[1:]
            if b": " in line
        )
        assert headers[b"Content-Type"] == b"application/json"
        assert int(headers[b"Content-Length"]) == len(body)
        json.loads(body)


def _get(target: str, *headers: str) -> bytes:
    lines = [f"GET {target} HTTP/1.1", "Host: x", *headers, "", ""]
    return "\r\n".join(lines).encode()


def _post(route: str, payload) -> bytes:
    body = json.dumps(payload).encode()
    head = f"POST {route} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


def _read_replies(sock: socket.socket, n: int) -> tuple[list, bytes]:
    """Read ``n`` replies off ``sock``: ``([(status, headers, body)],
    bytes received past the last one)``."""
    buf = bytearray()
    replies: list = []
    while len(replies) < n:
        end = buf.find(b"\r\n\r\n")
        if end >= 0:
            status_line, *lines = buf[:end].decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            stop = end + 4 + int(headers["Content-Length"])
            if len(buf) >= stop:
                replies.append(
                    (int(status_line.split()[1]), headers, bytes(buf[end + 4 : stop]))
                )
                del buf[:stop]
                continue
        data = sock.recv(1 << 16)
        assert data, f"connection closed after {len(replies)} of {n} replies"
        buf += data
    return replies, bytes(buf)


def _dispatched(host: ModelHost) -> tuple[int, int]:
    """(inline, pooled) requests so far."""
    counter = host.observer.counter
    return counter("service.dispatch.inline"), counter("service.dispatch.pool")


class TestConnectionFlow:
    """The Protocol front: request order, partial reads, back-pressure."""

    def test_pooled_reply_precedes_the_hot_ones_behind_it(self, fresh, monkeypatch):
        client, host, addr, _ = fresh
        client.info("SynthSys")  # hosted: the queries below are hot
        compose = host._OPS["compose"]

        def slow_compose(self, request):
            time.sleep(0.2)
            return compose(self, request)

        monkeypatch.setattr(host, "_OPS", dict(host._OPS, compose=slow_compose))
        inline, pooled = _dispatched(host)
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(
                _post("/compose", {"model": "SynthSys"})
                + _get("/query?model=SynthSys&path=//core")
                + _get("/info?model=SynthSys")
            )
            replies, rest = _read_replies(sock, 3)
        assert rest == b""
        assert [status for status, _, _ in replies] == [200, 200, 200]
        composed, queried, info = (json.loads(body) for _, _, body in replies)
        assert "ir_sha256" in composed
        assert queried["count"] == 4 and info["cores"] == 4
        assert _dispatched(host) == (inline + 2, pooled + 1)

    def test_half_closing_client_gets_every_reply(self, fresh):
        _, _, addr, _ = fresh
        raw = _raw(
            addr,
            _get("/query?model=SynthSys&path=//core")  # cold: pooled
            + _get("/healthz")
            + _get("/info?model=SynthSys"),
        )
        assert raw.count(b"HTTP/1.1 200 OK") == 3
        assert raw.endswith(b'"system": "SynthSys"}')

    def test_request_sent_one_byte_per_send_parses(self, service):
        _, _, addr, _ = service
        request = _post("/query", {"model": "SynthSys", "path": "//core"})
        with socket.create_connection(addr, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                sock.sendall(request[i : i + 1])
                time.sleep(0.001)
            [(status, _, body)], rest = _read_replies(sock, 1)
        assert status == 200 and rest == b""
        assert json.loads(body)["count"] == 4

    def test_connection_close_after_a_pooled_request(self, fresh):
        _, host, addr, _ = fresh
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(
                _get("/query?model=SynthSys&path=//core", "Connection: close")
            )
            [(status, headers, _)], rest = _read_replies(sock, 1)
            assert sock.recv(1) == b""  # closed by the server
        assert status == 200 and rest == b""
        assert headers["Connection"] == "close"
        assert _dispatched(host) == (0, 1)

    @pytest.mark.parametrize(
        "partial",
        [
            b"GET /query?model=SynthSys",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
            b"POST /query HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"model\"",
        ],
    )
    def test_eof_mid_request_closes_quietly(self, service, partial, caplog):
        _, _, addr, _ = service
        with caplog.at_level(logging.ERROR):
            assert _raw(addr, partial) == b""
            assert ServiceClient(*addr).health() == {"ok": True}
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_pipelined_burst_is_answered_in_order_under_back_pressure(
        self, monkeypatch
    ):
        big_cpu = CPU.replace("quantity='4'", "quantity='2500'")
        host = ModelHost(
            ModelRepository([MemoryStore({"cpu.xpdl": big_cpu, "sys.xpdl": SYSTEM})]),
            reload_ttl_s=60.0,
        )
        # Per read, whether writing was paused; per reply, the transport's
        # write buffer after it.
        reads: list[bool] = []
        buffered: list[int] = []
        data_received, reply = http._Connection.data_received, http._Connection._reply

        def recording_read(self, data):
            reads.append(self._write_paused)
            data_received(self, data)

        def recording_reply(self, response, keep_alive):
            reply(self, response, keep_alive)
            buffered.append(self.transport.get_write_buffer_size())

        monkeypatch.setattr(http._Connection, "data_received", recording_read)
        monkeypatch.setattr(http._Connection, "_reply", recording_reply)
        paths = ["//core", "//cpu//core", "//node//core"]
        sent = [paths[i % len(paths)] for i in range(50)]
        with _serving(host) as (addr, _thread):
            ServiceClient(*addr).info("SynthSys")
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                # A small receive window: the 13 MB of replies cannot sit
                # in the kernel's buffers.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(30)
                sock.connect(addr)
                for path in sent:  # most arrive after writing has backed up
                    sock.sendall(_get(f"/query?model=SynthSys&path={path}"))
                    time.sleep(0.005)
                replies, rest = _read_replies(sock, len(sent))
        assert rest == b""
        bodies = [json.loads(body) for _, _, body in replies]
        assert [b["path"] for b in bodies] == sent
        assert all(b["count"] == 2500 for b in bodies)
        # Writing backed up, and meanwhile the server neither read nor
        # answered: it did not buffer the burst's requests or replies.
        reply_bytes = max(len(body) for _, _, body in replies) + 200
        assert max(buffered) > 64 * 1024
        assert max(buffered) < 64 * 1024 + 2 * reply_bytes
        assert reads and not any(reads)


    def test_a_pipelining_client_does_not_starve_another(self, service, monkeypatch):
        client, _, addr, _ = service
        client.info("SynthSys")  # hosted: every request below is hot
        answered: list = []  # the connection of each reply, in order
        reply = http._Connection._reply

        def recording(self, response, keep_alive):
            answered.append(self)
            reply(self, response, keep_alive)

        monkeypatch.setattr(http._Connection, "_reply", recording)
        burst = 500
        with socket.create_connection(addr, timeout=10) as a, socket.create_connection(
            addr, timeout=10
        ) as b:
            a.sendall(_get("/info?model=SynthSys") * burst)
            b.sendall(_get("/healthz"))
            _read_replies(b, 1)
            _read_replies(a, burst)
        [lone] = [conn for conn in set(answered) if answered.count(conn) == 1]
        assert answered.index(lone) < burst // 2


class TestHostObserver:
    def test_runtime_counters_count_every_query(self):
        systems = {f"s{i}.xpdl": SYSTEM.replace("SynthSys", f"Sys{i}") for i in range(4)}
        store = MemoryStore({"cpu.xpdl": CPU, **systems})
        host = ModelHost(ModelRepository([store]), reload_ttl_s=60.0)
        answered: list = []

        def hammer(i: int) -> None:
            local = ServiceClient(*addr)
            for k in range(6):
                answered.append(local.query(f"Sys{(i + k) % 4}", "//core")["results"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _serving(host) as (addr, _thread):
                # cold models, then every request revalidating in the pool,
                # then a short TTL mixing both paths, then all hot
                for ttl in (60.0, 0.0, 0.005, 60.0):
                    host.reload_ttl_s = ttl
                    with concurrent.futures.ThreadPoolExecutor(8) as pool:
                        for f in [pool.submit(hammer, i) for i in range(8)]:
                            f.result(timeout=60)
                counters = ServiceClient(*addr).stats()["observer"]["counters"]
        finally:
            sys.setswitchinterval(interval)
        assert len(answered) == 4 * 8 * 6
        assert all(results == answered[0] for results in answered)  # one memo text per node
        assert [r["attrs"]["id"] for r in answered[0]] == [f"core{i}" for i in range(4)]
        assert counters["runtime.queries"] == len(answered)
        assert counters["service.dispatch.inline"] > 0
        assert counters["service.dispatch.pool"] > 4 * 8 * 6 / 4

    def test_a_slow_build_arrives_fresh(self, fresh, monkeypatch):
        client, host, _, _ = fresh
        host.reload_ttl_s = 1.0
        emit_ir = host.session.emit_ir

        def slow_emit_ir(*args, **kwargs):
            time.sleep(1.1)  # a build that outlasts the TTL
            return emit_ir(*args, **kwargs)

        monkeypatch.setattr(host.session, "emit_ir", slow_emit_ir)
        client.query("SynthSys", "//core")  # cold: built in the pool
        inline, _ = _dispatched(host)
        client.query("SynthSys", "//core")
        assert _dispatched(host)[0] == inline + 1
        assert host.observer.counter("service.model.revalidations") == 0


class TestServeProcess:
    """``xpdl serve --port 0`` as its own process: the listen line, a
    query answered like ``xpdl query``, and a clean SIGTERM shutdown."""

    def test_listen_query_and_sigterm(self, capsys, tmp_path):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        argv = ["serve", "--port", "0", "--cache-dir", str(tmp_path / "cache")]
        with open(tmp_path / "serve.err", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv],
                cwd=tmp_path,
                env=dict(os.environ, PYTHONPATH=src),
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
            )
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in proc.stdout], daemon=True
        )
        reader.start()
        try:
            listen = lines.get(timeout=60)
            match = re.fullmatch(
                r"xpdl serve: listening on http://127\.0\.0\.1:(\d+)\n", listen
            )
            assert match, listen
            path = "//cache[@name='L3']"
            body = ServiceClient("127.0.0.1", int(match.group(1))).query(
                "liu_gpu_server", path
            )
            xir = str(tmp_path / "liu.xir")
            assert main(["compose", "liu_gpu_server", "-o", xir]) == 0
            capsys.readouterr()
            assert main(["query", xir, path]) == 0
            printed = capsys.readouterr().out
            assert format_query_results(body["results"]) + "\n" == printed

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert list(lines.queue) == ["xpdl serve: shutdown complete\n"]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
