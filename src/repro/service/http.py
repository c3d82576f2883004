"""The ``xpdl serve`` daemon: an asyncio HTTP/JSON front over ModelHost.

Stdlib only.  Each connection is an :class:`asyncio.Protocol` with one
receive buffer, parsed in place, speaking a strict subset of HTTP/1.1
(keep-alive, ``Content-Length`` bodies, no chunked encoding).  A hot
request (``query``/``info``/``analysis``, or a batch of them, on hosted
fresh models while the host lock is free) and ``/healthz`` are answered
inside ``data_received`` by
:meth:`~repro.service.core.ModelHost.handle_inline`, with one
``transport.write``: the handler work is far shorter than a hand-off to
another thread.  Everything else — cold or stale models, ``compose``,
``doctor``, ``models``, ``stats`` — goes to a thread pool running
:meth:`~repro.service.core.ModelHost.handle_pooled`, so toolchain work
never blocks the loop; the connection reads and parses nothing further
until that reply is written.  ``service.dispatch.inline`` and
``service.dispatch.pool`` count the split.

Replies leave in request order.  A connection answers at most one
request per pass of the event loop (pipelined requests continue through
``loop.call_soon``), so one client cannot starve the others, and it
stops reading while a complete request waits its turn, a pooled request
is out or the transport's write buffer is over its high-water mark.

Routes (all responses are JSON):

================  ======  =================================================
path              method  host op / body
================  ======  =================================================
``/healthz``      GET     liveness (answered on the event loop, no host)
``/stats``        GET     ``stats`` — host + observer snapshot
``/models``       GET     ``models`` — repository index listing
``/info``         GET     ``info`` (``?model=``)
``/query``        GET     ``query`` (``?model=&path=``)
``/query``        POST    ``{"model": ..., "path": ...}``
``/info``         POST    ``{"model": ...}``
``/analysis``     POST    ``{"model": ..., "analyses": [...]}``
``/compose``      POST    ``{"model": ...}``
``/doctor``       POST    ``{"models": [...], "suppress": [...]}``
``/batch``        POST    ``{"requests": [{...}, ...]}`` — one round trip,
                          many ops; sub-results keep request order
================  ======  =================================================
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import json
import urllib.parse
from typing import Any, Mapping

from .core import ModelHost, encode_body

#: Default listen address, port and request worker threads of ``xpdl serve``.
DEFAULT_ADDRESS = "127.0.0.1"
DEFAULT_PORT = 8790
DEFAULT_WORKERS = 4

#: Request body ceiling — far above any legitimate batch, far below abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Header-section ceiling per request.
MAX_HEADER_BYTES = 64 * 1024
#: Longest request line or header line, line end excluded.
MAX_LINE_BYTES = 64 * 1024

#: URL path → host op for POST bodies.
_POST_OPS = {
    "/query": "query",
    "/info": "info",
    "/analysis": "analysis",
    "/compose": "compose",
    "/doctor": "doctor",
    "/batch": "batch",
    "/stats": "stats",
}

#: URL path → (op, required/optional query params) for GET.
_GET_OPS = {
    "/stats": "stats",
    "/models": "models",
    "/info": "info",
    "/query": "query",
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    pass


class XpdlHttpServer:
    """The daemon: own the listener, translate HTTP to host requests."""

    def __init__(
        self,
        host: ModelHost,
        *,
        address: str = DEFAULT_ADDRESS,
        port: int = DEFAULT_PORT,
        workers: int = DEFAULT_WORKERS,
    ) -> None:
        self.host = host
        self.address = address
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="xpdl-serve"
        )
        self._connections: set[_Connection] = set()
        self._closing = False

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (address, port).

        Passing ``port=0`` binds an ephemeral port — tests and the
        benchmark use that to avoid collisions.
        """
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.address, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        return self.address, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop listening, drop every open connection and wait until
        each has gone; pooled requests still queued are cancelled."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            for conn in list(self._connections):
                conn.transport.abort()
            while self._connections:
                await asyncio.sleep(0)
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    def _pooled_reply(self, request: Mapping[str, Any], keep_alive: bool) -> bytes:
        """A pool thread's job: the whole reply to a request the loop
        did not answer."""
        return _response(*self.host.handle_pooled(request), keep_alive)


class _Connection(asyncio.Protocol):
    """One client connection: a receive buffer, answered in order."""

    transport: asyncio.Transport

    def __init__(self, server: XpdlHttpServer) -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._buffer = bytearray()
        # (method, target, keep-alive, head bytes, body bytes) of the
        # request being received, once its head is complete.
        self._head: tuple[str, str, bool, int, int] | None = None
        # The reply of the request out in the thread pool, if any.
        self._pending: asyncio.Future | None = None
        self._scheduled = False
        self._write_paused = False
        self._eof = False

    # -- asyncio.Protocol -----------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self._server._connections.add(self)
        if self._server._closing:
            transport.abort()

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self)
        if self._pending is not None:
            self._pending.cancel()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._advance()

    def eof_received(self) -> bool:
        self._eof = True
        self._advance()
        return True  # half-closed: the replies still owed go out first

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._advance()

    # -- requests ---------------------------------------------------------------
    def _continue(self) -> None:
        self._scheduled = False
        self._advance()

    def _advance(self) -> None:
        """Answer the next request in the buffer, if it is complete and
        nothing is ahead of it."""
        if (
            self._scheduled
            or self._pending is not None
            or self._write_paused
            or self.transport.is_closing()
        ):
            return
        try:
            request = self._next_request()
        except _BadRequest as exc:
            error = {"error": str(exc), "status": 400}
            self._reply(_response(400, error, False), False)
            return
        if request is None:  # read on, or close after the client's EOF
            if self._eof:
                self.transport.close()
            else:
                self.transport.resume_reading()
            return
        method, target, keep_alive, body = request
        answer = self._answer(method, target, body, keep_alive)
        if answer is not None:
            self._reply(answer, keep_alive)
        else:
            self.transport.pause_reading()

    def _next_request(self) -> tuple[str, str, bool, bytes] | None:
        """Take the next complete request off the buffer; ``None`` while
        it is incomplete."""
        buf = self._buffer
        if self._head is None:
            self._head = _parse_head(buf)
            if self._head is None:
                return None
        method, target, keep_alive, head_len, body_len = self._head
        end = head_len + body_len
        if len(buf) < end:
            return None
        body = bytes(buf[head_len:end])
        del buf[:end]
        self._head = None
        return method, target, keep_alive, body

    def _answer(
        self, method: str, target: str, body: bytes, keep_alive: bool
    ) -> bytes | None:
        """The reply the loop gives at once, or ``None`` once the request
        went to the thread pool."""
        routed = _route(method, target, body)
        if isinstance(routed, tuple):
            return _response(*routed, keep_alive)
        server = self._server
        # Both counters are written only here, on the loop thread.
        observer = server.host.observer
        answered = server.host.handle_inline(routed)
        if answered is not None:
            observer.count("service.dispatch.inline")
            return _response(*answered, keep_alive)
        observer.count("service.dispatch.pool")
        self._pending = self._loop.run_in_executor(
            server._executor, server._pooled_reply, routed, keep_alive
        )
        self._pending.add_done_callback(
            functools.partial(self._pooled_done, keep_alive)
        )
        return None

    def _pooled_done(self, keep_alive: bool, future: asyncio.Future) -> None:
        self._pending = None
        if future.cancelled():
            return
        try:
            response = future.result()
        except Exception:
            self.transport.abort()
            raise  # a defect: the loop logs it
        if not self.transport.is_closing():
            self._reply(response, keep_alive)

    def _reply(self, response: bytes, keep_alive: bool) -> None:
        """Write one reply; a ``Connection: close`` reply closes the
        connection.  Bytes already behind it are taken up on the loop's
        next pass; otherwise reading resumes, or after the client's EOF
        the connection closes."""
        transport = self.transport
        transport.write(response)
        if not keep_alive:
            transport.close()
            return
        if self._write_paused:
            return
        if self._buffer:
            transport.pause_reading()
            self._scheduled = True
            self._loop.call_soon(self._continue)
        elif self._eof:
            transport.close()
        else:
            transport.resume_reading()


def _line_end(buf: bytearray, start: int, what: str) -> int | None:
    """Offset just past the line starting at ``start``; ``None`` while it
    is incomplete."""
    newline = buf.find(b"\n", start, start + MAX_LINE_BYTES + 1)
    if newline >= 0:
        return newline + 1
    if len(buf) - start > MAX_LINE_BYTES:
        raise _BadRequest(f"{what} too long (over {MAX_LINE_BYTES} bytes)")
    return None


def _parse_head(buf: bytearray) -> tuple[str, str, bool, int, int] | None:
    """The request line and headers at the start of ``buf``:
    ``(method, target, keep_alive, head bytes, body bytes)``, or ``None``
    while the head is incomplete.  Each line is checked as it arrives."""
    end = _line_end(buf, 0, "request line")
    if end is None:
        return None
    parts = buf[:end].decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest("malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    total = 0
    while True:
        start = end
        end = _line_end(buf, start, "header line")
        if end is None:
            return None
        if end - start <= 2 and buf[start:end] in (b"\r\n", b"\n"):
            break
        total += end - start
        if total > MAX_HEADER_BYTES:
            raise _BadRequest("header section too large")
        name, sep, value = buf[start:end].decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise _BadRequest("chunked request bodies are not supported")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as exc:
        raise _BadRequest("malformed Content-Length") from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    keep_alive = headers.get("connection", "").lower() != "close"
    return method, target, keep_alive, end, length


def _route(
    method: str, target: str, body: bytes
) -> tuple[int, dict[str, Any]] | dict[str, Any]:
    """The host request an HTTP request names, or the ``(status,
    payload)`` of a reply the front gives itself."""
    url = urllib.parse.urlsplit(target)
    path = url.path
    if method == "GET":
        if path == "/healthz":  # liveness: never reaches the host
            return 200, {"ok": True}
        op = _GET_OPS.get(path)
        if op is None:
            return 404, {"error": f"no such path {path!r}", "status": 404}
        request: dict[str, Any] = {"op": op}
        for key, value in urllib.parse.parse_qsl(url.query):
            request[key] = value
        return request
    if method == "POST":
        op = _POST_OPS.get(path)
        if op is None:
            return 404, {"error": f"no such path {path!r}", "status": 404}
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}", "status": 400}
        if not isinstance(data, Mapping):
            return 400, {"error": "JSON body must be an object", "status": 400}
        request = dict(data)
        request["op"] = op
        return request
    return 405, {"error": f"method {method} not allowed", "status": 405}


def _response(status: int, payload: Mapping[str, Any], keep_alive: bool) -> bytes:
    data = encode_body(payload)
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + data


async def run_server(
    host: ModelHost,
    *,
    address: str = DEFAULT_ADDRESS,
    port: int = DEFAULT_PORT,
    workers: int = DEFAULT_WORKERS,
    ready: "asyncio.Event | None" = None,
    stop: "asyncio.Event | None" = None,
    announce=None,
) -> None:
    """Start a server, announce readiness, run until ``stop`` is set.

    ``announce(address, port)`` (if given) is called once the socket is
    bound — the CLI prints the listen line through it so scripted clients
    can scrape the ephemeral port.
    """
    server = XpdlHttpServer(host, address=address, port=port, workers=workers)
    bound_address, bound_port = await server.start()
    if announce is not None:
        announce(bound_address, bound_port)
    if ready is not None:
        ready.set()
    try:
        if stop is None:
            await server.serve_forever()
        else:
            await stop.wait()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
