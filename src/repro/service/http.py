"""The ``xpdl serve`` daemon: an asyncio HTTP/JSON front over ModelHost.

Stdlib only — one ``asyncio.start_server`` accept loop parsing a strict
subset of HTTP/1.1 (keep-alive, ``Content-Length`` bodies, no chunked
encoding).  A hot request (``query``/``info``/``analysis``, or a batch of
them, on hosted fresh models while the host lock is free) is answered on
the event loop by :meth:`~repro.service.core.ModelHost.handle_inline`:
its handler work is far shorter than a hand-off to another thread.
Everything else — cold or stale models, ``compose``, ``doctor``,
``models``, ``stats`` — goes to a thread pool running
:meth:`~repro.service.core.ModelHost.handle`, so toolchain work never
blocks the loop.  ``service.dispatch.inline`` and
``service.dispatch.pool`` count the split.

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
import json
import urllib.parse
from typing import Any, Mapping

from .core import ModelHost

#: Default listen address, port and request worker threads of ``xpdl serve``.
DEFAULT_ADDRESS = "127.0.0.1"
DEFAULT_PORT = 8790
DEFAULT_WORKERS = 4

#: Request body ceiling — far above any legitimate batch, far below abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Header-section ceiling per request.
MAX_HEADER_BYTES = 64 * 1024

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

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (address, port).

        Passing ``port=0`` binds an ephemeral port — tests and the
        benchmark use that to avoid collisions.
        """
        self._server = await asyncio.start_server(
            self._serve_client, self.address, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        return self.address, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- per-connection loop -------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await _read_request(reader)
                except _BadRequest as exc:
                    await _write_response(
                        writer, 400, {"error": str(exc), "status": 400}, False
                    )
                    break
                if parsed is None:
                    break
                method, target, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload = await self._respond(method, target, body)
                await _write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        url = urllib.parse.urlsplit(target)
        path = url.path
        if method == "GET":
            if path == "/healthz":  # liveness: never blocks on the pool
                return 200, {"ok": True}
            op = _GET_OPS.get(path)
            if op is None:
                return 404, {"error": f"no such path {path!r}", "status": 404}
            request: dict[str, Any] = {"op": op}
            for key, values in urllib.parse.parse_qs(url.query).items():
                request[key] = values[-1]
            return await self._dispatch(request)
        if method == "POST":
            op = _POST_OPS.get(path)
            if op is None:
                return 404, {"error": f"no such path {path!r}", "status": 404}
            try:
                data = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {
                    "error": f"invalid JSON body: {exc}",
                    "status": 400,
                }
            if not isinstance(data, Mapping):
                return 400, {
                    "error": "JSON body must be an object",
                    "status": 400,
                }
            request = dict(data)
            request["op"] = op
            return await self._dispatch(request)
        return 405, {"error": f"method {method} not allowed", "status": 405}

    async def _dispatch(
        self, request: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        # Both counters are written only here, on the loop thread.
        observer = self.host.observer
        answered = self.host.handle_inline(request)
        if answered is not None:
            observer.count("service.dispatch.inline")
            return answered
        observer.count("service.dispatch.pool")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.host.handle, request
        )


async def _readline(reader: asyncio.StreamReader, what: str) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # line longer than the stream limit
        raise _BadRequest(f"{what} too long: {exc}") from exc


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request off the stream; None on clean EOF."""
    line = await _readline(reader, "request line")
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest("malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    total = 0
    while True:
        raw = await _readline(reader, "header line")
        if raw in (b"\r\n", b"\n", b""):
            break
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise _BadRequest("header section too large")
        name, sep, value = raw.decode("latin-1").partition(":")
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
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Mapping[str, Any],
    keep_alive: bool,
) -> None:
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        500: "Internal Server Error",
    }.get(status, "Error")
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + data)
    await writer.drain()


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
