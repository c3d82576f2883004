"""An open-loop HTTP/1.1 load generator over a few keep-alive connections.

Request ``i`` of a phase is *due* at ``t0 + i / rate``.  Each connection
thread takes the next request, waits until it is due, sends it and reads
the reply; when every connection is busy the next request goes out late.
Latency is measured from the due time, so a stall is charged to every
request it delayed, and the generator's lateness (send - due) is kept
to show how far behind it ran.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    status: int
    digest: bytes
    body: bytes | None  # kept for the first request of each key only


class Connection:
    """One keep-alive connection speaking just enough HTTP/1.1."""

    def __init__(self, address: str, port: int) -> None:
        self.sock = socket.create_connection((address, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, raw: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def post(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def run_open_loop(
    send_fns: Sequence[Callable[[bytes], tuple[int, bytes]]],
    requests: Sequence[bytes],
    keys: Sequence[str],
    rate: float,
) -> list[Sample]:
    """Offer ``requests`` at ``rate`` per second, one thread per sender.

    ``send_fns`` are the connections' request functions (tests pass
    fakes).  With ``rate`` infinite every request is due at once, which
    makes a closed loop: each sender sends its next request as soon as
    its reply arrives.  Returns one :class:`Sample` per request, in
    request order.  A request that raises is recorded with status 0.
    """
    n = len(requests)
    samples: list[Sample | None] = [None] * n
    next_index = iter(range(n))
    lock = threading.Lock()
    first_of_key: set[str] = set()
    clock = time.perf_counter
    t0 = clock() + 0.01

    def worker(send: Callable[[bytes], tuple[int, bytes]]) -> None:
        while True:
            with lock:
                i = next(next_index, None)
                keep = i is not None and keys[i] not in first_of_key
                if keep:
                    first_of_key.add(keys[i])
            if i is None:
                return
            due = t0 + i / rate
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            try:
                status, body = send(requests[i])
            except (OSError, ValueError, ConnectionError):
                status, body = 0, b""
            done = clock()
            samples[i] = Sample(
                due, sent, done, status,
                hashlib.blake2b(body, digest_size=16).digest(),
                body if keep else None,
            )

    threads = [threading.Thread(target=worker, args=(fn,)) for fn in send_fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [s for s in samples if s is not None]
