"""Descriptor stores: where ``.xpdl`` files live.

The paper envisions a *distributed* model repository: descriptors are local
files on a search path, but "may, ideally, even be provided for download e.g.
at hardware manufacturer web sites".  A :class:`DescriptorStore` abstracts
one such location; :class:`LocalDirStore` serves a directory tree,
:class:`MemoryStore` serves in-process content (tests, generated models) and
:class:`RemoteSimStore` simulates a manufacturer download site — it accounts
for fetch latency and replays scripted faults from a
:class:`~repro.repository.faultsim.FaultPlan`.

Failures are typed: a :class:`~repro.diagnostics.TransientFetchError` is
retryable (the network blinked), a
:class:`~repro.diagnostics.ResolutionError` is permanent (the store answered
"no such descriptor").  The resilience wrappers compose around that split:

* :class:`RetryingStore` — bounded retries of *transient* errors only, with
  deterministic exponential backoff (accounted, never slept);
* :class:`CircuitBreakerStore` — after N consecutive transient failures it
  opens and fails fast for a cooldown window instead of hammering a dead
  remote;
* :class:`OfflineMirrorStore` — write-through persistence of every fetched
  text under ``.xpdl-cache/mirror/`` so a dead remote degrades to the
  last-known-good copy (with a surfaced notice, never silently);
* :class:`CachingStore` — in-process memoization of fetches *and* the
  listing.

:func:`resilient_stack` builds the canonical composition
``cache(mirror(breaker(retry(remote))))``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..diagnostics import ResolutionError, TransientFetchError
from ..obs import get_observer
from .faultsim import LISTING_PATH, FaultPlan

XPDL_SUFFIX = ".xpdl"

#: Default offline-mirror root, next to the persistent stage cache.
DEFAULT_MIRROR_DIR = os.path.join(".xpdl-cache", "mirror")

#: File suffix of one self-checking record (:func:`write_record`).
RECORD_SUFFIX = ".rec"


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file and
    :func:`os.replace`, so a reader never observes a half-written file."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class RecordError(ValueError):
    """A record file that exists but fails one of its own checks."""


def write_record(path: str, header: dict[str, Any], payload: bytes) -> None:
    """Atomically write one self-checking record: ``header`` plus the
    payload's SHA-256 and size as one JSON line, then the payload."""
    head = dict(
        header, sha256=hashlib.sha256(payload).hexdigest(), size=len(payload)
    )
    line = json.dumps(head, sort_keys=True, separators=(",", ":"))
    atomic_write(path, line.encode("utf-8") + b"\n" + payload)


def read_record(
    path: str, expect: dict[str, Any]
) -> tuple[dict[str, Any], bytes] | None:
    """Header and payload of the record at ``path``, from one read.

    None when no file can be read there.  Raises :class:`RecordError`
    when the file is not one whole record whose header holds every item
    of ``expect``.  Header and payload come from the same read of the
    same file, so a concurrent :func:`os.replace` yields the old record
    or the new one, never a mix.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    line, newline, payload = data.partition(b"\n")
    try:
        header = json.loads(line)
    except ValueError:  # includes UnicodeDecodeError
        header = None
    if not newline or not isinstance(header, dict):
        raise RecordError("unreadable header")
    for name, value in expect.items():
        if header.get(name) != value:
            raise RecordError(
                f"header {name} is {header.get(name)!r}, expected {value!r}"
            )
    if header.get("size") != len(payload):
        raise RecordError("payload size mismatch")
    if header.get("sha256") != hashlib.sha256(payload).hexdigest():
        raise RecordError("payload digest mismatch")
    return header, payload


def files_under(root: str, suffix: str) -> list[str]:
    """Sorted paths of the files below ``root`` whose names end in
    ``suffix`` (an in-flight ``.tmp-`` file never does)."""
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _dirs, names in os.walk(root)
        for name in names
        if name.endswith(suffix)
    )


@dataclass(slots=True)
class StoreNotice:
    """An out-of-band condition a store wants surfaced as a diagnostic.

    Stores have no :class:`~repro.diagnostics.DiagnosticSink`; they record
    notices (e.g. "served from offline mirror") and the repository drains
    them into the sink of whatever operation triggered the fetch.
    """

    message: str
    path: str = ""
    warning: bool = True


class DescriptorStore:
    """Abstract store of named descriptor texts."""

    #: Stable identifier used in provenance and error messages.
    url: str = "store:"

    def list_paths(self) -> list[str]:
        """All descriptor paths (relative, '/'-separated) in this store.

        May raise :class:`TransientFetchError` when the store is remote
        and unreachable.
        """
        raise NotImplementedError

    def fetch(self, path: str) -> str:
        """Return the text of one descriptor.

        Raises :class:`ResolutionError` when the descriptor does not exist
        (permanent) and :class:`TransientFetchError` when the store could
        not be reached (retryable).
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.url

    def stats(self) -> dict[str, Any]:
        """Health/traffic counters for ``xpdl repo stats``."""
        return {}

    # -- notices ------------------------------------------------------------
    def _notice(self, message: str, path: str = "", *, warning: bool = True) -> None:
        self.__dict__.setdefault("_notices", []).append(
            StoreNotice(message, path, warning)
        )

    def drain_notices(self) -> list[StoreNotice]:
        """Pop accumulated notices, innermost (backing) stores first."""
        own: list[StoreNotice] = self.__dict__.pop("_notices", [])
        backing = getattr(self, "backing", None)
        if isinstance(backing, DescriptorStore):
            return backing.drain_notices() + own
        return own


def iter_store_chain(store: DescriptorStore) -> Iterator[DescriptorStore]:
    """A store followed by its transitive ``backing`` chain (outermost first)."""
    current: DescriptorStore | None = store
    while isinstance(current, DescriptorStore):
        yield current
        current = getattr(current, "backing", None)


class MemoryStore(DescriptorStore):
    """An in-memory store, useful for tests and generated descriptors."""

    def __init__(self, files: dict[str, str] | None = None, *, url: str = "mem:") -> None:
        self.url = url
        self._files: dict[str, str] = dict(files or {})

    def put(self, path: str, text: str) -> None:
        self._files[path] = text

    def list_paths(self) -> list[str]:
        return sorted(self._files)

    def fetch(self, path: str) -> str:
        try:
            return self._files[path]
        except KeyError:
            raise ResolutionError(
                f"descriptor {path!r} not found in {self.url}"
            ) from None

    def stats(self) -> dict[str, Any]:
        return {"descriptors": len(self._files)}


class LocalDirStore(DescriptorStore):
    """Serves ``*.xpdl`` files under a directory (the model search path)."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.url = f"file:{self.root}/"

    def list_paths(self) -> list[str]:
        out: list[str] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for fn in filenames:
                if fn.endswith(XPDL_SUFFIX):
                    full = os.path.join(dirpath, fn)
                    out.append(os.path.relpath(full, self.root).replace(os.sep, "/"))
        return sorted(out)

    def fetch(self, path: str) -> str:
        full = os.path.join(self.root, path.replace("/", os.sep))
        if not os.path.isfile(full):
            raise ResolutionError(f"descriptor {path!r} not found in {self.url}")
        with open(full, "r", encoding="utf-8") as fh:
            return fh.read()


@dataclass
class FetchLog:
    """Accounting of simulated remote transfers."""

    fetches: int = 0
    bytes: int = 0
    failures: int = 0
    simulated_latency_s: float = 0.0
    history: list[str] = field(default_factory=list)


class RemoteSimStore(DescriptorStore):
    """Simulated manufacturer web repository.

    Wraps a backing store and models per-request latency plus deterministic
    scripted faults (a :class:`~repro.repository.faultsim.FaultPlan`).
    Injected failures raise :class:`TransientFetchError` — the network
    failed, the descriptor may well exist.  Latency is *accounted*, never
    slept, so tests stay fast while scaling benches can report realistic
    download cost.
    """

    def __init__(
        self,
        backing: DescriptorStore,
        *,
        host: str = "models.example.com",
        latency_s: float = 0.05,
        bandwidth_bps: float = 1e6,
        faults: FaultPlan | None = None,
    ) -> None:
        self.backing = backing
        self.host = host
        self.url = f"https://{host}/"
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self.faults = faults
        self.log = FetchLog()

    def _outcome(self, path: str):
        if self.faults is None:
            return None
        return self.faults.outcome_for(path)

    def list_paths(self) -> list[str]:
        outcome = self._outcome(LISTING_PATH)
        self.log.simulated_latency_s += self.latency_s * (
            outcome.latency_factor if outcome else 1.0
        )
        if outcome and outcome.fail:
            self.log.failures += 1
            get_observer().count("repo.fetch.transient")
            raise TransientFetchError(
                f"simulated transient failure listing {self.url}: {outcome.reason}"
            )
        return self.backing.list_paths()

    def fetch(self, path: str) -> str:
        self.log.fetches += 1
        self.log.history.append(path)
        outcome = self._outcome(path)
        latency_factor = outcome.latency_factor if outcome else 1.0
        if outcome and outcome.fail:
            self.log.failures += 1
            self.log.simulated_latency_s += self.latency_s * latency_factor
            get_observer().count("repo.fetch.transient")
            raise TransientFetchError(
                f"simulated transient failure fetching {self.url}{path}"
                + (f": {outcome.reason}" if outcome.reason else "")
            )
        text = self.backing.fetch(path)
        nbytes = len(text.encode("utf-8"))
        self.log.bytes += nbytes
        self.log.simulated_latency_s += (
            self.latency_s * latency_factor + nbytes / self.bandwidth_bps
        )
        return text

    def stats(self) -> dict[str, Any]:
        return {
            "fetches": self.log.fetches,
            "failures": self.log.failures,
            "bytes": self.log.bytes,
            "simulated_latency_s": round(self.log.simulated_latency_s, 6),
            "faults": self.faults.describe() if self.faults else "none",
        }


class RetryingStore(DescriptorStore):
    """Retries *transient* fetch failures with deterministic backoff.

    Only :class:`TransientFetchError` is retried; a permanent
    :class:`ResolutionError` (the store answered "not found") propagates
    immediately — retrying a miss ``attempts`` times is pure waste and used
    to be this class's signature bug.  Backoff is exponential with seeded
    jitter and — like :class:`RemoteSimStore` latency — *accounted* in
    :attr:`backoff_s`, never slept, so runs stay fast and reproducible.
    """

    def __init__(
        self,
        backing: DescriptorStore,
        *,
        attempts: int = 3,
        base_delay_s: float = 0.05,
        multiplier: float = 2.0,
        jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.backing = backing
        self.attempts = attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.jitter = jitter
        self.seed = seed
        self.url = f"retry({backing.url})"
        self.retries = 0
        self.backoff_s = 0.0

    def _backoff(self, what: str, attempt: int) -> float:
        """Deterministic delay before retry ``attempt`` (0-based) of ``what``."""
        u = random.Random(f"{self.seed}\0{what}\0{attempt}").random()
        return self.base_delay_s * (self.multiplier**attempt) * (1.0 + self.jitter * u)

    def _with_retries(self, what: str, call):
        last: TransientFetchError | None = None
        for attempt in range(self.attempts):
            try:
                return call()
            except TransientFetchError as exc:
                last = exc
                if attempt + 1 < self.attempts:
                    self.retries += 1
                    self.backoff_s += self._backoff(what, attempt)
                    get_observer().count("repo.fetch.retries")
        assert last is not None
        raise last

    def list_paths(self) -> list[str]:
        return self._with_retries(LISTING_PATH, self.backing.list_paths)

    def fetch(self, path: str) -> str:
        return self._with_retries(path, lambda: self.backing.fetch(path))

    def stats(self) -> dict[str, Any]:
        return {
            "retries": self.retries,
            "backoff_s": round(self.backoff_s, 6),
            "attempts": self.attempts,
        }


class CircuitBreakerStore(DescriptorStore):
    """Fails fast after repeated transient failures from the backing store.

    After ``failure_threshold`` *consecutive* transient failures the breaker
    opens: the next ``cooldown_requests`` requests fail immediately (no
    backing traffic, no retry bursts against a dead remote).  The request
    after the cooldown is a half-open probe — success closes the breaker,
    another transient failure reopens it.  Cooldown is counted in requests,
    not wall time, keeping the behaviour deterministic under test.

    A permanent :class:`ResolutionError` resets the consecutive-failure
    count: the remote answered, so it is healthy.
    """

    def __init__(
        self,
        backing: DescriptorStore,
        *,
        failure_threshold: int = 4,
        cooldown_requests: int = 8,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.backing = backing
        self.failure_threshold = failure_threshold
        self.cooldown_requests = cooldown_requests
        self.url = f"breaker({backing.url})"
        self.state = "closed"  # closed | open | half_open
        self.opens = 0
        self.fast_failures = 0
        self._consecutive = 0
        self._cooldown_left = 0

    def _guarded(self, what: str, call):
        obs = get_observer()
        if self.state == "open":
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                self.fast_failures += 1
                obs.count("repo.breaker.fastfail")
                raise TransientFetchError(
                    f"circuit breaker open for {self.backing.url} "
                    f"(cooling down, {self._cooldown_left} request(s) left); "
                    f"not fetching {what!r}"
                )
            self.state = "half_open"
        try:
            value = call()
        except TransientFetchError:
            self._consecutive += 1
            if self.state == "half_open" or self._consecutive >= self.failure_threshold:
                if self.state != "open":
                    self.opens += 1
                    obs.count("repo.breaker.open")
                    # Only the first trip warns; a failed half-open probe
                    # re-opening the breaker is routine while the remote
                    # stays dead and would flood the diagnostics.
                    if self.state == "closed":
                        self._notice(
                            f"circuit breaker opened for {self.backing.url} "
                            f"after {self._consecutive} consecutive transient "
                            "failure(s)",
                            warning=True,
                        )
                self.state = "open"
                self._cooldown_left = self.cooldown_requests
            raise
        except ResolutionError:
            self._consecutive = 0
            raise
        if self.state == "half_open":
            obs.count("repo.breaker.close")
        self.state = "closed"
        self._consecutive = 0
        return value

    def list_paths(self) -> list[str]:
        return self._guarded(LISTING_PATH, self.backing.list_paths)

    def fetch(self, path: str) -> str:
        return self._guarded(path, lambda: self.backing.fetch(path))

    def stats(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "opens": self.opens,
            "fast_failures": self.fast_failures,
            "threshold": self.failure_threshold,
        }


class MirrorIndex:
    """On-disk layout of one offline descriptor mirror: one record per
    mirrored store path, written with :func:`write_record`::

        <root>/ab/<sha256 of the path>.rec  # {version, path, sha256, size} + text

    A record that fails its checks reads as missing (counted as
    ``cache.corrupt``); the next successful fetch of its path rewrites it.
    """

    VERSION = 2

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)

    def record_path(self, path: str) -> str:
        digest = hashlib.sha256(path.encode("utf-8")).hexdigest()
        return os.path.join(self.root, digest[:2], f"{digest}{RECORD_SUFFIX}")

    def _read(self, record: str, **expect: Any) -> tuple[dict[str, Any], bytes] | None:
        try:
            return read_record(record, {"version": self.VERSION, **expect})
        except RecordError:
            get_observer().count("cache.corrupt")
            return None

    def paths(self) -> list[str]:
        """Every store path with an intact record, sorted."""
        found = []
        for record in files_under(self.root, RECORD_SUFFIX):
            read = self._read(record)
            path = read[0].get("path") if read else None
            if isinstance(path, str) and self.record_path(path) == record:
                found.append(path)
        return sorted(found)

    def get(self, path: str) -> str | None:
        """Last-known-good text of ``path``, or None (missing/corrupt)."""
        read = self._read(self.record_path(path), path=path)
        return None if read is None else read[1].decode("utf-8")

    def put(self, path: str, text: str) -> bool:
        """Persist ``text`` as the mirror copy of ``path``.

        Returns True when the mirror changed (new path or new content);
        an identical copy is a cheap no-op.
        """
        data = text.encode("utf-8")
        record = self.record_path(path)
        current = self._read(record, path=path)
        if current is not None and current[1] == data:
            return False
        write_record(record, {"version": self.VERSION, "path": path}, data)
        return True

    def stats(self) -> dict[str, Any]:
        records = files_under(self.root, RECORD_SUFFIX)
        return {
            "path": self.root,
            "entries": len(records),
            "bytes": sum(os.path.getsize(r) for r in records),
        }


class OfflineMirrorStore(DescriptorStore):
    """Write-through offline mirror of a (possibly unreliable) store.

    Every successfully fetched text is persisted in a :class:`MirrorIndex`
    under ``root`` (default ``.xpdl-cache/mirror/``).  When the backing
    store fails *transiently* — retries exhausted, breaker open, remote
    dead — the mirror serves the last-known-good copy and records a notice
    so the repository can surface a WARNING diagnostic instead of silently
    mislabeling the reference.  A permanent not-found propagates: the
    remote answered, and serving a deleted descriptor would be wrong.
    """

    def __init__(self, backing: DescriptorStore, root: str = DEFAULT_MIRROR_DIR) -> None:
        self.backing = backing
        self.mirror = MirrorIndex(root)
        self.url = f"mirror({backing.url})"
        self.mirror_hits = 0
        self.mirror_stores = 0
        self._warned = False

    def _degrade(self, exc: TransientFetchError, what: str) -> None:
        self.mirror_hits += 1
        get_observer().count("repo.mirror.hits")
        if not self._warned:
            self._warned = True
            self._notice(
                f"store {self.backing.url} unreachable; serving last-known-good "
                f"descriptors from the offline mirror at {self.mirror.root} ({exc})",
                warning=True,
            )
        else:
            self._notice(
                f"{what} served from the offline mirror", path=what, warning=False
            )

    def _store(self, path: str, text: str) -> None:
        try:
            if self.mirror.put(path, text):
                self.mirror_stores += 1
                get_observer().count("repo.mirror.stores")
        except OSError as exc:  # a full/read-only disk must not fail the fetch
            self._notice(
                f"offline mirror write failed for {path!r}: {exc}",
                path=path,
                warning=True,
            )

    def list_paths(self) -> list[str]:
        try:
            paths = self.backing.list_paths()
        except TransientFetchError as exc:
            paths = self.mirror.paths()
            if not paths:
                raise
            self._degrade(exc, "<listing>")
            return paths
        self._warned = False
        return paths

    def fetch(self, path: str) -> str:
        try:
            text = self.backing.fetch(path)
        except TransientFetchError as exc:
            cached = self.mirror.get(path)
            if cached is None:
                raise
            self._degrade(exc, path)
            return cached
        self._store(path, text)
        return text

    def stats(self) -> dict[str, Any]:
        return {
            "mirror_hits": self.mirror_hits,
            "mirror_stores": self.mirror_stores,
            **self.mirror.stats(),
        }


class CachingStore(DescriptorStore):
    """Memoizes fetches — and the listing — from a slower backing store."""

    def __init__(self, backing: DescriptorStore) -> None:
        self.backing = backing
        self.url = f"cache({backing.url})"
        self._cache: dict[str, str] = {}
        self._paths: list[str] | None = None
        self.hits = 0
        self.misses = 0
        self.list_hits = 0

    def list_paths(self) -> list[str]:
        if self._paths is not None:
            self.list_hits += 1
            return list(self._paths)
        self._paths = self.backing.list_paths()
        return list(self._paths)

    def fetch(self, path: str) -> str:
        if path in self._cache:
            self.hits += 1
            return self._cache[path]
        self.misses += 1
        text = self.backing.fetch(path)
        self._cache[path] = text
        return text

    def invalidate(self) -> None:
        """Drop the memoized texts and listing; the next request refetches."""
        self._cache.clear()
        self._paths = None

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "list_hits": self.list_hits,
            "entries": len(self._cache),
        }


def resilient_stack(
    backing: DescriptorStore,
    *,
    attempts: int = 3,
    base_delay_s: float = 0.05,
    seed: int = 0,
    breaker_threshold: int = 4,
    breaker_cooldown: int = 8,
    mirror_dir: str | None = None,
    cache: bool = True,
) -> DescriptorStore:
    """The canonical resilience composition around an unreliable store.

    ``cache(mirror(breaker(retry(backing))))`` — retries absorb short
    transient bursts, the breaker stops retry storms against a dead remote,
    the mirror degrades to last-known-good texts, and the cache keeps the
    whole stack off the hot path after the first fetch.  ``mirror_dir=None``
    omits the mirror layer; ``cache=False`` the memoization.
    """
    store: DescriptorStore = RetryingStore(
        backing, attempts=attempts, base_delay_s=base_delay_s, seed=seed
    )
    store = CircuitBreakerStore(
        store,
        failure_threshold=breaker_threshold,
        cooldown_requests=breaker_cooldown,
    )
    if mirror_dir:
        store = OfflineMirrorStore(store, mirror_dir)
    if cache:
        store = CachingStore(store)
    return store


def store_from_paths(paths: Iterable[str]) -> list[DescriptorStore]:
    """Build LocalDirStores for each existing directory on a search path."""
    return [LocalDirStore(p) for p in paths if os.path.isdir(p)]
