"""Persistent on-disk stage cache shared between toolchain invocations.

The in-session stage cache (:mod:`repro.toolchain.session`) dies with the
process; batch compilation over thousands of models only pays off when a
stage artifact computed by *one* invocation — or one worker of a parallel
build — is reusable by the next.  A :class:`PersistentStageCache` stores
pickled stage values under a cache directory (default ``.xpdl-cache/``)::

    .xpdl-cache/
        index.json              # entry metadata, version-stamped
        objects/ab/abcdef....bin  # content-addressed pickle blobs

Design points:

* **Keying** mirrors the session cache: an entry is addressed by
  ``(stage, identifier, frozen-options)`` and guarded by the SHA-256
  *source fingerprint* over the transitive ``.xpdl`` texts the stage
  consumed.  The fingerprint is recomputed against the live repository on
  every lookup, so touching any referenced descriptor invalidates exactly
  the entries that depended on it.
* **Atomicity**: blobs and the index are written to a temp file in the
  cache directory and moved into place with :func:`os.replace`, so a
  reader never observes a half-written file.  Blobs are content-addressed
  (named by the SHA-256 of their bytes): two processes storing the same
  artifact concurrently write identical files.
* **Concurrency**: index updates re-read the on-disk index and merge the
  new entry before replacing the file, serialized by an advisory
  ``fcntl`` lock where available (gated import; plain merge-and-replace
  elsewhere).  Losing a race costs at most a recomputation, never a
  corrupt index.
* **Versioning**: the index carries :data:`CACHE_SCHEMA_VERSION` and the
  pickle protocol; a mismatch (schema change, older writer) makes the
  whole cache read as empty so it is rebuilt cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from typing import Any, Callable

from ..ir.image import verify_image
from ..obs import get_observer
from ..repository.store import atomic_write, index_lock

#: What a truncated/garbled/foreign pickle blob actually raises.  Bare
#: ``Exception`` here used to swallow real bugs (a KeyboardInterrupt-adjacent
#: MemoryError, an attribute typo in a __setstate__) as silent cache misses.
UNPICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,  # truncated blob
    AttributeError,  # class moved/renamed since the blob was written
    ImportError,  # defining module gone
    IndexError,  # corrupt opcode stream
    ValueError,  # bad frame/protocol markers
    TypeError,  # state shape no longer matches
)

#: What an unpicklable stage value actually raises at store time.
PICKLE_ERRORS = (
    pickle.PicklingError,
    AttributeError,  # local/lambda attribute lookup
    TypeError,  # unpicklable member (lock, generator, ...)
    RecursionError,  # pathological cyclic value
)

#: Bump whenever the index layout or the pickled artifact schema changes;
#: caches written by other versions are ignored (and rebuilt), never
#: misread.  Version 2: pickled ``Quantity`` values carry ``written``.
#: Version 3: compositions pickle without their repository and sink.
CACHE_SCHEMA_VERSION = 3

#: Fixed pickle protocol so every writer produces compatible blobs.
PICKLE_PROTOCOL = 4

INDEX_NAME = "index.json"
OBJECTS_DIR = "objects"
IMAGES_DIR = "images"

DEFAULT_CACHE_DIR = ".xpdl-cache"


@dataclass(frozen=True, slots=True)
class DiskEntry:
    """Metadata of one persisted stage artifact."""

    key: str
    stage: str
    identifier: str
    options: str
    fingerprint: str
    sources: tuple[str, ...]
    blob: str
    size: int
    sha256: str

    def to_json(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "identifier": self.identifier,
            "options": self.options,
            "fingerprint": self.fingerprint,
            "sources": list(self.sources),
            "blob": self.blob,
            "size": self.size,
            "sha256": self.sha256,
        }

    @staticmethod
    def from_json(key: str, data: dict[str, Any]) -> "DiskEntry":
        return DiskEntry(
            key=key,
            stage=str(data["stage"]),
            identifier=str(data["identifier"]),
            options=str(data["options"]),
            fingerprint=str(data["fingerprint"]),
            sources=tuple(data["sources"]),
            blob=str(data["blob"]),
            size=int(data["size"]),
            sha256=str(data["sha256"]),
        )


def entry_key(stage: str, identifier: str, options: str) -> str:
    """Stable index key for one (stage, identifier, options) triple."""
    digest = hashlib.sha256(options.encode("utf-8")).hexdigest()[:16]
    return f"{stage}::{identifier}::{digest}"


class PersistentStageCache:
    """Stage artifacts that survive between toolchain invocations."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self._entries: dict[str, DiskEntry] | None = None

    # -- paths -------------------------------------------------------------
    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    @property
    def objects_root(self) -> str:
        return os.path.join(self.root, OBJECTS_DIR)

    @property
    def images_root(self) -> str:
        return os.path.join(self.root, IMAGES_DIR)

    def _blob_path(self, blob: str) -> str:
        return os.path.join(self.objects_root, blob.replace("/", os.sep))

    def image_path(self, key: str) -> str:
        """Content-addressed location of one runtime image (v2 ``.xir``)."""
        return os.path.join(self.images_root, key[:2], f"{key}.xir")

    # -- index I/O ---------------------------------------------------------
    def _read_index(self) -> dict[str, DiskEntry]:
        """Parse the on-disk index; any defect reads as an empty cache."""
        try:
            with open(self.index_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        if data.get("version") != CACHE_SCHEMA_VERSION:
            return {}
        if data.get("pickle_protocol") != PICKLE_PROTOCOL:
            return {}
        entries: dict[str, DiskEntry] = {}
        for key, raw in (data.get("entries") or {}).items():
            try:
                entries[key] = DiskEntry.from_json(key, raw)
            except (KeyError, TypeError, ValueError):
                continue  # skip one malformed entry, keep the rest
        return entries

    def _write_index(self, entries: dict[str, DiskEntry]) -> None:
        os.makedirs(self.root, exist_ok=True)
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "pickle_protocol": PICKLE_PROTOCOL,
            "entries": {k: e.to_json() for k, e in sorted(entries.items())},
        }
        atomic_write(
            self.index_path,
            json.dumps(payload, indent=1, sort_keys=True).encode("utf-8"),
        )

    def entries(self, *, refresh: bool = False) -> dict[str, DiskEntry]:
        """The index, loaded lazily once per cache object."""
        if self._entries is None or refresh:
            self._entries = self._read_index()
        return self._entries

    # -- the cache protocol -------------------------------------------------
    def lookup(
        self, stage: str, identifier: str, options: str
    ) -> DiskEntry | None:
        """Entry metadata for the triple, or None.  The caller must still
        check the entry's fingerprint against the live sources."""
        return self.entries().get(entry_key(stage, identifier, options))

    def load(self, entry: DiskEntry) -> tuple[bool, Any]:
        """Deserialize an entry's artifact.

        Returns ``(ok, value)``; a missing or corrupt blob reads as a miss
        (``ok=False``), never an exception — the caller recomputes.  Every
        corruption path bumps the ``cache.corrupt`` counter so a cache
        that is quietly rotting shows up in ``xpdl stats``/``/stats``
        instead of degrading to permanent recomputation.
        """
        try:
            with open(self._blob_path(entry.blob), "rb") as fh:
                data = fh.read()
        except OSError:
            get_observer().count("cache.corrupt")
            return False, None
        if hashlib.sha256(data).hexdigest() != entry.sha256:
            get_observer().count("cache.corrupt")
            return False, None
        try:
            return True, pickle.loads(data)
        except UNPICKLE_ERRORS:
            get_observer().count("cache.corrupt")
            return False, None

    def store(
        self,
        stage: str,
        identifier: str,
        options: str,
        fingerprint: str,
        sources: tuple[str, ...],
        value: Any,
    ) -> bool:
        """Persist one stage artifact; False when it cannot be pickled."""
        try:
            data = pickle.dumps(value, protocol=PICKLE_PROTOCOL)
        except PICKLE_ERRORS:
            get_observer().count("cache.unpicklable")
            return False
        digest = hashlib.sha256(data).hexdigest()
        blob = f"{digest[:2]}/{digest}.bin"
        path = self._blob_path(blob)
        if not os.path.exists(path):
            atomic_write(path, data)
        entry = DiskEntry(
            key=entry_key(stage, identifier, options),
            stage=stage,
            identifier=identifier,
            options=options,
            fingerprint=fingerprint,
            sources=tuple(sources),
            blob=blob,
            size=len(data),
            sha256=digest,
        )
        with index_lock(self.root):
            merged = self._read_index()
            merged[entry.key] = entry
            self._write_index(merged)
        self._entries = None  # next lookup sees the merged view
        return True

    # -- runtime images ------------------------------------------------------
    def store_image(self, data: bytes) -> str:
        """Persist one serialized v2 runtime image; returns its key.

        Content-addressed by SHA-256 and written atomically, exactly like
        stage blobs — concurrent build workers emitting the same model
        write identical files, and a reader never maps a torn image.
        """
        key = hashlib.sha256(data).hexdigest()
        path = self.image_path(key)
        if not os.path.exists(path):
            atomic_write(path, data)
            get_observer().count("cache.image_stores")
        return key

    def find_image(self, key: str) -> str | None:
        """Path of a persisted image, or None (caller falls back to a
        live build — a missing image is a cold cache, not an error)."""
        if not key:
            return None
        path = self.image_path(key)
        return path if os.path.exists(path) else None

    def _image_files(self) -> list[str]:
        out: list[str] = []
        root = self.images_root
        if not os.path.isdir(root):
            return out
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                if name.endswith(".xir"):
                    out.append(os.path.join(dirpath, name))
        return sorted(out)

    # -- maintenance (xpdl cache …) -----------------------------------------
    def stats(self) -> dict[str, Any]:
        """Summary counts for ``xpdl cache stats``."""
        entries = self.entries(refresh=True)
        by_stage: dict[str, int] = {}
        total = 0
        for e in entries.values():
            by_stage[e.stage] = by_stage.get(e.stage, 0) + 1
            total += e.size
        images = self._image_files()
        return {
            "path": self.root,
            "version": CACHE_SCHEMA_VERSION,
            "entries": len(entries),
            "bytes": total,
            "stages": dict(sorted(by_stage.items())),
            "images": len(images),
            "image_bytes": sum(os.path.getsize(p) for p in images),
        }

    def clear(self) -> int:
        """Drop every entry, blob and image; returns the number removed."""
        with index_lock(self.root):
            n = len(self._read_index()) + len(self._image_files())
            shutil.rmtree(self.objects_root, ignore_errors=True)
            shutil.rmtree(self.images_root, ignore_errors=True)
            self._write_index({})
        self._entries = None
        return n

    def verify(self) -> tuple[int, list[str]]:
        """Check every entry's blob — and every runtime image — exists
        and matches its digest; images additionally get their section
        checksums verified.

        Returns ``(items_checked, problems)``; an empty problem list
        means the cache is internally consistent.
        """
        problems: list[str] = []
        entries = self.entries(refresh=True)
        for key, entry in sorted(entries.items()):
            path = self._blob_path(entry.blob)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                problems.append(f"{key}: missing blob {entry.blob}")
                continue
            if hashlib.sha256(data).hexdigest() != entry.sha256:
                problems.append(f"{key}: blob digest mismatch {entry.blob}")
            elif len(data) != entry.size:
                problems.append(f"{key}: blob size mismatch {entry.blob}")
        images = self._image_files()
        for path in images:
            name = os.path.basename(path)[: -len(".xir")]
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                problems.append(f"image {name[:12]}: unreadable")
                continue
            if hashlib.sha256(data).hexdigest() != name:
                problems.append(f"image {name[:12]}: content digest mismatch")
            for defect in verify_image(data):
                problems.append(f"image {name[:12]}: {defect}")
        return len(entries) + len(images), problems

    # -- hooks for tests ------------------------------------------------------
    def stamp_version(self, version: int) -> None:
        """Rewrite the index claiming ``version`` (schema-change tests)."""
        entries = self._read_index()
        payload = {
            "version": version,
            "pickle_protocol": PICKLE_PROTOCOL,
            "entries": {k: e.to_json() for k, e in entries.items()},
        }
        atomic_write(
            self.index_path, json.dumps(payload).encode("utf-8")
        )
        self._entries = None


def open_cache(
    cache_dir: str | None,
    factory: Callable[[str], PersistentStageCache] = PersistentStageCache,
) -> PersistentStageCache | None:
    """A cache for ``cache_dir``, or None when caching is disabled."""
    if not cache_dir:
        return None
    return factory(cache_dir)
