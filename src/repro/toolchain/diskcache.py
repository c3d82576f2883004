"""Persistent on-disk stage cache shared between toolchain invocations.

The in-session stage cache (:mod:`repro.toolchain.session`) dies with the
process; batch compilation over thousands of models only pays off when a
stage artifact computed by *one* invocation — or one worker of a parallel
build — is reusable by the next.  A :class:`PersistentStageCache` stores
each stage artifact as one record file under a cache directory (default
``.xpdl-cache/``)::

    .xpdl-cache/
        stages/<stage>/<sha256>.rec  # one record per (stage, identifier, options)
        images/ab/<sha256>.xir       # content-addressed runtime images

Design points:

* **Keying** mirrors the session cache: a record's path is derived from
  ``(stage, identifier, frozen-options)``, and its header carries the
  SHA-256 *source fingerprint* over the transitive ``.xpdl`` texts the
  stage consumed.  The fingerprint is recomputed against the live
  repository on every lookup, so touching any referenced descriptor
  invalidates exactly the entries that depended on it, and the recompute
  overwrites the record: the cache holds one record per live key.
* **Records** (:func:`~repro.repository.store.write_record`): a one-line
  JSON header (schema version, pickle protocol, the key, fingerprint,
  sources, payload SHA-256 and size) followed by the pickle, moved into
  place with :func:`os.replace` and read back in one read.  A reader sees
  a whole record, old or new, never one record's header with another's
  payload.  There is no index, so nothing is merged or locked: two
  processes storing one key both write a whole record, and the last
  rename wins.
* **Versioning**: a record from another :data:`CACHE_SCHEMA_VERSION` or
  pickle protocol, or one that fails its size or digest check, reads as a
  miss counted as ``cache.corrupt`` and is overwritten by the recompute.
  Schema 3 and older kept an ``index.json`` and ``objects/``, which this
  version never reads, so such a cache reads as empty.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
from dataclasses import dataclass, field
from typing import Any

from ..ir.image import verify_image
from ..obs import get_observer
from ..repository.store import (
    RECORD_SUFFIX,
    RecordError,
    atomic_write,
    files_under,
    read_record,
    write_record,
)

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

#: Bump whenever the record layout or the pickled artifact schema changes;
#: records written by other versions read as misses and are rewritten,
#: never misread.  Version 2: pickled ``Quantity`` values carry
#: ``written``.  Version 3: compositions pickle without their repository
#: and sink.  Version 4: one record file per key, no index.  Version 5: an
#: ``emit_ir`` record holds the runtime image alone, not a copy of the
#: composition and a node list beside it.
CACHE_SCHEMA_VERSION = 5

#: Fixed pickle protocol so every writer produces compatible records.
PICKLE_PROTOCOL = 4

STAGES_DIR = "stages"
IMAGES_DIR = "images"
#: What schema 3 and older kept beside ``images/``; ``clear`` drops it.
LEGACY_NAMES = ("index.json", "objects", ".lock")

DEFAULT_CACHE_DIR = ".xpdl-cache"


@dataclass(frozen=True, slots=True)
class DiskEntry:
    """One persisted stage record, read whole by
    :meth:`PersistentStageCache.lookup`."""

    stage: str
    identifier: str
    options: str
    fingerprint: str
    sources: tuple[str, ...]
    payload: bytes = field(repr=False)


class PersistentStageCache:
    """Stage artifacts that survive between toolchain invocations."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        #: The last :class:`OSError` that kept :meth:`store` from writing.
        self.write_error: OSError | None = None

    # -- paths -------------------------------------------------------------
    @property
    def stages_root(self) -> str:
        return os.path.join(self.root, STAGES_DIR)

    @property
    def images_root(self) -> str:
        return os.path.join(self.root, IMAGES_DIR)

    def record_path(self, stage: str, identifier: str, options: str) -> str:
        """Where the record of one (stage, identifier, options) key lives."""
        digest = hashlib.sha256(
            f"{identifier}\0{options}".encode("utf-8")
        ).hexdigest()
        return os.path.join(self.stages_root, stage, f"{digest}{RECORD_SUFFIX}")

    def image_path(self, key: str) -> str:
        """Content-addressed location of one runtime image (v2 ``.xir``)."""
        return os.path.join(self.images_root, key[:2], f"{key}.xir")

    def _entry(self, path: str, **expect: str) -> DiskEntry | None:
        """The record at ``path``, None when there is none; raises
        :class:`RecordError` when it fails a check."""
        read = read_record(
            path,
            {"version": CACHE_SCHEMA_VERSION, "protocol": PICKLE_PROTOCOL, **expect},
        )
        if read is None:
            return None
        header, payload = read
        try:
            return DiskEntry(
                stage=str(header["stage"]),
                identifier=str(header["identifier"]),
                options=str(header["options"]),
                fingerprint=str(header["fingerprint"]),
                sources=tuple(map(str, header["sources"])),
                payload=payload,
            )
        except (KeyError, TypeError) as exc:
            raise RecordError(f"header lacks {exc}") from None

    # -- the cache protocol -------------------------------------------------
    def lookup(
        self, stage: str, identifier: str, options: str
    ) -> DiskEntry | None:
        """The record of the triple, or None.  The caller must still
        check the entry's fingerprint against the live sources.

        A record that fails its checks reads as a miss and bumps the
        ``cache.corrupt`` counter, so a cache that is quietly rotting
        shows up in ``xpdl stats``/``/stats`` instead of degrading to
        permanent recomputation.
        """
        path = self.record_path(stage, identifier, options)
        try:
            return self._entry(
                path, stage=stage, identifier=identifier, options=options
            )
        except RecordError:
            get_observer().count("cache.corrupt")
            return None

    def load(self, entry: DiskEntry) -> tuple[bool, Any]:
        """Deserialize an entry's artifact.

        Returns ``(ok, value)``; a payload that does not unpickle reads as
        a miss (``ok=False``) counted as ``cache.corrupt``, never an
        exception — the caller recomputes.
        """
        try:
            return True, pickle.loads(entry.payload)
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
        """Persist one stage artifact over its key's record; False when
        it cannot be pickled or written (see :attr:`write_error`)."""
        try:
            data = pickle.dumps(value, protocol=PICKLE_PROTOCOL)
        except PICKLE_ERRORS:
            get_observer().count("cache.unpicklable")
            return False
        header = {
            "version": CACHE_SCHEMA_VERSION,
            "protocol": PICKLE_PROTOCOL,
            "stage": stage,
            "identifier": identifier,
            "options": options,
            "fingerprint": fingerprint,
            "sources": list(sources),
        }
        try:
            write_record(self.record_path(stage, identifier, options), header, data)
        except OSError as exc:
            get_observer().count("cache.write_errors")
            self.write_error = exc
            return False
        return True

    # -- runtime images ------------------------------------------------------
    def store_image(self, data: bytes) -> str:
        """Persist one serialized v2 runtime image; returns its key.

        Content-addressed by SHA-256 and written atomically — concurrent
        build workers emitting the same model write identical files, and
        a reader never maps a torn image.
        """
        key = hashlib.sha256(data).hexdigest()
        path = self.image_path(key)
        if not os.path.exists(path):
            atomic_write(path, data)
            get_observer().count("cache.image_stores")
        return key

    def find_image(self, key: str) -> str | None:
        """Path of a persisted image, for an application to map with
        :func:`~repro.runtime.xpdl_init`, or None (a cold cache, not an
        error)."""
        path = self.image_path(key)
        return path if os.path.exists(path) else None

    # -- maintenance (xpdl cache …) -----------------------------------------
    def stats(self) -> dict[str, Any]:
        """Summary counts for ``xpdl cache stats``: records and their
        bytes on disk, per stage, plus the images."""
        records = files_under(self.stages_root, RECORD_SUFFIX)
        by_stage: dict[str, int] = {}
        for path in records:
            stage = os.path.basename(os.path.dirname(path))
            by_stage[stage] = by_stage.get(stage, 0) + 1
        images = files_under(self.images_root, ".xir")
        return {
            "path": self.root,
            "version": CACHE_SCHEMA_VERSION,
            "entries": len(records),
            "bytes": sum(os.path.getsize(p) for p in records),
            "stages": dict(sorted(by_stage.items())),
            "images": len(images),
            "image_bytes": sum(os.path.getsize(p) for p in images),
        }

    def clear(self) -> int:
        """Drop every record and image (and a schema-3 index and its
        blobs); returns the number of records and images removed."""
        n = len(files_under(self.stages_root, RECORD_SUFFIX))
        n += len(files_under(self.images_root, ".xir"))
        for name in (STAGES_DIR, IMAGES_DIR, *LEGACY_NAMES):
            path = os.path.join(self.root, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            elif os.path.lexists(path):
                os.unlink(path)
        return n

    def verify(self) -> tuple[int, list[str]]:
        """Check that every record is whole, current and stored under its
        own key, and that every runtime image matches its digest and
        section checksums.

        Returns ``(items_checked, problems)``; an empty problem list
        means the cache is internally consistent.
        """
        problems: list[str] = []
        records = files_under(self.stages_root, RECORD_SUFFIX)
        for path in records:
            name = os.path.relpath(path, self.root)
            try:
                entry = self._entry(path)
            except RecordError as exc:
                problems.append(f"{name}: {exc}")
                continue
            if entry is None:
                problems.append(f"{name}: unreadable")
            elif path != self.record_path(
                entry.stage, entry.identifier, entry.options
            ):
                problems.append(f"{name}: not stored under its own key")
        images = files_under(self.images_root, ".xir")
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
        return len(records) + len(images), problems


def open_cache(cache_dir: str | None) -> PersistentStageCache | None:
    """A cache for ``cache_dir``, or None when caching is disabled."""
    if not cache_dir:
        return None
    return PersistentStageCache(cache_dir)
