"""The ``XPDLRT02`` zero-copy runtime image: IR records *plus* index.

Every runtime model is opened over one of these images.  Its index
artifacts (pre-order numbering, subtree sizes, kind buckets, attribute
node-set indexes, id and sorted-string tables) are serialized *next to*
the record region as aligned, offset-addressed sections, so a reader can
``mmap`` the file and view every table in place as u32 arrays — no
parsing, no allocation proportional to model size.  This module is the
only one that knows the layout: :func:`build_image` writes it, and
:func:`open_image` reads it.

File layout (all integers little-endian u32 unless noted)::

    0   8   magic  b"XPDLRT02"
    8   4   total file length in bytes
    12  4   section count
    16  4   crc32 of the section table bytes
    20  4   reserved (zero)
    24  16*count  section table: (tag, offset, length, crc32) per section
    ...      sections, 8-byte aligned, zero padding between

Section tags are four ASCII bytes.  **Core** sections describe the
model itself and are validated strictly — any defect raises
:class:`~repro.diagnostics.QueryError`:

    ``META``  k/v string pairs (u32 count, then len-prefixed UTF-8)
    ``SPOL``  string pool: u32 count, u32 offsets[count+1], UTF-8 blob
    ``RECS``  u32 n, kind strid[n], parent[n] (0xFFFFFFFF = none),
              attr offset[n+1] (in pairs)
    ``ATTR``  (name strid, value strid) u32 pairs, grouped per node
    ``CHLD``  u32 child offset[n+1], child node indexes

**Index** sections are derived from the core records alone, by one
function (:func:`_index_sections`) that both the writer and the reader
call.  A missing section, or a checksum or shape defect there, makes
the open rebuild them from the core sections (with a
:class:`XirImageWarning` and the ``index.rebuilds`` counter) — never a
wrong answer:

    ``SSRT``  strids sorted by UTF-8 bytes (string -> strid bisection)
    ``PREO``  pre-order position per node (0xFFFFFFFF = unreachable)
    ``SIZE``  subtree size per node (self included)
    ``DOCO``  node index per document position
    ``KNDB``  u32 nkinds, (kind strid, start, count) sorted by strid,
              then all doc positions, then all node indexes
    ``AHAS``  u32 nnames, (name strid, start, count) sorted by strid,
              then node indexes (each run sorted ascending)
    ``AEQV``  u32 npairs, (name strid, value strid, start, count)
              sorted by (name, value) strid, then node indexes
    ``IDTB``  u32 nids, (id strid, node index) sorted by id strid

Nodes unreachable from the root (node 0) have no document position and
are in no kind bucket or attribute run; the id table holds every node.
Every per-section crc32 is verified at open (C speed, one pass over the
file), so a bit flip is caught before any structure is trusted.
"""

from __future__ import annotations

import array
import struct
import sys
import warnings
import zlib
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter, sub
from typing import Any

from ..diagnostics import QueryError
from ..obs import get_observer

MAGIC_V2 = b"XPDLRT02"

#: The root's parent in ``RECS``.
_NO_PARENT = 0xFFFFFFFF
#: The ``PREO`` position of a node unreachable from the root.
_UNREACHABLE = 0xFFFFFFFF
_HEADER_LEN = 24
_TABLE_ENTRY = struct.Struct("<IIII")
_ALIGN = 8

#: Sanity bound on the section count — the format defines 13 sections;
#: a header claiming more is corruption, not a bigger model.
_MAX_SECTIONS = 64

CORE_SECTIONS = ("META", "SPOL", "RECS", "ATTR", "CHLD")
INDEX_SECTIONS = (
    "SSRT",
    "PREO",
    "SIZE",
    "DOCO",
    "KNDB",
    "AHAS",
    "AEQV",
    "IDTB",
)


class XirImageWarning(UserWarning):
    """A v2 runtime image was opened but its index sections were unusable.

    The model still loads (core sections are intact) and every query
    stays correct — the index sections are rebuilt from the core
    sections, costing the O(model) startup the image was supposed to
    avoid.  Loud by design."""


def _tag_u32(tag: str) -> int:
    return int.from_bytes(tag.encode("ascii"), "little")


def _tag_str(value: int) -> str:
    return value.to_bytes(4, "little").decode("ascii", "replace")


def _crc(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _u32_bytes(values) -> bytes:
    """Little-endian u32 encoding of a sequence of ints."""
    a = array.array("I", values)
    if sys.byteorder == "big":  # pragma: no cover - BE platforms
        a.byteswap()
    return a.tobytes()


if sys.byteorder == "little":

    def _u32_view(mv: memoryview):
        """Zero-copy u32 view over a (4-aligned-length) byte view."""
        return mv.cast("I")

else:  # pragma: no cover - BE platforms copy + byteswap instead

    def _u32_view(mv: memoryview):
        a = array.array("I")
        a.frombytes(bytes(mv))
        a.byteswap()
        return a


class LazyStrings:
    """The string pool, decoded one string at a time on first touch."""

    __slots__ = ("_offsets", "_blob", "_memo")

    def __init__(self, offsets, blob: memoryview) -> None:
        self._offsets = offsets
        self._blob = blob
        self._memo: list[str | None] = [None] * (len(offsets) - 1)

    def __len__(self) -> int:
        return len(self._memo)

    def __getitem__(self, sid: int) -> str:
        s = self._memo[sid]
        if s is None:
            off = self._offsets
            s = self._memo[sid] = str(
                self._blob[off[sid] : off[sid + 1]], "utf-8"
            )
        return s

    def raw(self, sid: int) -> bytes:
        """The UTF-8 bytes of one pool string (no decode, no memo)."""
        off = self._offsets
        return bytes(self._blob[off[sid] : off[sid + 1]])


class IRImage:
    """A parsed (and checksum-verified) v2 runtime image.

    Holds zero-copy u32 views over the underlying buffer; consumers
    (:class:`~repro.ir.IRModel` lazy nodes,
    :class:`~repro.runtime.index.IRIndex`) index into these views
    directly.  ``index_ok`` is False when any index section failed
    verification — the core model is intact, and :func:`open_image`
    rebuilds the index sections from it.
    """

    __slots__ = (
        "buffer",
        "nbytes",
        "meta",
        "n",
        "kind_ids",
        "parents",
        "attr_off",
        "attr_pairs",
        "child_off",
        "child_idx",
        "pool",
        "index_ok",
        "index_problem",
        "ssrt",
        "pre",
        "size",
        "doc",
        "buckets",
        "_core",
        "_ahas_hdr",
        "_ahas_data",
        "_aeqv",
        "_idtb",
        "_str_ids",
        "_id_memo",
    )

    # The u32 table views are memoryviews on LE hosts, array.array on BE
    # (byteswapped copies), and None while the index is unusable — typed
    # as Any so both backends satisfy one declaration.
    ssrt: Any
    pre: Any
    size: Any
    doc: Any
    _ahas_data: Any
    _aeqv: Any
    _idtb: Any

    def __init__(self, buffer) -> None:
        self.buffer = buffer
        mv = memoryview(buffer)
        self.nbytes = len(mv)
        raw, bad = self._read_sections(mv)

        def core(tag: str) -> memoryview:
            sec = raw.get(tag)
            if sec is None:
                raise QueryError(
                    "corrupt XPDL v2 runtime image: core section "
                    f"{tag} {bad.get(tag, 'missing')}"
                )
            return sec

        self._core = [core(tag) for tag in CORE_SECTIONS]
        self.meta = self._parse_meta(core("META"))
        self.pool = self._parse_pool(core("SPOL"))
        self._parse_records(core("RECS"), core("ATTR"), core("CHLD"))

        self.index_ok = True
        self.index_problem: str | None = None
        self.ssrt = self.pre = self.size = self.doc = None
        self.buckets: dict[str, tuple] = {}
        self._ahas_hdr: dict[str, tuple[int, int]] = {}
        self._ahas_data = None
        self._aeqv = None
        self._idtb = None
        self._str_ids: dict[str, int | None] = {}
        self._id_memo: dict[str, int | None] = {}
        try:
            self._parse_index(raw, bad)
        except _IndexDefect as defect:
            self.index_ok = False
            self.index_problem = str(defect)

    # -- parsing -----------------------------------------------------------
    @staticmethod
    def _read_sections(
        mv: memoryview,
    ) -> tuple[dict[str, memoryview], dict[str, str]]:
        """Split the buffer into crc-verified sections.

        Header/table defects raise; per-section defects are recorded in
        the second mapping so callers can decide (strict for core,
        rebuild for index sections).
        """
        rows = read_section_table(mv)
        (total,) = struct.unpack_from("<I", mv, 8)
        if total != len(mv):
            raise QueryError(
                "truncated XPDL v2 runtime image: file is "
                f"{len(mv)} bytes, header claims {total}"
            )
        table_end = _HEADER_LEN + _TABLE_ENTRY.size * len(rows)
        raw: dict[str, memoryview] = {}
        bad: dict[str, str] = {}
        for tag, off, length, crc in rows:
            if off % _ALIGN or off + length > len(mv) or off < table_end:
                bad[tag] = "out of bounds"
                continue
            sec = mv[off : off + length]
            if _crc(sec) != crc:
                bad[tag] = "checksum mismatch"
                continue
            raw[tag] = sec
        return raw, bad

    @staticmethod
    def _parse_meta(sec: memoryview) -> dict[str, str]:
        try:
            (count,) = struct.unpack_from("<I", sec, 0)
            off = 4
            meta: dict[str, str] = {}
            for _ in range(count):
                klen, vlen = struct.unpack_from("<II", sec, off)
                off += 8
                k = str(sec[off : off + klen], "utf-8")
                off += klen
                v = str(sec[off : off + vlen], "utf-8")
                off += vlen
                meta[k] = v
            return meta
        except (struct.error, UnicodeDecodeError, ValueError) as exc:
            raise QueryError(
                f"corrupt XPDL v2 runtime image: bad META section ({exc})"
            ) from None

    @staticmethod
    def _parse_pool(sec: memoryview) -> LazyStrings:
        if len(sec) < 8:  # count word + at least one offset
            raise QueryError(
                "corrupt XPDL v2 runtime image: bad SPOL section"
            )
        (count,) = struct.unpack_from("<I", sec, 0)
        offsets_end = 4 + 4 * (count + 1)
        if offsets_end > len(sec):
            raise QueryError(
                "corrupt XPDL v2 runtime image: SPOL offsets out of bounds"
            )
        offsets = _u32_view(sec[4:offsets_end])
        blob = sec[offsets_end:]
        if count and offsets[count] > len(blob):
            raise QueryError(
                "corrupt XPDL v2 runtime image: SPOL blob out of bounds"
            )
        return LazyStrings(offsets, blob)

    def _parse_records(
        self, recs: memoryview, attr: memoryview, chld: memoryview
    ) -> None:
        if len(recs) % 4 or len(attr) % 4 or len(chld) % 4:
            raise QueryError(
                "corrupt XPDL v2 runtime image: misaligned record section"
            )
        words = _u32_view(recs)
        if not len(words):
            raise QueryError(
                "corrupt XPDL v2 runtime image: empty RECS section"
            )
        n = words[0]
        if len(words) != 3 * n + 2:
            raise QueryError(
                "corrupt XPDL v2 runtime image: RECS section size mismatch"
            )
        self.n = n
        self.kind_ids = words[1 : 1 + n]
        self.parents = words[1 + n : 1 + 2 * n]
        self.attr_off = words[1 + 2 * n :]
        self.attr_pairs = _u32_view(attr)
        if len(self.attr_pairs) != 2 * self.attr_off[n]:
            raise QueryError(
                "corrupt XPDL v2 runtime image: ATTR section size mismatch"
            )
        cwords = _u32_view(chld)
        if len(cwords) < n + 1:
            raise QueryError(
                "corrupt XPDL v2 runtime image: CHLD section too short"
            )
        self.child_off = cwords[: n + 1]
        self.child_idx = cwords[n + 1 :]
        if len(self.child_idx) != self.child_off[n]:
            raise QueryError(
                "corrupt XPDL v2 runtime image: CHLD section size mismatch"
            )

    def _parse_index(
        self, raw: dict[str, memoryview], bad: dict[str, str]
    ) -> None:
        n = self.n
        secs: dict[str, object] = {}
        for tag in INDEX_SECTIONS:
            sec = raw.get(tag)
            if sec is None:
                raise _IndexDefect(
                    f"index section {tag} {bad.get(tag, 'missing')}"
                )
            if len(sec) % 4:
                raise _IndexDefect(f"index section {tag} misaligned")
            secs[tag] = _u32_view(sec)

        ssrt = secs["SSRT"]
        if len(ssrt) != len(self.pool):
            raise _IndexDefect("SSRT size mismatch")
        pre, size, doc = secs["PREO"], secs["SIZE"], secs["DOCO"]
        if len(pre) != n or len(size) != n or len(doc) > n:
            raise _IndexDefect("PREO/SIZE/DOCO size mismatch")

        kndb = secs["KNDB"]
        if not len(kndb):
            raise _IndexDefect("empty KNDB section")
        nkinds = kndb[0]
        if len(kndb) < 1 + 3 * nkinds:
            raise _IndexDefect("KNDB header out of bounds")
        total = (len(kndb) - 1 - 3 * nkinds) // 2
        if len(kndb) != 1 + 3 * nkinds + 2 * total:
            raise _IndexDefect("KNDB section size mismatch")
        pos_base = 1 + 3 * nkinds
        idx_base = pos_base + total
        buckets: dict[str, tuple] = {}
        pool_len = len(self.pool)
        for k in range(nkinds):
            strid, start, cnt = (
                kndb[1 + 3 * k],
                kndb[2 + 3 * k],
                kndb[3 + 3 * k],
            )
            if strid >= pool_len or start + cnt > total:
                raise _IndexDefect("KNDB bucket out of bounds")
            buckets[self.pool[strid]] = (
                kndb[pos_base + start : pos_base + start + cnt],
                kndb[idx_base + start : idx_base + start + cnt],
            )

        ahas = secs["AHAS"]
        if not len(ahas):
            raise _IndexDefect("empty AHAS section")
        nnames = ahas[0]
        if len(ahas) < 1 + 3 * nnames:
            raise _IndexDefect("AHAS header out of bounds")
        atotal = len(ahas) - 1 - 3 * nnames
        ahas_hdr: dict[str, tuple[int, int]] = {}
        for k in range(nnames):
            strid, start, cnt = (
                ahas[1 + 3 * k],
                ahas[2 + 3 * k],
                ahas[3 + 3 * k],
            )
            if strid >= pool_len or start + cnt > atotal:
                raise _IndexDefect("AHAS run out of bounds")
            ahas_hdr[self.pool[strid]] = (start, cnt)

        aeqv = secs["AEQV"]
        if not len(aeqv):
            raise _IndexDefect("empty AEQV section")
        npairs = aeqv[0]
        if len(aeqv) < 1 + 4 * npairs:
            raise _IndexDefect("AEQV header out of bounds")

        idtb = secs["IDTB"]
        if not len(idtb) or len(idtb) != 1 + 2 * idtb[0]:
            raise _IndexDefect("IDTB section size mismatch")

        self.ssrt = ssrt
        self.pre = pre
        self.size = size
        self.doc = doc
        self.buckets = buckets
        self._ahas_hdr = ahas_hdr
        self._ahas_data = ahas[1 + 3 * nnames :]
        self._aeqv = aeqv
        self._idtb = idtb

    # -- index lookups ------------------------------------------------------
    def find_str(self, s: str) -> int | None:
        """The pool strid of ``s``, via byte-wise bisection over SSRT."""
        memo = self._str_ids
        if s in memo:
            return memo[s]
        want = s.encode("utf-8")
        ssrt, pool = self.ssrt, self.pool
        lo, hi = 0, len(ssrt)
        while lo < hi:
            mid = (lo + hi) // 2
            if pool.raw(ssrt[mid]) < want:
                lo = mid + 1
            else:
                hi = mid
        sid: int | None = None
        if lo < len(ssrt) and pool.raw(ssrt[lo]) == want:
            sid = ssrt[lo]
        memo[s] = sid
        return sid

    def attr_has_set(self, name: str) -> frozenset[int]:
        """Node indexes carrying attribute ``name`` (materialized once)."""
        run = self._ahas_hdr.get(name)
        if run is None:
            return frozenset()
        start, cnt = run
        return frozenset(self._ahas_data[start : start + cnt])

    def attr_eq_set(self, name: str, value: str) -> frozenset[int]:
        """Node indexes with ``name == value`` (lazy: bisect the sorted
        pair headers, then materialize one run)."""
        nsid = self.find_str(name)
        vsid = self.find_str(value) if nsid is not None else None
        if nsid is None or vsid is None:
            return frozenset()
        a = self._aeqv
        npairs = a[0]
        lo, hi = 0, npairs
        while lo < hi:
            mid = (lo + hi) // 2
            base = 1 + 4 * mid
            if (a[base], a[base + 1]) < (nsid, vsid):
                lo = mid + 1
            else:
                hi = mid
        if lo >= npairs:
            return frozenset()
        base = 1 + 4 * lo
        if a[base] != nsid or a[base + 1] != vsid:
            return frozenset()
        start, cnt = a[base + 2], a[base + 3]
        data_base = 1 + 4 * npairs
        return frozenset(a[data_base + start : data_base + start + cnt])

    def id_index(self, ident: str) -> int | None:
        """Node index registered for id ``ident`` (first occurrence)."""
        memo = self._id_memo
        if ident in memo:
            return memo[ident]
        out: int | None = None
        sid = self.find_str(ident)
        if sid is not None:
            t = self._idtb
            nids = t[0]
            lo, hi = 0, nids
            while lo < hi:
                mid = (lo + hi) // 2
                if t[1 + 2 * mid] < sid:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < nids and t[1 + 2 * lo] == sid:
                out = t[2 + 2 * lo]
        memo[ident] = out
        return out


class _IndexDefect(Exception):
    """Internal: an index section failed verification (rebuild, don't die)."""


def open_image(data) -> IRImage:
    """Open a v2 image whose index sections are usable.

    Core damage raises :class:`~repro.diagnostics.QueryError`.  When the
    index sections are missing (a core-only image) or fail verification,
    the core sections are copied verbatim, fresh index sections are
    appended and the result is opened instead — loudly: an
    :class:`XirImageWarning`, the ``index.rebuilds`` counter and an
    ``index.rebuild`` mark.  The rebuilt bytes equal what the writer
    produces for the same model.
    """
    image = IRImage(data)
    if image.index_ok:
        return image
    problem = image.index_problem
    warnings.warn(
        "XPDL v2 runtime image has unusable index sections "
        f"({problem}); rebuilding them from the core sections — "
        "re-run the toolchain (or `xpdl cache clear`) to restore "
        "zero-copy startup",
        XirImageWarning,
        stacklevel=3,
    )
    obs = get_observer()
    obs.count("index.rebuilds")
    if obs.enabled:
        obs.mark("index.rebuild", origin=f"degraded image ({problem})")
    offsets = image.pool._offsets.tolist()
    blob = bytes(image.pool._blob)
    try:
        index = _index_sections(
            image.kind_ids.tolist(),
            image.parents.tolist(),
            image.attr_off.tolist(),
            image.attr_pairs.tolist(),
            image.child_off.tolist(),
            image.child_idx.tolist(),
            [blob[a:b] for a, b in zip(offsets, offsets[1:])],
        )
    except IndexError:  # crc-valid records that index out of range
        raise QueryError(_NOT_A_TREE) from None
    return IRImage(_assemble([*zip(CORE_SECTIONS, image._core), *index]))


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

_NOT_A_TREE = "corrupt XPDL runtime model: its nodes do not form a tree"


class _Pool(dict):
    """String -> strid, interning each string at its first lookup."""

    __slots__ = ()

    def __missing__(self, s: str) -> int:
        sid = self[s] = len(self)
        return sid


def build_image(records, meta: dict[str, str], *, with_index: bool = True) -> bytes:
    """Serialize a model as a v2 image.

    ``records`` are ``(kind, parent, attrs)`` triples in node-index
    order, ``parent`` being a node index or ``None`` for the root; each
    node's children are the nodes naming it as parent, in node order.
    Deterministic: the same model always produces identical bytes
    (interning follows node order, index runs are sorted), so images
    are safely content-addressed.  ``with_index=False`` writes only the
    core sections, which readers must accept — the bench harness uses
    it to measure what the persisted index is worth.
    """
    pool = _Pool()
    intern = pool.__getitem__
    kind_ids: list[int] = []
    parents: list[int] = []
    pairs: list[int] = []
    attr_off = [0]
    for kind, parent, attrs in records:
        kind_ids.append(intern(kind))
        parents.append(_NO_PARENT if parent is None else parent)
        pairs += map(intern, chain.from_iterable(attrs.items()))
        attr_off.append(len(pairs) >> 1)
    n = len(kind_ids)
    # Children grouped by parent in node order (a stable sort); the
    # roots' _NO_PARENT sorts last.
    per_parent = Counter(parents)
    child_off = list(accumulate(map(per_parent.get, range(n), repeat(0)), initial=0))
    if child_off[n] + per_parent[_NO_PARENT] != n:
        raise QueryError("IR node parent index out of range")
    child_idx = sorted(range(n), key=parents.__getitem__)[: child_off[n]]

    meta_parts = [struct.pack("<I", len(meta))]
    for k, v in meta.items():
        kb, vb = k.encode("utf-8"), v.encode("utf-8")
        meta_parts += (struct.pack("<II", len(kb), len(vb)), kb, vb)
    strings = [s.encode("utf-8") for s in pool]
    offsets = accumulate(map(len, strings), initial=0)
    sections: list[tuple[str, bytes]] = [
        ("META", b"".join(meta_parts)),
        ("SPOL", b"".join([struct.pack("<I", len(strings)), _u32_bytes(offsets), *strings])),
        ("RECS", _u32_bytes([n, *kind_ids, *parents, *attr_off])),
        ("ATTR", _u32_bytes(pairs)),
        ("CHLD", _u32_bytes(child_off + child_idx)),
    ]
    if with_index:
        sections += _index_sections(
            kind_ids, parents, attr_off, pairs, child_off, child_idx, strings
        )
    return _assemble(sections)


def _index_sections(
    kind_ids: list[int],
    parents: list[int],
    attr_off: list[int],
    pairs: list[int],
    child_off: list[int],
    child_idx: list[int],
    strings: list[bytes],
) -> list[tuple[str, bytes]]:
    """The eight index sections, derived from the core records alone.

    The inputs are the ``RECS``, ``ATTR`` and ``CHLD`` arrays as int
    lists and the UTF-8 bytes of each pool string.  Counts one
    ``runtime.index_builds`` and every shadowed id (``ir.id_shadowed``,
    with a mark naming the id and both nodes): ids resolve first-wins,
    but loudly.
    """
    n = len(kind_ids)
    obs = get_observer()
    obs.count("runtime.index_builds")
    obs.count("runtime.index_nodes", n)

    # Pre-order over the child lists from the root (node 0); subtree
    # sizes accumulate child-before-parent in reverse document order.
    pre = [_UNREACHABLE] * n
    doc: list[int] = []
    stack = [0] if n else []
    while stack:
        i = stack.pop()
        if pre[i] != _UNREACHABLE:
            raise QueryError(_NOT_A_TREE)
        pre[i] = len(doc)
        doc.append(i)
        lo, hi = child_off[i], child_off[i + 1]
        if lo < hi:
            stack += reversed(child_idx[lo:hi])
    size = [1] * n
    for i in reversed(doc):
        p = parents[i]
        if p != _NO_PARENT:
            size[p] += size[i]

    # Kind buckets: doc positions grouped by kind id (a stable sort keeps
    # each bucket in document order), then the same nodes by index.
    doc_kinds = list(map(kind_ids.__getitem__, doc))
    positions = sorted(range(len(doc)), key=doc_kinds.__getitem__)
    kndb = [0]
    start = 0
    for kind, count in sorted(Counter(doc_kinds).items()):
        kndb += (kind, start, count)
        start += count
    kndb[0] = (len(kndb) - 1) // 3
    kndb += positions
    kndb += map(doc.__getitem__, positions)

    # The nodes holding each (name, value) pair, ascending: pairs are
    # stored node by node.  Only nodes reachable from the root are in
    # the attribute runs; the id table holds every node.
    owners = chain.from_iterable(
        map(repeat, range(n), map(sub, attr_off[1:], attr_off))
    )
    groups: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for key, node in zip(zip(pairs[0::2], pairs[1::2]), owners):
        groups[key].append(node)
    keys = sorted(groups)
    idtb = _id_table(keys, groups, kind_ids, strings, obs)
    if len(doc) < n:
        for key in keys:
            groups[key] = [i for i in groups[key] if pre[i] != _UNREACHABLE]
        keys = [key for key in keys if groups[key]]
    ahas: list[int] = [0]
    ahas_data: list[int] = []
    aeqv = [len(keys)]
    aeqv_data: list[int] = []
    for name, run in groupby(keys, itemgetter(0)):
        has: list[int] = []
        for key in run:
            members = groups[key]
            aeqv += (*key, len(aeqv_data), len(members))
            aeqv_data += members
            has += members
        ahas += (name, len(ahas_data), len(has))
        ahas_data += sorted(has)
    ahas[0] = (len(ahas) - 1) // 3

    return [
        ("SSRT", _u32_bytes(sorted(range(len(strings)), key=strings.__getitem__))),
        ("PREO", _u32_bytes(pre)),
        ("SIZE", _u32_bytes(size)),
        ("DOCO", _u32_bytes(doc)),
        ("KNDB", _u32_bytes(kndb)),
        ("AHAS", _u32_bytes(ahas + ahas_data)),
        ("AEQV", _u32_bytes(aeqv + aeqv_data)),
        ("IDTB", _u32_bytes(idtb)),
    ]


def _id_table(keys, groups, kind_ids, strings, obs) -> list[int]:
    """``IDTB`` from the sorted ``(name, value)`` keys: every node's
    ``id``, the first node holding one winning."""
    try:
        id_sid = strings.index(b"id")
    except ValueError:
        return [0]
    ids = keys[bisect_left(keys, (id_sid,)) : bisect_left(keys, (id_sid + 1,))]
    for node, sid, kept in sorted(  # shadowed ids, reported in node order
        (node, key[1], groups[key][0]) for key in ids for node in groups[key][1:]
    ):
        obs.count("ir.id_shadowed")
        if obs.enabled:
            obs.mark(
                "ir.id_shadowed",
                id=strings[sid].decode("utf-8"),
                kept_index=kept,
                kept_kind=strings[kind_ids[kept]].decode("utf-8"),
                shadowed_index=node,
                shadowed_kind=strings[kind_ids[node]].decode("utf-8"),
            )
    return [len(ids), *chain.from_iterable((key[1], groups[key][0]) for key in ids)]


def _assemble(sections: list[tuple[str, Any]]) -> bytes:
    """Lay sections out 8-byte aligned and prepend header + crc table."""
    table_end = _HEADER_LEN + _TABLE_ENTRY.size * len(sections)
    out: list[Any] = []
    entries: list[bytes] = []
    offset = table_end
    for tag, payload in sections:
        pad = -offset % _ALIGN
        if pad:
            out.append(b"\x00" * pad)
            offset += pad
        entries.append(
            _TABLE_ENTRY.pack(
                _tag_u32(tag), offset, len(payload), _crc(payload)
            )
        )
        out.append(payload)
        offset += len(payload)
    table = b"".join(entries)
    header = MAGIC_V2 + struct.pack(
        "<IIII", offset, len(sections), _crc(table), 0
    )
    return b"".join([header, table] + out)


# ---------------------------------------------------------------------------
# tooling helpers
# ---------------------------------------------------------------------------


def read_section_table(data) -> list[tuple[str, int, int, int]]:
    """``(tag, offset, length, crc32)`` rows of a v2 image (tooling/tests).

    Validates only the header and table checksum — corrupt *sections*
    are still listed, which is exactly what corruption tooling needs."""
    mv = memoryview(data)
    if bytes(mv[:8]) != MAGIC_V2:
        raise QueryError("not an XPDL runtime model file (bad magic)")
    if len(mv) < _HEADER_LEN:
        raise QueryError("truncated XPDL runtime model file")
    _total, count, table_crc, _reserved = struct.unpack_from("<IIII", mv, 8)
    if count > _MAX_SECTIONS:
        raise QueryError("corrupt XPDL v2 runtime image: implausible section count")
    table_end = _HEADER_LEN + _TABLE_ENTRY.size * count
    if table_end > len(mv):
        raise QueryError("truncated XPDL v2 runtime image (section table)")
    table = mv[_HEADER_LEN:table_end]
    if _crc(table) != table_crc:
        raise QueryError("corrupt XPDL v2 runtime image: section table checksum mismatch")
    return [
        (
            _tag_str(row[0]),
            row[1],
            row[2],
            row[3],
        )
        for row in _TABLE_ENTRY.iter_unpack(bytes(table))
    ]


def verify_image(data) -> list[str]:
    """Every defect of a serialized image, as human-readable problems.

    Empty list == fully usable, index included.  Used by
    ``xpdl cache verify``."""
    try:
        image = IRImage(data)
    except QueryError as exc:
        return [str(exc)]
    if not image.index_ok:
        return [f"index degraded: {image.index_problem}"]
    return []
