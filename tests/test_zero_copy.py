"""Zero-copy startup: the persisted-index v2 image format end to end.

Covers the PR-7 acceptance criteria:

* **Query equivalence** — an IR opened from a serialized image (mmap or
  bytes) answers every structure query, path query and memoized analysis
  as the walk-based index oracle (``tests/index_oracle.py``) and the
  naive uncompiled evaluator do (property-based over random trees, plus
  the largest corpus model).
* **Version skew** — files of the retired ``XPDLRT01`` format, garbage
  and truncated v2 images are rejected loudly, never misread; an
  index-less (core-only) image loads with ``index.rebuilds``
  accounting.
* **Rebuild** — a core-only image, or one with a damaged *index*
  section, is rebuilt from its core sections at open, with a warning, to
  the intact image's bytes; damaged *core* sections raise
  :class:`QueryError`.
* **Cache integration** — ``emit_ir`` persists the image in the disk
  cache and its record, :class:`ModelHost` reopens the record with zero
  index construction, a corrupted record is a counted miss that is
  rebuilt, and ``xpdl cache verify`` exits nonzero on a corrupted image;
  every model ``xpdl build`` writes reopens twice without building an
  index and matches the index oracle.
* **Lazy reads** — path queries and the model analyses over an image
  materialize only the IR nodes whose attributes they read.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.diagnostics import QueryError
from repro.ir import IRModel, XirImageWarning, build_image, read_section_table
from repro.model import from_document
from repro.obs import Observer, use_observer
from repro.runtime import query_all, query_all_naive, xpdl_init, xpdl_init_from_model
from repro.runtime.index import IRIndex
from repro.xpdlxml import parse_xml
from tests import analysis_oracle
from tests.index_oracle import IndexOracle


def model(text: str):
    return from_document(parse_xml(text))


SAMPLE = (
    "<system id='s'><node id='n'>"
    "<cpu id='c' frequency='2' frequency_unit='GHz'><core/><core/></cpu>"
    "<memory id='m' size='16' unit='GB'/>"
    "</node></system>"
)

PAPER_SYSTEMS = ("XScluster", "liu_gpu_server", "myriad_server")

PATHS = (
    "//core",
    "//cpu/core",
    "/system//memory",
    "//cpu[@frequency='2']",
    "//node[@id='n']//core",
)


def core_only(ir: IRModel) -> bytes:
    """``ir``'s image without its index sections."""
    records = ((n.kind, n.parent, n.attrs) for n in ir.nodes)
    return build_image(records, ir.meta, with_index=False)


def assert_index_matches(index: IRIndex) -> None:
    """Every structure of ``index`` equals the walk-based oracle's."""
    ir = index.ir
    want = IndexOracle(ir)
    assert list(index.doc) == want.doc
    for i, node in enumerate(ir.nodes):
        assert index.interval(i) == want.interval(i)
        assert index.kinds[i] == node.kind
        assert list(index.children[i]) == node.children
        lo, hi = want.interval(i)
        assert list(index.descendant_slice(i)) == want.doc[lo:hi]
    for kind in sorted({node.kind for node in ir.nodes}) + ["ghost"]:
        positions, indexes = index.bucket(kind)
        assert (list(positions), list(indexes)) == want.buckets.get(kind, ([], []))
    names = {k for node in ir.nodes for k in node.attrs}
    for name in sorted(names) + ["ghost"]:
        assert set(index.attr_has(name)) == want.attr_has.get(name, set())
    pairs = {(k, v) for node in ir.nodes for k, v in node.attrs.items()}
    for name, value in sorted(pairs) + [("ghost", "x")]:
        assert set(index.attr_eq(name, value)) == want.attr_eq.get((name, value), set())
    for ident, i in want.ids.items():
        assert ir.by_id(ident).index == i
    assert ir.by_id("no node has this id") is None
    assert_analyses_dense(index)


def assert_analyses_dense(index: IRIndex) -> None:
    """The index's analysis memos equal the dense pass, exactly."""
    ir = index.ir
    for kind in sorted({node.kind for node in ir.nodes}):
        assert index.kind_counts(kind) == analysis_oracle.kind_counts(ir, kind)
    assert index.cuda_counts() == analysis_oracle.cuda_counts(ir)
    assert index.static_power_w() == analysis_oracle.static_power_w(ir)


# ---------------------------------------------------------------------------
# property: image-backed answers == fresh index == naive oracle
# ---------------------------------------------------------------------------

# "software" is a non-physical kind: it prunes its subtree from the
# analyses, which the power, CUDA and count memos must all honour.
_kind = st.sampled_from(
    ["system", "node", "cpu", "core", "cache", "memory", "device", "software"]
)
_attr = st.sampled_from(["id", "name", "size", "unit", "frequency", "type"])
_value = st.text(min_size=0, max_size=8)
_watts = st.one_of(
    st.sampled_from(["?", "0"]), st.floats(0, 1e3).map(repr)
)


@st.composite
def ir_trees(draw, depth=3):
    kind = draw(_kind)
    m = model(f"<{kind}/>")
    for _ in range(draw(st.integers(0, 3))):
        m.attrs[draw(_attr)] = draw(_value)
    if draw(st.booleans()):
        m.attrs["static_power"] = draw(_watts)
        m.attrs["static_power_unit"] = draw(st.sampled_from(["W", "mW"]))
    if kind == "device" and draw(st.booleans()):
        pm = draw(st.sampled_from(["cuda6.0,opencl", "opencl"]))
        m.add(model(f"<programming_model type='{pm}'/>"))
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            m.add(draw(ir_trees(depth=depth - 1)))
    return m


@settings(deadline=None, max_examples=60)
@given(ir_trees())
def test_image_index_equals_fresh_property(tree):
    ir = IRModel.from_model(tree)
    obs = Observer()
    with use_observer(obs):
        loaded = IRModel.from_bytes(ir.to_bytes())
        assert_index_matches(loaded.index())
    assert "runtime.index_builds" not in obs.counters
    assert loaded.to_bytes() == ir.to_bytes()


@settings(deadline=None, max_examples=40)
@given(ir_trees())
def test_image_queries_equal_naive_property(tree):
    ir = IRModel.from_model(tree)
    ctx = xpdl_init_from_model(IRModel.from_bytes(ir.to_bytes()))
    fresh = xpdl_init_from_model(ir)
    for path in ("//core", "//cpu[@frequency='2']", "//node//memory"):
        got = [h.index for h in query_all(ctx, path)]
        assert got == [h.index for h in query_all(fresh, path)]
        assert got == [h.index for h in query_all_naive(fresh, path)]
    assert ctx.count_cores() == fresh.count_cores()
    assert ctx.count_cuda_devices() == fresh.count_cuda_devices()
    assert (
        ctx.total_static_power().magnitude
        == fresh.total_static_power().magnitude
    )


# ---------------------------------------------------------------------------
# the largest corpus model, through a real mmap'd file
# ---------------------------------------------------------------------------


class TestCorpusImage:
    def test_mmap_open_is_query_identical(self, tmp_path, liu_server):
        ir = IRModel.from_model(liu_server.root, {"system": "liu_gpu_server"})
        path = str(tmp_path / "liu.xir")
        ir.save(path)

        obs = Observer()
        with use_observer(obs):
            loaded = IRModel.load(path)
            ctx = xpdl_init_from_model(loaded)
        assert obs.counters.get("index.load_mmap") == 1
        assert "index.rebuilds" not in obs.counters
        assert obs.counters.get("runtime.index_builds", 0) == 0

        fresh = xpdl_init_from_model(ir)
        assert_index_matches(ctx.index)
        for path_expr in PATHS:
            assert [h.index for h in query_all(ctx, path_expr)] == [
                h.index for h in query_all(fresh, path_expr)
            ]

    def test_by_id_from_image(self, tmp_path, liu_server):
        ir = IRModel.from_model(liu_server.root)
        loaded = IRModel.from_bytes(ir.to_bytes())
        assert loaded.by_id("gpu1").index == ir.by_id("gpu1").index
        assert loaded.by_id("ghost") is None

    def test_read_path_materializes_only_what_it_reads(self, liu_server):
        ir = IRModel.from_model(liu_server.root, {"system": "liu_gpu_server"})
        ctx = xpdl_init_from_model(IRModel.from_bytes(ir.to_bytes()))
        memo = ctx.ir.nodes._memo

        def materialized() -> set[int]:
            return {i for i, node in enumerate(memo) if node is not None}

        cores = query_all(ctx, "//core")
        assert len(cores) == 2501
        assert {h.kind for h in cores} == {"core"}
        assert materialized() == {0}  # the root, where the query starts

        carriers = {n.index for n in ir.nodes if "static_power" in n.attrs}
        assert ctx.total_static_power().to("W") == pytest.approx(33)
        assert materialized() == {0} | carriers

        assert ctx.count_cores() == 2500
        assert ctx.count_kind("cpu") == 1
        assert ctx.count_cuda_devices() == 1
        cuda_models = {
            c
            for n in ir.nodes
            if n.kind in ("device", "gpu")
            for c in n.children
            if ir.nodes[c].kind == "programming_model"
            and "cuda" in ir.nodes[c].attrs["type"]
        }
        # The device has two CUDA models; the check stops at the first.
        assert materialized() <= {0} | carriers | cuda_models
        assert len(materialized()) == 1 + len(carriers) + 1 == 5

    def test_reserialization_is_identity(self, liu_server):
        ir = IRModel.from_model(liu_server.root, {"system": "liu_gpu_server"})
        data = ir.to_bytes()
        loaded = IRModel.from_bytes(data)
        assert loaded.to_bytes() == data


# ---------------------------------------------------------------------------
# version skew
# ---------------------------------------------------------------------------


class TestVersionSkew:
    def test_v1_bytes_raise_query_error(self, tmp_path):
        path = tmp_path / "legacy.xir"
        path.write_bytes(b"XPDLRT01" + b"\x00" * 64)
        with pytest.raises(QueryError, match="XPDLRT01.*rebuild"):
            IRModel.load(str(path))

    def test_v1_tagged_json_still_loads(self):
        # The JSON node schema never changed: only the binary v1 went.
        ir = IRModel.from_model(model(SAMPLE), {"k": "v"})
        text = ir.to_json().replace('"XPDLRT02"', '"XPDLRT01"')
        loaded = IRModel.from_json(text)
        assert loaded.meta == {"k": "v"}
        assert [n.attrs for n in loaded.nodes] == [n.attrs for n in ir.nodes]

    def test_garbage_rejected(self):
        with pytest.raises(QueryError):
            IRModel.from_bytes(b"XPDLRT02" + b"\xff" * 64)

    def test_truncations_rejected(self):
        data = IRModel.from_model(model(SAMPLE)).to_bytes()
        for cut in (8, 16, 24, len(data) // 2, len(data) - 1):
            with pytest.raises(QueryError):
                IRModel.from_bytes(data[:cut])

    def test_empty_and_foreign_rejected(self):
        for blob in (b"", b"\x00" * 64, b"NOTXPDL0" + b"\x00" * 56):
            with pytest.raises(QueryError):
                IRModel.from_bytes(blob)


# ---------------------------------------------------------------------------
# corruption: degrade on index damage, refuse on core damage
# ---------------------------------------------------------------------------


def _corrupt_section(data: bytes, tag: str) -> bytes:
    """Flip one payload byte of the ``tag`` section (checksum now wrong)."""
    for sec_tag, off, length, _crc in read_section_table(data):
        if sec_tag == tag:
            assert length > 0
            out = bytearray(data)
            out[off] ^= 0xFF
            return bytes(out)
    raise AssertionError(f"no section {tag!r}")


class TestCorruption:
    @staticmethod
    def _rebuilt(data: bytes) -> tuple[IRModel, Observer]:
        """Open ``data``, whose index is unusable, and adopt the index."""
        obs = Observer()
        with use_observer(obs), pytest.warns(XirImageWarning):
            loaded = IRModel.from_bytes(data)
        # Rebuilt once, at open, and marked; adoption builds nothing more.
        assert obs.counters.get("index.rebuilds") == 1
        assert obs.counters.get("runtime.index_builds") == 1
        assert [e.name for e in obs.events if e.name == "index.rebuild"] == [
            "index.rebuild"
        ]
        with use_observer(obs):
            assert_index_matches(loaded.index())
        assert obs.counters.get("runtime.index_builds") == 1
        return loaded, obs

    def test_index_damage_degrades_with_warning(self):
        ir = IRModel.from_model(model(SAMPLE))
        loaded, _ = self._rebuilt(_corrupt_section(ir.to_bytes(), "PREO"))
        # Core records are intact: the rebuild restores the intact image.
        assert loaded.to_bytes() == ir.to_bytes()

    @pytest.mark.parametrize("tag", ["RECS", "SPOL", "CHLD"])
    def test_core_damage_raises(self, tag):
        ir = IRModel.from_model(model(SAMPLE))
        bad = _corrupt_section(ir.to_bytes(), tag)
        with pytest.raises(QueryError):
            IRModel.from_bytes(bad)

    def test_core_only_image_loads_degraded(self):
        ir = IRModel.from_model(model(SAMPLE), {"k": "v"})
        loaded, _ = self._rebuilt(core_only(ir))
        assert loaded.meta == {"k": "v"}
        assert loaded.to_bytes() == ir.to_bytes()

    def test_rebuilds_equal_the_intact_images(self, repo, tmp_path):
        """For the paper systems and the bench corpus, a core-only image,
        an image with any one index section damaged and the JSON form
        reopen to the intact image's bytes."""
        from repro.composer import Composer
        from repro.corpus import generate_corpus
        from repro.ir.image import INDEX_SECTIONS
        from repro.modellib import standard_repository

        corpus = generate_corpus(7, 40)
        corpus.write_to(str(tmp_path))
        bench = standard_repository(str(tmp_path), use_env=False)
        roots = [Composer(repo).compose(s).root for s in PAPER_SYSTEMS]
        roots += [Composer(bench).compose(s).root for s in corpus.systems]
        assert len(roots) == 15
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", XirImageWarning)
            for root in roots:
                ir = IRModel.from_model(root, {"system": root.ident or "?"})
                intact = ir.to_bytes()
                damaged = [core_only(ir)]
                damaged += [_corrupt_section(intact, tag) for tag in INDEX_SECTIONS]
                for data in damaged:
                    assert IRModel.from_bytes(data).to_bytes() == intact
                assert IRModel.from_json(ir.to_json()).to_bytes() == intact


class TestUnreachableNodes:
    """JSON IRs carry only parent links, so they can hold a second root."""

    def test_second_root_is_indexed_by_id_only(self):
        ir = IRModel.from_model(model(SAMPLE))
        data = json.loads(ir.to_json())
        orphan = len(data["nodes"])
        data["nodes"] += [
            {"kind": "cpu", "parent": None, "attrs": {"id": "lost", "frequency": "2"}},
            {"kind": "core", "parent": orphan, "attrs": {"id": "lost_core"}},
        ]
        loaded = IRModel.from_json(json.dumps(data))
        index = loaded.index()
        for i in (orphan, orphan + 1):
            assert index.interval(i) == (0, 0)
            assert all(i not in index.bucket(kind)[1] for kind in ("cpu", "core"))
            assert i not in index.attr_has("id")
        assert loaded.by_id("lost").index == orphan
        assert loaded.by_id("lost_core").index == orphan + 1
        ctx = xpdl_init_from_model(loaded)
        for path in PATHS:
            got = [h.index for h in query_all(ctx, path)]
            assert got == [h.index for h in query_all_naive(ctx, path)]
            assert orphan not in got and orphan + 1 not in got
        assert_index_matches(index)
        assert IRModel.from_json(loaded.to_json()).to_bytes() == loaded.to_bytes()

    @pytest.mark.parametrize("parents", [(1, 0), (0, 0), (None, 5), (None, -1)])
    def test_parents_that_form_no_tree_raise(self, parents):
        nodes = [{"kind": "node", "parent": p, "attrs": {}} for p in parents]
        text = json.dumps({"format": "XPDLRT02", "meta": {}, "nodes": nodes})
        with pytest.raises(QueryError):
            IRModel.from_json(text)


# ---------------------------------------------------------------------------
# disk cache + model host integration
# ---------------------------------------------------------------------------


class TestCacheIntegration:
    def test_emit_stores_image_and_host_reopens_without_rebuild(
        self, tmp_path, repo
    ):
        from repro.service.core import ModelHost

        cache_dir = str(tmp_path / "cache")
        obs1 = Observer()
        host1 = ModelHost(observer=obs1, cache_dir=cache_dir)
        with host1.lease("odroid_xu3") as entry:
            n = len(entry.ctx.ir)
            key = entry.emit.image_key
            image = entry.emit.ir.to_bytes()
        # The image *is* the content address, and images/ holds it.
        assert hashlib.sha256(image).hexdigest() == key
        path = host1.session.disk_cache.find_image(key)
        assert path is not None and Path(path).read_bytes() == image

        # A second host over the same cache (a fresh process, in effect)
        # must adopt the persisted index: zero construction on reopen.
        obs2 = Observer()
        host2 = ModelHost(observer=obs2, cache_dir=cache_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("error", XirImageWarning)
            with host2.lease("odroid_xu3") as entry:
                assert len(entry.ctx.ir) == n
                assert entry.emit.image_key == key
        assert obs2.counters.get("toolchain.diskcache.hits.emit_ir") == 1
        assert obs2.counters.get("index.load_mmap") == 1
        assert obs2.counters.get("runtime.index_builds", 0) == 0
        assert "index.rebuilds" not in obs2.counters

    def test_corrupt_emit_record_is_a_counted_miss(self, tmp_path):
        from repro.repository.store import files_under
        from repro.service.core import ModelHost, info_payload

        cache_dir = str(tmp_path / "cache")
        host1 = ModelHost(cache_dir=cache_dir)
        with host1.lease("odroid_xu3") as entry:
            key = entry.emit.image_key
            want = info_payload(entry.ctx)
        stages = host1.session.disk_cache.stages_root
        (record,) = files_under(os.path.join(stages, "emit_ir"), ".rec")
        raw = bytearray(Path(record).read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # lands in the pickled image
        Path(record).write_bytes(bytes(raw))

        obs = Observer()
        host2 = ModelHost(observer=obs, cache_dir=cache_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("error", XirImageWarning)
            with host2.lease("odroid_xu3") as entry:
                assert entry.emit.image_key == key
                assert info_payload(entry.ctx) == want  # never wrong answers
        assert obs.counters.get("cache.corrupt") == 1
        assert obs.counters.get("toolchain.cache.misses.emit_ir") == 1
        assert "index.rebuilds" not in obs.counters
        # The rebuild overwrote the record: a third host reads it again.
        obs3 = Observer()
        with ModelHost(observer=obs3, cache_dir=cache_dir).lease("odroid_xu3"):
            pass
        assert obs3.counters.get("toolchain.diskcache.hits.emit_ir") == 1
        assert "cache.corrupt" not in obs3.counters

    def test_cache_verify_cli_fails_on_corrupt_image(self, tmp_path, capsys):
        from repro.toolchain import PersistentStageCache

        cache_dir = str(tmp_path / "cache")
        cache = PersistentStageCache(cache_dir)
        ir = IRModel.from_model(model(SAMPLE))
        key = cache.store_image(ir.to_bytes())

        assert cli_main(["cache", "--cache-dir", cache_dir, "verify"]) == 0
        capsys.readouterr()

        path = Path(cache.image_path(key))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cli_main(["cache", "--cache-dir", cache_dir, "verify"]) == 1
        err = capsys.readouterr().err
        assert "image" in err

    def test_built_models_reopen_without_index_construction(
        self, tmp_path, capsys
    ):
        cache_dir, out_dir = str(tmp_path / "cache"), str(tmp_path / "out")
        argv = ["build", "--jobs", "2", "--cache-dir", cache_dir]
        assert cli_main(argv + ["--out-dir", out_dir]) == 0
        capsys.readouterr()
        files = sorted(glob.glob(f"{out_dir}/*.xir"))
        assert files, "build wrote no .xir models"
        for path in files:
            for attempt in (1, 2):
                obs = Observer()
                with use_observer(obs):
                    ctx = xpdl_init(path)
                # The persisted index is adopted in place on every open.
                counters = dict(obs.counters)
                assert counters.get("index.load_mmap") == 1, (path, attempt)
                assert counters.get("runtime.index_builds", 0) == 0
                assert "index.rebuilds" not in counters, (path, attempt)
            assert_index_matches(ctx.index)

    def test_cache_stats_reports_images(self, tmp_path, capsys):
        from repro.toolchain import PersistentStageCache

        cache_dir = str(tmp_path / "cache")
        PersistentStageCache(cache_dir).store_image(
            IRModel.from_model(model(SAMPLE)).to_bytes()
        )
        assert cli_main(["cache", "--cache-dir", cache_dir, "stats"]) == 0
        out = capsys.readouterr().out
        assert "images:   1" in out
