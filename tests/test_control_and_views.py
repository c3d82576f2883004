"""Tests for control-relation analysis, the JSON view and the retry store."""

import pytest

from repro.analysis import (
    control_summary,
    extend_schema_with_control,
    infer_control_relation,
)
from repro.codegen import (
    model_from_json,
    model_to_json,
    model_to_json_dict,
)
from repro.diagnostics import DiagnosticSink, ResolutionError, XpdlError
from repro.model import from_document
from repro.repository import (
    FailEvery,
    FaultPlan,
    MemoryStore,
    RemoteSimStore,
    RetryingStore,
)
from repro.schema import CORE_SCHEMA, Schema, SchemaValidator, schema_from_xml, schema_to_xml
from repro.xpdlxml import parse_xml


def model(text: str):
    return from_document(parse_xml(text))


class TestControlInference:
    def test_single_cpu_plus_device(self, liu_server):
        rels = infer_control_relation(liu_server.root)
        assert len(rels) == 1
        rel = rels[0]
        assert not rel.explicit
        assert rel.root.ident == "gpu_host"
        assert rel.root.role == "master"
        workers = rel.by_role("worker")
        assert [w.ident for w in workers] == ["gpu1"]

    def test_declared_master_wins(self, myriad_server):
        # Listing 4 marks myriad_host role="master" explicitly.
        rel = infer_control_relation(myriad_server.root)[0]
        assert rel.root.ident == "myriad_host"
        assert [w.ident for w in rel.by_role("worker")] == ["mv153board"]

    def test_dual_cpu_second_is_hybrid(self, xs_cluster):
        rels = infer_control_relation(xs_cluster.root)
        assert [r.scope for r in rels] == ["n0", "n1", "n2", "n3"]
        for rel in rels:
            assert rel.root.role == "master"
            hybrids = rel.by_role("hybrid")
            assert len(hybrids) == 1  # PE1
            assert len(rel.by_role("worker")) == 2  # two GPUs

    def test_embedded_device_cpu_not_a_host(self, myriad_server):
        rel = infer_control_relation(myriad_server.root)[0]
        unit_ids = {u.ident for u in rel.units()}
        # The Myriad1 inside the MV153 board must not appear as a host CPU.
        assert not any("Leon" in (u or "") for u in unit_ids)

    def test_no_cpu_scope(self):
        m = model("<system id='s'><memory id='m' size='1' unit='GB'/></system>")
        rel = infer_control_relation(m)[0]
        assert rel.root is None
        assert rel.units() == []

    def test_summary_rows(self, xs_cluster):
        rows = control_summary(infer_control_relation(xs_cluster.root))
        assert rows[0] == ("n0", "PE0", "inferred", 2)


class TestExplicitControlRelation:
    SYSTEM = """
    <system id='s'>
      <cpu id='a'/><cpu id='b'/>
      <device id='g'/>
      <control_relation id='cr' master='b'>
        <controls head='b' tail='a'/>
        <controls head='a' tail='g'/>
      </control_relation>
    </system>
    """

    def test_explicit_overrides_inference(self):
        rel = infer_control_relation(model(self.SYSTEM))[0]
        assert rel.explicit
        assert rel.root.ident == "b"
        roles = {u.ident: u.role for u in rel.units()}
        assert roles == {"b": "master", "a": "hybrid", "g": "worker"}

    def test_unknown_master_reported(self):
        bad = self.SYSTEM.replace("master='b'", "master='ghost'")
        sink = DiagnosticSink()
        rel = infer_control_relation(model(bad), sink)[0]
        assert any(d.code == "XPDL0800" for d in sink)
        assert not rel.explicit  # fell back to inference

    def test_unknown_edge_reported(self):
        bad = self.SYSTEM.replace("tail='g'", "tail='ghost'")
        sink = DiagnosticSink()
        infer_control_relation(model(bad), sink)
        assert any(d.code == "XPDL0801" for d in sink)

    def test_schema_extension_validates(self):
        schema = extend_schema_with_control(
            schema_from_xml(schema_to_xml(CORE_SCHEMA))
        )
        m = model(self.SYSTEM)
        sink = SchemaValidator(schema).validate(m)
        assert not sink.has_errors(), sink.render()
        # Idempotent.
        assert extend_schema_with_control(schema) is schema

    def test_without_extension_core_schema_warns(self):
        m = model(self.SYSTEM)
        sink = SchemaValidator().validate(m)
        assert any(d.code == "XPDL0100" for d in sink)


class TestJsonView:
    def test_roundtrip_structure(self, repo):
        m = repo.load_model("Movidius_Myriad1")
        m2 = model_from_json(model_to_json(m))

        def shape(e):
            return (
                e.kind,
                tuple(sorted(e.attrs.items())),
                tuple(shape(c) for c in e.children),
            )

        assert shape(m2) == shape(m)

    def test_dict_form(self):
        m = model("<cpu name='X'><core frequency='2'/></cpu>")
        doc = model_to_json_dict(m)
        assert doc["kind"] == "cpu"
        assert doc["attrs"] == {"name": "X"}
        assert doc["children"][0]["attrs"] == {"frequency": "2"}

    def test_empty_children_omitted(self):
        doc = model_to_json_dict(model("<core/>"))
        assert "children" not in doc and "attrs" not in doc

    def test_typed_classes_after_load(self):
        from repro.model import Cache

        m2 = model_from_json(
            '{"kind": "cache", "attrs": {"name": "L1", "size": "32", "unit": "KiB"}}'
        )
        assert isinstance(m2, Cache)
        assert m2.size.to("KiB") == 32

    def test_malformed_rejected(self):
        with pytest.raises(XpdlError):
            model_from_json("not json")
        with pytest.raises(XpdlError):
            model_from_json('{"no_kind": true}')


class TestRetryingStore:
    def test_retries_transient_failures(self):
        backing = MemoryStore({"a.xpdl": "<cpu name='A'/>"})
        flaky = RemoteSimStore(backing, faults=FaultPlan(default=FailEvery(2)))
        store = RetryingStore(flaky, attempts=3)
        # Fetch 1 ok, fetch 2 fails -> retried internally.
        assert "A" in store.fetch("a.xpdl")
        assert "A" in store.fetch("a.xpdl")
        assert store.retries >= 1

    def test_permanent_not_found_is_not_retried(self):
        """A MemoryStore miss is permanent: no retries, no backoff —
        retrying a not-found ``attempts`` times was the original bug."""
        backing = MemoryStore({})
        store = RetryingStore(backing, attempts=3)
        with pytest.raises(ResolutionError):
            store.fetch("missing.xpdl")
        assert store.retries == 0
        assert store.backoff_s == 0.0

    def test_transient_failures_consume_retries_and_backoff(self):
        from repro.diagnostics import TransientFetchError
        from repro.repository import AlwaysFail, FaultPlan

        dead = RemoteSimStore(
            MemoryStore({"a.xpdl": "<cpu name='A'/>"}),
            faults=FaultPlan(default=AlwaysFail()),
        )
        store = RetryingStore(dead, attempts=3)
        with pytest.raises(TransientFetchError):
            store.fetch("a.xpdl")
        assert store.retries == 2  # attempts-1 retries consumed
        assert store.backoff_s > 0.0  # accounted, never slept

    def test_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryingStore(MemoryStore({}), attempts=0)

    def test_composes_through_flaky_remote(self, repo):
        """End-to-end: a fail-every-3 remote still serves a full closure
        when wrapped in RetryingStore."""
        import os

        from repro.composer import Composer
        from repro.modellib import data_dir
        from repro.repository import ModelRepository

        files = {}
        for dirpath, _d, filenames in os.walk(data_dir()):
            for fn in filenames:
                if fn.endswith(".xpdl"):
                    full = os.path.join(dirpath, fn)
                    rel = os.path.relpath(full, data_dir()).replace(os.sep, "/")
                    files[rel] = open(full).read()
        flaky = RemoteSimStore(
            MemoryStore(files), faults=FaultPlan(default=FailEvery(3))
        )
        repo2 = ModelRepository([RetryingStore(flaky, attempts=4)])
        composed = Composer(repo2).compose("liu_gpu_server")
        assert not composed.sink.has_errors()
        assert flaky.log.failures > 0  # failures happened and were absorbed
