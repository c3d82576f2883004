"""ModelHost: leases, hot reload, LRU eviction, CLI-equivalent rendering."""

from __future__ import annotations

import gc
import json
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.obs import Observer
from repro.repository import MemoryStore, ModelRepository
from repro.runtime import query_all
from repro.service import (
    ModelHost,
    ServiceError,
    format_info,
    format_query_results,
    handle_payload,
    info_payload,
    merged_doctor_report,
)
from repro.service.core import NODE_TEXT_BYTES, encode_body
from repro.toolchain import ToolchainSession

CPU_V1 = (
    "<cpu name='SynthCpu'>"
    "<group prefix='core' quantity='4'>"
    "<core frequency='2' frequency_unit='GHz'/>"
    "</group>"
    "</cpu>"
)
CPU_V2 = CPU_V1.replace("quantity='4'", "quantity='8'")
SYSTEM = (
    "<system id='SynthSys'><node>"
    "<cpu id='PE0' type='SynthCpu'/>"
    "</node></system>"
)
SYSTEM_B = (
    "<system id='SynthSysB'><node>"
    "<cpu id='PE0' type='SynthCpu'/>"
    "</node></system>"
)


def make_host(files=None, **kwargs) -> tuple[ModelHost, MemoryStore]:
    store = MemoryStore(
        dict(files or {"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
    )
    kwargs.setdefault("reload_ttl_s", 0.0)  # tests probe freshness per request
    host = ModelHost(ModelRepository([store]), **kwargs)
    return host, store


def query_count(host: ModelHost, model: str, path: str) -> int:
    status, body = host.handle({"op": "query", "model": model, "path": path})
    assert status == 200, body
    return body["count"]


class TestDispatchOps:
    def test_query_results_and_shape(self):
        host, _ = make_host()
        status, body = host.handle(
            {"op": "query", "model": "SynthSys", "path": "//core"}
        )
        assert status == 200
        assert body["model"] == "SynthSys" and body["path"] == "//core"
        assert body["count"] == len(body["results"]) == 4
        assert all(r["kind"] == "core" for r in body["results"])

    def test_info_analysis_compose(self):
        host, _ = make_host()
        _, info = host.handle({"op": "info", "model": "SynthSys"})
        assert info["cores"] == 4 and info["cpus"] == 1
        _, ana = host.handle({"op": "analysis", "model": "SynthSys"})
        assert ana["results"]["count_cores"] == 4
        _, ana2 = host.handle(
            {
                "op": "analysis",
                "model": "SynthSys",
                "analyses": ["count_kind:core"],
            }
        )
        assert ana2["results"]["count_kind:core"] == 4
        _, comp = host.handle({"op": "compose", "model": "SynthSys"})
        assert comp["elements"] > 4
        assert len(comp["ir_sha256"]) == 64

    def test_doctor_matches_session_report(self):
        host, _ = make_host()
        _, body = host.handle({"op": "doctor"})
        expected = merged_doctor_report(host.session).to_dict()
        assert body == expected

    def test_doctor_after_a_query_matches_a_fresh_host(self):
        from tests.test_doctor import SEEDED_FILES

        fresh, _ = make_host(SEEDED_FILES)
        _, expected = fresh.handle({"op": "doctor"})
        host, _ = make_host(SEEDED_FILES)
        status, _ = host.handle(
            {"op": "query", "model": "seed_sys", "path": "//interconnect"}
        )
        assert status == 200
        _, body = host.handle({"op": "doctor"})
        assert body == expected

    def test_models_lists_index(self):
        host, _ = make_host()
        _, body = host.handle({"op": "models"})
        idents = [m["identifier"] for m in body["models"]]
        assert "SynthSys" in idents and "SynthCpu" in idents

    def test_batch_preserves_order_and_isolates_errors(self):
        host, _ = make_host()
        _, body = host.handle(
            {
                "op": "batch",
                "requests": [
                    {"op": "query", "model": "SynthSys", "path": "//core"},
                    {"op": "query", "model": "nope", "path": "//core"},
                    {"op": "health"},
                ],
            }
        )
        assert body["count"] == 3
        assert body["results"][0]["count"] == 4
        assert body["results"][1]["status"] == 404
        assert body["results"][2]["ok"] is True

    def test_nested_batch_rejected(self):
        host, _ = make_host()
        _, body = host.handle(
            {"op": "batch", "requests": [{"op": "batch", "requests": []}]}
        )
        assert body["results"][0]["status"] == 400

    def test_error_statuses(self):
        host, _ = make_host()
        assert host.handle({"op": "query", "model": "nope", "path": "//x"})[0] == 404
        assert host.handle({"op": "zap"})[0] == 404
        assert host.handle({"op": "query", "model": "SynthSys"})[0] == 400
        status, body = host.handle(
            {"op": "query", "model": "SynthSys", "path": "((("}
        )
        assert status == 400
        assert "\n" not in body["error"]  # bare message, no diagnostics dump

    def test_error_body_is_single_line_for_unknown_model(self):
        host, _ = make_host()
        _, body = host.handle({"op": "query", "model": "nope", "path": "//x"})
        assert "\n" not in body["error"]

    def test_lease_is_refcounted(self):
        host, _ = make_host()
        with host.lease("SynthSys") as entry:
            assert entry.refs == 1
            with host.lease("SynthSys") as inner:
                assert inner is entry and entry.refs == 2
        assert entry.refs == 0


class TestIndexReuse:
    def test_hot_requests_share_one_hosted_entry(self):
        host, _ = make_host(reload_ttl_s=60.0)
        obs = host.observer
        with host.lease("SynthSys") as first:
            pass
        for _ in range(5):
            query_count(host, "SynthSys", "//core")
        with host.lease("SynthSys") as again:
            assert again is first  # same index, same interned handles
        assert obs.counters["service.model.builds"] == 1
        assert obs.counters["service.model.hits"] >= 6
        # the underlying pipeline ran exactly once
        assert host.session.cache_stats()["misses"] <= 4  # one per stage

    def test_ttl_zero_revalidates_without_rebuilding(self):
        host, _ = make_host()  # ttl 0: every request probes the fingerprint
        with host.lease("SynthSys") as first:
            pass
        query_count(host, "SynthSys", "//core")
        with host.lease("SynthSys") as again:
            assert again is first
        assert host.observer.counters["service.model.builds"] == 1
        assert host.observer.counters["service.model.revalidations"] >= 2


class TestHotReload:
    def test_edit_is_served_without_restart(self):
        host, store = make_host()
        assert query_count(host, "SynthSys", "//core") == 4
        store.put("cpu.xpdl", CPU_V2)
        assert query_count(host, "SynthSys", "//core") == 8
        counters = host.observer.counters
        assert counters["service.model.invalidated"] >= 1
        assert counters["service.model.builds"] == 2

    def test_within_ttl_edit_is_deferred_then_seen(self):
        host, store = make_host(reload_ttl_s=3600.0)
        assert query_count(host, "SynthSys", "//core") == 4
        store.put("cpu.xpdl", CPU_V2)
        # within the TTL the fingerprint probe is skipped: stale-but-fast
        assert query_count(host, "SynthSys", "//core") == 4
        # force the TTL to lapse without sleeping
        host._models["SynthSys"].checked_at = -1e9
        assert query_count(host, "SynthSys", "//core") == 8

    def test_session_invalidate_drops_hosted_models(self):
        host, _ = make_host()
        query_count(host, "SynthSys", "//core")
        assert host.hosted_identifiers() == ["SynthSys"]
        host.session.invalidate()
        assert host.hosted_identifiers() == []


class TestEviction:
    def _two_system_host(self, **kwargs):
        return make_host(
            {
                "cpu.xpdl": CPU_V1,
                "sys.xpdl": SYSTEM,
                "sysb.xpdl": SYSTEM_B,
            },
            **kwargs,
        )

    def test_lru_evicts_idle_model_over_budget(self):
        # budget fits one model only: hosting the second evicts the first
        host, _ = self._two_system_host(max_model_bytes=10_000)
        query_count(host, "SynthSys", "//core")
        assert host.hosted_identifiers() == ["SynthSys"]
        query_count(host, "SynthSysB", "//core")
        assert host.hosted_identifiers() == ["SynthSysB"]
        assert host.observer.counters["service.evictions"] == 1

    def test_leased_model_is_never_evicted(self):
        host, _ = self._two_system_host(max_model_bytes=10_000)
        with host.lease("SynthSys"):
            query_count(host, "SynthSysB", "//core")
            # over budget, but the leased entry must survive
            assert "SynthSys" in host.hosted_identifiers()
            assert (
                host.observer.counters["service.evict.skipped_inuse"] >= 1
            )
        # once released, the next acquisition can evict it
        query_count(host, "SynthSysB", "//core")

    def test_big_budget_hosts_both(self):
        host, _ = self._two_system_host()
        query_count(host, "SynthSys", "//core")
        query_count(host, "SynthSysB", "//core")
        assert sorted(host.hosted_identifiers()) == [
            "SynthSys",
            "SynthSysB",
        ]
        assert "service.evictions" not in host.observer.counters


class TestConcurrency:
    """N clients hammering overlapping models during live edits."""

    def test_hammer_never_tears_and_never_evicts_midrequest(self):
        files = {
            "cpu.xpdl": CPU_V1,
            "sys.xpdl": SYSTEM,
            "sysb.xpdl": SYSTEM_B,
        }
        # small budget so eviction churns constantly under the hammer
        host, store = make_host(files, max_model_bytes=10_000)
        valid = {4, 8}  # pre-edit and post-edit core counts
        stop = threading.Event()
        failures: list[str] = []

        def client(model: str) -> None:
            while not stop.is_set():
                status, body = host.handle(
                    {"op": "query", "model": model, "path": "//core"}
                )
                if status != 200:
                    failures.append(f"{model}: status {status}: {body}")
                    return
                if body["count"] not in valid:
                    failures.append(f"{model}: torn count {body['count']}")
                    return

        threads = [
            threading.Thread(target=client, args=(m,))
            for m in ("SynthSys", "SynthSysB") * 3
        ]
        for t in threads:
            t.start()
        try:
            for version in (CPU_V2, CPU_V1, CPU_V2, CPU_V1):
                store.put("cpu.xpdl", version)
                # let a burst of requests race each rewrite
                for _ in range(20):
                    status, body = host.handle(
                        {"op": "doctor", "models": ["SynthSys"]}
                    )
                    if status != 200:
                        failures.append(f"doctor: {status} {body}")
                        break
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not failures, failures[:5]
        assert not any(t.is_alive() for t in threads)
        # edits were actually observed (both versions got hosted)
        assert host.observer.counters["service.model.builds"] >= 3
        # and every lease was released
        for ident in host.hosted_identifiers():
            assert host._models[ident].refs == 0

    def test_stats_under_concurrent_queries(self):
        host, _ = make_host(reload_ttl_s=60.0)
        errors: list[Exception] = []

        def work():
            try:
                for _ in range(30):
                    query_count(host, "SynthSys", "//core")
                    host.handle({"op": "stats"})
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        stats = host.stats()
        assert stats["inflight"] == 0
        assert stats["observer"]["counters"]["service.requests.query"] == 180
        assert stats["latency"]["query"]["count"] == 180


class TestStatsShape:
    def test_stats_payload(self):
        host, _ = make_host()
        query_count(host, "SynthSys", "//core")
        stats = host.stats()
        assert stats["hosted"][0]["identifier"] == "SynthSys"
        assert stats["hosted"][0]["bytes"] == stats["hosted_bytes"] > 0
        assert stats["inflight"] == 0
        assert "query" in stats["latency"]
        lat = stats["latency"]["query"]
        assert lat["count"] == 1 and lat["max_ms"] >= 0
        assert stats["session_cache"]["misses"] >= 1
        json.dumps(stats)  # the /stats body must be JSON-clean

    def test_inflight_gauge_tracks_requests(self):
        host, _ = make_host()
        seen: list[float] = []
        original = host._op_query

        def spying(request):
            seen.append(host.observer.gauges["service.inflight"])
            return original(request)

        host._OPS = dict(host._OPS, query=lambda _self, r: spying(r))
        query_count(host, "SynthSys", "//core")
        assert seen == [1.0]
        assert host.observer.gauges["service.inflight"] == 0.0


class TestCliEquivalence:
    """The service renders exactly what the CLI prints."""

    def run_cli(self, capsys, *argv: str) -> tuple[int, str]:
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_query_rendering_matches_cli(self, capsys, tmp_path):
        (tmp_path / "cpu.xpdl").write_text(CPU_V1)
        (tmp_path / "sys.xpdl").write_text(SYSTEM)
        xir = str(tmp_path / "m.xir")
        code, _ = self.run_cli(
            capsys, "-I", str(tmp_path), "compose", "SynthSys", "-o", xir
        )
        assert code == 0
        code, cli_out = self.run_cli(capsys, "query", xir, "//core")
        assert code == 0
        host = ModelHost(include=(str(tmp_path),), reload_ttl_s=0.0)
        _, body = host.handle(
            {"op": "query", "model": "SynthSys", "path": "//core"}
        )
        assert format_query_results(body["results"]) + "\n" == cli_out

    def test_info_rendering_matches_cli(self, capsys, tmp_path):
        (tmp_path / "cpu.xpdl").write_text(CPU_V1)
        (tmp_path / "sys.xpdl").write_text(SYSTEM)
        xir = str(tmp_path / "m.xir")
        code, _ = self.run_cli(
            capsys, "-I", str(tmp_path), "compose", "SynthSys", "-o", xir
        )
        assert code == 0
        code, cli_out = self.run_cli(capsys, "info", xir)
        assert code == 0
        host = ModelHost(include=(str(tmp_path),), reload_ttl_s=0.0)
        _, body = host.handle({"op": "info", "model": "SynthSys"})
        assert format_info(body) + "\n" == cli_out

    def test_doctor_json_matches_cli(self, capsys):
        code, cli_out = self.run_cli(capsys, "doctor", "--format", "json")
        host = ModelHost(reload_ttl_s=0.0)
        status, body = host.handle({"op": "doctor"})
        assert status == 200
        assert json.dumps(body, indent=1, sort_keys=True) + "\n" == cli_out
        assert code in (0, 1)  # findings decide the CLI's exit code

    def test_list_prints_the_models_op_rows(self, capsys):
        code, cli_out = self.run_cli(capsys, "list")
        assert code == 0
        _, body = ModelHost(reload_ttl_s=0.0).handle({"op": "models"})
        rows = [
            f"{m['identifier']:32s} <{m['root_tag']}>  {m['store']}{m['path']}\n"
            for m in body["models"]
        ]
        assert body["count"] == len(rows) > 0
        assert "".join(rows) == cli_out

    def test_info_payload_helper_is_what_the_op_returns(self):
        host, _ = make_host()
        with host.lease("SynthSys") as entry:
            direct = info_payload(entry.ctx)
        _, body = host.handle({"op": "info", "model": "SynthSys"})
        assert body == direct


class TestRepositoryErrors:
    def test_unknown_model_is_404_service_error(self):
        host, _ = make_host()
        with pytest.raises(ServiceError) as exc_info:
            with host.lease("nope"):
                pass  # pragma: no cover - lease must raise
        assert exc_info.value.status == 404

    def test_observer_is_shared_with_the_session(self):
        obs = Observer()
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        host = ModelHost(
            ModelRepository([store]), observer=obs, reload_ttl_s=0.0
        )
        assert host.session.observer is obs
        query_count(host, "SynthSys", "//core")
        assert obs.counters["compose.runs"] == 1

    def test_host_accepts_prebuilt_session(self):
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        session = ToolchainSession(ModelRepository([store]))
        host = ModelHost(session=session, reload_ttl_s=0.0)
        assert host.session is session
        assert query_count(host, "SynthSys", "//core") == 4


def _char_refs(text: str) -> str:
    """``text`` as an XML attribute value: every character but ASCII
    letters and digits written as a character reference."""
    return "".join(
        c if c.isascii() and c.isalnum() else f"&#{ord(c)};" for c in text
    )


def _parent_payload(host: ModelHost, request: dict) -> dict:
    """The payload of ``request`` built the way the host built it before
    node texts were memoized: a query's results are fresh
    :func:`handle_payload` dicts."""
    if request["op"] == "batch":
        results = [_parent_payload(host, sub) for sub in request["requests"]]
        return {"count": len(results), "results": results}
    status, body = host.handle(request)
    if request["op"] != "query" or status != 200:
        return body
    with host.lease(request["model"]) as entry:
        handles = query_all(entry.ctx, request["path"])
    return {
        "model": request["model"],
        "path": request["path"],
        "count": len(handles),
        "results": [handle_payload(h) for h in handles],
    }


#: Any character but NUL and the surrogates.
_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")


class TestRendering:
    """Replies splice memoized node texts, byte-identical to encoding the
    payload the parent's way."""

    @settings(max_examples=25, deadline=None)
    @given(
        notes=st.lists(st.text(_CHARS, max_size=8), min_size=1, max_size=3),
        model=st.text(st.sampled_from("Sy'\"\\\u00e9\u65e5 </&"), max_size=6),
        literal=st.text(st.sampled_from("ab\"\\\u00e9\u20ac\n"), max_size=4),
    )
    def test_encoded_body_is_json_dumps_of_the_parent_payload(
        self, notes, model, literal
    ):
        cores = "".join(
            f"<core name='c{i}' note='{_char_refs(n)}'/>" for i, n in enumerate(notes)
        )
        system = (
            f"<system id='Sys{_char_refs(model)}'><node>"
            "<cpu id='PE0' type='NoteCpu'/></node></system>"
        )
        host, _ = make_host(
            {"cpu.xpdl": f"<cpu name='NoteCpu'>{cores}</cpu>", "sys.xpdl": system},
            reload_ttl_s=60.0,
        )
        ident = f"Sys{model}"
        queries = [
            {"op": "query", "model": ident, "path": path}
            for path in (
                "//core",
                "//*",
                "//nothing",  # no results
                f"//core[@name='{literal}']",  # a path that needs escaping
            )
        ]
        batch = {
            "op": "batch",
            "requests": [
                *queries,
                {"op": "info", "model": ident},
                {"op": "analysis", "model": ident},
                {"op": "query", "model": "nope", "path": "//core"},  # 404
                {"op": "query", "model": ident, "path": "((("},  # 400
            ],
        }
        for request in [*queries, batch, *queries]:  # memo cold, then warm
            status, body = host.handle(request)
            assert status == 200, body
            oracle = _parent_payload(host, request)
            assert encode_body(body) == json.dumps(oracle, sort_keys=True).encode()
            # In process a query's results still read as handle_payload
            # dicts, attributes in document order.
            pairs = (
                zip(body["results"], oracle["results"])
                if request["op"] == "batch"
                else [(body, oracle)]
            )
            for got, want in pairs:
                if isinstance(want.get("results"), list):
                    assert got["results"] == want["results"]
                    assert [list(r["attrs"]) for r in got["results"]] == [
                        list(r["attrs"]) for r in want["results"]
                    ]

    def test_other_payloads_encode_like_json_dumps(self):
        host, _ = make_host()
        for request in (
            {"op": "info", "model": "SynthSys"},
            {"op": "analysis", "model": "SynthSys"},
            {"op": "compose", "model": "SynthSys"},
            {"op": "doctor"},
            {"op": "models"},
            {"op": "query", "model": "nope", "path": "//core"},
        ):
            _, body = host.handle(request)
            assert encode_body(body) == json.dumps(body, sort_keys=True).encode()


class TestNodeTextMemo:
    """Each hosted entry renders a node once; the memo goes with it."""

    def _counting_renders(self, monkeypatch) -> list:
        rendered: list = []

        def counting(handle):
            rendered.append(handle)
            return handle_payload(handle)

        monkeypatch.setattr("repro.service.core.handle_payload", counting)
        return rendered

    def test_a_node_is_rendered_once_per_hosted_entry(self, monkeypatch):
        host, _ = make_host(reload_ttl_s=60.0)
        rendered = self._counting_renders(monkeypatch)
        query = {"op": "query", "model": "SynthSys", "path": "//core"}
        _, first = host.handle(query)
        assert len(rendered) == 4
        _, again = host.handle(query)
        host.handle({"op": "batch", "requests": [query, query]})
        assert len(rendered) == 4  # served from the memo
        assert encode_body(again) == encode_body(first)
        with host.lease("SynthSys") as entry:
            assert entry.size_bytes == (
                entry.emit.ir.approx_size_bytes()
                + NODE_TEXT_BYTES * len(entry.ctx.ir)
            )

    def test_an_edit_past_the_ttl_never_serves_an_old_text(self):
        host, store = make_host()  # ttl 0: every request probes the edit
        query = {"op": "query", "model": "SynthSys", "path": "//core"}
        _, before = host.handle(query)
        assert b'"frequency": "2"' in encode_body(before)
        store.put("cpu.xpdl", CPU_V1.replace("frequency='2'", "frequency='3'"))
        for _ in range(3):
            _, after = host.handle(query)
            body = encode_body(after)
            assert body.count(b'"frequency": "3"') == 4
            assert b'"frequency": "2"' not in body

    def test_reload_and_eviction_drop_the_memo(self, monkeypatch):
        host, store = TestEviction()._two_system_host(max_model_bytes=10_000)
        rendered = self._counting_renders(monkeypatch)
        query = {"op": "query", "model": "SynthSys", "path": "//core"}
        host.handle(query)
        entry = weakref.ref(host._models["SynthSys"])
        assert len(rendered) == 4
        store.put("cpu.xpdl", CPU_V2)  # reload: a new entry renders anew
        host.handle(query)
        gc.collect()
        assert entry() is None and len(rendered) == 4 + 8
        entry = weakref.ref(host._models["SynthSys"])
        host.handle({"op": "query", "model": "SynthSysB", "path": "//core"})
        assert host.hosted_identifiers() == ["SynthSysB"]  # evicted
        gc.collect()
        assert entry() is None
        host.handle(query)
        assert len(rendered) == 4 + 8 + 8 + 8
