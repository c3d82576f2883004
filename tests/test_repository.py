"""Tests for the distributed model repository."""

from pathlib import Path

import pytest

from repro.corpus import generate_corpus
from repro.diagnostics import DiagnosticSink, ResolutionError, TransientFetchError
from repro.repository import (
    CachingStore,
    FailEvery,
    FaultPlan,
    LocalDirStore,
    MemoryStore,
    ModelRepository,
    RemoteSimStore,
)
from repro.xpdlxml import parse_xml, root_start_tag

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_repo(files: dict[str, str]) -> ModelRepository:
    return ModelRepository([MemoryStore(files)])


class TestStores:
    def test_memory_store(self):
        s = MemoryStore({"a.xpdl": "<cpu name='A'/>"})
        assert s.list_paths() == ["a.xpdl"]
        assert "cpu" in s.fetch("a.xpdl")
        with pytest.raises(ResolutionError):
            s.fetch("missing.xpdl")

    def test_local_dir_store(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "x.xpdl").write_text("<cpu name='X'/>")
        (tmp_path / "ignored.txt").write_text("nope")
        s = LocalDirStore(str(tmp_path))
        assert s.list_paths() == ["sub/x.xpdl"]
        assert "X" in s.fetch("sub/x.xpdl")

    def test_remote_sim_accounting(self):
        backing = MemoryStore({"a.xpdl": "<cpu name='A'/>" * 10})
        remote = RemoteSimStore(backing, latency_s=0.1, bandwidth_bps=1000)
        remote.fetch("a.xpdl")
        assert remote.log.fetches == 1
        assert remote.log.bytes > 0
        assert remote.log.simulated_latency_s > 0.1

    def test_remote_sim_failure_injection(self):
        backing = MemoryStore({"a.xpdl": "<cpu name='A'/>"})
        remote = RemoteSimStore(backing, faults=FaultPlan(default=FailEvery(2)))
        remote.fetch("a.xpdl")
        # Injected failures are *transient* (retryable), never a permanent
        # not-found: the descriptor exists, the network hiccupped.
        with pytest.raises(TransientFetchError):
            remote.fetch("a.xpdl")
        remote.fetch("a.xpdl")  # third call succeeds again
        assert remote.log.failures == 1

    def test_caching_store(self):
        backing = MemoryStore({"a.xpdl": "<cpu name='A'/>"})
        remote = RemoteSimStore(backing)
        cache = CachingStore(remote)
        cache.fetch("a.xpdl")
        cache.fetch("a.xpdl")
        assert cache.hits == 1 and cache.misses == 1
        assert remote.log.fetches == 1  # second hit never reached the remote


class TestIndex:
    def test_index_by_name_and_id(self):
        repo = make_repo(
            {
                "a.xpdl": "<cpu name='CpuA'/>",
                "b.xpdl": "<system id='sysB'/>",
            }
        )
        assert set(repo.identifiers()) == {"CpuA", "sysB"}
        assert "CpuA" in repo

    def test_shadowing_first_store_wins(self):
        s1 = MemoryStore({"a.xpdl": "<cpu name='X' frequency='1'/>"}, url="one:")
        s2 = MemoryStore({"b.xpdl": "<cpu name='X' frequency='2'/>"}, url="two:")
        repo = ModelRepository([s1, s2])
        sink = DiagnosticSink()
        repo.index(sink)
        model = repo.load_model("X")
        assert model.attrs["frequency"] == "1"

    def test_descriptor_without_identifier_warned(self):
        repo = make_repo({"a.xpdl": "<cpu/>"})
        sink = DiagnosticSink()
        repo.index(sink)
        assert any(d.code == "XPDL0200" for d in sink)

    def test_add_inline(self):
        repo = make_repo({})
        repo.add_inline("gen.xpdl", "<cpu name='Gen'/>")
        assert "Gen" in repo


class TestLoading:
    def test_load_caches(self):
        repo = make_repo({"a.xpdl": "<cpu name='A'/>"})
        m1 = repo.load("A")
        m2 = repo.load("A")
        assert m1 is m2

    def test_load_unknown_with_case_hint(self):
        repo = make_repo({"a.xpdl": "<cpu name='CpuA'/>"})
        with pytest.raises(ResolutionError) as exc:
            repo.load("cpua")
        assert "CpuA" in str(exc.value)

    def test_case_hint_names_the_first_match_and_follows_reindex(self):
        store = MemoryStore(
            {"a.xpdl": "<cpu name='CPUA'/>", "b.xpdl": "<cpu name='CpuA'/>"}
        )
        repo = ModelRepository([store])
        with pytest.raises(ResolutionError, match="did you mean 'CPUA'"):
            repo.load("cpua")
        with pytest.raises(ResolutionError) as exc:
            repo.load("nothing")
        assert "did you mean" not in str(exc.value)
        store.put("a.xpdl", "<cpu name='Other'/>")
        repo.invalidate()
        with pytest.raises(ResolutionError, match="did you mean 'CpuA'"):
            repo.load("cpua")

    def test_references_of(self):
        repo = make_repo({})
        from repro.model import from_document
        from repro.xpdlxml import parse_xml

        model = from_document(
            parse_xml(
                "<system id='s'><cpu id='c' type='T' extends='E1,E2'/>"
                "<instructions name='i' mb='MB'/></system>"
            )
        )
        refs = repo.references_of(model)
        assert {"T", "E1", "E2", "MB"} <= refs


class TestClosure:
    def test_recursive_closure(self):
        repo = make_repo(
            {
                "sys.xpdl": "<system id='S'><cpu id='c' type='A'/></system>",
                "a.xpdl": "<cpu name='A'><power_model type='P'/></cpu>",
                "p.xpdl": "<power_model name='P'/>",
            }
        )
        closure = repo.load_closure("S")
        assert set(closure) == {"S", "A", "P"}

    def test_category_refs_noted_not_fatal(self):
        repo = make_repo(
            {"m.xpdl": "<memory name='M' type='DDR3' size='1' unit='GB'/>"}
        )
        sink = DiagnosticSink()
        closure = repo.load_closure("M", sink)
        assert set(closure) == {"M"}
        assert any(d.code == "XPDL0211" for d in sink)
        assert not sink.has_errors()

    def test_cycle_detected(self):
        repo = make_repo(
            {
                "a.xpdl": "<cpu name='A' extends='B'/>",
                "b.xpdl": "<cpu name='B' extends='A'/>",
            }
        )
        sink = DiagnosticSink()
        closure = repo.load_closure("A", sink)
        assert any(d.code == "XPDL0210" for d in sink)
        assert "A" in closure and "B" in closure

    def test_paper_corpus_closures(self, repo):
        for system in ("myriad_server", "liu_gpu_server", "XScluster"):
            sink = DiagnosticSink()
            closure = repo.load_closure(system, sink)
            assert system in closure
            assert len(closure) > 5
            assert not sink.has_errors()

    def test_stats(self, repo):
        stats = repo.stats()
        assert stats["descriptors"] >= 40


class TestIndexResilience:
    """Satellites: indexing surfaces fetch failures instead of swallowing
    them, and loading never re-fetches text the indexer downloaded."""

    def test_unreachable_store_warned_with_url(self):
        from repro.repository import AlwaysFail, FaultPlan

        dead = RemoteSimStore(
            MemoryStore({"a.xpdl": "<cpu name='A'/>"}),
            faults=FaultPlan(default=AlwaysFail()),
        )
        repo = ModelRepository([dead])
        sink = DiagnosticSink()
        assert repo.index(sink) == {}
        warn = [d for d in sink if d.code == "XPDL0202"]
        assert len(warn) == 1
        assert dead.url in warn[0].message

    def test_per_path_fetch_failure_warned_not_swallowed(self):
        from repro.repository import FaultPlan, FailKTimes

        plan = FaultPlan()
        plan.add("b.xpdl", FailKTimes(99))
        flaky = RemoteSimStore(
            MemoryStore(
                {"a.xpdl": "<cpu name='A'/>", "b.xpdl": "<cpu name='B'/>"}
            ),
            faults=plan,
        )
        repo = ModelRepository([flaky])
        sink = DiagnosticSink()
        index = repo.index(sink)
        assert set(index) == {"A"}  # 'b' omitted, loudly
        warn = [d for d in sink if d.code == "XPDL0203"]
        assert len(warn) == 1
        assert "b.xpdl" in warn[0].message

    def test_load_reuses_indexed_text(self):
        """The indexer already fetched every descriptor; load() must not
        pay (or risk) a second remote fetch for the same path."""
        remote = RemoteSimStore(
            MemoryStore(
                {"a.xpdl": "<cpu name='A'/>", "b.xpdl": "<cpu name='B'/>"}
            )
        )
        repo = ModelRepository([remote])
        repo.index()
        fetches_after_index = remote.log.fetches
        repo.load("A")
        repo.load("B")
        assert remote.log.fetches == fetches_after_index

    def test_load_after_flaky_index_needs_no_luck(self):
        """Even a remote that now always fails serves loads, because the
        index kept the downloaded texts."""
        from repro.repository import AlwaysFail, FaultPlan

        backing = MemoryStore({"a.xpdl": "<cpu name='A'/>"})
        remote = RemoteSimStore(backing)
        repo = ModelRepository([remote])
        repo.index()
        remote.faults = FaultPlan(default=AlwaysFail())  # remote dies
        assert repo.load("A").model.attrs["name"] == "A"


def _full_root(text: str) -> tuple[str, dict[str, str]]:
    root = parse_xml(text).root
    return root.tag, {name: a.value for name, a in root.attributes.items()}


def _descriptor_texts() -> list[tuple[str, str]]:
    texts = [
        (str(path.relative_to(REPO_ROOT)), path.read_text(encoding="utf-8"))
        for top in ("src", "tests", "examples")
        for path in sorted((REPO_ROOT / top).rglob("*.xpdl"))
    ]
    for seed, scale in ((7, 40), (1, 120), (3, 300)):
        corpus = generate_corpus(seed, scale)
        texts += [(f"gen({seed},{scale})/{p}", t) for p, t in corpus.files]
    return texts


class TestRootStartTag:
    """The index reads each descriptor's root start tag by pattern; the
    full parse must agree wherever the pattern answers."""

    def test_pattern_equals_full_parse_on_every_descriptor(self):
        texts = _descriptor_texts()
        assert len(texts) > 460
        for name, text in texts:
            start = root_start_tag(text)
            assert start is not None, name  # no shipped descriptor falls back
            assert start == _full_root(text), name

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("<cpu name='A'/>", ("cpu", {"name": "A"})),
            (
                '<?xml version="1.0" encoding=\'utf-8\'?>\n<!-- a > b -- c -->\n'
                '<?pi x?y > z?>\r\n\t<system id="S" name=\'\'>',
                ("system", {"id": "S", "name": ""}),
            ),
            ('<cpu name="x>y" name="dup" id = "i"\n/>', ("cpu", {"name": "x>y", "id": "i"})),
            ("<!----><?xml late?><a.b-c:d e=''>", ("a.b-c:d", {"e": ""})),
            ('<a x="1"y="2">', ("a", {"x": "1", "y": "2"})),
        ],
    )
    def test_pattern_path_cases(self, text, expected):
        assert root_start_tag(text) == expected == _full_root(text)

    @pytest.mark.parametrize(
        "text",
        [
            "<!DOCTYPE cpu><cpu name='A'/>",
            "<cpu name='A&amp;B'/>",
            "<cpu name='A<B'/>",
            "<cpu name=A/>",
            "<cpu name='A' virtual/>",
            "\ufeff<cpu name='A'/>",
            "text <cpu name='A'/>",
            "<!-- unterminated <cpu name='A'/>",
            "<?xml-stylesheet href='s'?><cpu name='A'/>",
            "<?xml version=1.0?><cpu name='A'/>",
            "< cpu name='A'/><cpu name='B'/>",
            "<cpu name='A' / >",
            "",
            "   ",
        ],
    )
    def test_fallback_cases_agree_with_the_parser(self, text):
        assert root_start_tag(text) is None
        repo = make_repo({})
        root = parse_xml(text).root
        assert repo._root_identifier(text, "x.xpdl") == (
            root.get("name") or root.get("id"),
            root.tag,
        )

    def test_two_roots_index_and_load_agree(self):
        text = "<cpu name='First'/>\n<cpu name='Second'/>"
        assert root_start_tag(text) == ("cpu", {"name": "First"})
        repo = make_repo({"two.xpdl": text})
        assert list(repo.index()) == ["First"]
        sink = DiagnosticSink()
        loaded = repo.load("First", sink)
        assert loaded.model.name == "First"
        assert [d.code for d in sink.errors()] == ["XML0020"]
