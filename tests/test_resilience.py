"""The distributed-repository resilience stack: typed failures, retries
with deterministic backoff, the circuit breaker, the offline mirror and
the fault-injection harness that drives them all."""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics import (
    DiagnosticSink,
    ResolutionError,
    TransientFetchError,
    XpdlError,
)
from repro.obs import Observer, use_observer
from repro.repository import (
    LISTING_PATH,
    AlwaysFail,
    CachingStore,
    CircuitBreakerStore,
    FailEvery,
    FailKTimes,
    FaultPlan,
    MemoryStore,
    MirrorIndex,
    ModelRepository,
    NoFaults,
    OfflineMirrorStore,
    RemoteSimStore,
    RetryingStore,
    SlowThenFail,
    iter_store_chain,
    resilient_stack,
)
from repro.repository.store import write_record

FILES = {"a.xpdl": "<cpu name='A'/>", "b.xpdl": "<cpu name='B'/>"}


def remote(files=None, faults=None, **kw):
    return RemoteSimStore(MemoryStore(dict(files or FILES)), faults=faults, **kw)


# ---------------------------------------------------------------------------
# faultsim: schedules and plans
# ---------------------------------------------------------------------------


class TestFaultSchedules:
    def test_no_faults(self):
        s = NoFaults()
        assert not s.outcome("p", 1, 1).fail

    def test_fail_k_times_then_succeed(self):
        s = FailKTimes(2)
        fails = [s.outcome("p", n, n).fail for n in range(1, 5)]
        assert fails == [True, True, False, False]

    def test_always_fail(self):
        s = AlwaysFail()
        assert all(s.outcome("p", n, n).fail for n in range(1, 10))

    def test_slow_then_fail(self):
        s = SlowThenFail(2, latency_factor=4.0)
        o1, o2, o3 = (s.outcome("p", n, n) for n in range(1, 4))
        assert (o1.fail, o1.latency_factor) == (False, 4.0)
        assert (o2.fail, o2.latency_factor) == (False, 4.0)
        assert o3.fail

    def test_fail_every_uses_global_counter(self):
        # Legacy fail_every=2 semantics: 2nd, 4th, ... request overall.
        plan = FaultPlan(default=FailEvery(2))
        fails = [plan.outcome_for(p).fail for p in ("a", "b", "a", "b")]
        assert fails == [False, True, False, True]

    def test_plan_counts_per_path(self):
        plan = FaultPlan(default=FailKTimes(1))
        assert plan.outcome_for("a").fail  # first request to 'a'
        assert plan.outcome_for("b").fail  # first request to 'b'
        assert not plan.outcome_for("a").fail

    def test_plan_pattern_rules_override_default(self):
        plan = FaultPlan(default=NoFaults())
        plan.add("vendor/*", AlwaysFail())
        assert plan.outcome_for("vendor/k20c.xpdl").fail
        assert not plan.outcome_for("local/cpu.xpdl").fail

    def test_reset_restores_counters(self):
        plan = FaultPlan(default=FailKTimes(1))
        assert plan.outcome_for("a").fail
        plan.reset()
        assert plan.outcome_for("a").fail


class TestFaultPlanParse:
    def test_simple_specs(self):
        for spec, n_fail in (("dead", 5), ("fail:2", 2), ("none", 0)):
            plan = FaultPlan.parse(spec)
            fails = sum(plan.outcome_for("p").fail for _ in range(5))
            assert fails == n_fail, spec

    def test_pattern_spec(self):
        plan = FaultPlan.parse("vendor/*=dead;fail:1")
        assert plan.outcome_for("vendor/x.xpdl").fail
        assert plan.outcome_for("vendor/x.xpdl").fail  # dead stays dead
        assert plan.outcome_for("y.xpdl").fail
        assert not plan.outcome_for("y.xpdl").fail

    def test_slow_fail_spec(self):
        plan = FaultPlan.parse("slow-fail:1:8")
        o = plan.outcome_for("p")
        assert not o.fail and o.latency_factor == 8.0
        assert plan.outcome_for("p").fail

    def test_bad_spec_rejected(self):
        for bad in ("bogus", "fail", "fail:x", "every:0"):
            with pytest.raises(XpdlError):
                FaultPlan.parse(bad)

    def test_empty_pattern_rejected_not_read_as_default(self):
        for bad in ("=dead", " = fail:2", "vendor/*=dead; =dead"):
            with pytest.raises(XpdlError, match="empty path pattern"):
                FaultPlan.parse(bad)
        # A bare schedule still sets the store-wide default.
        assert FaultPlan.parse(" dead ").outcome_for("any.xpdl").fail

    def test_describe_mentions_rules(self):
        plan = FaultPlan.parse("vendor/*=dead;fail:2")
        desc = plan.describe()
        assert "vendor/*" in desc and "fail" in desc.lower()


# ---------------------------------------------------------------------------
# RetryingStore: deterministic backoff accounting
# ---------------------------------------------------------------------------


class TestRetryBackoff:
    def test_backoff_is_deterministic(self):
        def run():
            store = RetryingStore(
                remote(faults=FaultPlan(default=AlwaysFail())), attempts=4, seed=7
            )
            with pytest.raises(TransientFetchError):
                store.fetch("a.xpdl")
            return store.backoff_s

        assert run() == run()

    def test_backoff_grows_exponentially(self):
        store = RetryingStore(
            remote(faults=FaultPlan(default=AlwaysFail())),
            attempts=4,
            base_delay_s=1.0,
            multiplier=2.0,
            jitter=0.0,
        )
        with pytest.raises(TransientFetchError):
            store.fetch("a.xpdl")
        assert store.retries == 3
        assert store.backoff_s == pytest.approx(1.0 + 2.0 + 4.0)

    def test_recovers_within_budget(self):
        store = RetryingStore(
            remote(faults=FaultPlan(default=FailKTimes(2))), attempts=3
        )
        assert "A" in store.fetch("a.xpdl")
        assert store.retries == 2

    def test_listing_retried_too(self):
        plan = FaultPlan(default=NoFaults())
        plan.add(LISTING_PATH, FailKTimes(1))
        store = RetryingStore(remote(faults=plan), attempts=2)
        assert store.list_paths() == ["a.xpdl", "b.xpdl"]
        assert store.retries == 1

    def test_retry_counter_observed(self):
        obs = Observer()
        with use_observer(obs):
            store = RetryingStore(
                remote(faults=FaultPlan(default=FailKTimes(1))), attempts=2
            )
            store.fetch("a.xpdl")
        assert obs.counters["repo.fetch.retries"] == 1
        assert obs.counters["repo.fetch.transient"] == 1


# ---------------------------------------------------------------------------
# CircuitBreakerStore
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, faults, threshold=2, cooldown=3):
        rem = remote(faults=faults)
        return rem, CircuitBreakerStore(
            rem, failure_threshold=threshold, cooldown_requests=cooldown
        )

    def test_opens_after_consecutive_failures(self):
        rem, brk = self.make(FaultPlan(default=AlwaysFail()))
        for _ in range(2):
            with pytest.raises(TransientFetchError):
                brk.fetch("a.xpdl")
        assert brk.state == "open"
        assert brk.opens == 1

    def test_fast_fails_without_backing_traffic(self):
        rem, brk = self.make(FaultPlan(default=AlwaysFail()))
        for _ in range(2):
            with pytest.raises(TransientFetchError):
                brk.fetch("a.xpdl")
        before = rem.log.fetches
        with pytest.raises(TransientFetchError):
            brk.fetch("a.xpdl")
        assert rem.log.fetches == before  # fail fast: no remote hit
        assert brk.fast_failures == 1

    def test_half_open_probe_closes_on_success(self):
        rem, brk = self.make(FaultPlan(default=FailKTimes(2)), cooldown=1)
        for _ in range(2):
            with pytest.raises(TransientFetchError):
                brk.fetch("a.xpdl")
        with pytest.raises(TransientFetchError):
            brk.fetch("a.xpdl")  # cooldown request, fast-failed
        assert "A" in brk.fetch("a.xpdl")  # half-open probe succeeds
        assert brk.state == "closed"

    def test_half_open_probe_reopens_on_failure(self):
        rem, brk = self.make(FaultPlan(default=AlwaysFail()), cooldown=1)
        for _ in range(2):
            with pytest.raises(TransientFetchError):
                brk.fetch("a.xpdl")
        with pytest.raises(TransientFetchError):
            brk.fetch("a.xpdl")  # fast-fail consumes the cooldown
        with pytest.raises(TransientFetchError):
            brk.fetch("a.xpdl")  # half-open probe fails -> reopen
        assert brk.state == "open"
        assert brk.opens == 2

    def test_permanent_not_found_resets_count_and_passes_through(self):
        rem, brk = self.make(FaultPlan(default=NoFaults()))
        with pytest.raises(TransientFetchError):
            CircuitBreakerStore(
                remote(faults=FaultPlan(default=AlwaysFail())), failure_threshold=1
            ).fetch("a.xpdl")
        with pytest.raises(ResolutionError):
            brk.fetch("missing.xpdl")
        assert brk.state == "closed"
        assert brk._consecutive == 0

    def test_open_emits_notice_and_counter(self):
        obs = Observer()
        with use_observer(obs):
            _, brk = self.make(FaultPlan(default=AlwaysFail()), threshold=1)
            with pytest.raises(TransientFetchError):
                brk.fetch("a.xpdl")
        assert obs.counters["repo.breaker.open"] == 1
        notices = brk.drain_notices()
        assert any("circuit breaker opened" in n.message for n in notices)


# ---------------------------------------------------------------------------
# MirrorIndex and OfflineMirrorStore
# ---------------------------------------------------------------------------


class TestMirrorIndex:
    def test_roundtrip_and_layout(self, tmp_path):
        idx = MirrorIndex(str(tmp_path / "m"))
        assert idx.put("a.xpdl", "<cpu name='A'/>")
        assert idx.get("a.xpdl") == "<cpu name='A'/>"
        assert idx.paths() == ["a.xpdl"]
        records = list((tmp_path / "m").rglob("*.rec"))
        assert [str(r) for r in records] == [idx.record_path("a.xpdl")]
        assert sorted(p.name for p in (tmp_path / "m").rglob("*")) == sorted(
            [records[0].parent.name, records[0].name]
        )  # no index, no objects/, no lock

    def test_identical_put_is_noop(self, tmp_path):
        idx = MirrorIndex(str(tmp_path))
        assert idx.put("a.xpdl", "x")
        assert not idx.put("a.xpdl", "x")
        assert idx.put("a.xpdl", "y")  # changed content counts
        assert idx.get("a.xpdl") == "y"
        assert idx.stats()["entries"] == 1

    def test_corrupt_record_is_not_listed(self, tmp_path):
        idx = MirrorIndex(str(tmp_path))
        idx.put("a.xpdl", "x")
        idx.put("b.xpdl", "y")
        with open(idx.record_path("a.xpdl"), "wb") as fh:
            fh.write(b"not a record at all")
        obs = Observer()
        with use_observer(obs):
            assert MirrorIndex(str(tmp_path)).paths() == ["b.xpdl"]
        assert obs.counters["cache.corrupt"] == 1

    def test_version_mismatch_reads_empty(self, tmp_path):
        idx = MirrorIndex(str(tmp_path))
        idx.put("a.xpdl", "x")
        write_record(
            idx.record_path("a.xpdl"), {"version": 999, "path": "a.xpdl"}, b"x"
        )
        assert MirrorIndex(str(tmp_path)).get("a.xpdl") is None

    def test_corrupt_blob_reads_missing(self, tmp_path):
        idx = MirrorIndex(str(tmp_path))
        idx.put("a.xpdl", "<cpu name='A'/>")
        record = idx.record_path("a.xpdl")
        with open(record, "rb") as fh:
            data = fh.read()
        with open(record, "wb") as fh:
            fh.write(data.replace(b"<cpu name='A'/>", b"<cpu name='B'/>"))
        assert MirrorIndex(str(tmp_path)).get("a.xpdl") is None

    def test_no_temp_droppings(self, tmp_path):
        idx = MirrorIndex(str(tmp_path))
        for i in range(5):
            idx.put(f"f{i}.xpdl", f"<cpu name='C{i}'/>")
        assert not list(tmp_path.rglob(".tmp-*"))


MIRROR_TEXT = "<cpu name='Fuzz' frequency='2' frequency_unit='GHz'/>"


def _mirror_record() -> bytes:
    with tempfile.TemporaryDirectory() as root:
        idx = MirrorIndex(root)
        idx.put("vendor/fuzz.xpdl", MIRROR_TEXT)
        with open(idx.record_path("vendor/fuzz.xpdl"), "rb") as fh:
            return fh.read()


MIRROR_RECORD = _mirror_record()


class TestMirrorRecordFuzz:
    """A damaged mirror record is a counted miss or the mirrored text:
    the reader never raises and never serves another text."""

    def _check(self, data: bytes) -> None:
        obs = Observer()
        with tempfile.TemporaryDirectory() as root, use_observer(obs):
            idx = MirrorIndex(root)
            record = idx.record_path("vendor/fuzz.xpdl")
            os.makedirs(os.path.dirname(record))
            with open(record, "wb") as fh:
                fh.write(data)
            text = idx.get("vendor/fuzz.xpdl")
        if text is None:
            assert obs.counters.get("cache.corrupt", 0) == 1
        else:
            assert text == MIRROR_TEXT

    @settings(max_examples=300, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(MIRROR_RECORD) - 1))
    def test_truncated_record(self, cut):
        self._check(MIRROR_RECORD[:cut])

    @settings(max_examples=300, deadline=None)
    @given(
        at=st.integers(min_value=0, max_value=len(MIRROR_RECORD) - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_flipped_byte(self, at, mask):
        data = bytearray(MIRROR_RECORD)
        data[at] ^= mask
        self._check(bytes(data))


class TestOfflineMirrorStore:
    def test_write_through_populates_mirror(self, tmp_path):
        store = OfflineMirrorStore(remote(), str(tmp_path))
        store.fetch("a.xpdl")
        assert store.mirror_stores == 1
        assert store.mirror.get("a.xpdl") == FILES["a.xpdl"]

    def test_dead_remote_degrades_to_last_known_good(self, tmp_path):
        warm = OfflineMirrorStore(remote(), str(tmp_path))
        warm.fetch("a.xpdl")
        dead = OfflineMirrorStore(
            remote(faults=FaultPlan(default=AlwaysFail())), str(tmp_path)
        )
        assert dead.fetch("a.xpdl") == FILES["a.xpdl"]
        assert dead.mirror_hits == 1
        notices = dead.drain_notices()
        assert any(n.warning and "unreachable" in n.message for n in notices)

    def test_cold_mirror_propagates_transient(self, tmp_path):
        dead = OfflineMirrorStore(
            remote(faults=FaultPlan(default=AlwaysFail())), str(tmp_path)
        )
        with pytest.raises(TransientFetchError):
            dead.fetch("a.xpdl")

    def test_permanent_not_found_never_served_from_mirror(self, tmp_path):
        store = OfflineMirrorStore(remote(), str(tmp_path))
        store.fetch("a.xpdl")
        # The remote answers "gone": the stale mirror copy must not mask it.
        store.backing.backing._files.pop("a.xpdl")
        with pytest.raises(ResolutionError):
            store.fetch("a.xpdl")

    def test_listing_falls_back_to_mirror(self, tmp_path):
        warm = OfflineMirrorStore(remote(), str(tmp_path))
        for p in warm.list_paths():
            warm.fetch(p)
        dead = OfflineMirrorStore(
            remote(faults=FaultPlan(default=AlwaysFail())), str(tmp_path)
        )
        assert dead.list_paths() == ["a.xpdl", "b.xpdl"]

    def test_only_first_degradation_is_a_warning(self, tmp_path):
        warm = OfflineMirrorStore(remote(), str(tmp_path))
        for p in warm.list_paths():
            warm.fetch(p)
        dead = OfflineMirrorStore(
            remote(faults=FaultPlan(default=AlwaysFail())), str(tmp_path)
        )
        dead.fetch("a.xpdl")
        dead.fetch("b.xpdl")
        notices = dead.drain_notices()
        assert [n.warning for n in notices] == [True, False]


# ---------------------------------------------------------------------------
# CachingStore listing cache (satellite: list_paths memoization)
# ---------------------------------------------------------------------------


class TestCachingStoreListing:
    def test_list_paths_cached(self):
        rem = remote()
        cache = CachingStore(rem)
        first = cache.list_paths()
        second = cache.list_paths()
        assert first == second == ["a.xpdl", "b.xpdl"]
        assert cache.list_hits == 1

    def test_invalidate_clears_texts_and_listing(self):
        backing = MemoryStore(dict(FILES))
        cache = CachingStore(backing)
        cache.fetch("a.xpdl")
        cache.list_paths()
        backing.put("c.xpdl", "<cpu name='C'/>")
        assert "c.xpdl" not in cache.list_paths()  # stale by design
        cache.invalidate()
        assert "c.xpdl" in cache.list_paths()
        cache.fetch("a.xpdl")
        assert cache.misses == 2  # refetched after invalidate


# ---------------------------------------------------------------------------
# resilient_stack composition + repository integration
# ---------------------------------------------------------------------------


class TestResilientStack:
    def test_layering_order(self, tmp_path):
        stack = resilient_stack(remote(), mirror_dir=str(tmp_path))
        kinds = [type(s).__name__ for s in iter_store_chain(stack)]
        assert kinds == [
            "CachingStore",
            "OfflineMirrorStore",
            "CircuitBreakerStore",
            "RetryingStore",
            "RemoteSimStore",
            "MemoryStore",
        ]

    def test_optional_layers(self):
        stack = resilient_stack(remote(), mirror_dir=None, cache=False)
        kinds = [type(s).__name__ for s in iter_store_chain(stack)]
        assert kinds[:2] == ["CircuitBreakerStore", "RetryingStore"]

    def test_flaky_remote_composes_identically(self, tmp_path):
        """fail-twice-then-succeed on every path: the composed closure is
        byte-identical to the no-fault run (the acceptance criterion)."""
        clean = ModelRepository([remote()])
        texts_clean = {
            i: clean.load(i).text for i in clean.identifiers()
        }
        flaky = ModelRepository(
            [
                resilient_stack(
                    remote(faults=FaultPlan(default=FailKTimes(2))),
                    attempts=3,
                    mirror_dir=str(tmp_path),
                )
            ]
        )
        sink = DiagnosticSink()
        texts_flaky = {
            i: flaky.load(i, sink).text for i in flaky.identifiers()
        }
        assert texts_flaky == texts_clean
        assert not sink.has_errors()

    def test_dead_remote_with_warm_mirror_still_serves(self, tmp_path):
        warm = ModelRepository(
            [resilient_stack(remote(), mirror_dir=str(tmp_path))]
        )
        assert warm.identifiers() == ["A", "B"]
        dead = ModelRepository(
            [
                resilient_stack(
                    remote(faults=FaultPlan(default=AlwaysFail())),
                    attempts=2,
                    mirror_dir=str(tmp_path),
                )
            ]
        )
        sink = DiagnosticSink()
        assert dead.index(sink)
        lm = dead.load("A", sink)
        assert "name='A'" in lm.text
        assert not sink.has_errors()
        assert any(
            d.code == "XPDL0204" and d.severity.name == "WARNING" for d in sink
        )

    def test_store_stats_unrolls_layers(self, tmp_path):
        repo = ModelRepository(
            [resilient_stack(remote(), mirror_dir=str(tmp_path))]
        )
        repo.load("A")
        rows = repo.store_stats()
        urls = [r["url"] for r in rows]
        assert any(u.startswith("cache(") for u in urls)
        assert any(u.startswith("mirror(") for u in urls)
        assert any(u.startswith("breaker(") for u in urls)
        assert any(u.startswith("retry(") for u in urls)

    def test_stack_is_picklable(self, tmp_path):
        """xpdl build workers receive the repository by pickle."""
        import pickle

        stack = resilient_stack(
            remote(faults=FaultPlan.parse("fail:1")), mirror_dir=str(tmp_path)
        )
        clone = pickle.loads(pickle.dumps(stack))
        assert "A" in ModelRepository([clone]).identifiers()
