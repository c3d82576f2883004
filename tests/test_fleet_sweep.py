"""Tests for the fleet sweep engine and the memoized simulator inner loop.

The two contracts under test:

* **oracle equivalence** — :meth:`FleetSimulator.run_policy` returns
  *bit-identical* :class:`PolicyResult` values to the cursor walk in
  :mod:`tests.fleet_oracle`, on synthetic testbeds and on the paper
  corpus;
* **jobs invariance** — :meth:`SweepReport.to_json`/:meth:`digest` are
  byte-identical whatever ``jobs`` the grid was sharded across.
"""

from __future__ import annotations

import json
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics import XpdlError
from repro.fleet import (
    GOVERNORS,
    TRACE_KINDS,
    FleetSimulator,
    index_state_catalog,
    make_governor,
    make_trace,
    parse_seeds,
    run_sweep,
    simulate_fleet,
)
from repro.obs import Observer, use_observer
from repro.toolchain import batch as batch_module
from repro.units import TIME, Quantity
from tests.fleet_oracle import CursorFleetSimulator, simulate_fleet_cursor
from tests.test_fleet import POLICIES, _toy_psm, _toy_testbed, _toy_trace


class TestEngineEquivalence:
    def test_memo_matches_cursor_bitwise_on_toy(self):
        bed = _toy_testbed(n=3)
        for kind in TRACE_KINDS:
            trace = make_trace(
                kind,
                seed=7,
                intervals=36,
                interval_s=1.0,
                machines=sorted(bed.machines),
            )
            for policy in POLICIES:
                memo = FleetSimulator(bed, request_ops=1000).run_policy(
                    policy, trace
                )
                cursor = CursorFleetSimulator(bed, request_ops=1000).run_policy(
                    policy, trace
                )
                # Dataclass equality is exact float equality: the memoized
                # tables must replay the reference arithmetic bit-for-bit.
                assert memo == cursor, (kind, policy)

    def test_memo_matches_cursor_with_catalog_and_downtime(self):
        bed = _toy_testbed(n=2)
        catalog = {
            name: frozenset({"sleep", "slow", "fast"}) for name in bed.machines
        }
        trace = make_trace(
            "failures",
            seed=5,
            intervals=40,
            interval_s=1.0,
            machines=sorted(bed.machines),
        )
        for policy in POLICIES:
            a = FleetSimulator(
                bed, state_catalog=catalog, request_ops=1000
            ).run_policy(policy, trace)
            b = CursorFleetSimulator(
                bed, state_catalog=catalog, request_ops=1000
            ).run_policy(policy, trace)
            assert a == b, policy

    def test_memo_matches_cursor_on_paper_corpus(self, liu_ctx, liu_server):
        from repro.simhw import testbed_from_model

        bed = testbed_from_model(liu_server.root)
        catalog = index_state_catalog(liu_ctx, bed)
        trace = make_trace(
            "diurnal",
            seed=2,
            intervals=24,
            interval_s=1.0,
            machines=sorted(bed.machines),
        )
        memo = simulate_fleet(
            bed,
            trace,
            POLICIES,
            state_catalog=catalog,
            request_ops=10_000,
        )
        cursor = simulate_fleet_cursor(
            bed,
            trace,
            POLICIES,
            state_catalog=catalog,
            request_ops=10_000,
        )
        assert memo.results == cursor.results
        assert memo.to_json() == cursor.to_json()
        assert memo.digest() == cursor.digest()

    def test_memo_counts_state_checks_like_cursor(self):
        catalog = {"m0": frozenset({"sleep", "slow", "fast"})}
        totals = {}
        for name, simulate in (
            ("memo", simulate_fleet),
            ("cursor", simulate_fleet_cursor),
        ):
            obs = Observer()
            with use_observer(obs):
                simulate(
                    _toy_testbed(),
                    _toy_trace(intervals=10),
                    ("performance",),
                    state_catalog=catalog,
                    request_ops=1000,
                )
            totals[name] = obs.counter("fleet.query.state_checks")
        assert totals["memo"] == totals["cursor"] > 0

    def test_memo_catalog_mismatch_raises(self):
        catalog = {"m0": frozenset({"ghost"})}
        with pytest.raises(XpdlError):
            simulate_fleet(
                _toy_testbed(),
                _toy_trace(intervals=5),
                ("performance",),
                state_catalog=catalog,
                request_ops=1000,
            )

    def test_race_to_idle_memo_clears_on_reset(self):
        g = make_governor("race-to-idle", _toy_psm())
        one_s = Quantity(1.0, TIME)
        first = g.decide("fast", 0.0, 0, 1e6, one_s)
        assert g._memo  # decision cached
        assert g.decide("fast", 0.0, 0, 1e6, one_s) == first  # cache hit
        g.reset()
        assert not g._memo
        assert g.decide("fast", 0.0, 0, 1e6, one_s) == first


class TestParseSeeds:
    def test_range(self):
        assert parse_seeds("1..5") == (1, 2, 3, 4, 5)

    def test_list_and_mix(self):
        assert parse_seeds("0,3,7") == (0, 3, 7)
        assert parse_seeds("1..3, 9") == (1, 2, 3, 9)

    def test_duplicates_collapse(self):
        assert parse_seeds("2,2,1..3") == (2, 1, 3)

    def test_bad_specs_rejected(self):
        for spec in ("", "x", "3..1", "1..x", ","):
            with pytest.raises(XpdlError):
                parse_seeds(spec)


class TestBaselineHelper:
    def test_delta_renders_na_without_performance(self):
        rep = simulate_fleet(
            _toy_testbed(),
            _toy_trace(intervals=10),
            ("powersave", "ondemand"),
            request_ops=1000,
        )
        assert rep.performance_baseline() is None
        assert "energy_delta_vs_performance" not in rep.to_dict()
        table = rep.render_table()
        assert "n/a" in table
        assert "+0.0%" not in table

    def test_delta_present_with_performance(self):
        rep = simulate_fleet(
            _toy_testbed(),
            _toy_trace(intervals=10),
            ("performance", "powersave"),
            request_ops=1000,
        )
        assert rep.performance_baseline() is rep.result("performance")
        deltas = rep.to_dict()["energy_delta_vs_performance"]
        assert deltas["performance"] == 0.0
        assert "n/a" not in rep.render_table()


class TestSweep:
    def test_report_is_jobs_invariant(self):
        bed = _toy_testbed(n=2)
        kwargs = dict(
            policies=("performance", "ondemand"),
            traces=("diurnal", "poisson"),
            seeds=(1, 2),
            intervals=12,
            interval_s=1.0,
            request_ops=1000,
        )
        serial, _ = run_sweep(bed, jobs=1, **kwargs)
        parallel, stats = run_sweep(bed, jobs=2, **kwargs)
        assert serial.to_json() == parallel.to_json()
        assert serial.digest() == parallel.digest()
        assert stats.cells == 8

    @settings(max_examples=5, deadline=None)
    @given(
        policies=st.lists(
            st.sampled_from(sorted(GOVERNORS)), min_size=1, max_size=3, unique=True
        ),
        traces=st.lists(
            st.sampled_from(("diurnal", "poisson", "step")),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        seeds=st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    )
    def test_digest_identical_jobs_1_vs_4(self, policies, traces, seeds):
        bed = _toy_testbed(n=2)
        kwargs = dict(
            policies=tuple(policies),
            traces=tuple(traces),
            seeds=tuple(seeds),
            intervals=8,
            interval_s=1.0,
            request_ops=1000,
        )
        one, _ = run_sweep(bed, jobs=1, **kwargs)
        four, _ = run_sweep(bed, jobs=4, **kwargs)
        assert one.digest() == four.digest()
        assert one.to_json() == four.to_json()

    def test_cells_match_single_cell_runs(self):
        bed = _toy_testbed(n=2)
        report, _ = run_sweep(
            bed,
            policies=("performance", "race-to-idle"),
            traces=("diurnal",),
            seeds=(5,),
            intervals=16,
            interval_s=1.0,
            request_ops=1000,
            jobs=2,
        )
        trace = make_trace(
            "diurnal",
            seed=5,
            intervals=16,
            interval_s=1.0,
            machines=sorted(bed.machines),
        )
        for policy in ("performance", "race-to-idle"):
            direct = FleetSimulator(bed, request_ops=1000).run_policy(
                policy, trace
            )
            assert report.cell(policy, "diurnal", 5) == direct

    def test_frontier_delta_na_without_performance(self):
        report, _ = run_sweep(
            _toy_testbed(),
            policies=("powersave", "ondemand"),
            traces=("diurnal",),
            seeds=(1,),
            intervals=8,
            interval_s=1.0,
            request_ops=1000,
            jobs=1,
        )
        frontier = report.frontier()
        assert all(
            row["energy_delta_vs_performance"] is None
            for row in frontier.values()
        )
        assert "n/a" in report.render_table()
        payload = json.loads(report.to_json())
        assert (
            payload["frontier"]["powersave"]["energy_delta_vs_performance"]
            is None
        )

    def test_prebuilt_catalog_is_not_rebuilt_by_workers(self):
        bed = _toy_testbed(n=2)
        catalog = {
            name: frozenset({"sleep", "slow", "fast"}) for name in bed.machines
        }
        obs = Observer()
        report, stats = run_sweep(
            bed,
            policies=("performance",),
            traces=("diurnal",),
            seeds=(1, 2),
            intervals=8,
            interval_s=1.0,
            request_ops=1000,
            jobs=2,
            state_catalog=catalog,
            observer=obs,
        )
        # The catalog was built by the caller: no worker rebuilds it, and
        # every governor decision was still validated against it.
        assert stats.counters.get("fleet.catalog_builds", 0) == 0
        assert stats.counters["fleet.query.state_checks"] > 0
        assert obs.counter("fleet.sweep.cells") == 2
        assert report.cell("performance", "diurnal", 1).slo_attainment >= 0.0

    def test_missing_cell_raises(self):
        report, _ = run_sweep(
            _toy_testbed(),
            policies=("performance",),
            traces=("diurnal",),
            seeds=(1,),
            intervals=8,
            interval_s=1.0,
            request_ops=1000,
            jobs=1,
        )
        with pytest.raises(XpdlError):
            report.cell("powersave", "diurnal", 1)

    def test_validation_errors(self):
        bed = _toy_testbed()
        with pytest.raises(XpdlError):
            run_sweep(bed, policies=(), traces=("diurnal",), seeds=(1,))
        with pytest.raises(XpdlError):
            run_sweep(bed, policies=("turbo",), traces=("diurnal",), seeds=(1,))
        with pytest.raises(XpdlError):
            run_sweep(
                bed, policies=("performance",), traces=("tsunami",), seeds=(1,)
            )
        with pytest.raises(XpdlError):
            run_sweep(
                bed, policies=("performance",), traces=("diurnal",), seeds=()
            )

    def test_stats_shape(self):
        _, stats = run_sweep(
            _toy_testbed(),
            policies=("performance",),
            traces=("diurnal",),
            seeds=(1, 2, 3),
            intervals=8,
            interval_s=1.0,
            request_ops=1000,
            jobs=2,
        )
        payload = stats.to_dict()
        assert payload["cells"] == 3
        assert payload["jobs"] == 2
        assert payload["workers"] == 2
        assert len(payload["worker_s"]) == 2
        assert payload["cells_per_s"] >= 0.0
        assert "fleet.sweep.cells" in payload["counters"]


class TestSweepCli:
    def test_sweep_jobs_invariant_end_to_end(self, capsys, tmp_path):
        from tests.test_cli import run_cli

        outs = {}
        for jobs in ("1", "2"):
            out_file = tmp_path / f"sweep_j{jobs}.json"
            stats_file = tmp_path / f"stats_j{jobs}.json"
            code, _out, err = run_cli(
                capsys,
                "fleet",
                "sweep",
                "--model",
                "liu_gpu_server",
                "--policy",
                "performance,ondemand",
                "--trace",
                "diurnal",
                "--seeds",
                "1..2",
                "--jobs",
                jobs,
                "--intervals",
                "6",
                "--no-cache",
                "--format",
                "json",
                "-o",
                str(out_file),
                "--stats-out",
                str(stats_file),
            )
            assert code == 0, err
            outs[jobs] = out_file.read_bytes()
            stats = json.loads(stats_file.read_text())
            assert stats["cells"] == 4
        assert outs["1"] == outs["2"]
        payload = json.loads(outs["1"])
        assert payload["policies"] == ["performance", "ondemand"]
        assert payload["seeds"] == [1, 2]

    def test_fleet_without_model_errors(self, capsys):
        from tests.test_cli import run_cli

        code, _out, err = run_cli(capsys, "fleet")
        assert code == 2
        assert "requires --model" in err

    def test_bad_seed_spec_is_a_cli_error(self, capsys):
        from tests.test_cli import run_cli

        code, _out, err = run_cli(
            capsys,
            "fleet",
            "sweep",
            "--model",
            "liu_gpu_server",
            "--seeds",
            "9..1",
            "--no-cache",
        )
        assert code == 2
        assert "seed range" in err


class _InlinePool:
    """A stand-in for the process pool: runs each submitted shard
    in-process, records it, and can make a worker's result raise."""

    def __init__(self, tasks: list, worker_error: BaseException | None = None):
        self.tasks = tasks
        self.worker_error = worker_error

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, task):
        self.tasks.append(task)
        future = Future()
        if self.worker_error is not None:
            future.set_exception(self.worker_error)
        else:
            future.set_result(fn(task))
        return future

    def map(self, fn, tasks):
        return [self.submit(fn, task).result() for task in tasks]


def _install_pool(monkeypatch, worker_error=None) -> list:
    tasks: list = []
    monkeypatch.setattr(
        batch_module,
        "ProcessPoolExecutor",
        lambda max_workers: _InlinePool(tasks, worker_error),
    )
    return tasks


_GRID = dict(
    policies=POLICIES,
    traces=("diurnal", "step"),
    seeds=(1, 2),
    intervals=6,
    interval_s=1.0,
    request_ops=1000,
)


class TestSharding:
    """Cells are dealt round-robin in policy-major order."""

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_every_worker_gets_every_policy(self, monkeypatch, jobs):
        tasks = _install_pool(monkeypatch)
        bed = _toy_testbed(n=2)
        report, stats = run_sweep(bed, jobs=jobs, **_GRID)
        n_cells = len(report.cells)
        assert n_cells == 16 and len(tasks) == stats.workers == jobs
        sizes = sorted(len(t.cells) for t in tasks)
        # Every shard holds floor or ceil of cells / workers.
        assert sizes[0] == n_cells // jobs and sizes[-1] - sizes[0] <= 1
        for task in tasks:
            assert {cell.policy for _, cell in task.cells} == set(POLICIES), [
                cell.policy for _, cell in task.cells
            ]
        indices = sorted(i for t in tasks for i, _ in t.cells)
        assert indices == list(range(n_cells))
        # Results still come back by cell index.
        serial, _ = run_sweep(bed, jobs=1, **_GRID)
        assert report.to_json() == serial.to_json()

    def test_no_empty_shard_up_to_one_cell_each(self, monkeypatch):
        tasks = _install_pool(monkeypatch)
        grid = dict(_GRID, traces=("diurnal",), seeds=(1,))
        run_sweep(_toy_testbed(n=2), jobs=len(POLICIES), **grid)
        assert [len(t.cells) for t in tasks] == [1] * len(POLICIES)
        tasks.clear()
        run_sweep(_toy_testbed(n=2), jobs=99, **grid)
        assert [len(t.cells) for t in tasks] == [1] * len(POLICIES)


class TestPoolFailures:
    def test_worker_error_propagates_without_rerun(self, monkeypatch):
        # A worker's RuntimeError (RecursionError is one) is not a pool
        # failure: it must not send the grid to the in-process fallback.
        _install_pool(monkeypatch, worker_error=RecursionError("deep worker"))
        with pytest.raises(RecursionError, match="deep worker"):
            run_sweep(_toy_testbed(n=2), jobs=2, **_GRID)

    def test_pool_creation_failure_falls_back_in_process(self, monkeypatch):
        def no_pool(max_workers):
            raise OSError("no semaphores here")

        monkeypatch.setattr(batch_module, "ProcessPoolExecutor", no_pool)
        bed = _toy_testbed(n=2)
        report, stats = run_sweep(bed, jobs=2, **_GRID)
        assert stats.counters["fleet.sweep.pool_fallback"] == 1
        assert stats.workers == 2
        serial, _ = run_sweep(bed, jobs=1, **_GRID)
        assert report.to_json() == serial.to_json()


def _trace_counters(path) -> dict[str, int]:
    """The counter totals of an ``xpdl --trace-out`` file."""
    events = [json.loads(line) for line in path.read_text().splitlines()]
    return {e["name"]: e["total"] for e in events if e.get("event") == "counter"}


class TestGeneratedClusterSweep:
    def test_jobs_1_and_2_agree_and_reopen_the_image(
        self, fleet_cluster_dir, tmp_path, capsys
    ):
        from tests.test_cli import run_cli

        reports = {}
        for jobs in (1, 2):
            out = tmp_path / f"sweep-j{jobs}.json"
            stats_out = tmp_path / f"stats-j{jobs}.json"
            argv = ["-I", fleet_cluster_dir, "fleet", "sweep", "--model", "gen_sys0"]
            argv += ["--policy", "performance,ondemand", "--trace", "diurnal,poisson"]
            argv += ["--seeds", "1..2", "--intervals", "12", "--jobs", str(jobs)]
            argv += ["--cache-dir", str(tmp_path / "cache"), "--format", "json"]
            argv += ["-o", str(out), "--stats-out", str(stats_out)]
            trace_out = tmp_path / f"trace-j{jobs}.jsonl"
            code, _out, err = run_cli(capsys, "--trace-out", str(trace_out), *argv)
            assert code == 0, err
            reports[jobs] = out.read_bytes()
            stats = json.loads(stats_out.read_text())
            assert stats["jobs"] == jobs
            assert stats["counters"]["fleet.sweep.cells"] == 8, stats
            # The workers check their decisions against the shipped catalog.
            assert stats["counters"]["fleet.query.state_checks"] > 0, stats
            # The whole run, parent and workers: the catalog is built once,
            # over the emitted model's image, whose index is adopted.
            c = _trace_counters(trace_out)
            assert c["fleet.catalog_builds"] == 1, c
            assert c["index.load_mmap"] == 1, c
            assert "index.rebuilds" not in c, c
            # Only the cold run (jobs=1) emits, which indexes once to
            # write the image; the warm run reopens the cached record.
            assert c.get("runtime.index_builds", 0) == (1 if jobs == 1 else 0), c
        assert reports[1] == reports[2]


class TestSweepTraceFlag:
    """``fleet sweep --trace`` names trace families; only the global
    ``xpdl --trace`` streams the observer's events to stderr."""

    @pytest.mark.parametrize(
        "global_trace,families,expected",
        [
            (False, None, ["diurnal"]),
            (False, "diurnal,step", ["diurnal", "step"]),
            (True, "diurnal,step", ["diurnal", "step"]),
        ],
    )
    def test_families_do_not_turn_on_tracing(
        self, capsys, global_trace, families, expected
    ):
        from tests.test_cli import run_cli

        argv = ["--trace"] if global_trace else []
        argv += ["fleet", "sweep", "--model", "liu_gpu_server", "--intervals", "4"]
        argv += ["--seeds", "1", "--jobs", "1", "--no-cache", "--format", "json"]
        if families:
            argv += ["--trace", families]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["traces"] == expected
        events = [line for line in err.splitlines() if '"event"' in line]
        assert bool(events) == global_trace, events[:3]


class TestSharedFleetFlags:
    """``--format``, ``--interval-s``, ``--request-ops`` and ``-o`` belong
    to both ``fleet`` and ``fleet sweep``: given before ``sweep`` they
    apply, and repeated after it the later one wins."""

    SWEEP = [
        "--model", "liu_gpu_server", "--intervals", "2", "--seeds", "1",
        "--jobs", "1", "--no-cache",
    ]
    SHARED = ["--format", "json", "--interval-s", "5", "--request-ops", "100000"]

    def _run(self, capsys, *argv):
        from tests.test_cli import run_cli

        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return out

    def test_flags_before_sweep_apply(self, capsys):
        before = self._run(capsys, "fleet", *self.SHARED, "sweep", *self.SWEEP)
        after = self._run(capsys, "fleet", "sweep", *self.SWEEP, *self.SHARED)
        assert before == after
        report = json.loads(before)
        assert (report["interval_s"], report["request_ops"]) == (5.0, 100000)

    def test_output_before_sweep_writes_the_file(self, capsys, tmp_path):
        printed = self._run(capsys, "fleet", "sweep", *self.SWEEP, *self.SHARED)
        out = str(tmp_path / "sweep.json")
        self._run(capsys, "fleet", "-o", out, *self.SHARED, "sweep", *self.SWEEP)
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == printed

    def test_flag_repeated_after_sweep_wins(self, capsys):
        table = self._run(capsys, "fleet", "sweep", *self.SWEEP)
        assert not table.startswith("{")
        overridden = self._run(
            capsys, "fleet", "--format", "json", "sweep", *self.SWEEP,
            "--format", "table",
        )
        assert overridden == table

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--model", "liu_gpu_server", "--intervals", "2"],
            ["fleet", "sweep", *SWEEP],
        ],
        ids=["fleet", "sweep"],
    )
    def test_defaults_hold_without_flags(self, capsys, argv):
        plain = self._run(capsys, *argv)
        explicit = self._run(
            capsys, *argv, "--format", "table", "--interval-s", "60",
            "--request-ops", "200000",
        )
        assert plain == explicit
