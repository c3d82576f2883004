"""The benchmark harness behind ``python -m benchmarks`` (run from repo root).

Converts the ad-hoc experiment scripts' role of "how fast is the
toolchain" into a repeatable, CI-gateable measurement.  The report is
made of the sections declared once in :data:`SECTIONS`.  Each
:class:`Section` entry names its report key, its ``run`` function (which
receives the report built so far), its gates and its summary lines;
:func:`run_bench`, :func:`compare`, :func:`skipped_gates` and
:func:`summarize` are loops over that table.  ``run`` emits one
``BENCH_<rev>.json``; ``compare`` gates it against a committed baseline.

Wall-clock numbers are machine-dependent, so each report also carries a
``calibration_s`` — the time of a fixed pure-Python spin measured on the
same host — and every timing is normalized by it (``norm_wall`` is wall
/ calibration, ``norm_qps`` is rate x calibration).  Gating normalized
numbers keeps the CI regression check meaningful across runner
generations.

The sections, in run order:

* **build** (top-level ``phases``) — the modellib corpus built three
  ways through :func:`repro.toolchain.run_batch`: *cold* (fresh
  persistent cache, sequential: the worst case), *warm* (same cache
  directory again: everything should come from the persistent stage
  cache) and *parallel* (fresh cache, ``--jobs N`` fan-out);
* **queries** — runtime query API throughput on the composed
  liu_gpu_server model for the paper's Sec. IV categories (getter,
  browse, by_id, path, analysis), plus the *naive* uncompiled
  path/analysis evaluators, so reports document the compiled engine's
  speedup on the same host;
* **serve** — the ``xpdl serve`` hot path in-process:
  :class:`repro.service.ModelHost` dispatch throughput once the model's
  ``IRIndex`` is hosted;
* **cold_init** — model open from a persisted v2 index image against a
  from-scratch open, on the corpus and on synthetic models;
* **scale** — the toolchain over a *generated* corpus (``repro.corpus``,
  seed/scale fixed in :data:`SCALE_BENCH_SEED` /
  :data:`SCALE_BENCH_SCALE`): generator throughput, cold/warm/parallel
  batch builds of the synthetic systems, and a cold doctor pass;
* **fleet** — the discrete-interval fleet simulator (``repro.fleet``)
  over a small generated cluster: a seeded diurnal trace through every
  DVFS governor policy, per-policy energy/SLO and the simulation rate;
* **sweep** (schema 7) — the full (policy, trace, seed) grid sharded
  through ``repro.fleet.run_sweep`` at ``jobs=1`` and ``jobs=4``.

Each :class:`Gate` compares one value of a section with a bound: a flag
or a count that must equal a constant; a floor or a ceiling against a
constant, also on the ratio of two measured rates; a floor or a ceiling
against the baseline (a :class:`Baseline` bound), widened by
``max_regress`` plus the gate's own tolerance; or, for the fleet
physics, another measured value.  A key a gate reads that the current
report lacks is a problem, never an exception.  A gate the host cannot
run (the sweep speedup needs >= 4 CPUs) adds no problem and is named by
:func:`skipped_gates` instead.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

BENCH_SCHEMA = 7

#: Warm-cache hit-rate floor (acceptance criterion: >= 90 %).
MIN_WARM_HIT_RATE = 0.9

#: Default allowed normalized-wall regression for the CI gate.
MAX_REGRESS = 0.25

#: Absolute slack (in calibration units) added to the gate so sub-100ms
#: phases are not flagged by scheduler noise alone.
NORM_SLACK = 0.25

#: Extra tolerated fraction on the query-throughput gate: microbenchmark
#: rates are noisier than whole-build walls, so the floor is
#: ``baseline * (1 - MAX_REGRESS - QUERY_NOISE)``.  The compiled engine
#: beats the naive evaluators by orders of magnitude, so even this loose
#: floor trips immediately if the engine is reverted or broken.
QUERY_NOISE = 0.25

#: The compiled engine must stay at least this much faster than the
#: naive uncompiled evaluator (acceptance criterion: >= 5x).
MIN_QUERY_SPEEDUP = 5.0

#: Hot model-service dispatch (request object in, payload out, index
#: already hosted) must stay within this factor of raw in-process
#: compiled path-query throughput (acceptance criterion: <= 5x away).
#: This is a *self-consistent* gate — both sides are measured on the
#: same host in the same run — so it needs no calibration.
MAX_SERVE_DISPATCH_SLOWDOWN = 5.0

#: Warm model open (mmap a v2 image, adopt its persisted index) must be
#: at least this much faster than a from-scratch open (a core-only image,
#: i.e. the same records plus a live index build) on the largest corpus
#: model (acceptance criterion: >= 10x).  Self-consistent — both sides
#: measured in the same run.
MIN_COLD_OPEN_SPEEDUP = 10.0

#: Synthetic model sizes (elements) for the cold-open scaling sweep.
COLD_INIT_SCALING_NODES = (1_000, 10_000, 50_000)

#: Seed/scale of the generated corpus the ``scale`` section measures.
#: Scale 120 is ~6x the bundled corpus — big enough that batch sharding,
#: repository indexing and the doctor's cross-descriptor passes dominate,
#: small enough for every CI run.
SCALE_BENCH_SEED = 7
SCALE_BENCH_SCALE = 120

#: Seed/scale of the generated cluster the ``fleet`` section simulates,
#: and the trace geometry it drives through every governor.  Scale 40
#: yields ~20 machines in the first generated system — enough that the
#: greedy allocator and per-machine governor loops dominate, small
#: enough for every CI run.
FLEET_BENCH_SEED = 11
FLEET_BENCH_SCALE = 40
FLEET_BENCH_TRACE = "diurnal"
FLEET_BENCH_TRACE_SEED = 5
FLEET_BENCH_INTERVALS = 24
FLEET_BENCH_INTERVAL_S = 60.0

#: Grid the ``sweep`` section shards (schema 7): every governor policy x
#: two trace shapes x eight seeds on the FLEET_BENCH cluster = 64 cells.
SWEEP_BENCH_TRACES = ("diurnal", "poisson")
SWEEP_BENCH_SEEDS = tuple(range(1, 9))
SWEEP_BENCH_JOBS = 4

#: Parallel sweep speedup floor at ``--jobs 4`` (acceptance criterion:
#: >= 2x).  Enforced only when the host actually has >= SWEEP_BENCH_JOBS
#: CPUs; a 1-core container cannot exhibit process-level speedup.
MIN_SWEEP_SPEEDUP = 2.0

#: The schema-6 fleet simulator rate (``norm_rate``: machine-intervals/s
#: x calibration) on this grid's cluster, measured with the cursor-walk
#: inner loop before the memoized engine landed.  The single-cell gate
#: floors the current fleet rate against this constant so the
#: memoization win cannot silently regress away even when the committed
#: baseline is regenerated.
SCHEMA6_FLEET_NORM_RATE = 2476.637

#: The path query measured for the path/path_naive categories (the E9
#: hot pattern: descendant axis + attribute-value predicate).
QUERY_BENCH_PATH = "//cache[@name='L3']"

#: The system the query bench runs on (2694 elements once composed).
QUERY_BENCH_SYSTEM = "liu_gpu_server"

_CALIBRATION_LOOPS = 2_000_000
_QUERY_MIN_DURATION_S = 0.2


def calibrate(loops: int = _CALIBRATION_LOOPS) -> float:
    """Seconds for a fixed pure-Python spin; the host-speed yardstick."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i
    if acc < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return time.perf_counter() - t0


def git_rev() -> str:
    """Short git revision of the working tree, or ``local``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def _rate(
    fn,
    min_duration_s: float = _QUERY_MIN_DURATION_S,
    windows: int = 3,
) -> float:
    """Calls per second of ``fn``: best of ``windows`` timed windows.

    Taking the fastest window (timeit's advice: the minimum time is the
    measurement, everything above it is interference) keeps a transient
    load spike on the host from reading as a throughput regression.
    """
    fn()  # warm up (index/memo builds, plan cache)
    best = 0.0
    for _ in range(windows):
        n = 0
        t0 = time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_duration_s:
                break
        best = max(best, n / dt)
    return best


def _normalized(
    rates: dict[str, float], key: str, calibration_s: float
) -> dict[str, Any]:
    """``{name: {key: rate, "norm_<key>": rate x calibration}}`` per rate."""
    return {
        name: {key: round(r, 1), f"norm_{key}": round(r * calibration_s, 3)}
        for name, r in rates.items()
    }


@dataclass(frozen=True)
class RunArgs:
    """What :func:`run_bench` hands each section's ``run``."""

    calibration_s: float
    jobs: int
    cache_dir: str | None
    identifiers: Sequence[str] | None
    include: Sequence[str]


def run_query_bench(report: dict[str, Any], args: RunArgs) -> dict[str, Any]:
    """Measure runtime query API throughput per Sec. IV category.

    Returns ``{category: {"qps", "norm_qps"}}`` plus an ``elements``
    entry.  ``path_naive``/``analysis_naive`` run the uncompiled
    evaluators (string re-parse + tree walk) so reports document the
    compiled engine's speedup on the same host.
    """
    from repro.composer import Composer
    from repro.ir import IRModel
    from repro.modellib import standard_repository
    from repro.runtime import query_all, query_all_naive, xpdl_init_from_model
    from repro.units import POWER, read_metric

    system = QUERY_BENCH_SYSTEM
    composed = Composer(standard_repository()).compose(system)
    ctx = xpdl_init_from_model(
        IRModel.from_model(composed.root, {"system": system})
    )
    gpu = ctx.by_id("gpu1")

    def getter():
        gpu.get_compute_capability()
        gpu.get_quantity("static_power")

    def browse():
        node = ctx.root
        for _ in range(3):
            kids = node.children()
            if not kids:
                break
            node = kids[0]

    def by_id():
        ctx.by_id("gpu1")

    def path():
        query_all(ctx, QUERY_BENCH_PATH)

    def path_naive():
        query_all_naive(ctx, QUERY_BENCH_PATH)

    def analysis():
        ctx.count_cores()
        ctx.count_cuda_devices()
        ctx.total_static_power()

    def analysis_naive():
        # The pre-index implementation: one full physical walk per call.
        root = ctx.ir.root
        sum(1 for n in ctx._physical_walk(root) if n.kind == "core")
        cuda = 0
        for n in ctx._physical_walk(root):
            if n.kind in ("device", "gpu") and any(
                c.kind == "programming_model"
                and "cuda" in c.attrs.get("type", "").lower()
                for c in ctx.ir.children_of(n)
            ):
                cuda += 1
        total = 0.0
        for n in ctx._physical_walk(root):
            q = read_metric(n.attrs, "static_power", expect=POWER)
            if q is not None:
                total += q.magnitude

    categories = {
        "getter": getter,
        "browse": browse,
        "by_id": by_id,
        "path": path,
        "path_naive": path_naive,
        "analysis": analysis,
        "analysis_naive": analysis_naive,
    }
    rates = {name: _rate(fn) for name, fn in categories.items()}
    return {
        "system": system,
        "elements": len(ctx.ir),
        "categories": _normalized(rates, "qps", args.calibration_s),
    }


def _min_time(fn, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall seconds of one ``fn()`` call."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _synthetic_ir(nodes: int):
    """A flat-ish synthetic IR of ``nodes`` elements for scaling sweeps.

    Shape mirrors the corpus (shared kind/attr strings, shallow fanout)
    so the persisted-index size and open cost scale like real models.
    """
    from repro.ir import IRModel
    from repro.ir.format import IRNode

    kinds = ("node", "cpu", "core", "cache", "memory", "device")
    out = [IRNode(0, "system", None, {"id": "root"})]
    for i in range(1, nodes):
        parent = (i - 1) // 8  # fanout 8 keeps depth logarithmic
        out[parent].children.append(i)
        out.append(
            IRNode(
                i,
                kinds[i % len(kinds)],
                parent,
                {"id": f"e{i}", "name": f"n{i % 97}"},
            )
        )
    return IRModel(out, {"system": f"synthetic-{nodes}"})


def run_cold_init_bench(report: dict[str, Any], args: RunArgs) -> dict[str, Any]:
    """Measure cold model-open latency with and without a persisted index.

    Serializes the composed :data:`QUERY_BENCH_SYSTEM` two ways — v2
    image with index sections, and core-only (the same records without
    them, so its open pays the index build a warm open skips: the
    from-scratch reference) — and times a full :func:`repro.runtime.query.xpdl_init` open of
    each (best of 5), plus an mmap-free ``from_bytes`` open of the
    indexed image to isolate the mmap win.  Counters from the mmap open document that a warm reopen
    does *zero* index construction (``rebuilds`` must be 0).  A scaling
    sweep over synthetic models shows how the speedup grows with model
    size.
    """
    import warnings

    from repro.composer import Composer
    from repro.ir import IRModel, XirImageWarning, build_image
    from repro.modellib import standard_repository
    from repro.obs import Observer, use_observer
    from repro.runtime import xpdl_init, xpdl_init_from_model

    system, calibration_s = QUERY_BENCH_SYSTEM, args.calibration_s
    composed = Composer(standard_repository()).compose(system)
    ir = IRModel.from_model(composed.root, {"system": system})

    def measure(ir: IRModel, root: str) -> dict[str, Any]:
        paths = {
            "image_mmap": os.path.join(root, "indexed.xir"),
            "core_only": os.path.join(root, "core.xir"),
        }
        with open(paths["image_mmap"], "wb") as fh:
            fh.write(ir.to_bytes())
        with open(paths["core_only"], "wb") as fh:
            fh.write(build_image(ir, with_index=False))

        opens: dict[str, float] = {}
        with warnings.catch_warnings():
            # core_only deliberately ships no index sections; its
            # degraded-open warning is the measurement, not a defect.
            warnings.simplefilter("ignore", XirImageWarning)
            for name, path in paths.items():
                opens[name] = _min_time(lambda p=path: xpdl_init(p))
        # from_bytes on pre-read bytes: the image without the mmap.
        data = open(paths["image_mmap"], "rb").read()
        opens["image_read"] = _min_time(
            lambda: xpdl_init_from_model(IRModel.from_bytes(data))
        )

        # One observed mmap open proves the persisted index was adopted,
        # not rebuilt.
        obs = Observer()
        with use_observer(obs):
            xpdl_init(paths["image_mmap"])
        return {
            "open_ms": {k: round(v * 1e3, 4) for k, v in opens.items()},
            "norm_open": {
                k: round(v / calibration_s, 5) for k, v in opens.items()
            },
            "speedup_vs_scratch": round(
                opens["core_only"] / max(opens["image_mmap"], 1e-9), 2
            ),
            "rebuilds": obs.counters.get("index.rebuilds", 0),
            "mmap_loads": obs.counters.get("index.load_mmap", 0),
        }

    with tempfile.TemporaryDirectory(prefix="xpdl-coldinit-") as root:
        corpus = measure(ir, root)
        corpus.update({"system": system, "elements": len(ir)})
        scaling = []
        for n in COLD_INIT_SCALING_NODES:
            sub = os.path.join(root, str(n))
            os.makedirs(sub)
            row = measure(_synthetic_ir(n), sub)
            scaling.append(
                {
                    "nodes": n,
                    "image_mmap_ms": row["open_ms"]["image_mmap"],
                    "scratch_ms": row["open_ms"]["core_only"],
                    "speedup": row["speedup_vs_scratch"],
                }
            )
        corpus["scaling"] = scaling
    return corpus


def run_serve_bench(report: dict[str, Any], args: RunArgs) -> dict[str, Any]:
    """Measure model-service dispatch throughput (the ``xpdl serve`` path).

    Builds one :class:`repro.service.ModelHost` over the standard
    repository, pays the cold first-request compile once, then measures
    hot dispatch rates with the index hosted: ``hot`` (single query
    request), ``batch32`` (32 queries per batch request, counted as
    sub-requests/s), ``info`` (composition summary), and ``threads4``
    (aggregate of 4 threads hammering the query op through the
    lock/lease protocol).  ``index_builds`` documents that the hosted
    index was compiled exactly once across all of it, and
    ``hot_fraction_of_raw_path`` relates the hot rate to the ``queries``
    section's raw path-query rate.
    """
    import threading

    from repro.modellib import standard_repository
    from repro.service import ModelHost

    system = QUERY_BENCH_SYSTEM
    host = ModelHost(standard_repository(), reload_ttl_s=60.0)
    query_req = {"op": "query", "model": system, "path": QUERY_BENCH_PATH}

    t0 = time.perf_counter()
    status, body = host.handle(dict(query_req))
    cold_s = time.perf_counter() - t0
    if status != 200:  # pragma: no cover - corpus always has the system
        raise RuntimeError(f"serve bench: cold query returned {status}")
    result_count = body["count"]

    batch_req = {
        "op": "batch",
        "requests": [dict(query_req) for _ in range(32)],
    }

    rates = {
        "hot": _rate(lambda: host.dispatch(dict(query_req))),
        "batch32": _rate(lambda: host.dispatch(dict(batch_req))) * 32,
        "info": _rate(lambda: host.dispatch({"op": "info", "model": system})),
    }

    threads = 4
    counts = [0] * threads
    stop_at = time.perf_counter() + _QUERY_MIN_DURATION_S

    def work(slot: int) -> None:
        while time.perf_counter() < stop_at:
            host.dispatch(dict(query_req))
            counts[slot] += 1

    workers = [
        threading.Thread(target=work, args=(i,)) for i in range(threads)
    ]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    rates["threads4"] = sum(counts) / (time.perf_counter() - t0)

    counters = host.stats()["observer"]["counters"]
    raw_path_qps = report["queries"]["categories"]["path"]["qps"]
    return {
        "system": system,
        "result_count": result_count,
        "cold_ms": round(cold_s * 1e3, 3),
        "index_builds": counters.get("service.model.builds", 0),
        "categories": _normalized(rates, "rps", args.calibration_s),
        "hot_fraction_of_raw_path": round(rates["hot"] / raw_path_qps, 4),
    }


def _batch_phases(
    include: Sequence[str], systems: list[str], cache_root: str, args: RunArgs
) -> tuple[dict[str, Any], bool]:
    """Build ``systems`` cold, warm (the same cache again) and in parallel.

    Returns the three phases' dicts and whether the parallel build's IR
    is byte-identical to the sequential one's.
    """
    from repro.modellib import standard_repository
    from repro.toolchain import run_batch

    phases: dict[str, Any] = {}
    shas = []
    for name, jobs, cache in (
        ("cold", 1, "seq"), ("warm", 1, "seq"), ("parallel", args.jobs, "par")
    ):
        report = run_batch(
            standard_repository(*include), systems, jobs=jobs,
            cache_dir=os.path.join(cache_root, cache),
        )
        shas.append([b.ir_sha256 for b in report.builds])
        phases[name] = {
            "ok": report.ok,
            "builds": len(report.builds),
            "wall_s": round(report.wall_s, 6),
            "norm_wall": round(report.wall_s / args.calibration_s, 4),
            "models_per_s": round(report.models_per_s, 3),
            "hit_rate": round(report.hit_rate, 4),
            "cache": dict(report.cache),
            "jobs": report.jobs,
            "shards": len(report.shards),
        }
    return phases, shas[0] == shas[2]


def run_build_bench(report: dict[str, Any], args: RunArgs) -> dict[str, Any]:
    """Measure cold/warm/parallel builds of the modellib corpus.

    ``args.cache_dir=None`` uses a throwaway directory so benchmarking
    never touches (or benefits from) a developer's real ``.xpdl-cache``.
    """
    from repro.modellib import standard_repository

    corpus = list(args.identifiers or standard_repository(*args.include).systems())
    with tempfile.TemporaryDirectory(prefix="xpdl-bench-") as scratch:
        phases, ir_match = _batch_phases(
            args.include, corpus, args.cache_dir or os.path.join(scratch, "cache"), args
        )
    return {"corpus": sorted(corpus), "ir_deterministic": ir_match, "phases": phases}


def run_scale_bench(report: dict[str, Any], args: RunArgs) -> dict[str, Any]:
    """Measure the toolchain over a generated corpus (``xpdl gen``).

    Generates a seeded synthetic descriptor library, then measures:
    generator throughput (descriptors/s), cold/warm/parallel batch builds
    of the generated systems, and one cold doctor pass over the whole
    repository.  ``digest_stable`` re-generates and compares tree digests
    (the determinism contract); ``ir_deterministic`` compares the
    sequential and parallel builds' IR hashes; the doctor's ``errors``
    must be 0 — the generator is doctor-clean by construction.
    """
    from repro.corpus import generate_corpus
    from repro.modellib import standard_repository
    from repro.service.core import merged_doctor_report
    from repro.toolchain import ToolchainSession

    seed, scale, calibration_s = SCALE_BENCH_SEED, SCALE_BENCH_SCALE, args.calibration_s
    t0 = time.perf_counter()
    corpus = generate_corpus(seed, scale)
    gen_wall = time.perf_counter() - t0
    digest = corpus.digest()
    digest_stable = generate_corpus(seed, scale).digest() == digest

    with tempfile.TemporaryDirectory(prefix="xpdl-scale-") as scratch:
        corpus_dir = os.path.join(scratch, "corpus")
        corpus.write_to(corpus_dir)
        systems = list(corpus.systems)
        phases, ir_match = _batch_phases(
            [corpus_dir], systems, os.path.join(scratch, "cache"), args
        )

        session = ToolchainSession(standard_repository(corpus_dir))
        t0 = time.perf_counter()
        merged = merged_doctor_report(session, systems)
        doctor_wall = time.perf_counter() - t0

    return {
        "seed": seed,
        "scale": scale,
        "descriptors": len(corpus),
        "systems": len(systems),
        "digest": digest,
        "digest_stable": digest_stable,
        "gen": {
            "wall_s": round(gen_wall, 6),
            "norm_wall": round(gen_wall / calibration_s, 4),
            "descriptors_per_s": round(len(corpus) / gen_wall, 1),
        },
        "phases": phases,
        "ir_deterministic": ir_match,
        "doctor": {
            "wall_s": round(doctor_wall, 6),
            "norm_wall": round(doctor_wall / calibration_s, 4),
            "systems_per_s": round(len(systems) / doctor_wall, 2),
            "errors": merged.errors,
            "findings": len(merged.findings),
        },
    }


def _fleet_cluster() -> tuple[dict[str, Any], Any, Any]:
    """The generated cluster the fleet benches drive: its report keys
    (system, seed, scale, machines), its testbed and its state catalog.

    Generates the FLEET_BENCH corpus, composes its first system into a
    :class:`repro.simhw.SimTestbed`, and compiles the runtime index for
    the power-state catalog.
    """
    from repro.composer import Composer
    from repro.corpus import generate_corpus
    from repro.fleet import index_state_catalog
    from repro.ir import IRModel
    from repro.modellib import standard_repository
    from repro.runtime import xpdl_init_from_model
    from repro.simhw import testbed_from_model

    corpus = generate_corpus(FLEET_BENCH_SEED, FLEET_BENCH_SCALE)
    with tempfile.TemporaryDirectory(prefix="xpdl-fleet-") as scratch:
        corpus_dir = os.path.join(scratch, "corpus")
        corpus.write_to(corpus_dir)
        system = sorted(corpus.systems)[0]
        composed = Composer(standard_repository(corpus_dir)).compose(system)

    bed = testbed_from_model(composed.root, name=system)
    ctx = xpdl_init_from_model(
        IRModel.from_model(composed.root, {"system": system})
    )
    cluster = {
        "system": system,
        "seed": FLEET_BENCH_SEED,
        "scale": FLEET_BENCH_SCALE,
        "machines": len(bed.machines),
    }
    return cluster, bed, index_state_catalog(ctx, bed)


def run_fleet_bench(report: dict[str, Any], args: RunArgs) -> dict[str, Any]:
    """Measure the fleet simulator (``xpdl fleet``) over a generated cluster.

    Drives a seeded diurnal trace through every registered governor
    policy on the :func:`_fleet_cluster`.  The simulation runs twice; the
    wall is the best of the two and ``digest_stable`` compares the two
    reports byte-for-byte (the determinism contract).  The rate is
    machine-intervals/s across all policies — the unit of simulator work.
    """
    from repro.fleet import GOVERNORS, make_trace, simulate_fleet

    policies = tuple(GOVERNORS)
    cluster, bed, catalog = _fleet_cluster()
    trace = make_trace(
        FLEET_BENCH_TRACE,
        seed=FLEET_BENCH_TRACE_SEED,
        intervals=FLEET_BENCH_INTERVALS,
        interval_s=FLEET_BENCH_INTERVAL_S,
        machines=sorted(bed.machines),
    )

    walls: list[float] = []
    reports = []
    for _ in range(2):
        t0 = time.perf_counter()
        reports.append(
            simulate_fleet(bed, trace, policies, state_catalog=catalog)
        )
        walls.append(time.perf_counter() - t0)
    sim = reports[0]
    wall = min(walls)

    perf_energy = sim.result("performance").energy_j
    measured: dict[str, Any] = {}
    for policy in policies:
        r = sim.result(policy)
        measured[policy] = {
            "energy_j": round(r.energy_j, 3),
            "energy_delta_vs_performance": round(
                (r.energy_j - perf_energy) / perf_energy, 4
            )
            if perf_energy
            else 0.0,
            "slo_attainment": round(r.slo_attainment, 4),
            "service_level": round(r.service_level, 4),
            "switches": r.switches,
        }

    machine_intervals = len(bed.machines) * trace.intervals * len(policies)
    rate = machine_intervals / wall
    return {
        **cluster,
        "trace": {
            "kind": FLEET_BENCH_TRACE,
            "seed": FLEET_BENCH_TRACE_SEED,
            "intervals": FLEET_BENCH_INTERVALS,
            "interval_s": FLEET_BENCH_INTERVAL_S,
        },
        "peak_capacity": sim.peak_capacity,
        "digest": sim.digest(),
        "digest_stable": reports[0].to_json() == reports[1].to_json(),
        "wall_s": round(wall, 6),
        "norm_wall": round(wall / args.calibration_s, 4),
        "machine_intervals_per_s": round(rate, 1),
        "norm_rate": round(rate * args.calibration_s, 3),
        "policies": measured,
    }


def run_sweep_bench(report: dict[str, Any], args: RunArgs) -> dict[str, Any]:
    """Measure the fleet sweep engine (``xpdl fleet sweep``).

    Shards the :data:`SWEEP_BENCH_TRACES` x :data:`SWEEP_BENCH_SEEDS` x
    every-governor grid over the :func:`_fleet_cluster` twice — ``jobs=1``
    and ``jobs=min(4, cpus)`` — and reports grid wall, cells/s and the
    parallel speedup.  ``digest_stable`` compares the two reports
    byte-for-byte: sharding must not change a single bit of the output.
    ``single_cell_norm_rate`` carries the ``fleet`` section's rate so the
    sweep gate can floor it against :data:`SCHEMA6_FLEET_NORM_RATE`.
    """
    from repro.fleet import GOVERNORS, run_sweep
    from repro.toolchain import default_jobs

    policies = tuple(GOVERNORS)
    cluster, bed, catalog = _fleet_cluster()
    calibration_s = args.calibration_s

    cpus = default_jobs()
    jobs = min(SWEEP_BENCH_JOBS, cpus)
    kwargs: dict[str, Any] = dict(
        policies=policies,
        traces=SWEEP_BENCH_TRACES,
        seeds=SWEEP_BENCH_SEEDS,
        intervals=FLEET_BENCH_INTERVALS,
        interval_s=FLEET_BENCH_INTERVAL_S,
        state_catalog=catalog,
    )
    serial, serial_stats = run_sweep(bed, jobs=1, **kwargs)
    parallel, par_stats = run_sweep(bed, jobs=jobs, **kwargs)

    def shard(stats: Any) -> dict[str, Any]:
        return {
            "wall_s": round(stats.wall_s, 6),
            "norm_wall": round(stats.wall_s / calibration_s, 4),
            "cells_per_s": round(stats.cells_per_s, 2),
            "norm_cells_per_s": round(stats.cells_per_s * calibration_s, 4),
            "workers": stats.workers,
        }

    return {
        **cluster,
        "grid": {
            "policies": list(policies),
            "traces": list(SWEEP_BENCH_TRACES),
            "seeds": list(SWEEP_BENCH_SEEDS),
            "intervals": FLEET_BENCH_INTERVALS,
            "interval_s": FLEET_BENCH_INTERVAL_S,
        },
        "cells": serial_stats.cells,
        "cpus": cpus,
        "jobs": jobs,
        "digest": serial.digest(),
        "digest_stable": serial.to_json() == parallel.to_json(),
        "serial": shard(serial_stats),
        "parallel": shard(par_stats),
        "parallel_speedup": round(
            serial_stats.wall_s / max(par_stats.wall_s, 1e-9), 2
        ),
        "single_cell_norm_rate": report["fleet"]["norm_rate"],
        "schema6_single_cell_floor": SCHEMA6_FLEET_NORM_RATE,
    }


# -- gates ------------------------------------------------------------------

#: Reads the value at a dotted key path of one report (see :class:`Gate`).
Read = Callable[[str], Any]


class _Missing(LookupError):
    """A key a gate reads is absent from the report."""


def _get(data: Any, path: str) -> Any:
    for key in path.split("."):
        if not isinstance(data, dict) or key not in data:
            raise _Missing(path)
        data = data[key]
    return data


def _text(value: Any) -> str:
    return f"{value:.4f}" if isinstance(value, float) else repr(value)


@dataclass(frozen=True)
class Baseline:
    """A gate's bound at the baseline's value (or at the fixed ``ref``),
    widened by ``max_regress + noise`` and then by the absolute ``slack``."""

    noise: float = QUERY_NOISE
    slack: float = 0.0
    ref: float | None = None

    def widen(self, ref: float, floor: bool, max_regress: float) -> tuple[float, str]:
        """The floor (or ceiling) around ``ref``, and how a problem words it."""
        if floor:
            bound = ref * (1.0 - max_regress - self.noise) - self.slack
        else:
            bound = ref * (1.0 + max_regress + self.noise) + self.slack
        sign = "-" if floor else "+"
        slack = f" {sign}{self.slack}" if self.slack else ""
        return bound, (
            f" (regressed: {'baseline' if self.ref is None else 'fixed'} "
            f"{ref:.4f} {sign}{max_regress + self.noise:.0%}{slack})"
        )


#: A gate's comparisons, and how a problem words a failed one.
_OPS = {
    "==": (operator.eq, "expected"),
    ">=": (operator.ge, "below floor"),
    "<=": (operator.le, "above ceiling"),
    "<": (operator.lt, "not below"),
}


@dataclass(frozen=True)
class Gate:
    """One check: the value at ``path`` must be ``op`` ``bound``.

    ``path`` is dotted and relative to its section; a leading ``/``
    reads from the report root, ``a / b`` is the ratio of two measured
    rates, and a ``*`` step runs the gate once per key the baseline has
    there.  ``bound`` is a constant (a flag or a count with ``==``, else
    a floor or a ceiling), the path of another measured value, or a
    :class:`Baseline` (no gate where the baseline has no value); by
    default the value is a flag that must be true.  The
    gate runs only where ``when`` holds; ``unless`` says why the host
    cannot run it, naming the gate for :func:`skipped_gates`.
    """

    path: str
    op: str = "=="
    bound: Any = True
    when: Callable[[Read], bool] | None = None
    unless: Callable[[Read], str | None] | None = None

    def check(self, read: Read, base: Read, max_regress: float) -> str | None:
        """What is wrong with the current report, or None."""
        if self.when and not self.when(read):
            return None
        bound, note = self.bound, ""
        if isinstance(bound, str):
            note, bound = f" ({bound})", read(bound)
        elif isinstance(bound, Baseline):
            try:
                ref = base(self.path) if bound.ref is None else bound.ref
            except _Missing:
                return None
            bound, note = bound.widen(ref, self.op == ">=", max_regress)
        num, _, per = self.path.partition(" / ")
        got = read(num) / max(read(per), 1e-9) if per else read(num)
        test, word = _OPS[self.op]
        return None if test(got, bound) else f"{_text(got)}, {word} {_text(bound)}{note}"


def _each(gate: Gate, base: Read) -> list[Gate]:
    """``gate``, or a copy of it per key the baseline has at its ``*`` step."""
    head, star, tail = gate.path.partition(".*")
    if not star:
        return [gate]
    try:
        return [replace(gate, path=f"{head}.{key}{tail}") for key in base(head)]
    except _Missing:
        return []


def _few_cores(read: Read) -> str | None:
    """Why this host cannot show a parallel sweep speedup, if it cannot."""
    cpus, jobs = read("cpus"), read("jobs")
    if cpus < SWEEP_BENCH_JOBS:
        return f"parallel speedup ({cpus} cpus < {SWEEP_BENCH_JOBS})"
    if jobs < SWEEP_BENCH_JOBS:
        return f"parallel speedup (jobs={jobs} < {SWEEP_BENCH_JOBS})"
    return None


# -- summary lines ----------------------------------------------------------


def _wall(p: dict[str, Any]) -> str:
    return (
        f"wall {p.get('wall_s', 0) * 1e3:8.1f} ms  "
        f"norm {p.get('norm_wall', 0):7.3f}"
    )


def _phase_lines(phases: dict[str, Any], label: str, jobs: bool) -> list[str]:
    """One line per cold/warm/parallel phase (``label`` formats its name)."""
    rows = [(name, phases[name]) for name in ("cold", "warm", "parallel") if name in phases]
    return [
        label.format(name) + _wall(p)
        + f"  {p['models_per_s']:7.1f} models/s  hit rate {p['hit_rate']:.0%}"
        + (f"  jobs={p['jobs']}" if jobs else "")
        for name, p in rows
    ]


def _rate_lines(
    categories: dict[str, Any], names: tuple[str, ...], key: str, unit: str
) -> list[str]:
    """One line per category: rate and normalized rate (see :func:`_normalized`)."""
    return [
        f"    {name:15s} {categories[name][key]:12.0f} {unit}/s  "
        f"norm {categories[name]['norm_' + key]:10.3f}"
        for name in names
        if name in categories
    ]


def _build_lines(data: dict[str, Any]) -> list[str]:
    return _phase_lines(data["phases"], "  {:9s} ", jobs=True) + [
        "  IR deterministic across jobs: "
        + ("yes" if data.get("ir_deterministic") else "NO")
    ]


def _query_lines(queries: dict[str, Any]) -> list[str]:
    categories = queries.get("categories") or {}
    if not categories:
        return []
    lines = [
        f"  queries on {queries.get('system', '?')} "
        f"({queries.get('elements', '?')} elements):"
    ]
    lines += _rate_lines(
        categories,
        ("getter", "browse", "by_id", "path", "path_naive", "analysis",
         "analysis_naive"),
        "qps",
        "queries",
    )
    for fast, slow in (("path", "path_naive"), ("analysis", "analysis_naive")):
        if fast in categories and slow in categories:
            speedup = categories[fast]["qps"] / max(
                categories[slow]["qps"], 1e-9
            )
            lines.append(f"    {fast} speedup over naive: {speedup:.0f}x")
    return lines


def _serve_lines(serve: dict[str, Any]) -> list[str]:
    categories = serve.get("categories") or {}
    if not categories:
        return []
    lines = [
        f"  serve dispatch on {serve.get('system', '?')} "
        f"(cold {serve.get('cold_ms', 0):.0f} ms, "
        f"{serve.get('index_builds', '?')} index build):"
    ]
    lines += _rate_lines(
        categories, ("hot", "batch32", "info", "threads4"), "rps", "requests"
    )
    frac = serve.get("hot_fraction_of_raw_path")
    if frac:
        lines.append(f"    hot dispatch at {frac:.0%} of raw path-query rate")
    return lines


def _cold_init_lines(cold: dict[str, Any]) -> list[str]:
    lines = [
        f"  cold open on {cold.get('system', '?')} "
        f"({cold.get('elements', '?')} elements, "
        f"{cold.get('rebuilds', '?')} rebuilds):"
    ]
    for name in ("image_mmap", "image_read", "core_only"):
        ms = (cold.get("open_ms") or {}).get(name)
        if ms is None:
            continue
        lines.append(f"    {name:15s} {ms:10.3f} ms")
    lines.append(
        f"    warm mmap open speedup over from-scratch: "
        f"{cold.get('speedup_vs_scratch', 0):.0f}x"
    )
    for row in cold.get("scaling") or []:
        lines.append(
            f"    {row['nodes']:7d} nodes   mmap {row['image_mmap_ms']:8.3f} ms  "
            f"scratch {row['scratch_ms']:9.3f} ms  "
            f"speedup {row['speedup']:6.1f}x"
        )
    return lines


def _scale_lines(scale: dict[str, Any]) -> list[str]:
    lines = [
        f"  scale corpus (seed={scale.get('seed')}, "
        f"scale={scale.get('scale')}): {scale.get('descriptors')} "
        f"descriptors, {scale.get('systems')} systems, "
        f"digest {'stable' if scale.get('digest_stable') else 'UNSTABLE'}"
    ]
    gen = scale.get("gen") or {}
    if gen:
        lines.append(
            f"    gen        wall {gen['wall_s'] * 1e3:8.1f} ms  "
            f"{gen['descriptors_per_s']:7.1f} descriptors/s"
        )
    lines += _phase_lines(scale.get("phases") or {}, "    {:9s}  ", jobs=False)
    doctor = scale.get("doctor") or {}
    if doctor:
        lines.append(
            f"    doctor     {_wall(doctor)}  "
            f"{doctor['systems_per_s']:7.2f} systems/s  "
            f"{doctor['errors']} error(s), "
            f"{doctor['findings']} finding(s)"
        )
    return lines


def _fleet_lines(fleet: dict[str, Any]) -> list[str]:
    trace = fleet.get("trace") or {}
    lines = [
        f"  fleet sim on {fleet.get('system', '?')} "
        f"({fleet.get('machines', '?')} machines, "
        f"{trace.get('kind', '?')} trace x{trace.get('intervals', '?')}, "
        f"digest {'stable' if fleet.get('digest_stable') else 'UNSTABLE'}):",
        f"    {_wall(fleet)}  "
        f"{fleet.get('machine_intervals_per_s', 0):9.1f} machine-intervals/s",
    ]
    for policy, p in (fleet.get("policies") or {}).items():
        lines.append(
            f"    {policy:13s} {p['energy_j']:12.1f} J  "
            f"({p['energy_delta_vs_performance']:+7.1%} vs performance)  "
            f"SLO {p['slo_attainment']:4.0%}  "
            f"served {p['service_level']:4.0%}  "
            f"{p['switches']:5d} switches"
        )
    return lines


def _sweep_lines(sweep: dict[str, Any]) -> list[str]:
    grid = sweep.get("grid") or {}
    lines = [
        f"  fleet sweep on {sweep.get('system', '?')} "
        f"({sweep.get('cells', '?')} cells = "
        f"{len(grid.get('policies') or [])} policies x "
        f"{len(grid.get('traces') or [])} traces x "
        f"{len(grid.get('seeds') or [])} seeds, "
        f"digest {'stable' if sweep.get('digest_stable') else 'UNSTABLE'} "
        f"across jobs):"
    ]
    for name in ("serial", "parallel"):
        s = sweep.get(name) or {}
        if s:
            lines.append(
                f"    {name:9s}  {_wall(s)}  "
                f"{s['cells_per_s']:7.2f} cells/s  workers={s['workers']}"
            )
    lines.append(
        f"    speedup {sweep.get('parallel_speedup', 0):.2f}x at "
        f"jobs={sweep.get('jobs')} ({sweep.get('cpus')} CPUs)"
    )
    single = sweep.get("single_cell_norm_rate")
    if single is not None:
        lines.append(
            f"    single-cell norm rate {single:.1f} "
            f"(schema-6 cursor floor "
            f"{sweep.get('schema6_single_cell_floor', 0):.1f})"
        )
    return lines


# -- the section table ------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """One report section: its report key, ``run``, summary lines and gates.

    ``key`` None puts the section's keys at the top level of the report
    (it is named ``build``).  ``run`` receives the report built so far.
    The gates of an ``optional`` section run only where the report has it.
    """

    key: str | None
    run: Callable[[dict[str, Any], RunArgs], dict[str, Any]]
    summary: Callable[[dict[str, Any]], list[str]]
    gates: tuple[Gate, ...]
    optional: bool = True

    @property
    def name(self) -> str:
        return self.key or "build"

    def data(self, report: dict[str, Any]) -> Any:
        return report if self.key is None else report.get(self.key) or {}

    def reader(self, report: dict[str, Any]) -> Read:
        prefix = f"{self.key}." if self.key else ""
        return lambda p: _get(report, p[1:] if p[0] == "/" else prefix + p)


SECTIONS: tuple[Section, ...] = (
    Section(None, run_build_bench, _build_lines, optional=False, gates=(
        Gate("phases.*.ok"),
        Gate("ir_deterministic"),
        Gate("phases.warm.hit_rate", ">=", MIN_WARM_HIT_RATE),
        Gate("phases.warm.norm_wall", "<=", Baseline(noise=0.0, slack=NORM_SLACK)),
    )),
    Section("queries", run_query_bench, _query_lines, optional=False, gates=(
        Gate("categories.*.norm_qps", ">=", Baseline()),
        Gate("categories.path.qps / categories.path_naive.qps", ">=", MIN_QUERY_SPEEDUP),
        Gate("categories.analysis.qps / categories.analysis_naive.qps", ">=",
             MIN_QUERY_SPEEDUP),
    )),
    Section("serve", run_serve_bench, _serve_lines, optional=False, gates=(
        Gate("/queries.categories.path.qps / categories.hot.rps", "<=",
             MAX_SERVE_DISPATCH_SLOWDOWN),
        # Hot requests reuse the hosted IRIndex: no recompile per request.
        Gate("index_builds", "==", 1),
        Gate("categories.*.norm_rps", ">=", Baseline()),
    )),
    Section("cold_init", run_cold_init_bench, _cold_init_lines, gates=(
        # A warm open adopts the persisted index sections in place.
        Gate("rebuilds", "==", 0),
        Gate("speedup_vs_scratch", ">=", MIN_COLD_OPEN_SPEEDUP),
        # Sub-ms opens are dominated by syscall noise: a tiny absolute slack.
        Gate("norm_open.*", "<=", Baseline(slack=0.05)),
    )),
    Section("scale", run_scale_bench, _scale_lines, gates=(
        Gate("digest_stable"),
        Gate("ir_deterministic"),
        Gate("phases.*.ok"),
        Gate("phases.warm.hit_rate", ">=", MIN_WARM_HIT_RATE),
        # The generator is doctor-clean by construction.
        Gate("doctor.errors", "==", 0),
        Gate("phases.cold.norm_wall", "<=", Baseline(slack=NORM_SLACK)),
        Gate("phases.warm.norm_wall", "<=", Baseline(slack=NORM_SLACK)),
        Gate("doctor.norm_wall", "<=", Baseline(slack=NORM_SLACK)),
    )),
    Section("fleet", run_fleet_bench, _fleet_lines, gates=(
        Gate("digest_stable"),
        Gate("policies.powersave.energy_j", "<=", "policies.performance.energy_j"),
        Gate("policies.ondemand.slo_attainment", ">=",
             "policies.performance.slo_attainment"),
        # Where ondemand misses performance's SLO, its energy is not judged.
        Gate("policies.ondemand.energy_j", "<", "policies.performance.energy_j",
             when=lambda read: read("policies.ondemand.slo_attainment")
             >= read("policies.performance.slo_attainment")),
        Gate("norm_rate", ">=", Baseline()),
    )),
    Section("sweep", run_sweep_bench, _sweep_lines, gates=(
        Gate("digest_stable"),
        Gate("parallel_speedup", ">=", MIN_SWEEP_SPEEDUP, unless=_few_cores),
        # The memoized inner loop stays as fast as the schema-6 simulator.
        Gate("single_cell_norm_rate", ">=", Baseline(ref=SCHEMA6_FLEET_NORM_RATE)),
        Gate("serial.norm_cells_per_s", ">=", Baseline()),
    )),
)


def run_bench(
    *,
    jobs: int | None = None,
    cache_dir: str | None = None,
    identifiers: Sequence[str] | None = None,
    include: Sequence[str] = (),
) -> dict[str, Any]:
    """Measure every section of :data:`SECTIONS`; return the report dict."""
    from repro.toolchain import default_jobs

    args = RunArgs(calibrate(), jobs or default_jobs(), cache_dir, identifiers, include)
    report: dict[str, Any] = {
        "bench_schema": BENCH_SCHEMA,
        "rev": git_rev(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "calibration_s": round(args.calibration_s, 6),
    }
    for section in SECTIONS:
        out = section.run(report, args)
        report.update(out if section.key is None else {section.key: out})
    return report


def write_report(data: dict[str, Any], out_dir: str = ".") -> str:
    """Persist the report as ``BENCH_<rev>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{data['rev']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_report(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("bench_schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {data.get('bench_schema')!r}"
        )
    return data


def _evaluate(
    baseline: dict[str, Any], current: dict[str, Any], max_regress: float
) -> tuple[list[str], list[str]]:
    """Run every gate: the problems with ``current`` and the gates skipped."""
    problems: list[str] = []
    skipped: list[str] = []
    for section in SECTIONS:
        if section.optional and not section.data(current):
            continue
        read, base = section.reader(current), section.reader(baseline)
        for gate in (g for each in section.gates for g in _each(each, base)):
            try:
                why = gate.unless(read) if gate.unless else None
                if why:
                    skipped.append(f"{section.name} {why}")
                    continue
                problem = gate.check(read, base, max_regress)
            except _Missing as missing:
                problem = f"{missing} missing from current report"
            if problem:
                problems.append(f"{section.name} bench {gate.path.lstrip('/')}: {problem}")
    return problems, skipped


def skipped_gates(current: dict[str, Any]) -> list[str]:
    """Gates :func:`compare` cannot run on ``current``'s host, with why.

    They add no problem, so the CLI names each one rather than let it
    read as passed.  (No baseline gate runs against an empty baseline.)
    """
    return _evaluate({}, current, MAX_REGRESS)[1]


def compare(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    max_regress: float = MAX_REGRESS,
) -> list[str]:
    """CI gate: problems list, empty when ``current`` is acceptable.

    Runs the gates of every section in :data:`SECTIONS`; a gate against
    the baseline tolerates ``max_regress`` on top of its own noise and
    slack.
    """
    return _evaluate(baseline, current, max_regress)[0]


def summarize(data: dict[str, Any]) -> str:
    """One human-readable block per report, for terminals and CI logs."""
    lines = [
        f"bench {data['rev']} (python {data['python']}, "
        f"calibration {data['calibration_s'] * 1e3:.0f} ms, "
        f"{len(data['corpus'])} systems)"
    ]
    for section in SECTIONS:
        if section.data(data):
            lines += section.summary(section.data(data))
    return "\n".join(lines)
