"""The benchmark harness behind ``python -m benchmarks`` (run from repo root).

Converts the ad-hoc experiment scripts' role of "how fast is the
toolchain" into a repeatable, CI-gateable measurement.  ``run`` builds
the modellib corpus three ways through :func:`repro.toolchain.run_batch`
and emits one ``BENCH_<rev>.json``:

* **cold** — fresh persistent cache, sequential: the worst case;
* **warm** — same cache directory again: everything should come from the
  persistent stage cache (hit rate >= 0.9 is an acceptance criterion);
* **parallel** — fresh cache, ``--jobs N`` fan-out: the scaling case.

Wall-clock numbers are machine-dependent, so each report also carries a
``calibration_s`` — the time of a fixed pure-Python spin measured on the
same host — and every phase's ``norm_wall`` (wall / calibration).
``compare`` gates on the *normalized* warm build time against a
committed baseline JSON, which keeps the CI regression check meaningful
across runner generations, plus the warm hit-rate floor.

Each report also carries a ``queries`` section — runtime query API
throughput (queries/s and calibration-normalized ``norm_qps``) on the
composed liu_gpu_server model for the paper's Sec. IV categories
(getter, browse, by_id, path, analysis), plus the *naive* uncompiled
path/analysis evaluators for comparison.  ``compare`` gates the
normalized throughputs against the baseline and enforces the compiled
engine's speedup floor over the naive evaluators.

The ``scale`` section runs the toolchain over a *generated* corpus
(``repro.corpus``, seed/scale fixed in :data:`SCALE_BENCH_SEED` /
:data:`SCALE_BENCH_SCALE`): generator throughput, cold/warm/parallel
batch builds of the synthetic systems, and a cold doctor pass.
``compare`` gates batch-build and doctor normalized walls against the
baseline and enforces the structural invariants — digest-stable
generation, byte-identical parallel builds, zero doctor errors.

The ``serve`` section measures the ``xpdl serve`` hot path in-process:
:class:`repro.service.ModelHost` dispatch throughput once the model's
``IRIndex`` is hosted (single requests, 32-request batches, and a
4-thread hammer).  ``compare`` enforces the acceptance criterion that a
hot service query stays within :data:`MAX_SERVE_DISPATCH_SLOWDOWN` of
raw compiled path-query throughput and that the bench never rebuilt the
hosted index (``index_builds == 1`` — no recompile per request).

The ``fleet`` section runs the discrete-interval fleet simulator
(``repro.fleet``) over a small generated cluster: a seeded diurnal trace
through every DVFS governor policy, reporting per-policy energy/SLO and
the simulation rate (machine-intervals/s).  ``compare`` gates the
normalized rate against the baseline and enforces the structural
invariants — byte-identical reports across re-runs, ``powersave`` never
costing more energy than ``performance``, and ``ondemand`` saving energy
at equal SLO attainment on the diurnal shape.

The ``sweep`` section (schema 7) shards the full (policy, trace, seed)
grid through ``repro.fleet.run_sweep`` at ``jobs=1`` and ``jobs=4``:
grid wall, cells/s and the parallel speedup, plus the ``fleet``
section's single-cell rate floored against the frozen schema-6
cursor-engine constant.  ``compare`` enforces byte-identical reports
across job counts, the >= 2x speedup floor (only on hosts with >= 4
CPUs), and both throughput floors.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from typing import Any, Sequence

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


def run_query_bench(
    calibration_s: float, *, system: str = QUERY_BENCH_SYSTEM
) -> dict[str, Any]:
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
    measured: dict[str, Any] = {}
    for name, fn in categories.items():
        qps = _rate(fn)
        measured[name] = {
            "qps": round(qps, 1),
            "norm_qps": round(qps * calibration_s, 3),
        }
    return {
        "system": system,
        "elements": len(ctx.ir),
        "categories": measured,
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


def run_cold_init_bench(
    calibration_s: float, *, system: str = QUERY_BENCH_SYSTEM
) -> dict[str, Any]:
    """Measure cold model-open latency with and without a persisted index.

    Serializes the composed ``system`` two ways — v2 image with index
    sections, and core-only (the same records without them, so its open
    pays the index build a warm open skips: the from-scratch reference)
    — and times a full :func:`repro.runtime.query.xpdl_init` open of
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


def run_serve_bench(
    calibration_s: float,
    *,
    system: str = QUERY_BENCH_SYSTEM,
    raw_path_qps: float | None = None,
) -> dict[str, Any]:
    """Measure model-service dispatch throughput (the ``xpdl serve`` path).

    Builds one :class:`repro.service.ModelHost` over the standard
    repository, pays the cold first-request compile once, then measures
    hot dispatch rates with the index hosted: ``hot`` (single query
    request), ``batch32`` (32 queries per batch request, counted as
    sub-requests/s), ``info`` (composition summary), and ``threads4``
    (aggregate of 4 threads hammering the query op through the
    lock/lease protocol).  ``index_builds`` documents that the hosted
    index was compiled exactly once across all of it.
    """
    import threading

    from repro.modellib import standard_repository
    from repro.service import ModelHost

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

    measured: dict[str, Any] = {}
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

    for name, rps in rates.items():
        measured[name] = {
            "rps": round(rps, 1),
            "norm_rps": round(rps * calibration_s, 3),
        }
    counters = host.stats()["observer"]["counters"]
    out: dict[str, Any] = {
        "system": system,
        "result_count": result_count,
        "cold_ms": round(cold_s * 1e3, 3),
        "index_builds": counters.get("service.model.builds", 0),
        "categories": measured,
    }
    if raw_path_qps:
        out["hot_fraction_of_raw_path"] = round(
            rates["hot"] / raw_path_qps, 4
        )
    return out


def run_scale_bench(
    calibration_s: float,
    *,
    seed: int = SCALE_BENCH_SEED,
    scale: int = SCALE_BENCH_SCALE,
    jobs: int | None = None,
) -> dict[str, Any]:
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
    from repro.toolchain import ToolchainSession, default_jobs, run_batch

    jobs = jobs or default_jobs()

    t0 = time.perf_counter()
    corpus = generate_corpus(seed, scale)
    gen_wall = time.perf_counter() - t0
    digest = corpus.digest()
    digest_stable = generate_corpus(seed, scale).digest() == digest

    with tempfile.TemporaryDirectory(prefix="xpdl-scale-") as scratch:
        corpus_dir = os.path.join(scratch, "corpus")
        corpus.write_to(corpus_dir)
        cache = os.path.join(scratch, "cache")
        systems = list(corpus.systems)

        cold = run_batch(
            standard_repository(corpus_dir), systems, jobs=1,
            cache_dir=os.path.join(cache, "seq"),
        )
        warm = run_batch(
            standard_repository(corpus_dir), systems, jobs=1,
            cache_dir=os.path.join(cache, "seq"),
        )
        par = run_batch(
            standard_repository(corpus_dir), systems, jobs=jobs,
            cache_dir=os.path.join(cache, "par"),
        )

        session = ToolchainSession(standard_repository(corpus_dir))
        t0 = time.perf_counter()
        merged = merged_doctor_report(session, systems)
        doctor_wall = time.perf_counter() - t0

    phases = {
        "cold": _phase_dict(cold),
        "warm": _phase_dict(warm),
        "parallel": _phase_dict(par),
    }
    for phase in phases.values():
        phase["norm_wall"] = round(phase["wall_s"] / calibration_s, 4)
    ir_match = [b.ir_sha256 for b in cold.builds] == [
        b.ir_sha256 for b in par.builds
    ]
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


def run_fleet_bench(
    calibration_s: float,
    *,
    seed: int = FLEET_BENCH_SEED,
    scale: int = FLEET_BENCH_SCALE,
) -> dict[str, Any]:
    """Measure the fleet simulator (``xpdl fleet``) over a generated cluster.

    Generates a seeded corpus, composes its first system into a
    :class:`repro.simhw.SimTestbed`, compiles the runtime index for the
    power-state catalog, and drives a seeded diurnal trace through every
    registered governor policy.  The simulation runs twice; the wall is
    the best of the two and ``digest_stable`` compares the two reports
    byte-for-byte (the determinism contract).  The rate is
    machine-intervals/s across all policies — the unit of simulator work.
    """
    from repro.composer import Composer
    from repro.corpus import generate_corpus
    from repro.fleet import GOVERNORS, index_state_catalog, make_trace, simulate_fleet
    from repro.ir import IRModel
    from repro.modellib import standard_repository
    from repro.runtime import xpdl_init_from_model
    from repro.simhw import testbed_from_model

    policies = tuple(GOVERNORS)
    corpus = generate_corpus(seed, scale)
    with tempfile.TemporaryDirectory(prefix="xpdl-fleet-") as scratch:
        corpus_dir = os.path.join(scratch, "corpus")
        corpus.write_to(corpus_dir)
        system = sorted(corpus.systems)[0]
        composed = Composer(standard_repository(corpus_dir)).compose(system)

    bed = testbed_from_model(composed.root, name=system)
    ctx = xpdl_init_from_model(
        IRModel.from_model(composed.root, {"system": system})
    )
    catalog = index_state_catalog(ctx, bed)
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
    report = reports[0]
    wall = min(walls)

    perf_energy = report.result("performance").energy_j
    measured: dict[str, Any] = {}
    for policy in policies:
        r = report.result(policy)
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
        "system": system,
        "seed": seed,
        "scale": scale,
        "machines": len(bed.machines),
        "trace": {
            "kind": FLEET_BENCH_TRACE,
            "seed": FLEET_BENCH_TRACE_SEED,
            "intervals": FLEET_BENCH_INTERVALS,
            "interval_s": FLEET_BENCH_INTERVAL_S,
        },
        "peak_capacity": report.peak_capacity,
        "digest": report.digest(),
        "digest_stable": reports[0].to_json() == reports[1].to_json(),
        "wall_s": round(wall, 6),
        "norm_wall": round(wall / calibration_s, 4),
        "machine_intervals_per_s": round(rate, 1),
        "norm_rate": round(rate * calibration_s, 3),
        "policies": measured,
    }


def run_sweep_bench(
    calibration_s: float,
    *,
    seed: int = FLEET_BENCH_SEED,
    scale: int = FLEET_BENCH_SCALE,
    fleet_norm_rate: float | None = None,
) -> dict[str, Any]:
    """Measure the fleet sweep engine (``xpdl fleet sweep``).

    Shards the :data:`SWEEP_BENCH_TRACES` x :data:`SWEEP_BENCH_SEEDS` x
    every-governor grid over the FLEET_BENCH cluster twice — ``jobs=1``
    and ``jobs=min(4, cpus)`` — and reports grid wall, cells/s and the
    parallel speedup.  ``digest_stable`` compares the two reports
    byte-for-byte: sharding must not change a single bit of the output.
    ``single_cell_norm_rate`` carries the ``fleet`` section's rate so the
    sweep gate can floor it against :data:`SCHEMA6_FLEET_NORM_RATE`.
    """
    from repro.composer import Composer
    from repro.corpus import generate_corpus
    from repro.fleet import GOVERNORS, index_state_catalog, run_sweep
    from repro.ir import IRModel
    from repro.modellib import standard_repository
    from repro.runtime import xpdl_init_from_model
    from repro.simhw import testbed_from_model
    from repro.toolchain import default_jobs

    policies = tuple(GOVERNORS)
    corpus = generate_corpus(seed, scale)
    with tempfile.TemporaryDirectory(prefix="xpdl-sweep-") as scratch:
        corpus_dir = os.path.join(scratch, "corpus")
        corpus.write_to(corpus_dir)
        system = sorted(corpus.systems)[0]
        composed = Composer(standard_repository(corpus_dir)).compose(system)

    bed = testbed_from_model(composed.root, name=system)
    ctx = xpdl_init_from_model(
        IRModel.from_model(composed.root, {"system": system})
    )
    catalog = index_state_catalog(ctx, bed)

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

    out: dict[str, Any] = {
        "system": system,
        "seed": seed,
        "scale": scale,
        "machines": len(bed.machines),
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
    }
    if fleet_norm_rate is not None:
        out["single_cell_norm_rate"] = fleet_norm_rate
        out["schema6_single_cell_floor"] = SCHEMA6_FLEET_NORM_RATE
    return out


def _phase_dict(report: Any) -> dict[str, Any]:
    return {
        "ok": report.ok,
        "builds": len(report.builds),
        "wall_s": round(report.wall_s, 6),
        "models_per_s": round(report.models_per_s, 3),
        "hit_rate": round(report.hit_rate, 4),
        "cache": dict(report.cache),
        "jobs": report.jobs,
        "shards": len(report.shards),
    }


def run_bench(
    *,
    jobs: int | None = None,
    cache_dir: str | None = None,
    identifiers: Sequence[str] | None = None,
    include: Sequence[str] = (),
) -> dict[str, Any]:
    """Measure cold/warm/parallel corpus builds; return the report dict.

    ``cache_dir=None`` uses a throwaway directory so benchmarking never
    touches (or benefits from) a developer's real ``.xpdl-cache``.
    """
    from repro.modellib import standard_repository
    from repro.toolchain import default_jobs, run_batch

    jobs = jobs or default_jobs()
    calibration_s = calibrate()

    with tempfile.TemporaryDirectory(prefix="xpdl-bench-") as scratch:
        base = cache_dir or os.path.join(scratch, "cache")
        repo = standard_repository(*include)
        corpus = list(identifiers) if identifiers else repo.systems()

        cold = run_batch(
            standard_repository(*include), corpus, jobs=1,
            cache_dir=os.path.join(base, "seq"),
        )
        warm = run_batch(
            standard_repository(*include), corpus, jobs=1,
            cache_dir=os.path.join(base, "seq"),
        )
        par = run_batch(
            standard_repository(*include), corpus, jobs=jobs,
            cache_dir=os.path.join(base, "par"),
        )

    phases = {
        "cold": _phase_dict(cold),
        "warm": _phase_dict(warm),
        "parallel": _phase_dict(par),
    }
    for phase in phases.values():
        phase["norm_wall"] = round(phase["wall_s"] / calibration_s, 4)
    ir_match = [b.ir_sha256 for b in cold.builds] == [
        b.ir_sha256 for b in par.builds
    ]
    queries = run_query_bench(calibration_s)
    serve = run_serve_bench(
        calibration_s,
        raw_path_qps=queries["categories"]["path"]["qps"],
    )
    cold_init = run_cold_init_bench(calibration_s)
    scale = run_scale_bench(calibration_s, jobs=jobs)
    fleet = run_fleet_bench(calibration_s)
    sweep = run_sweep_bench(
        calibration_s, fleet_norm_rate=fleet["norm_rate"]
    )
    return {
        "bench_schema": BENCH_SCHEMA,
        "rev": git_rev(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "calibration_s": round(calibration_s, 6),
        "corpus": sorted(corpus),
        "ir_deterministic": ir_match,
        "phases": phases,
        "queries": queries,
        "serve": serve,
        "cold_init": cold_init,
        "scale": scale,
        "fleet": fleet,
        "sweep": sweep,
    }


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


def skipped_gates(current: dict[str, Any]) -> list[str]:
    """Gates :func:`compare` cannot run on ``current``'s host, with why.

    They add no problem, so the CLI names each one rather than let it
    read as passed.
    """
    sweep = current.get("sweep") or {}
    if not sweep:
        return []
    cpus, jobs = sweep.get("cpus", 0), sweep.get("jobs", 0)
    if cpus < SWEEP_BENCH_JOBS:
        return [f"sweep parallel speedup ({cpus} cpus < {SWEEP_BENCH_JOBS})"]
    if jobs < SWEEP_BENCH_JOBS:
        return [f"sweep parallel speedup (jobs={jobs} < {SWEEP_BENCH_JOBS})"]
    return []


def compare(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    max_regress: float = MAX_REGRESS,
) -> list[str]:
    """CI gate: problems list, empty when ``current`` is acceptable.

    Checks, in order of severity: every phase built successfully and
    deterministically; the warm phase's persistent-cache hit rate is at
    least :data:`MIN_WARM_HIT_RATE`; and the *normalized* warm-build wall
    time has not regressed more than ``max_regress`` (plus a small
    absolute slack) against the baseline.
    """
    problems: list[str] = []
    for name, phase in current["phases"].items():
        if not phase.get("ok", False):
            problems.append(f"phase {name}: build failed")
    if not current.get("ir_deterministic", False):
        problems.append("parallel build is not byte-identical to sequential")

    warm = current["phases"]["warm"]
    if warm["hit_rate"] < MIN_WARM_HIT_RATE:
        problems.append(
            f"warm hit rate {warm['hit_rate']:.0%} below the "
            f"{MIN_WARM_HIT_RATE:.0%} floor"
        )

    base_warm = baseline["phases"]["warm"]
    allowed = base_warm["norm_wall"] * (1.0 + max_regress) + NORM_SLACK
    if warm["norm_wall"] > allowed:
        problems.append(
            f"warm build regressed: norm_wall {warm['norm_wall']:.3f} "
            f"exceeds allowed {allowed:.3f} "
            f"(baseline {base_warm['norm_wall']:.3f} "
            f"+{max_regress:.0%} +{NORM_SLACK} slack)"
        )

    # -- runtime query API throughput ----------------------------------
    base_queries = (baseline.get("queries") or {}).get("categories") or {}
    cur_queries = (current.get("queries") or {}).get("categories") or {}
    for name, base_q in base_queries.items():
        cur_q = cur_queries.get(name)
        if cur_q is None:
            problems.append(f"query bench {name!r}: missing from current report")
            continue
        floor = base_q["norm_qps"] * (1.0 - max_regress - QUERY_NOISE)
        if cur_q["norm_qps"] < floor:
            problems.append(
                f"query bench {name!r} regressed: norm_qps "
                f"{cur_q['norm_qps']:.3f} below floor {floor:.3f} "
                f"(baseline {base_q['norm_qps']:.3f} "
                f"-{max_regress + QUERY_NOISE:.0%})"
            )
    for fast, slow in (("path", "path_naive"), ("analysis", "analysis_naive")):
        if fast in cur_queries and slow in cur_queries:
            speedup = cur_queries[fast]["qps"] / max(cur_queries[slow]["qps"], 1e-9)
            if speedup < MIN_QUERY_SPEEDUP:
                problems.append(
                    f"compiled {fast} query engine only {speedup:.1f}x the "
                    f"naive evaluator (floor {MIN_QUERY_SPEEDUP:.0f}x)"
                )

    # -- model service (xpdl serve) dispatch ---------------------------
    cur_serve = current.get("serve") or {}
    serve_cats = cur_serve.get("categories") or {}
    raw_path = cur_queries.get("path")
    if raw_path and "hot" in serve_cats:
        slowdown = raw_path["qps"] / max(serve_cats["hot"]["rps"], 1e-9)
        if slowdown > MAX_SERVE_DISPATCH_SLOWDOWN:
            problems.append(
                f"hot serve dispatch is {slowdown:.1f}x slower than raw "
                f"compiled path queries "
                f"(ceiling {MAX_SERVE_DISPATCH_SLOWDOWN:.0f}x)"
            )
    if cur_serve and cur_serve.get("index_builds") != 1:
        problems.append(
            f"serve bench built the hosted index "
            f"{cur_serve.get('index_builds')!r} times (expected exactly 1: "
            f"hot requests must reuse the cached IRIndex)"
        )
    for name, base_c in (
        (baseline.get("serve") or {}).get("categories") or {}
    ).items():
        cur_c = serve_cats.get(name)
        if cur_c is None:
            problems.append(f"serve bench {name!r}: missing from current report")
            continue
        floor = base_c["norm_rps"] * (1.0 - max_regress - QUERY_NOISE)
        if cur_c["norm_rps"] < floor:
            problems.append(
                f"serve bench {name!r} regressed: norm_rps "
                f"{cur_c['norm_rps']:.3f} below floor {floor:.3f} "
                f"(baseline {base_c['norm_rps']:.3f} "
                f"-{max_regress + QUERY_NOISE:.0%})"
            )

    # -- zero-copy cold open (persisted v2 index image) ----------------
    cur_cold = current.get("cold_init") or {}
    if cur_cold:
        if cur_cold.get("rebuilds", 1) != 0:
            problems.append(
                f"warm image open rebuilt the index "
                f"{cur_cold.get('rebuilds')!r} time(s) (expected 0: the "
                f"persisted sections must be adopted in place)"
            )
        speedup = cur_cold.get("speedup_vs_scratch", 0.0)
        if speedup < MIN_COLD_OPEN_SPEEDUP:
            problems.append(
                f"warm image open only {speedup:.1f}x faster than a "
                f"from-scratch open (floor {MIN_COLD_OPEN_SPEEDUP:.0f}x)"
            )
        base_cold = (baseline.get("cold_init") or {}).get("norm_open") or {}
        cur_norm = cur_cold.get("norm_open") or {}
        for name, base_v in base_cold.items():
            cur_v = cur_norm.get(name)
            if cur_v is None:
                problems.append(
                    f"cold_init bench {name!r}: missing from current report"
                )
                continue
            # Latency: higher is worse.  Same relative tolerance as the
            # throughput gates, plus a tiny absolute slack for sub-ms
            # opens dominated by syscall noise.
            ceiling = base_v * (1.0 + max_regress + QUERY_NOISE) + 0.05
            if cur_v > ceiling:
                problems.append(
                    f"cold_init bench {name!r} regressed: norm_open "
                    f"{cur_v:.4f} above ceiling {ceiling:.4f} "
                    f"(baseline {base_v:.4f} "
                    f"+{max_regress + QUERY_NOISE:.0%})"
                )
    # -- generated-corpus scale section --------------------------------
    cur_scale = current.get("scale") or {}
    if cur_scale:
        if not cur_scale.get("digest_stable", False):
            problems.append(
                "scale bench: generator digest is not stable across "
                "re-generation (seeding contract broken)"
            )
        if not cur_scale.get("ir_deterministic", False):
            problems.append(
                "scale bench: parallel corpus build is not byte-identical "
                "to sequential"
            )
        for name, phase in (cur_scale.get("phases") or {}).items():
            if not phase.get("ok", False):
                problems.append(f"scale bench phase {name}: build failed")
        scale_warm = (cur_scale.get("phases") or {}).get("warm") or {}
        if scale_warm and scale_warm.get("hit_rate", 0.0) < MIN_WARM_HIT_RATE:
            problems.append(
                f"scale bench warm hit rate {scale_warm['hit_rate']:.0%} "
                f"below the {MIN_WARM_HIT_RATE:.0%} floor"
            )
        doctor = cur_scale.get("doctor") or {}
        if doctor.get("errors", 0) != 0:
            problems.append(
                f"scale bench: doctor found {doctor.get('errors')} error(s) "
                "in the generated corpus (generator must be doctor-clean)"
            )
        # Batch-build and doctor throughput gates against the baseline
        # (normalized walls; ceiling like the latency gates above).
        base_scale = baseline.get("scale") or {}
        gates = [
            ("cold build", ("phases", "cold"), "norm_wall"),
            ("warm build", ("phases", "warm"), "norm_wall"),
            ("doctor", ("doctor",), "norm_wall"),
        ]
        for label, path_keys, key in gates:
            base_v: Any = base_scale
            cur_v: Any = cur_scale
            for k in path_keys:
                base_v = (base_v or {}).get(k)
                cur_v = (cur_v or {}).get(k)
            base_v = (base_v or {}).get(key) if base_v else None
            cur_v = (cur_v or {}).get(key) if cur_v else None
            if base_v is None:
                continue
            if cur_v is None:
                problems.append(
                    f"scale bench {label}: missing from current report"
                )
                continue
            ceiling = base_v * (1.0 + max_regress + QUERY_NOISE) + NORM_SLACK
            if cur_v > ceiling:
                problems.append(
                    f"scale bench {label} regressed: norm_wall {cur_v:.3f} "
                    f"above ceiling {ceiling:.3f} (baseline {base_v:.3f} "
                    f"+{max_regress + QUERY_NOISE:.0%})"
                )
    # -- fleet energy/SLO simulation -----------------------------------
    cur_fleet = current.get("fleet") or {}
    if cur_fleet:
        if not cur_fleet.get("digest_stable", False):
            problems.append(
                "fleet bench: report is not byte-identical across re-runs "
                "(simulation determinism contract broken)"
            )
        pols = cur_fleet.get("policies") or {}
        perf = pols.get("performance")
        save = pols.get("powersave")
        od = pols.get("ondemand")
        if perf and save and save["energy_j"] > perf["energy_j"]:
            problems.append(
                f"fleet bench: powersave used more energy "
                f"({save['energy_j']:.1f} J) than performance "
                f"({perf['energy_j']:.1f} J)"
            )
        if perf and od:
            if od["slo_attainment"] < perf["slo_attainment"]:
                problems.append(
                    f"fleet bench: ondemand SLO attainment "
                    f"{od['slo_attainment']:.0%} fell below performance's "
                    f"{perf['slo_attainment']:.0%} on the diurnal trace"
                )
            elif od["energy_j"] >= perf["energy_j"]:
                problems.append(
                    f"fleet bench: ondemand saved no energy over "
                    f"performance ({od['energy_j']:.1f} J vs "
                    f"{perf['energy_j']:.1f} J at equal SLO)"
                )
        base_fleet = baseline.get("fleet") or {}
        base_rate = base_fleet.get("norm_rate")
        cur_rate = cur_fleet.get("norm_rate")
        if base_rate is not None:
            if cur_rate is None:
                problems.append("fleet bench: missing from current report")
            else:
                floor = base_rate * (1.0 - max_regress - QUERY_NOISE)
                if cur_rate < floor:
                    problems.append(
                        f"fleet bench regressed: norm_rate {cur_rate:.3f} "
                        f"below floor {floor:.3f} (baseline {base_rate:.3f} "
                        f"-{max_regress + QUERY_NOISE:.0%})"
                    )
    # -- fleet sweep engine --------------------------------------------
    cur_sweep = current.get("sweep") or {}
    if cur_sweep:
        if not cur_sweep.get("digest_stable", False):
            problems.append(
                "sweep bench: report is not byte-identical across jobs "
                "(sharding determinism contract broken)"
            )
        if (
            cur_sweep.get("cpus", 0) >= SWEEP_BENCH_JOBS
            and cur_sweep.get("jobs", 0) >= SWEEP_BENCH_JOBS
            and cur_sweep.get("parallel_speedup", 0.0) < MIN_SWEEP_SPEEDUP
        ):
            problems.append(
                f"sweep bench: parallel speedup "
                f"{cur_sweep.get('parallel_speedup', 0.0):.2f}x at "
                f"jobs={cur_sweep.get('jobs')} below the "
                f"{MIN_SWEEP_SPEEDUP:.0f}x floor "
                f"({cur_sweep.get('cpus')} CPUs available)"
            )
        single = cur_sweep.get("single_cell_norm_rate")
        if single is not None:
            floor = SCHEMA6_FLEET_NORM_RATE * (
                1.0 - max_regress - QUERY_NOISE
            )
            if single < floor:
                problems.append(
                    f"sweep bench: single-cell norm_rate {single:.3f} fell "
                    f"below the schema-6 cursor-engine floor {floor:.3f} "
                    f"(the memoized inner loop must stay at least as fast "
                    f"as the pre-memo simulator)"
                )
        base_sweep = baseline.get("sweep") or {}
        base_cells = (base_sweep.get("serial") or {}).get("norm_cells_per_s")
        cur_cells = (cur_sweep.get("serial") or {}).get("norm_cells_per_s")
        if base_cells is not None:
            if cur_cells is None:
                problems.append(
                    "sweep bench: serial cells/s missing from current report"
                )
            else:
                floor = base_cells * (1.0 - max_regress - QUERY_NOISE)
                if cur_cells < floor:
                    problems.append(
                        f"sweep bench regressed: serial norm_cells_per_s "
                        f"{cur_cells:.4f} below floor {floor:.4f} "
                        f"(baseline {base_cells:.4f} "
                        f"-{max_regress + QUERY_NOISE:.0%})"
                    )
    return problems


def summarize(data: dict[str, Any]) -> str:
    """One human-readable block per report, for terminals and CI logs."""
    lines = [
        f"bench {data['rev']} (python {data['python']}, "
        f"calibration {data['calibration_s'] * 1e3:.0f} ms, "
        f"{len(data['corpus'])} systems)"
    ]
    for name in ("cold", "warm", "parallel"):
        p = data["phases"][name]
        lines.append(
            f"  {name:9s} wall {p['wall_s'] * 1e3:8.1f} ms  "
            f"norm {p['norm_wall']:7.3f}  "
            f"{p['models_per_s']:7.1f} models/s  "
            f"hit rate {p['hit_rate']:.0%}  jobs={p['jobs']}"
        )
    lines.append(
        "  IR deterministic across jobs: "
        + ("yes" if data.get("ir_deterministic") else "NO")
    )
    queries = data.get("queries") or {}
    categories = queries.get("categories") or {}
    if categories:
        lines.append(
            f"  queries on {queries.get('system', '?')} "
            f"({queries.get('elements', '?')} elements):"
        )
        for name in (
            "getter",
            "browse",
            "by_id",
            "path",
            "path_naive",
            "analysis",
            "analysis_naive",
        ):
            q = categories.get(name)
            if q is None:
                continue
            lines.append(
                f"    {name:15s} {q['qps']:12.0f} queries/s  "
                f"norm {q['norm_qps']:10.3f}"
            )
        for fast, slow in (("path", "path_naive"), ("analysis", "analysis_naive")):
            if fast in categories and slow in categories:
                speedup = categories[fast]["qps"] / max(
                    categories[slow]["qps"], 1e-9
                )
                lines.append(f"    {fast} speedup over naive: {speedup:.0f}x")
    serve = data.get("serve") or {}
    serve_cats = serve.get("categories") or {}
    if serve_cats:
        lines.append(
            f"  serve dispatch on {serve.get('system', '?')} "
            f"(cold {serve.get('cold_ms', 0):.0f} ms, "
            f"{serve.get('index_builds', '?')} index build):"
        )
        for name in ("hot", "batch32", "info", "threads4"):
            c = serve_cats.get(name)
            if c is None:
                continue
            lines.append(
                f"    {name:15s} {c['rps']:12.0f} requests/s  "
                f"norm {c['norm_rps']:10.3f}"
            )
        frac = serve.get("hot_fraction_of_raw_path")
        if frac:
            lines.append(
                f"    hot dispatch at {frac:.0%} of raw path-query rate"
            )
    cold = data.get("cold_init") or {}
    if cold:
        lines.append(
            f"  cold open on {cold.get('system', '?')} "
            f"({cold.get('elements', '?')} elements, "
            f"{cold.get('rebuilds', '?')} rebuilds):"
        )
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
    scale = data.get("scale") or {}
    if scale:
        lines.append(
            f"  scale corpus (seed={scale.get('seed')}, "
            f"scale={scale.get('scale')}): {scale.get('descriptors')} "
            f"descriptors, {scale.get('systems')} systems, "
            f"digest {'stable' if scale.get('digest_stable') else 'UNSTABLE'}"
        )
        gen = scale.get("gen") or {}
        if gen:
            lines.append(
                f"    gen        wall {gen['wall_s'] * 1e3:8.1f} ms  "
                f"{gen['descriptors_per_s']:7.1f} descriptors/s"
            )
        for name in ("cold", "warm", "parallel"):
            p = (scale.get("phases") or {}).get(name)
            if p is None:
                continue
            lines.append(
                f"    {name:9s}  wall {p['wall_s'] * 1e3:8.1f} ms  "
                f"norm {p['norm_wall']:7.3f}  "
                f"{p['models_per_s']:7.1f} models/s  "
                f"hit rate {p['hit_rate']:.0%}"
            )
        doctor = scale.get("doctor") or {}
        if doctor:
            lines.append(
                f"    doctor     wall {doctor['wall_s'] * 1e3:8.1f} ms  "
                f"norm {doctor['norm_wall']:7.3f}  "
                f"{doctor['systems_per_s']:7.2f} systems/s  "
                f"{doctor['errors']} error(s), "
                f"{doctor['findings']} finding(s)"
            )
    fleet = data.get("fleet") or {}
    if fleet:
        trace = fleet.get("trace") or {}
        lines.append(
            f"  fleet sim on {fleet.get('system', '?')} "
            f"({fleet.get('machines', '?')} machines, "
            f"{trace.get('kind', '?')} trace x{trace.get('intervals', '?')}, "
            f"digest {'stable' if fleet.get('digest_stable') else 'UNSTABLE'}):"
        )
        lines.append(
            f"    wall {fleet.get('wall_s', 0) * 1e3:8.1f} ms  "
            f"norm {fleet.get('norm_wall', 0):7.3f}  "
            f"{fleet.get('machine_intervals_per_s', 0):9.1f} machine-intervals/s"
        )
        for policy, p in (fleet.get("policies") or {}).items():
            lines.append(
                f"    {policy:13s} {p['energy_j']:12.1f} J  "
                f"({p['energy_delta_vs_performance']:+7.1%} vs performance)  "
                f"SLO {p['slo_attainment']:4.0%}  "
                f"served {p['service_level']:4.0%}  "
                f"{p['switches']:5d} switches"
            )
    sweep = data.get("sweep") or {}
    if sweep:
        grid = sweep.get("grid") or {}
        lines.append(
            f"  fleet sweep on {sweep.get('system', '?')} "
            f"({sweep.get('cells', '?')} cells = "
            f"{len(grid.get('policies') or [])} policies x "
            f"{len(grid.get('traces') or [])} traces x "
            f"{len(grid.get('seeds') or [])} seeds, "
            f"digest {'stable' if sweep.get('digest_stable') else 'UNSTABLE'} "
            f"across jobs):"
        )
        for name in ("serial", "parallel"):
            s = sweep.get(name) or {}
            if not s:
                continue
            lines.append(
                f"    {name:9s}  wall {s['wall_s'] * 1e3:8.1f} ms  "
                f"norm {s['norm_wall']:7.3f}  "
                f"{s['cells_per_s']:7.2f} cells/s  "
                f"workers={s['workers']}"
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
    return "\n".join(lines)
