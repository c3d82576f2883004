"""``build``: the batch toolchain, cold and after single-descriptor edits.

Each round compiles every generated system of a corpus from an empty
persistent cache at ``jobs = nproc`` and runs the repository doctor (the
``xpdl build`` + ``xpdl doctor`` pair).  The first rounds then edit CPU
descriptors — a seeded cache ``size`` — each edit followed by a warm
rebuild and doctor, then reverted and rebuilt again.  Every CPU is edited
exactly once per run, so the work does not depend on the seed.  Cold passes
write the stage cache; edit passes fingerprint, look up and invalidate
it.  Runtime, service and fleet do no work here.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import shutil
import time

from .common import Context, Outcome, repeat_setup
from .layers import TOOLCHAIN, harness_time, layer_figures, worker_residual
from .stats import imbalance, median

#: The corpus every seed builds: a fixed tree, so the amount of work does
#: not change with ``--seed`` (which picks the edits).  Scale 40 is 40
#: descriptors and 12 systems; the bundled library sits behind it on the
#: search path, as with ``xpdl build -I``, and the repository doctor
#: covers both.
CORPUS_SEED = 7
CORPUS_SCALE = 40


#: The layers a batch worker runs for each system: all but shard planning
#: and the doctor, which run in the calling process.
WORKER_LAYERS = [n for n in TOOLCHAIN if n not in ("toolchain.batch.plan", "analysis.doctor")]

#: CPU descriptors edited after each cold build, until every one has been:
#: one per round spreads the edit passes over most of the run.
EDITS_PER_ROUND = 1

#: Cache sizes an edit may pick, per level, in the generator's units.
CACHE_SIZES = {"L1": (32, 48, 64), "L2": (256, 512, 1024), "L3": (4, 8, 16, 30)}

_CACHE_RE = re.compile(r'<cache\b[^>]*\bname="(L[123])"[^>]*>')
_SIZE_RE = re.compile(r'\bsize="(\d+)"')


class _Change:
    def __init__(self, path: str, before: str, after: str) -> None:
        self.path, self.before, self.after = path, before, after

    def write(self, text: str) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _plan_edit(rng: random.Random, ident: str, path: str) -> _Change:
    """Change one cache size of a CPU descriptor to another legal size."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tags = list(_CACHE_RE.finditer(text))
    tag = rng.choice(tags)
    size = _SIZE_RE.search(tag.group(0))
    if size is None:
        raise RuntimeError(f"cache without a size in {path}")
    old = int(size.group(1))
    new = rng.choice([s for s in CACHE_SIZES[tag.group(1)] if s != old])
    new_tag = (
        tag.group(0)[: size.start(1)] + str(new) + tag.group(0)[size.end(1):]
    )
    after = text[: tag.start()] + new_tag + text[tag.end():]
    return _Change(path, text, after)


def run(ctx: Context) -> Outcome:
    from repro.corpus import generate_corpus
    from repro.diagnostics import DiagnosticSink
    from repro.modellib import standard_repository
    from repro.obs import Observer
    from repro.service.core import merged_doctor_report
    from repro.toolchain import ToolchainSession, run_batch
    from repro.toolchain.diskcache import PersistentStageCache

    out = Outcome()
    gen_s: list[float] = []

    def setup(k: int) -> tuple[str, list[str]]:
        t0 = time.perf_counter()
        corpus = generate_corpus(CORPUS_SEED, CORPUS_SCALE)
        gen_s.append(time.perf_counter() - t0)
        path = ctx.fresh_dir(f"corpus{k}")
        corpus.write_to(path)
        # Warm-up: one build and doctor into a throwaway cache, so the
        # process's lazy imports and caches are filled before any timing.
        warm = ctx.fresh_dir(f"warmup{k}")
        run_batch(standard_repository(path, use_env=False), corpus.systems,
                  jobs=ctx.jobs, cache_dir=warm)
        merged_doctor_report(
            ToolchainSession(standard_repository(path, use_env=False),
                             disk_cache=PersistentStageCache(warm)),
            list(corpus.systems),
        )
        shutil.rmtree(warm)
        return path, list(corpus.systems)

    corpus_dir, systems = repeat_setup(out, setup, lambda s: shutil.rmtree(s[0]))

    # Check inputs, outside every timed region: each system's closure and
    # where each CPU descriptor lives.
    repo = standard_repository(corpus_dir, use_env=False)
    closures = {
        s: set(repo.load_closure(s, DiagnosticSink())) | {s} for s in systems
    }
    index = repo.index()
    corpus_root = os.path.abspath(corpus_dir)
    cpus = sorted(
        (ident, os.path.join(entry.store.root, entry.path))
        for ident, entry in index.items()
        if entry.root_tag == "cpu" and getattr(entry.store, "root", None) == corpus_root
    )
    if not cpus:
        raise RuntimeError("generated corpus has no CPU descriptors")

    observer = Observer()
    passes: list[dict] = []
    # The benchmark's own entry calls; a traced run wraps them in spans.
    calls = {"batch": run_batch, "doctor": merged_doctor_report}

    def build_and_doctor(cache_dir: str) -> tuple[dict[str, str], int, float]:
        cold = not os.listdir(cache_dir)
        out.pace.read_every_cpu()
        t0 = time.perf_counter()
        report = calls["batch"](
            standard_repository(corpus_dir, use_env=False),
            systems,
            jobs=ctx.jobs,
            cache_dir=cache_dir,
            observer=observer,
        )
        session = ToolchainSession(
            standard_repository(corpus_dir, use_env=False),
            observer=observer,
            disk_cache=PersistentStageCache(cache_dir),
        )
        doctor = calls["doctor"](session, systems)
        wall = time.perf_counter() - t0
        busy = [
            sum(b.duration_s for b in report.builds if b.identifier in shard)
            for shard in report.shards
        ]
        stats = dict(report.cache)
        for key, value in session.cache_stats().items():
            stats[key] = stats.get(key, 0) + value
        shas = {b.identifier: b.ir_sha256 for b in report.builds if b.ok}
        passes.append(
            {
                "batch_wall": report.wall_s,
                "busy": busy,
                "cache": stats,
                "failed_builds": sum(not b.ok for b in report.builds),
                "cold": cold,
            }
        )
        return shas, doctor.errors, wall

    def account(shas: dict[str, str], expected: dict[str, bool], base: dict[str, str],
                errors: int, name: str) -> None:
        # One op per system built and one for the doctor pass.
        for s in systems:
            if s not in base:
                out.count(False)
                continue
            changed = shas.get(s) != base[s]
            out.count(out.check(name, s in shas and changed == expected[s]))
        out.count(out.check("doctor_clean", errors == 0))

    cold_s: list[float] = []
    edit_s: list[float] = []
    first_shas: dict[str, str] | None = None

    def cold_round(r: int) -> str:
        nonlocal first_shas
        cache_dir = ctx.fresh_dir(f"cache{r}")
        shas, errors, wall = build_and_doctor(cache_dir)
        cold_s.append(wall)
        if first_shas is None:
            first_shas = shas
        account(shas, unchanged, first_shas, errors, "cold_ir_deterministic")
        return cache_dir

    def edit(cache_dir: str, ident: str, path: str, rng: random.Random) -> None:
        assert first_shas is not None
        change = _plan_edit(rng, ident, path)
        change.write(change.after)
        shas, errors, wall = build_and_doctor(cache_dir)
        edit_s.append(wall)
        expected = {s: ident in closures[s] for s in systems}
        account(shas, expected, first_shas, errors, "edit_changes_closure")
        change.write(change.before)
        shas, errors, wall = build_and_doctor(cache_dir)
        edit_s.append(wall)
        account(shas, unchanged, first_shas, errors, "revert_restores_ir")

    def measure(seconds: float) -> None:
        # Every CPU is edited once, in seeded order, one per round after
        # the round's cold build; cold rounds then fill the rest of the
        # time.  Interleaving spreads both figures over the whole run.
        deadline = time.perf_counter() + seconds
        rng = random.Random(f"{ctx.seed}:edits")
        todo = rng.sample(cpus, len(cpus))
        r = 0
        while todo or r < 2 or time.perf_counter() < deadline:
            cache_dir = cold_round(r)
            for ident, path in todo[:EDITS_PER_ROUND]:
                edit(cache_dir, ident, path, rng)
            del todo[:EDITS_PER_ROUND]
            shutil.rmtree(cache_dir)
            r += 1

    unchanged = {s: False for s in systems}
    if ctx.trace:
        assert ctx.tracer is not None
        shutil.rmtree(cold_round(0))
        plain_cold = median(cold_s)
        n_plain = len(passes)
        cold_s.clear()
        ctx.tracer.patch_all(TOOLCHAIN)
        calls["batch"] = ctx.tracer.wrap(run_batch, "toolchain.batch.run")
        calls["doctor"] = ctx.tracer.wrap(merged_doctor_report, "analysis.doctor")
        t0 = time.perf_counter()
        measure(ctx.seconds)
        t1 = time.perf_counter()
        ctx.tracer.restore()
        ctx.tracer.collect()
        spans = ctx.tracer.spans
        out.layers.update(layer_figures(spans, [*TOOLCHAIN, "toolchain.batch.run"]))
        traced = passes[n_plain:]
        # Per-system worker time that no layer covers (hashing each image,
        # the loop around the calls).  A worker's session set-up lies
        # outside the per-system times; it shows in pool_overhead_s.
        busy_s = sum(sum(p["busy"]) for p in traced)
        left = worker_residual(spans, busy_s, os.getpid(), "toolchain.batch.run",
                               WORKER_LAYERS)
        out.layers["trace.residual_s"] = (left, "s")
        out.layers["trace.residual_share"] = (left / busy_s, "ratio")
        out.layers["trace.harness_s"] = (harness_time(spans, os.getpid(), t0, t1), "s")
        out.layers["trace.overhead"] = (median(cold_s) / plain_cold - 1.0, "ratio")
        out.layers["trace.spans"] = (len(spans), "count")
        out.trace_window = (t0, t1)
    else:
        measure(ctx.seconds)
        traced = passes

    n_systems = len(systems)
    # A pass takes a second or so, so the run's pace scales the gated
    # figures; the report keeps them as measured.
    paced = out.pace.run_factor()
    out.metrics["latency_ms"] = (median(edit_s) * paced * 1e3, "ms")
    out.metrics["rate_per_s"] = (n_systems / (median(cold_s) * paced), "1/s")
    out.report.update(
        {
            "systems": n_systems,
            "descriptors": len(index),
            "build_cold_s": {"value": median(cold_s), "unit": "s", "n": len(cold_s)},
            "build_edit_s": {"value": median(edit_s), "unit": "s", "n": len(edit_s)},
        }
    )
    assert first_shas is not None
    listing = "".join(f"{s} {first_shas.get(s)}\n" for s in sorted(systems))
    out.digests["ir_sha256"] = hashlib.sha256(listing.encode()).hexdigest()
    out.digests["ir_sha256_list"] = {s: first_shas.get(s) for s in sorted(systems)}

    # Layer figures read from what the program exposes: BatchReport cache
    # totals, merged Observer counters, per-system build durations.
    cold_passes = [p for p in traced if p["cold"]]
    totals: dict[str, int] = {}
    for p in traced:
        for key, value in p["cache"].items():
            totals[key] = totals.get(key, 0) + value
    hits = totals.get("hits", 0) + totals.get("disk_hits", 0)
    lookups = hits + totals.get("misses", 0)
    out.layers.update(
        {
            "corpus.generate_s": (median(gen_s), "s"),
            "toolchain.cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "toolchain.cache.invalidations": (totals.get("invalidations", 0), "count"),
            "toolchain.diskcache.stale": (
                observer.counters.get("toolchain.diskcache.stale", 0), "count"
            ),
            "toolchain.batch.worker_busy_s": (
                median([sum(p["busy"]) for p in cold_passes]), "s"
            ),
            "toolchain.batch.imbalance": (
                median([imbalance(p["busy"]) for p in cold_passes]), "ratio"
            ),
            "toolchain.batch.pool_overhead_s": (
                median([p["batch_wall"] - max(p["busy"]) for p in cold_passes]), "s"
            ),
        }
    )
    out.check("builds_ok", all(p["failed_builds"] == 0 for p in passes))
    return out
