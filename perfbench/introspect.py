"""``introspect``: an adaptive application using the runtime query API.

Each round opens every corpus model's cached runtime image with
``xpdl_init`` and runs that model's seeded Sec. IV mix: getters,
``by_id``, path queries with predicates and analyses.  The path queries
draw from more distinct strings than the 256-entry plan cache holds,
beside a hot set that repeats.  This is the one workload where ``ir``
open and ``runtime`` plan/index/handle do the work.
"""

from __future__ import annotations

import hashlib
import os
import random
import time

from .common import Context, Outcome, compile_corpus, remove_dirs, repeat_setup
from .layers import QUERY, harness_time, layer_figures
from .stats import median

CORPUS_SEED = 7
CORPUS_SCALE = 40

#: Operations per model per round, and their shares.
OPS_PER_MODEL = 400
SHARES = (("path", 0.35), ("getter", 0.20), ("by_id", 0.15), ("analysis", 0.30))
#: Share of path queries drawn from the hot set.
HOT_SHARE = 0.5

#: Attributes whose values make predicate queries (distinct strings).
_PRED_ATTRS = ("id", "name", "type", "frequency", "size", "head", "tail", "energy")
_ANALYSES = ("count_cores", "count_cuda_devices", "total_static_power", "has_installed")
_REQUIREMENTS = ("Linux_5.15", "Linux_6.1", "Linux_6.6", "cuda", "openmp")


def _hot_paths(ir) -> list[str]:
    kinds = sorted({n.kind for n in ir.nodes})
    hot = [f"//{k}" for k in kinds if k in ("core", "cpu", "device", "memory", "node",
                                              "interconnect", "power_state", "hostOS")]
    hot += [f"//cache[@name='L{i}']" for i in (1, 2, 3)]
    hot += ["//node/socket/cpu", "//cpu/cache", "//socket[0]/cpu"]
    types = sorted({n.attrs["type"] for n in ir.nodes if n.kind == "device" and "type" in n.attrs})
    hot += [f"//device[@type='{t}']" for t in types[:2]]
    return hot


def _quotable(value: str) -> bool:
    return "'" not in value and "]" not in value


def _cold_paths(ir) -> list[str]:
    """Every predicate query that names one node (and, for the two-step
    form, its parent): many distinct strings, each matching something."""
    out = set()
    nodes = ir.nodes
    for n in nodes:
        preds = [f"[@{a}='{n.attrs[a]}']" for a in _PRED_ATTRS
                 if a in n.attrs and _quotable(n.attrs[a])]
        for pred in preds:
            out.add(f"//{n.kind}{pred}")
            if n.parent is not None:
                p = nodes[n.parent]
                if "id" in p.attrs and _quotable(p.attrs["id"]):
                    out.add(f"//{p.kind}[@id='{p.attrs['id']}']/{n.kind}{pred}")
    return sorted(out)


def make_mix(ir, rng: random.Random) -> list[tuple]:
    """The seeded operation list of one model, drawn from its own IR.

    The mix is stratified: each kind of operation, each hot path and each
    analysis appears a fixed number of times, so the work of a mix does not
    depend on the seed; the seed draws the cold paths, the getter and
    ``by_id`` targets and the order.
    """
    hot = _hot_paths(ir)
    cold = _cold_paths(ir)
    with_id = [n for n in ir.nodes if "id" in n.attrs]
    ids = sorted({n.attrs["id"] for n in with_id})
    counts = {kind: round(share * OPS_PER_MODEL) for kind, share in SHARES}
    n_hot = round(counts["path"] * HOT_SHARE)
    mix: list[tuple] = [("path", hot[i % len(hot)]) for i in range(n_hot)]
    mix += [("path", rng.choice(cold)) for _ in range(counts["path"] - n_hot)]
    for _ in range(counts["getter"]):
        node = rng.choice(with_id)
        mix.append(("getter", node.attrs["id"], rng.choice(sorted(node.attrs))))
    mix += [("by_id", rng.choice(ids)) for _ in range(counts["by_id"])]
    for i in range(counts["analysis"]):
        name = _ANALYSES[i % len(_ANALYSES)]
        arg = rng.choice(_REQUIREMENTS) if name == "has_installed" else None
        mix.append(("analysis", name, arg))
    rng.shuffle(mix)
    return mix


def run(ctx: Context) -> Outcome:
    from repro.ir import IRModel
    from repro.obs import Observer, use_observer
    from repro.runtime import query_all, query_all_naive, xpdl_init

    out = Outcome()
    gen_s: list[float] = []
    _, _, systems, images = repeat_setup(
        out,
        lambda k: compile_corpus(ctx, k, CORPUS_SEED, CORPUS_SCALE, gen_s),
        lambda s: remove_dirs(s[0], s[1]),
    )

    # The mix is generated from the models' own content, outside timing.
    mixes = {}
    for i, ident in enumerate(systems):
        mixes[ident] = make_mix(IRModel.load(images[ident]), random.Random(f"{ctx.seed}:{i}"))
    distinct_paths = {op[1] for mix in mixes.values() for op in mix if op[0] == "path"}

    #: Open times, and query-mix throughput of each round (every model
    #: once, opens excluded): scaled to the reference pace, and as measured.
    opens: list[float] = []
    opens_raw: list[float] = []
    ops = [0]
    round_qps: list[float] = []
    round_qps_raw: list[float] = []
    pace = out.pace
    seen: dict[tuple[str, str], list[int]] = {}
    observer = Observer()

    def measure(seconds: float, rng: random.Random, tracer) -> None:
        open_model = _traced(tracer, "runtime.init", xpdl_init)
        query = _traced(tracer, "runtime.query", query_all)
        getter = _traced(tracer, "runtime.getter", _getter)
        by_id = _traced(tracer, "runtime.getter", _by_id)
        analysis = _traced(tracer, "runtime.analysis", _analysis)
        order = list(systems)
        deadline = time.perf_counter() + seconds
        with use_observer(observer):
            while True:
                rng.shuffle(order)
                round_busy, round_raw, round_ops = 0.0, 0.0, 0
                for ident in order:
                    factor = pace.factor()
                    t0 = time.perf_counter()
                    qctx = open_model(images[ident])
                    t1 = time.perf_counter()
                    opens_raw.append(t1 - t0)
                    opens.append((t1 - t0) * factor)
                    for op in mixes[ident]:
                        kind = op[0]
                        if kind == "path":
                            res = query(qctx, op[1])
                            if (ident, op[1]) not in seen:
                                seen[(ident, op[1])] = [h.index for h in res]
                        elif kind == "getter":
                            getter(qctx, op[1], op[2])
                        elif kind == "by_id":
                            by_id(qctx, op[1])
                        else:
                            analysis(qctx, op[1], op[2])
                    busy = time.perf_counter() - t1
                    round_raw += busy
                    round_busy += busy * factor
                    round_ops += len(mixes[ident])
                ops[0] += round_ops
                round_qps.append(round_ops / round_busy)
                round_qps_raw.append(round_ops / round_raw)
                if time.perf_counter() >= deadline:
                    break

    if ctx.trace:
        assert ctx.tracer is not None
        measure(ctx.seconds / 2, random.Random(f"{ctx.seed}:order:0"), None)
        plain_qps = median(round_qps)
        ops[0] = 0
        for samples in (round_qps, round_qps_raw, opens, opens_raw):
            samples.clear()
        ctx.tracer.patch_all(QUERY)
        t0 = time.perf_counter()
        measure(ctx.seconds / 2, random.Random(f"{ctx.seed}:order:1"), ctx.tracer)
        t1 = time.perf_counter()
        ctx.tracer.restore()
        spans = ctx.tracer.spans
        figures = layer_figures(
            spans, ("ir.open", "runtime.init", "runtime.query", "runtime.getter",
                    "runtime.analysis", "runtime.plan.compile")
        )
        out.layers.update(figures)
        # Every call into the program goes through a layer span, so no
        # program time is left uncovered; the rest is the benchmark's loop.
        out.layers["trace.residual_s"] = (0.0, "s")
        out.layers["trace.residual_share"] = (0.0, "ratio")
        out.layers["trace.harness_s"] = (harness_time(spans, os.getpid(), t0, t1), "s")
        out.layers["trace.overhead"] = (plain_qps / median(round_qps) - 1.0, "ratio")
        out.layers["trace.spans"] = (len(spans), "count")
        out.trace_window = (t0, t1)
    else:
        measure(ctx.seconds, random.Random(f"{ctx.seed}:order:0"), None)

    # Checks, outside every timed region: compiled == naive on every
    # distinct (model, path), and no open rebuilt an index.
    mismatched = 0
    contexts = {ident: xpdl_init(images[ident]) for ident in systems}
    for (ident, path), got in sorted(seen.items()):
        want = [h.index for h in query_all_naive(contexts[ident], path)]
        if got != want:
            mismatched += 1
    rebuilds = observer.counters.get("index.rebuilds", 0)
    out.check("compiled_equals_naive", mismatched == 0)
    out.check("no_index_rebuilds", rebuilds == 0)
    out.check("every_path_checked", len(seen) == sum(
        len({op[1] for op in mixes[i] if op[0] == "path"}) for i in systems))
    out.ops = ops[0] + len(opens)
    out.ops_failed = mismatched + (len(opens) if rebuilds else 0)

    hits = observer.counters.get("runtime.plan_hits", 0)
    misses = observer.counters.get("runtime.plan_misses", 0)
    # Each model's open and mix are scaled by the pace read just before
    # them; the figures are medians over every open and every round.
    qps = median(round_qps)
    out.metrics["latency_ms"] = (median(opens) * 1e3, "ms")
    out.metrics["rate_per_s"] = (qps, "1/s")
    out.report.update(
        {
            "models": len(systems),
            "distinct_paths": len(distinct_paths),
            "introspect_open_ms": {"value": median(opens) * 1e3, "unit": "ms", "n": len(opens),
                                   "raw": median(opens_raw) * 1e3},
            "introspect_qps": {"value": qps, "unit": "queries/s", "n": ops[0],
                               "rounds": len(round_qps), "raw": median(round_qps_raw)},
        }
    )
    listing = "".join(f"{i}\t{p}\t{r}\n" for (i, p), r in sorted(seen.items()))
    out.digests["query_results"] = hashlib.sha256(listing.encode()).hexdigest()
    out.layers.update(
        {
            "corpus.generate_s": (median(gen_s), "s"),
            "index.rebuilds": (rebuilds, "count"),
            "runtime.plan.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        }
    )
    return out


def _getter(qctx, ident: str, attr: str):
    handle = qctx.by_id(ident)
    return handle.attr(attr) if handle is not None else None


def _by_id(qctx, ident: str):
    return qctx.by_id(ident)


def _analysis(qctx, name: str, arg):
    if name == "has_installed":
        return qctx.has_installed(arg)
    return getattr(qctx, name)()


def _traced(tracer, name: str, fn):
    return fn if tracer is None else tracer.wrap(fn, name)
