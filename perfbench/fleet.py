"""``fleet``: the policy x trace x seed sweep on a generated cluster.

Every governor over every trace kind and three trace seeds, sharded over
``jobs = nproc`` workers, one day of five-minute intervals per cell.  The
memo-friendly traces (diurnal, step) run beside memo-hostile ones
(poisson, spike, failures).  Governor decide, allocate, account and the
sweep's sharding do all the work; the toolchain runs only in set-up.
"""

from __future__ import annotations

import os
import shutil
import time

from .common import Context, Outcome, repeat_setup, timed_setup
from .layers import FLEET, harness_time, layer_figures, worker_residual
from .stats import imbalance, median

#: The cluster every seed simulates (the first system of this corpus:
#: 21 machines), fixed so that ``--seed`` changes the traces, not the
#: amount of work.
CLUSTER_SEED = 11
CLUSTER_SCALE = 40

#: One day of five-minute intervals per cell.
INTERVALS = 288
INTERVAL_S = 300.0

SEEDS_PER_RUN = 3


def run(ctx: Context) -> Outcome:
    from repro.composer import Composer
    from repro.corpus import generate_corpus
    from repro.fleet import (
        GOVERNORS,
        TRACE_KINDS,
        index_state_catalog,
        make_trace,
        run_sweep,
        simulate_fleet,
    )
    from repro.ir import IRModel
    from repro.modellib import standard_repository
    from repro.obs import Observer
    from repro.runtime import xpdl_init_from_model
    from repro.simhw import testbed_from_model

    out = Outcome()
    gen_s: list[float] = []

    def setup(k: int):
        t0 = time.perf_counter()
        corpus = generate_corpus(CLUSTER_SEED, CLUSTER_SCALE)
        gen_s.append(time.perf_counter() - t0)
        path = ctx.fresh_dir(f"corpus{k}")
        corpus.write_to(path)
        system = sorted(corpus.systems)[0]
        composed = Composer(standard_repository(path, use_env=False)).compose(system)
        bed = testbed_from_model(composed.root, name=system)
        ir = IRModel.from_model(composed.root, {"system": system})
        catalog = index_state_catalog(xpdl_init_from_model(ir), bed)
        return path, bed, catalog

    _, bed, catalog = repeat_setup(out, setup, lambda s: shutil.rmtree(s[0]))

    policies = tuple(GOVERNORS)
    seeds = tuple(ctx.seed * SEEDS_PER_RUN + i for i in range(SEEDS_PER_RUN))
    cells = len(policies) * len(TRACE_KINDS) * len(seeds)
    machine_intervals = len(bed.machines) * INTERVALS * cells

    walls: list[float] = []
    stats_rows = []
    # The benchmark's own entry call; a traced run wraps it in a span.
    calls = {"sweep": run_sweep}
    digests: set[str] = set()
    observer = Observer()
    first = None

    def sweep() -> None:
        nonlocal first
        out.pace.read_every_cpu()
        t0 = time.perf_counter()
        report, stats = calls["sweep"](
            bed,
            policies=policies,
            traces=TRACE_KINDS,
            seeds=seeds,
            intervals=INTERVALS,
            interval_s=INTERVAL_S,
            state_catalog=catalog,
            jobs=ctx.jobs,
            observer=observer,
        )
        walls.append(time.perf_counter() - t0)
        stats_rows.append(stats)
        digests.add(report.digest())
        if first is None:
            first = report
        out.count(out.check("sweep_digest_stable", len(digests) == 1), stats.cells)

    def resample_setup() -> None:
        # Set-up takes about 0.1 s here, so it is sampled between sweeps
        # too: the shared host changes speed over a run, and set-ups taken
        # only in the run's first second would see one stretch of it.
        state = timed_setup(out, lambda: setup(len(out.setup_s)))
        shutil.rmtree(state[0])

    def measure(seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            sweep()
            if time.perf_counter() >= deadline:
                break
            resample_setup()

    if ctx.trace:
        assert ctx.tracer is not None
        measure(ctx.seconds / 2)
        plain = median(walls)
        walls.clear()
        n_plain = len(stats_rows)
        switches_plain = observer.counters.get("fleet.switches", 0)
        ctx.tracer.patch_all(FLEET)
        calls["sweep"] = ctx.tracer.wrap(run_sweep, "fleet.sweep.run")
        t0 = time.perf_counter()
        measure(ctx.seconds / 2)
        t1 = time.perf_counter()
        ctx.tracer.restore()
        ctx.tracer.collect()
        spans = ctx.tracer.spans
        out.layers.update(layer_figures(spans, FLEET))
        traced = stats_rows[n_plain:]
        # Worker time that no layer covers: reopening the image, the
        # state catalog, building the simulator, the loop over cells.
        busy_s = sum(sum(s.worker_s) for s in traced)
        left = worker_residual(spans, busy_s, os.getpid(), "fleet.sweep.run", FLEET)
        out.layers["trace.residual_s"] = (left, "s")
        out.layers["trace.residual_share"] = (left / busy_s, "ratio")
        out.layers["trace.harness_s"] = (harness_time(spans, os.getpid(), t0, t1), "s")
        out.layers["trace.overhead"] = (median(walls) / plain - 1.0, "ratio")
        out.layers["trace.spans"] = (len(spans), "count")
        out.trace_window = (t0, t1)
        switches = observer.counters.get("fleet.switches", 0) - switches_plain
        out.layers["fleet.switches"] = (switches // max(1, len(traced)), "count")
        # The sharding figures come from the untraced sweeps: span wrappers
        # slow the workers, and spooling their spans at exit lengthens the
        # pool's shutdown.
        untraced = stats_rows[:n_plain]
    else:
        measure(ctx.seconds)
        untraced = stats_rows
        out.layers["fleet.switches"] = (
            observer.counters.get("fleet.switches", 0) // len(stats_rows), "count"
        )

    busy = [list(s.worker_s) for s in untraced]
    out.layers.update(
        {
            "corpus.generate_s": (median(gen_s), "s"),
            "fleet.sweep.worker_busy_s": (median([sum(b) for b in busy]), "s"),
            "fleet.sweep.imbalance": (median([imbalance(b) for b in busy]), "ratio"),
            "fleet.sweep.pool_overhead_s": (
                median([s.wall_s - max(s.worker_s) for s in untraced]), "s"
            ),
        }
    )

    # Governor physics exactly as the committed harness gates them: its
    # diurnal trace (seed 5, 24 one-minute intervals) through every
    # governor.  On the sweep's day of five-minute intervals ondemand
    # misses a few intervals that performance meets, so the equal-SLO
    # rule is checked where the harness defines it and the sweep's own
    # diurnal frontier is reported beside it.
    harness = simulate_fleet(
        bed,
        make_trace("diurnal", seed=5, intervals=24, interval_s=60.0,
                   machines=sorted(bed.machines)),
        policies,
        state_catalog=catalog,
    )
    perf = harness.result("performance")
    save = harness.result("powersave")
    od = harness.result("ondemand")
    out.count(out.check("powersave_le_performance_energy", save.energy_j <= perf.energy_j))
    out.count(
        out.check(
            "ondemand_saves_at_equal_slo_diurnal",
            od.slo_attainment >= perf.slo_attainment and od.energy_j < perf.energy_j,
        )
    )
    assert first is not None
    out.report["sweep_diurnal_frontier"] = {
        policy: {"energy_j": row["energy_j"], "slo_attainment": row["slo_attainment"]}
        for policy, row in first.by_trace()["diurnal"].items()
    }

    # Worker time per cell does not depend on how the cells were sharded:
    # an inner-loop change moves it and the rate, a sharding change only
    # the rate.
    cell_ms = median([sum(s.worker_s) / s.cells * 1e3 for s in stats_rows])
    # A sweep takes a second or so, so the run's pace scales the gated
    # figures; the report keeps them as measured.
    paced = out.pace.run_factor()
    out.metrics["latency_ms"] = (cell_ms * paced, "ms")
    out.metrics["rate_per_s"] = (machine_intervals / (median(walls) * paced), "1/s")
    out.report.update(
        {
            "machines": len(bed.machines),
            "cells": cells,
            "seeds": list(seeds),
            "fleet_cell_ms": {"value": cell_ms, "unit": "ms", "n": len(stats_rows)},
            "fleet_mi_per_s": {
                "value": machine_intervals / median(walls),
                "unit": "machine-intervals/s",
                "n": len(walls),
            },
            "sweep_wall_s": {"value": median(walls), "unit": "s", "n": len(walls)},
        }
    )
    out.digests["sweep_report"] = first.digest()
    return out
