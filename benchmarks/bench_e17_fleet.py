"""E17 (extension) — fleet-scale DVFS governor comparison under diurnal load.

The paper's Sec. I pitch is energy *optimization* parameterized by the
platform model.  E17 runs that loop at fleet scale: a generated cluster
(seeded, ~20 machines) serves a seeded diurnal request trace under every
registered governor policy, with P-state choices validated against the
compiled runtime index and transition costs paid through each machine's
PSM switch plans.

Shape: ``performance`` sets the energy ceiling at 100 % SLO;
``ondemand`` and ``race-to-idle`` cut energy at the *same* SLO;
``powersave`` cuts the most energy but halves the served load — the
policy frontier the simulator exists to expose.
"""

from __future__ import annotations

import os
import tempfile

from conftest import emit_table

from repro.composer import Composer
from repro.corpus import generate_corpus
from repro.fleet import GOVERNORS, index_state_catalog, make_trace, simulate_fleet
from repro.ir import IRModel
from repro.modellib import standard_repository
from repro.runtime import xpdl_init_from_model
from repro.simhw import testbed_from_model

SEED = 11
SCALE = 40
TRACE_SEED = 5
INTERVALS = 24
INTERVAL_S = 60.0


def _fleet_inputs():
    corpus = generate_corpus(SEED, SCALE)
    with tempfile.TemporaryDirectory(prefix="xpdl-e17-") as scratch:
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
        "diurnal",
        seed=TRACE_SEED,
        intervals=INTERVALS,
        interval_s=INTERVAL_S,
        machines=sorted(bed.machines),
    )
    return bed, trace, catalog


def test_e17_policy_frontier(benchmark):
    bed, trace, catalog = _fleet_inputs()
    policies = tuple(GOVERNORS)

    report = benchmark.pedantic(
        lambda: simulate_fleet(bed, trace, policies, state_catalog=catalog),
        rounds=3,
        iterations=1,
    )

    perf = report.result("performance")
    rows = []
    for policy in policies:
        r = report.result(policy)
        delta = (r.energy_j - perf.energy_j) / perf.energy_j
        rows.append(
            [
                policy,
                f"{r.energy_j / 1e3:.1f}",
                f"{delta:+.1%}",
                f"{r.slo_attainment:.0%}",
                f"{r.service_level:.0%}",
                f"{r.switches}",
            ]
        )

    emit_table(
        "e17_fleet",
        f"governor frontier on {report.model} "
        f"({report.machines} machines, diurnal x{report.intervals})",
        ["policy", "energy [kJ]", "vs perf", "SLO", "served", "switches"],
        rows,
        notes="seeded trace; report digest "
        f"{report.digest()[:12]} is byte-stable across runs",
    )

    save = report.result("powersave")
    od = report.result("ondemand")
    assert save.energy_j <= perf.energy_j
    assert od.slo_attainment >= perf.slo_attainment
    assert od.energy_j < perf.energy_j
