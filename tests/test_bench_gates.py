"""Every CI gate of the bench harness, tripped one at a time.

Works from the committed baseline report and runs no benchmark: each
case pushes one value of a copy just past its gate's bound (exactly one
problem, naming the gate) and just inside it (no problem), at two
``max_regress`` settings.  Deleting any one key from the copy must give
problems, never an exception.
"""

from __future__ import annotations

import copy
import os

import pytest

harness = pytest.importorskip("benchmarks.harness")

BASELINE = harness.load_report(
    os.path.join(os.path.dirname(harness.__file__), "baseline", "BENCH_baseline.json")
)
MAX_REGRESS = (0.25, 0.1)
EPS = 1e-9
QN = harness.QUERY_NOISE
SLACK = harness.NORM_SLACK


def _node(report, path):
    *parents, leaf = path.split(".")
    for key in parents:
        report = report[key]
    return report, leaf


def _get(report, path):
    node, leaf = _node(report, path)
    return node[leaf]


def _set(report, path, value):
    node, leaf = _node(report, path)
    node[leaf] = value


SECTIONS = ("queries", "serve", "cold_init", "scale", "fleet", "sweep")


def _names(path, section=None):
    """How a problem of the gate on ``path`` starts: section, then check."""
    head, _, rest = path.partition(".")
    if section is None:
        section = head if head in SECTIONS else "build"
    return f"{section} bench {rest if head == section else path}: "


def _keys(path):
    return sorted(_get(BASELINE, path))


# Each case: (how its problem starts, the keys its gate reads,
# push(report, max_regress, past)).  ``push`` moves a value just past
# the gate's bound when ``past``, else just inside it.


def flag(path):
    return _names(path), (path,), lambda r, mr, past: _set(r, path, not past)


def count(path, want):
    return _names(path), (path,), lambda r, mr, past: _set(r, path, want + 1 if past else want)


def floor(path, bound_of):
    def push(r, mr, past):
        _set(r, path, bound_of(mr) * (1 - EPS if past else 1 + EPS))

    return _names(path), (path,), push


def ceiling(path, bound_of):
    def push(r, mr, past):
        _set(r, path, bound_of(mr) * (1 + EPS if past else 1 - EPS))

    return _names(path), (path,), push


def base_floor(path, noise=QN, slack=0.0):
    return floor(path, lambda mr: _get(BASELINE, path) * (1.0 - mr - noise) - slack)


def base_ceiling(path, noise=QN, slack=0.0):
    return ceiling(path, lambda mr: _get(BASELINE, path) * (1.0 + mr + noise) + slack)


def ratio_floor(num, den, limit):
    """``num / den`` must stay at least ``limit``: move ``den``."""

    def push(r, mr, past):
        _set(r, den, _get(r, num) / limit * (1 + EPS if past else 1 - EPS))

    section = den.partition(".")[0]
    return _names(f"{num} / {den.partition('.')[2]}", section), (num, den), push


def ratio_ceiling(num, den, limit):
    """``num / den`` must stay at most ``limit``: move ``den``."""

    def push(r, mr, past):
        _set(r, den, _get(r, num) / limit * (1 - EPS if past else 1 + EPS))

    section = den.partition(".")[0]
    return _names(f"{num} / {den.partition('.')[2]}", section), (num, den), push


def sweep_speedup(r, mr, past):
    r["sweep"].update(cpus=8, jobs=4)
    r["sweep"]["parallel_speedup"] = harness.MIN_SWEEP_SPEEDUP * (1 - EPS if past else 1)


POL = "fleet.policies."


def powersave_energy(r, mr, past):
    perf = _get(r, POL + "performance.energy_j")
    _set(r, POL + "powersave.energy_j", perf * (1 + EPS) if past else perf)


def ondemand_slo(r, mr, past):
    perf = _get(r, POL + "performance.slo_attainment")
    _set(r, POL + "ondemand.slo_attainment", perf - 1e-6 if past else perf)


def ondemand_energy(r, mr, past):
    perf = _get(r, POL + "performance.energy_j")
    _set(r, POL + "ondemand.energy_j", perf if past else perf * (1 - EPS))


SLO = (POL + "ondemand.slo_attainment", POL + "performance.slo_attainment")

CASES = [
    # build (top-level keys)
    *(flag(f"phases.{p}.ok") for p in _keys("phases")),
    flag("ir_deterministic"),
    floor("phases.warm.hit_rate", lambda mr: harness.MIN_WARM_HIT_RATE),
    base_ceiling("phases.warm.norm_wall", noise=0.0, slack=SLACK),
    # queries
    *(base_floor(f"queries.categories.{c}.norm_qps") for c in _keys("queries.categories")),
    *(
        ratio_floor(f"queries.categories.{c}.qps", f"queries.categories.{c}_naive.qps",
                    harness.MIN_QUERY_SPEEDUP)
        for c in ("path", "analysis")
    ),
    # serve
    ratio_ceiling("queries.categories.path.qps", "serve.categories.hot.rps",
                  harness.MAX_SERVE_DISPATCH_SLOWDOWN),
    count("serve.index_builds", 1),
    *(base_floor(f"serve.categories.{c}.norm_rps") for c in _keys("serve.categories")),
    # cold_init
    count("cold_init.rebuilds", 0),
    floor("cold_init.speedup_vs_scratch", lambda mr: harness.MIN_COLD_OPEN_SPEEDUP),
    *(base_ceiling(f"cold_init.norm_open.{k}", slack=0.05) for k in _keys("cold_init.norm_open")),
    # scale
    flag("scale.digest_stable"),
    flag("scale.ir_deterministic"),
    *(flag(f"scale.phases.{p}.ok") for p in _keys("scale.phases")),
    floor("scale.phases.warm.hit_rate", lambda mr: harness.MIN_WARM_HIT_RATE),
    count("scale.doctor.errors", 0),
    base_ceiling("scale.phases.cold.norm_wall", slack=SLACK),
    base_ceiling("scale.phases.warm.norm_wall", slack=SLACK),
    base_ceiling("scale.doctor.norm_wall", slack=SLACK),
    # fleet
    flag("fleet.digest_stable"),
    (_names(POL + "powersave.energy_j"),
     (POL + "powersave.energy_j", POL + "performance.energy_j"), powersave_energy),
    (_names(POL + "ondemand.slo_attainment"), SLO, ondemand_slo),
    (_names(POL + "ondemand.energy_j"),
     (POL + "ondemand.energy_j", POL + "performance.energy_j", *SLO), ondemand_energy),
    base_floor("fleet.norm_rate"),
    # sweep
    flag("sweep.digest_stable"),
    (_names("sweep.parallel_speedup"),
     ("sweep.parallel_speedup", "sweep.cpus", "sweep.jobs"), sweep_speedup),
    floor("sweep.single_cell_norm_rate",
          lambda mr: harness.SCHEMA6_FLEET_NORM_RATE * (1.0 - mr - QN)),
    base_floor("sweep.serial.norm_cells_per_s"),
]

#: Every key some gate reads.
READ = {key for _, reads, _ in CASES for key in reads}


def test_the_cases_cover_the_thirty_gates():
    assert sum(len(section.gates) for section in harness.SECTIONS) == 30
    # Wildcard gates appear once per key they expand to.
    per_key = (
        len(_keys("phases")) + len(_keys("queries.categories")) + len(_keys("serve.categories"))
        + len(_keys("cold_init.norm_open")) + len(_keys("scale.phases"))
    )
    assert len(CASES) == 30 - 5 + per_key
    assert len({gate for gate, _, _ in CASES}) == len(CASES)


@pytest.mark.parametrize("max_regress", MAX_REGRESS)
def test_the_baseline_passes_against_itself(max_regress):
    assert harness.compare(BASELINE, BASELINE, max_regress=max_regress) == []


@pytest.mark.parametrize("max_regress", MAX_REGRESS)
@pytest.mark.parametrize("gate, reads, push", CASES, ids=[c[0][:-2] for c in CASES])
def test_each_gate_trips_alone_just_past_its_bound(gate, reads, push, max_regress):
    past = copy.deepcopy(BASELINE)
    push(past, max_regress, True)
    problems = harness.compare(BASELINE, past, max_regress=max_regress)
    assert len(problems) == 1, problems
    assert problems[0].startswith(gate), problems

    inside = copy.deepcopy(BASELINE)
    push(inside, max_regress, False)
    assert harness.compare(BASELINE, inside, max_regress=max_regress) == []
    assert harness.skipped_gates(inside) == harness.skipped_gates(past)


def _leaves(report, prefix=""):
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and value:
            yield from _leaves(value, path + ".")
        else:
            yield path


@pytest.mark.parametrize("max_regress", MAX_REGRESS)
def test_deleting_any_key_is_a_problem_never_an_exception(max_regress):
    # On a host with the cores for it every gate runs, the sweep speedup too.
    full = copy.deepcopy(BASELINE)
    full["sweep"].update(cpus=8, jobs=4, parallel_speedup=3.0)
    assert harness.compare(BASELINE, full, max_regress=max_regress) == []
    leaves = list(_leaves(full))
    assert READ <= set(leaves)
    for leaf in leaves:
        current = copy.deepcopy(full)
        node, key = _node(current, leaf)
        del node[key]
        problems = harness.compare(BASELINE, current, max_regress=max_regress)
        if leaf in READ:
            assert any(
                p.endswith(f": {leaf} missing from current report") for p in problems
            ), (leaf, problems)
        else:
            assert problems == [], (leaf, problems)
