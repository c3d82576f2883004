"""End to end over a generated corpus: the ``xpdl`` CLI in subprocesses.

Generate a corpus twice, batch-build it cold and warm, reopen every built
image, doctor the tree and round-trip it through CESDM.  Scale 40 keeps
this affordable in the tier-1 suite; CI's ``scale-smoke`` job runs the
same steps over 1000 descriptors.
"""

from __future__ import annotations

import filecmp
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.obs import Observer, use_observer
from repro.runtime import xpdl_init

pytestmark = pytest.mark.e2e

SEED = 7
SCALE = 40
#: The generator's system count at this seed and scale.
SYSTEMS = 12


def xpdl(cwd, *argv: str) -> str:
    """Run one ``xpdl`` command in ``cwd``; its stdout, or a failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    env.pop("XPDL_MODEL_PATH", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (argv, proc.stderr[-2000:])
    return proc.stdout


def same_tree(a: str, b: str) -> bool:
    """Whether two directory trees hold the same names and bytes."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _match, mismatch, errors = filecmp.cmpfiles(
        a, b, cmp.common_files, shallow=False
    )
    if mismatch or errors:
        return False
    return all(same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A generated corpus and its cold and warm build reports."""
    root = tmp_path_factory.mktemp("scale")
    gen = [
        xpdl(root, "gen", "--seed", str(SEED), "--scale", str(SCALE), "-d", name)
        for name in ("corpus", "corpus2")
    ]
    build = ["-I", "corpus", "build", "--cache-dir", ".scale-cache", "--out-dir", "out"]
    xpdl(root, *build, "--jobs", "2", "--json", "cold.json")
    xpdl(root, *build, "--jobs", "1", "--json", "warm.json")
    reports = {}
    for name in ("cold", "warm"):
        with open(root / f"{name}.json", encoding="utf-8") as fh:
            reports[name] = json.load(fh)
    return root, gen, reports


def test_gen_twice_is_byte_identical(work):
    root, gen, _reports = work
    digests = [
        [line for line in out.splitlines() if line.startswith("sha256 ")]
        for out in gen
    ]
    assert digests[0] and digests[0] == digests[1]
    files = [
        name
        for _dir, _subdirs, names in os.walk(root / "corpus")
        for name in names
        if name.endswith(".xpdl")
    ]
    assert len(files) >= SCALE
    assert same_tree(str(root / "corpus"), str(root / "corpus2"))


def test_warm_build_matches_cold_from_the_cache(work):
    _root, _gen, reports = work
    cold, warm = reports["cold"], reports["warm"]
    assert cold["ok"] and warm["ok"]
    generated = [b for b in cold["builds"] if b["identifier"].startswith("gen_")]
    assert len(generated) == SYSTEMS
    assert [b["ir_sha256"] for b in cold["builds"]] == [
        b["ir_sha256"] for b in warm["builds"]
    ]
    assert warm["hit_rate"] >= 0.9, warm["cache"]


def test_built_images_reopen_without_index_rebuild(work):
    root, _gen, reports = work
    files = sorted(
        os.path.join(root, "out", name)
        for name in os.listdir(root / "out")
        if name.endswith(".xir")
    )
    assert len(files) == len(reports["cold"]["builds"])
    for path in files:
        obs = Observer()
        with use_observer(obs):
            xpdl_init(path)
        assert obs.counters.get("index.rebuilds", 0) == 0, (path, dict(obs.counters))


def test_doctor_is_clean_on_the_generated_tree(work):
    root, _gen, _reports = work
    xpdl(root, "-I", "corpus", "doctor", "--format", "json", "-o", "doctor.json")
    with open(root / "doctor.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["summary"]["errors"] == 0, report["findings"]
    generated = [f for f in report["findings"] if f["subject"].startswith("gen_")]
    assert not generated


def test_cesdm_round_trip_is_a_fixed_point(work):
    root, _gen, _reports = work
    fmt = "yaml" if importlib.util.find_spec("yaml") else "json"
    first, second = f"corpus.{fmt}", f"corpus-rt.{fmt}"
    xpdl(root, "export", "corpus", "--format", fmt, "-o", first)
    xpdl(root, "import", first, "-d", "corpus-rt", "--check")
    xpdl(root, "export", "corpus-rt", "--format", fmt, "-o", second)
    assert filecmp.cmp(root / first, root / second, shallow=False)
    assert same_tree(str(root / "corpus"), str(root / "corpus-rt"))
