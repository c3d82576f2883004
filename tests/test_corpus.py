"""Corpus engine tests: generator determinism, doctor-cleanliness, the
CESDM YAML/JSON bridge's fixed-point round-trips, the PDL reader, and the
scale-exposed batch bugfixes that ride along (BaseException re-raise with
traceback diagnostics, affinity-aware worker sizing)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import (
    CesdmError,
    cesdm_from_files,
    corpus_digest,
    dump_cesdm,
    export_cesdm,
    generate_corpus,
    import_cesdm,
    import_pdl,
    load_cesdm,
)
from repro.corpus.generator import GeneratorConfig
from repro.diagnostics import DiagnosticSink
from repro.modellib import standard_repository
from repro.obs import Observer
from repro.toolchain import ToolchainSession, default_jobs, run_batch

# ---------------------------------------------------------------------------
# generator: determinism
# ---------------------------------------------------------------------------


class TestGeneratorDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9), scale=st.integers(8, 60))
    def test_generate_is_byte_stable(self, seed, scale):
        a = generate_corpus(seed, scale)
        b = generate_corpus(seed, scale)
        assert a.files == b.files
        assert a.digest() == b.digest()

    def test_scale_is_descriptor_count(self):
        for scale in (9, 40, 117):
            corpus = generate_corpus(1, scale)
            assert len(corpus) >= scale
            assert len(corpus.systems) >= 1

    def test_different_seeds_differ(self):
        assert generate_corpus(0, 20).digest() != generate_corpus(1, 20).digest()

    def test_digest_is_stable_across_processes(self):
        """The seeding contract: no hash()/set-order in the emitted bytes."""
        code = (
            "from repro.corpus import generate_corpus;"
            "print(generate_corpus(7, 24).digest())"
        )
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.stdout.strip() == generate_corpus(7, 24).digest()

    def test_repository_layout_and_prefix(self):
        corpus = generate_corpus(3, 30)
        categories = {relpath.split("/", 1)[0] for relpath, _ in corpus.files}
        assert "system" in categories and "cpu" in categories
        for relpath, _content in corpus.files:
            name = os.path.basename(relpath)
            assert name.startswith("gen_"), relpath  # never shadows bundled
            assert relpath.endswith(".xpdl")

    def test_config_knobs(self):
        cfg = GeneratorConfig(seed=5, scale=45, max_nodes=3)
        corpus = generate_corpus(config=cfg)
        assert len(corpus) >= 45
        assert corpus.config.max_nodes == 3


# ---------------------------------------------------------------------------
# generator: every corpus builds and passes the doctor clean
# ---------------------------------------------------------------------------


class TestGeneratedCorpusIsClean:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_doctor_reports_zero_errors(self, tmp_path_factory, seed):
        from repro.service.core import merged_doctor_report

        corpus = generate_corpus(seed, 18)
        root = tmp_path_factory.mktemp(f"corpus{seed}")
        corpus.write_to(root)
        session = ToolchainSession(standard_repository(str(root)))
        merged = merged_doctor_report(session, list(corpus.systems))
        errors = [f for f in merged.findings if f.is_error()]
        assert errors == []
        # No finding at all may point into the generated tree.
        gen_findings = [
            f for f in merged.findings if f.subject.startswith("gen_")
        ]
        assert gen_findings == []

    def test_batch_build_is_byte_identical_across_runs(self, tmp_path):
        corpus = generate_corpus(7, 20)
        corpus.write_to(tmp_path / "corpus")
        repo_dir = str(tmp_path / "corpus")

        def build():
            report = run_batch(
                standard_repository(repo_dir),
                list(corpus.systems),
                jobs=1,
                cache_dir=None,
            )
            assert report.ok
            return [b.ir_sha256 for b in report.builds]

        assert build() == build()

    def test_generated_descriptors_validate(self, tmp_path):
        corpus = generate_corpus(2, 18)
        corpus.write_to(tmp_path / "c")
        session = ToolchainSession(standard_repository(str(tmp_path / "c")))
        for relpath, _ in corpus.files:
            ident = os.path.splitext(os.path.basename(relpath))[0]
            result = session.validate(ident)
            assert result.errors == 0, (ident, session.sink.render())


# ---------------------------------------------------------------------------
# CESDM bridge: import/export fixed point
# ---------------------------------------------------------------------------


class TestCesdmRoundTrip:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10**6), fmt=st.sampled_from(["yaml", "json"]))
    def test_export_import_export_is_fixed_point(self, seed, fmt):
        files = dict(generate_corpus(seed, 16).files)
        doc1 = export_cesdm(files, fmt=fmt)
        files1 = import_cesdm(load_cesdm(doc1))
        assert files1 == files  # import reproduces the originals exactly
        doc2 = export_cesdm(files1, fmt=fmt)
        assert doc1 == doc2  # document-level fixed point
        files2 = import_cesdm(load_cesdm(doc2))
        assert files1 == files2  # file-level fixed point

    def test_reimport_composes_byte_identical_ir(self, tmp_path):
        """import -> compose == re-export -> re-import -> compose."""
        import hashlib

        from repro.composer import Composer
        from repro.ir import IRModel

        corpus = generate_corpus(11, 16)
        doc = load_cesdm(export_cesdm(dict(corpus.files)))

        def ir_sha(files, where):
            root = tmp_path / where
            for relpath, content in sorted(files.items()):
                path = root / relpath
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(content, encoding="utf-8")
            composer = Composer(standard_repository(str(root)))
            composed = composer.compose(corpus.systems[0])
            ir = IRModel.from_model(
                composed.root, {"system": corpus.systems[0]}
            )
            return hashlib.sha256(ir.to_bytes()).hexdigest()

        first = import_cesdm(doc)
        again = import_cesdm(load_cesdm(export_cesdm(first)))
        assert ir_sha(first, "a") == ir_sha(again, "b")

    def test_handwritten_yaml_imports(self):
        doc = load_cesdm(
            """
cesdm: cesdm.platform-library/1.0
entries:
  - kind: memory
    attrs: {name: cesdm_mem, type: DDR4, size: 16, unit: GB}
  - kind: system
    attrs: {id: cesdm_sys}
    elements:
      - kind: memory
        attrs: {id: m0, type: cesdm_mem}
"""
        )
        files = import_cesdm(doc)
        assert sorted(files) == [
            "memory/cesdm_mem.xpdl",
            "system/cesdm_sys.xpdl",
        ]
        assert 'size="16"' in files["memory/cesdm_mem.xpdl"]

    def test_json_detection_and_scalar_coercion(self):
        doc = load_cesdm(
            '{"cesdm": "cesdm.platform-library/1.0", "entries": '
            '[{"kind": "memory", "attrs": {"name": "m", "size": 8.0, '
            '"slices": 2, "endian": "LE"}}]}'
        )
        files = import_cesdm(doc)
        text = files["memory/m.xpdl"]
        assert 'size="8"' in text and 'slices="2"' in text

    def test_category_mapping_follows_repository_layout(self):
        files = dict(generate_corpus(1, 16).files)
        doc = cesdm_from_files(files)
        assert import_cesdm(doc).keys() == files.keys()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("entries: []", "schema tag"),
            ("cesdm: cesdm.platform-library/1.0", "'entries' must be a list"),
            (
                "cesdm: cesdm.other/9.9\nentries: []",
                "unsupported schema",
            ),
            (
                "cesdm: cesdm.platform-library/1.0\nentries: [{attrs: {}}]",
                "non-empty 'kind'",
            ),
            (
                "cesdm: cesdm.platform-library/1.0\n"
                "entries: [{kind: cpu, attrs: {}}]",
                "neither 'name' nor 'id'",
            ),
        ],
    )
    def test_malformed_documents_are_rejected(self, text, match):
        with pytest.raises(CesdmError, match=match):
            import_cesdm(load_cesdm(text))

    def test_duplicate_entries_are_rejected(self):
        doc = load_cesdm(
            "cesdm: cesdm.platform-library/1.0\n"
            "entries:\n"
            "  - {kind: memory, attrs: {name: m}}\n"
            "  - {kind: memory, attrs: {name: m}}\n"
        )
        with pytest.raises(CesdmError, match="duplicate"):
            import_cesdm(doc)

    def test_dump_rejects_unknown_format(self):
        with pytest.raises(CesdmError, match="unknown CESDM format"):
            dump_cesdm(cesdm_from_files({}), fmt="toml")


# ---------------------------------------------------------------------------
# PDL-subset reader
# ---------------------------------------------------------------------------


class TestPdlReader:
    PDL = """<platform name="pdl_plat">
      <pu id="cpu0" role="Master" type="x86_64"/>
      <memoryregion id="mr0" size="16GB"/>
      <interconnect id="ic0" endpoints="cpu0 mr0" bandwidth="10GiB/s"/>
    </platform>"""

    def test_import_lands_in_repository_layout(self):
        files = import_pdl(self.PDL)
        assert sorted(files) == ["system/pdl_plat.xpdl"]
        text = files["system/pdl_plat.xpdl"]
        assert '<system id="pdl_plat">' in text
        assert 'head="cpu0"' in text and 'tail="mr0"' in text

    def test_imported_system_composes(self, tmp_path):
        from repro.composer import Composer

        for relpath, content in import_pdl(self.PDL).items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        composed = Composer(standard_repository(str(tmp_path))).compose(
            "pdl_plat"
        )
        assert not composed.sink.has_errors()


# ---------------------------------------------------------------------------
# corpus digest helper
# ---------------------------------------------------------------------------


def test_corpus_digest_is_order_independent():
    pairs = [("b/x.xpdl", "two"), ("a/y.xpdl", "one")]
    assert corpus_digest(pairs) == corpus_digest(reversed(pairs))
    assert corpus_digest(pairs) != corpus_digest([("a/y.xpdl", "one")])


# ---------------------------------------------------------------------------
# scale-exposed batch bugfixes
# ---------------------------------------------------------------------------


class TestBatchErrorHandling:
    def _failing_session(self, monkeypatch, exc: BaseException):
        from repro.toolchain import session as session_mod

        def boom(self, identifier, **kwargs):
            raise exc

        monkeypatch.setattr(session_mod.ToolchainSession, "emit_ir", boom)

    def test_exception_becomes_diagnostic_with_traceback(self, monkeypatch):
        self._failing_session(monkeypatch, ValueError("exploded"))
        observer = Observer()
        sink = DiagnosticSink()
        report = run_batch(
            standard_repository(),
            ["odroid_xu3"],
            jobs=1,
            cache_dir=None,
            observer=observer,
            sink=sink,
        )
        assert not report.ok
        (build,) = report.builds
        assert build.error == "ValueError: exploded"
        assert report.counters.get("batch.system_errors") == 1
        rendered = sink.render()
        assert "XPDL0404" in rendered
        assert "XPDL0401" not in rendered  # that code is a negative quantity
        # The attached hint carries the worker-side traceback.
        assert any(
            "Traceback (most recent call last)" in hint
            for d in sink.diagnostics
            for hint in d.hints
        )

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        self._failing_session(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_batch(
                standard_repository(),
                ["odroid_xu3"],
                jobs=1,
                cache_dir=None,
            )

    def test_system_exit_propagates(self, monkeypatch):
        self._failing_session(monkeypatch, SystemExit(3))
        with pytest.raises(SystemExit):
            run_batch(
                standard_repository(),
                ["odroid_xu3"],
                jobs=1,
                cache_dir=None,
            )


class TestDefaultJobs:
    def test_positive_and_affinity_aware(self):
        n = default_jobs()
        assert isinstance(n, int) and n >= 1
        if hasattr(os, "sched_getaffinity"):
            assert n == len(os.sched_getaffinity(0))

    def test_fallback_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        n = default_jobs()
        assert n == (os.cpu_count() or 1)
