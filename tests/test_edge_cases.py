"""Edge cases across subsystems: writer options, runtime wildcard queries,
diagnostics rendering, IR meta encoding, CLI validate --all."""

import pytest

from repro.cli import main
from repro.diagnostics import DiagnosticSink, SourceText
from repro.ir import IRModel
from repro.model import from_document
from repro.runtime import query_all, xpdl_init_from_model
from repro.units import Quantity
from repro.xpdlxml import XmlWriter, element, parse_xml


def model(text: str):
    return from_document(parse_xml(text))


class TestWriterOptions:
    def test_custom_indent(self):
        e = element("a", children=[element("b")])
        out = XmlWriter(indent="    ").write_element(e)
        assert "\n    <b />" in out

    def test_max_line_controls_wrapping(self):
        e = element("x", {"alpha": "1", "beta": "2", "gamma": "3"})
        wide = XmlWriter(max_line=200).write_element(e)
        narrow = XmlWriter(max_line=10).write_element(e)
        assert "\n" not in wide
        assert "\n" in narrow
        # Both parse back identically.
        assert (
            dict(parse_xml(wide).root.attr_items())
            == dict(parse_xml(narrow).root.attr_items())
        )


class TestRuntimeWildcards:
    @pytest.fixture()
    def ctx(self):
        return xpdl_init_from_model(
            IRModel.from_model(
                model(
                    "<system id='s'><node id='n'>"
                    "<cpu id='c'/><device id='d'/></node></system>"
                )
            )
        )

    def test_star_segment(self, ctx):
        kinds = {h.kind for h in query_all(ctx, "node/*")}
        assert kinds == {"cpu", "device"}

    def test_star_with_predicate(self, ctx):
        hits = query_all(ctx, "node/*[@id='d']")
        assert [h.kind for h in hits] == ["device"]

    def test_descendant_star(self, ctx):
        assert len(query_all(ctx, "//*")) == 3  # node, cpu, device


class TestDiagnosticsRendering:
    def test_sink_render_includes_snippets(self):
        sink = DiagnosticSink()
        src = SourceText("f.xpdl", '<cpu name="X" frequency="fast"/>')
        sink.add_source(src)
        sink.error("T1", "bad frequency", src.span(14, 30))
        out = sink.render()
        assert "bad frequency" in out
        assert "^" in out  # caret line present

    def test_render_without_snippets(self):
        sink = DiagnosticSink()
        src = SourceText("f.xpdl", "<cpu/>")
        sink.add_source(src)
        sink.warning("T2", "meh", src.span(0, 4))
        out = sink.render(with_snippets=False)
        assert "meh" in out and "^" not in out


class TestIrMeta:
    def test_non_ascii_meta_roundtrip(self):
        m = model("<system id='s'/>")
        ir = IRModel.from_model(m, {"site": "Linköping", "note": "π≈3.14"})
        ir2 = IRModel.from_bytes(ir.to_bytes())
        assert ir2.meta["site"] == "Linköping"
        assert ir2.meta["note"] == "π≈3.14"

    def test_non_ascii_attrs_roundtrip(self):
        m = model("<system id='s'/>")
        m.attrs["vendor"] = "Škoda™"
        ir2 = IRModel.from_bytes(IRModel.from_model(m).to_bytes())
        assert ir2.root.attrs["vendor"] == "Škoda™"


class TestQuantityFormatting:
    def test_dimensionless_format(self):
        assert Quantity.dimensionless(42).format() == "42"

    def test_format_precision(self):
        q = Quantity.of(1.23456789, "GHz")
        assert q.format("GHz", precision=3) == "1.23 GHz"

    def test_weird_dimension_str_fallback(self):
        q = Quantity.of(2, "W") * Quantity.of(2, "W")
        assert "[" in str(q)  # algebraic fallback rendering


class TestValidateAll:
    def test_validate_all_clean(self, capsys):
        code = main(["validate", "--all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "liu_gpu_server:" in out
        assert "x86_base_isa:" in out
        assert "error(s)" in out

    def test_validate_requires_target(self, capsys):
        code = main(["validate"])
        assert code == 2

    def test_validate_all_catches_bad_descriptor(self, capsys, tmp_path):
        (tmp_path / "bad.xpdl").write_text(
            "<cache name='Oops'/>"  # missing required size
        )
        code = main(["-I", str(tmp_path), "validate", "--all"])
        assert code == 1


class TestHostileDescriptorsCli:
    """Character references and nesting depth end in diagnostics, never tracebacks."""

    @staticmethod
    def _deep_cpu(tmp_path, levels: int) -> None:
        """A ``<cpu>`` nesting ``levels`` elements deep, and a system using it."""
        (tmp_path / "deep_cpu.xpdl").write_text(
            '<cpu name="DeepChip">' + "<group>" * (levels - 1)
            + "</group>" * (levels - 1) + "</cpu>\n"
        )
        (tmp_path / "deep_sys.xpdl").write_text(
            '<system id="deepsys"><socket><cpu id="c0" type="DeepChip"/></socket></system>\n'
        )

    def test_256_levels_validate_compose_and_doctor_clean(self, capsys, tmp_path):
        self._deep_cpu(tmp_path, 256)
        assert main(["-I", str(tmp_path), "validate", "DeepChip"]) == 0
        out_file = tmp_path / "deep.xir"
        assert main(["-I", str(tmp_path), "compose", "deepsys", "-o", str(out_file)]) == 0
        assert out_file.exists()
        capsys.readouterr()
        assert main(["-I", str(tmp_path), "doctor"]) == 0
        assert "doctor: 0 error(s)" in capsys.readouterr().out

    def test_600_levels_are_xml0033_for_validate_and_doctor(self, capsys, tmp_path):
        self._deep_cpu(tmp_path, 600)
        assert main(["-I", str(tmp_path), "validate", "DeepChip"]) == 1
        captured = capsys.readouterr()
        assert "XML0033" in captured.err
        assert "Traceback" not in captured.err
        assert main(["-I", str(tmp_path), "doctor"]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    def test_compose_reports_a_surrogate_reference(self, capsys, tmp_path):
        (tmp_path / "sur.xpdl").write_text(
            '<system id="sursys"><node id="n&#xD800;1"/></system>\n'
        )
        code = main(["-I", str(tmp_path), "compose", "sursys", "-o", str(tmp_path / "s.xir")])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad character reference &#xD800; [XML0011]" in captured.err
        assert "Traceback" not in captured.err
