"""Unit tests for source spans and the diagnostic sink."""

import pytest

from repro.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Severity,
    SourcePos,
    SourceSpan,
    SourceText,
    XpdlError,
    render_diagnostic,
    render_diagnostics,
)


class TestSourceText:
    def test_pos_first_line(self):
        src = SourceText("f.xpdl", "abc\ndef\n")
        assert src.pos(0) == SourcePos(0, 1, 1)
        assert src.pos(2) == SourcePos(2, 1, 3)

    def test_pos_later_lines(self):
        src = SourceText("f.xpdl", "abc\ndef\nghi")
        assert src.pos(4) == SourcePos(4, 2, 1)
        assert src.pos(8) == SourcePos(8, 3, 1)
        assert src.pos(10) == SourcePos(10, 3, 3)

    def test_pos_clamps_out_of_range(self):
        src = SourceText("f", "ab")
        assert src.pos(99).offset == 2
        assert src.pos(-5).offset == 0

    def test_line_text(self):
        src = SourceText("f", "abc\ndef\nghi")
        assert src.line_text(1) == "abc"
        assert src.line_text(2) == "def"
        assert src.line_text(3) == "ghi"
        assert src.line_text(99) == ""

    def test_snippet_has_caret(self):
        src = SourceText("f", "hello world")
        span = src.span(6, 11)
        snippet = src.snippet(span)
        lines = snippet.split("\n")
        assert lines[0] == "hello world"
        assert lines[1] == "      ^^^^^"

    def test_empty_text(self):
        src = SourceText("f", "")
        assert src.pos(0) == SourcePos(0, 1, 1)


class TestSourceSpan:
    def test_merge(self):
        src = SourceText("f", "abcdef")
        a = src.span(0, 2)
        b = src.span(4, 6)
        merged = a.merge(b)
        assert merged.start.offset == 0
        assert merged.end.offset == 6

    def test_merge_rejects_cross_file(self):
        a = SourceSpan.unknown("a")
        b = SourceSpan.unknown("b")
        with pytest.raises(ValueError):
            a.merge(b)

    def test_str_forms(self):
        src = SourceText("f.xpdl", "abc\ndef")
        assert str(src.span(0, 2)) == "f.xpdl:1:1-3"
        assert str(src.span(1, 1)) == "f.xpdl:1:2"
        assert "1:2-2:2" in str(src.span(1, 5))


class TestDiagnosticSink:
    def test_counts(self):
        sink = DiagnosticSink()
        span = SourceSpan.unknown("f")
        sink.note("X1", "n", span)
        sink.warning("X2", "w", span)
        sink.error("X3", "e", span)
        assert len(sink) == 3
        assert sink.error_count == 1
        assert sink.warning_count == 1
        assert sink.has_errors()

    def test_warnings_as_errors(self):
        sink = DiagnosticSink(warnings_as_errors=True)
        sink.warning("X", "w", SourceSpan.unknown("f"))
        assert sink.error_count == 1

    def test_max_errors_aborts(self):
        sink = DiagnosticSink(max_errors=2)
        span = SourceSpan.unknown("f")
        sink.error("X", "1", span)
        sink.error("X", "2", span)
        with pytest.raises(XpdlError):
            sink.error("X", "3", span)

    def test_raise_if_errors(self):
        sink = DiagnosticSink()
        sink.raise_if_errors()  # no errors: no raise
        sink.error("X", "boom", SourceSpan.unknown("f"))
        with pytest.raises(XpdlError) as exc:
            sink.raise_if_errors()
        assert "boom" in str(exc.value)

    def test_fatal_counts_as_error(self):
        sink = DiagnosticSink()
        sink.fatal("X", "f", SourceSpan.unknown("f"))
        assert sink.has_errors()

    def test_extend(self):
        sink = DiagnosticSink()
        d = Diagnostic(Severity.NOTE, "X", "m", SourceSpan.unknown("f"))
        sink.extend([d, d])
        assert len(sink) == 2

    def test_error_count_equals_a_recount(self):
        span = SourceSpan.unknown("f")
        sink = DiagnosticSink()
        promoted = DiagnosticSink(warnings_as_errors=True)
        for s in (sink, promoted):
            s.note("N", "n", span)
            s.warning("W", "w", span)
            s.error("E", "e", span)
            s.fatal("F", "f", span)
            s.emit_severity(Severity.WARNING, "W", "w2", span)
            s.extend(
                [
                    Diagnostic(Severity.ERROR, "E", "e2", span),
                    Diagnostic(Severity.WARNING, "W", "w3", span),
                    Diagnostic(Severity.NOTE, "N", "n2", span),
                ]
            )
            assert s.error_count == sum(d.is_error() for d in s)
            assert s.error_count == len(s.errors())
        assert sink.error_count == 3
        assert promoted.error_count == 6

    def test_max_errors_raises_on_the_next_error_with_all_attached(self):
        span = SourceSpan.unknown("f")
        sink = DiagnosticSink(max_errors=3)
        for i in range(3):
            sink.error("X", str(i), span)
            sink.warning("W", str(i), span)
        with pytest.raises(XpdlError) as exc:
            sink.error("X", "3", span)
        errors = [d for d in exc.value.diagnostics if d.is_error()]
        assert [d.message for d in errors] == ["0", "1", "2", "3"]
        assert sink.error_count == 4


class TestRendering:
    def test_render_with_snippet(self):
        src = SourceText("f.xpdl", '<cpu name="X">')
        d = Diagnostic(Severity.ERROR, "X1", "bad", src.span(5, 9))
        text = render_diagnostic(d, source=src)
        assert "bad" in text
        assert "^^^^" in text

    def test_render_hints(self):
        d = Diagnostic(
            Severity.WARNING,
            "X1",
            "msg",
            SourceSpan.unknown("f"),
            ("try this",),
        )
        assert "hint: try this" in render_diagnostic(d)

    def test_render_many_sorted_by_position(self):
        src = SourceText("f", "line1\nline2\n")
        d1 = Diagnostic(Severity.ERROR, "A", "later", src.span(6, 7))
        d2 = Diagnostic(Severity.ERROR, "B", "earlier", src.span(0, 1))
        text = render_diagnostics([d1, d2])
        assert text.index("earlier") < text.index("later")

    def test_severity_ordering(self):
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR < Severity.FATAL
        assert str(Severity.ERROR) == "error"


class TestXpdlError:
    def test_carries_diagnostics(self):
        d = Diagnostic(Severity.ERROR, "X", "inner", SourceSpan.unknown("f"))
        err = XpdlError("outer", [d])
        assert "outer" in str(err)
        assert "inner" in str(err)
        assert err.diagnostics == (d,)
