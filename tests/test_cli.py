"""Tests for the xpdl CLI toolchain."""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.modellib import data_dir


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_corpus(self, capsys):
        code, out, _err = run_cli(capsys, "list")
        assert code == 0
        assert "liu_gpu_server" in out
        assert "Nvidia_K20c" in out


class TestValidate:
    def test_clean_descriptor(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "ShaveL2")
        assert code == 0
        assert "0 error(s)" in out

    def test_placeholders_reported(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "pcie3")
        assert code == 0
        assert "4 placeholder(s)" in out

    def test_unknown_identifier(self, capsys):
        code, _out, err = run_cli(capsys, "validate", "ghost")
        assert code == 2
        assert "ghost" in err


class TestComposeInfoQuery:
    def test_pipeline(self, capsys, tmp_path):
        out_file = str(tmp_path / "liu.xir")
        code, out, _ = run_cli(capsys, "compose", "liu_gpu_server", "-o", out_file)
        assert code == 0
        assert os.path.exists(out_file)
        assert "composed liu_gpu_server" in out

        code, out, _ = run_cli(capsys, "info", out_file)
        assert code == 0
        assert "cores:           2500" in out
        assert "cuda devices:    1" in out

        code, out, _ = run_cli(
            capsys, "query", out_file, "//device[@id='gpu1']"
        )
        assert code == 0
        assert 'compute_capability="3.5"' in out

    def test_filter_strips_build_flags(self, capsys, tmp_path):
        out_file = str(tmp_path / "m.xir")
        run_cli(capsys, "compose", "liu_gpu_server", "-o", out_file)
        from repro.ir import IRModel

        ir = IRModel.load(out_file)
        assert not any("cflags" in n.attrs for n in ir.nodes)

    def test_keep_all(self, capsys, tmp_path):
        out_file = str(tmp_path / "m.xir")
        run_cli(capsys, "compose", "liu_gpu_server", "-o", out_file, "--keep-all")
        from repro.ir import IRModel

        ir = IRModel.load(out_file)
        assert any("cflags" in n.attrs for n in ir.nodes)


class TestComposeOutput:
    def test_errors_write_no_model(self, capsys, tmp_path):
        lib = tmp_path / "lib"
        lib.mkdir()
        (lib / "badchip.xpdl").write_text('<cpu name="BadChip">&bogus;<core/></cpu>')
        (lib / "badsys.xpdl").write_text(
            '<system id="badsys"><cpu id="c0" type="BadChip"/></system>'
        )
        out_file = tmp_path / "bad.xir"
        code, out, err = run_cli(
            capsys, "-I", str(lib), "compose", "badsys", "-o", str(out_file)
        )
        assert code == 1
        assert "[XML0012]" in err
        assert "composed" not in out
        assert not out_file.exists()

    def test_clean_compose_writes_the_same_bytes(self, capsys, tmp_path):
        out_file = tmp_path / "liu.xir"
        code, out, _ = run_cli(capsys, "compose", "liu_gpu_server", "-o", str(out_file))
        assert code == 0
        assert out == (
            f"composed liu_gpu_server: 2694 elements, 19 descriptors -> {out_file}\n"
        )
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "546e322b6ed41cf294cd41e626b15656384d6216ca7d78faedf94c4d721b9432"
        )


class TestBenchgen:
    def test_generates_sources_and_script(self, capsys, tmp_path):
        d = str(tmp_path / "mb")
        code, out, _ = run_cli(capsys, "benchgen", "mb_x86_base_1", "-d", d)
        assert code == 0
        files = os.listdir(d)
        assert "fadd.c" in files
        assert "mb_markers.c" in files
        assert "mbscript.sh" in files
        script = open(os.path.join(d, "mbscript.sh")).read()
        assert script.startswith("#!/bin/sh")
        assert os.access(os.path.join(d, "mbscript.sh"), os.X_OK)

    def test_not_a_suite(self, capsys):
        code, _out, err = run_cli(capsys, "benchgen", "ShaveL2", "-d", "/tmp/x")
        assert code == 2


class TestBootstrap:
    def test_bootstrap_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "bootstrap", "liu_gpu_server", "-r", "2", "--seed", "1"
        )
        assert code == 0
        assert "fmul" in out
        assert "bootstrapped" in out


class TestCodegen:
    def test_cpp_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "codegen-cpp")
        assert code == 0
        assert "class Cpu" in out

    def test_py_to_file(self, capsys, tmp_path):
        f = str(tmp_path / "api.py")
        code, _out, _ = run_cli(capsys, "codegen-py", "-o", f)
        assert code == 0
        compile(open(f).read(), f, "exec")

    def test_uml_schema(self, capsys):
        code, out, _ = run_cli(capsys, "uml")
        assert code == 0
        assert "@startuml" in out

    def test_uml_model(self, capsys):
        code, out, _ = run_cli(capsys, "uml", "--model", "myriad_server")
        assert code == 0
        assert "myriad_server" in out

    def test_schema_export(self, capsys, tmp_path):
        f = str(tmp_path / "xpdl_schema.xml")
        code, _out, _ = run_cli(capsys, "schema", "-o", f)
        assert code == 0
        from repro.schema import schema_from_xml

        s = schema_from_xml(open(f).read())
        assert "cpu" in s.tags()


class TestDiscoverAndPdl:
    def test_discover_canned(self, capsys, tmp_path):
        d = str(tmp_path / "disc")
        code, out, _ = run_cli(capsys, "discover", "-d", d, "--canned")
        assert code == 0
        assert os.path.isdir(os.path.join(d, "cpu"))
        assert os.path.isdir(os.path.join(d, "system"))

    def test_to_pdl(self, capsys):
        code, out, _ = run_cli(capsys, "to-pdl", "liu_gpu_server")
        assert code == 0
        assert "<platform" in out
        assert 'role="Master"' in out

    def test_include_path(self, capsys, tmp_path):
        (tmp_path / "extra.xpdl").write_text("<cpu name='ExtraChip'/>")
        code, out, _ = run_cli(capsys, "-I", str(tmp_path), "list")
        assert code == 0
        assert "ExtraChip" in out


class TestRepoResilience:
    """xpdl repo stats|mirror|check and the --simulate-remote/--fault flags."""

    def test_repo_stats_plain(self, capsys):
        code, out, _ = run_cli(capsys, "repo", "stats")
        assert code == 0
        assert "descriptors:" in out
        assert "file:" in out  # local search-path store listed

    def test_repo_stats_with_faults_shows_layers_and_counters(
        self, capsys, tmp_path
    ):
        code, out, _ = run_cli(
            capsys,
            "--fault",
            "fail:1",
            "--mirror-dir",
            str(tmp_path / "mirror"),
            "repo",
            "stats",
        )
        assert code == 0
        for layer in ("cache(", "mirror(", "breaker(", "retry("):
            assert layer in out
        assert "repo.fetch.transient" in out
        assert "repo.fetch.retries" in out

    def test_repo_mirror_then_dead_remote_composes(self, capsys, tmp_path):
        """Warm the mirror, kill the remote: compose still succeeds, with a
        WARNING — the dead-remote acceptance criterion."""
        mirror = str(tmp_path / "mirror")
        code, out, _ = run_cli(
            capsys, "--simulate-remote", "--mirror-dir", mirror, "repo", "mirror"
        )
        assert code == 0
        assert "descriptor(s)" in out

        out_file = str(tmp_path / "liu.xir")
        # With the remote dead, the warm mirror answers every fetch.
        code, out, err = run_cli(
            capsys, "--fault", "dead", "--mirror-dir", mirror, "repo", "check"
        )
        assert code == 0, err

        code, out, err = run_cli(
            capsys,
            "--fault",
            "dead",
            "--mirror-dir",
            mirror,
            "compose",
            "liu_gpu_server",
            "-o",
            out_file,
        )
        assert code == 0, err
        assert os.path.exists(out_file)
        assert "XPDL0204" in err  # mirror degradation surfaced, loudly
        clean_file = str(tmp_path / "clean.xir")
        code, _, _ = run_cli(capsys, "compose", "liu_gpu_server", "-o", clean_file)
        assert code == 0
        with open(out_file, "rb") as f1, open(clean_file, "rb") as f2:
            assert f1.read() == f2.read()

    def test_repo_mirror_without_mirror_layer_fails(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "--simulate-remote", "--no-mirror", "repo", "mirror"
        )
        assert code == 2
        assert "no offline mirror" in err

    def test_repo_check_clean(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "--simulate-remote",
            "--mirror-dir",
            str(tmp_path / "mirror"),
            "repo",
            "check",
        )
        assert code == 0
        assert "0 transient failure(s), 0 missing" in out

    def test_repo_check_dead_cold_mirror_exits_nonzero(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "--fault",
            "dead",
            "--mirror-dir",
            str(tmp_path / "mirror"),
            "repo",
            "check",
        )
        assert code == 1
        assert "XPDL0202" in err  # unreachable store named while indexing

    def test_fault_injected_compose_matches_clean_output(self, capsys, tmp_path):
        """fail-twice-then-succeed on every path: byte-identical IR."""
        clean = str(tmp_path / "clean.xir")
        faulty = str(tmp_path / "faulty.xir")
        code, _, _ = run_cli(capsys, "compose", "myriad_server", "-o", clean)
        assert code == 0
        code, _, err = run_cli(
            capsys,
            "--fault",
            "fail:2",
            "--retry-attempts",
            "3",
            "--mirror-dir",
            str(tmp_path / "mirror"),
            "compose",
            "myriad_server",
            "-o",
            faulty,
        )
        assert code == 0, err
        with open(clean, "rb") as f1, open(faulty, "rb") as f2:
            assert f1.read() == f2.read()

    def test_fault_injected_parallel_build_matches_clean(self, capsys, tmp_path):
        """Every path fails twice; the pool workers get the fault plan,
        retry through it and emit the clean build's IR."""
        reports = {}
        for name, flags in (
            ("clean", []),
            ("fault", ["--fault", "fail:2", "--retry-attempts", "3"]),
        ):
            report = tmp_path / f"{name}.json"
            code, _, err = run_cli(
                capsys,
                *flags,
                "--mirror-dir",
                str(tmp_path / "mirror"),
                "build",
                "--jobs",
                "2",
                "--no-cache",
                "--json",
                str(report),
            )
            assert code == 0, err
            reports[name] = json.loads(report.read_text())
        clean, fault = reports["clean"], reports["fault"]
        assert clean["ok"] and fault["ok"]
        assert len(fault["shards"]) == 2
        assert {b["identifier"]: b["ir_sha256"] for b in fault["builds"]} == {
            b["identifier"]: b["ir_sha256"] for b in clean["builds"]
        }
        assert not [d for d in fault["diagnostics"] if "error:" in d]

    def test_doctor_clean_through_fault_schedule(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "--fault",
            "fail:2",
            "--retry-attempts",
            "3",
            "--mirror-dir",
            str(tmp_path / "mirror"),
            "doctor",
        )
        assert code == 0, err

    def test_bad_fault_spec_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--fault", "bogus", "repo", "stats")
        assert code == 2
        assert "bad fault schedule" in err


def _wrote_note(out: str, written: str) -> str:
    return f"wrote {out}"


def _digest_note(out: str, written: str) -> str:
    digest = hashlib.sha256(written.encode("utf-8")).hexdigest()
    return f"wrote {out} [{digest[:12]}]"


def _export_note(out: str, written: str) -> str:
    count = sum(
        name.endswith(".xpdl")
        for _dir, _subdirs, names in os.walk(data_dir())
        for name in names
    )
    return f"exported {count} descriptor(s) -> {out}"


#: The commands that write their text to ``-o FILE`` or print it: argv,
#: the note printed with ``-o``, and whether stdout ends the text with
#: one more newline than the file.
WRITE_OR_PRINT = [
    pytest.param(["doctor", "--format", "json"], _wrote_note, False, id="doctor"),
    pytest.param(["doctor"], _wrote_note, False, id="doctor-text"),
    pytest.param(
        ["fleet", "--model", "liu_gpu_server", "--intervals", "6", "--format", "json"],
        _digest_note,
        False,
        id="fleet",
    ),
    pytest.param(
        ["fleet", "sweep", "--model", "liu_gpu_server", "--intervals", "4"]
        + ["--jobs", "1", "--no-cache", "--format", "json"],
        _digest_note,
        False,
        id="fleet-sweep",
    ),
    pytest.param(["export", data_dir()], _export_note, False, id="export"),
    pytest.param(["codegen-cpp"], _wrote_note, True, id="codegen-cpp"),
    pytest.param(["codegen-py"], _wrote_note, True, id="codegen-py"),
    pytest.param(["schema"], _wrote_note, True, id="schema"),
    pytest.param(["to-json", "liu_gpu_server"], _wrote_note, True, id="to-json"),
]


class TestWriteOrPrint:
    @pytest.mark.parametrize("argv,note,newline", WRITE_OR_PRINT)
    def test_file_holds_what_stdout_shows(
        self, capsys, tmp_path, argv, note, newline
    ):
        code, printed, err = run_cli(capsys, *argv)
        assert code == 0, err
        out = str(tmp_path / "out")
        code, noted, err = run_cli(capsys, *argv, "-o", out)
        assert code == 0, err
        with open(out, encoding="utf-8") as fh:
            written = fh.read()
        assert printed == written + ("\n" if newline else "")
        assert noted == note(out, written) + "\n"
