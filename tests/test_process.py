"""The command line as a process: ``python3 -m demeterlint.cli`` in a child.

Each run's exit code, stdout bytes and stderr bytes must equal what
``main`` gives for the same argv in-process, whatever the mode, the format
or the size of the report.  Standard output that cannot be written is one
``E-OUTPUT`` line and exit 2.
"""

import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from demeterlint.cli import main
from demeterlint.presets import STACK

from conftest import OBJECT_STUB, load_case

SRC = str(Path(importlib.util.find_spec("demeterlint").origin).parents[1])


#: An embedder's process: ``main`` under the interpreter's usual exit.
SYS_EXIT_MAIN = ("-c", "import sys; from demeterlint.cli import main; sys.exit(main(sys.argv[1:]))")


def child(
    argv: list[str], environ=os.environ, command=("-m", "demeterlint.cli"), **kwargs
) -> subprocess.CompletedProcess:
    """Run the command line in a fresh interpreter that imports this
    package from source, with ``environ`` as its environment otherwise."""
    path = environ.get("PYTHONPATH")
    env = dict(environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *command, *argv],
        stderr=subprocess.PIPE, env=env, timeout=120, **kwargs,
    )


def in_process(argv: list[str], capfdbinary) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``main(argv)`` in this process; a
    ``SystemExit`` gives its code, as the interpreter would."""
    capfdbinary.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    got = capfdbinary.readouterr()
    return code, got.out, got.err


def assert_same(argv: list[str], capfdbinary) -> tuple[int, bytes, bytes]:
    expected = in_process(argv, capfdbinary)
    proc = child(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    return expected


def listing3_argv(*extra: str) -> list[str]:
    case = load_case("listing3")
    return (
        case.source_args
        + [a for p in case.stub_args for a in ("--stubs", p)]
        + [a for p in STACK for a in ("--config", str(p))]
        + list(extra)
    )


def remaining_site(capfdbinary) -> str:
    _, out, _ = in_process(listing3_argv("--format", "json"), capfdbinary)
    return next(v["site"] for v in json.loads(out)["verdicts"] if v["outcome"] == "remaining")


def many_violations(n: int) -> str:
    """One class of n methods, each with one chain violation."""
    methods = "".join(f"  void m{i}(B b) {{ b.c().f(); }}\n" for i in range(n))
    return (
        "package p;\n"
        "class C { void f() { } }\n"
        "class B { C c() { return null; } }\n"
        f"class A {{\n{methods}}}\n"
    )


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    """argparse wraps usage text to the terminal's width; the child's
    stdout is a pipe, so both sides read the width from COLUMNS."""
    monkeypatch.setenv("COLUMNS", "80")


class TestSameAsInProcess:
    @pytest.mark.parametrize("fmt", ["json", "text", "table"])
    @pytest.mark.parametrize("mode", ["analyze", "explain", "stats"])
    def test_listing3_under_the_stack(self, mode, fmt, capfdbinary):
        extra = ["--mode", mode, "--format", fmt]
        if mode == "explain":
            extra += ["--site", remaining_site(capfdbinary)]
        code, out, err = assert_same(listing3_argv(*extra), capfdbinary)
        assert code == {"analyze": 1, "explain": 0, "stats": 0}[mode]
        assert out and err.startswith(b"W-CONFIG: ")

    def test_parse_error(self, tmp_path, capfdbinary):
        src = tmp_path / "A.java"
        src.write_text("class A { void m( }")
        code, out, err = assert_same([str(src)], capfdbinary)
        assert (code, out) == (2, b"")
        assert err.startswith(b"E-PARSE") and err.count(b"\n") == 1

    @pytest.mark.parametrize("threshold, expected", [("2", 0), ("1", 1)])
    def test_fail_threshold(self, threshold, expected, capfdbinary):
        argv = listing3_argv("--fail-threshold", threshold)
        assert assert_same(argv, capfdbinary)[0] == expected

    def test_explain_requires_site(self, tmp_path, capfdbinary):
        src = tmp_path / "A.java"
        src.write_text("class A { }")
        code, out, err = assert_same([str(src), "--mode", "explain"], capfdbinary)
        assert (code, out, err) == (2, b"", b"E-CONFIG: --mode explain requires --site\n")

    def test_version(self, capfdbinary):
        code, out, err = assert_same(["--version"], capfdbinary)
        assert (code, err) == (0, b"")
        assert out.startswith(b"demeterlint ")

    @pytest.mark.parametrize("argv", [[], ["A.java", "--format", "xml"]])
    def test_usage_error(self, argv, capfdbinary):
        code, out, err = assert_same(argv, capfdbinary)
        assert (code, out) == (2, b"")
        assert err.startswith(b"usage: demeterlint")

    def test_report_larger_than_a_pipe_buffer(self, tmp_path, capfdbinary):
        src = tmp_path / "A.java"
        src.write_text(many_violations(2500))
        argv = [str(src), "--stubs", str(OBJECT_STUB), "--format", "json"]
        code, out, err = assert_same(argv, capfdbinary)
        assert code == 1 and err == b""
        assert len(out) > 1 << 20
        assert json.loads(out)["totals"]["potential_violations"] == 2500


class TestClosedStdout:
    """Standard output is a pipe whose reader has gone, so the report cannot
    be written; CI must be able to tell that from findings.  Buffered, the
    json report is larger than the buffer and fails at the write, the text
    report at the final flush; unbuffered, both fail at the write."""

    @staticmethod
    def assert_one_output_error(fmt, unbuffered, command=("-m", "demeterlint.cli")):
        environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            environ["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = child(listing3_argv("--format", fmt), environ, command, stdout=write)
        finally:
            os.close(write)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 2
        assert [line for line in lines if not line.startswith("W-CONFIG: ")] == [
            "E-OUTPUT: cannot write standard output: [Errno 32] Broken pipe"
        ]

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_one_output_error(self, fmt, unbuffered):
        self.assert_one_output_error(fmt, unbuffered)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_one_output_error_under_sys_exit_main(self, fmt):
        """``sys.exit(main(argv))``: ``main`` flushes the buffered report
        and reports its failure, and the interpreter's flush at exit finds
        nothing more to write (no ``Exception ignored`` traceback)."""
        self.assert_one_output_error(fmt, False, SYS_EXIT_MAIN)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_in_process_stdout_ends_at_devnull(self, fmt, monkeypatch, capsys):
        """``main`` in this process with ``sys.stdout`` on a broken pipe:
        the json report fails at the write, the text report at ``main``'s
        flush.  Either way the descriptor then points at ``os.devnull``, so
        the next flush, like the interpreter's at exit, succeeds."""
        read, write = os.pipe()
        os.close(read)
        stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(write, "w")))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            code = main(listing3_argv("--format", fmt))
            assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
            stdout.write("after")
            stdout.flush()
        finally:
            stdout.close()
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert [line for line in lines if not line.startswith("W-CONFIG: ")] == [
            "E-OUTPUT: cannot write standard output: [Errno 32] Broken pipe"
        ]
