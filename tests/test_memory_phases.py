"""Smoke test of ``scripts/memory_phases.py`` on one corpus listing."""

import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

from demeterlint import cli
from demeterlint.presets import STACK

from conftest import load_case

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "memory_phases.py"

#: The phases that ``cli.run`` enters after loading each stub document,
#: in order.
PHASES = [
    "adapt.load_config",
    "binder.build_type_table",
    "binder.bind_and_extract",
    "demeter.base_friend_sets",
    "adapt.classify",
    "report.build_report",
    "report.render",
]

BOUNDARY = re.compile(
    r"^( *)(enter|exit) ([\w.]+): rss +([\d.]+) MB, peak +([\d.]+) MB(, traced .*)?$"
)


def _argv(case, top: int) -> list[str]:
    argv = [sys.executable, str(SCRIPT), *case.source_args, "--top", str(top)]
    for p in case.stub_args:
        argv += ["--stubs", p]
    for p in STACK:
        argv += ["--config", str(p)]
    return argv


def _report_bytes(case) -> int:
    out = io.BytesIO()
    options = cli.RunOptions(
        source_paths=tuple(case.java_files),
        stub_paths=tuple(case.stub_files),
        config_paths=tuple(STACK),
        format="json",
    )
    cli.run(options, out, io.StringIO())
    return len(out.getvalue())


@pytest.mark.parametrize("top", [2, 0])
def test_prints_every_phase_boundary(top):
    case = load_case("listing3")
    proc = subprocess.run(_argv(case, top), capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr

    lines = proc.stdout.splitlines()
    boundaries = [m.groups() for m in map(BOUNDARY.match, lines) if m]
    assert [(event, name) for _, event, name, *_ in boundaries] == [
        ("enter", "cli.run"),
        *(
            (event, name)
            for name in ["codemodel.load_stubs"] * len(case.stub_files) + PHASES
            for event in ("enter", "exit")
        ),
        ("exit", "cli.run"),
    ]
    for indent, _, name, rss, peak, traced in boundaries:
        assert len(indent) == (0 if name == "cli.run" else 2)
        assert 0 < float(rss) <= float(peak)
        assert (traced is not None) == bool(top)

    # Each boundary is followed by at most ``top`` traced lines, and nothing
    # else is printed but the closing line.
    others = [line for line in lines[:-1] if not BOUNDARY.match(line)]
    assert len(others) <= top * len(boundaries)
    assert all(re.match(r"^ +[\d.]+ MB +[\d,]+ blocks  \S", line) for line in others)
    assert lines[-1] == f"exit {proc.returncode}, report {_report_bytes(case):,d} bytes"
