#!/usr/bin/env python3
"""Memory at each phase boundary of one ``cli.run`` pass.

Run from the repository root::

    python3 scripts/memory_phases.py SOURCES... [--stubs S] [--config C] [--top N]

The phases are the functions that the benchmark's tracer wraps, read from
``TARGETS`` in ``bench/spans.py`` (that file is only read).  Those called
once per unit, executable or probe (``PER_ITEM``) are left unwrapped: the
phases around them bracket them.  At the entry and the exit of every other
one, the script prints

* the resident set size and its peak so far (``VmRSS`` and ``VmHWM`` of
  ``/proc/self/status``; where that file is missing, only the peak, from
  ``ru_maxrss``), in MB;
* the memory tracemalloc traces now and its peak since the last boundary;
* the N source lines holding the most traced memory, with their block
  counts.

tracemalloc's own bookkeeping adds to the resident size, so ``--top 0``
turns it off for resident sizes that an untraced pass would show.  The pass
writes its report (json) nowhere; the script prints the exit code and the
report's size at the end and exits with the pass's code.  ``hashlib`` is
imported before the pass, as a long-lived process has it.  ``src`` is
byte-compiled first, as ``bench/run.py`` does, in a child process, so that
compiling the modules counts towards no peak here.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import io
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Targets called once per unit, executable or ablation probe.
PER_ITEM = {"lexer.tokenize", "parser.parse_unit", "demeter.detect", "adapt.effective"}


def bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def resident_mb() -> tuple[float | None, float]:
    """The resident set size now (None where unknown) and its peak, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
        return int(fields["VmRSS"].split()[0]) / 1024, int(fields["VmHWM"].split()[0]) / 1024
    except (OSError, KeyError, ValueError):
        import resource  # ru_maxrss is in kB on Linux

        return None, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Phases:
    """Prints a memory line, and the top traced lines, at each boundary."""

    def __init__(self, top: int, out) -> None:
        self.top = top
        self.out = out
        self.depth = 0
        self.skip = [
            tracemalloc.Filter(False, tracemalloc.__file__), tracemalloc.Filter(False, __file__)
        ]

    def report(self, event: str, name: str) -> None:
        rss, peak = resident_mb()
        shown = "    n/a" if rss is None else f"{rss:7.1f}"
        line = f"{'  ' * self.depth}{event} {name}: rss {shown} MB, peak {peak:7.1f} MB"
        if self.top:
            now, traced_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            line += f", traced {now / 2**20:.1f} MB (peak since last {traced_peak / 2**20:.1f} MB)"
        print(line, file=self.out)
        if self.top:
            stats = tracemalloc.take_snapshot().filter_traces(self.skip).statistics("lineno")
            for stat in stats[: self.top]:
                frame = stat.traceback[0]
                print(
                    f"{'  ' * self.depth}    {stat.size / 2**20:7.2f} MB {stat.count:9,d} blocks"
                    f"  {frame.filename}:{frame.lineno}",
                    file=self.out,
                )

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.report("enter", name)
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                self.report("exit", name)

        return wrapper

    def install(self) -> None:
        """Wrap every target but ``PER_ITEM``, the way the benchmark's tracer
        does: a module-level function in every module that imported it."""
        spans = bench_spans()
        for module_name, attr, name in spans.TARGETS:
            if name in PER_ITEM:
                continue
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(original, name)
            if path:
                setattr(owner, leaf, wrapper)
            else:
                spans.Tracer._rebind(original, wrapper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs="+", type=Path)
    parser.add_argument("--stubs", action="append", default=[], type=Path)
    parser.add_argument("--config", action="append", default=[], type=Path)
    parser.add_argument(
        "--top", type=int, default=5, help="traced lines per boundary; 0 turns tracemalloc off"
    )
    args = parser.parse_args(argv)

    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    try:
        import demeterlint  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))
    from demeterlint import cli

    # The json writer hashes the inputs, and the first import of hashlib
    # loads OpenSSL, megabytes of resident memory.  A process that serves
    # many passes (``bench/probe.py serve``) has it loaded before its first
    # pass, so it is loaded here too, not counted at ``report.render``.
    import hashlib  # noqa: F401

    phases = Phases(args.top, sys.stdout)
    phases.install()
    if args.top:
        tracemalloc.start()
    options = cli.RunOptions(
        source_paths=tuple(args.sources),
        stub_paths=tuple(args.stubs),
        config_paths=tuple(args.config),
        format="json",
    )
    report = io.BytesIO()
    code = cli.run(options, report, sys.stderr)
    print(f"exit {code}, report {len(report.getvalue()):,d} bytes")
    return code


if __name__ == "__main__":
    sys.exit(main())
