#!/usr/bin/env python3
"""Time two source trees against each other in one process, in turns.

Run as::

    python3 scripts/interleave.py PARENT_SRC CHANGE_SRC --workload W [--seed S] [--rounds N]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``demeterlint`` package.  Each package is imported under a name of its own
(``demeterlint_parent``, ``demeterlint_change``) with ``importlib``; the
package imports itself only relatively, so no file is copied.  The
workload's calls come from ``bench/workloads.py``, which is only read; a
synthetic workload is written to a temporary directory.

The first pass over the calls checks that both sides give the same exit
codes, report bytes (json) and stderr, and the script exits 1 if they do
not.  Then each round runs one ``cli.run`` pass over every call on each
side, the side that goes first flipping from round to round, and the script
prints each side's median pass and the rounds each side won.  Both sides
share one interpreter and one heap, so this measures time, never memory.
What it takes away is the drift between processes that separate runs of
``bench/run.py`` see.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def load_cli(src: Path, name: str):
    """The ``cli`` module of the ``demeterlint`` package under ``src``,
    imported as package ``name``."""
    init = src / "demeterlint" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def one_pass(cli, options: list) -> tuple[float, list[tuple[int, bytes, str]]]:
    """The seconds one ``cli.run`` over every call takes, and each call's
    exit code, report and stderr."""
    results = []
    gc.collect()
    t0 = time.perf_counter()
    for opts in options:
        out, err = io.BytesIO(), io.StringIO()
        code = cli.run(opts, out, err)
        results.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - t0, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the src directory of the parent")
    parser.add_argument("change", type=Path, help="the src directory of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)

    clis = {
        side: load_cli(src.resolve(), f"demeterlint_{side}")
        for side, src in zip(SIDES, (args.parent, args.change))
    }
    # The corpus and preset paths of the calls are relative to the root.
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        calls, _ = bench_workloads().materialize(args.workload, args.seed, Path(tmp) / "inputs")
        options = {
            side: [
                cli.RunOptions(
                    source_paths=tuple(Path(p) for p in c.sources),
                    stub_paths=tuple(Path(p) for p in c.stubs),
                    config_paths=tuple(Path(p) for p in c.configs),
                    format="json",
                )
                for c in calls
            ]
            for side, cli in clis.items()
        }
        first = {side: one_pass(cli, options[side])[1] for side, cli in clis.items()}
        if first["parent"] != first["change"]:
            differ = [
                c.name for c, a, b in zip(calls, first["parent"], first["change"]) if a != b
            ]
            print(f"outputs differ: {', '.join(differ)}", file=sys.stderr)
            return 1
        del first
        seconds: dict[str, list[float]] = {side: [] for side in SIDES}
        wins = dict.fromkeys(SIDES, 0)
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            took = {side: one_pass(clis[side], options[side])[0] for side in order}
            for side in SIDES:
                seconds[side].append(took[side])
            if took["parent"] != took["change"]:
                wins[min(SIDES, key=took.__getitem__)] += 1

    print(
        f"{args.workload} seed {args.seed}: {args.rounds} rounds of {len(calls)} calls per side;"
        " time only, both sides share one heap"
    )
    for side in SIDES:
        median = statistics.median(seconds[side]) if seconds[side] else float("nan")
        print(f"{side}: median {median * 1000:.1f} ms per pass, faster in {wins[side]} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
