"""Store the brute-force oracle's verdict digest for the synthetic workloads.

Runs ``tests/bruteforce.py::oracle_verdicts`` over each synthetic workload at
the given seeds and writes ``bench/data/reference.json``.  At seed 0 the
oracle needs about five minutes on one 2.1 GHz core, most of it on
synth-generic and rule-heavy, which is why its result is stored rather than
recomputed on every benchmark run.  Run from the repository root::

    PYTHONPATH=src python3 bench/make_reference.py --seeds 0
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.UNITS))
    parser.add_argument("--work", type=Path, default=Path(".bench_work"))
    args = parser.parse_args()
    bf = check._bruteforce()
    reference = json.loads(check.REFERENCE.read_text()) if check.REFERENCE.exists() else {}
    for workload in args.workloads:
        for seed in args.seeds:
            start = time.perf_counter()
            (call,), inputs = workloads.materialize(workload, seed, args.work / f"{workload}-{seed}")
            executables, table, config = check.front(call)
            verdicts = bf.oracle_verdicts(executables, table, config)
            reference.setdefault(workload, {})[str(seed)] = {
                "inputs": inputs,
                "verdicts": check.verdict_digest(verdicts),
                "types": sum(1 for d in table if d.name.startswith("rp")),
                "executables": len(executables),
                "accesses": sum(len(ex.body_accesses) for ex in executables),
                "potential_violations": len(verdicts),
                "remaining": sum(1 for v in verdicts if v["outcome"] == "remaining"),
            }
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.0f} s", flush=True)
    check.REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    check.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
