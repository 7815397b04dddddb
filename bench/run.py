#!/usr/bin/env python3
"""demeterlint benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 bench/run.py --workload synth-raw --seed 0 --seconds 40 --trace 0

Every workload is a closed loop of one client: one operation at a time, each
in a single thread, with the program's default options and ``--format
json``.  The program sees only the generated sources, stubs and configs.
``BENCHMARK.json`` lists synth-raw, rule-heavy and corpus-cli.
synth-generic runs the same way; it is left out of it only because a fourth
workload in the same total time would make each run too short to average
out the machine's drift.

``--trace 0`` measures the end-to-end metrics with no tracing:

* ``setup_s``: median over fresh processes of ``import demeterlint.cli``
  plus ``load_stubs`` and ``load_config``, after interpreter start-up;
* ``analysis_s``: median wall time of one pass of ``cli.run`` over the
  workload in a process that is already set up;
* ``invocation_s.p50`` and ``invocation_s.tail``: wall time of one whole
  ``python3 -m demeterlint.cli`` process, as a per-file pre-commit hook
  runs it; the tail is the highest percentile with at least ten samples
  beyond it.  On corpus-cli there is one process per corpus listing, with
  its fixture's stubs and the 8-layer preset stack.  On the synthetic
  workloads there is one per unit of a seeded sample of INVOKED_UNITS
  units, with the workload's own stubs and rule stack;
* ``peak_rss_mb``: peak resident memory of the analysing process through
  its first pass.

``--trace 1`` alternates untraced passes with passes under the tracer of
``spans.py`` and reports per-layer self times and work counts per pass, the
traced and untraced ``analysis_s``, the tracing overhead, and
``untraced_s``, the part of ``cli.run`` that no span covers.

The machine's speed drifts by tens of percent over tens of seconds, so the
kinds of operation are interleaved over the whole run, each getting its
share of the time, rather than measured one after another.  The run lasts
about ``--seconds`` in all: generating the inputs and checking the outputs
take their time out of it.

Each output is checked against a reference that is not the engine's own
output (see ``check.py``) and for identical bytes from pass to pass.  An
operation, one ``cli.run`` or one process, fails if it raises, prints a
traceback, exits with an unexpected code or gives a wrong output; failures
are counted and the run goes on.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Call  # noqa: E402

WORKLOADS = ("synth-raw", "synth-generic", "rule-heavy", "corpus-cli")
#: Units of a synthetic workload that get their own CLI process.
INVOKED_UNITS = 8
#: A tail percentile needs this many samples beyond it; the minimum number
#: of CLI processes keeps the tail at p75 or above.
TAIL_BEYOND = 10
MIN_INVOCATIONS = 4 * TAIL_BEYOND
MIN_SETUPS = 15
#: Shares of the run's time: (passes, CLI processes, set-up processes) with
#: --trace 0, and (untraced passes, traced passes, set-up processes) with
#: --trace 1.
SHARES = {"corpus-cli": (0.3, 0.62, 0.08)}
DEFAULT_SHARES = (0.67, 0.25, 0.08)
TRACE_SHARES = (0.35, 0.55, 0.1)
#: Shortest stretch of time one kind of operation runs before another.
CHUNK_S = 1.0
CHILD_TIMEOUT = 170
INVOKE_TIMEOUT = 30

#: Per-layer metric -> span whose self time it reports.
SELF_TIMES = {
    "codemodel.load_stubs_s": "codemodel.load_stubs",
    "adapt.load_config_s": "adapt.load_config",
    "lexer.tokenize_s": "lexer.tokenize",
    "parser.parse_unit_s": "parser.parse_unit",
    "binder.build_type_table_s": "binder.build_type_table",
    "binder.bind_and_extract_s": "binder.bind_and_extract",
    "demeter.base_friend_sets_s": "demeter.base_friend_sets",
    "demeter.detect_s": "demeter.detect",
    "codemodel.supertype_closure_s": "codemodel.supertype_closure",
    "adapt.classify_s": "adapt.classify",
    "report.build_report_s": "report.build_report",
    "report.render_s": "report.render",
    "untraced_s": "cli.run",
}
#: Per-layer work count -> span whose wrapper counts it.
COUNTS = {
    "codemodel.stub_types": "codemodel.load_stubs",
    "adapt.rules": "adapt.load_config",
    "lexer.tokens": "lexer.tokenize",
    "parser.units": "parser.parse_unit",
    "binder.types": "binder.build_type_table",
    "binder.executables": "binder.bind_and_extract",
    "binder.accesses": "binder.bind_and_extract",
    "demeter.potential_violations": "demeter.detect",
    "codemodel.supertype_closure_calls": "codemodel.supertype_closure",
    "adapt.effective_calls": "adapt.effective",
    "report.bytes": "report.render",
}


class ChildError(RuntimeError):
    pass


def setup_probe(calls_file: Path, env: dict) -> dict:
    """One fresh process timing its own set-up."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), "setup", str(calls_file)],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise ChildError(f"set-up probe exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Server:
    """An analysing process, set up once, that runs one pass per request."""

    def __init__(self, calls_file: Path, out_dir: Path, env: dict, traced: bool):
        name = "traced" if traced else "untraced"
        self.stderr = open(out_dir / f"{name}.stderr", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), "serve", str(calls_file), str(out_dir)]
            + (["--trace"] if traced else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, env=env,
        )
        self.passes: list[list[dict]] = []

    def _line(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise ChildError(f"analysing process gave no answer; see {self.stderr.name}")
        return line

    def run_pass(self) -> list[dict]:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        ops = json.loads(self._line())
        self.passes.append(ops)
        return ops

    def seconds(self) -> list[float]:
        return [sum(op["seconds"] for op in ops) for ops in self.passes]

    def finish(self) -> dict:
        self.proc.stdin.close()
        final = json.loads(self._line())
        self.proc.wait(timeout=CHILD_TIMEOUT)
        return final

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()


def interleave(activities: list[tuple[float, int, object]], deadline: float, between) -> None:
    """Run (share, minimum count, action) activities until ``deadline``.

    The next activity is always the one furthest below its share of the
    time spent so far.  It runs for at least CHUNK_S, so that only the first
    operation of a chunk pays for caches that another process cooled.  An
    operation starts only if one like it, the last of its activity, would
    end before the deadline, or if its activity is short of its minimum
    count.  ``between`` runs after every chunk; its time is no activity's.
    """
    spent = [0.0] * len(activities)
    count = [0] * len(activities)
    last = [0.0] * len(activities)

    def fits(i: int) -> bool:
        return count[i] < activities[i][1] or time.perf_counter() + last[i] <= deadline

    while True:
        ready = [i for i in range(len(activities)) if fits(i)]
        if not ready:
            return
        i = min(ready, key=lambda j: spent[j] / activities[j][0])
        action = activities[i][2]
        t0 = time.perf_counter()
        while True:
            t = time.perf_counter()
            action()
            count[i] += 1
            last[i] = time.perf_counter() - t
            if time.perf_counter() - t0 >= CHUNK_S or not fits(i):
                break
        spent[i] += time.perf_counter() - t0
        between()


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its rank."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def expected_code(doc: dict) -> int:
    """The CLI contract: exit 1 when candidate true positives exceed 0."""
    return int(any(
        v["outcome"] == "remaining" and v["status"] == "candidate-true-positive"
        for v in doc["verdicts"]
    ))


class Judge:
    """Checks the first output of each call and counts failed operations."""

    def __init__(self, workload: str, seed: int, inputs: str):
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.first: dict[str, tuple[Call, bytes, bool]] = {}
        self.verdicts: dict[str, tuple[str, str, list[str], int | None]] = {}
        self.ops: list[tuple[str, str, int | None, str]] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def learn(self, call: Call, data: bytes, whole: bool) -> None:
        """Keep a call's first output; ``check_new`` checks it."""
        self.first.setdefault("|".join(call.argv()), (call, data, whole))

    def record(self, call: Call, sha: str, code: int | None, error: str) -> None:
        self.ops.append(("|".join(call.argv()), sha, code, error))

    def _check(self, call: Call, data: bytes, whole: bool) -> tuple[list[str], int | None]:
        try:
            doc = json.loads(data)
        except ValueError:
            return [f"{call.name}: output is not a JSON report"], None
        try:
            if self.workload == "corpus-cli":
                problems = check.corpus_problems(call, doc)
            else:
                problems = check.oracle_problems(self.workload, call, doc, self.seed, whole)
                if whole:
                    problems += check.reference_problems(self.workload, self.seed, self.inputs, doc)
            return problems, expected_code(doc)
        except Exception as exc:  # a malformed report must not end the run
            return [f"{call.name}: report could not be checked: {exc!r}"], None

    def check_new(self) -> None:
        """Check the first outputs learned since the last call."""
        for key, (call, data, whole) in self.first.items():
            if key not in self.verdicts:
                problems, code = self._check(call, data, whole)
                self.problems.extend(problems)
                self.verdicts[key] = (call.name, hashlib.sha256(data).hexdigest(), problems, code)

    def finish(self) -> None:
        self.check_new()
        for key, sha, code, error in self.ops:
            # A call whose every operation timed out left no output to check.
            name, want_sha, problems, want_code = self.verdicts.get(key, (key, None, [], None))
            why = ""
            if error:
                why = error.strip().splitlines()[-1]
            elif want_sha is None:
                why = "no output"
            elif code != want_code:
                why = f"exit code {code}, expected {want_code}"
            elif sha != want_sha:
                why = "output bytes differ from the first pass"
            elif problems:
                why = "output differs from the reference"
            self.attempted += 1
            if why:
                self.failed += 1
                if len(self.problems) < 50:
                    self.problems.append(f"{name}: {why}")


def invocation_calls(workload: str, seed: int, calls: list[Call]) -> list[Call]:
    if workload == "corpus-cli":
        return calls
    (whole,) = calls
    units = sorted(p.name for p in Path(whole.sources[0]).iterdir())
    picked = sorted(random.Random(seed).sample(units, INVOKED_UNITS))
    return [
        Call(f"{workload}:{u}", [str(Path(whole.sources[0]) / u / "Prog.java")], whole.stubs, whole.configs)
        for u in picked
    ]


def report_totals(path: Path) -> dict:
    try:
        return json.loads(path.read_bytes())["totals"]
    except (ValueError, KeyError, TypeError):
        return {}


def layer_metrics(traced: Server, trace: dict, untraced: Server, probes: list[dict],
                  calls: int, judge: Judge) -> tuple[dict, list[str]]:
    """Per-layer values: medians over traced passes of per-pass sums."""
    passes = []
    for ops in traced.passes:
        acc: dict[str, dict] = {"self_s": {}, "counts": {}}
        for op in ops:
            run = trace["runs"].get(str(op["index"]), {"self_s": {}, "counts": {}})
            for kind in acc:
                for name, value in run[kind].items():
                    acc[kind][name] = acc[kind].get(name, 0) + value
        passes.append(acc)

    def median_of(kind, name):
        return statistics.median(p[kind].get(name, 0) for p in passes)

    gone = set(trace["missing"])
    values: dict[str, tuple[float, str]] = {}
    missing = []
    for table, kind, unit in ((SELF_TIMES, "self_s", "s"), (COUNTS, "counts", "count")):
        for metric, span in table.items():
            if span in gone:
                missing.append(metric)
            else:
                values[metric] = (median_of(kind, span if kind == "self_s" else metric), unit)
    if "adapt.effective" in gone:
        missing += ["adapt.effective_distinct_ratio", "adapt.ablation_probes_per_verdict"]
    else:
        effective = median_of("counts", "adapt.effective_calls")
        verdicts = median_of("counts", "adapt.verdicts")
        values["adapt.effective_distinct_ratio"] = (
            median_of("counts", "adapt.effective_distinct") / effective if effective else 0.0, "ratio")
        values["adapt.ablation_probes_per_verdict"] = (
            median_of("counts", "adapt.ablation_probes") / verdicts if verdicts else 0.0, "ratio")
    # Each call of a pass is its own process when run as a CLI.
    values["cli.import_s"] = (statistics.median(p["import_s"] for p in probes) * calls, "s")
    for layer in spans.LAYERS:
        values[f"{layer}.errors"] = (trace["errors"].get(layer, 0), "count")
    traced_s = statistics.median(traced.seconds())
    untraced_s = statistics.median(untraced.seconds())
    values["analysis_s.traced"] = (traced_s, "s")
    values["analysis_s.untraced"] = (untraced_s, "s")
    values["tracing_overhead_s"] = (traced_s - untraced_s, "s")
    values["failure_ratio"] = (judge.failed / judge.attempted, "ratio")
    return values, missing


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Generating the inputs and checking the outputs take their time out of
    # the run's, so that a run lasts about --seconds whatever the workload.
    deadline = time.perf_counter() + args.seconds

    if not (ROOT / "src" / "demeterlint" / "cli.py").is_file() or not (ROOT / "tests" / "bruteforce.py").is_file():
        print("bench: src/demeterlint or tests/bruteforce.py is missing; "
              "run from a demeterlint checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Byte-compile first so every timed import reads cached bytecode, as an
    # installed package would.
    compileall.compile_dir("src", quiet=1)

    work = Path(".bench_work") / f"{args.workload}-{args.seed}"
    calls, inputs = workloads.materialize(args.workload, args.seed, work / "inputs")
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    calls_file = work / "calls.json"
    calls_file.write_text(json.dumps([vars(c) for c in calls]), encoding="utf-8")
    judge = Judge(args.workload, args.seed, inputs)
    if workloads.stored_digest(args.workload, args.seed) not in (None, inputs):
        judge.problems.append("the generator gave other bytes than those stored for this seed")

    probes: list[dict] = []
    samples: list[float] = []
    inv_calls = invocation_calls(args.workload, args.seed, calls)

    def probe() -> None:
        probes.append(setup_probe(calls_file, env))

    def run_pass(server: Server) -> None:
        ops = server.run_pass()
        if len(server.passes) == 1:
            for i, call in enumerate(calls):
                judge.learn(call, (out_dir / f"report-{i}.json").read_bytes(), whole=True)
        for op in ops:
            judge.record(calls[op["call"]], op["sha"], op["code"], op["error"])

    def invoke() -> None:
        call = inv_calls[len(samples) % len(inv_calls)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "demeterlint.cli", *call.argv()],
                capture_output=True, env=env, timeout=INVOKE_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            samples.append(time.perf_counter() - start)
            judge.record(call, "", None, "timed out")
            return
        samples.append(time.perf_counter() - start)
        err = proc.stderr.decode("utf-8", "replace")
        judge.learn(call, proc.stdout, whole=False)
        judge.record(call, hashlib.sha256(proc.stdout).hexdigest(), proc.returncode,
                     err if "Traceback" in err else "")

    servers: list[Server] = []
    try:
        if args.trace:
            untraced = Server(calls_file, out_dir, env, traced=False)
            traced = Server(calls_file, out_dir, env, traced=True)
            servers += [untraced, traced]
            share_untraced, share_traced, share_setup = TRACE_SHARES
            interleave([
                (share_untraced, 1, lambda: run_pass(untraced)),
                (share_traced, 1, lambda: run_pass(traced)),
                (share_setup, MIN_SETUPS, probe),
            ], deadline, judge.check_new)
            untraced.finish()
            trace = traced.finish()["trace"]
        else:
            analysis = Server(calls_file, out_dir, env, traced=False)
            servers.append(analysis)
            share_pass, share_invoke, share_setup = SHARES.get(args.workload, DEFAULT_SHARES)
            interleave([
                (share_pass, 2, lambda: run_pass(analysis)),
                (share_invoke, MIN_INVOCATIONS, invoke),
                (share_setup, MIN_SETUPS, probe),
            ], deadline, judge.check_new)
            peak_rss_mb = analysis.finish()["peak_rss_mb"]
    except (ChildError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        for server in servers:
            server.stop()

    judge.finish()
    units = sum(len(list(Path(s).rglob("*.java"))) if Path(s).is_dir() else 1 for c in calls for s in c.sources)
    totals = [report_totals(out_dir / f"report-{i}.json") for i in range(len(calls))]
    print(f"workload {args.workload} seed {args.seed}: {units} units, "
          f"{sum(t.get('accesses', 0) for t in totals)} accesses, "
          f"{sum(t.get('potential_violations', 0) for t in totals)} potential violations, "
          f"{len(calls)} call(s) per pass")
    if args.trace:
        metrics, missing = layer_metrics(traced, trace, untraced, probes, len(calls), judge)
        print(f"  {len(untraced.passes)} untraced and {len(traced.passes)} traced passes, "
              f"{len(probes)} set-up processes")
        for name in missing:
            print(f"  {name:38s} missing: its wrapped function no longer exists")
    else:
        tail_s, tail_rank = tail(samples)
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "analysis_s": (statistics.median(analysis.seconds()), "s"),
            "invocation_s.p50": (statistics.median(samples), "s"),
            "invocation_s.tail": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"  {len(analysis.passes)} passes, {len(probes)} set-up processes, "
              f"{len(samples)} CLI processes (tail = p{tail_rank:.0f})")
        print(f"  {'failure_ratio':38s} {judge.failed / judge.attempted:.4f} "
              f"({judge.failed} of {judge.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6f} {unit}")
    for problem in judge.problems:
        print(f"  FAILED {problem}")
    shutil.rmtree(work / "inputs", ignore_errors=True)
    print(json.dumps({
        "correct": not judge.problems and judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
