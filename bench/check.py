"""Correctness references that do not come from the engine's own output.

* corpus-cli: each report is compared with the hand-written oracle in its
  ``tests/fixtures/corpus/<case>/fixture.json``.
* synthetic workloads at the default seed: the verdicts are compared with a
  digest that the brute-force oracle (``tests/bruteforce.py``) produced once,
  stored in ``bench/data/reference.json`` by ``bench/make_reference.py``.
* synthetic workloads at every seed: base detection is compared with the
  oracle's ``naive_detect`` and a seeded sample of verdicts with its
  ``naive_classify``; the full oracle is too slow to run on every pass.

Every function returns a list of problems; empty means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from workloads import Call

REFERENCE = Path(__file__).resolve().parent / "data" / "reference.json"
#: Verdicts checked with the brute-force oracle on every run, per workload.
#: One naive_classify call costs about 2 ms on synth-raw, 0.1 s on
#: synth-generic and 0.5 s on rule-heavy.
ORACLE_SAMPLE = {"synth-raw": 40, "synth-generic": 8, "rule-heavy": 4}


def verdict_rows(doc: dict) -> list[dict]:
    """Report verdicts in the oracle's comparison shape."""
    rows = []
    for v in doc["verdicts"]:
        silenced = v["outcome"] == "silenced"
        rows.append({
            "site": v["site"],
            "outcome": v["outcome"],
            "layer": v["layer"] if silenced else None,
            "rule": v["rule"] if silenced else None,
            "also": tuple(v["also_matched"]) if silenced else (),
            "status": "" if silenced else v["status"],
            "hint": "" if silenced else v["hint"],
        })
    return rows


def verdict_digest(rows: list[dict]) -> str:
    canonical = [
        [r["site"], r["outcome"], r["layer"], r["rule"], list(r["also"]), r["status"], r["hint"]]
        for r in sorted(rows, key=lambda r: r["site"])
    ]
    return hashlib.sha256(json.dumps(canonical).encode("utf-8")).hexdigest()


def front(call: Call):
    """Executables, type table and config of a call, through the public API."""
    from demeterlint.adapt import load_config
    from demeterlint.codemodel import ResolutionMode, TypeTable, load_stubs
    from demeterlint.javafront import bind_and_extract, build_type_table, parse_unit

    paths = []
    for s in map(Path, call.sources):
        paths.extend(sorted(s.rglob("*.java")) if s.is_dir() else [s])
    units = [parse_unit(p.read_text(encoding="utf-8"), str(p)) for p in paths]
    stubs = TypeTable()
    for p in call.stubs:
        stubs = stubs.merge(load_stubs(Path(p)))
    table = build_type_table(units, stubs, ResolutionMode.STRICT)
    executables = bind_and_extract(units, table, ResolutionMode.STRICT)
    return executables, table, load_config([Path(p) for p in call.configs])


def _bruteforce():
    tests = str(Path("tests").resolve())
    if tests not in sys.path:
        sys.path.append(tests)
    import bruteforce

    return bruteforce


def oracle_problems(workload: str, call: Call, doc: dict, seed: int, whole: bool) -> list[str]:
    """Base detection and verdicts against the brute-force oracle.

    For the whole project a seeded sample of verdicts is checked, for a
    single unit every verdict.
    """
    bf = _bruteforce()
    executables, table, config = front(call)
    rows = {r["site"]: r for r in verdict_rows(doc)}
    base = bf.naive_detect(executables, table)
    if sorted(site for _, site in base) != sorted(rows):
        return [f"{workload}: base detection differs from naive_detect"]
    sites = {ex.id: {s.site_id: s for s in ex.body_accesses} for ex in executables}
    size = ORACLE_SAMPLE[workload] if whole else len(base)
    sample = random.Random(seed).sample(base, min(size, len(base)))
    problems = []
    for ex_id, site_id in sample:
        want = bf.naive_classify(ex_id, sites[ex_id][site_id], executables, table, config)
        if rows[site_id] != want:
            problems.append(f"{workload}: {site_id}: engine {rows[site_id]} vs oracle {want}")
    return problems


def reference_problems(workload: str, seed: int, inputs: str, doc: dict) -> list[str]:
    """The stored oracle digest, for seeds that have one."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if ref is None:
        return []
    if ref["inputs"] != inputs:
        return [f"{workload}: generated inputs differ from the stored seed-{seed} inputs"]
    if ref["verdicts"] != verdict_digest(verdict_rows(doc)):
        return [f"{workload}: verdicts differ from the stored brute-force oracle digest"]
    return []


def corpus_problems(call: Call, doc: dict) -> list[str]:
    """A corpus report against its fixture's hand-written oracle."""
    case = Path(call.sources[0]).parent
    oracle = json.loads((case / "fixture.json").read_text(encoding="utf-8"))["oracle"]
    totals = doc["totals"]
    silenced = [e["count"] for e in totals["silenced_per_layer"]]
    after = [totals["potential_violations"] - sum(silenced[: k + 1]) for k in range(6)]
    remaining = [v for v in doc["verdicts"] if v["outcome"] == "remaining"]
    got = {
        "access_sites": totals["accesses"],
        "base_violations": totals["potential_violations"],
        "violations_by_executable": {r["executable"]: r["pv"] for r in doc["rows"] if r["pv"]},
        "generic_after_layer": after,
        "silenced_by_rule": {e["rule"]: e["count"] for e in doc["waterfall"] if e["count"]},
        "remaining": totals["remaining"],
    }
    problems = [
        f"{call.name}: {key} {value} != {oracle[key]}"
        for key, value in got.items()
        if value != oracle[key]
    ]
    if "remaining_member" in oracle and {v["member"] for v in remaining} != {oracle["remaining_member"]}:
        problems.append(f"{call.name}: remaining members differ from {oracle['remaining_member']}")
    if "remaining_hint" in oracle and oracle["remaining_hint"] not in {v["hint"] for v in remaining}:
        problems.append(f"{call.name}: no remaining verdict has hint {oracle['remaining_hint']}")
    return problems
