#!/usr/bin/env python3
"""Reproduce the JHotDraw 5.1 violation accounting against published figures.

Needs the JHotDraw 5.1 source tree and a JDK-1.1-era stub set; neither ships
with this repository.  Runs the full preset stack, maps the waterfall onto
the published per-idea figures, and prints a reconciliation report itemizing
every deviation beyond the tolerance.  The three group subtractions quoted
alongside the final precision (472, 149, 499) are reported for comparison but
not asserted, since their composition is not itemized anywhere.

Exit status: 0 when all asserted figures are within tolerance, 1 otherwise,
2 on load errors.
"""

import argparse
import json
import sys
from pathlib import Path

try:
    import demeterlint  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from demeterlint.adapt import Adapter, attribute_waterfall, load_config
from demeterlint.cli import read_source
from demeterlint.codemodel import LoadError, ResolutionMode, TypeTable, load_stubs
from demeterlint.javafront import (
    SourceError,
    bind_and_extract,
    build_type_table,
    parse_unit,
)
from demeterlint.demeter import detect
from demeterlint.presets import STACK

TOLERANCE = 0.10

#: Published figure -> (expected value, waterfall rule carrying it).  The
#: two pseudo-rules are measured specially: "@rectangle" counts data-class
#: silencings whose receiver is java.awt.Rectangle, "@review" counts
#: remaining sites annotated review-pending.
PUBLISHED = [
    ("accesses", 5858, "@accesses"),
    ("potential violations", 1215, "@potential"),
    ("Rectangle receivers", 366, "@rectangle"),
    ("data classes", 539, "D2"),
    ("globally accessible", 270, "D4"),
    ("collections", 137, "D5"),
    ("java.lang", 128, "D7"),
    ("constructor params", 86, "D15"),
    ("aggregation elements", 40, "D6"),
    ("singleton accessors", 24, "D10"),
    ("inner classes", 23, "D12"),
    ("selection gateway", 20, "D21"),
    ("parameter downcasts", 16, "D28"),
    ("print idiom", 11, "D8"),
    ("array length", 8, "D18"),
    ("Drawing befriended", 28, "D24"),
    ("editor-tool review", 5, "@review"),
    ("candidate true positives", 42, "@true-positives"),
]


def collect_sources(root: Path) -> list[Path]:
    return sorted(root.rglob("*.java"))


def analyze(root: Path, stub_paths: list[Path], mode: ResolutionMode):
    units = []
    for path in collect_sources(root):
        units.append(parse_unit(read_source(path), str(path)))
    if not units:
        raise LoadError("E-PARSE", f"no .java files under {root}")
    stubs = TypeTable()
    for p in stub_paths:
        stubs = stubs.merge(load_stubs(p))
    table = build_type_table(units, stubs, mode)
    executables = bind_and_extract(units, table, mode)
    config = load_config([str(p) for p in STACK])
    adapter = Adapter(executables, table, config)
    violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
    verdicts = adapter.classify(violations)
    return executables, config, violations, verdicts


def measure(executables, config, violations, verdicts) -> dict[str, int]:
    waterfall = attribute_waterfall(verdicts, config)
    by_rule = {e.rule_id: e.count for e in waterfall.per_rule}
    measured = {
        "@accesses": sum(len(ex.body_accesses) for ex in executables),
        "@potential": len(violations),
        "@rectangle": sum(
            1
            for v in verdicts
            if v.outcome == "silenced"
            and v.rule_id == "D2"
            and v.violation.receiver_type.name == "java.awt.Rectangle"
        ),
        "@review": sum(
            1
            for v in verdicts
            if v.outcome == "remaining" and v.status == "review-pending"
        ),
        "@true-positives": sum(
            1
            for v in verdicts
            if v.outcome == "remaining" and v.status == "candidate-true-positive"
        ),
    }
    measured.update(by_rule)
    measured["@per-layer"] = {k: n for k, n in waterfall.per_layer}
    return measured


def reconcile(measured: dict) -> tuple[list[dict], int]:
    rows = []
    deviations = 0
    for label, expected, key in PUBLISHED:
        got = measured.get(key, 0)
        delta = got - expected
        within = abs(delta) <= TOLERANCE * expected
        if not within:
            deviations += 1
        rows.append(
            {
                "figure": label,
                "expected": expected,
                "measured": got,
                "delta": delta,
                "within_tolerance": within,
            }
        )
    return rows, deviations


def print_report(measured: dict, rows: list[dict], deviations: int) -> None:
    width = max(len(r["figure"]) for r in rows)
    print(f"{'figure':{width}s}  expected  measured   delta  ")
    for r in rows:
        mark = "ok" if r["within_tolerance"] else "DEVIATION"
        print(
            f"{r['figure']:{width}s}  {r['expected']:8d}  {r['measured']:8d}"
            f"  {r['delta']:+6d}  {mark}"
        )
    print()
    per_layer = measured["@per-layer"]
    print("silenced per layer:", "  ".join(f"{k}:{n}" for k, n in sorted(per_layer.items())))
    generic = sum(n for k, n in per_layer.items() if k <= 5)
    design = per_layer.get(6, 0)
    print(
        f"group sums (not asserted): generic layers {generic}, design layer {design}; "
        "published unlabeled groups: 472 / 149 / 499"
    )
    print()
    if deviations:
        print(f"{deviations} figure(s) outside the {TOLERANCE:.0%} tolerance")
    else:
        print(f"all figures within the {TOLERANCE:.0%} tolerance")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source_root", type=Path, help="JHotDraw 5.1 source tree")
    parser.add_argument(
        "--stubs",
        action="append",
        type=Path,
        default=[],
        required=True,
        help="stub document (repeatable); must cover the JDK-era types",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on unresolved references instead of counting conservatively",
    )
    parser.add_argument("--json", type=Path, help="also write the reconciliation here")
    args = parser.parse_args(argv)

    mode = ResolutionMode.STRICT if args.strict else ResolutionMode.LENIENT
    try:
        executables, config, violations, verdicts = analyze(
            args.source_root, args.stubs, mode
        )
    except SourceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except LoadError as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 2

    measured = measure(executables, config, violations, verdicts)
    rows, deviations = reconcile(measured)
    print_report(measured, rows, deviations)
    if args.json:
        args.json.write_text(
            json.dumps(
                {"figures": rows, "per_layer": measured["@per-layer"]},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    return 1 if deviations else 0


if __name__ == "__main__":
    raise SystemExit(main())
