"""Deterministic result rendering: listings, per-executable tables, waterfall.

Reports carry no timestamps and sort every collection, so identical inputs
produce byte-identical output.  The json format is the machine interface
(schema demeterlint-report/1); text is a human summary; table is the
fixed-width per-executable grid with one column per configured layer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Optional, Sequence

from . import __version__
from .adapt import LayeredConfig, Verdict, WaterfallEntry, attribute_waterfall
from .javafront import AccessSite, Executable

__all__ = [
    "AnalysisReport",
    "ExecutableRow",
    "REPORT_SCHEMA",
    "build_report",
    "input_digest",
    "parse_report",
    "to_json_doc",
    "pct",
    "render",
    "render_chain",
    "render_stats",
]

REPORT_SCHEMA = "demeterlint-report/1"

#: Provenance chains longer than this render elided in text output; the json
#: format always carries the full chain.
CHAIN_LIMIT = 6


def input_digest(inputs: Iterable[tuple[str, str, str]]) -> str:
    """Content hash over (kind, name, text) triples, order-independent.

    Each input is tagged and length-delimited so renaming a file or moving
    bytes between inputs changes the digest.
    """
    h = hashlib.sha256()
    for kind, name, text in sorted(inputs):
        for part in (kind, name, text):
            data = part.encode("utf-8")
            h.update(str(len(data)).encode("ascii"))
            h.update(b":")
            h.update(data)
    return h.hexdigest()


def pct(numerator: int, denominator: int) -> str:
    """Percentage with one decimal, half-up; 0.0 for an empty denominator."""
    if denominator == 0:
        return "0.0"
    scaled = Decimal(numerator * 100) / Decimal(denominator)
    return str(scaled.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ExecutableRow:
    """One table row: survivor counts per cumulative layer prefix."""

    executable: str
    pv: int
    after_layer: tuple[int, ...]
    tp_candidates: int


@dataclass(frozen=True)
class AnalysisReport:
    tool_version: str
    digest: str
    accesses: int
    potential_violations: int
    silenced_per_layer: tuple[tuple[int, int], ...]
    remaining: int
    rows: tuple[ExecutableRow, ...]
    waterfall: tuple[WaterfallEntry, ...]
    verdicts: tuple[Verdict, ...]
    layer_indices: tuple[int, ...]
    layer_names: tuple[str, ...]

    def verdict_fingerprints(self) -> list[tuple]:
        return [_fingerprint(v) for v in _verdict_dicts(self.verdicts)]


def build_report(
    executables: Sequence[Executable],
    verdicts: Sequence[Verdict],
    config: LayeredConfig,
    inputs: Iterable[tuple[str, str, str]] = (),
    accesses: Optional[int] = None,
) -> AnalysisReport:
    """Assemble the report; re-checks conservation and row monotonicity."""
    waterfall = attribute_waterfall(verdicts, config)  # hard-errors on loss
    layer_indices = config.layer_indices
    if accesses is None:
        accesses = sum(len(ex.body_accesses) for ex in executables)

    per_exec: dict[str, list[Verdict]] = {}
    for v in verdicts:
        per_exec.setdefault(v.violation.executable_id, []).append(v)
    rows = []
    for exec_id, group in per_exec.items():
        pv = len(group)
        after = tuple(
            pv - sum(1 for v in group if v.outcome == "silenced" and v.layer <= k)
            for k in layer_indices
        )
        tp = sum(
            1
            for v in group
            if v.outcome == "remaining" and v.status == "candidate-true-positive"
        )
        row = ExecutableRow(exec_id, pv, after, tp)
        counts = (pv, *after, tp)
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise RuntimeError(f"non-monotone row for {exec_id}: {counts}")
        rows.append(row)
    rows.sort(key=lambda r: (-r.pv, r.executable))

    return AnalysisReport(
        tool_version=__version__,
        digest=input_digest(inputs),
        accesses=accesses,
        potential_violations=waterfall.total,
        silenced_per_layer=waterfall.per_layer,
        remaining=waterfall.remaining,
        rows=tuple(rows),
        waterfall=waterfall.per_rule,
        verdicts=tuple(verdicts),
        layer_indices=layer_indices,
        layer_names=tuple(config.name_of(k) for k in layer_indices),
    )


# -- chains -----------------------------------------------------------------


def _member_token(site: AccessSite) -> str:
    if site.access_kind in ("method-call", "static-member-access") and (
        site.member.arity is not None
    ):
        return f".{site.member.name}()"
    return f".{site.member.name}"


def render_chain(site: AccessSite, limit: Optional[int] = CHAIN_LIMIT) -> str:
    """Human form of how the receiver was reached, ending at the member.

    The first step shows the originating name with its type; later steps
    show each hop with the type it produces.  ``limit`` elides long chains.
    """
    parts = []
    for i, step in enumerate(site.receiver.chain):
        t = step.type.simple_name
        if step.kind == "call":
            parts.append(f".{step.label}(): {t}")
        elif step.kind == "cast":
            parts.append(f"({t})")
        elif step.kind == "new":
            parts.append(f"new {t}")
        elif i == 0:
            parts.append(f"{step.label}: {t}")
        else:
            parts.append(f".{step.label}: {t}")
    if not parts:
        parts = [site.receiver.form]
    if limit is not None and len(parts) > limit:
        parts = parts[:limit] + [f"… (+{len(parts) - limit} more)"]
    parts.append(_member_token(site))
    return " → ".join(parts)


# -- serialization ------------------------------------------------------------


def _verdict_dicts(verdicts: Sequence[Verdict]) -> list[dict]:
    out = []
    for v in verdicts:
        site = v.violation.site
        entry: dict = {
            "site": site.site_id,
            "outcome": v.outcome,
            "access": site.access_kind,
            "receiver": v.violation.receiver_type.name,
            "member": site.member.name,
            "chain": [
                {"kind": s.kind, "label": s.label, "type": s.type.name}
                for s in site.receiver.chain
            ],
        }
        if v.violation.note:
            entry["note"] = v.violation.note
        if v.outcome == "silenced":
            entry["layer"] = v.layer
            entry["rule"] = v.rule_id
            entry["also_matched"] = list(v.also_matched)
        else:
            entry["status"] = v.status
            entry["hint"] = v.hint
        out.append(entry)
    return out


def _fingerprint(entry: dict) -> tuple:
    chain = tuple((s["kind"], s["label"], s["type"]) for s in entry["chain"])
    return tuple(
        (k, tuple(v) if isinstance(v, list) else v)
        for k, v in sorted(entry.items())
        if k != "chain"
    ) + (("chain", chain),)


def to_json_doc(report: AnalysisReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool_version": report.tool_version,
        "digest": report.digest,
        "totals": {
            "accesses": report.accesses,
            "potential_violations": report.potential_violations,
            "silenced_per_layer": [
                {"layer": k, "count": n} for k, n in report.silenced_per_layer
            ],
            "remaining": report.remaining,
        },
        "rows": [
            {
                "executable": r.executable,
                "pv": r.pv,
                "after_layer": list(r.after_layer),
                "tp_candidates": r.tp_candidates,
            }
            for r in report.rows
        ],
        "waterfall": [
            {"rule": e.rule_id, "layer": e.layer, "count": e.count}
            for e in report.waterfall
        ],
        "verdicts": _verdict_dicts(report.verdicts),
    }


def _render_json(report: AnalysisReport) -> str:
    return json.dumps(to_json_doc(report), sort_keys=True, indent=2) + "\n"


def _render_text(report: AnalysisReport) -> str:
    lines = [
        f"accesses: {report.accesses}",
        "potential violations: {} ({} % of accesses)".format(
            report.potential_violations,
            pct(report.potential_violations, report.accesses),
        ),
        "remaining: {} ({} % of potential)".format(
            report.remaining, pct(report.remaining, report.potential_violations)
        ),
    ]
    if report.layer_indices:
        lines.append("silenced per layer:")
        per_layer = dict(report.silenced_per_layer)
        for k, name in zip(report.layer_indices, report.layer_names):
            lines.append(f"  {k} {name}: {per_layer[k]}")
        lines.append("silenced per rule:")
        for e in report.waterfall:
            if e.count:
                lines.append(f"  {e.rule_id} (layer {e.layer}): {e.count}")
    if report.rows:
        lines.append("most-affected executables:")
        for r in report.rows[:10]:
            trail = " -> ".join(str(n) for n in (r.pv, *r.after_layer))
            lines.append(f"  {r.executable}: {trail} (tp {r.tp_candidates})")
    remaining = [v for v in report.verdicts if v.outcome == "remaining"]
    if remaining:
        lines.append("remaining violations:")
        for v in remaining:
            site = v.violation.site
            hint = f" (hint: {v.hint})" if v.hint else ""
            lines.append(f"  {site.site_id} [{v.status}]{hint}")
            lines.append(f"    {render_chain(site)}")
    return "\n".join(lines) + "\n"


def _render_table(report: AnalysisReport) -> str:
    headers = ["executable", "pv"] + [str(k) for k in report.layer_indices] + ["tp"]
    body = [
        [r.executable, str(r.pv)]
        + [str(n) for n in r.after_layer]
        + [str(r.tp_candidates)]
        for r in report.rows
    ]
    totals_after = [
        str(report.potential_violations - sum(n for k, n in report.silenced_per_layer if k <= j))
        for j in report.layer_indices
    ]
    body.append(
        ["total", str(report.potential_violations)] + totals_after + [
            str(
                sum(
                    1
                    for v in report.verdicts
                    if v.outcome == "remaining"
                    and v.status == "candidate-true-positive"
                )
            )
        ]
    )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells: list[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join([first] + rest).rstrip()

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(headers), rule] + [fmt(r) for r in body]) + "\n"


def render(report: AnalysisReport, fmt: str) -> bytes:
    if fmt == "json":
        text = _render_json(report)
    elif fmt == "text":
        text = _render_text(report)
    elif fmt == "table":
        text = _render_table(report)
    else:
        raise ValueError(f"unknown report format '{fmt}'")
    return text.encode("utf-8")


def render_stats(report: AnalysisReport, fmt: str) -> bytes:
    """Totals and the waterfall, without rows or verdicts."""
    if fmt == "json":
        doc = to_json_doc(report)
        del doc["rows"], doc["verdicts"]
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    lines = [
        f"accesses: {report.accesses}",
        "potential violations: {} ({} % of accesses)".format(
            report.potential_violations, pct(report.potential_violations, report.accesses)
        ),
        f"remaining: {report.remaining}",
    ]
    for (k, n), name in zip(report.silenced_per_layer, report.layer_names):
        lines.append(f"layer {k} ({name}): {n}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_report(data: bytes | str) -> dict:
    """Decode and structurally validate a json report; returns the document."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = json.loads(data)
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"expected schema {REPORT_SCHEMA}")
    for key in ("digest", "totals", "rows", "waterfall", "verdicts"):
        if key not in doc:
            raise ValueError(f"report missing '{key}'")
    totals = doc["totals"]
    silenced = sum(e["count"] for e in totals["silenced_per_layer"])
    if silenced + totals["remaining"] != totals["potential_violations"]:
        raise ValueError("report violates conservation")
    return doc


def parsed_fingerprints(doc: dict) -> list[tuple]:
    return [_fingerprint(v) for v in doc["verdicts"]]
