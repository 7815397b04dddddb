"""Reference json report: the report as a document for ``json.dumps``.

This is how ``demeterlint.report`` built its json output before it wrote
the fixed schema directly.  It is kept unchanged as the independent check
of that writer: ``reference_json`` is the bytes the writer must produce.
"""

import json
from typing import Sequence

from demeterlint.adapt import Verdict
from demeterlint.report import REPORT_SCHEMA, AnalysisReport


def reference_json(report: AnalysisReport, stats: bool = False) -> bytes:
    """The json report, or for ``stats`` its document without rows and
    verdicts, as ``json.dumps`` writes it."""
    doc = to_json_doc(report)
    if stats:
        del doc["rows"], doc["verdicts"]
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


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
