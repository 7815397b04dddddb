"""Deterministic result rendering: listings, per-executable tables, waterfall.

Reports carry no timestamps and sort every collection, so identical inputs
produce byte-identical output.  The json format is the machine interface
(schema demeterlint-report/1); text is a human summary; table is the
fixed-width per-executable grid with one column per configured layer.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii as _q
from typing import Iterable, Optional, Sequence

from . import __version__
from .adapt import LayeredConfig, Verdict, WaterfallEntry, attribute_waterfall
from .javafront import AccessSite, Executable
from .records import Value

__all__ = [
    "AnalysisReport",
    "ExecutableRow",
    "REPORT_SCHEMA",
    "build_report",
    "input_digest",
    "parse_report",
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
    bytes between inputs changes the digest.  Only the json writer shows
    it, so ``hashlib`` (and OpenSSL behind it) is imported here, not by a
    text or table run.

    A file name that is not UTF-8 reaches here holding lone surrogates
    (``\udcff`` for the byte 0xff); ``surrogatepass`` encodes them and
    leaves every valid string's bytes, and so its digest, as they were.
    """
    import hashlib

    h = hashlib.sha256()
    for kind, name, text in sorted(inputs):
        for part in (kind, name, text):
            data = part.encode("utf-8", "surrogatepass")
            h.update(str(len(data)).encode("ascii"))
            h.update(b":")
            h.update(data)
    return h.hexdigest()


def pct(numerator: int, denominator: int) -> str:
    """Percentage with one decimal, half-up; 0.0 for an empty denominator.

    Exact integer arithmetic: ``q`` is the percentage in tenths, rounded
    down, and goes up one when the remainder is at least half of
    ``denominator``.
    """
    if denominator == 0:
        return "0.0"
    q, r = divmod(numerator * 1000, denominator)
    if 2 * r >= denominator:
        q += 1
    return f"{q // 10}.{q % 10}"


class ExecutableRow(Value):
    """One table row: survivor counts per cumulative layer prefix."""

    __slots__ = ("executable", "pv", "after_layer", "tp_candidates")

    def __init__(
        self, executable: str, pv: int, after_layer: tuple[int, ...], tp_candidates: int
    ) -> None:
        self.executable = executable
        self.pv = pv
        self.after_layer = after_layer
        self.tp_candidates = tp_candidates


class AnalysisReport(Value):
    """A pass's results.  It keeps its (kind, name, text) ``inputs``, and
    ``digest`` hashes them when asked: only the json writer asks."""

    __slots__ = (
        "tool_version",
        "inputs",
        "accesses",
        "potential_violations",
        "silenced_per_layer",
        "remaining",
        "rows",
        "waterfall",
        "verdicts",
        "layer_indices",
        "layer_names",
    )

    def __init__(
        self,
        tool_version: str,
        inputs: tuple[tuple[str, str, str], ...],
        accesses: int,
        potential_violations: int,
        silenced_per_layer: tuple[tuple[int, int], ...],
        remaining: int,
        rows: tuple[ExecutableRow, ...],
        waterfall: tuple[WaterfallEntry, ...],
        verdicts: tuple[Verdict, ...],
        layer_indices: tuple[int, ...],
        layer_names: tuple[str, ...],
    ) -> None:
        self.tool_version = tool_version
        self.inputs = inputs
        self.accesses = accesses
        self.potential_violations = potential_violations
        self.silenced_per_layer = silenced_per_layer
        self.remaining = remaining
        self.rows = rows
        self.waterfall = waterfall
        self.verdicts = verdicts
        self.layer_indices = layer_indices
        self.layer_names = layer_names

    @property
    def digest(self) -> str:
        return input_digest(self.inputs)


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
        inputs=tuple(inputs),
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
    show each hop with the type it produces.  ``limit`` elides long chains,
    and only the steps shown are formatted.
    """
    chain = site.receiver.chain
    more = 0
    if limit is not None and len(chain) > limit:
        chain, more = chain[:limit], len(chain) - limit
    parts = []
    for i, step in enumerate(chain):
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
    if not parts and not more:
        parts = [site.receiver.form]
    if more:
        parts.append(f"… (+{more} more)")
    parts.append(_member_token(site))
    return " → ".join(parts)


# -- serialization ------------------------------------------------------------


def _block(brackets: str, items: Sequence[str], pad: str) -> str:
    """A json array (``brackets`` "[]") or object ("{}") closing at
    indentation ``pad``, with its rendered items one level deeper."""
    if not items:
        return brackets
    inner = ",\n" + pad + "  "
    return brackets[0] + "\n" + pad + "  " + inner.join(items) + "\n" + pad + brackets[1]


def _verdict_json(v: Verdict) -> str:
    site = v.violation.site
    steps = [
        f'{{\n          "kind": {_q(s.kind)},\n          "label": {_q(s.label)},'
        f'\n          "type": {_q(s.type.name)}\n        }}'
        for s in site.receiver.chain
    ]
    chain = _block("[]", steps, "      ")
    note = f'\n      "note": {_q(v.violation.note)},' if v.violation.note else ""
    if v.outcome == "silenced":
        also = _block("[]", [_q(rule_id) for rule_id in v.also_matched], "      ")
        head = f'"also_matched": {also},\n      "chain": {chain},\n      "layer": {v.layer}'
        tail = f'"rule": {_q(v.rule_id)},\n      "site": {_q(site.site_id)}'
    else:
        head = f'"chain": {chain},\n      "hint": {_q(v.hint)}'
        tail = f'"site": {_q(site.site_id)},\n      "status": {_q(v.status)}'
    return (
        f'{{\n      "access": {_q(site.access_kind)},\n      {head},'
        f'\n      "member": {_q(site.member.name)},{note}\n      "outcome": {_q(v.outcome)},'
        f'\n      "receiver": {_q(v.violation.receiver_type.name)},\n      {tail}\n    }}'
    )


def _row_json(r: ExecutableRow) -> str:
    after = _block("[]", [str(n) for n in r.after_layer], "      ")
    return (
        f'{{\n      "after_layer": {after},\n      "executable": {_q(r.executable)},'
        f'\n      "pv": {r.pv},\n      "tp_candidates": {r.tp_candidates}\n    }}'
    )


def _write_array(out: io.BytesIO, items: Iterable[str], pad: str) -> None:
    """Write a json array of rendered ``items`` closing at indentation
    ``pad``, one item at a time, so the long arrays are never held twice."""
    sep = "[\n" + pad + "  "
    for item in items:
        out.write((sep + item).encode())
        sep = ",\n" + pad + "  "
    out.write(b"[]" if sep[0] == "[" else ("\n" + pad + "]").encode())


def _render_json(report: AnalysisReport, stats: bool = False) -> bytes:
    """The json report, or with ``stats`` its totals and waterfall only.

    The bytes are those ``json.dumps(doc, sort_keys=True, indent=2)``
    gives, plus a newline, for the report as a document (see
    ``parse_report``): keys in sorted order, two spaces per level, strings
    escaped to ASCII by the stdlib's C escaper.  ``json.dumps`` itself
    falls back to its pure-Python encoder when asked to indent.
    """
    per_layer = [
        f'{{\n        "count": {n},\n        "layer": {k}\n      }}'
        for k, n in report.silenced_per_layer
    ]
    totals = [
        f'"accesses": {report.accesses}',
        f'"potential_violations": {report.potential_violations}',
        f'"remaining": {report.remaining}',
        f'"silenced_per_layer": {_block("[]", per_layer, "    ")}',
    ]
    out = io.BytesIO()
    out.write(f'{{\n  "digest": {_q(report.digest)},\n  '.encode())
    if not stats:
        out.write(b'"rows": ')
        _write_array(out, map(_row_json, report.rows), "  ")
        out.write(b",\n  ")
    out.write(
        f'"schema": {_q(REPORT_SCHEMA)},\n  "tool_version": {_q(report.tool_version)},'
        f'\n  "totals": {_block("{}", totals, "  ")},\n  '.encode()
    )
    if not stats:
        out.write(b'"verdicts": ')
        _write_array(out, map(_verdict_json, report.verdicts), "  ")
        out.write(b",\n  ")
    out.write(b'"waterfall": ')
    _write_array(
        out,
        (
            f'{{\n      "count": {e.count},\n      "layer": {e.layer},'
            f'\n      "rule": {_q(e.rule_id)}\n    }}'
            for e in report.waterfall
        ),
        "  ",
    )
    out.write(b"\n}\n")
    return out.getvalue()


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
        ["total", str(report.potential_violations)]
        + totals_after
        + [str(sum(r.tp_candidates for r in report.rows))]
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
        return _render_json(report)
    if fmt == "text":
        text = _render_text(report)
    elif fmt == "table":
        text = _render_table(report)
    else:
        raise ValueError(f"unknown report format '{fmt}'")
    return text.encode("utf-8")


def render_stats(report: AnalysisReport, fmt: str) -> bytes:
    """Totals and the waterfall, without rows or verdicts."""
    if fmt == "json":
        return _render_json(report, stats=True)
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
