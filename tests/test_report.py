"""Report assembly, rendering, and the json round-trip."""

import hashlib
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demeterlint.adapt import Adapter, EMPTY_CONFIG, Verdict, WaterfallEntry, load_config
from demeterlint.codemodel import MemberDecl, MemberKind, ResolutionMode, TypeRef
from demeterlint.demeter import PotentialViolation, detect
from demeterlint.javafront import AccessSite, ProvStep, ReceiverDesc
from demeterlint.presets import GENERIC, STACK
from demeterlint.report import (
    CHAIN_LIMIT,
    AnalysisReport,
    ExecutableRow,
    build_report,
    input_digest,
    parse_report,
    pct,
    render,
    render_chain,
    render_stats,
)

from conftest import STUBS, build_case_front, build_front, load_case
from json_reference import reference_json, to_json_doc


def run_case(name, presets=STACK):
    case = load_case(name)
    table, exes = build_case_front(case)
    config = load_config(list(presets))
    adapter = Adapter(exes, table, config)
    violations = [v for ex in exes for v in detect(ex, adapter.base[ex.id])]
    return exes, config, adapter.classify(violations)


def run_snippet(src, config=EMPTY_CONFIG, stubs=()):
    table, exes = build_front([("S0.java", src)], list(stubs), ResolutionMode.STRICT)
    adapter = Adapter(exes, table, config)
    violations = [v for ex in exes for v in detect(ex, adapter.base[ex.id])]
    return exes, config, adapter.classify(violations)


class TestPct:
    @pytest.mark.parametrize(
        "n,d,out",
        [
            (21, 100, "21.0"),
            (4, 9, "44.4"),
            (1, 16, "6.3"),  # 6.25 rounds half-up
            (1, 2000, "0.1"),  # 0.05 rounds half-up
            (1, 8, "12.5"),
            (1215, 5858, "20.7"),
            (0, 0, "0.0"),
            (5, 0, "0.0"),
        ],
    )
    def test_rounding(self, n, d, out):
        assert pct(n, d) == out

    @staticmethod
    def decimal_pct(numerator: int, denominator: int) -> str:
        """``pct`` in ``decimal`` arithmetic, the reference for the integer one."""
        if denominator == 0:
            return "0.0"
        scaled = Decimal(numerator * 100) / Decimal(denominator)
        return str(scaled.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))

    @pytest.mark.parametrize("n,d", [(1, 16), (3, 16), (1, 400), (0, 0), (10**12, 10**12)])
    def test_ties_match_decimal(self, n, d):
        assert pct(n, d) == self.decimal_pct(n, d)

    @settings(max_examples=500)
    @given(st.integers(0, 10**12).flatmap(lambda d: st.tuples(st.integers(0, d), st.just(d))))
    def test_matches_decimal(self, pair):
        n, d = pair
        assert pct(n, d) == self.decimal_pct(n, d)


class TestDigest:
    def test_order_independent(self):
        a = [("source", "A.java", "class A {}"), ("stub", "jdk.json", "{}")]
        assert input_digest(a) == input_digest(list(reversed(a)))

    def test_content_sensitive(self):
        base = [("source", "A.java", "class A {}")]
        assert input_digest(base) != input_digest([("source", "A.java", "class B {}")])
        assert input_digest(base) != input_digest([("source", "B.java", "class A {}")])
        assert input_digest(base) != input_digest([("stub", "A.java", "class A {}")])

    def test_length_delimited(self):
        # Moving bytes across field boundaries must not collide.
        a = [("s", "ab", "c")]
        b = [("s", "a", "bc")]
        assert input_digest(a) != input_digest(b)

    def test_valid_text_digest_is_pinned(self):
        inputs = [
            ("source", "p/A.java", "class A { /* caf\u00e9 \U0001F600 */ }"),
            ("stub", "jdk.json", "{}"),
        ]
        assert input_digest(inputs) == (
            "7cb6b7ae7dee5ecd5a8b26f238df275b806a0f64c32ad5ff8289a8e2cf6ef41b"
        )

    @pytest.mark.parametrize(
        "name, encoded",
        [("A\udcff.java", b"A\xed\xb3\xbf.java"), ("\ud800", b"\xed\xa0\x80")],
        ids=["escaped-byte", "high-surrogate"],
    )
    def test_lone_surrogates_hash_as_their_surrogatepass_bytes(self, name, encoded):
        # A file name that is not UTF-8 reaches the digest holding lone
        # surrogates, as os.fsdecode gives it.
        expected = hashlib.sha256(
            b"6:source" + str(len(encoded)).encode() + b":" + encoded + b"10:class A {}"
        ).hexdigest()
        assert input_digest([("source", name, "class A {}")]) == expected


class TestBuildReport:
    def test_listing3_row_generic(self):
        exes, config, verdicts = run_case("listing3", GENERIC)
        report = build_report(exes, verdicts, config)
        (row,) = report.rows
        assert row.executable == "CH.ifa.draw.figures.ElbowHandle#constrainX(int)"
        assert row.pv == 21
        assert row.after_layer == (11, 9, 9, 2, 2, 2)
        assert row.tp_candidates == 2
        assert report.accesses == 26
        assert report.potential_violations == 21
        assert report.remaining == 2

    def test_listing3_row_full_stack(self):
        exes, config, verdicts = run_case("listing3")
        report = build_report(exes, verdicts, config)
        (row,) = report.rows
        assert (row.pv, *row.after_layer, row.tp_candidates) == (
            21, 11, 9, 9, 2, 2, 2, 2, 2, 2
        )

    def test_rows_sorted_by_pv_then_id(self):
        exes, config, verdicts = run_case("listing9")
        report = build_report(exes, verdicts, config)
        assert [(r.executable.rsplit("#", 1)[1], r.pv) for r in report.rows] == [
            ("selectionChanged(DrawingView)", 4),
            ("createFontMenu()", 3),
            ("createContents(StandardDrawingView)", 2),
        ]

    def test_empty_project_is_all_zero(self):
        exes, config, verdicts = run_snippet("package p;\nclass A { }")
        report = build_report(exes, verdicts, config)
        assert (report.accesses, report.potential_violations, report.remaining) == (0, 0, 0)
        assert report.rows == ()
        doc = parse_report(render(report, "json"))
        assert doc["totals"] == {
            "accesses": 0,
            "potential_violations": 0,
            "remaining": 0,
            "silenced_per_layer": [],
        }

    def test_waterfall_covers_every_rule(self):
        exes, config, verdicts = run_case("listing1")
        report = build_report(exes, verdicts, config)
        assert len(report.waterfall) == len(config.rules)
        counts = {e.rule_id: e.count for e in report.waterfall}
        assert counts["D2"] == 10
        assert counts["D31"] == 0


class TestRenderJson:
    def test_round_trip_verdict_multiset(self):
        exes, config, verdicts = run_case("listing9")
        report = build_report(exes, verdicts, config)
        assert parse_report(render(report, "json")) == to_json_doc(report)

    def test_byte_identical_across_runs(self):
        blobs = []
        for _ in range(2):
            exes, config, verdicts = run_case("listing5")
            report = build_report(exes, verdicts, config, inputs=[("x", "y", "z")])
            blobs.append(render(report, "json"))
        assert blobs[0] == blobs[1]

    def test_verdict_fields(self):
        exes, config, verdicts = run_case("listing3")
        doc = parse_report(render(report := build_report(exes, verdicts, config), "json"))
        assert report.digest == doc["digest"]
        silenced = [v for v in doc["verdicts"] if v["outcome"] == "silenced"]
        remaining = [v for v in doc["verdicts"] if v["outcome"] == "remaining"]
        assert len(silenced) == 19 and len(remaining) == 2
        assert {v["rule"] for v in silenced} == {"D2", "D4", "D15"}
        for v in remaining:
            assert v["member"] == "owner"
            assert v["status"] == "candidate-true-positive"
            assert v["hint"] == "lift-forward"
        assert {tuple(s["label"] for s in v["chain"]) for v in remaining} == {
            ("line", "start"),
            ("line", "end"),
        }

    def test_parse_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            parse_report('{"schema": "demeterlint-report/9"}')

    def test_parse_rejects_broken_conservation(self):
        exes, config, verdicts = run_case("listing1")
        blob = render(build_report(exes, verdicts, config), "json").decode()
        tampered = blob.replace('"remaining": 0', '"remaining": 5')
        with pytest.raises(ValueError, match="conservation"):
            parse_report(tampered)


#: Labels with non-ASCII, control and lone surrogate characters.
labels = st.text(st.characters(blacklist_categories=()), max_size=8)
types = labels.map(TypeRef)


def _site(site_id, access_kind, member, chain) -> AccessSite:
    member_decl = MemberDecl(member, MemberKind.METHOD, False, "public", TypeRef("T"), (), "T")
    last = None
    for step in chain:
        last = ProvStep(step.kind, step.label, step.type, last)
    receiver = ReceiverDesc("expression", TypeRef("T"), last)
    return AccessSite(site_id, access_kind, receiver, member_decl, "A.java", 1, 1)


sites = st.builds(
    _site, labels, labels, labels, st.lists(st.builds(ProvStep, labels, labels, types), max_size=3)
)
violations = st.builds(
    PotentialViolation, sites, labels, types, st.none() | st.just("unresolved-receiver") | labels
)
verdicts = st.builds(
    lambda v, layer, rule, also: Verdict(v, "silenced", layer=layer, rule_id=rule, also_matched=also),
    violations, st.integers(), labels, st.lists(labels, max_size=3).map(tuple),
) | st.builds(
    lambda v, status, hint: Verdict(v, "remaining", status=status, hint=hint),
    violations, labels, labels,
)
ints = st.integers()
reports = st.builds(
    AnalysisReport,
    tool_version=labels,
    inputs=st.lists(st.tuples(labels, labels, labels), max_size=2).map(tuple),
    accesses=ints,
    potential_violations=ints,
    silenced_per_layer=st.lists(st.tuples(ints, ints), max_size=3).map(tuple),
    remaining=ints,
    rows=st.lists(
        st.builds(ExecutableRow, labels, ints, st.lists(ints, max_size=3).map(tuple), ints),
        max_size=3,
    ).map(tuple),
    waterfall=st.lists(st.builds(WaterfallEntry, labels, ints, ints), max_size=3).map(tuple),
    verdicts=st.lists(verdicts, max_size=4).map(tuple),
    layer_indices=st.just(()),
    layer_names=st.just(()),
)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(reports)
    def test_same_bytes_as_json_dumps(self, report):
        assert render(report, "json") == reference_json(report)
        assert render_stats(report, "json") == reference_json(report, stats=True)

    def test_corpus_reports(self, corpus_case):
        for presets in ((), STACK):
            exes, config, verdicts = run_case(corpus_case.name, presets)
            report = build_report(exes, verdicts, config, inputs=[("x", "y", "z")])
            assert render(report, "json") == reference_json(report)
            assert render_stats(report, "json") == reference_json(report, stats=True)


class TestChains:
    def test_canonical_two_step_chain(self):
        exes, config, verdicts = run_case("listing3")
        owner_sites = [
            v.violation.site
            for v in verdicts
            if v.outcome == "remaining"
        ]
        assert render_chain(owner_sites[0]) == (
            "line: LineConnection → .start(): Connector → .owner()"
        )

    def test_long_chain_elides_in_text_not_json(self):
        src = (
            "package p;\n"
            "class R { R a() { return null; } R b() { return null; }\n"
            "  R c() { return null; } R d() { return null; }\n"
            "  R e() { return null; } R f() { return null; } void g() { } }\n"
            "class A { void m() { R r = null; r.a().b().c().d().e().f().g(); } }"
        )
        exes, config, verdicts = run_snippet(src)
        last = verdicts[-1].violation.site
        assert last.member.name == "g"
        assert len(last.receiver.chain) == 7
        text = render_chain(last)
        assert "… (+1 more)" in text and ".f()" not in text
        assert render_chain(last, limit=None).count("→") == 7
        report = build_report(exes, verdicts, config)
        doc = parse_report(render(report, "json"))
        g_entry = [v for v in doc["verdicts"] if v["member"] == "g"][0]
        assert len(g_entry["chain"]) == 7  # full chain survives in json

    @pytest.mark.parametrize(
        "links, shown",
        [
            (CHAIN_LIMIT, "r: R → .a(): R → .a(): R → .a(): R → .a(): R → .a(): R → .g()"),
            (
                CHAIN_LIMIT + 1,
                "r: R → .a(): R → .a(): R → .a(): R → .a(): R → .a(): R"
                " → … (+1 more) → .g()",
            ),
            (
                3 * CHAIN_LIMIT,
                "r: R → .a(): R → .a(): R → .a(): R → .a(): R → .a(): R"
                " → … (+12 more) → .g()",
            ),
        ],
    )
    def test_elided_text_at_the_limit(self, links, shown):
        """A chain of ``links`` steps: the local ``r`` and ``links - 1`` calls."""
        assert CHAIN_LIMIT == 6
        src = (
            "package p;\n"
            "class R { R a() { return null; } void g() { } }\n"
            "class A { void m() { R r = null; r" + ".a()" * (links - 1) + ".g(); } }"
        )
        _, _, verdicts = run_snippet(src)
        (site,) = [v.violation.site for v in verdicts if v.violation.site.member.name == "g"]
        assert len(site.receiver.chain) == links
        assert render_chain(site) == shown

    def test_cast_of_a_promoted_operation(self):
        """Numeric promotion reaches the report bytes through a cast: with
        ``int a``, ``a + 1L`` is long in the json chain and in the text.
        javac rejects the unit (a long does not convert to Rectangle), but
        it analyzes."""
        src = (
            "package p;\n"
            "class A { int m(int a) { return ((java.awt.Rectangle) (a + 1L)).x; } }"
        )
        exes, config, verdicts = run_snippet(src, stubs=[STUBS / "jdk.json"])
        (v,) = verdicts
        assert render_chain(v.violation.site) == "+: long → (Rectangle) → .x"
        doc = parse_report(render(build_report(exes, verdicts, config), "json"))
        (entry,) = doc["verdicts"]
        assert entry["chain"] == [
            {"kind": "literal", "label": "+", "type": "long"},
            {"kind": "cast", "label": "java.awt.Rectangle", "type": "java.awt.Rectangle"},
        ]

    def test_cast_new_and_later_field_steps(self):
        src = (
            "package p;\n"
            "class E { void f() { } }\n"
            "class B { E e; }\n"
            "class D { }\n"
            "class C { D d; }\n"
            "class A { void m() { ((B) new C().d).e.f(); } }"
        )
        exes, config, verdicts = run_snippet(src)
        assert render(build_report(exes, verdicts, config), "text").decode() == (
            "accesses: 3\n"
            "potential violations: 2 (66.7 % of accesses)\n"
            "remaining: 2 (100.0 % of potential)\n"
            "most-affected executables:\n"
            "  p.A#m(): 2 (tp 2)\n"
            "remaining violations:\n"
            "  p.A#m()@0002 [candidate-true-positive]\n"
            "    new C → .d: D → (B) → .e\n"
            "  p.A#m()@0003 [candidate-true-positive]\n"
            "    new C → .d: D → (B) → .e: E → .f()\n"
        )

    def test_field_write_token(self):
        src = (
            "package p;\n"
            "class B { int x; }\n"
            "class A { void m() { B b = null; b.x = 1; } }"
        )
        _, _, verdicts = run_snippet(src)
        (v,) = verdicts
        assert render_chain(v.violation.site) == "b: B → .x"


class TestRenderText:
    def test_summary_lines(self):
        exes, config, verdicts = run_case("listing3")
        text = render(build_report(exes, verdicts, config), "text").decode()
        assert "accesses: 26" in text
        assert "potential violations: 21 (80.8 % of accesses)" in text
        assert "remaining: 2 (9.5 % of potential)" in text
        assert "D15 (layer 3): 7" in text
        assert "(hint: lift-forward)" in text
        assert "line: LineConnection → .start(): Connector → .owner()" in text

    def test_layer_names_shown(self):
        exes, config, verdicts = run_case("listing1")
        text = render(build_report(exes, verdicts, config), "text").decode()
        assert "0 data-classes: 10" in text


class TestRenderTable:
    def test_column_count_is_layers_plus_two(self):
        exes, config, verdicts = run_case("listing3")
        table_text = render(build_report(exes, verdicts, config), "table").decode()
        header = table_text.splitlines()[0]
        numeric_columns = header.split()[1:]  # after the executable label
        assert len(numeric_columns) == len(config.layer_indices) + 2
        assert numeric_columns[0] == "pv" and numeric_columns[-1] == "tp"

    def test_listing3_row_values(self):
        exes, config, verdicts = run_case("listing3")
        table_text = render(build_report(exes, verdicts, config), "table").decode()
        row = next(
            line for line in table_text.splitlines() if "constrainX" in line
        )
        assert row.split()[1:] == ["21", "11", "9", "9", "2", "2", "2", "2", "2", "2"]

    def test_totals_row(self):
        exes, config, verdicts = run_case("listing9")
        table_text = render(build_report(exes, verdicts, config), "table").decode()
        total = table_text.splitlines()[-1]
        assert total.split() == ["total", "9", "9", "7", "7", "5", "5", "4", "4", "4", "4"]


class TestRenderErrors:
    def test_unknown_format(self):
        exes, config, verdicts = run_snippet("package p;\nclass A { }")
        with pytest.raises(ValueError, match="unknown report format"):
            render(build_report(exes, verdicts, config), "xml")
