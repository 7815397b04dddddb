"""End-to-end command line behavior: exit codes, stream purity, explain."""

import collections
import contextlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demeterlint.adapt import RULE_KINDS
from demeterlint.cli import RunOptions, main, run
from demeterlint.codemodel import ResolutionMode
from demeterlint.presets import GENERIC, STACK
from demeterlint.report import input_digest

from conftest import CONJUNCTION_CONFIG, CONJUNCTION_SOURCE, OBJECT_STUB, STUBS, load_case
from test_lexer_oracle import java_like


def invoke(options: RunOptions):
    out, err = io.BytesIO(), io.StringIO()
    code = run(options, out, err)
    return code, out.getvalue(), err.getvalue()


def case_options(name, configs=(), **kw):
    case = load_case(name)
    return RunOptions(
        source_paths=tuple(case.java_files),
        stub_paths=tuple(case.stub_files),
        config_paths=tuple(configs),
        **kw,
    )


class TestExitCodes:
    def test_no_config_listing3_fails_with_21(self):
        code, out, err = invoke(case_options("listing3", format="json"))
        assert code == 1
        doc = json.loads(out)
        assert doc["totals"]["potential_violations"] == 21
        assert doc["totals"]["remaining"] == 21
        assert err == ""

    def test_full_stack_listing3_still_fails_on_two_tps(self):
        code, out, _ = invoke(case_options("listing3", STACK, format="json"))
        assert code == 1
        assert json.loads(out)["totals"]["remaining"] == 2

    def test_threshold_admits_known_tps(self):
        code, _, _ = invoke(case_options("listing3", STACK, fail_threshold=2))
        assert code == 0

    def test_clean_case_exits_zero(self):
        code, _, _ = invoke(case_options("listing1", STACK))
        assert code == 0

    def test_empty_directory_is_clean(self, tmp_path):
        code, out, err = invoke(
            RunOptions(source_paths=(tmp_path,), format="json")
        )
        assert code == 0
        assert json.loads(out)["totals"] == {
            "accesses": 0,
            "potential_violations": 0,
            "remaining": 0,
            "silenced_per_layer": [],
        }

    def test_adjourned_remainders_do_not_fail_ci(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text(
            "package p;\n"
            "class A { void m() { B b = null; b.f(); } }\n"
            "class B { void f() { } }"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema": "demeterlint-config/1",
                    "layer": 0,
                    "rules": [
                        {
                            "id": "R1",
                            "kind": "executable-grant",
                            "executables": ["p.A#*"],
                            "grants": ["p.B"],
                            "status": "adjourned",
                        }
                    ],
                }
            )
        )
        code, out, _ = invoke(
            RunOptions(source_paths=(src,), config_paths=(cfg,), format="json")
        )
        # The violation remains, but its status is adjourned, not a TP.
        assert json.loads(out)["totals"]["remaining"] == 1
        assert code == 0


#: The CLI option of each kind of JSON document, and its diagnostic code.
DOCUMENT_KINDS = [("stub_paths", "E-STUB"), ("config_paths", "E-CONFIG")]


class TestLoadErrors:
    def test_parse_error(self, tmp_path):
        bad = tmp_path / "Bad.java"
        bad.write_text("class A { void m() { x -> y; } }")
        code, out, err = invoke(RunOptions(source_paths=(bad,)))
        assert code == 2
        assert out == b""
        assert err.startswith("E-PARSE: ") and "Bad.java" in err

    def test_bind_error_strict(self, tmp_path):
        bad = tmp_path / "A.java"
        bad.write_text("package p;\nclass A { void m(Missing x) { } }")
        code, out, err = invoke(RunOptions(source_paths=(bad,)))
        assert (code, out) == (2, b"")
        assert err.startswith("E-BIND: ")

    def test_lenient_tolerates_unknown_types(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text("package p;\nclass A { void m(Missing x) { } }")
        code, _, err = invoke(
            RunOptions(source_paths=(src,), resolution=ResolutionMode.LENIENT)
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "decl",
        ["class A extends Gone { }", "class A implements Nope { }", "interface A extends Gone { }"],
    )
    def test_lenient_tolerates_unresolved_supertypes(self, tmp_path, decl):
        """An unresolved supertype is unknown under --lenient, and a
        positioned E-BIND error under --strict."""
        src = tmp_path / "A.java"
        src.write_text(f"package p;\n{decl}\n")
        lenient = RunOptions(source_paths=(src,), resolution=ResolutionMode.LENIENT)
        assert invoke(lenient)[0::2] == (0, "")
        code, out, err = invoke(RunOptions(source_paths=(src,)))
        name = decl.split()[-3]
        column = decl.index(name) + 1
        assert (code, out, err) == (2, b"", f"E-BIND: {src}:2:{column}: unknown type '{name}'\n")

    def test_lenient_unknown_supertype_named_like_a_declaration(self, tmp_path):
        """``Gone`` of the unnamed package is not in scope in ``p``, so
        lenient binding types p.A's supertype as unknown: no edge, and so
        no cycle through the declaration that shares its name."""
        (tmp_path / "Gone.java").write_text("class Gone extends p.A { }\n")
        (tmp_path / "A.java").write_text("package p;\npublic class A extends Gone { }\n")
        lenient = RunOptions(source_paths=(tmp_path,), resolution=ResolutionMode.LENIENT)
        assert invoke(lenient)[0::2] == (0, "")

    @pytest.mark.parametrize(
        "rule",
        [
            {"kind": "universal-friend-members", "member_predicate": ["public-static"]},
            {"kind": "universal-friend-types", "package_glob": 7},
        ],
    )
    def test_ill_typed_config_field(self, tmp_path, rule):
        src = tmp_path / "A.java"
        src.write_text("package p;\nclass A { void m(B b) { b.f(); } }\nclass B { void f() { } }")
        cfg = tmp_path / "rules.json"
        cfg.write_text(json.dumps(
            {"schema": "demeterlint-config/1", "rules": [{"id": "R1", **rule}]}
        ))
        code, out, err = invoke(RunOptions(source_paths=(src,), config_paths=(cfg,)))
        assert (code, out) == (2, b"")
        assert len(err.splitlines()) == 1 and err.startswith("E-CONFIG: ")

    def test_stub_error(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text("class A { }")
        stub = tmp_path / "stubs.json"
        stub.write_text('{"schema": "wrong"}')
        code, out, err = invoke(
            RunOptions(source_paths=(src,), stub_paths=(stub,))
        )
        assert (code, out) == (2, b"")
        assert err.startswith("E-STUB: ")

    @pytest.mark.parametrize(
        "types",
        [
            [1],
            {"a": 1},
            [{"name": "p.B", "supertypes": 7}],
            [{"name": "p.B", "members": [{"name": "g", "kind": "method", "type": 3}]}],
            [{"name": 5}],
        ],
    )
    def test_ill_typed_stub_field(self, tmp_path, types):
        src = tmp_path / "A.java"
        src.write_text(STUB_SOURCE)
        stub = tmp_path / "stubs.json"
        stub.write_text(json.dumps({"schema": "demeterlint-stubs/1", "types": types}))
        code, out, err = invoke(RunOptions(source_paths=(src,), stub_paths=(stub,)))
        assert (code, out) == (2, b"")
        assert len(err.splitlines()) == 1 and err.startswith("E-STUB: ")

    def test_config_error(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text("class A { }")
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{]")
        code, out, err = invoke(
            RunOptions(source_paths=(src,), config_paths=(cfg,))
        )
        assert (code, out) == (2, b"")
        assert err.startswith("E-CONFIG: ")

    def test_missing_source(self, tmp_path):
        code, out, err = invoke(
            RunOptions(source_paths=(tmp_path / "absent.java",))
        )
        assert (code, out) == (2, b"")
        assert err.startswith("E-PARSE: ") and "cannot read" in err

    def test_line_breaks_in_echoed_text_stay_on_one_line(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text('"a\u2028b\fc" class A { }')
        code, out, err = invoke(RunOptions(source_paths=(src,)))
        assert (code, out) == (2, b"")
        assert err.splitlines() == [
            f"E-PARSE: {src}:1:1: expected a type declaration, got '\"a\\u2028b\\x0cc\"'"
        ]

    def test_non_utf8_source(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_bytes(b"class A { /* caf\xe9 */ }")
        code, out, err = invoke(RunOptions(source_paths=(src,)))
        assert (code, out) == (2, b"")
        assert err == f"E-PARSE: cannot decode {src} as UTF-8\n"

    @pytest.mark.parametrize("key, prefix", DOCUMENT_KINDS)
    def test_non_utf8_document(self, tmp_path, key, prefix):
        src = tmp_path / "A.java"
        src.write_text("class A { }")
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = invoke(RunOptions(source_paths=(src,), **{key: (bad,)}))
        assert (code, out) == (2, b"")
        assert err == f"{prefix}: cannot decode {bad} as UTF-8\n"

    @pytest.mark.parametrize("key, prefix", DOCUMENT_KINDS)
    def test_document_nested_too_deep(self, tmp_path, key, prefix):
        src = tmp_path / "A.java"
        src.write_text("class A { }")
        deep = tmp_path / "deep.json"
        deep.write_text('{"rules": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = invoke(RunOptions(source_paths=(src,), **{key: (deep,)}))
        assert (code, out) == (2, b"")
        assert err == f"{prefix}: {deep}: nesting too deep to parse\n"

    @pytest.mark.parametrize("fmt", ["json", "text", "table"])
    def test_non_utf8_file_name(self, tmp_path, fmt):
        try:
            src = Path(os.fsdecode(os.path.join(os.fsencode(tmp_path), b"A\xff.java")))
            src.write_text("package p;\nclass A { void m(A a) { a.m(null); } }\n")
        except (OSError, UnicodeError):
            pytest.skip("the filesystem refuses a non-UTF-8 file name")
        code, out, err = invoke(
            RunOptions(source_paths=(tmp_path,), stub_paths=(OBJECT_STUB,), format=fmt)
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["totals"]["accesses"] == 1


class TestDuplicateInputs:
    SOURCE = "package p;\nclass A { void m(A a) { a.m(null); a.m(a); } }\n"

    def test_a_file_named_again_is_analyzed_once(self, tmp_path, monkeypatch):
        src = tmp_path / "sub" / "A.java"
        src.parent.mkdir()
        src.write_text(self.SOURCE)
        (tmp_path / "L.java").symlink_to(src)
        monkeypatch.chdir(tmp_path)
        once, again = (
            invoke(RunOptions(source_paths=paths, stub_paths=(OBJECT_STUB,), format="json"))
            for paths in [
                (Path("sub/A.java"),),
                (Path("sub/A.java"), Path("sub/../sub/A.java"), tmp_path / "sub", Path("L.java")),
            ]
        )
        # The same bytes, the digest of the first spelling's path included.
        assert again == once
        code, out, err = again
        assert (code, err) == (0, "")
        assert json.loads(out)["totals"]["accesses"] == 2

    @pytest.mark.parametrize("second", [SOURCE, "package p;\nclass A { }\n"],
                             ids=["same-text", "other-text"])
    def test_type_declared_twice(self, tmp_path, second):
        first, other = tmp_path / "A.java", tmp_path / "B.java"
        first.write_text(self.SOURCE)
        other.write_text(second)
        code, out, err = invoke(RunOptions(source_paths=(first, other), stub_paths=(OBJECT_STUB,)))
        assert (code, out) == (2, b"")
        assert err == f"E-BIND: {other}:2:1: duplicate type p.A\n"

    def test_member_type_named_like_an_anonymous_body(self, tmp_path):
        # The anonymous body skips the name p.A$anon1 that the member type
        # takes, so the unit analyzes and a.g() is the one violation.
        src = tmp_path / "A.java"
        src.write_text(
            "package p; interface I { }\nclass A { class anon1 { void g() { } } "
            "void m() { I i = new I() { }; anon1 a = null; a.g(); } }\n"
        )
        code, out, err = invoke(
            RunOptions(source_paths=(src,), stub_paths=(OBJECT_STUB,), format="json")
        )
        assert (code, err) == (1, "")
        (verdict,) = json.loads(out)["verdicts"]
        assert verdict["site"] == "p.A#m()@0001" and verdict["receiver"] == "p.A$anon1"


def _returning(expr: str) -> str:
    return "class A { String m() { return " + expr + "; } }"


def _jdk_options(path, **kw) -> RunOptions:
    return RunOptions(source_paths=(path,), stub_paths=(STUBS / "jdk.json",), **kw)


class TestDeepNesting:
    """Nesting depth is bounded by the interpreter's stack, never a crash."""

    @pytest.mark.parametrize(
        "src",
        [
            _returning("(" * 100 + "null" + ")" * 100),
            _returning(" + ".join(['"a"'] * 5000)),
            "class A { A g() { return this; } void m() { this" + ".g()" * 3000 + "; } }",
        ],
        ids=["parens-100", "concat-5000", "calls-3000"],
    )
    def test_exit_code_and_diagnostics(self, tmp_path, src):
        path = tmp_path / "A.java"
        path.write_text(src)
        code, _, err = invoke(_jdk_options(path, format="json"))
        assert code in (0, 1, 2)
        assert all(re.match(r"^[EW]-[A-Z]+: ", line) for line in err.splitlines())

    def test_too_deep_to_parse(self, tmp_path):
        path = tmp_path / "A.java"
        path.write_text(_returning("(" * 1000 + "null" + ")" * 1000))
        code, out, err = invoke(_jdk_options(path))
        assert (code, out) == (2, b"")
        assert err.startswith(f"E-PARSE: {path}:1:") and "nesting too deep" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "body",
        [
            "this" + ".g()" * 5000 + ";",
            "A x = this" + ".f" * 5000 + ";",
            "this" + ".f" * 5000 + " = null;",
        ],
        ids=["calls-5000", "field-reads-5000", "field-write-5000"],
    )
    def test_long_postfix_chain_is_analyzed(self, tmp_path, body):
        path = tmp_path / "A.java"
        path.write_text("class A { A f; A g() { return this; } void m() { " + body + " } }")
        code, out, err = invoke(_jdk_options(path, format="json"))
        assert (code, err) == (0, "")
        assert json.loads(out)["totals"]["accesses"] == 5000

    def test_long_else_if_chain_is_analyzed(self, tmp_path):
        arms = " else ".join(f"if (k == {i}) g();" for i in range(5000))
        path = tmp_path / "A.java"
        path.write_text("class A { void g() { } void m(int k) { " + arms + " } }")
        code, out, err = invoke(_jdk_options(path, format="json"))
        assert (code, err) == (0, "")
        assert json.loads(out)["totals"]["accesses"] == 5000

    def test_nested_supertype_resolution_keeps_the_contract(self, tmp_path):
        # Each E<i>$T's supertype X is looked up among the member types E<i>
        # inherits, whose supertypes resolve only after E<i-1>$T's, so
        # declaring the last E first nests one resolution per class.
        lines = [f"class E{i} extends E{i - 1}$T {{ class T extends X {{ }} }}" for i in range(600)]
        lines[0] = "class E0 { class T { } }"
        path = tmp_path / "E.java"
        path.write_text("class X { } class Z { class X { } }\n" + "\n".join(reversed(lines)))
        code, _, err = invoke(_jdk_options(path))
        assert code in (0, 1, 2)
        assert all(re.match(r"^[EW]-[A-Z]+: ", line) for line in err.splitlines())

    def test_long_concatenation_is_analyzed(self, tmp_path):
        path = tmp_path / "A.java"
        path.write_text(_returning(" + ".join(['"a"'] * 600)))
        code, out, err = invoke(_jdk_options(path, format="json"))
        assert (code, err) == (0, "")
        assert json.loads(out)["totals"]["accesses"] == 0


def _stub_chain(path, length: int, parent_first: bool):
    """A stub document declaring p.T0 extends p.T1 ... extends p.T<length-1>."""
    types = [
        {"name": f"p.T{i}", "supertypes": [f"p.T{i + 1}"] if i + 1 < length else []}
        for i in range(length)
    ]
    types[-1]["members"] = [{"name": "f", "kind": "method", "type": "p.T0"}]
    if parent_first:
        types.reverse()
    path.write_text(json.dumps({"schema": "demeterlint-stubs/1", "types": types}))
    return path


class TestDeepStubChains:
    """Supertype walks are loops, so a chain's depth is bounded by memory only."""

    @pytest.mark.parametrize("parent_first", [False, True], ids=["child-first", "parent-first"])
    def test_long_supertype_chain_is_analyzed(self, tmp_path, parent_first):
        src = tmp_path / "A.java"
        src.write_text("package q;\nimport p.*;\nclass A { void m(T0 t) { t.f().f(); } }\n")
        stub = _stub_chain(tmp_path / "chain.json", 3000, parent_first)
        code, out, err = invoke(RunOptions(source_paths=(src,), stub_paths=(stub,), format="json"))
        assert (code, err) == (0, "")
        assert json.loads(out)["totals"]["accesses"] == 2

    def test_cyclic_supertypes_message(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text("package q;\nclass X { }\n")
        stub = tmp_path / "cycle.json"
        stub.write_text(json.dumps({"schema": "demeterlint-stubs/1", "types": [
            {"name": "p.D", "supertypes": ["p.A"]},
            {"name": "p.A", "supertypes": ["p.E", "p.B"]},
            {"name": "p.B", "supertypes": ["p.C"]},
            {"name": "p.C", "supertypes": ["p.A"]},
            {"name": "p.E"},
        ]}))
        code, out, err = invoke(RunOptions(source_paths=(src,), stub_paths=(stub,)))
        assert (code, out) == (2, b"")
        assert err == "E-STUB: cyclic supertypes: p.D -> p.A -> p.B -> p.C -> p.A\n"


class TestConfigWarnings:
    def test_primitive_names_are_not_unknown_types(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text("package p;\nclass A { void m(B b) { b.f(); } }\nclass B { void f() { } }")
        cfg = tmp_path / "rules.json"
        cfg.write_text(json.dumps({"schema": "demeterlint-config/1", "rules": [
            {"id": "I1", "kind": "friend-implication", "pairs": [["java.lang.Object", "int"]]},
            {"id": "G1", "kind": "executable-grant", "executables": ["p.A#*"],
             "grants": ["int", "double[][]"]},
        ]}))
        code, _, err = invoke(RunOptions(
            source_paths=(src,), stub_paths=(OBJECT_STUB,), config_paths=(cfg,)
        ))
        assert (code, err) == (0, "")


class TestStreamPurity:
    def test_warnings_never_pollute_json(self):
        # The full stack names one type outside the desk stubs, which warns.
        code, out, err = invoke(case_options("listing3", STACK, format="json"))
        json.loads(out)  # must stay parseable
        assert err.startswith("W-CONFIG: rule D27")

    def test_table_format(self):
        _, out, _ = invoke(case_options("listing3", GENERIC, format="table"))
        lines = out.decode().splitlines()
        assert lines[0].split()[:2] == ["executable", "pv"]
        row = next(l for l in lines if "constrainX" in l)
        assert row.split()[1:] == ["21", "11", "9", "9", "2", "2", "2", "2"]


class TestExplain:
    def find_remaining_sites(self):
        _, out, _ = invoke(case_options("listing3", STACK, format="json"))
        doc = json.loads(out)
        return [v["site"] for v in doc["verdicts"] if v["outcome"] == "remaining"]

    def test_remaining_derivation(self):
        site = self.find_remaining_sites()[0]
        code, out, err = invoke(
            case_options("listing3", STACK, mode="explain", site=site)
        )
        text = out.decode()
        assert code == 0
        assert text.startswith(f"site: {site}\n")
        assert "base seeds:" in text
        assert "CH.ifa.draw.figures.ElbowHandle  [self]" in text
        # Layer 3 grants the constructor parameter type class-wide.
        assert "+CH.ifa.draw.figures.LineConnection  [granted:D15]" in text
        assert text.endswith("remaining: candidate-true-positive (hint: lift-forward)\n")

    def test_silenced_derivation(self):
        _, out, _ = invoke(case_options("listing3", STACK, format="json"))
        doc = json.loads(out)
        silenced = next(
            v for v in doc["verdicts"]
            if v["outcome"] == "silenced" and v["rule"] == "D15"
        )
        _, out2, _ = invoke(
            case_options("listing3", STACK, mode="explain", site=silenced["site"])
        )
        assert out2.decode().rstrip().endswith("verdict: silenced at layer 3 by D15")

    def test_friendly_site_explains_no_violation(self):
        _, out, _ = invoke(case_options("listing1", STACK, format="json"))
        violating = {v["site"] for v in json.loads(out)["verdicts"]}
        case = load_case("listing1")
        # Pick a site that never became a violation.
        from conftest import build_case_front

        _, exes = build_case_front(case)
        friendly = next(
            s.site_id
            for ex in exes
            for s in ex.body_accesses
            if s.site_id not in violating
        )
        code, out2, _ = invoke(
            case_options("listing1", STACK, mode="explain", site=friendly)
        )
        assert code == 0
        assert "verdict: no violation" in out2.decode()

    def test_unknown_site_is_a_config_error(self):
        code, out, err = invoke(
            case_options("listing3", STACK, mode="explain", site="nope@0001")
        )
        assert (code, out) == (2, b"")
        assert err.splitlines()[-1].startswith("E-CONFIG: ")
        assert "unknown site id" in err


class TestStats:
    def test_stats_json_subset(self):
        code, out, _ = invoke(case_options("listing3", STACK, mode="stats", format="json"))
        assert code == 0
        doc = json.loads(out)
        assert "rows" not in doc and "verdicts" not in doc
        assert doc["totals"]["potential_violations"] == 21
        assert {e["rule"]: e["count"] for e in doc["waterfall"]}["D15"] == 7

    def test_stats_text(self):
        code, out, _ = invoke(case_options("listing3", STACK, mode="stats"))
        assert code == 0
        assert "potential violations: 21 (80.8 % of accesses)" in out.decode()

    def test_stats_text_names_a_layer_no_document_claims(self, tmp_path):
        config = tmp_path / "own.json"
        config.write_text(json.dumps({
            "schema": "demeterlint-config/1",
            "name": "own",
            "rules": [{
                "id": "R5", "kind": "universal-friend-types", "layer": 5,
                "types": ["java.awt.Rectangle"],
            }],
        }))
        code, out, _ = invoke(case_options("listing3", [config], mode="stats"))
        assert code == 0
        assert "\nlayer 5 (layer-5): 4\n" in out.decode()


class TestDeterminism:
    def test_byte_identical_runs(self):
        first, again = (
            invoke(case_options("listing9", STACK, format="json"))[1] for _ in range(2)
        )
        assert first == again


#: Two executables whose derivations show an ``anon-inner-share`` grant of
#: an implied type and a ``friend-implication`` grant; S0 is disabled, so S1
#: is the first enabled share rule and S2 only matches as well.
GRANTS_SOURCE = """package p;
interface R { void go(); }
class A {
  B helper() { return null; }
  void m(B b) {
    R r = new R() { public void go() { helper().f(); C c = null; c.g(); } };
  }
  void n(B b) { C c = null; c.g(); }
}
class B { void f() { } }
class C { void g() { } }
"""
GRANTS_CONFIGS = (
    {"schema": "demeterlint-config/1", "name": "share", "rules": [
        {"id": "S0", "kind": "anon-inner-share", "enabled": False},
        {"id": "S1", "kind": "anon-inner-share"},
        {"id": "S2", "kind": "anon-inner-share"},
    ]},
    {"schema": "demeterlint-config/1", "name": "implied", "rules": [
        {"id": "I1", "kind": "friend-implication", "pairs": [["p.B", "p.C"]]},
    ]},
)
GRANTS_EXPLAINED = {
    "p.A$anon1#go()@0003": """site: p.A$anon1#go()@0003
access: method-call .g
receiver: p.C (expression)
chain: c: C \u2192 .g()
executable: p.A$anon1#go()
base seeds:
  p.A$anon1  [self]
layer 0 (share):
    +p.A  [granted:S1]
    +p.A$anon1  [granted:S1]
    +p.B  [granted:S1]
layer 1 (implied):
    +p.C  [granted:S1]
verdict: silenced at layer 1 by I1
""",
    "p.A#n(B)@0001": """site: p.A#n(B)@0001
access: method-call .g
receiver: p.C (expression)
chain: c: C \u2192 .g()
executable: p.A#n(B)
base seeds:
  p.A  [self]
  p.B  [param-type]
layer 0 (share): no change
layer 1 (implied):
    +p.C  [granted:I1]
verdict: silenced at layer 1 by I1
""",
}


class TestExplainGrants:
    @pytest.mark.parametrize("site", sorted(GRANTS_EXPLAINED))
    def test_shared_and_implied_grants(self, tmp_path, site):
        src = tmp_path / "A.java"
        src.write_text(GRANTS_SOURCE)
        configs = []
        for k, document in enumerate(GRANTS_CONFIGS):
            configs.append(tmp_path / f"layer-{k}.json")
            configs[-1].write_text(json.dumps(document))
        code, out, err = invoke(
            RunOptions(source_paths=(src,), stub_paths=(OBJECT_STUB,),
                       config_paths=tuple(configs), mode="explain", site=site)
        )
        assert (code, err) == (0, "")
        assert out.decode("utf-8") == GRANTS_EXPLAINED[site]


class TestConjunction:
    def test_conjunction_of_redundant_rules_classifies(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text(CONJUNCTION_SOURCE)
        cfg = tmp_path / "rules.json"
        cfg.write_text(CONJUNCTION_CONFIG)
        code, out, err = invoke(
            RunOptions(source_paths=(src,), stub_paths=(OBJECT_STUB,),
                       config_paths=(cfg,), format="json")
        )
        assert (code, err) == (0, "")
        (verdict,) = json.loads(out)["verdicts"]
        assert (verdict["member"], verdict["layer"], verdict["rule"]) == ("f", 0, "I1")


LISTING3 = load_case("listing3")
LISTING3_TEXT = LISTING3.java_files[0].read_text(encoding="utf-8")
DIAGNOSTIC = re.compile(r"^[EW]-[A-Z]+: ")

#: Source bytes: arbitrary text and bytes, and listing3 with Java-like
#: fragments spliced in, which reaches binding and classification.
source_bytes = st.one_of(
    st.text().map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.binary(),
    st.tuples(st.integers(0, len(LISTING3_TEXT)), java_like).map(
        lambda cut: (LISTING3_TEXT[: cut[0]] + cut[1] + LISTING3_TEXT[cut[0] :]).encode("utf-8")
    ),
)


class TestContractFuzz:
    @settings(max_examples=60, deadline=None)
    @given(source_bytes)
    def test_any_source_keeps_the_contract(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "ElbowHandle.java"
            src.write_bytes(data)
            code, _, err = invoke(
                RunOptions(source_paths=(src,), stub_paths=tuple(LISTING3.stub_files),
                           config_paths=tuple(STACK), format="json")
            )
        assert code in (0, 1, 2)
        for line in err.splitlines():
            assert DIAGNOSTIC.match(line), line


#: Any JSON value, for config fields of the wrong shape.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: Strings a listing3 config could mean: its types, members, globs and ids.
config_words = st.sampled_from([
    "", "[]", "int", "int[]", "*", "p.*", "CH.ifa.draw.figures.*", "java.lang.Object",
    "CH.ifa.draw.figures.LineConnection", "CH.ifa.draw.framework.Connector",
    "CH.ifa.draw.framework.ConnectionFigure", "java.awt.Point", "start*", "end",
    "CH.ifa.draw.figures.ElbowHandle#constrainX(int)", "public-static", "array-length",
    "accepted", "adjourned", "review-pending",
])
config_records = st.fixed_dictionaries(
    {}, optional={key: config_words | json_values for key in ("type", "name", "field", "element")}
)
config_field = st.one_of(
    json_values,
    config_words,
    st.lists(config_words, max_size=3),
    st.lists(config_records, max_size=2),
    st.lists(st.lists(config_words, min_size=2, max_size=2), max_size=2),
    config_records,
)
RULE_FIELDS = (
    "layer", "tag", "types", "package_glob", "implementors_of", "member_predicate",
    "member_pattern", "matcher", "grants", "pairs", "executables", "status", "hint",
    "enabled", "field_map", "infer_via",
)
config_rule = st.builds(
    lambda rule_id, kind, fields: {"id": rule_id, "kind": kind, **fields},
    st.sampled_from(["R1", "R2", "R3"]) | json_values,
    st.sampled_from(sorted(RULE_KINDS)) | json_values,
    st.dictionaries(st.sampled_from(RULE_FIELDS), config_field, max_size=5),
)
#: Config documents: random kinds, each field drawn from any JSON value.
config_documents = st.builds(
    lambda layer, name, rules: {
        "schema": "demeterlint-config/1", "layer": layer, "name": name, "rules": rules,
    },
    st.integers(0, 3) | json_values,
    st.text(max_size=6) | json_values,
    st.lists(config_rule, max_size=4) | json_values,
)


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(config_documents)
    def test_any_config_keeps_the_contract(self, document):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "rules.json"
            cfg.write_text(json.dumps(document))
            code, _, err = invoke(
                RunOptions(source_paths=tuple(LISTING3.java_files),
                           stub_paths=tuple(LISTING3.stub_files),
                           config_paths=(cfg,), format="json")
            )
        assert code in (0, 1, 2)
        for line in err.splitlines():
            assert DIAGNOSTIC.match(line), line


#: Words a stub for ``STUB_SOURCE`` could hold: type names, member names,
#: kinds and visibilities.
stub_words = st.sampled_from([
    "", "[]", "int", "int[]", "void", "p.B", "p.B[]", "p.C", "p.A", "java.lang.Object",
    "g", "<init>", "class", "interface", "field", "method", "constructor",
    "public", "private", "package",
])
stub_values = json_values | stub_words | st.lists(stub_words, max_size=2)
TYPE_FIELDS = ("name", "kind", "supertypes", "members")
MEMBER_FIELDS = ("name", "kind", "type", "params", "static", "visibility")


def _stub_document(type_edits: dict, member_edits: dict, extra: list) -> dict:
    """The stub ``STUB_SOURCE`` needs, ``p.B`` with a method ``g()``, with
    some fields replaced and more type records after it."""
    member = {"name": "g", "kind": "method", "type": "p.B", "params": [], "static": False,
              "visibility": "public", **member_edits}
    record = {"name": "p.B", "kind": "class", "supertypes": [], "members": [member],
              **type_edits}
    return {"schema": "demeterlint-stubs/1", "types": [record, *extra]}


#: Stub documents: the one ``STUB_SOURCE`` needs with up to two fields of
#: its type and of its member drawn from any JSON value or stub word, plus
#: named records of such fields; or a document whose type list is any JSON
#: value.
stub_documents = st.builds(
    _stub_document,
    st.dictionaries(st.sampled_from(TYPE_FIELDS), stub_values, max_size=2),
    st.dictionaries(st.sampled_from(MEMBER_FIELDS), stub_values, max_size=2),
    st.lists(
        st.fixed_dictionaries(
            {"name": stub_words}, optional={key: stub_values for key in TYPE_FIELDS[1:]}
        )
        | json_values,
        max_size=2,
    ),
) | st.builds(lambda types: {"schema": "demeterlint-stubs/1", "types": types}, json_values)
STUB_SOURCE = "package p;\nclass A { void f(B b) { b.g(); } }"


class TestStubFuzz:
    @settings(max_examples=60, deadline=None)
    @given(stub_documents)
    def test_any_stub_keeps_the_contract(self, document):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "A.java"
            src.write_text(STUB_SOURCE)
            stub = Path(tmp) / "stubs.json"
            stub.write_text(json.dumps(document))
            code, _, err = invoke(
                RunOptions(source_paths=(src,), stub_paths=(OBJECT_STUB, stub), format="json")
            )
        assert code in (0, 1, 2)
        for line in err.splitlines():
            assert DIAGNOSTIC.match(line), line


class TestReproduceScript:
    def test_non_utf8_source_is_a_parse_error(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "reproduce_jhotdraw",
            Path(__file__).resolve().parents[1] / "scripts" / "reproduce_jhotdraw.py",
        )
        repro = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(repro)
        src = tmp_path / "A.java"
        src.write_bytes(b"class A { /* caf\xe9 */ }")
        assert repro.main([str(tmp_path), "--stubs", str(STUBS / "jdk.json")]) == 2
        assert capsys.readouterr().err == f"E-PARSE: cannot decode {src} as UTF-8\n"


class TestAnonymousMemberType:
    SOURCE = (
        "package p;\ninterface I { void f(); }\n"
        "class A { void m() { I i = new I() { class In { void g() { } } "
        "public void f() { In x = new In(); x.g(); } }; } }"
    )

    def test_member_class_of_anonymous_body(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text(self.SOURCE)
        code, _, err = invoke(RunOptions(source_paths=(src,), stub_paths=(OBJECT_STUB,)))
        assert (code, err) == (0, "")
        code, out, err = invoke(
            RunOptions(
                source_paths=(src,),
                stub_paths=(OBJECT_STUB,),
                mode="explain",
                site="p.A$anon1#f()@0001",
            )
        )
        assert (code, err) == (0, "")
        lines = out.decode().splitlines()
        assert "access: method-call .g" in lines
        assert "receiver: p.A$anon1$In (expression)" in lines


def _write(root, files: dict) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


class TestTypeNames:
    """Simple type names resolve in Java's scope order, in any file order."""

    def test_member_type_of_another_type_is_not_in_scope(self, tmp_path):
        src = tmp_path / "K.java"
        src.write_text(
            "package p; interface J { class K { } } class K { void f() { } } "
            "class B { void m(K y) { y.f(); } }"
        )
        code, out, err = invoke(
            RunOptions(source_paths=(src,), stub_paths=(OBJECT_STUB,), format="json")
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["totals"]["accesses"] == 1

    def test_single_type_import_shadows_the_package(self, tmp_path):
        _write(tmp_path, {
            "q/K.java": "package q; public class K { public void g() { } }",
            "p/K.java": "package p; class K { void f() { } }",
            "p/B.java": "package p; import q.K; class B { void m(K y) { y.g(); } }",
        })
        code, out, err = invoke(
            RunOptions(source_paths=(tmp_path,), stub_paths=(OBJECT_STUB,), format="json")
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["totals"]["accesses"] == 1

    def test_inherited_member_type_in_any_file_order(self, tmp_path):
        # D's supertype In is a member type B inherits through Mid, declared
        # in files that may come after B's.
        _write(tmp_path, {
            "A.java": "package p;\nclass A { class In { C c() { return null; } } }\n"
                      "class C { C d() { return null; } void g() { } }\n",
            "Mid.java": "package p;\nclass Mid extends A { }\n",
            "B.java": "package p;\nclass B extends Mid { class D extends In "
                      "{ void m(In x) { c().d().g(); } } }\n",
        })
        files = [tmp_path / name for name in ("B.java", "Mid.java", "A.java")]
        reports = []
        for order in itertools.permutations(files):
            code, out, err = invoke(
                RunOptions(source_paths=order, stub_paths=(OBJECT_STUB,), format="json")
            )
            assert (code, err) == (1, "")
            doc = json.loads(out)
            del doc["digest"]
            reports.append(doc)
        assert reports[0]["totals"]["potential_violations"] == 2
        assert all(doc == reports[0] for doc in reports)


class TestImportGraph:
    @staticmethod
    def _child(body: str) -> subprocess.CompletedProcess:
        """Run ``body`` in a fresh interpreter that imports this package from
        source.  ``before`` holds the modules the interpreter had loaded
        before the body ran: a site may preload some."""
        src = str(Path(importlib.util.find_spec("demeterlint").origin).parents[1])
        child = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"sys.path.insert(0, {src!r})\n"
        ) + body
        return subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=60
        )

    @staticmethod
    def _argv(fmt: str) -> list[str]:
        case = load_case("listing3")
        return (
            case.source_args
            + [a for p in case.stub_args for a in ("--stubs", p)]
            + [a for p in STACK for a in ("--config", str(p))]
            + ["--format", fmt]
        )

    def test_hook_process_imports_no_code_generating_module(self):
        """A per-file run imports neither ``dataclasses`` nor ``decimal``, nor
        ``inspect``, which ``dataclasses`` pulls in."""
        proc = self._child(
            "import demeterlint.cli\n"
            f"code = demeterlint.cli.main({self._argv('json')!r})\n"
            "loaded = [m for m in ('dataclasses', 'inspect', 'decimal') if m in sys.modules]\n"
            "print(code, loaded, file=sys.stderr)\n"
        )
        assert proc.stderr.splitlines()[-1] == "1 []"
        assert json.loads(proc.stdout)["totals"]["remaining"] == 2

    def test_import_loads_neither_argparse_nor_hashlib(self):
        """Only ``main`` parses argv and only the json writer hashes, so
        importing the front end loads neither."""
        proc = self._child(
            "import demeterlint.cli\n"
            "lazy = {'argparse', 'gettext', 'hashlib', '_hashlib'}\n"
            "print(sorted(lazy & (set(sys.modules) - before)))\n"
        )
        assert proc.stdout == "[]\n", proc.stderr

    def test_text_run_never_loads_hashlib(self):
        proc = self._child(
            "import demeterlint.cli\n"
            f"code = demeterlint.cli.main({self._argv('text')!r})\n"
            "loaded = sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before))\n"
            "print(code, loaded, file=sys.stderr)\n"
        )
        assert proc.stderr.splitlines()[-1] == "1 []"
        assert proc.stdout.startswith("accesses: ")

    def test_each_input_file_is_opened_once(self, monkeypatch):
        """Each stub and config file is read once, for its loader and for
        the digest alike."""
        case = load_case("listing3")
        opened = collections.Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        code, out, _ = invoke(case_options("listing3", STACK, format="json"))
        monkeypatch.undo()
        assert code == 1 and json.loads(out)["digest"]
        files = [str(p) for p in (*case.stub_files, *STACK, *case.java_files)]
        assert {f: opened[f] for f in files} == dict.fromkeys(files, 1)

    @pytest.mark.parametrize("mode", ["analyze", "stats"])
    def test_json_digest_is_the_input_digest(self, mode):
        case = load_case("listing3")
        code, out, _ = invoke(case_options("listing3", STACK, format="json", mode=mode))
        assert code == (1 if mode == "analyze" else 0)
        inputs = (
            [("stub", str(p), p.read_text(encoding="utf-8")) for p in case.stub_files]
            + [("config", str(p), Path(p).read_text(encoding="utf-8")) for p in STACK]
            + [("source", str(p), p.read_text(encoding="utf-8")) for p in case.java_files]
        )
        assert json.loads(out)["digest"] == input_digest(inputs)


class TestMain:
    def test_main_end_to_end(self, tmp_path, capfdbinary):
        case = load_case("listing1")
        argv = (
            case.source_args
            + [a for p in case.stub_args for a in ("--stubs", p)]
            + [a for p in STACK for a in ("--config", str(p))]
            + ["--format", "json"]
        )
        assert main(argv) == 0
        doc = json.loads(capfdbinary.readouterr().out)
        assert doc["totals"]["potential_violations"] == 10

    @pytest.mark.parametrize("mode, fmt", [
        ("analyze", "json"), ("analyze", "text"), ("explain", "text"),
    ])
    def test_report_captured_by_redirect_stdout(self, mode, fmt):
        """``main`` under ``contextlib.redirect_stdout(io.StringIO())``, a
        text stream with no ``buffer``, writes the decoded artifact there:
        the exit code and text are those ``run`` gives into a byte stream."""
        case = load_case("listing3")
        _, report, _ = invoke(case_options("listing3", format="json"))
        site = json.loads(report)["verdicts"][0]["site"]
        code, out, _ = invoke(case_options("listing3", mode=mode, format=fmt, site=site))
        argv = case.source_args + [a for p in case.stub_args for a in ("--stubs", p)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            assert main(argv + ["--mode", mode, "--format", fmt, "--site", site]) == code
        assert captured.getvalue() == out.decode("utf-8")

    def test_explain_requires_site(self, tmp_path, capfd):
        src = tmp_path / "A.java"
        src.write_text("class A { }")
        assert main([str(src), "--mode", "explain"]) == 2
        assert "E-CONFIG" in capfd.readouterr().err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
