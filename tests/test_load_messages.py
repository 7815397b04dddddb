"""Golden diagnostics of the stub and rule document loaders.

One malformed document per error branch of ``load_stubs`` and
``load_config``, with the exact stderr line the command line prints for it
(exit 2, nothing on stdout).  ``{p}`` stands for the document's path and
``{q}`` for the second document's, where a case has two.
"""

import io
import json

import pytest

from demeterlint.cli import RunOptions, run

STUB = {"schema": "demeterlint-stubs/1"}
CONFIG = {"schema": "demeterlint-config/1"}


def _types(*types) -> str:
    return json.dumps({**STUB, "types": list(types)})


def _type(**fields) -> str:
    return _types({"name": "p.B", **fields})


def _members(*members) -> str:
    return _type(members=list(members))


def _method(**fields) -> str:
    return _members({"name": "g", "kind": "method", **fields})


def _rules(*rules) -> str:
    return json.dumps({**CONFIG, "rules": list(rules)})


def _rule(kind: str, **fields) -> str:
    return _rules({"id": "R1", "kind": kind, **fields})


def _expect(tmp_path, key: str, documents, expected: str) -> None:
    """Write ``documents`` (None: the file is left absent), run the CLI with
    them as stub or config files, and compare the one stderr line."""
    src = tmp_path / "A.java"
    src.write_text("class A { }")
    paths = []
    for i, text in enumerate(documents):
        path = tmp_path / f"doc{i}.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        paths.append(path)
    out, err = io.BytesIO(), io.StringIO()
    code = run(RunOptions(source_paths=(src,), **{key: tuple(paths)}), out, err)
    names = {"p": paths[0], "q": paths[-1]}
    assert (code, out.getvalue(), err.getvalue()) == (2, b"", expected.format(**names) + "\n")


STUB_CASES = {
    "unreadable": (
        [None],
        "E-STUB: cannot read {p}: [Errno 2] No such file or directory: '{p}'",
    ),
    "not-json": (
        ["{]"],
        "E-STUB: {p}: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    "wrong-schema": (['{"schema": "wrong"}'], "E-STUB: {p}: expected schema demeterlint-stubs/1"),
    "not-an-object": (["[]"], "E-STUB: {p}: expected schema demeterlint-stubs/1"),
    "types-not-a-list": (
        [json.dumps({**STUB, "types": {}})],
        "E-STUB: {p}: 'types' must be a list",
    ),
    "types-null": ([json.dumps({**STUB, "types": None})], "E-STUB: {p}: 'types' must be a list"),
    "type-not-an-object": ([_types(1)], "E-STUB: {p}: a type needs a non-empty string 'name'"),
    "type-without-name": ([_types({})], "E-STUB: {p}: a type needs a non-empty string 'name'"),
    "type-empty-name": (
        [_types({"name": ""})],
        "E-STUB: {p}: a type needs a non-empty string 'name'",
    ),
    "type-name-not-a-string": (
        [_types({"name": 5})],
        "E-STUB: {p}: a type needs a non-empty string 'name'",
    ),
    "decl-kind": ([_type(kind="enum")], "E-STUB: {p}: p.B: 'enum' is not a valid DeclKind"),
    "decl-kind-list": ([_type(kind=[])], "E-STUB: {p}: p.B: [] is not a valid DeclKind"),
    "decl-kind-null": ([_type(kind=None)], "E-STUB: {p}: p.B: None is not a valid DeclKind"),
    "decl-kind-first": (
        [_type(kind="enum", supertypes=7)],
        "E-STUB: {p}: p.B: 'enum' is not a valid DeclKind",
    ),
    "supertypes-not-a-list": (
        [_type(supertypes=7)],
        "E-STUB: {p}: p.B: 'supertypes' must be a list",
    ),
    "supertypes-null": (
        [_type(supertypes=None)],
        "E-STUB: {p}: p.B: 'supertypes' must be a list",
    ),
    "supertypes-not-strings": (
        [_type(supertypes=["", 1])],
        "E-STUB: {p}: p.B: 'supertypes' must be a list of strings",
    ),
    "supertype-empty": ([_type(supertypes=["p.C", " [] "])], "E-STUB: empty type name"),
    "members-not-a-list": ([_type(members={})], "E-STUB: {p}: p.B: 'members' must be a list"),
    "member-not-an-object": (
        [_members(1)],
        "E-STUB: bad member in p.B: needs a string 'name' and a 'kind'",
    ),
    "member-without-kind": (
        [_members({"name": "g"})],
        "E-STUB: bad member in p.B: needs a string 'name' and a 'kind'",
    ),
    "member-name-not-a-string": (
        [_members({"name": 1, "kind": "method"})],
        "E-STUB: bad member in p.B: needs a string 'name' and a 'kind'",
    ),
    "member-kind": (
        [_method(kind="ctor")],
        "E-STUB: bad member in p.B: 'ctor' is not a valid MemberKind",
    ),
    "member-kind-list": (
        [_method(kind=[])],
        "E-STUB: bad member in p.B: [] is not a valid MemberKind",
    ),
    "member-kind-null": (
        [_method(kind=None)],
        "E-STUB: bad member in p.B: None is not a valid MemberKind",
    ),
    "member-type-not-a-string": ([_method(type=3)], "E-STUB: p.B.g: 'type' must be a string"),
    "member-type-null": ([_method(type=None)], "E-STUB: p.B.g: 'type' must be a string"),
    "member-type-empty": ([_method(type="[]")], "E-STUB: empty type name"),
    "member-type-first": ([_method(type=3, params=7)], "E-STUB: p.B.g: 'type' must be a string"),
    "params-not-a-list": ([_method(params="int")], "E-STUB: p.B.g: 'params' must be a list"),
    "params-not-strings": (
        [_method(params=["", 1])],
        "E-STUB: p.B.g: 'params' must be a list of strings",
    ),
    "param-empty": ([_method(params=["int", ""])], "E-STUB: empty type name"),
    "field-with-params": (
        [_members({"name": "f", "kind": "field", "type": "int", "params": ["int"]})],
        "E-STUB: field p.B.f must not list params",
    ),
    "static-not-a-bool": ([_method(static="yes")], "E-STUB: p.B.g: 'static' must be true or false"),
    "static-int": ([_method(static=1)], "E-STUB: p.B.g: 'static' must be true or false"),
    "params-before-static": (
        [_method(params=[1], static="yes")],
        "E-STUB: p.B.g: 'params' must be a list of strings",
    ),
    "visibility-not-a-string": (
        [_method(visibility=1)],
        "E-STUB: p.B.g: 'visibility' must be a string",
    ),
    "static-before-visibility": (
        [_method(static=0, visibility=1)],
        "E-STUB: p.B.g: 'static' must be true or false",
    ),
    "duplicate-method": (
        [_members({"name": "g", "kind": "method"}, {"name": "g", "kind": "method", "type": "int"})],
        "E-STUB: duplicate member g/0 in p.B",
    ),
    "duplicate-field": (
        [_members({"name": "f", "kind": "field"}, {"name": "f", "kind": "field"})],
        "E-STUB: duplicate member f/None in p.B",
    ),
    "duplicate-constructor": (
        [_members(
            {"name": "B", "kind": "constructor", "params": ["int"]},
            {"name": "C", "kind": "constructor", "params": ["long"]},
        )],
        "E-STUB: duplicate member <init>/1 in p.B",
    ),
    "conflict-in-a-document": (
        [_types({"name": "p.B"}, {"name": "p.B", "kind": "interface"})],
        "E-STUB: conflicting declarations for p.B (stub vs stub)",
    ),
    "conflict-with-duplicate-members": (
        [_types(
            {"name": "p.B"},
            {"name": "p.B", "members": [{"name": "f", "kind": "field"}] * 2},
        )],
        "E-STUB: conflicting declarations for p.B (stub vs stub)",
    ),
    "conflict-across-documents": (
        [_type(), _type(supertypes=["p.C"])],
        "E-STUB: conflicting declarations for p.B (stub vs stub)",
    ),
    "first-document-first": (
        ["{]", None],
        "E-STUB: {p}: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
}


@pytest.mark.parametrize("documents, expected", STUB_CASES.values(), ids=list(STUB_CASES))
def test_stub_message(tmp_path, documents, expected):
    _expect(tmp_path, "stub_paths", documents, expected)


def test_a_repeated_equal_type_is_kept_once(tmp_path):
    src = tmp_path / "A.java"
    src.write_text("package p;\nclass A { void f(B b) { b.g(); } }")
    stub = tmp_path / "stubs.json"
    method = {"name": "g", "kind": "method"}
    twice = {"name": "p.B", "members": [method]}
    stub.write_text(_types(twice, twice))
    out, err = io.BytesIO(), io.StringIO()
    code = run(RunOptions(source_paths=(src,), stub_paths=(stub,), format="json"), out, err)
    assert (code, err.getvalue()) == (0, "")
    assert json.loads(out.getvalue())["totals"]["accesses"] == 1


CONFIG_CASES = {
    "unreadable": (
        [None],
        "E-CONFIG: cannot read {p}: [Errno 2] No such file or directory: '{p}'",
    ),
    "not-json": (
        ["{]"],
        "E-CONFIG: {p}: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    "wrong-schema": (
        ['{"schema": "wrong"}'],
        "E-CONFIG: {p}: expected schema demeterlint-config/1",
    ),
    "not-an-object": (["[1]"], "E-CONFIG: {p}: expected schema demeterlint-config/1"),
    "layer-negative": (
        [json.dumps({**CONFIG, "layer": -1})],
        "E-CONFIG: {p}: layer must be a non-negative integer",
    ),
    "layer-bool": (
        [json.dumps({**CONFIG, "layer": True})],
        "E-CONFIG: {p}: layer must be a non-negative integer",
    ),
    "layer-string": (
        [json.dumps({**CONFIG, "layer": "1"})],
        "E-CONFIG: {p}: layer must be a non-negative integer",
    ),
    "duplicate-layer": (
        [json.dumps({**CONFIG, "layer": 1}), json.dumps({**CONFIG, "layer": 1})],
        "E-CONFIG: {q}: duplicate layer 1",
    ),
    "rules-not-a-list": (
        [json.dumps({**CONFIG, "rules": {}})],
        "E-CONFIG: {p}: rules must be a list",
    ),
    "rule-not-an-object": ([_rules(1)], "E-CONFIG: {p}: rule must be an object"),
    "rule-without-id": (
        [_rules({"kind": "anon-inner-share"})],
        "E-CONFIG: {p}: rule without an id",
    ),
    "rule-empty-id": (
        [_rules({"id": "", "kind": "anon-inner-share"})],
        "E-CONFIG: {p}: rule without an id",
    ),
    "rule-id-not-a-string": (
        [_rules({"id": 5, "kind": "anon-inner-share"})],
        "E-CONFIG: {p}: rule without an id",
    ),
    "unknown-kind": ([_rule("x")], "E-CONFIG: {p}: rule R1: unknown kind 'x'"),
    "kind-missing": ([_rules({"id": "R1"})], "E-CONFIG: {p}: rule R1: unknown kind 'None'"),
    "kind-not-a-string": ([_rule(5)], "E-CONFIG: {p}: rule R1: unknown kind '5'"),
    "rule-layer": (
        [_rule("anon-inner-share", layer=-1)],
        "E-CONFIG: {p}: rule R1: layer must be a non-negative integer",
    ),
    "tag-not-a-string": (
        [_rule("anon-inner-share", tag=5)],
        "E-CONFIG: {p}: rule R1: tag must be a string",
    ),
    "payload-before-tag": (
        [_rule("universal-friend-types", tag=5)],
        "E-CONFIG: {p}: rule R1: no types, glob, or implementors",
    ),
    "duplicate-rule-id": (
        [_rule("anon-inner-share"), _rule("downcast-param")],
        "E-CONFIG: {q}: duplicate rule id 'R1'",
    ),
    "types-not-strings": (
        [_rule("universal-friend-types", types=[1])],
        "E-CONFIG: R1.types: expected a list of strings",
    ),
    "types-not-a-list": (
        [_rule("universal-friend-types", types="p.B")],
        "E-CONFIG: R1.types: expected a list of strings",
    ),
    "type-empty": (
        [_rule("universal-friend-types", types=["p.B", "[]"])],
        "E-CONFIG: R1.types: empty type name",
    ),
    "package-glob-not-a-string": (
        [_rule("universal-friend-types", package_glob=7)],
        "E-CONFIG: {p}: rule R1: package_glob must be a string",
    ),
    "implementors-not-strings": (
        [_rule("universal-friend-types", implementors_of=[1])],
        "E-CONFIG: R1.implementors_of: expected a list of strings",
    ),
    "implementor-empty": (
        [_rule("universal-friend-types", implementors_of=[" "])],
        "E-CONFIG: R1.implementors_of: empty type name",
    ),
    "no-friend-types": (
        [_rule("universal-friend-types")],
        "E-CONFIG: {p}: rule R1: no types, glob, or implementors",
    ),
    "member-predicate-not-a-string": (
        [_rule("universal-friend-members", member_predicate=["public-static"])],
        "E-CONFIG: {p}: rule R1: member_predicate must be a string",
    ),
    "member-predicate-unknown": (
        [_rule("universal-friend-members", member_predicate="x")],
        "E-CONFIG: {p}: rule R1: unknown member predicate 'x'",
    ),
    "no-member-predicate-or-pattern": (
        [_rule("universal-friend-members")],
        "E-CONFIG: {p}: rule R1: needs member_predicate or member_pattern",
    ),
    "member-pattern-fields": (
        [_rule("universal-friend-members", member_pattern={"type": 1, "name": "x"})],
        "E-CONFIG: {p}: rule R1: member_pattern needs string 'type' and 'name'",
    ),
    "member-pattern-not-an-object": (
        [_rule("universal-friend-members", member_pattern=5)],
        "E-CONFIG: {p}: rule R1: member_pattern needs string 'type' and 'name'",
    ),
    "matcher-missing": (
        [_rule("call-grant")],
        "E-CONFIG: {p}: rule R1: call-grant needs a matcher list",
    ),
    "matcher-empty": (
        [_rule("call-grant", matcher=[])],
        "E-CONFIG: {p}: rule R1: call-grant needs a matcher list",
    ),
    "matcher-entry": (
        [_rule("call-grant", matcher=[{"type": "p.B"}])],
        "E-CONFIG: {p}: rule R1: matcher entries need string 'type' and 'name'",
    ),
    "call-grants-not-strings": (
        [_rule("call-grant", matcher=[{"type": "p.B", "name": "g"}], grants=[1])],
        "E-CONFIG: R1.grants: expected a list of strings",
    ),
    "field-map-not-a-list": (
        [_rule("aggregation-elements", field_map=5)],
        "E-CONFIG: {p}: rule R1: field_map entries need string type/field/element",
    ),
    "field-map-entry": (
        [_rule("aggregation-elements", field_map=[{"type": "p.B", "field": "f"}])],
        "E-CONFIG: {p}: rule R1: field_map entries need string type/field/element",
    ),
    "infer-via-not-strings": (
        [_rule("aggregation-elements", infer_via=5)],
        "E-CONFIG: R1.infer_via: expected a list of strings",
    ),
    "infer-via-before-element": (
        [_rule(
            "aggregation-elements",
            field_map=[{"type": "p.B", "field": "f", "element": ""}],
            infer_via=5,
        )],
        "E-CONFIG: R1.infer_via: expected a list of strings",
    ),
    "element-empty": (
        [_rule("aggregation-elements", field_map=[{"type": "p.B", "field": "f", "element": ""}])],
        "E-CONFIG: R1.field_map: empty type name",
    ),
    "empty-aggregation": (
        [_rule("aggregation-elements")],
        "E-CONFIG: {p}: rule R1: empty aggregation rule",
    ),
    "pairs-missing": (
        [_rule("friend-implication")],
        "E-CONFIG: {p}: rule R1: needs implication pairs",
    ),
    "pairs-shape": (
        [_rule("friend-implication", pairs=[["p.A"]])],
        "E-CONFIG: {p}: rule R1: pairs are [from, to] type names",
    ),
    "pair-empty": (
        [_rule("friend-implication", pairs=[["p.A", "[]"]])],
        "E-CONFIG: R1.pairs: empty type name",
    ),
    "executables-not-strings": (
        [_rule("executable-grant", executables=5)],
        "E-CONFIG: R1.executables: expected a list of strings",
    ),
    "executables-empty": (
        [_rule("executable-grant")],
        "E-CONFIG: {p}: rule R1: needs executable ids or globs",
    ),
    "executable-grants-empty-name": (
        [_rule("executable-grant", executables=["p.A#m()"], grants=[""])],
        "E-CONFIG: R1.grants: empty type name",
    ),
    "status-not-a-string": (
        [_rule("executable-grant", executables=["p.A#m()"], status=5)],
        "E-CONFIG: {p}: rule R1: status must be a string",
    ),
    "status-unknown": (
        [_rule("executable-grant", executables=["p.A#m()"], status="x")],
        "E-CONFIG: {p}: rule R1: unknown status 'x'",
    ),
    "hint-not-a-string": (
        [_rule("executable-grant", executables=["p.A#m()"], hint=5)],
        "E-CONFIG: {p}: rule R1: hint must be a string",
    ),
    "first-document-first": (
        ["{]", None],
        "E-CONFIG: {p}: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
}


@pytest.mark.parametrize("documents, expected", CONFIG_CASES.values(), ids=list(CONFIG_CASES))
def test_config_message(tmp_path, documents, expected):
    _expect(tmp_path, "config_paths", documents, expected)
