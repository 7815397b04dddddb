"""Configuration loading, effective friend sets, and waterfall attribution."""

import json
import random

import pytest

from demeterlint.adapt import (
    Adapter,
    ConfigError,
    EMPTY_CONFIG,
    Rule,
    attribute_waterfall,
    config_warnings,
    load_config,
)
from demeterlint.cli import _explain, _Loaded
from demeterlint.codemodel import (
    ResolutionMode,
    TypeRef,
    parse_type_name,
    unknown_type,
)
from demeterlint.demeter import base_friend_set, detect
from demeterlint.presets import GENERIC, JHOTDRAW, STACK

from bruteforce import naive_closure
from conftest import INITIALIZERS, OBJECT_STUB, STUBS, build_case_front, build_front
from randprog import LARGE_STACK, random_config, random_program


def front(*sources: str, stubs=(), mode=ResolutionMode.STRICT):
    named = [(f"S{i}.java", s) for i, s in enumerate(sources)]
    return build_front(named, stubs, mode)


def doc(layer, *rules, name=None):
    return json.dumps(
        {
            "schema": "demeterlint-config/1",
            "layer": layer,
            "name": name or f"layer-{layer}",
            "rules": list(rules),
        }
    )


def cfg(*docs):
    return load_config(list(docs))


def analyze(sources, config, stubs=(), mode=ResolutionMode.STRICT):
    table, exes = front(*sources, stubs=stubs, mode=mode)
    adapter = Adapter(exes, table, config)
    violations = [v for ex in exes for v in detect(ex, adapter.base[ex.id])]
    return adapter, adapter.classify(violations)


# One violation: b is a local, so B is no friend of p.A#m().
PLAIN = (
    "package p;\n"
    "class A { void m() { B b = null; b.f(); } }\n"
    "class B { void f() { } C mk() { return null; } }\n"
    "class C { void g() { } }"
)


class TestLoadConfig:
    def test_presets_load(self):
        config = load_config(STACK)
        assert config.layer_indices == (0, 1, 2, 3, 4, 5, 6, 7)
        ids = [r.rule_id for r in config.rules]
        assert ids == [
            "D2", "D4", "D18", "D5", "D12", "D15", "D6", "D8", "D19", "D28",
            "D7", "D10", "D11", "D21", "D22", "D24", "D26", "D27", "D29",
            "D3", "D16", "D17", "D20", "D23", "D25", "D30", "D31",
        ]

    def test_preset_payloads(self):
        config = load_config(STACK)
        by = {r.rule_id: r for r in config.rules}
        assert "java.awt.Rectangle" in by["D2"].types
        assert by["D4"].member_predicate == "public-static"
        assert by["D18"].member_predicate == "array-length"
        assert by["D5"].implementors_of == ("java.util.Enumeration",)
        assert by["D7"].package_glob == "java.lang.*"
        assert by["D8"].member_pattern == ("java.io.PrintStream", "print*")
        assert ("java.awt.Toolkit", "getDefaultToolkit") in by["D10"].matcher
        assert by["D24"].pairs == (
            ("CH.ifa.draw.framework.DrawingView", "CH.ifa.draw.framework.Drawing"),
        )
        assert by["D26"].status == "accepted"
        assert by["D25"].status == "review-pending"
        assert by["D30"].status == "adjourned"
        assert by["D3"].grants == () and by["D3"].hint == "lift-forward"
        assert by["D6"].field_map[0][1] == "fSelectionHandles"

    def test_layer_defaults_are_sequential(self):
        a = json.dumps({"schema": "demeterlint-config/1", "rules": []})
        b = json.dumps({"schema": "demeterlint-config/1", "rules": []})
        config = cfg(a, b)
        assert [idx for idx, _ in config.layer_names] == [0, 1]

    def test_explicit_layer_resets_sequence(self):
        a = json.dumps({"schema": "demeterlint-config/1", "layer": 4, "rules": []})
        b = json.dumps({"schema": "demeterlint-config/1", "rules": []})
        config = cfg(a, b)
        assert [idx for idx, _ in config.layer_names] == [4, 5]

    def test_rule_layer_override(self):
        config = cfg(
            doc(
                0,
                {"id": "R1", "kind": "universal-friend-types", "types": ["p.B"]},
                {
                    "id": "R2",
                    "kind": "executable-grant",
                    "layer": 3,
                    "executables": ["*"],
                    "grants": ["p.C"],
                },
            )
        )
        assert config.layer_indices == (0, 3)
        assert [r.rule_id for r in config.rules_at(3)] == ["R2"]

    def test_duplicate_layer_rejected(self):
        with pytest.raises(ConfigError, match="duplicate layer"):
            cfg(doc(1), doc(1))

    def test_duplicate_rule_id_rejected(self):
        r = {"id": "R1", "kind": "universal-friend-types", "types": ["p.B"]}
        with pytest.raises(ConfigError, match="duplicate rule id"):
            cfg(doc(0, r), doc(1, dict(r)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            cfg(doc(0, {"id": "R1", "kind": "universal-frend-types", "types": ["p.B"]}))

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            cfg(doc(0, {"id": "R1", "kind": ["call-grant"]}))

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            cfg(json.dumps({"schema": "demeterlint-config/2", "rules": []}))

    def test_unparseable_file_rejected(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{]")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config([bad])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config([tmp_path / "absent.json"])

    def test_unknown_status_rejected(self):
        with pytest.raises(ConfigError, match="unknown status"):
            cfg(
                doc(
                    0,
                    {
                        "id": "R1",
                        "kind": "executable-grant",
                        "executables": ["*"],
                        "status": "maybe",
                    },
                )
            )

    def test_empty_payload_rejected(self):
        with pytest.raises(ConfigError, match="no types"):
            cfg(doc(0, {"id": "R1", "kind": "universal-friend-types"}))

    @pytest.mark.parametrize(
        "rule",
        [
            {"kind": "universal-friend-members", "member_predicate": ["public-static"]},
            {"kind": "universal-friend-members", "member_pattern": {"type": "p.B", "name": 1}},
            {"kind": "universal-friend-members", "member_pattern": {"type": ["p.B"], "name": "f"}},
            {"kind": "universal-friend-types", "package_glob": 7},
            {"kind": "universal-friend-types", "types": ["p.B", "[]"]},
            {"kind": "call-grant", "matcher": [{"type": "p.B", "name": None}]},
            {"kind": "call-grant", "matcher": [{"type": 2, "name": "mk"}]},
            {"kind": "friend-implication", "pairs": [["p.B", 3]]},
            {"kind": "friend-implication", "pairs": [["", "p.C"]]},
            {"kind": "aggregation-elements", "field_map": 5},
            {"kind": "aggregation-elements",
             "field_map": [{"type": "p.A", "field": "f", "element": ["p.B"]}]},
            {"kind": "executable-grant", "executables": ["*"], "status": ["accepted"]},
            {"kind": "executable-grant", "executables": ["*"], "hint": {"text": "x"}},
            {"kind": "downcast-param", "tag": 0},
            {"kind": "downcast-param", "layer": True},
        ],
    )
    def test_ill_typed_field_rejected(self, rule):
        with pytest.raises(ConfigError):
            cfg(doc(0, {"id": "R1", **rule}))

    def test_boolean_document_layer_rejected(self):
        with pytest.raises(ConfigError, match="layer must be"):
            cfg(json.dumps({"schema": "demeterlint-config/1", "layer": True, "rules": []}))

    def test_warnings_for_unknown_types(self):
        table, _ = front(PLAIN)
        config = cfg(
            doc(0, {"id": "R1", "kind": "universal-friend-types", "types": ["no.Such", "p.B"]})
        )
        warnings = config_warnings(config, table)
        assert warnings == ["rule R1: unknown type 'no.Such'"]

    def test_presets_warn_only_for_types_beyond_desk_stubs(self):
        # The desk stubs cover everything the catalogs mention except the
        # one sample class that only exists in the full JHotDraw tree; a
        # rule naming an absent type warns instead of erroring.
        case_table, _ = build_case_front_listing3()
        assert config_warnings(load_config(STACK), case_table) == [
            "rule D27: unknown type 'CH.ifa.draw.samples.javadraw.AnimationDecorator'"
        ]


def build_case_front_listing3():
    from conftest import load_case

    return build_case_front(load_case("listing3"))


class TestEffectiveFriendSet:
    def test_base_identity_below_zero(self):
        config = cfg(doc(0, {"id": "R1", "kind": "universal-friend-types", "types": ["p.B"]}))
        table, exes = front(PLAIN)
        adapter = Adapter(exes, table, config)
        assert adapter.effective("p.A#m()", -1) is adapter.base["p.A#m()"]

    def test_universal_friend_types(self):
        config = cfg(doc(0, {"id": "R1", "kind": "universal-friend-types", "types": ["p.B"]}))
        adapter, verdicts = analyze([PLAIN], config)
        fs = adapter.effective("p.A#m()", 0)
        assert TypeRef("p.B") in fs.closure
        assert dict(fs.seeds)[TypeRef("p.B")] == ("granted:R1",)
        assert [v.outcome for v in verdicts] == ["silenced"]

    def test_empty_config_is_identity(self):
        adapter, verdicts = analyze([PLAIN], EMPTY_CONFIG)
        assert [v.outcome for v in verdicts] == ["remaining"]
        assert adapter.effective("p.A#m()", 5) is adapter.base["p.A#m()"]

    def test_package_glob_is_one_package(self):
        src = (
            "package p;\n"
            "import p.q.*;\n"
            "class A { void m() { B b = null; C c = null; b.f(); c.g(); } }\n"
            "class B { void f() { } }"
        )
        sub = "package p.q;\npublic class C { public void g() { } }"
        config = cfg(
            doc(0, {"id": "R1", "kind": "universal-friend-types", "package_glob": "p.*"})
        )
        adapter, verdicts = analyze([src, sub], config)
        outcomes = {v.violation.site.member.name: v.outcome for v in verdicts}
        assert outcomes == {"f": "silenced", "g": "remaining"}

    def test_implementors_of(self):
        src = (
            "package p;\n"
            "interface I { void act(); }\n"
            "class B implements I { public void act() { } void f() { } }\n"
            "class C extends B { void g() { } }\n"
            "class D { void h() { } }\n"
            "class A { void m() { B b = null; C c = null; D d = null; I i = null;\n"
            "  b.f(); c.g(); d.h(); i.act(); } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "universal-friend-types", "implementors_of": ["p.I"]})
        )
        _, verdicts = analyze([src], config)
        outcomes = {v.violation.site.member.name: v.outcome for v in verdicts}
        # B implements I, C inherits the interface, I is its own implementor.
        assert outcomes == {
            "f": "silenced",
            "g": "silenced",
            "h": "remaining",
            "act": "silenced",
        }

    def test_member_predicate_public_static(self):
        src = (
            "package p;\n"
            "class B { public static void f() { } static void g() { } }\n"
            "class A { void m() { B.f(); B.g(); } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "universal-friend-members",
                    "member_predicate": "public-static"})
        )
        _, verdicts = analyze([src], config)
        outcomes = {v.violation.site.member.name: v.outcome for v in verdicts}
        # Package-visible statics stay violations under the public-only predicate.
        assert outcomes == {"f": "silenced", "g": "remaining"}

    def test_member_pattern(self):
        src = (
            "package p;\n"
            "class B { void printAll() { } void show() { } }\n"
            "class A { void m() { B b = null; b.printAll(); b.show(); } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "universal-friend-members",
                    "member_pattern": {"type": "p.B", "name": "print*"}})
        )
        _, verdicts = analyze([src], config)
        outcomes = {v.violation.site.member.name: v.outcome for v in verdicts}
        assert outcomes == {"printAll": "silenced", "show": "remaining"}

    def test_call_grant_default_return_type(self):
        src = (
            "package p;\n"
            "class A { void m(B b) { b.mk().g(); } void other() { } }\n"
            "class B { C mk() { return null; } }\n"
            "class C { void g() { } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "call-grant",
                    "matcher": [{"type": "p.B", "name": "mk"}]})
        )
        adapter, verdicts = analyze([src], config)
        assert [v.outcome for v in verdicts] == ["silenced"]
        # The grant is earned per executable: other() never calls mk().
        assert TypeRef("p.C") in adapter.effective("p.A#m(B)", 0).closure
        assert TypeRef("p.C") not in adapter.effective("p.A#other()", 0).closure

    def test_call_grant_returns_in_site_order(self):
        # Matchers name types in the other order than the calls; each type
        # is granted once, at its first call.
        src = (
            "package p;\n"
            "class A { void m(B b, E e) { e.mk(); b.mk(); b.nk(); e.mk(); } }\n"
            "class B { C mk() { return null; } D nk() { return null; } }\n"
            "class E { F mk() { return null; } }\n"
            "class C { } class D { } class F { }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "call-grant",
                    "matcher": [{"type": "p.B", "name": "*"}, {"type": "p.E", "name": "mk"}]})
        )
        adapter, _ = analyze([src], config)
        assert adapter.effective("p.A#m(B,E)", 0).grants == (
            ("R1", (TypeRef("p.F"), TypeRef("p.C"), TypeRef("p.D"))),
        )

    def test_call_grant_explicit_grants(self):
        src = (
            "package p;\n"
            "class A { void m(B b) { b.mk(); D d = null; d.h(); } }\n"
            "class B { C mk() { return null; } }\n"
            "class C { }\n"
            "class D { void h() { } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "call-grant",
                    "matcher": [{"type": "p.B", "name": "mk"}], "grants": ["p.D"]})
        )
        _, verdicts = analyze([src], config)
        assert [v.outcome for v in verdicts] == ["silenced"]

    def test_ctor_params_as_fields(self):
        src = (
            "package p;\n"
            "class A { A(B b) { } void m() { B b = null; b.f(); } }\n"
            "class B { void f() { } }"
        )
        config = cfg(doc(0, {"id": "R1", "kind": "ctor-params-as-fields", "enabled": True}))
        _, verdicts = analyze([src], config)
        assert [v.outcome for v in verdicts] == ["silenced"]

    def test_ctor_params_disabled(self):
        src = (
            "package p;\n"
            "class A { A(B b) { } void m() { B b = null; b.f(); } }\n"
            "class B { void f() { } }"
        )
        config = cfg(doc(0, {"id": "R1", "kind": "ctor-params-as-fields", "enabled": False}))
        _, verdicts = analyze([src], config)
        assert [v.outcome for v in verdicts] == ["remaining"]

    def test_downcast_param(self):
        src = (
            "package p;\n"
            "class A { void m(Object o) { ((B) o).f(); } }\n"
            "class B { void f() { } }"
        )
        for enabled, outcome in ((True, "silenced"), (False, "remaining")):
            config = cfg(doc(0, {"id": "R1", "kind": "downcast-param", "enabled": enabled}))
            _, verdicts = analyze([src], config, mode=ResolutionMode.LENIENT)
            assert [v.outcome for v in verdicts] == [outcome]

    def test_aggregation_field_map(self):
        src = (
            "package p;\n"
            "class A { H mk() { return null; } void m() { mk().use(); } }\n"
            "class H { void use() { } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "aggregation-elements",
                    "field_map": [{"type": "p.A", "field": "items", "element": "p.H"}]})
        )
        _, verdicts = analyze([src], config)
        assert [v.outcome for v in verdicts] == ["silenced"]

    def test_aggregation_infer_via(self):
        src = (
            "package p;\n"
            "import java.util.Vector;\n"
            "class A {\n"
            "  Vector items;\n"
            "  void put(H h) { items.addElement(h); }\n"
            "  H mk() { return null; }\n"
            "  void m() { mk().use(); }\n"
            "}\n"
            "class H { void use() { } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "aggregation-elements", "infer_via": ["addElement"]})
        )
        adapter, verdicts = analyze([src], config, stubs=[STUBS / "jdk.json"])
        assert {v.outcome for v in verdicts} == {"silenced"}
        # Inference is class-wide: m() never touches the vector itself.
        assert TypeRef("p.H") in adapter.effective("p.A#m()", 0).closure

    def test_aggregation_ignores_foreign_vectors(self):
        src = (
            "package p;\n"
            "import java.util.Vector;\n"
            "class A {\n"
            "  void put(Vector other, H h) { other.addElement(h); }\n"
            "  H mk() { return null; }\n"
            "  void m() { mk().use(); }\n"
            "}\n"
            "class H { void use() { } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "aggregation-elements", "infer_via": ["addElement"]})
        )
        adapter, _ = analyze([src], config, stubs=[STUBS / "jdk.json"])
        # The call receiver is a parameter, not a field of A: no inference.
        assert TypeRef("p.H") not in adapter.effective("p.A#m()", 0).closure

    def test_anon_inner_share(self):
        src = (
            "package p;\n"
            "interface R { void go(); }\n"
            "class A {\n"
            "  B helper() { return null; }\n"
            "  void m(B b) {\n"
            "    R r = new R() { public void go() { helper().f(); } };\n"
            "  }\n"
            "}\n"
            "class B { void f() { } }"
        )
        config = cfg(doc(0, {"id": "R1", "kind": "anon-inner-share", "enabled": True}))
        adapter, verdicts = analyze([src], config)
        # Base: the outer-instance call and the chained call both violate.
        assert len(verdicts) == 2
        assert {v.outcome for v in verdicts} == {"silenced"}
        shared = adapter.effective("p.A$anon1#go()", 0)
        assert TypeRef("p.A") in shared.closure and TypeRef("p.B") in shared.closure

    def test_first_enabled_share_rule_carries_the_role(self):
        src = (
            "package p;\n"
            "interface R { void go(); }\n"
            "class A {\n"
            "  void m(B b) {\n"
            "    R r = new R() { public void go() { B x = null; x.f(); } };\n"
            "  }\n"
            "}\n"
            "class B { void f() { } }"
        )
        share = {"kind": "anon-inner-share"}
        config = cfg(
            doc(0, {"id": "S0", **share, "enabled": False}, {"id": "S1", **share}),
            doc(1, {"id": "S2", **share}),
        )
        adapter, verdicts = analyze([src], config)
        for k in (0, 1):
            assert adapter.effective("p.A$anon1#go()", k).seeds == (
                (TypeRef("p.A"), ("granted:S1",)),
                (TypeRef("p.A$anon1"), ("granted:S1", "self")),
                (TypeRef("p.B"), ("granted:S1",)),
            )
        # Without S1, the next enabled rule of the prefix shares.
        ablated = adapter.effective("p.A$anon1#go()", 1, frozenset({"S1"}))
        assert dict(ablated.seeds)[TypeRef("p.B")] == ("granted:S2",)
        assert [(v.layer, v.rule_id) for v in verdicts] == [(0, "S1")]

    def test_friend_implication_fixpoint(self):
        src = (
            "package p;\n"
            "class A { void m(B b) { C c = null; D d = null; c.g(); d.h(); } }\n"
            "class B { }\n"
            "class C { void g() { } }\n"
            "class D { void h() { } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "friend-implication",
                    "pairs": [["p.B", "p.C"], ["p.C", "p.D"]]})
        )
        _, verdicts = analyze([src], config)
        # B is a friend as a parameter, so C follows, so D follows.
        assert [v.outcome for v in verdicts] == ["silenced", "silenced"]

    def test_primitive_conclusion_implies_nothing(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "friend-implication", "pairs": [["p.A", "int"]]})
        )
        _, verdicts = analyze([PLAIN], config)
        assert [v.outcome for v in verdicts] == ["remaining"]

    def test_primitive_grant_befriends_nothing(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "executable-grant", "executables": ["*"],
                    "grants": ["int"], "status": "adjourned"})
        )
        _, verdicts = analyze([PLAIN], config)
        assert [(v.outcome, v.status) for v in verdicts] == [
            ("remaining", "candidate-true-positive")
        ]

    def test_implication_premise_via_closure(self):
        src = (
            "package p;\n"
            "class S { }\n"
            "class B extends S { }\n"
            "class A { void m(B b) { C c = null; c.g(); } }\n"
            "class C { void g() { } }"
        )
        config = cfg(
            doc(0, {"id": "R1", "kind": "friend-implication", "pairs": [["p.S", "p.C"]]})
        )
        _, verdicts = analyze([src], config)
        assert [v.outcome for v in verdicts] == ["silenced"]

    def test_executable_grant_accepted(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "executable-grant",
                    "executables": ["p.A#m()"], "grants": ["p.B"], "status": "accepted"})
        )
        _, verdicts = analyze([PLAIN], config)
        assert [v.outcome for v in verdicts] == ["silenced"]

    def test_executable_grant_glob(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "executable-grant",
                    "executables": ["p.A#*"], "grants": ["p.B"]})
        )
        _, verdicts = analyze([PLAIN], config)
        assert [v.outcome for v in verdicts] == ["silenced"]

    def test_executable_grant_wrong_executable(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "executable-grant",
                    "executables": ["p.A#other()"], "grants": ["p.B"]})
        )
        _, verdicts = analyze([PLAIN], config)
        assert [v.outcome for v in verdicts] == ["remaining"]

    @pytest.mark.parametrize(
        "globs, silenced",
        [
            # A literal glob names an initializer: [1] is part of the id,
            # not a character class.
            (["p.A#<clinit>[1]"], ["p.A#<clinit>[1]"]),
            (["p.A#<init-block>[2]"], ["p.A#<init-block>[2]"]),
            (["p.A#m?()"], ["p.A#m1()", "p.A#m2()"]),
            (["p.A#<init-block>[1]", "p.A#m2*"], ["p.A#<init-block>[1]", "p.A#m2()"]),
        ],
        ids=["clinit", "init-block", "question-mark", "literal-and-wildcard"],
    )
    def test_executable_grant_ids(self, globs, silenced):
        config = cfg(
            doc(0, {"id": "R1", "kind": "executable-grant",
                    "executables": globs, "grants": ["p.B"]})
        )
        _, verdicts = analyze([INITIALIZERS], config)
        outcomes = {v.violation.executable_id: v.outcome for v in verdicts}
        assert len(outcomes) == 5
        assert sorted(e for e, o in outcomes.items() if o == "silenced") == silenced

    def test_monotone_in_layer_prefix(self):
        table, exes = front(PLAIN)
        config = cfg(
            doc(0, {"id": "R1", "kind": "universal-friend-types", "types": ["p.C"]}),
            doc(1, {"id": "R2", "kind": "universal-friend-types", "types": ["p.B"]}),
        )
        adapter = Adapter(exes, table, config)
        prev: frozenset = frozenset()
        for k in (-1, 0, 1):
            closure = adapter.effective("p.A#m()", k).closure
            assert prev <= closure
            prev = closure


class TestEveryRuleDisabled:
    """A set with every rule through k disabled is the base set, built like
    any other.  The necessity probe of a verdict credited at the first
    layer, when that layer holds one rule, asks for such a set."""

    SOURCE = (
        "package p;\n"
        "class A { B b;\n"
        "  void m(D d) { b.mk().g(); d.e().f(); d.e().x(); b.mk().k();\n"
        "    d.e().ff.z(); d.h().w(); }\n"
        "  void n() { I r = new I() { public void run() { b.mk().g(); } }; }\n"
        "}\n"
        "class B { C mk() { return null; } }\n"
        "class C { void g() { } void k() { } }\n"
        "class D { E e() { return null; } H h() { return null; } }\n"
        "class E { F ff; void f() { } void x() { } }\n"
        "class F { void z() { } }\n"
        "class H { void w() { } }\n"
        "interface I { void run(); }\n"
    )
    # Layers 1 and 3: k = -1 and k = 0 lie below the first one.
    CONFIG = (
        doc(1, {"id": "R1", "kind": "call-grant", "matcher": [{"type": "p.B", "name": "mk"}]}),
        doc(
            3,
            {"id": "R2", "kind": "universal-friend-types", "types": ["p.E"]},
            {"id": "R3", "kind": "executable-grant", "executables": ["p.A#m(D)"],
             "grants": ["p.E"]},
            {"id": "R4", "kind": "universal-friend-members",
             "member_pattern": {"type": "p.C", "name": "k"}},
            {"id": "R5", "kind": "anon-inner-share"},
            {"id": "R6", "kind": "friend-implication", "pairs": [["p.E", "p.F"]]},
        ),
    )

    def test_equals_the_base_set(self):
        config = cfg(*self.CONFIG)
        adapter, _ = analyze([self.SOURCE], config)
        for exec_id in adapter.by_id:
            base = adapter.base[exec_id]
            for k in (1, 2, 3, 9):
                disabled = frozenset(r.rule_id for r in config.rules if r.layer <= k)
                got = adapter.effective(exec_id, k, disabled)
                assert (got.mask, got.grants, got.member_exemptions) == (base.mask, (), ())
                assert got == base

    def test_verdicts(self):
        _, verdicts = analyze([self.SOURCE], cfg(*self.CONFIG))
        got = [
            (v.violation.site.site_id, v.outcome, v.layer, v.rule_id, v.also_matched)
            for v in verdicts
        ]
        assert got == [
            ("p.A#m(D)@0003", "silenced", 1, "R1", ()),
            ("p.A#m(D)@0005", "silenced", 3, "R2", ("R3",)),
            ("p.A#m(D)@0007", "silenced", 3, "R2", ("R3",)),
            ("p.A#m(D)@0010", "silenced", 1, "R1", ()),
            ("p.A#m(D)@0012", "silenced", 3, "R2", ("R3",)),
            ("p.A#m(D)@0013", "silenced", 3, "R6", ()),
            ("p.A#m(D)@0015", "remaining", None, None, ()),
            ("p.A$anon1#run()@0001", "silenced", 3, "R5", ()),
            ("p.A$anon1#run()@0002", "silenced", 3, "R5", ()),
            ("p.A$anon1#run()@0003", "silenced", 1, "R1", ()),
        ]

    def test_below_the_first_layer_is_the_base_object(self):
        table, exes = front(self.SOURCE)
        adapter = Adapter(exes, table, cfg(*self.CONFIG))
        base = adapter.base["p.A#m(D)"]
        for k in (-1, 0):
            assert adapter.effective("p.A#m(D)", k) is base
            assert adapter.effective("p.A#m(D)", k, frozenset({"R1"})) is base
        assert adapter.effective("p.A#m(D)", 1) != base


class TestClassification:
    def test_smallest_layer_wins(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "universal-friend-types", "types": ["p.B"]}),
            doc(1, {"id": "R2", "kind": "universal-friend-types", "types": ["p.B"]}),
        )
        _, verdicts = analyze([PLAIN], config)
        (v,) = verdicts
        assert (v.outcome, v.layer, v.rule_id) == ("silenced", 0, "R1")

    def test_ablation_picks_the_necessary_rule(self):
        config = cfg(
            doc(
                0,
                {"id": "R1", "kind": "universal-friend-types", "types": ["p.C"]},
                {"id": "R2", "kind": "universal-friend-types", "types": ["p.B"]},
            )
        )
        _, verdicts = analyze([PLAIN], config)
        (v,) = verdicts
        assert (v.rule_id, v.also_matched) == ("R2", ())

    def test_same_layer_redundancy_falls_back_to_doc_order(self):
        config = cfg(
            doc(
                0,
                {"id": "R1", "kind": "universal-friend-types", "types": ["p.B"]},
                {"id": "R2", "kind": "executable-grant",
                 "executables": ["*"], "grants": ["p.B"]},
            )
        )
        _, verdicts = analyze([PLAIN], config)
        (v,) = verdicts
        # Removing either rule alone still silences, so the first sufficient
        # rule in document order takes the credit and the other is recorded.
        assert (v.rule_id, v.also_matched) == ("R1", ("R2",))

    def test_remaining_default_status(self):
        _, verdicts = analyze([PLAIN], EMPTY_CONFIG)
        (v,) = verdicts
        assert (v.outcome, v.status, v.hint) == ("remaining", "candidate-true-positive", "")

    def test_remaining_status_from_pending_grant(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "executable-grant",
                    "executables": ["p.A#*"], "grants": ["p.B"],
                    "status": "review-pending"})
        )
        _, verdicts = analyze([PLAIN], config)
        (v,) = verdicts
        assert (v.outcome, v.status) == ("remaining", "review-pending")

    def test_pending_grant_needs_receiver_match(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "executable-grant",
                    "executables": ["p.A#*"], "grants": ["p.C"],
                    "status": "adjourned"})
        )
        _, verdicts = analyze([PLAIN], config)
        (v,) = verdicts
        assert (v.outcome, v.status) == ("remaining", "candidate-true-positive")

    def test_hint_only_annotation(self):
        config = cfg(
            doc(0, {"id": "R1", "kind": "executable-grant",
                    "executables": ["p.A#m()"], "grants": [],
                    "hint": "lift-forward"})
        )
        _, verdicts = analyze([PLAIN], config)
        (v,) = verdicts
        assert (v.outcome, v.status, v.hint) == (
            "remaining", "candidate-true-positive", "lift-forward"
        )

    def test_verdicts_sorted_by_site(self):
        src = (
            "package p;\n"
            "class A { void m() { B b = null; b.f(); b.f(); } void a() { B b = null; b.f(); } }\n"
            "class B { void f() { } }"
        )
        _, verdicts = analyze([src], EMPTY_CONFIG)
        ids = [v.violation.site.site_id for v in verdicts]
        assert ids == sorted(ids)


def _shared_anonymous_bodies(seeds):
    """(table, executables, config, violations) of each generated program
    whose stack holds an enabled anon-inner-share rule and that has a
    violation in an anonymous body, in position order."""
    for seed in seeds:
        config = random_config(seed, max_rules=LARGE_STACK)
        if not any(r.kind == "anon-inner-share" and r.enabled for r in config.rules):
            continue
        table, exes = build_front(random_program(seed))
        by_id = {ex.id: ex for ex in exes}
        violations = [v for ex in exes for v in detect(ex, base_friend_set(ex, table))]
        if any(by_id[v.executable_id].enclosing_executable for v in violations):
            yield seed, (table, exes, config, violations)


SHARED = dict(_shared_anonymous_bodies(range(100)))


class TestExecutableGroups:
    """Classify keeps the per-executable memos for one executable group at
    a time; the verdicts and explain text do not depend on that."""

    def test_generated_programs_share_anonymous_bodies(self):
        assert len(SHARED) >= 15

    @pytest.mark.parametrize("seed", sorted(SHARED))
    def test_order_does_not_change_verdicts(self, seed):
        table, exes, config, violations = SHARED[seed]
        shuffled = list(violations)
        random.Random(seed).shuffle(shuffled)
        expected = Adapter(exes, table, config).classify(violations)
        assert Adapter(exes, table, config).classify(shuffled) == expected

    @pytest.mark.parametrize("seed", sorted(SHARED))
    def test_explain_after_classify(self, seed):
        table, exes, config, violations = SHARED[seed]
        loaded = _Loaded(table, exes, config, ())
        adapter = Adapter(exes, table, config)
        verdicts = adapter.classify(violations)
        for v in violations:
            site = v.site.site_id
            fresh = Adapter(exes, table, config)
            assert _explain(loaded, adapter, verdicts, site) == _explain(
                loaded, fresh, verdicts, site
            )

    @pytest.mark.parametrize("seed", sorted(SHARED))
    def test_position_order_builds_each_ladder_once(self, seed, monkeypatch):
        """An anonymous body reads its enclosing executable's ladder, so a
        group is the outermost executable and the bodies nested in it."""
        table, exes, config, violations = SHARED[seed]
        built = []
        ladder = Adapter._ladder

        def counted(self, ex):
            if ex.id not in self._ladder_cache:
                built.append(ex.id)
            return ladder(self, ex)

        monkeypatch.setattr(Adapter, "_ladder", counted)
        Adapter(exes, table, config).classify(violations)
        assert len(built) == len(set(built))


class TestWaterfall:
    def test_zero_count_rules_included(self):
        config = cfg(
            doc(
                0,
                {"id": "R1", "kind": "universal-friend-types", "types": ["p.B"]},
                {"id": "R2", "kind": "universal-friend-types", "types": ["p.C"]},
            )
        )
        _, verdicts = analyze([PLAIN], config)
        wf = attribute_waterfall(verdicts, config)
        assert [(e.rule_id, e.layer, e.count) for e in wf.per_rule] == [
            ("R1", 0, 1),
            ("R2", 0, 0),
        ]
        assert wf.per_layer == ((0, 1),)
        assert (wf.total, wf.remaining) == (1, 0)

    def test_conservation_guard(self):
        config = cfg(doc(0, {"id": "R1", "kind": "universal-friend-types", "types": ["p.B"]}))
        _, verdicts = analyze([PLAIN], config)
        forged = [v for v in verdicts] * 2
        wf = attribute_waterfall(forged, config)
        assert wf.total == 2  # doubling both sides still conserves...
        from demeterlint.adapt import Verdict

        broken = list(verdicts) + [
            Verdict(violation=verdicts[0].violation, outcome="silenced", layer=0, rule_id=None)
        ]
        with pytest.raises(KeyError):
            attribute_waterfall(broken, config)


def naive_implementors(table, name: str) -> tuple[str, ...]:
    """Every declared type whose closure holds ``name``, by a scan of the table."""
    target = parse_type_name(name)
    return tuple(sorted(d.name for d in table if target in naive_closure([d.ref], table)))


class TestImplementors:
    """``TypeTable.declared_subtypes``, which gives the implementors of an
    ``implementors_of`` rule, walks a subtype index; a naive scan of every
    declaration's closure must give the same names."""

    SOURCE = (
        "package p;\n"
        "interface I { }\n"
        "interface J extends I { }\n"
        "class C implements J { }\n"
        "class D extends C { }\n"
        "class E { }\n"
        "class S extends q.Shim { }\n"
    )
    STUB = json.dumps({
        "schema": "demeterlint-stubs/1",
        "types": [
            {"name": "q.Shim", "supertypes": ["q.Missing"]},
            {"name": "q.Odd", "supertypes": ["q.Shim[]", "int"]},
        ],
    })

    def implementors(self, names):
        table, _ = front(self.SOURCE, stubs=(OBJECT_STUB, self.STUB))
        got = {name: table.declared_subtypes(parse_type_name(name)) for name in names}
        assert got == {name: naive_implementors(table, name) for name in names}
        return got, table

    def test_interface_extending_an_interface(self):
        got, _ = self.implementors(["p.I", "p.J"])
        assert got == {"p.I": ("p.C", "p.D", "p.I", "p.J"), "p.J": ("p.C", "p.D", "p.J")}

    def test_the_target_itself(self):
        got, _ = self.implementors(["p.E", "p.D"])
        assert got == {"p.E": ("p.E",), "p.D": ("p.D",)}

    def test_object_is_every_declared_type(self):
        got, table = self.implementors(["java.lang.Object"])
        assert got["java.lang.Object"] == tuple(sorted(d.name for d in table))

    def test_stub_supertype_missing_from_the_table(self):
        got, table = self.implementors(["q.Missing"])
        assert "q.Missing" not in table
        assert got["q.Missing"] == ("p.S", "q.Odd", "q.Shim")

    def test_array_target(self):
        got, _ = self.implementors(["p.I[]", "java.lang.Object[]"])
        assert got == {"p.I[]": (), "java.lang.Object[]": ()}

    def test_array_and_primitive_stub_supertypes(self):
        got, _ = self.implementors(["q.Shim[]", "int", "<arrays>", "q.Shim"])
        assert got["q.Shim[]"] == ("q.Odd",)
        assert got["q.Shim"] == ("p.S", "q.Odd", "q.Shim")

    def test_lenient_unknown_supertype(self):
        """Lenient resolution types an unresolved name as unknown, a
        supertype too: no declared name reaches the unknown type, though it
        shares its name."""
        source = "package p;\nclass A { Gone g; }\nclass B extends A { }\nclass U extends Gone { }\n"
        table, _ = front(source, stubs=(OBJECT_STUB,), mode=ResolutionMode.LENIENT)
        assert table.get("p.U").supertypes == (unknown_type("Gone"),)
        names = ["Gone", "p.U", "p.A"]
        got = {name: table.declared_subtypes(parse_type_name(name)) for name in names}
        assert got == {name: naive_implementors(table, name) for name in names}
        assert got == {"Gone": (), "p.U": ("p.U",), "p.A": ("p.A", "p.B")}

    def test_a_stub_may_declare_anything(self):
        """Names the analyzed dialect never declares: the array pseudo-type,
        a type listing it, and a ``java.lang.Object`` with a supertype."""
        stub = json.dumps({
            "schema": "demeterlint-stubs/1",
            "types": [
                {"name": "<arrays>", "supertypes": ["q.X"]},
                {"name": "q.Arr", "supertypes": ["<arrays>"]},
                {"name": "java.lang.Object", "supertypes": ["q.Top"]},
                {"name": "q.Top"},
            ],
        })
        table, _ = front("package p;\nclass A { }\n", stubs=(stub,))
        names = [d.name for d in table] + ["q.X", "q.Missing"]
        got = {name: table.declared_subtypes(parse_type_name(name)) for name in names}
        assert got == {name: naive_implementors(table, name) for name in names}
        assert got["q.Top"] == ("java.lang.Object", "p.A", "q.Arr", "q.Top")
        assert got["<arrays>"] == ("<arrays>", "q.Arr")

    def test_every_corpus_type(self, corpus_case):
        table, _ = build_case_front(corpus_case)
        for decl in table:
            got = table.declared_subtypes(parse_type_name(decl.name))
            assert got == naive_implementors(table, decl.name)


class TestCorpusCascades:
    def test_generic_cascade(self, corpus_case):
        expected = corpus_case.expected["oracle"]
        table, exes = build_case_front(corpus_case)
        adapter = Adapter(exes, table, load_config(STACK))
        violations = [v for ex in exes for v in detect(ex, adapter.base[ex.id])]
        assert len(violations) == expected["base_violations"]
        verdicts = adapter.classify(violations)
        generic_layers = range(6)
        after = []
        for j in generic_layers:
            silenced = sum(
                1 for v in verdicts if v.outcome == "silenced" and v.layer <= j
            )
            after.append(len(violations) - silenced)
        assert after == expected["generic_after_layer"]

    def test_silenced_by_rule(self, corpus_case):
        expected = corpus_case.expected["oracle"]
        table, exes = build_case_front(corpus_case)
        config = load_config(STACK)
        adapter = Adapter(exes, table, config)
        violations = [v for ex in exes for v in detect(ex, adapter.base[ex.id])]
        verdicts = adapter.classify(violations)
        wf = attribute_waterfall(verdicts, config)
        nonzero = {e.rule_id: e.count for e in wf.per_rule if e.count}
        assert nonzero == expected["silenced_by_rule"]
        assert wf.remaining == expected["remaining"]

    def test_remaining_annotations(self, corpus_case):
        expected = corpus_case.expected["oracle"]
        table, exes = build_case_front(corpus_case)
        adapter = Adapter(exes, table, load_config(STACK))
        violations = [v for ex in exes for v in detect(ex, adapter.base[ex.id])]
        remaining = [v for v in adapter.classify(violations) if v.outcome == "remaining"]
        if "remaining_member" in expected:
            assert {v.violation.site.member.name for v in remaining} == {
                expected["remaining_member"]
            }
        if "remaining_hint" in expected:
            assert {v.hint for v in remaining} == {expected["remaining_hint"]}
        for v in remaining:
            assert v.status == "candidate-true-positive"

    def test_prefix_consistency(self, corpus_case):
        # Loading only a prefix of the stack must agree with the layer
        # attribution computed under the full stack.
        expected = corpus_case.expected["oracle"]
        table, exes = build_case_front(corpus_case)
        prefix = load_config(GENERIC[:3])
        adapter = Adapter(exes, table, prefix)
        violations = [v for ex in exes for v in detect(ex, adapter.base[ex.id])]
        verdicts = adapter.classify(violations)
        remaining = sum(1 for v in verdicts if v.outcome == "remaining")
        assert remaining == expected["generic_after_layer"][2]
