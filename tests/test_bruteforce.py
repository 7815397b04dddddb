"""Engine vs brute-force oracle equivalence.

The oracle recomputes everything from raw declarations; the engine layers
caches and incremental closures on top.  Both must agree on base detection
and on every field of every verdict, for the corpus and for generated
programs with generated rule stacks.
"""

import json
from collections import Counter

import pytest

from demeterlint.adapt import Adapter, load_config
from demeterlint.codemodel import ResolutionMode, unknown_type
from demeterlint.demeter import check_site, detect
from demeterlint.presets import STACK

from bruteforce import engine_verdicts_as_dicts, naive_detect, oracle_verdicts
from conftest import (
    CONJUNCTION_CONFIG,
    CONJUNCTION_SOURCE,
    INITIALIZERS,
    OBJECT_STUB,
    build_case_front,
    build_front,
)
from randprog import LARGE_STACK, random_config, random_program, redundant_config


def compare_project(executables, table, config) -> list[str]:
    """Every disagreement between the engine and the oracle, as strings."""
    adapter = Adapter(executables, table, config)
    violations = [
        v for ex in executables for v in detect(ex, adapter.base[ex.id])
    ]
    problems = []

    engine_base = sorted((v.executable_id, v.site.site_id) for v in violations)
    oracle_base = sorted(naive_detect(executables, table))
    if engine_base != oracle_base:
        extra = set(engine_base) - set(oracle_base)
        missing = set(oracle_base) - set(engine_base)
        problems.append(f"base detection: engine extra {extra}, missing {missing}")
        return problems

    engine = engine_verdicts_as_dicts(adapter.classify(violations))
    oracle = oracle_verdicts(executables, table, config)
    for got, want in zip(engine, oracle):
        if got != want:
            problems.append(f"verdict mismatch: engine {got} vs oracle {want}")
    if len(engine) != len(oracle):
        problems.append(f"verdict count: engine {len(engine)} vs oracle {len(oracle)}")
    return problems


class TestCorpusEquivalence:
    def test_full_stack(self, corpus_case):
        table, executables = build_case_front(corpus_case)
        config = load_config([str(p) for p in STACK])
        assert compare_project(executables, table, config) == []

    def test_generic_prefixes(self, corpus_case):
        from demeterlint.presets import GENERIC

        table, executables = build_case_front(corpus_case)
        for cut in (1, 3, len(GENERIC)):
            config = load_config([str(p) for p in GENERIC[:cut]])
            assert compare_project(executables, table, config) == []


class TestRandomEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_program_random_config(self, seed):
        table, executables = build_front(random_program(seed))
        config = random_config(seed)
        assert compare_project(executables, table, config) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_random_program_large_rule_stack(self, seed):
        table, executables = build_front(random_program(seed))
        config = random_config(seed, max_rules=LARGE_STACK)
        assert compare_project(executables, table, config) == []

    def test_random_program_preset_stack(self):
        # Preset rules name no rp.* types, so they must all be inert.
        table, executables = build_front(random_program(4242))
        config = load_config([str(p) for p in STACK])
        problems = compare_project(executables, table, config)
        assert problems == []


#: Lenient binding of supertypes that resolve to nothing: ``Gone`` and
#: ``Nope`` are unknown types that close to themselves.
UNKNOWN_SUPERTYPE_SOURCE = (
    "package p; interface I { C c(); } class C { void f() { } } "
    "class G extends Gone implements I { public C c() { return null; } } "
    "class H extends G implements Nope { void m(G g, Gone x) { g.c().f(); x.y().z(); } } "
    "class D { G g() { return null; } void n() { g().c().f(); new H().c().f(); } }"
)
UNKNOWN_SUPERTYPE_CONFIG = [
    json.dumps({"schema": "demeterlint-config/1", "layer": layer, "rules": rules})
    for layer, rules in enumerate([
        [{"id": "T1", "kind": "universal-friend-types", "implementors_of": ["p.I"]}],
        [
            {"id": "T2", "kind": "universal-friend-types", "types": ["Gone"]},
            {"id": "I1", "kind": "friend-implication", "pairs": [["p.G", "p.C"]]},
        ],
    ])
]


class TestLenientUnknownSupertypes:
    def test_engine_agrees_with_the_oracle(self):
        table, executables = build_front(
            [("A.java", UNKNOWN_SUPERTYPE_SOURCE)], [OBJECT_STUB], ResolutionMode.LENIENT
        )
        assert table.get("p.G").supertypes[0] == unknown_type("Gone")
        config = load_config(UNKNOWN_SUPERTYPE_CONFIG)
        adapter = Adapter(executables, table, config)
        violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
        assert len(violations) >= 3
        assert {v.outcome for v in adapter.classify(violations)} == {"silenced", "remaining"}
        assert compare_project(executables, table, config) == []


#: Violations of ``p.T.f`` in an executable and in an anonymous body inside
#: it, under layers of universal-friend-types rules, most of which grant
#: types other than the receiver.
FRIEND_TYPES_SOURCE = (
    "package p; interface R { void go(); } class T { void f() { } } class X { } "
    "class H { T t() { return null; } } "
    "class A { void m(H h) { h.t().f(); R r = new R() { public void go() { H g = null; g.t().f(); } }; } }"
)


def friend_types_config(*layers):
    return load_config([
        json.dumps({"schema": "demeterlint-config/1", "layer": layer, "rules": rules})
        for layer, rules in enumerate(layers)
    ])


def friend_types(prefix: str, *types: str) -> list[dict]:
    return [
        {"id": f"{prefix}{j}", "kind": "universal-friend-types", "types": [t]}
        for j, t in enumerate(types)
    ]


class TestFriendTypesThatMissTheReceiver:
    """Attribution leaves out a granting rule whose grants lack the
    receiver only while no implication can turn a grant into it."""

    @pytest.mark.parametrize("layers, credits", [
        # Only the last rule grants p.T.
        ([friend_types("U", "p.H", "p.X", "p.H", "p.T")],
         [("U3", ()), ("U0", ("U2",)), ("U3", ())]),
        # Two rules grant p.T: neither is necessary, each suffices alone.
        ([friend_types("U", "p.T", "p.H", "p.T")],
         [("U0", ("U2",)), ("U1", ()), ("U0", ("U2",))]),
        # An implication through layer k: granting p.X implies p.T.
        ([[{"id": "I", "kind": "friend-implication", "pairs": [["p.X", "p.T"]]}],
          friend_types("U", "p.H", "p.X", "p.H")],
         [("U1", ()), ("U0", ("U2",)), ("U1", ())]),
        # The enclosing executable's grant carried into the anonymous body.
        ([[{"id": "S", "kind": "anon-inner-share"}],
          friend_types("U", "p.H", "p.X")
          + [{"id": "G", "kind": "executable-grant", "executables": ["p.A#m(H)"],
              "grants": ["p.T"]}]],
         [("G", ()), ("S", ()), ("G", ())]),
    ])
    def test_engine_agrees_with_the_oracle(self, layers, credits):
        table, executables = build_front([("A.java", FRIEND_TYPES_SOURCE)], [OBJECT_STUB])
        config = friend_types_config(*layers)
        adapter = Adapter(executables, table, config)
        violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
        verdicts = adapter.classify(violations)
        assert [(v.rule_id, v.also_matched) for v in verdicts] == credits
        assert compare_project(executables, table, config) == []


#: A violation in an anonymous body that only grants to the enclosing
#: ``p.A#m()`` silence, through an enabled anon-inner-share of layer 0.  G1
#: and G2 each suffice alone; U grants the anonymous body itself.
SHARE_SOURCE = (
    "package p; interface R { void go(); } class B { void f() { } } class X { } "
    "class A { void m() { R r = new R() { public void go() { B b = null; b.f(); } }; } }"
)
SHARE_CONFIG = [
    json.dumps({"schema": "demeterlint-config/1", "layer": layer, "rules": rules})
    for layer, rules in enumerate([
        [{"id": "S", "kind": "anon-inner-share"}],
        [
            {"id": "U", "kind": "universal-friend-types", "types": ["p.X"]},
            {"id": "G1", "kind": "executable-grant", "executables": ["p.A#m()"],
             "grants": ["p.B"]},
            {"id": "G2", "kind": "executable-grant", "executables": ["p.A#*"],
             "grants": ["p.B"]},
        ],
    ])
]


class TestShareAttribution:
    def test_rules_of_the_enclosing_executable_are_probed(self):
        table, executables = build_front([("A.java", SHARE_SOURCE)], [OBJECT_STUB])
        config = load_config(SHARE_CONFIG)
        assert compare_project(executables, table, config) == []
        adapter = Adapter(executables, table, config)
        violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
        (verdict,) = adapter.classify(violations)
        assert verdict.violation.executable_id == "p.A$anon1#go()"
        # Neither grant is necessary and each suffices alone.
        assert (verdict.outcome, verdict.layer, verdict.rule_id, verdict.also_matched) == (
            "silenced", 1, "G1", ("G2",)
        )

    def test_a_disabled_share_rule_is_not_probed(self):
        """A disabled anon-inner-share rule is inert: at the layer where an
        enabled one silences a site in an anonymous body, only the enabled
        one is probed, and the verdict is the oracle's."""
        table, executables = build_front([("A.java", SHARE_SOURCE)], [OBJECT_STUB])
        config = load_config([
            json.dumps({"schema": "demeterlint-config/1", "layer": layer, "rules": rules})
            for layer, rules in enumerate([
                [{"id": "G", "kind": "executable-grant", "executables": ["p.A#m()"],
                  "grants": ["p.B"]}],
                [{"id": "S0", "kind": "anon-inner-share", "enabled": False},
                 {"id": "S1", "kind": "anon-inner-share"}],
            ])
        ])
        adapter = Adapter(executables, table, config)
        violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
        verdicts = adapter.classify(violations)
        (verdict,) = verdicts
        assert (verdict.outcome, verdict.layer, verdict.rule_id) == ("silenced", 1, "S1")
        probed = adapter._probed(verdict.violation, 1)
        assert [r.rule_id for r in probed] == ["S1"]
        assert engine_verdicts_as_dicts(verdicts) == oracle_verdicts(executables, table, config)


class TestExecutableIds:
    def test_initializer_ids_and_globs_agree_with_the_oracle(self):
        """An executable-grant glob that equals an id matches it, brackets
        and all; other globs match as fnmatch does.  Accepted and pending
        grants of each form, on initializer and method ids."""
        table, executables = build_front([("A.java", INITIALIZERS)], [OBJECT_STUB])
        rules = [
            ("accepted", ["p.A#<clinit>[1]"]),
            ("review-pending", ["p.A#<init-block>[2]"]),
            ("adjourned", ["p.A#m?()", "p.A#<init-block>[1]"]),
        ]
        config = load_config([
            json.dumps({
                "schema": "demeterlint-config/1",
                "layer": 0,
                "name": "grants",
                "rules": [
                    {"id": f"G{i}", "kind": "executable-grant", "executables": globs,
                     "grants": ["p.B"], "status": status}
                    for i, (status, globs) in enumerate(rules)
                ],
            })
        ])
        assert compare_project(executables, table, config) == []
        adapter = Adapter(executables, table, config)
        violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
        got = {
            v.violation.executable_id: (v.outcome, v.status)
            for v in adapter.classify(violations)
        }
        assert got == {
            "p.A#<clinit>[1]": ("silenced", ""),
            "p.A#<init-block>[1]": ("remaining", "adjourned"),
            "p.A#<init-block>[2]": ("remaining", "review-pending"),
            "p.A#m1()": ("remaining", "adjourned"),
            "p.A#m2()": ("remaining", "adjourned"),
        }


def attribution_branch(adapter, config, verdict) -> str:
    """Which branch credited a silenced verdict, probed afresh: a rule at
    its layer is necessary, else one suffices alone, else a conjunction."""
    v = verdict.violation
    ids = {r.rule_id for r in config.rules_at(verdict.layer)}

    def silenced(disabled) -> bool:
        friends = adapter.effective(v.executable_id, verdict.layer, frozenset(disabled))
        return check_site(v.site, v.executable_id, friends) is None

    if any(not silenced({i}) for i in ids):
        return "single-necessary"
    if any(silenced(ids - {i}) for i in ids):
        return "suffices-alone"
    return "conjunction"


class TestRedundantRuleFamilies:
    def test_random_runs_reach_every_attribution_branch(self):
        counts = Counter()
        for seed in range(40):
            table, executables = build_front(random_program(seed))
            config = redundant_config(seed)
            assert compare_project(executables, table, config) == [], seed
            adapter = Adapter(executables, table, config)
            violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
            for verdict in adapter.classify(violations):
                if verdict.outcome == "silenced":
                    counts[attribution_branch(adapter, config, verdict)] += 1
        print(f"attribution branches over 40 seeds: {dict(sorted(counts.items()))}")
        assert all(counts[b] > 0 for b in ("single-necessary", "suffices-alone", "conjunction"))


class TestConjunctionAttribution:
    def test_first_completing_prefix_takes_the_credit(self):
        table, executables = build_front([("A.java", CONJUNCTION_SOURCE)], [OBJECT_STUB])
        config = load_config([CONJUNCTION_CONFIG])
        assert compare_project(executables, table, config) == []
        adapter = Adapter(executables, table, config)
        violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
        (verdict,) = adapter.classify(violations)
        assert verdict.violation.site.member.name == "f"
        # T1, T2 and I1 is the shortest layer-0 prefix that silences .f().
        assert (verdict.outcome, verdict.layer, verdict.rule_id, verdict.also_matched) == (
            "silenced", 0, "I1", ()
        )
