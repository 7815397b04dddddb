"""The analysis's work and memory grow linearly with its input.

Each shape is built at size n and 4n, and the larger one may take at most
4.5 times the work, or the memory, of the smaller.  Work is the number of
function calls cProfile counts while parsing, declaring and binding the
sources, or while classifying their violations, so the test reads no clock
and does not depend on the machine or its load.  Memory is the peak that
tracemalloc sees over the same calls.
"""

import cProfile
import gc
import json
import pstats
import tracemalloc

import pytest

from demeterlint.adapt import Adapter, load_config
from demeterlint.codemodel import TypeTable
from demeterlint.demeter import base_friend_set, detect
from demeterlint.javafront import bind_and_extract, build_type_table, parse_unit

from conftest import build_front
from randprog import random_program

N = 500
BOUND = 4.5


def _work(sources: list[tuple[str, str]]) -> int:
    profile = cProfile.Profile()
    profile.enable()
    try:
        build_front(sources)
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def _peak(sources: list[tuple[str, str]]) -> int:
    # A full collection empties the interpreter's free lists, whose reuse
    # tracemalloc does not see, so the peak does not depend on what ran
    # before (``tokenize`` makes one 2-tuple per token).
    gc.collect()
    tracemalloc.start()
    try:
        build_front(sources)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def inherited_chain(n: int) -> list[tuple[str, str]]:
    """n classes in n files, each naming the member type its chain of
    superclasses inherits from the first."""
    files = [("C0.java", "package p;\nclass C0 { class In { void a() { } } }\n")]
    files += [
        (f"C{i}.java", f"package p;\nclass C{i} extends C{i - 1} {{ void m(In x) {{ x.a(); }} }}\n")
        for i in range(1, n)
    ]
    return files


def reversed_inherited_chain(n: int) -> list[tuple[str, str]]:
    return inherited_chain(n)[::-1]


def class_chain(n: int) -> list[tuple[str, str]]:
    """n classes, each reaching through a field of its superclass for a
    field and a method that the first declares."""
    files = [("C0.java", "package p;\nclass C0 { C0 f; void a() { } }\n")]
    files += [
        (
            f"C{i}.java",
            f"package p;\nclass C{i} extends C{i - 1} {{ C{i - 1} g; void m() {{ g.f.a(); }} }}\n",
        )
        for i in range(1, n)
    ]
    return files


def else_if_chain(n: int) -> list[tuple[str, str]]:
    arms = " else ".join(f"if (k == {i}) g();" for i in range(n))
    return [("A.java", "class A { void g() { } void m(int k) { " + arms + " } }")]


@pytest.mark.parametrize(
    "shape", [inherited_chain, reversed_inherited_chain, class_chain, else_if_chain]
)
def test_work_grows_linearly(shape):
    small, large = _work(shape(N)), _work(shape(4 * N))
    assert large <= BOUND * small, f"{shape.__name__}: {small} -> {large} calls"


def call_chain(n: int) -> list[tuple[str, str]]:
    """One statement calling n methods in a row, each on the last's result."""
    return [("A.java", "class A { A b() { return this; } void m(A a) { a" + ".b()" * n + "; } }")]


def test_call_chain_memory_grows_linearly():
    small, large = _peak(call_chain(N)), _peak(call_chain(4 * N))
    assert large <= BOUND * small, f"call_chain: {small} -> {large} bytes"


def non_friend_chain(n: int) -> list[tuple[str, str]]:
    """One statement calling n methods in a row, each after the first on a
    type that is no friend of the caller's: n - 1 violations."""
    return [(
        "A.java",
        "class C { C c() { return this; } } class B { C c() { return null; } } "
        "class A { void m(B x) { x" + ".c()" * n + "; } }",
    )]


#: An aggregation rule that infers element types from calls on own fields,
#: so classifying a violation of A scans the method calls of A's sites.
AGGREGATION = load_config([json.dumps({
    "schema": "demeterlint-config/1",
    "layer": 0,
    "rules": [{"id": "R1", "kind": "aggregation-elements", "infer_via": ["add"]}],
})])


def _classify_work(sources: list[tuple[str, str]], config=AGGREGATION) -> int:
    table, executables = build_front(sources)
    profile = cProfile.Profile()
    profile.enable()
    try:
        adapter = Adapter(executables, table, config)
        violations = [v for ex in executables for v in detect(ex, base_friend_set(ex, table))]
        adapter.classify(violations)
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def test_classify_work_grows_linearly_on_a_call_chain():
    small, large = _classify_work(non_friend_chain(N)), _classify_work(non_friend_chain(4 * N))
    assert large <= BOUND * small, f"non_friend_chain: {small} -> {large} calls"


def one_violation_each(n: int) -> list[tuple[str, str]]:
    """n executables, each with one violation: ``p.T.f`` called on a
    non-friend receiver."""
    return [(
        "A.java",
        "package p;\nclass T { void f() { } }\nclass H { T t() { return null; } }\nclass A {\n"
        + "".join(f"  void m{i}(H h) {{ h.t().f(); }}\n" for i in range(n))
        + "}\n",
    )]


MANY_VIOLATIONS = one_violation_each(200)


def many_rules(n: int):
    """One layer of n rules: the first exempts ``p.T.f`` and so silences
    every violation; the rest, exemptions of other members and grants to
    executables of another class, touch none, so every verdict is the same
    at any n."""
    rules = [{
        "id": "M0", "kind": "universal-friend-members",
        "member_pattern": {"type": "p.T", "name": "f"},
    }]
    for j in range(1, n):
        if j % 2:
            rules.append({
                "id": f"M{j}", "kind": "universal-friend-members",
                "member_pattern": {"type": "p.T", "name": f"g{j}"},
            })
        else:
            rules.append({
                "id": f"G{j}", "kind": "executable-grant", "executables": [f"p.B#m{j}()"],
                "grants": ["p.T"], "status": "accepted",
            })
    return load_config([json.dumps({"schema": "demeterlint-config/1", "layer": 0, "rules": rules})])


def test_classify_work_grows_linearly_in_rules_per_layer():
    small = _classify_work(MANY_VIOLATIONS, many_rules(200))
    large = _classify_work(MANY_VIOLATIONS, many_rules(800))
    assert large <= BOUND * small, f"many_rules: {small} -> {large} calls"


def many_friend_types(n: int):
    """One layer of n universal-friend-types rules, active in every
    executable; only the last befriends ``p.T``, so it alone silences every
    violation at any n."""
    rules = [
        {"id": f"U{j}", "kind": "universal-friend-types", "types": ["p.H"]}
        for j in range(n - 1)
    ]
    rules.append({"id": "UT", "kind": "universal-friend-types", "types": ["p.T"]})
    return load_config([json.dumps({"schema": "demeterlint-config/1", "layer": 0, "rules": rules})])


def test_classify_work_grows_linearly_in_friend_type_rules():
    small = _classify_work(MANY_VIOLATIONS, many_friend_types(50))
    large = _classify_work(MANY_VIOLATIONS, many_friend_types(200))
    assert large <= BOUND * small, f"many_friend_types: {small} -> {large} calls"


def many_units(n: int) -> list[tuple[str, str]]:
    """n small units in a ring, each class naming the one before it."""
    files = []
    for i in range(n):
        j = (i - 1) % n
        files.append((f"C{i}.java", (
            f"package p;\nclass C{i} {{\n"
            f"  C{j} prev; C{i} self; int v;\n"
            f"  C{i}(C{j} p, int v) {{ this.prev = p; this.v = v; }}\n"
            f"  C{j} back() {{ return prev; }}\n"
            f"  int get(int k) {{ if (k > v) {{ return prev.back().get(k - 1); }} "
            f"return self.get(k + v) * 2; }}\n"
            f"  void m(C{j} x) {{ x.back().back(); prev.get(v); "
            f"C{i} c = new C{i}(x, 3); c.back().get(1); }}\n"
            "}\n"
        )))
    return files


#: The front end's peak over what it holds once the table is declared.  A
#: unit's tree is freed as soon as it is bound, so the peak is about the
#: declared project (a ratio near 1.1); one that kept every tree through
#: the bind would be near 2.
PEAK_OVER_DECLARED = 1.4


def test_many_units_peak_is_the_declared_project():
    sources = many_units(N)
    tracemalloc.start()
    try:
        units = [parse_unit(text, name) for name, text in sources]
        table = build_type_table(units, TypeTable())
        declared = tracemalloc.get_traced_memory()[0]
        executables = bind_and_extract(units, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(executables) == 4 * N
    assert peak <= PEAK_OVER_DECLARED * declared, f"{declared} -> {peak} bytes"
    assert units == []


def generated_project(n: int) -> list[tuple[str, str]]:
    """n units of ``random_program``, unit i in package ``rp<i>``."""
    return [
        (f"P{i}.java", random_program(i)[0][1].replace("package rp;", f"package rp{i};", 1))
        for i in range(n)
    ]


#: What the trees may still hold once the table is declared and released,
#: over what they held after the parse.  The declare drops each type's
#: modifiers, supertype names, return and field types, and the fields and
#: methods with nothing to bind (about 0.84 of the parse on this project);
#: trees kept whole read 0.99.
DECLARED_OVER_PARSED = 0.93


def test_declare_drops_what_only_the_declare_reads():
    sources = generated_project(N // 2)
    gc.collect()
    tracemalloc.start()
    try:
        units = [parse_unit(text, name) for name, text in sources]
        parsed = tracemalloc.get_traced_memory()[0]
        table = build_type_table(units, TypeTable())
        del table
        gc.collect()
        declared = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert declared <= DECLARED_OVER_PARSED * parsed, f"{parsed} -> {declared} bytes"


def many_member_rules(n: int):
    """One layer of n member rules that match no site, then one that
    exempts ``p.T.f`` and so silences every violation."""
    rules = [
        {"id": f"M{j}", "kind": "universal-friend-members",
         "member_pattern": {"type": "p.T", "name": f"g{j}"}}
        for j in range(n)
    ]
    rules.append({
        "id": "MF", "kind": "universal-friend-members",
        "member_pattern": {"type": "p.T", "name": "f"},
    })
    return load_config([json.dumps({"schema": "demeterlint-config/1", "layer": 0, "rules": rules})])


def _classify_peak(sources: list[tuple[str, str]], config) -> tuple[int, list]:
    table, executables = build_front(sources)
    violations = [v for ex in executables for v in detect(ex, base_friend_set(ex, table))]
    tracemalloc.start()
    try:
        verdicts = Adapter(executables, table, config).classify(violations)
        return tracemalloc.get_traced_memory()[1], verdicts
    finally:
        tracemalloc.stop()


def test_classify_memory_grows_linearly_in_member_rules():
    """The member exemptions depend on the rules alone, so the executables
    share them: 8 times the rules may cost at most BOUND times the memory."""
    small, small_verdicts = _classify_peak(MANY_VIOLATIONS, many_member_rules(100))
    large, large_verdicts = _classify_peak(MANY_VIOLATIONS, many_member_rules(800))
    for verdicts in (small_verdicts, large_verdicts):
        assert len(verdicts) == 200
        assert {(v.outcome, v.rule_id) for v in verdicts} == {("silenced", "MF")}
    assert large <= BOUND * small, f"many_member_rules: {small} -> {large} bytes"


#: Two layers whose rules build a ladder, effective sets and ablation probes
#: for every executable: the second layer's member exemption and grant each
#: silence every violation alone.
GROUP_STACK = load_config([
    json.dumps({"schema": "demeterlint-config/1", "layer": 0, "rules": [
        {"id": "U", "kind": "universal-friend-types", "types": ["p.H"]},
        {"id": "S", "kind": "anon-inner-share"},
    ]}),
    json.dumps({"schema": "demeterlint-config/1", "layer": 1, "rules": [
        {"id": "M", "kind": "universal-friend-members",
         "member_pattern": {"type": "p.T", "name": "f"}},
        {"id": "E", "kind": "executable-grant", "executables": ["p.A#*"], "grants": ["p.T"]},
    ]}),
])

#: What classify may hold beyond its verdicts per violation at its peak:
#: the sort's key and its merge space for a key and a verdict, with slack.
SORT_BYTES_PER_VIOLATION = 32


def _classify_transient(sources: list[tuple[str, str]]) -> int:
    """Classify's tracemalloc peak less what it still holds on return once
    the adapter is gone: its verdicts and the table's memos."""
    table, executables = build_front(sources)
    violations = [v for ex in executables for v in detect(ex, base_friend_set(ex, table))]
    adapter = Adapter(executables, table, GROUP_STACK)
    gc.collect()
    tracemalloc.start()
    try:
        verdicts = adapter.classify(violations)
        del adapter
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {(v.outcome, v.rule_id) for v in verdicts} == {("silenced", "M")}
    return peak - held


def test_classify_keeps_the_memos_of_one_executable_group():
    """The memos of each executable are dropped when classify moves on to
    the next group, so what it holds at its peak, beyond what it returns,
    does not grow with the number of groups but for the sort's few words
    per violation."""
    small = _classify_transient(one_violation_each(N))
    large = _classify_transient(one_violation_each(4 * N))
    assert large - small <= SORT_BYTES_PER_VIOLATION * 3 * N, f"{small} -> {large} bytes"
