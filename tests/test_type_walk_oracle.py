"""The parser's list of type declarations against the naive walk oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demeterlint.javafront import parse_unit

from conftest import CORPUS
from naive_type_walk import naive_type_nodes
from randprog import random_program

#: Units per seed of the benchmark's synth-raw project, whose unit i of seed
#: s is ``random_program(s * 1000003 + i)`` in package ``rp<i>``.
SYNTH_RAW_UNITS = 800


def _agrees_with_oracle(text: str, name: str) -> None:
    unit = parse_unit(text, name)
    listed = [(node, node.qualified_name) for node in unit.type_decls]
    for node, _ in listed:
        node.qualified_name = None
    walked = [(node, node.qualified_name) for node in naive_type_nodes(unit)]
    assert [q for _, q in listed] == [q for _, q in walked]
    assert all(a is b for (a, _), (b, _) in zip(listed, walked))


def test_corpus():
    paths = sorted(CORPUS.rglob("*.java"))
    assert paths
    for path in paths:
        _agrees_with_oracle(path.read_text(), path.name)


def test_randprog_seeds():
    for seed in range(220):
        for name, text in random_program(seed):
            _agrees_with_oracle(text, name)


@pytest.mark.parametrize("seed", range(4))
def test_synth_raw_seeds(seed):
    for i in range(SYNTH_RAW_UNITS):
        (name, text), = random_program(seed * 1_000_003 + i)
        _agrees_with_oracle(text.replace("package rp;", f"package rp{i};", 1), name)


def test_nested_and_anonymous_shapes():
    # Creation arguments are numbered before the body they pass to; a member
    # type of an anonymous class starts its own numbering; field
    # initializers, switch labels, loops and try blocks are all reached.
    text = (
        "package p;\n"
        "class A {\n"
        "  I f = new I() { public void f() { } }, g = h(new I() { public void f() { } });\n"
        "  void m(int k) {\n"
        "    new B(new I() { public void f() { new I() { public void f() { } }; } }) {\n"
        "      class In { I g = new I() { public void f() { } }; }\n"
        "      public void f() { new I() { public void f() { } }; }\n"
        "    };\n"
        "    for (I i = new I() { public void f() { } }; k > 0; h(new I() { public void f() { } })) { }\n"
        "    switch (k) { case 1: h(new I() { public void f() { } }); }\n"
        "    try { h(new I() { public void f() { } }); } catch (E e) { } finally { }\n"
        "    while (h(new I() { public void f() { } }) == null) { }\n"
        "  }\n"
        "  static I h(I i) { return i; }\n"
        "  interface J { }\n"
        "  class Inner { void k() { new I() { public void f() { } }; } }\n"
        "}\n"
        "interface I { void f(); }\n"
        "class B { B(I i) { } void f() { } }\n"
        "class E { }\n"
    )
    _agrees_with_oracle(text, "A.java")
    assert [n.qualified_name for n in parse_unit(text, "A.java").type_decls] == [
        "p.A", "p.A$anon1", "p.A$anon2", "p.A$anon3", "p.A$anon4", "p.A$anon5",
        "p.A$anon5$In", "p.A$anon5$In$anon1", "p.A$anon6", "p.A$anon7", "p.A$anon8",
        "p.A$anon9", "p.A$anon10", "p.A$anon11", "p.A$J", "p.A$Inner",
        "p.A$Inner$anon1", "p.I", "p.B", "p.E",
    ]


def _anonymous(body: str) -> str:
    return f"new I() {{ {body} }}"


#: Member lists that nest anonymous classes and member types in each other:
#: an anonymous class in an anonymous class, a member type in an anonymous
#: class, and an anonymous class in a member of an anonymous class.
nested_members = st.recursive(
    st.sampled_from(["", "int k;", "void n() { }"]),
    lambda inner: st.one_of(
        inner.map(lambda body: f"I g = {_anonymous(body)};"),
        inner.map(lambda body: f"void m() {{ {_anonymous(body)}; }}"),
        st.tuples(inner, inner).map(
            lambda bodies: f"void m() {{ h({_anonymous(bodies[0])}, {_anonymous(bodies[1])}); }}"
        ),
        st.tuples(inner, inner).map(
            lambda bodies: f"void m() {{ new B({_anonymous(bodies[0])}) {{ {bodies[1]} }}; }}"
        ),
        st.tuples(st.integers(0, 2), inner).map(lambda named: f"class In{named[0]} {{ {named[1]} }}"),
        st.tuples(inner, inner).map(" ".join),
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(nested_members)
def test_nested_anonymous_shapes(members):
    _agrees_with_oracle(f"package p;\nclass A {{ {members} }}\ninterface I {{ }}\n", "A.java")
