"""The binder's type-name resolution against the naive scope oracle.

Drawn projects nest member classes and interfaces, inherit through classes
and interfaces across files, and name types through single-type imports,
on-demand imports and the same package, with the files given in a drawn
order.  Each class has a method whose parameters name types by simple name
and whose body calls ``f()`` on each; every site's receiver type and every
declared supertype must be the one the oracle finds.  javac rejects a
name that means member types inherited from two supertypes, where the
binder takes the nearest, so such projects are left out.
"""

import functools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from demeterlint.javafront import parse_unit

from conftest import build_front
import naive_scope

CLASSES = ("A", "B", "K")
INTERFACES = ("I", "J")
NAMES = CLASSES + INTERFACES


def _later(name: str, kind: tuple) -> tuple:
    """The names of ``kind`` after ``name``: a type only extends or
    implements types named later, so no drawn project has a cycle."""
    return kind[kind.index(name) + 1:] if name in kind else kind


@functools.cache
def _subsets(choices: tuple, max_size: int):
    return st.lists(st.sampled_from(choices), max_size=max_size, unique=True)


def _some(draw, choices: tuple, max_size: int) -> list:
    """Up to ``max_size`` distinct names drawn from ``choices``."""
    return draw(_subsets(choices, max_size)) if choices else []


def _type_decl(draw, name: str, enclosing: tuple, in_interface: bool) -> str:
    """The text of a class or interface ``name``, with member types down to
    three levels of nesting; the modifiers keep it javac-valid anywhere."""
    if not enclosing:
        modifiers = "public "
    elif in_interface:
        modifiers = ""
    else:
        modifiers = "public " if name in INTERFACES else "public static "
    faces = _some(draw, _later(name, INTERFACES), 1 if name in CLASSES else 2)
    if name in CLASSES:
        head = f"{modifiers}class {name}"
        sup = draw(st.sampled_from(("",) + _later(name, CLASSES)))
        if sup:
            head += f" extends {sup}"
        if faces:
            head += " implements " + ", ".join(faces)
        params = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3))
        body = [
            "public void f() { }",
            "public void m(" + ", ".join(f"{t} x{i}" for i, t in enumerate(params)) + ") { "
            + " ".join(f"x{i}.f();" for i in range(len(params))) + " }",
        ]
    else:
        head = f"{modifiers}interface {name}"
        if faces:
            head += " extends " + ", ".join(faces)
        body = ["void f();"]
    if len(enclosing) < 3:
        free = tuple(n for n in NAMES if n not in enclosing + (name,))
        for member in _some(draw, free, 2):
            body.append(_type_decl(draw, member, enclosing + (name,), name in INTERFACES))
    return head + " { " + " ".join(body) + " }"


@st.composite
def projects(draw) -> dict[str, str]:
    """Package p declares every name, package q some; each file holds one
    public top-level type.  A file of p may import q's types, on demand or
    by name; a file of q imports p's on demand, and may import some by
    name as well."""
    tops = {
        "p": NAMES,
        "q": draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True)),
    }
    files = {}
    for pkg, other in (("p", "q"), ("q", "p")):
        for name in tops[pkg]:
            lines = [f"package {pkg};"]
            how = draw(st.sampled_from(("none", "on-demand", "single")))
            if how == "on-demand" or pkg == "q":
                lines.append(f"import {other}.*;")
            if how == "single":
                for n in _some(draw, tuple(n for n in tops[other] if n != name), 5):
                    lines.append(f"import {other}.{n};")
            lines.append(_type_decl(draw, name, (), False))
            files[f"{pkg}/{name}.java"] = "\n".join(lines) + "\n"
    return files


def expected(files: dict[str, str]) -> dict[str, tuple[list[str], list[str]]]:
    """Per named type, the oracle's supertypes and, for a class, the types
    of its ``m`` parameters, in order."""
    units = [parse_unit(text, name) for name, text in files.items()]
    project = naive_scope.Project(units)
    project.check_acyclic()
    want = {}
    for name, (node, unit, _) in project.types.items():
        params = [
            project.resolve(unit, name, p.type.name)
            for m in node.members
            if getattr(m, "name", None) == "m"
            for p in m.params
        ]
        want[name] = (project.supertypes(name), params)
    return want


@settings(max_examples=100, deadline=None)
@given(projects(), st.data())
def test_receivers_and_supertypes_match_the_oracle(files, data):
    order = data.draw(st.permutations(sorted(files)))
    sources = [(name, files[name]) for name in order]
    try:
        want = expected(files)
    except naive_scope.AmbiguousMember:
        assume(False)
    table, executables = build_front(sources)
    for name, (supers, _) in want.items():
        assert [t.name for t in table.get(name).supertypes] == supers, name
    seen = set()
    for ex in executables:
        name = ex.owner_type.name
        if ex.id.startswith(f"{name}#m("):
            receivers = [s.receiver.static_type.name for s in ex.body_accesses]
            assert receivers == want[name][1], ex.id
            seen.add(name)
    assert seen == {name for name, (_, params) in want.items() if params}
