"""Golden diagnostics and sites of the binder.

One minimal project per branch of ``build_type_table`` and
``bind_and_extract`` that the other tests leave unrun, through ``cli.run``:
the exact stderr line of an error (exit 2, nothing on stdout), or the
verdict that a resolved site yields.  Each case says whether javac 17
accepts the project.  ``{A}`` stands for the path of ``A.java``, and so on
for each file of a case.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from demeterlint.cli import RunOptions, run
from demeterlint.codemodel import ResolutionMode
from demeterlint.javafront import parse_unit

import naive_scope

STUBS = Path(__file__).parent / "fixtures" / "stubs"


def _run(tmp_path, files: dict[str, str], stubs=(), lenient=False, configs=()):
    """Write ``files`` and analyze them, in json; the exit code, the
    report's verdicts as (site, access, member, receiver, chain types) and
    stderr with each file's path written as its ``{stem}``."""
    paths = []
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(path)
    out, err = io.BytesIO(), io.StringIO()
    options = RunOptions(
        source_paths=tuple(paths),
        stub_paths=tuple(STUBS / s for s in stubs),
        config_paths=configs,
        format="json",
        resolution=ResolutionMode.LENIENT if lenient else ResolutionMode.STRICT,
    )
    code = run(options, out, err)
    verdicts = [
        (v["site"], v["access"], v["member"], v["receiver"], [c["type"] for c in v["chain"]])
        for v in (json.loads(out.getvalue())["verdicts"] if out.getvalue() else ())
    ]
    stderr = err.getvalue()
    for path in paths:
        stderr = stderr.replace(str(path), "{" + path.stem + "}")
    return code, verdicts, stderr


def _javac_rejects_names(files: dict[str, str]) -> None:
    """Resolve every supertype and parameter type through the naive scope
    oracle, which raises ``Invalid`` where javac finds no such type."""
    project = naive_scope.Project([parse_unit(text, name) for name, text in files.items()])
    project.check_acyclic()
    for name, (node, unit, _) in project.types.items():
        project.supertypes(name)
        for m in node.members:
            for p in getattr(m, "params", ()):
                project.resolve(unit, name, p.type.name)


#: A ``$`` in a written name is never read as nesting: a member type is
#: reached through the scope chain alone.  javac says ``cannot find symbol``
#: for each.
DOLLAR_CASES = {
    "binary-name-as-supertype": (
        "package p;\nclass E0 { class T { } }\nclass E1 extends E0$T { }\n",
        "E-BIND: {A}:3:18: unknown type 'E0$T'",
    ),
    "top-level-type-spelled-like-a-member": (
        "package p;\nclass A$In { void f() { } }\nclass B { class In { } }\n"
        "class A { void m(In x) { x.f(); } }\n",
        "E-BIND: {A}:4:18: unknown type 'In'",
    ),
    "binary-name-imported": (
        "package p;\nimport p.E0$T;\nclass E0 { class T { void f() { } } }\n"
        "class E1 { void m(E0$T x) { x.f(); } }\n",
        "E-BIND: {A}:4:19: unknown type 'E0$T'",
    ),
}


@pytest.mark.parametrize("text, expected", DOLLAR_CASES.values(), ids=DOLLAR_CASES)
def test_a_dollar_in_a_name_is_not_nesting(tmp_path, text, expected):
    files = {"A.java": text}
    assert _run(tmp_path, files) == (2, [], expected + "\n")
    with pytest.raises(naive_scope.Invalid):
        _javac_rejects_names(files)


#: Errors of the bind, one line each.  javac rejects every one of these
#: units, with ``cannot find symbol`` unless the case says otherwise.
ERROR_CASES = {
    # javac accepts it.  A single-type import names its type even when no
    # stub declares it, so the type keeps its qualified name.
    "member-of-an-imported-library-type": (
        "package p;\nimport java.util.concurrent.Executor;\n"
        "class A { void m(Executor e) { e.execute(null); } }\n",
        (),
        "E-BIND: {A}:3:34: no member execute(1 args) on type java.util.concurrent.Executor",
    ),
    "member-of-an-array": (
        "package p;\nclass A { void m(int[] a) { a.f(); } }\n",
        ("object.json",),
        "E-BIND: {A}:2:31: no member f(0 args) on type java.lang.Object",
    ),
    "super-member-of-a-class-with-no-superclass": (
        "package p;\nclass A { void m() { super.f(); } }\n",
        ("object.json",),
        "E-BIND: {A}:2:28: no member f(0 args) on type java.lang.Object",
    ),
    "unresolved-implicit-call": (
        "package p;\nclass A { void m() { g(); } }\n",
        (),
        "E-BIND: {A}:2:22: cannot resolve method 'g' (0 args)",
    ),
    # javac: array required, but int found.
    "index-of-a-non-array": (
        "package p;\nclass A { int x; void m() { int y = x[0]; } }\n",
        (),
        "E-BIND: {A}:2:38: array access on non-array type int",
    ),
    # ``p`` is only the start of the type name ``p.A``.
    "call-on-a-package-name": (
        "package p;\nclass A { void m() { p.f(); } }\n",
        (),
        "E-BIND: {A}:2:24: cannot resolve name 'p'",
    ),
    "assignment-to-an-unresolved-name": (
        "package p;\nclass A { void m() { y = 1; } }\n",
        (),
        "E-BIND: {A}:2:22: cannot resolve name 'y'",
    ),
}


@pytest.mark.parametrize("text, stubs, expected", ERROR_CASES.values(), ids=ERROR_CASES)
def test_bind_error(tmp_path, text, stubs, expected):
    assert _run(tmp_path, {"A.java": text}, stubs) == (2, [], expected + "\n")


#: Sites the bind resolves: (project, stubs, lenient, verdicts).
SITE_CASES = {
    # javac accepts it.  ``I`` is looked up in ``J`` and its superclass
    # first, a stub type with no member types, before it is found in ``O``.
    "member-type-past-a-stub-superclass": (
        "package p;\nclass O {\n  class K { void g() { } }\n  class I { K h() { return null; } }\n"
        "  class J extends Object { void m(I x) { x.h().g(); } }\n}\n",
        ("object.json",),
        False,
        [("p.O$J#m(I)@0002", "method-call", "g", "p.O$K", ["p.O$I", "p.O$K"])],
    ),
    # javac accepts it: an array's members beyond ``length`` are Object's.
    "member-of-an-array": (
        "package p;\nclass K { int[] a() { return null; } }\n"
        "class A { void m(K k) { k.a().hashCode(); } }\n",
        ("jdk.json",),
        False,
        [("p.A#m(K)@0002", "method-call", "hashCode", "int[]", ["p.K", "int[]"])],
    ),
    # javac accepts it.  An indexed assignment target is read, not written.
    "indexed-assignment-target": (
        "package p;\nclass K { int[] a; }\nclass I { K h() { return null; } }\n"
        "class A { void m(I x) { x.h().a[0] = 1; } }\n",
        (),
        False,
        [("p.A#m(I)@0002", "field-read", "a", "p.K", ["p.I", "p.K"])],
    ),
    # javac: array required, but int found.  Lenient binding types the
    # element as unknown.
    "lenient-index-of-a-non-array": (
        "package p;\nclass A { int x; void m() { x[0].f(); } }\n",
        (),
        True,
        [("p.A#m()@0002", "method-call", "f", "int[?]", ["int"])],
    ),
}


@pytest.mark.parametrize("text, stubs, lenient, verdicts", SITE_CASES.values(), ids=SITE_CASES)
def test_bound_site(tmp_path, text, stubs, lenient, verdicts):
    assert _run(tmp_path, {"A.java": text}, stubs, lenient) == (1, verdicts, "")


@pytest.mark.parametrize("lenient", [False, True])
def test_import_of_an_undeclared_supertype(tmp_path, lenient):
    """javac: package q does not exist.  The import names ``q.Missing``,
    which no stub or source declares: an error at the supertype's name, or,
    when lenient, an unknown supertype, as an unresolved name is."""
    text = "package p;\nimport q.Missing;\nclass A extends Missing { }\n"
    expected = "E-BIND: {A}:3:17: supertype q.Missing is not declared\n"
    got = _run(tmp_path, {"A.java": text}, lenient=lenient)
    assert got == ((0, [], "") if lenient else (2, [], expected))


def test_lenient_import_of_a_library_type_keeps_its_name(tmp_path):
    """javac accepts it.  The imported type no stub declares keeps its
    qualified name, so a rule that befriends that name silences the site."""
    text = (
        "package p;\nimport java.util.concurrent.Executor;\n"
        "class K { Executor e() { return null; } }\n"
        "class A { void m(K k) { k.e().execute(null); } }\n"
    )
    executor = "java.util.concurrent.Executor"
    verdict = ("p.A#m(K)@0002", "method-call", "execute", executor, ["p.K", executor])
    assert _run(tmp_path, {"A.java": text}, lenient=True) == (1, [verdict], "")
    config = tmp_path / "friends.json"
    config.write_text(
        json.dumps(
            {
                "schema": "demeterlint-config/1",
                "layer": 0,
                "rules": [{"id": "U", "kind": "universal-friend-types", "types": [executor]}],
            }
        )
    )
    # The site is still listed, now silenced, so the run exits 0.
    warning = f"W-CONFIG: rule U: unknown type '{executor}'\n"
    assert _run(tmp_path, {"A.java": text}, lenient=True, configs=(config,)) == (
        0,
        [verdict],
        warning,
    )


@contextlib.contextmanager
def _frame_budget(frames: int):
    """Let the body nest ``frames`` calls deeper than the caller, whatever
    the depth of the stack that runs the test.  The parse of each case
    below fits in 800 frames and its bind does not; each needs 620 and
    1,010 or more."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _nest(prefix: str, depth: int, extends, inner: str = "") -> str:
    """Interfaces ``prefix0`` to ``prefix<depth>``, each a member of the one
    before, each extending ``extends(k)`` if that is not None."""
    heads = (
        f"interface {prefix}{k}" + (f" extends {extends(k)}" if extends(k) else "") + " { "
        for k in range(depth + 1)
    )
    return "".join(heads) + inner + "}" * (depth + 1)


def test_too_deep_supertype_lookup(tmp_path):
    """``A<k>`` extends ``C<k>``, the member type it inherits, and each
    ``C<k>`` extends ``Z``, which only ``C0`` declares.  Resolving the
    supertypes of ``A<d+1>`` looks up ``Z`` in ``C<d>``, then in ``C<d-1>``,
    and so on, each lookup nested in the one before.  javac type-checks it
    (at depth 3 it compiles; here the class file names are too long for the
    file system)."""
    depth = 200
    files = {
        "A.java": "package p;\n" + _nest("A", depth + 1, lambda k: f"C{k}" if k <= depth else "Z"),
        "C.java": "package p;\n"
        + _nest("C", depth, lambda k: "Z" if k else None).replace(" { ", " { interface Z { } ", 1),
    }
    expected = "E-BIND: {A}:1:1: nesting too deep to analyze\n"
    with _frame_budget(800):
        assert _run(tmp_path, files) == (2, [], expected)


def test_too_deep_expression(tmp_path):
    """600 unary minuses parse, one frame each, but bind two frames each.
    javac accepts it."""
    text = "package p;\nclass A { int x; void m() { x = " + "- " * 600 + "x; } }\n"
    expected = "E-BIND: {A}:1:1: nesting too deep to analyze\n"
    with _frame_budget(800):
        assert _run(tmp_path, {"A.java": text}) == (2, [], expected)
