"""Shared fixtures: the example corpus, its stub documents, and oracles."""

import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from demeterlint.codemodel import ResolutionMode, TypeTable, load_stubs
from demeterlint.javafront import bind_and_extract, build_type_table, parse_unit

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
STUBS = FIXTURES / "stubs"

#: Stub documents each corpus case needs beyond the shared jdk + jhotdraw
#: pair.  A case must not load a stub for a type it analyzes from source.
EXTRA_STUBS = {
    "listing6": ["drawapplication.json"],
    "listing8": ["trianglefigure.json"],
    "listing9": ["standarddrawingview.json"],
    "listing15": ["pertfigure.json"],
}


#: A stub document holding nothing but ``java.lang.Object``.
OBJECT_STUB = STUBS / "object.json"

#: A site that only a conjunction of redundant rules in one layer silences.
#: ``.f()`` in ``A#g`` has receiver type ``p.Y``: either of T1/T2 befriends
#: ``p.X`` and either of I1/I2 then implies ``p.Y``, so no single rule is
#: necessary and none suffices alone.
CONJUNCTION_SOURCE = (
    "package p; class X {} class Y { int f() { return 1; } } "
    "class Z { Y y() { return null; } } "
    "class A { int g(Z z) { return z.y().f(); } }"
)
CONJUNCTION_CONFIG = json.dumps(
    {
        "schema": "demeterlint-config/1",
        "layer": 0,
        "rules": [
            {"id": "T1", "kind": "universal-friend-types", "types": ["p.X"]},
            {"id": "T2", "kind": "universal-friend-types", "types": ["p.X"]},
            {"id": "I1", "kind": "friend-implication", "pairs": [["p.X", "p.Y"]]},
            {"id": "I2", "kind": "friend-implication", "pairs": [["p.X", "p.Y"]]},
        ],
    }
)

#: One violation in each of a static initializer, two instance initializers
#: and two methods: p.A#<clinit>[1], p.A#<init-block>[1], p.A#<init-block>[2],
#: p.A#m1() and p.A#m2().
INITIALIZERS = (
    "package p;\n"
    "class A {\n"
    "  static { B b = null; b.f(); }\n"
    "  { B b = null; b.f(); }\n"
    "  { B b = null; b.f(); }\n"
    "  void m1() { B b = null; b.f(); }\n"
    "  void m2() { B b = null; b.f(); }\n"
    "}\n"
    "class B { void f() { } }"
)


@dataclass
class CorpusCase:
    name: str
    java_files: list[Path]
    stub_files: list[Path]
    expected: dict

    @property
    def source_args(self) -> list[str]:
        return [str(p) for p in self.java_files]

    @property
    def stub_args(self) -> list[str]:
        return [str(p) for p in self.stub_files]


def load_case(name: str) -> CorpusCase:
    case_dir = CORPUS / name
    expected = json.loads((case_dir / "fixture.json").read_text())
    stub_names = ["jdk.json", "jhotdraw.json"] + EXTRA_STUBS.get(name, [])
    return CorpusCase(
        name=name,
        java_files=sorted(case_dir.glob("*.java")),
        stub_files=[STUBS / s for s in stub_names],
        expected=expected,
    )


def corpus_names() -> list[str]:
    return sorted(p.name for p in CORPUS.iterdir() if (p / "fixture.json").exists())


def build_front(
    sources: list[tuple[str, str]],
    stub_paths: list[Path] = (),
    mode: ResolutionMode = ResolutionMode.STRICT,
):
    """Parse, declare, and extract: the front half of the pipeline."""
    units = [parse_unit(text, name) for name, text in sources]
    stubs = TypeTable()
    for p in stub_paths:
        stubs = stubs.merge(load_stubs(p))
    table = build_type_table(units, stubs, mode)
    return table, bind_and_extract(units, table, mode)


def build_case_front(case: "CorpusCase", mode: ResolutionMode = ResolutionMode.STRICT):
    sources = [(p.name, p.read_text()) for p in case.java_files]
    return build_front(sources, case.stub_files, mode)


@pytest.fixture(scope="session")
def stub_paths() -> list[Path]:
    return sorted(STUBS.glob("*.json"))


@pytest.fixture(scope="session")
def corpus() -> dict[str, CorpusCase]:
    return {name: load_case(name) for name in corpus_names()}


@pytest.fixture(params=corpus_names())
def corpus_case(request) -> CorpusCase:
    return load_case(request.param)
