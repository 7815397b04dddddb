"""The front end's work and memory grow linearly with its input.

Each shape is built at size n and 4n, and the larger one may take at most
4.5 times the work, or the memory, of the smaller.  Work is the number of
function calls cProfile counts while parsing, declaring and binding the
sources, so the test reads no clock and does not depend on the machine or
its load.  Memory is the peak that tracemalloc sees over the same calls.
"""

import cProfile
import pstats
import tracemalloc

import pytest

from conftest import build_front

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
