"""One ``cli.run`` pass creates no reference cycles and pauses the collector.

Every object a pass makes is freed by reference counting, so ``cli.run``
disables the cyclic garbage collector for the pass.  These tests pin the
three parts of that design: the collector's state is restored on every way
out of ``run``; a pass leaves no unreachable object behind; and no
module of the package defines a nested function that refers to itself,
the pattern that tied every syntax tree into a cycle.
"""

import ast
import gc
import io
import types
from pathlib import Path

import pytest

import demeterlint
from demeterlint.cli import RunOptions, run
from demeterlint.presets import STACK

from conftest import STUBS, load_case
from randprog import random_program

PACKAGE = Path(demeterlint.__file__).parent


class _Recording(io.BytesIO):
    """An output stream that notes whether the collector ran during writes."""

    def __init__(self, fail: bool = False):
        super().__init__()
        self.fail = fail
        self.collector_enabled: list[bool] = []

    def write(self, data):
        self.collector_enabled.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("stream closed")
        return super().write(data)


def _listing(**kw) -> RunOptions:
    case = load_case("listing1")
    return RunOptions(
        source_paths=tuple(case.java_files),
        stub_paths=tuple(case.stub_files),
        config_paths=tuple(STACK),
        **kw,
    )


def _parse_error(tmp_path) -> RunOptions:
    bad = tmp_path / "Bad.java"
    bad.write_text("class A { void m() { x -> y; } }")
    return RunOptions(source_paths=(bad,))


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_restored_on_every_exit(self, tmp_path, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()

            out = _Recording()
            assert run(_listing(), out, io.StringIO()) == 0
            assert out.collector_enabled and not any(out.collector_enabled)
            assert gc.isenabled() is enabled

            err = io.StringIO()
            assert run(_parse_error(tmp_path), io.BytesIO(), err) == 2
            assert err.getvalue().startswith("E-PARSE: ")
            assert gc.isenabled() is enabled

            with pytest.raises(RuntimeError, match="stream closed"):
                run(_listing(), _Recording(fail=True), io.StringIO())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


def _ours(obj) -> bool:
    """Whether ``obj`` is an instance of a demeterlint type or one of its
    functions."""
    module = type(obj).__module__
    if isinstance(obj, types.FunctionType):
        module = obj.__module__ or ""
    return module.split(".")[0] == "demeterlint"


def _garbage_of(options: RunOptions) -> list:
    """The objects one pass leaves that only the cyclic collector frees."""
    was = gc.isenabled()
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(options, io.BytesIO(), io.StringIO())
        gc.collect()
        return gc.garbage[before:]
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        if was:
            gc.enable()


def _random_units(tmp_path, count: int) -> RunOptions:
    root = tmp_path / f"units{count}"
    for i in range(count):
        (name, text), = random_program(i)
        unit = root / f"rp{i}" / name
        unit.parent.mkdir(parents=True)
        unit.write_text(text.replace("package rp;", f"package rp{i};", 1))
    return RunOptions(
        source_paths=(root,), stub_paths=(STUBS / "jdk.json",), format="json"
    )


class TestNoCyclicGarbage:
    def test_listing_pass_leaves_none_of_ours(self):
        case = load_case("listing3")
        explained = "CH.ifa.draw.figures.ElbowHandle#constrainX(int)@0002"
        for mode, site in (("analyze", ""), ("explain", explained)):
            options = RunOptions(
                source_paths=tuple(case.java_files),
                stub_paths=tuple(case.stub_files),
                config_paths=tuple(STACK),
                format="json",
                mode=mode,
                site=site,
            )
            assert [type(o).__qualname__ for o in _garbage_of(options) if _ours(o)] == []

    def test_garbage_does_not_grow_with_the_input(self, tmp_path):
        # No cyclic garbage at all, ours or the standard library's:
        # ``json.dumps`` with ``indent``, for one, leaves its encoder's
        # closures in a cycle.
        for count in (1, 20):
            garbage = _garbage_of(_random_units(tmp_path, count))
            assert [type(o).__qualname__ for o in garbage] == []


# -- tooling guard ------------------------------------------------------------

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def closure_cycles(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every nested function that refers to its own name,
    directly or through other functions nested in the same function.

    Such a function holds itself in its closure cell, a reference cycle
    that keeps everything else in the closure alive until the cyclic
    collector runs.
    """
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (*_FUNCTIONS, ast.Lambda)):
            continue
        nested = {n.name: n for n in ast.walk(outer) if n is not outer and isinstance(n, _FUNCTIONS)}
        refers = {
            name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & nested.keys()
            for name, node in nested.items()
        }
        for name, node in nested.items():
            reached: set[str] = set()
            work = list(refers[name])
            while work:
                other = work.pop()
                if other not in reached:
                    reached.add(other)
                    work.extend(refers[other])
            if name in reached:
                found.add((name, node.lineno))
    return sorted(found, key=lambda f: (f[1], f[0]))


class TestNoSelfRecursiveClosures:
    def test_package_has_none(self):
        offenders = [
            f"{path.relative_to(PACKAGE.parent)}:{line}: nested function {name} refers to itself"
            for path in sorted(PACKAGE.rglob("*.py"))
            for name, line in closure_cycles(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert offenders == []

    def test_guard_finds_self_and_mutual_recursion(self):
        tree = ast.parse(
            "def outer(tree):\n"
            "    def walk(node):\n"
            "        return [walk(c) for c in node]\n"
            "    def even(n):\n"
            "        return n == 0 or odd(n - 1)\n"
            "    def odd(n):\n"
            "        return n != 0 and even(n - 1)\n"
            "    def leaf(n):\n"
            "        return even(n)\n"
            "    return walk(tree)\n"
            "def module_level(node):\n"
            "    return [module_level(c) for c in node]\n"
        )
        assert closure_cycles(tree) == [("walk", 2), ("even", 4), ("odd", 6)]
