"""Every function that the benchmark's tracer wraps still exists, and a
run still calls it.

``bench/spans.py`` wraps the functions in ``TARGETS`` by module and
attribute path.  One that is renamed or removed is reported as ``missing``
and its layer's rows drop out of the benchmark's result, so a change that
loses one fails here instead.  The wrappers pass arguments through, and the
one for ``Adapter.effective`` reads them by position, so each target's
parameter names are pinned too.  A target that still exists but that
``cli.run`` no longer calls reads zero in its layer's rows, so one traced
run checks that each is called.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from demeterlint.presets import STACK

from conftest import load_case

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = _targets()

#: Span name -> the wrapped function's parameters, in order.
PARAMETERS = {
    "cli.run": ("options", "out", "err"),
    "codemodel.load_stubs": ("source",),
    "adapt.load_config": ("documents",),
    "lexer.tokenize": ("text", "file_name"),
    "parser.parse_unit": ("source_text", "file_name"),
    "binder.build_type_table": ("units", "stubs", "mode"),
    "binder.bind_and_extract": ("units", "table", "mode"),
    "demeter.base_friend_sets": ("self", "executables", "table", "config"),
    "demeter.detect": ("executable", "friends"),
    "codemodel.supertype_closure": ("self", "seeds"),
    "adapt.classify": ("self", "violations"),
    "adapt.effective": ("self", "exec_id", "k", "disabled"),
    "report.build_report": ("executables", "verdicts", "config", "inputs", "accesses"),
    "report.render": ("report", "fmt"),
}


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name, attr, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(module_name, attr, span):
    assert callable(_resolve(module_name, attr))


@pytest.mark.parametrize("module_name, attr, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_signature(module_name, attr, span):
    params = tuple(inspect.signature(_resolve(module_name, attr)).parameters)
    assert params == PARAMETERS[span]


#: Targets that a run need not call: friend tests are bit tests on closure
#: masks, and no part of ``cli.run`` decodes a mask into references.
UNCALLED = {"codemodel.supertype_closure"}


def test_cli_run_calls_every_target():
    """The tracer, installed in a fresh interpreter, sees every target
    called by one json run of listing3 under the preset stack."""
    case = load_case("listing3")
    src = Path(importlib.util.find_spec("demeterlint").origin).parents[1]
    child = (
        "import io, json, sys\n"
        f"sys.path[:0] = [{str(src)!r}, {str(_SPANS.parent)!r}]\n"
        "from spans import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from pathlib import Path\n"
        "from demeterlint.cli import RunOptions, run\n"
        "options = RunOptions(\n"
        f"    source_paths=tuple(map(Path, {case.source_args!r})),\n"
        f"    stub_paths=tuple(map(Path, {case.stub_args!r})),\n"
        f"    config_paths=tuple(map(Path, {[str(p) for p in STACK]!r})),\n"
        "    format='json',\n"
        ")\n"
        "code = run(options, io.BytesIO(), io.StringIO())\n"
        "called = {span[0] for span in tracer.spans}\n"
        "if tracer.counts[0]['adapt.effective_calls']:\n"
        "    called.add('adapt.effective')\n"
        "print(json.dumps({'code': code, 'missing': tracer.missing, 'called': sorted(called)}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    uncalled = {span for _, _, span in TARGETS} - set(result["called"])
    assert uncalled <= UNCALLED, uncalled
    assert result["code"] == 1
