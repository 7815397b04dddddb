"""Every function that the benchmark's tracer wraps still exists.

``bench/spans.py`` wraps the functions in ``TARGETS`` by module and
attribute path.  One that is renamed or removed is reported as ``missing``
and its layer's rows drop out of the benchmark's result, so a change that
loses one fails here instead.  The wrappers pass arguments through, and the
one for ``Adapter.effective`` reads them by position, so each target's
parameter names are pinned too.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
