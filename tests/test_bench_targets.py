"""Every function that the benchmark's tracer wraps still exists.

``bench/spans.py`` wraps the functions in ``TARGETS`` by module and
attribute path.  One that is renamed or removed is reported as ``missing``
and its layer's rows drop out of the benchmark's result, so a change that
loses one fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module_name, attr, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
