"""Spans and counts recorded from outside the program.

``Tracer.install`` wraps, by name, the public functions that ``cli.run``
calls.  A wrapped call records one span: name, start, end, parent span and
run id.  Spans stay in memory until ``Tracer.dump``.  A name that no longer
exists is skipped and reported in ``missing``, so the program can be
restructured without breaking the benchmark; its layer row then goes
missing from the results.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (module, attribute path, name).  Every wrapper counts its calls; all but
#: ``adapt.effective``, which runs too often to pay for a span, record spans.
TARGETS = (
    ("demeterlint.cli", "run", "cli.run"),
    ("demeterlint.codemodel", "load_stubs", "codemodel.load_stubs"),
    ("demeterlint.adapt", "load_config", "adapt.load_config"),
    ("demeterlint.javafront.lexer", "tokenize", "lexer.tokenize"),
    ("demeterlint.javafront", "parse_unit", "parser.parse_unit"),
    ("demeterlint.javafront", "build_type_table", "binder.build_type_table"),
    ("demeterlint.javafront", "bind_and_extract", "binder.bind_and_extract"),
    ("demeterlint.adapt", "Adapter.__init__", "demeter.base_friend_sets"),
    ("demeterlint.demeter", "detect", "demeter.detect"),
    ("demeterlint.codemodel", "TypeTable.supertype_closure", "codemodel.supertype_closure"),
    ("demeterlint.adapt", "Adapter.classify", "adapt.classify"),
    ("demeterlint.adapt", "Adapter.effective", "adapt.effective"),
    ("demeterlint.report", "build_report", "report.build_report"),
    ("demeterlint.report", "render", "report.render"),
)

LAYERS = ("cli", "codemodel", "lexer", "parser", "binder", "demeter", "adapt", "report")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent, run]
        self.stack: list[int] = []
        self.run = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.effective_args: dict[int, set] = defaultdict(set)
        self.errors: Counter = Counter()
        self.missing: list[str] = []  # names whose function no longer exists

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
                *owner_path, name = attr.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(span)
                continue
            if span == "adapt.effective":
                wrapper = self._counting(original)
            else:
                wrapper = self._spanning(original, span)
            if owner is module:
                self._rebind(original, wrapper)
            else:
                setattr(owner, name, wrapper)

    @staticmethod
    def _rebind(original, wrapper) -> None:
        """Replace a function in every demeterlint module that imported it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "demeterlint" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _spanning(self, fn, name: str):
        counters = _COUNTERS.get(name, ())
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent, self.run]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Blame only the innermost layer an exception passes through.
                if not getattr(exc, "_bench_blamed", False):
                    exc._bench_blamed = True
                    self.errors[layer] += 1
                raise
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            counts = self.counts[self.run]
            for counter, measure in counters:
                counts[counter] += measure(result)
            return result

        return wrapper

    def _counting(self, fn):
        """Count calls of ``Adapter.effective(self, exec_id, k, disabled=...)``.

        The arguments are read by position, as the program passes them, to
        keep this cheap: it opens no span, so its cost lands in the self
        time of the caller, ``adapt.classify``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            disabled = args[3] if len(args) > 3 else kwargs.get("disabled", frozenset())
            counts = self.counts[self.run]
            counts["adapt.effective_calls"] += 1
            self.effective_args[self.run].add((*args[1:3], disabled))
            if disabled:  # an ablation probe
                counts["adapt.ablation_probes"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[int, Counter]:
        """Per run id: span name -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            out[run][name] += end - start - child_time[i]
        return out

    def summary(self) -> dict:
        """Per run id, the self time of each span name and the work counts."""
        times = self.self_times()
        runs = {}
        for run in sorted(set(times) | set(self.counts)):
            counts = dict(self.counts[run])
            counts["adapt.effective_distinct"] = len(self.effective_args[run])
            runs[run] = {"self_s": dict(times[run]), "counts": counts}
        return {"runs": runs, "errors": dict(self.errors), "missing": self.missing}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")


def _one(result) -> int:
    return 1


#: Span name -> (count name, measure of the call's result) pairs.
_COUNTERS = {
    "lexer.tokenize": (("lexer.tokens", len),),
    "parser.parse_unit": (("parser.units", _one),),
    "binder.build_type_table": (("binder.types", len),),
    "binder.bind_and_extract": (
        ("binder.executables", len),
        ("binder.accesses", lambda executables: sum(len(ex.body_accesses) for ex in executables)),
    ),
    "demeter.detect": (("demeter.potential_violations", len),),
    "codemodel.supertype_closure": (("codemodel.supertype_closure_calls", _one),),
    "adapt.classify": (("adapt.verdicts", len),),
    "report.render": (("report.bytes", len),),
    "codemodel.load_stubs": (("codemodel.stub_types", len),),
    "adapt.load_config": (("adapt.rules", lambda config: len(config.rules)),),
}
