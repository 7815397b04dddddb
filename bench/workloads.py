"""Seeded inputs for the benchmark workloads.

The program shape is a frozen copy of ``tests/randprog.py`` as of the
benchmark's first version: each unit is ``random_program(unit_seed)``
renamed into package ``rp<i>`` (unit i of seed s is drawn with seed
``s * 1000003 + i``, so seed 0 gives the ROADMAP baseline project), and the
rule-heavy stack draws random rules of all nine kinds over every ``rp<i>``
package.  It is copied rather than imported so that edits to the test
generator cannot move the workload.  Every synthetic workload is analyzed
with the JDK stub document, as a real project would be.

Check that a seed always gives the same bytes, in this process, in a second
process with another hash seed and against the digests stored in
``bench/data/inputs.json``, with::

    python3 bench/workloads.py --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: Units per synthetic workload.  synth-raw is the ROADMAP baseline project,
#: synth-generic is JHotDraw-sized, rule-heavy is the ROADMAP rule-heavy shape.
UNITS = {"synth-raw": 800, "synth-generic": 280, "rule-heavy": 200}
RULE_LAYERS = 8
RULES_PER_LAYER = 10
RULE_STACK_SEED = 0
CORPUS = Path("tests/fixtures/corpus")
STUBS = Path("tests/fixtures/stubs")
PRESETS = Path("src/demeterlint/presets")
#: Input digests of the synthetic workloads for the first seeds, written
#: with ``--store`` when the generator was frozen.
DIGESTS = Path(__file__).resolve().parent / "data" / "inputs.json"


@dataclass
class Call:
    """One program invocation: sources, stubs and configs as CLI paths."""

    name: str
    sources: list[str]
    stubs: list[str]
    configs: list[str]

    def argv(self) -> list[str]:
        out = list(self.sources)
        for p in self.stubs:
            out += ["--stubs", p]
        for p in self.configs:
            out += ["--config", p]
        return out + ["--format", "json"]


# -- program generator (frozen copy of tests/randprog.py) ----------------------


class _ClassPlan:
    def __init__(self, index: int, n_classes: int, rng: random.Random):
        self.name = f"C{index}"
        self.index = index
        self.value_type = f"C{rng.randrange(n_classes)}"
        self.field_type = f"C{rng.randrange(n_classes)}"
        self.has_field = rng.random() < 0.7
        self.has_ctor = rng.random() < 0.4
        self.ctor_param = f"C{rng.randrange(n_classes)}"
        self.implements = rng.random() < 0.35
        self.extends = f"C{rng.randrange(index)}" if index and rng.random() < 0.3 else ""
        self.add_param = f"C{rng.randrange(n_classes)}"
        self.static_ret = f"C{rng.randrange(n_classes)}"
        self.sink_param = ""


def _receiver_and_type(plan, plans_by_name, rng, locals_in_scope):
    choices = []
    if locals_in_scope:
        choices.append("local")
    if plan.has_field:
        choices.append("field")
    choices.extend(["own-call", "static", "param"])
    kind = rng.choice(choices)
    if kind == "local":
        name, type_name = rng.choice(locals_in_scope)
        return name, plans_by_name[type_name]
    if kind == "field":
        return "fLink", plans_by_name[plan.field_type]
    if kind == "own-call":
        return "value()", plans_by_name[plan.value_type]
    if kind == "static":
        target = rng.choice(list(plans_by_name.values()))
        return f"{target.name}.make()", plans_by_name[target.static_ret]
    return "p", plans_by_name[plan.sink_param]


def _statements(plan, plans_by_name, rng, interface_exists) -> list[str]:
    stmts = []
    locals_in_scope: list[tuple[str, str]] = []
    for i in range(rng.randrange(1, 5)):
        roll = rng.random()
        if roll < 0.25:
            t = rng.choice(list(plans_by_name.values()))
            init = "null" if rng.random() < 0.6 else f"new {t.name}()"
            stmts.append(f"{t.name} v{i} = {init};")
            locals_in_scope.append((f"v{i}", t.name))
        elif roll < 0.75:
            recv, rplan = _receiver_and_type(plan, plans_by_name, rng, locals_in_scope)
            expr = recv
            for _ in range(rng.randrange(0, 3)):
                expr += ".value()"
                rplan = plans_by_name[rplan.value_type]
            tail = rng.choice(["value()", "add(null)", "fLink" if rplan.has_field else "value()"])
            stmts.append(f"{expr}.{tail};")
        elif roll < 0.85:
            target = rng.choice(list(plans_by_name.values()))
            stmts.append(f"(({target.name}) p).value();")
        elif roll < 0.95 and plan.has_field:
            t = rng.choice(list(plans_by_name.values()))
            stmts.append(f"{t.name} a{i} = null; fLink.add(a{i});")
        elif interface_exists:
            inner = "value().add(null);" if rng.random() < 0.5 else "sink(null);"
            stmts.append("I0 r%d = new I0() { public void run() { %s } };" % (i, inner))
        else:
            stmts.append("value();")
    return stmts


def random_unit(unit_seed: int, package: str) -> str:
    """One compilation unit of 3..7 mutually referencing classes."""
    rng = random.Random(unit_seed)
    n = rng.randrange(3, 8)
    plans = [_ClassPlan(i, n, rng) for i in range(n)]
    by_name = {p.name: p for p in plans}
    interface_exists = rng.random() < 0.6

    lines = [f"package {package};", ""]
    if interface_exists:
        lines.append("interface I0 { void run(); }")
    for plan in plans:
        plan.sink_param = f"C{rng.randrange(n)}"
        head = f"class {plan.name}"
        if plan.extends:
            head += f" extends {plan.extends}"
        if plan.implements and interface_exists:
            head += " implements I0"
        lines.append(head + " {")
        if plan.has_field:
            lines.append(f"  {plan.field_type} fLink;")
        if plan.has_ctor:
            lines.append(f"  {plan.name}({plan.ctor_param} a, int n) {{ }}")
        lines.append(f"  {plan.value_type} value() {{ return null; }}")
        lines.append(f"  static {plan.static_ret} make() {{ return null; }}")
        lines.append(f"  void add({plan.add_param} e) {{ }}")
        if plan.implements and interface_exists:
            lines.append("  public void run() { }")
        body = _statements(plan, by_name, rng, interface_exists)
        lines.append(f"  void sink({plan.sink_param} p) {{")
        lines.extend(f"    {s}" for s in body)
        lines.append("  }")
        lines.append("}")
    return "\n".join(lines) + "\n"


# -- rule generator ---------------------------------------------------------------

_KINDS = (
    "universal-friend-types",
    "universal-friend-members",
    "call-grant",
    "ctor-params-as-fields",
    "anon-inner-share",
    "downcast-param",
    "aggregation-elements",
    "friend-implication",
    "executable-grant",
)


def _random_rule(rng: random.Random, rid: str, n_units: int) -> dict:
    # Like randprog, names reach classes C0..C6 even where a unit has fewer;
    # such names are unknown types and leave that part of the rule inert.
    def pkg() -> str:
        return f"rp{rng.randrange(n_units)}"

    def cls() -> str:
        return f"{pkg()}.C{rng.randrange(7)}"

    kind = rng.choice(_KINDS)
    rule: dict = {"id": rid, "kind": kind}
    if kind == "universal-friend-types":
        variant = rng.random()
        if variant < 0.5:
            rule["types"] = sorted({cls() for _ in range(rng.randrange(1, 3))})
        elif variant < 0.8:
            rule["package_glob"] = f"{pkg()}.*"
        else:
            rule["implementors_of"] = [f"{pkg()}.I0"]
    elif kind == "universal-friend-members":
        variant = rng.random()
        if variant < 0.4:
            rule["member_predicate"] = "public-static"
        elif variant < 0.6:
            rule["member_predicate"] = "array-length"
        else:
            rule["member_pattern"] = {"type": cls(), "name": rng.choice(["va*", "add", "*"])}
    elif kind == "call-grant":
        rule["matcher"] = [{"type": cls(), "name": rng.choice(["value", "make", "va*"])}]
        if rng.random() < 0.5:
            rule["grants"] = [cls()]
    elif kind in ("ctor-params-as-fields", "anon-inner-share", "downcast-param"):
        rule["enabled"] = rng.random() < 0.9
    elif kind == "aggregation-elements":
        if rng.random() < 0.5:
            rule["field_map"] = [{"type": cls(), "field": "fLink", "element": cls()}]
        if rng.random() < 0.8 or not rule.get("field_map"):
            rule["infer_via"] = ["add"]
    elif kind == "friend-implication":
        rule["pairs"] = [[cls(), cls()] for _ in range(rng.randrange(1, 3))]
    elif kind == "executable-grant":
        rule["executables"] = [rng.choice(["*", f"{cls()}#*", f"{pkg()}.*#sink(*)"])]
        rule["grants"] = [cls()] if rng.random() < 0.7 else []
        rule["status"] = rng.choice(["accepted", "accepted", "adjourned", "review-pending"])
        if rng.random() < 0.3:
            rule["hint"] = rng.choice(["lift-forward", "push-back"])
    return rule


def random_stack(n_units: int) -> list[str]:
    """RULE_LAYERS documents of RULES_PER_LAYER random rules each.

    The stack does not depend on the workload seed: the cost of classifying
    depends on the rule mix far more than on the program, and a fresh random
    mix per seed moved the pass time of rule-heavy between 2.9 s and 9.3 s
    over seeds 0-15.  Seeds vary the program only.
    """
    rng = random.Random(RULE_STACK_SEED)
    docs = []
    for layer in range(RULE_LAYERS):
        rules = [
            _random_rule(rng, f"R{layer * RULES_PER_LAYER + j}", n_units)
            for j in range(RULES_PER_LAYER)
        ]
        doc = {"schema": "demeterlint-config/1", "layer": layer,
               "name": f"random-{layer}", "rules": rules}
        docs.append(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return docs


# -- materializing a workload ---------------------------------------------------


def synthetic_files(workload: str, seed: int) -> dict[str, str]:
    """Relative path -> text for every generated input of a synthetic workload."""
    n = UNITS[workload]
    files = {f"src/rp{i}/Prog.java": random_unit(seed * 1_000_003 + i, f"rp{i}") for i in range(n)}
    if workload == "rule-heavy":
        for k, doc in enumerate(random_stack(n)):
            files[f"config/layer-{k}.json"] = doc
    return files


def digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        data = files[name].encode("utf-8")
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def materialize(workload: str, seed: int, root: Path) -> tuple[list[Call], str]:
    """Write the workload's inputs under ``root``; returns its calls and input digest.

    Paths in the calls are relative to the repository root, the benchmark's
    working directory, so reports do not depend on where the checkout lives.
    """
    if workload == "corpus-cli":
        calls = []
        files = {}
        for case in sorted(p for p in CORPUS.iterdir() if (p / "fixture.json").is_file()):
            fixture = json.loads((case / "fixture.json").read_text(encoding="utf-8"))
            sources = [str(case / s) for s in fixture["sources"]]
            stubs = [str(STUBS / s) for s in fixture["stubs"]]
            for p in sources + stubs:
                files[p] = Path(p).read_text(encoding="utf-8")
            calls.append(Call(case.name, sources, stubs, stack_configs()))
        return calls, digest(files)

    files = synthetic_files(workload, seed)
    if root.exists():
        shutil.rmtree(root)
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    if workload == "synth-raw":
        configs: list[str] = []
    elif workload == "synth-generic":
        configs = [str(p) for p in sorted(PRESETS.glob("generic-*.json"))]
    else:
        configs = [str(root / f"config/layer-{k}.json") for k in range(RULE_LAYERS)]
    return [Call(workload, [str(root / "src")], [str(STUBS / "jdk.json")], configs)], digest(files)


def stack_configs() -> list[str]:
    """The full eight-layer preset stack, in layer order."""
    return [str(p) for p in sorted(PRESETS.glob("generic-*.json"))] + [
        str(p) for p in sorted(PRESETS.glob("jhotdraw-*.json"))
    ]


def stored_digest(workload: str, seed: int) -> str | None:
    """The input digest stored for a seed in ``DIGESTS``, if any."""
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    return stored.get(workload, {}).get(str(seed))


def digests(seed: int) -> dict[str, str]:
    """Workload -> input digest at ``seed``, for every synthetic workload."""
    return {w: digest(synthetic_files(w, seed)) for w in UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description="Check that a seed always gives the same bytes.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--store", type=int, metavar="N",
                        help="write the digests of seeds 0..N-1 to bench/data/inputs.json")
    args = parser.parse_args()
    if args.store:
        stored = {w: {str(s): digest(synthetic_files(w, s)) for s in range(args.store)} for w in UNITS}
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    here = digests(args.seed)
    # A second process with another hash seed: a generator that depended on
    # the order of a set of strings would give other bytes there.
    child = subprocess.run(
        [sys.executable, "-c", f"import json, workloads; print(json.dumps(workloads.digests({args.seed})))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED=str(os.getpid() % 1000 + 1), PYTHONPATH=str(DIGESTS.parent.parent)),
    )
    there = json.loads(child.stdout)
    bad = 0
    for workload, first in here.items():
        stored = stored_digest(workload, args.seed)
        ok = first == there[workload] and stored in (None, first)
        print(f"{workload} seed {args.seed}: {first} "
              f"{'same' if ok else 'DIFFERENT'} (stored: {'none' if stored is None else 'checked'})")
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
