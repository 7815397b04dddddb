"""Seeded generator of small dialect programs and rule stacks.

Programs are built so strict resolution always succeeds without stubs: every
referenced type is generated in package ``rp`` and every chained call picks a
member the generator knows the receiver class declares.  Violations appear
naturally because chains and locals are not friends.
"""

import json
import random

from demeterlint.adapt import load_config

PKG = "rp"


class _ClassPlan:
    def __init__(self, index: int, n_classes: int, rng: random.Random):
        self.name = f"C{index}"
        self.qualified = f"{PKG}.{self.name}"
        self.index = index
        other = rng.randrange(n_classes)
        self.value_type = f"C{other}"  # return type of value()
        self.field_type = f"C{rng.randrange(n_classes)}"
        self.has_field = rng.random() < 0.7
        self.has_ctor = rng.random() < 0.4
        self.ctor_param = f"C{rng.randrange(n_classes)}"
        self.implements = rng.random() < 0.35
        self.extends = f"C{rng.randrange(index)}" if index and rng.random() < 0.3 else ""
        self.add_param = f"C{rng.randrange(n_classes)}"
        self.static_ret = f"C{rng.randrange(n_classes)}"


def _receiver_and_type(plan, plans_by_name, rng, locals_in_scope):
    """An expression string plus the class plan of its static type."""
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
    # parameter p always has the sink() parameter's type
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
            hops = rng.randrange(0, 3)
            expr = recv
            for _ in range(hops):
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
            stmts.append(
                "I0 r%d = new I0() { public void run() { %s } };" % (i, inner)
            )
        else:
            stmts.append("value();")
    return stmts


def random_program(seed: int) -> list[tuple[str, str]]:
    """One compilation unit of 3..7 mutually referencing classes."""
    rng = random.Random(seed)
    n = rng.randrange(3, 8)
    plans = [_ClassPlan(i, n, rng) for i in range(n)]
    by_name = {p.name: p for p in plans}
    interface_exists = rng.random() < 0.6

    lines = [f"package {PKG};", ""]
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
    return [("Prog.java", "\n".join(lines) + "\n")]


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


def _random_rule(rng: random.Random, rid: str, n_classes: int) -> dict:
    kind = rng.choice(_KINDS)
    cls = lambda: f"{PKG}.C{rng.randrange(n_classes)}"  # noqa: E731
    rule: dict = {"id": rid, "kind": kind}
    if kind == "universal-friend-types":
        variant = rng.random()
        if variant < 0.5:
            rule["types"] = sorted({cls() for _ in range(rng.randrange(1, 3))})
        elif variant < 0.8:
            rule["package_glob"] = f"{PKG}.*"
        else:
            rule["implementors_of"] = [f"{PKG}.I0"]
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
        rule["executables"] = [
            rng.choice(["*", f"{PKG}.C{rng.randrange(n_classes)}#*", f"{PKG}.*#sink(*)"])
        ]
        rule["grants"] = [cls()] if rng.random() < 0.7 else []
        rule["status"] = rng.choice(["accepted", "accepted", "adjourned", "review-pending"])
        if rng.random() < 0.3:
            rule["hint"] = rng.choice(["lift-forward", "push-back"])
    return rule


#: A ``max_rules`` for large rule stacks: 0..24 rules per layer, 12 on average.
LARGE_STACK = 24


def random_config(seed: int, n_classes: int = 7, max_rules: int = 3):
    """A 0..4 layer stack of 0..max_rules randomly parameterized rules each."""
    rng = random.Random(seed * 7919 + 17)
    docs = []
    counter = 0
    for layer in range(rng.randrange(0, 5)):
        rules = []
        for _ in range(rng.randrange(0, max_rules + 1)):
            rules.append(_random_rule(rng, f"R{counter}", n_classes))
            counter += 1
        docs.append(
            json.dumps(
                {
                    "schema": "demeterlint-config/1",
                    "layer": layer,
                    "name": f"random-{layer}",
                    "rules": rules,
                }
            )
        )
    return load_config(docs)


def _granting_rule(kind: str, rid: str, owner: str, granted: str) -> dict:
    """A rule of ``kind`` that grants ``granted`` to the executables of class
    ``owner`` (and, for the broader kinds, to others too)."""
    rule: dict = {"id": rid, "kind": kind}
    if kind == "universal-friend-types":
        rule["types"] = [granted]
    elif kind == "executable-grant":
        rule["executables"] = [f"{owner}#*"]
        rule["grants"] = [granted]
    elif kind == "call-grant":
        rule["matcher"] = [{"type": owner, "name": "*"}]
        rule["grants"] = [granted]
    elif kind == "aggregation-elements":
        rule["field_map"] = [{"type": owner, "field": "fLink", "element": granted}]
    else:  # a class is its own friend, so it implies what it grants
        rule["pairs"] = [[owner, granted]]
    return rule


_GRANTING_KINDS = (
    "universal-friend-types",
    "executable-grant",
    "call-grant",
    "aggregation-elements",
    "friend-implication",
)


def redundant_config(seed: int, n_classes: int = 7):
    """A 1..3 layer stack of redundant rule families, shuffled within each layer.

    A family is 1..3 rules of different kinds that grant one type to the
    executables of one class.  In some families the rules grant a premise
    type instead, and two implications from it grant the type, so that only
    a conjunction silences.  Redundancy is what makes attribution fall past
    a single necessary rule to the rules that suffice alone, and past those
    to the conjunction.
    """
    rng = random.Random(seed * 104729 + 3)
    cls = lambda: f"{PKG}.C{rng.randrange(n_classes)}"  # noqa: E731
    docs = []
    counter = 0
    for layer in range(rng.randrange(1, 4)):
        rules = []
        for _ in range(rng.randrange(1, 4)):
            owner, target = cls(), cls()
            via = rng.random() < 0.4
            granted = cls() if via else target
            for kind in rng.sample(_GRANTING_KINDS, rng.randrange(1, 4)):
                rules.append(_granting_rule(kind, f"R{counter}", owner, granted))
                counter += 1
            for _ in range(2 if via else 0):
                rules.append({"id": f"R{counter}", "kind": "friend-implication",
                              "pairs": [[granted, target]]})
                counter += 1
        rng.shuffle(rules)
        docs.append(json.dumps({"schema": "demeterlint-config/1", "layer": layer, "rules": rules}))
    return load_config(docs)
