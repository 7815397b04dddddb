"""Layered adaptation rules: loading, effective friend sets, attribution.

A configuration is an ordered stack of layers, each holding rules in document
order.  Rules only ever add friends or member exemptions, so silencing is
monotone in the layer prefix: once a violation is silenced at layer k it
stays silenced at every deeper prefix.  Classification exploits that to find,
per violation, the smallest k whose cumulative rule set removes it, and then
attributes the removal to a single rule at that layer by ablation.

The nine rule kinds cover the catalog of ways a strict reading of the Law
over-reports: types everybody may use, members everybody may use, grants
earned by calling designated accessors, constructor parameters acting as
fields, anonymous classes borrowing their enclosing scope, parameter
downcasts, aggregate element types, friend implications, and per-executable
grants with a review status.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fnmatch import fnmatchcase, translate
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .codemodel import (
    Document,
    LoadError,
    MemberKind,
    TypeRef,
    TypeTable,
    json_document,
    parse_type_name,
)
from .demeter import (
    FriendSet,
    MemberExemption,
    PotentialViolation,
    base_friend_set,
    check_site,
)
from .javafront import Executable
from .records import Struct, Value

__all__ = [
    "Adapter",
    "ConfigError",
    "LayeredConfig",
    "Rule",
    "RULE_KINDS",
    "Verdict",
    "Waterfall",
    "WaterfallEntry",
    "attribute_waterfall",
    "config_warnings",
    "load_config",
]

CONFIG_SCHEMA = "demeterlint-config/1"

MEMBER_PREDICATES = frozenset({"public-static", "array-length"})

STATUSES = frozenset({"accepted", "adjourned", "review-pending"})


class ConfigError(LoadError):
    def __init__(self, message: str):
        super().__init__("E-CONFIG", message)


class Rule(Value):
    """One adaptation rule; the payload fields used depend on ``kind``."""

    __slots__ = (
        "rule_id",
        "kind",
        "layer",
        "tag",
        "order",
        "types",
        "package_glob",
        "implementors_of",
        "member_predicate",
        "member_pattern",
        "matcher",
        "grants",
        "pairs",
        "executables",
        "status",
        "hint",
        "enabled",
        "field_map",
        "infer_via",
    )

    def __init__(
        self,
        rule_id: str,
        kind: str,
        layer: int,
        tag: str = "",
        order: int = 0,
        types: tuple[str, ...] = (),
        package_glob: str = "",
        implementors_of: tuple[str, ...] = (),
        member_predicate: str = "",
        member_pattern: Optional[tuple[str, str]] = None,
        matcher: tuple[tuple[str, str], ...] = (),
        grants: tuple[str, ...] = (),
        pairs: tuple[tuple[str, str], ...] = (),
        executables: tuple[str, ...] = (),
        status: str = "accepted",
        hint: str = "",
        enabled: bool = True,
        field_map: tuple[tuple[str, str, str], ...] = (),
        infer_via: tuple[str, ...] = (),
    ) -> None:
        self.rule_id = rule_id
        self.kind = kind
        self.layer = layer
        self.tag = tag
        self.order = order  # global document order, the attribution tie-breaker
        self.types = types
        self.package_glob = package_glob
        self.implementors_of = implementors_of
        self.member_predicate = member_predicate
        self.member_pattern = member_pattern  # (declaring type, name glob)
        self.matcher = matcher  # (declaring type, name glob)
        self.grants = grants
        self.pairs = pairs
        self.executables = executables
        self.status = status
        self.hint = hint
        self.enabled = enabled
        self.field_map = field_map  # (class, field, element)
        self.infer_via = infer_via


class LayeredConfig(Value):
    """Rules grouped by layer index, ascending; empty config = base Law.

    Equality and repr go by ``rules`` and ``layer_names``; the rest is
    derived from them.
    """

    __slots__ = ("rules", "layer_names", "layer_indices", "_at")
    _fields = ("rules", "layer_names")

    def __init__(
        self, rules: tuple[Rule, ...], layer_names: tuple[tuple[int, str], ...]
    ) -> None:
        self.rules = rules  # sorted by (layer, order)
        self.layer_names = layer_names
        # Computed once: effective() and attribution ask on every probe.
        layers = tuple(sorted({r.layer for r in rules}))
        self.layer_indices = layers
        self._at = {k: tuple(r for r in rules if r.layer == k) for k in layers}

    def rules_at(self, k: int) -> tuple[Rule, ...]:
        return self._at.get(k, ())

    def name_of(self, layer: int) -> str:
        for idx, name in self.layer_names:
            if idx == layer:
                return name
        return f"layer-{layer}"


EMPTY_CONFIG = LayeredConfig(rules=(), layer_names=())


# -- loading -------------------------------------------------------------------


class _BadRule(Exception):
    """A malformed rule; ``_parse_rule`` prefixes the document and rule id."""


def _string(raw: dict, key: str, default: str = "") -> str:
    value = raw.get(key, default)
    if not isinstance(value, str):
        raise _BadRule(f"{key} must be a string")
    return value


def _is_layer(value) -> bool:
    # JSON true/false load as bool, which is an int subclass.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _str_tuple(raw: dict, key: str, rule_id: str) -> tuple[str, ...]:
    value = raw.get(key, [])
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"{rule_id}.{key}: expected a list of strings")
    return tuple(value)


def _type_names(names: Iterable[str], key: str, rule_id: str, parsed: set[str]) -> None:
    """Check that every name parses as a type reference.  ``parsed`` holds
    the names of the document checked so far, so each is parsed once."""
    for name in names:
        if name not in parsed:
            try:
                parse_type_name(name)
            except LoadError:
                raise ConfigError(f"{rule_id}.{key}: empty type name") from None
            parsed.add(name)


def _type_tuple(raw: dict, key: str, rule_id: str, parsed: set[str]) -> tuple[str, ...]:
    names = _str_tuple(raw, key, rule_id)
    _type_names(names, key, rule_id, parsed)
    return names


def _records(raw, keys: tuple[str, ...], error: str) -> tuple[tuple[str, ...], ...]:
    if not isinstance(raw, list):
        raise _BadRule(error)
    out = []
    for entry in raw:
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in keys):
            raise _BadRule(error)
        out.append(tuple(entry[key] for key in keys))
    return tuple(out)


# Each loader checks one raw rule of its kind and returns the Rule payload
# fields.  ``parsed`` is the document's set of checked type names.


def _load_friend_types(raw: dict, rule_id: str, parsed: set[str]) -> dict:
    kw = {
        "types": _type_tuple(raw, "types", rule_id, parsed),
        "package_glob": _string(raw, "package_glob"),
        "implementors_of": _type_tuple(raw, "implementors_of", rule_id, parsed),
    }
    if not any(kw.values()):
        raise _BadRule("no types, glob, or implementors")
    return kw


def _load_friend_members(raw: dict, rule_id: str, parsed: set[str]) -> dict:
    predicate = _string(raw, "member_predicate")
    pattern = raw.get("member_pattern")
    if predicate:
        if predicate not in MEMBER_PREDICATES:
            raise _BadRule(f"unknown member predicate '{predicate}'")
        return {"member_predicate": predicate}
    if pattern is None:
        raise _BadRule("needs member_predicate or member_pattern")
    (member_pattern,) = _records(
        [pattern], ("type", "name"), "member_pattern needs string 'type' and 'name'"
    )
    return {"member_pattern": member_pattern}


def _load_call_grant(raw: dict, rule_id: str, parsed: set[str]) -> dict:
    matchers = raw.get("matcher")
    if not isinstance(matchers, list) or not matchers:
        raise _BadRule("call-grant needs a matcher list")
    return {
        "matcher": _records(
            matchers, ("type", "name"), "matcher entries need string 'type' and 'name'"
        ),
        "grants": _type_tuple(raw, "grants", rule_id, parsed),
    }


def _load_switch(raw: dict, rule_id: str, parsed: set[str]) -> dict:
    return {"enabled": bool(raw.get("enabled", True))}


def _load_aggregation(raw: dict, rule_id: str, parsed: set[str]) -> dict:
    kw = {
        "field_map": _records(
            raw.get("field_map", []),
            ("type", "field", "element"),
            "field_map entries need string type/field/element",
        ),
        "infer_via": _str_tuple(raw, "infer_via", rule_id),
    }
    _type_names((element for _, _, element in kw["field_map"]), "field_map", rule_id, parsed)
    if not any(kw.values()):
        raise _BadRule("empty aggregation rule")
    return kw


def _load_implication(raw: dict, rule_id: str, parsed: set[str]) -> dict:
    pairs = raw.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise _BadRule("needs implication pairs")
    if not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(u, str) for u in p)
        for p in pairs
    ):
        raise _BadRule("pairs are [from, to] type names")
    _type_names((u for pair in pairs for u in pair), "pairs", rule_id, parsed)
    return {"pairs": tuple((a, b) for a, b in pairs)}


def _load_executable_grant(raw: dict, rule_id: str, parsed: set[str]) -> dict:
    executables = _str_tuple(raw, "executables", rule_id)
    if not executables:
        raise _BadRule("needs executable ids or globs")
    grants = _type_tuple(raw, "grants", rule_id, parsed)
    status = _string(raw, "status", "accepted")
    if status not in STATUSES:
        raise _BadRule(f"unknown status '{status}'")
    hint = _string(raw, "hint")
    return {"executables": executables, "grants": grants, "status": status, "hint": hint}


def _parse_rule(raw, default_layer: int, order: int, context: str, parsed: set[str]) -> Rule:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: rule must be an object")
    rule_id = raw.get("id")
    if not rule_id or not isinstance(rule_id, str):
        raise ConfigError(f"{context}: rule without an id")
    kind = raw.get("kind")
    try:
        if not isinstance(kind, str) or kind not in RULE_KINDS:
            raise _BadRule(f"unknown kind '{kind}'")
        layer = raw.get("layer", default_layer)
        if not _is_layer(layer):
            raise _BadRule("layer must be a non-negative integer")
        payload = _KINDS[kind].load(raw, rule_id, parsed)
        tag = _string(raw, "tag")
    except _BadRule as exc:
        raise ConfigError(f"{context}: rule {rule_id}: {exc}") from None
    return Rule(rule_id, kind, layer, tag, order, **payload)


def load_config(documents: Sequence[str | Path | Document]) -> LayeredConfig:
    """Parse configuration documents (paths, read documents or raw JSON
    text) in the given (ascending-layer) order.

    A document missing an explicit ``layer`` takes the previous document's
    layer plus one (the first defaults to 0).  Rules may override the
    document layer individually.  Two documents must not claim the same
    layer; rule ids must be globally unique.
    """
    rules: list[Rule] = []
    layer_names: list[tuple[int, str]] = []
    seen_ids: set[str] = set()
    seen_layers: set[int] = set()
    next_layer = 0
    order = 0
    for doc_source in documents:
        context, doc = json_document(doc_source, CONFIG_SCHEMA, ConfigError)
        doc_layer = doc.get("layer", next_layer)
        if not _is_layer(doc_layer):
            raise ConfigError(f"{context}: layer must be a non-negative integer")
        if doc_layer in seen_layers:
            raise ConfigError(f"{context}: duplicate layer {doc_layer}")
        seen_layers.add(doc_layer)
        next_layer = doc_layer + 1
        layer_names.append((doc_layer, doc.get("name", f"layer-{doc_layer}")))
        raw_rules = doc.get("rules", [])
        if not isinstance(raw_rules, list):
            raise ConfigError(f"{context}: rules must be a list")
        parsed: set[str] = set()
        for raw in raw_rules:
            rule = _parse_rule(raw, doc_layer, order, context, parsed)
            order += 1
            if rule.rule_id in seen_ids:
                raise ConfigError(f"{context}: duplicate rule id '{rule.rule_id}'")
            seen_ids.add(rule.rule_id)
            rules.append(rule)
    rules.sort(key=lambda r: (r.layer, r.order))
    layer_names.sort()
    return LayeredConfig(rules=tuple(rules), layer_names=tuple(layer_names))


def config_warnings(config: LayeredConfig, table: TypeTable) -> list[str]:
    """Type names a rule mentions that the table does not know.

    These are warnings, not errors: a rule may name types that only appear
    in some other project's stubs, and an inert rule is harmless.  A
    primitive, or an array of primitives, is never declared and never
    warned about.
    """
    out = []
    for rule in config.rules:
        mentioned = list(rule.types) + list(rule.implementors_of) + list(rule.grants)
        mentioned += [u for pair in rule.pairs for u in pair]
        mentioned += [e[2] for e in rule.field_map]
        for name in mentioned:
            if name not in table and not _is_primitive_name(name):
                out.append(f"rule {rule.rule_id}: unknown type '{name}'")
    return out


def _is_primitive_name(name: str) -> bool:
    ref = parse_type_name(name)
    while ref.element is not None:
        ref = ref.element
    return ref.is_primitive


# -- effective friend sets -------------------------------------------------------


def _id_matcher(globs: Iterable[str]) -> Callable[[str], bool]:
    """A test that holds for an executable id when any of ``globs`` does.

    A glob matches the id it equals, so a literal glob names one
    executable even when the id holds [] (an initializer index), which
    fnmatch would read as a character class.  A glob with ``*``, ``?`` or
    ``[`` matches, besides, the ids fnmatch matches it with.  The literal
    globs are tested by set membership; one pattern is compiled for the
    wildcard globs, and none when there are none.
    """
    literals = frozenset(globs)
    wild = sorted(g for g in literals if any(c in g for c in "*?["))
    if not wild:
        return literals.__contains__
    match = re.compile("|".join(map(translate, wild))).match
    return lambda exec_id: exec_id in literals or match(exec_id) is not None


def _package_of(name: str) -> str:
    return name.rsplit(".", 1)[0] if "." in name else ""


#: One rule's contribution to one executable: the non-primitive types it
#: grants, first occurrence first, and the closure mask of those types.
Contribution = tuple[tuple[TypeRef, ...], int]

_NOTHING: Contribution = ((), 0)

#: A rule's grant to one executable: (rule id, types).
_Grant = tuple[str, tuple[TypeRef, ...]]

#: One executable's ladder: the (grant, mask) of each rule that grants it
#: something, by layer, in rule order; and its (mask, grants) through each
#: layer prefix, base first.
_Ladder = tuple[
    tuple[tuple[tuple[_Grant, int], ...], ...], tuple[tuple[int, tuple[_Grant, ...]], ...]
]

#: One friend-implication pair, ready for bit tests: rule id, the premise's
#: bit position, the conclusion, its bit position and its closure mask.
_Implication = tuple[str, int, TypeRef, int, int]

#: What rules add to every executable's set, whatever the executable:
#: implication pairs, member exemptions and the rule that shares the
#: enclosing executable's set.  One rule's part, or a layer prefix's.
_Fixed = tuple[tuple[_Implication, ...], tuple[MemberExemption, ...], Optional[Rule]]

_NO_PART: _Fixed = ((), (), None)

#: A method call of one executable: its site's position, the method's name
#: and its declared type.
_Call = tuple[int, str, TypeRef]


class _BaseSets(dict):
    """Executable id -> its base friend set, built on first access.

    Only classify and explain read these: detection builds each set it
    tests for that call alone.  Classify asks only for executables with a
    potential violation, so most sets are never built.
    """

    __slots__ = ("by_id", "table")

    def __init__(self, by_id: dict[str, Executable], table: TypeTable) -> None:
        super().__init__()
        self.by_id = by_id
        self.table = table

    def __missing__(self, exec_id: str) -> FriendSet:
        got = self[exec_id] = base_friend_set(self.by_id[exec_id], self.table)
        return got


class Adapter:
    """Computes effective friend sets and verdicts for one analysis run.

    What a rule does comes from its kind's entry in ``_KINDS``: a grant,
    which depends on the executable and is kept per executable for every
    layer prefix at once, and a part, which does not.  A switch rule turned
    off is inert: it has neither.

    The adapter caches what classify and explain read.  What it keeps per
    rule, layer prefix or owner type (listed types, parts, ladder entries,
    universal grants, constructor parameters and field calls) lives for the
    run.  What it keeps per executable (``_start_group``), every effective
    set asked for included, lives for one executable group: classify drops
    it when it moves on to the next group, and explain builds again what it
    reads.
    """

    def __init__(
        self, executables: Sequence[Executable], table: TypeTable, config: LayeredConfig
    ):
        self.table = table
        self.config = config
        self.by_id: dict[str, Executable] = {ex.id: ex for ex in executables}
        self.by_owner: dict[str, list[Executable]] = {}
        for ex in executables:
            self.by_owner.setdefault(ex.owner_type.name, []).append(ex)
        # Per rule: the types it lists (``types`` or ``grants``), its part
        # and its layer's position in layer_indices; per layer, the granting
        # rules with their kinds' grant functions.
        self._listed = {
            r.rule_id: self._close(map(parse_type_name, r.types + r.grants)) for r in config.rules
        }
        live = [r for r in config.rules if r.enabled]
        self._parts = dict.fromkeys(self._listed, _NO_PART)
        self._parts.update((r.rule_id, _KINDS[r.kind].part(table, r)) for r in live)
        self._position = {
            r.rule_id: bisect_left(config.layer_indices, r.layer) for r in config.rules
        }
        self._grants_at = tuple(
            tuple((r, grant) for r in live if r.layer == k and (grant := _KINDS[r.kind].grant))
            for k in config.layer_indices
        )
        # Each granting rule's last ladder entry with the contribution it
        # was built from.  A rule's grant is often one cached contribution
        # for many executables (for every one, for universal-friend-types),
        # so its entry is built once for them all.
        self._entries: dict[str, tuple[Contribution, tuple[_Grant, int]]] = {}
        self._fixed_cache: dict[tuple[int, frozenset[str]], _Fixed] = {}
        self._universal_cache: dict[str, Contribution] = {}
        self._ctor_param_cache: dict[str, Contribution] = {}
        self._field_calls_cache: dict[str, tuple[tuple[str, tuple[TypeRef, ...]], ...]] = {}
        self._executable_grant_rules = tuple(
            (r, _id_matcher(r.executables)) for r in config.rules if r.executables
        )
        self._start_group()

    def _start_group(self) -> None:
        """Start afresh the memos kept per executable.  Classify keeps them
        for one executable group at a time: an executable with the
        anonymous-body executables nested in it, whose sets read its own.
        The memos made in ``__init__`` live for the run."""
        self.base = _BaseSets(self.by_id, self.table)
        self._base_seeds_cache: dict[str, tuple[TypeRef, ...]] = {}
        self._ladder_cache: dict[str, _Ladder] = {}
        self._calls_cache: dict[str, dict[str, list[_Call]]] = {}
        self._executable_grants_cache: dict[str, dict[str, Rule]] = {}
        self._effective_cache: dict[tuple[str, int, frozenset[str]], FriendSet] = {}

    def _close(self, types: Iterable[TypeRef]) -> Contribution:
        kept = tuple(dict.fromkeys(t for t in types if not t.is_primitive))
        return kept, self.table.closure_mask(kept)

    # -- grants of the independent kinds --------------------------------------
    # Each returns what one rule grants to one executable, from nothing but
    # the rule, the executable and this run's caches.

    def _grant_friend_types(self, ex: Executable, rule: Rule) -> Contribution:
        got = self._universal_cache.get(rule.rule_id)
        if got is None:
            types = list(self._listed[rule.rule_id][0])
            glob = rule.package_glob
            if glob:
                # "java.lang.*" means direct members of java.lang, not subpackages.
                pkg = glob[:-2] if glob.endswith(".*") else glob
                types += map(
                    TypeRef, sorted(d.name for d in self.table if _package_of(d.name) == pkg)
                )
            for interface in rule.implementors_of:
                types += map(TypeRef, self.table.declared_subtypes(parse_type_name(interface)))
            got = self._universal_cache[rule.rule_id] = self._close(types)
        return got

    def _grant_ctor_params(self, ex: Executable, rule: Rule) -> Contribution:
        owner = ex.owner_type.name
        got = self._ctor_param_cache.get(owner)
        if got is None:
            got = self._ctor_param_cache[owner] = self._close(
                t
                for other in self.by_owner[owner]
                if other.exec_kind == "constructor"
                for _, t in other.params
            )
        return got

    def _grant_aggregation(self, ex: Executable, rule: Rule) -> Contribution:
        owner = ex.owner_type.name
        elements = [parse_type_name(element) for cls, _, element in rule.field_map if cls == owner]
        if rule.infer_via:
            for name, arg_types in self._field_calls(owner):
                if name in rule.infer_via:
                    elements += arg_types
        return self._close(elements) if elements else _NOTHING

    def _field_calls(self, owner: str) -> tuple[tuple[str, tuple[TypeRef, ...]], ...]:
        """(method name, argument types) of every method call in ``owner``'s
        executables whose receiver is one of ``owner``'s own fields, one
        link away, in site order."""
        got = self._field_calls_cache.get(owner)
        if got is None:
            decl = self.table.get(owner)
            members = decl.members if decl is not None else ()
            own_fields = {m.name for m in members if m.member_kind is MemberKind.FIELD}
            got = self._field_calls_cache[owner] = tuple(
                (site.member.name, site.arg_types)
                for other in self.by_owner[owner]
                for site in other.body_accesses
                if site.access_kind == "method-call"
                and (last := site.receiver.last) is not None
                and last.parent is None
                and last.kind == "field"
                and last.label in own_fields
            )
        return got

    def _grant_call(self, ex: Executable, rule: Rule) -> Contribution:
        calls = self._calls(ex)
        hits: dict[int, TypeRef] = {}
        for m_type, m_glob in rule.matcher:
            for position, name, declared in calls.get(m_type, ()):
                if fnmatchcase(name, m_glob):
                    hits[position] = declared
        if not hits:
            return _NOTHING
        if rule.grants:
            return self._listed[rule.rule_id]
        return self._close(hits[position] for position in sorted(hits))

    def _calls(self, ex: Executable) -> dict[str, list[_Call]]:
        """``ex``'s method calls by declaring type, in site order, so that a
        call-grant whose matcher names none of those types needs no scan."""
        got = self._calls_cache.get(ex.id)
        if got is None:
            got = self._calls_cache[ex.id] = {}
            for position, site in enumerate(ex.body_accesses):
                member = site.member
                if (
                    site.access_kind in ("method-call", "static-member-access")
                    and member.member_kind is MemberKind.METHOD
                ):
                    got.setdefault(member.declaring_type, []).append(
                        (position, member.name, member.declared_type)
                    )
        return got

    def _grant_downcast(self, ex: Executable, rule: Rule) -> Contribution:
        if ex.downcast_param_types:
            return self._close(ex.downcast_param_types)
        return _NOTHING

    def _grant_executable(self, ex: Executable, rule: Rule) -> Contribution:
        if rule.status == "accepted" and rule.rule_id in self._executable_grants(ex.id):
            return self._listed[rule.rule_id]
        return _NOTHING

    def _executable_grants(self, exec_id: str) -> dict[str, Rule]:
        """The executable-grant rules whose globs match ``exec_id``, by id,
        in rule order."""
        got = self._executable_grants_cache.get(exec_id)
        if got is None:
            got = self._executable_grants_cache[exec_id] = {
                r.rule_id: r for r, match in self._executable_grant_rules if match(exec_id)
            }
        return got

    # -- the effective set ---------------------------------------------------

    def _ladder(self, ex: Executable) -> _Ladder:
        """``ex``'s granting entries at each layer and its mask and grants
        through each layer prefix, built for every layer at once: classify
        asks for the last layer first, and explain for every layer.  Each
        rule's contribution to ``ex`` is computed once."""
        got = self._ladder_cache.get(ex.id)
        if got is None:
            entries = self._entries
            mask, grants = self.base[ex.id].mask, ()
            ladder, states = [], [(mask, grants)]
            for granting in self._grants_at:
                at = []
                for r, grant in granting:
                    granted = grant(self, ex, r)
                    if granted[0]:
                        last = entries.get(r.rule_id)
                        if last is None or last[0] is not granted:
                            entry = ((r.rule_id, granted[0]), granted[1])
                            last = entries[r.rule_id] = (granted, entry)
                        at.append(last[1])
                        mask |= granted[1]
                ladder.append(tuple(at))
                grants += tuple(entry[0] for entry in at)
                states.append((mask, grants))
            got = self._ladder_cache[ex.id] = (tuple(ladder), tuple(states))
        return got

    def _fixed(self, n: int, disabled: frozenset[str]) -> _Fixed:
        """The parts of the rules in the first n layers, less ``disabled``,
        joined in rule order; the share rule is the first one's."""
        key = (n, disabled)
        got = self._fixed_cache.get(key)
        if got is None:
            implications, exemptions, share = [], [], None
            for k in self.config.layer_indices[:n]:
                for r in self.config.rules_at(k):
                    if r.rule_id not in disabled:
                        more, exempt, shares = self._parts[r.rule_id]
                        implications += more
                        exemptions += exempt
                        share = shares if share is None else share
            got = self._fixed_cache[key] = (tuple(implications), tuple(exemptions), share)
        return got

    def effective(
        self,
        exec_id: str,
        k: int,
        disabled: frozenset[str] = frozenset(),
    ) -> FriendSet:
        """Cumulative friend set of one executable through layer k.

        Through a k below every configured layer (k = -1, say) it is the
        base set itself.  ``disabled`` removes whole rules, which is how
        attribution tests single-rule necessity.

        The granting rules' part is the executable's ladder state through
        the layer before the first one that holds a disabled rule, plus the
        undisabled grants of the later layers through k, in rule order.
        The implication pairs, exemptions and anon-inner-share rule come
        from ``_fixed``, which depends on no executable.  Anon-inner-share
        and the implication fixpoint apply after the grants, so grants,
        their order and the implied grants are what one walk over every
        rule through k would give.
        """
        layers = self.config.layer_indices
        if not layers or k < layers[0]:
            return self.base[exec_id]
        key = (exec_id, k, disabled)
        got = self._effective_cache.get(key)
        if got is not None:
            return got

        ex = self.by_id[exec_id]
        n = bisect_right(layers, k)
        position = self._position
        first = min((position[i] for i in disabled if i in position), default=n)
        ladder, states = self._ladder(ex)
        mask, grants = states[min(first, n)]
        grants = list(grants)
        for at in ladder[first:n]:
            for granted, granted_mask in at:
                if granted[0] not in disabled:
                    grants.append(granted)
                    mask |= granted_mask
        implications, exemptions, share = self._fixed(n, disabled)

        if share is not None and ex.enclosing_executable is not None:
            enclosing = self.effective(ex.enclosing_executable, k, disabled)
            # Every seed of the enclosing set: its base seeds and its grants.
            grants.append((share.rule_id, self._base_seeds(ex.enclosing_executable)))
            grants.extend((share.rule_id, types) for _, types in enclosing.grants)
            mask |= enclosing.mask

        changed = bool(implications)
        while changed:
            changed = False
            for rule_id, premise, conclusion, bit, implied in implications:
                if mask >> premise & 1 and not mask >> bit & 1:
                    grants.append((rule_id, (conclusion,)))
                    mask |= implied
                    changed = True

        got = FriendSet(self.table, ex, mask, tuple(grants), exemptions)
        self._effective_cache[key] = got
        return got

    def _base_seeds(self, exec_id: str) -> tuple[TypeRef, ...]:
        """The base seed types of an executable, sorted by name."""
        got = self._base_seeds_cache.get(exec_id)
        if got is None:
            got = self._base_seeds_cache[exec_id] = tuple(t for t, _ in self.base[exec_id].base)
        return got

    # -- classification -------------------------------------------------------

    def classify(self, violations: Sequence[PotentialViolation]) -> list["Verdict"]:
        """One verdict per violation, sorted by site id.

        The per-executable memos are dropped (``_start_group``) whenever a
        violation's executable group differs from the last one's.  Violations
        in position order, as ``cli`` passes them, bring each group's
        together, so no memo is built twice; any other order gives the same
        verdicts and only builds some again.
        """
        verdicts = []
        exec_id = root = None
        for v in violations:
            if v.executable_id != exec_id:
                exec_id = v.executable_id
                group = self._root(exec_id)
                if group != root:
                    root = group
                    self._start_group()
            verdicts.append(self._classify_one(v))
        verdicts.sort(key=lambda verdict: verdict.violation.site.site_id)
        return verdicts

    def _root(self, exec_id: str) -> str:
        """The outermost executable enclosing ``exec_id``; itself if none."""
        enclosing = self.by_id[exec_id].enclosing_executable
        while enclosing is not None:
            exec_id = enclosing
            enclosing = self.by_id[exec_id].enclosing_executable
        return exec_id

    def _silenced_at(self, v: PotentialViolation, k: int, disabled=frozenset()) -> bool:
        friends = self.effective(v.executable_id, k, disabled)
        return check_site(v.site, v.executable_id, friends) is None

    def _probed(self, v: PotentialViolation, k: int) -> list[Rule]:
        """The rules at layer k, the first that silences ``v``, whose removal
        can change ``v``'s verdict, in order.

        A rule is kept when its grant to ``v``'s executable is not empty
        (while a share rule carries the enclosing executable's set in, its
        grant to each enclosing executable outward counts too), or when its
        part can touch ``v``: an exemption matches the site, an implication
        premise is in the undisabled mask at k (disabling rules only shrinks
        the mask, so another premise never fires), or it shares and ``v``'s
        executable is in an anonymous body.

        When the undisabled set at k holds no implication pair, a grant that
        lacks the receiver does not keep its rule.  Disabled, that rule
        leaves the receiver's bit and the exemptions as they were, so the
        site stays silenced; alone at k, it adds no bit that silences, so
        the site stays as at the previous layer, where it is not silenced.
        """
        ex = self.by_id[v.executable_id]
        anonymous = ex.enclosing_executable is not None
        n = bisect_right(self.config.layer_indices, k)
        implications, _, share = self._fixed(n, frozenset())
        in_mask = self.table.in_mask
        receiver = v.receiver_type
        relevant = set()
        while True:
            relevant.update(
                granted[0]
                for granted, granted_mask in self._ladder(ex)[0][n - 1]
                if implications or in_mask(granted_mask, receiver)
            )
            if share is None or ex.enclosing_executable is None:
                break
            ex = self.by_id[ex.enclosing_executable]
        mask = self.effective(v.executable_id, k).mask
        probed = []
        for r in self.config.rules_at(k):
            more, exempt, shares = self._parts[r.rule_id]
            if (
                r.rule_id in relevant
                or exempt and any(e.matches(v.site) for e in exempt)
                or more and any(mask >> premise & 1 for _, premise, *_ in more)
                or anonymous and shares is not None
            ):
                probed.append(r)
        return probed

    def _classify_one(self, v: PotentialViolation) -> "Verdict":
        """The verdict of one violation: remaining, or silenced at the first
        layer k whose set silences it and credited to rules at k.

        Without disabled rules, silencing is monotone in the layer: rules
        only add friends and exemptions, so a site the last layer does not
        silence is remaining after that one probe.

        A rule at k outside ``_probed`` changes neither the mask nor whether
        an exemption matches the site, when disabled or when it is the only
        rule of layer k.  So it is not necessary, and it does not suffice
        alone either: alone, the set checks the site as the set through the
        previous layer does, which does not silence it.  Its probes are
        skipped in those two branches; the conjunction bisection probes
        prefixes of every rule at k.
        """
        layers = self.config.layer_indices
        if not layers or not self._silenced_at(v, layers[-1]):
            return Verdict(
                violation=v,
                outcome="remaining",
                status=self._remaining_status(v),
                hint=self._remaining_hint(v),
            )
        k = next((k for k in layers[:-1] if self._silenced_at(v, k)), layers[-1])
        at_k = self.config.rules_at(k)
        ids = [r.rule_id for r in at_k]
        probed = self._probed(v, k)
        credited = [r for r in probed if not self._silenced_at(v, k, frozenset({r.rule_id}))]
        if not credited:
            # Same-layer redundancy: no single rule is necessary, so credit
            # the rules at k that suffice alone on top of the previous
            # layers.
            credited = [
                r for r in probed if self._silenced_at(v, k, frozenset(ids) - {r.rule_id})
            ]
        if not credited:
            # Only a conjunction of rules at k silences: credit the first
            # rule whose layer-k prefix completes the silencing.  Silencing
            # is monotone in that prefix, so bisection finds it.
            first = bisect_left(
                range(len(at_k)),
                True,
                key=lambda i: self._silenced_at(v, k, frozenset(ids[i + 1 :])),
            )
            credited = [at_k[first]]
        also = tuple(r.rule_id for r in credited[1:])
        return Verdict(v, "silenced", layer=k, rule_id=credited[0].rule_id, also_matched=also)

    def _would_befriend(self, rule: Rule, v: PotentialViolation) -> bool:
        return self.table.in_mask(self._listed[rule.rule_id][1], v.receiver_type)

    def _remaining_status(self, v: PotentialViolation) -> str:
        for r in self._executable_grants(v.executable_id).values():
            if r.status != "accepted" and r.grants and self._would_befriend(r, v):
                return r.status
        return "candidate-true-positive"

    def _remaining_hint(self, v: PotentialViolation) -> str:
        for r in self._executable_grants(v.executable_id).values():
            if r.hint and (not r.grants or self._would_befriend(r, v)):
                return r.hint
        return ""


# -- the rule kind table ---------------------------------------------------------


def _part_implication(table: TypeTable, rule: Rule) -> _Fixed:
    implications = tuple(
        (rule.rule_id, table.bit(a), b, table.bit(b), table.closure_mask([b]))
        for a, b in (map(parse_type_name, pair) for pair in rule.pairs)
        if not b.is_primitive  # a primitive is never a friend, so never implied
    )
    return implications, (), None


def _part_members(table: TypeTable, rule: Rule) -> _Fixed:
    how = (rule.member_predicate,) if rule.member_predicate else ("pattern", *rule.member_pattern)
    return (), (MemberExemption(rule.rule_id, *how),), None


class _Kind(Struct):
    __slots__ = ("load", "grant", "part")

    def __init__(
        self,
        load: Callable[[dict, str, set[str]], dict],
        grant: Optional[Callable[[Adapter, Executable, Rule], Contribution]] = None,
        part: Callable[[TypeTable, Rule], _Fixed] = lambda table, rule: _NO_PART,
    ) -> None:
        self.load = load
        # What a rule grants one executable, from the rule, the executable
        # and the adapter's caches; None for a kind that grants nothing.
        self.grant = grant
        # What a rule adds to every executable's set.  Adapter.effective
        # applies the parts after the grants: a share reads the enclosing
        # set, and an implication fires on the granted mask.
        self.part = part


_KINDS: dict[str, _Kind] = {
    "universal-friend-types": _Kind(_load_friend_types, Adapter._grant_friend_types),
    "universal-friend-members": _Kind(_load_friend_members, part=_part_members),
    "call-grant": _Kind(_load_call_grant, Adapter._grant_call),
    "ctor-params-as-fields": _Kind(_load_switch, Adapter._grant_ctor_params),
    "anon-inner-share": _Kind(_load_switch, part=lambda table, rule: ((), (), rule)),
    "downcast-param": _Kind(_load_switch, Adapter._grant_downcast),
    "aggregation-elements": _Kind(_load_aggregation, Adapter._grant_aggregation),
    "friend-implication": _Kind(_load_implication, part=_part_implication),
    "executable-grant": _Kind(_load_executable_grant, Adapter._grant_executable),
}

RULE_KINDS = frozenset(_KINDS)


class Verdict(Value):
    __slots__ = ("violation", "outcome", "layer", "rule_id", "also_matched", "status", "hint")

    def __init__(
        self,
        violation: PotentialViolation,
        outcome: str,
        layer: Optional[int] = None,
        rule_id: Optional[str] = None,
        also_matched: tuple[str, ...] = (),
        status: str = "",
        hint: str = "",
    ) -> None:
        self.violation = violation
        self.outcome = outcome  # "silenced" | "remaining"
        self.layer = layer
        self.rule_id = rule_id
        self.also_matched = also_matched
        # remaining only: adjourned | review-pending | candidate-true-positive
        self.status = status
        self.hint = hint


class WaterfallEntry(Value):
    __slots__ = ("rule_id", "layer", "count")

    def __init__(self, rule_id: str, layer: int, count: int) -> None:
        self.rule_id = rule_id
        self.layer = layer
        self.count = count


class Waterfall(Value):
    __slots__ = ("total", "per_layer", "per_rule", "remaining")

    def __init__(
        self,
        total: int,
        per_layer: tuple[tuple[int, int], ...],
        per_rule: tuple[WaterfallEntry, ...],
        remaining: int,
    ) -> None:
        self.total = total
        self.per_layer = per_layer  # (layer index, silenced count)
        self.per_rule = per_rule  # every configured rule, zeros included
        self.remaining = remaining


def attribute_waterfall(verdicts: Sequence[Verdict], config: LayeredConfig) -> Waterfall:
    """Aggregate verdicts per layer and per primary rule; checks conservation."""
    layer_counts = {k: 0 for k in config.layer_indices}
    rule_counts = {r.rule_id: 0 for r in config.rules}
    remaining = 0
    for verdict in verdicts:
        if verdict.outcome == "silenced":
            layer_counts[verdict.layer] += 1
            rule_counts[verdict.rule_id] += 1
        else:
            remaining += 1
    total = len(verdicts)
    silenced = sum(layer_counts.values())
    if silenced + remaining != total or sum(rule_counts.values()) != silenced:
        raise RuntimeError(
            f"conservation failure: {silenced} silenced + {remaining} remaining != {total}"
        )
    per_rule = tuple(
        WaterfallEntry(r.rule_id, r.layer, rule_counts[r.rule_id]) for r in config.rules
    )
    return Waterfall(
        total=total,
        per_layer=tuple(sorted(layer_counts.items())),
        per_rule=per_rule,
        remaining=remaining,
    )
