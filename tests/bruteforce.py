"""Brute-force oracle: the analysis recomputed without any of the engine's
machinery.

Everything here is re-derived from raw model data on every query: closures by
repeated expansion to a fixpoint, seed sets by re-walking declarations and
bodies, classification by recomputing the friend set for every (violation,
layer, ablation) combination.  No caches, no FriendSet, no Adapter.  The only
shared code is the data model itself and the config loader.
"""

from fnmatch import fnmatchcase

from demeterlint.codemodel import ARRAYS, MemberKind, TypeKind, TypeRef, parse_type_name

_OBJECT = TypeRef("java.lang.Object")
_SELF = ("this-implicit", "this-explicit", "super")


def naive_closure(seed_types, table):
    """Reflexive-transitive supertypes, grown one generation at a time."""
    current = {t for t in seed_types if not t.is_primitive}
    while True:
        grown = set(current)
        for ref in current:
            if ref.kind is TypeKind.ARRAY:
                grown.add(ARRAYS)
                if not ref.element.is_primitive:
                    grown.add(ref.element)
            elif ref.kind is TypeKind.DECLARED and ref != ARRAYS:
                decl = table.get(ref.name)
                if decl is not None:
                    grown.update(decl.supertypes)
                if ref.name != _OBJECT.name:
                    grown.add(_OBJECT)
        if grown == current:
            return frozenset(current)
        current = grown


def resolution_order(table, start):
    """Receiver first, then supertypes depth-first in declared order: the
    order ``TypeTable.resolve_member`` searches in, walked type by type.

    Preorder with an explicit stack: supertypes are pushed in reverse, and
    ``java.lang.Object`` sits at the bottom, so it comes up only after the
    whole walk from ``start`` unless that walk reached it.
    """
    visited = set()
    stack = [_OBJECT.name, start.name]
    while stack:
        name = stack.pop()
        if name in visited:
            continue
        visited.add(name)
        decl = table.get(name)
        if decl is not None:
            yield decl
            stack.extend(sup.name for sup in reversed(decl.supertypes))


def _id_matches(pattern: str, exec_id: str) -> bool:
    if pattern != exec_id and ("*" in pattern or "?" in pattern or "[" in pattern):
        return fnmatchcase(exec_id, pattern)
    return pattern == exec_id


def _package(name: str) -> str:
    head, _, _ = name.rpartition(".")
    return head


def naive_base_types(ex, table) -> set[TypeRef]:
    """Owner, own declared field types, param types, instantiated types."""
    out = {ex.owner_type}
    decl = table.get(ex.owner_type.name)
    if decl is not None:
        for member in decl.members:
            if member.member_kind is MemberKind.FIELD:
                out.add(member.declared_type)
    for _name, t in ex.params:
        out.add(t)
    out.update(ex.instantiated_types)
    return {t for t in out if not t.is_primitive}


def naive_seed_types(exec_id, k, disabled, executables, table, config) -> set[TypeRef]:
    """The effective seed set of one executable through layer k, rebuilt."""
    by_id = {e.id: e for e in executables}
    ex = by_id[exec_id]
    owner = ex.owner_type.name
    active = [
        r for r in config.rules if r.layer <= k and r.rule_id not in disabled
    ]
    seeds = naive_base_types(ex, table)

    for r in active:
        if r.kind == "universal-friend-types":
            seeds.update(parse_type_name(n) for n in r.types)
            if r.package_glob:
                pkg = r.package_glob
                if pkg.endswith(".*"):
                    pkg = pkg[:-2]
                seeds.update(
                    TypeRef(d.name) for d in table if _package(d.name) == pkg
                )
            for iface in r.implementors_of:
                target = parse_type_name(iface)
                seeds.update(
                    TypeRef(d.name)
                    for d in table
                    if target in naive_closure([d.ref], table)
                )
        elif r.kind == "ctor-params-as-fields" and r.enabled:
            for other in executables:
                if other.owner_type.name == owner and other.exec_kind == "constructor":
                    seeds.update(t for _n, t in other.params)
        elif r.kind == "aggregation-elements":
            for cls, _field, element in r.field_map:
                if cls == owner:
                    seeds.add(parse_type_name(element))
            if r.infer_via:
                decl = table.get(owner)
                fields = {
                    m.name
                    for m in (decl.members if decl else ())
                    if m.member_kind is MemberKind.FIELD
                }
                for other in executables:
                    if other.owner_type.name != owner:
                        continue
                    for site in other.body_accesses:
                        if (
                            site.access_kind == "method-call"
                            and site.member.name in r.infer_via
                            and len(site.receiver.chain) == 1
                            and site.receiver.chain[0].kind == "field"
                            and site.receiver.chain[0].label in fields
                        ):
                            seeds.update(site.arg_types)
        elif r.kind == "call-grant":
            for site in ex.body_accesses:
                if site.access_kind not in ("method-call", "static-member-access"):
                    continue
                if site.member.member_kind is not MemberKind.METHOD:
                    continue
                hit = any(
                    site.member.declaring_type == mt and fnmatchcase(site.member.name, mg)
                    for mt, mg in r.matcher
                )
                if not hit:
                    continue
                if r.grants:
                    seeds.update(parse_type_name(n) for n in r.grants)
                else:
                    seeds.add(site.member.declared_type)
        elif r.kind == "downcast-param" and r.enabled:
            seeds.update(ex.downcast_param_types)
        elif r.kind == "executable-grant" and r.status == "accepted":
            if any(_id_matches(g, exec_id) for g in r.executables):
                seeds.update(parse_type_name(n) for n in r.grants)

    if ex.enclosing_executable is not None and any(
        r.kind == "anon-inner-share" and r.enabled for r in active
    ):
        seeds.update(
            naive_seed_types(
                ex.enclosing_executable, k, disabled, executables, table, config
            )
        )

    pairs = [
        (parse_type_name(a), parse_type_name(b))
        for r in active
        if r.kind == "friend-implication"
        for a, b in r.pairs
    ]
    while True:
        reach = naive_closure(seeds, table)
        new = {b for a, b in pairs if a in reach and b not in seeds}
        if not new:
            break
        seeds.update(new)

    return {t for t in seeds if not t.is_primitive}


def _site_exempt(site, active_member_rules) -> bool:
    for r in active_member_rules:
        if r.member_predicate == "public-static":
            if site.member.is_static and site.member.is_public:
                return True
        elif r.member_predicate == "array-length":
            if site.access_kind == "array-length":
                return True
        elif r.member_pattern is not None:
            t, glob = r.member_pattern
            if site.member.declaring_type == t and fnmatchcase(site.member.name, glob):
                return True
    return False


def naive_site_ok(site, closure, active_member_rules) -> bool:
    if site.receiver.form in _SELF:
        return True
    if site.receiver.static_type.is_primitive:
        return True
    if _site_exempt(site, active_member_rules):
        return True
    return site.receiver.static_type in closure


def naive_detect(executables, table) -> list[tuple[str, str]]:
    """Base potential violations as (executable id, site id), body order."""
    out = []
    for ex in executables:
        closure = naive_closure(naive_base_types(ex, table), table)
        for site in ex.body_accesses:
            if not naive_site_ok(site, closure, ()):
                out.append((ex.id, site.site_id))
    return out


def _still_violates(ex_id, site, k, disabled, executables, table, config) -> bool:
    seeds = naive_seed_types(ex_id, k, disabled, executables, table, config)
    member_rules = [
        r
        for r in config.rules
        if r.kind == "universal-friend-members"
        and r.layer <= k
        and r.rule_id not in disabled
    ]
    return not naive_site_ok(site, naive_closure(seeds, table), member_rules)


def naive_classify(ex_id, site, executables, table, config) -> dict:
    """Full verdict for one base violation, recomputed from scratch."""
    receiver = site.receiver.static_type
    for k in sorted({r.layer for r in config.rules}):
        if _still_violates(ex_id, site, k, frozenset(), executables, table, config):
            continue
        at_k = [r for r in config.rules if r.layer == k]
        necessary = [
            r
            for r in at_k
            if _still_violates(
                ex_id, site, k, frozenset({r.rule_id}), executables, table, config
            )
        ]
        if not necessary:
            necessary = [
                r
                for r in at_k
                if not _still_violates(
                    ex_id,
                    site,
                    k,
                    frozenset(o.rule_id for o in at_k if o.rule_id != r.rule_id),
                    executables,
                    table,
                    config,
                )
            ]
        if not necessary:
            # Only a conjunction silences: the first rule whose layer-k
            # prefix, on top of the earlier layers, silences the site.
            for i, r in enumerate(at_k):
                later = frozenset(o.rule_id for o in at_k[i + 1 :])
                if not _still_violates(ex_id, site, k, later, executables, table, config):
                    necessary = [r]
                    break
        return {
            "site": site.site_id,
            "outcome": "silenced",
            "layer": k,
            "rule": necessary[0].rule_id,
            "also": tuple(r.rule_id for r in necessary[1:]),
            "status": "",
            "hint": "",
        }

    status = "candidate-true-positive"
    for r in config.rules:
        if r.kind != "executable-grant" or r.status == "accepted" or not r.grants:
            continue
        if not any(_id_matches(g, ex_id) for g in r.executables):
            continue
        granted = naive_closure([parse_type_name(n) for n in r.grants], table)
        if receiver in granted:
            status = r.status
            break
    hint = ""
    for r in config.rules:
        if r.kind != "executable-grant" or not r.hint:
            continue
        if not any(_id_matches(g, ex_id) for g in r.executables):
            continue
        if r.grants:
            granted = naive_closure([parse_type_name(n) for n in r.grants], table)
            if receiver not in granted:
                continue
        hint = r.hint
        break
    return {
        "site": site.site_id,
        "outcome": "remaining",
        "layer": None,
        "rule": None,
        "also": (),
        "status": status,
        "hint": hint,
    }


def oracle_verdicts(executables, table, config) -> list[dict]:
    sites_by_exec = {
        ex.id: {s.site_id: s for s in ex.body_accesses} for ex in executables
    }
    out = [
        naive_classify(ex_id, sites_by_exec[ex_id][site_id], executables, table, config)
        for ex_id, site_id in naive_detect(executables, table)
    ]
    out.sort(key=lambda v: v["site"])
    return out


def engine_verdicts_as_dicts(verdicts) -> list[dict]:
    """Engine verdicts flattened to the oracle's comparison shape."""
    return [
        {
            "site": v.violation.site.site_id,
            "outcome": v.outcome,
            "layer": v.layer,
            "rule": v.rule_id,
            "also": v.also_matched,
            "status": v.status,
            "hint": v.hint,
        }
        for v in verdicts
    ]
