"""Strict class-form Law of Demeter: friend sets and the violation predicate.

For every executable M of a class C, the allowed receiver types ("friends")
are C itself, the types of fields declared in C, the types of M's parameters,
the classes M instantiates, and all their supertypes.  Every access site
whose receiver is not ``this``/``super`` and whose static receiver type falls
outside that closure is a potential violation.

Friendship is a property of types, computed per executable; adaptation rules
(see ``adapt``) later enlarge the seed set or exempt members, which is why
``FriendSet`` carries role-tagged seeds and a list of member exemptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, Mapping, Optional

from .codemodel import MemberKind, TypeKind, TypeRef, TypeTable
from .javafront import AccessSite, Executable

__all__ = [
    "FriendSet",
    "MemberExemption",
    "PotentialViolation",
    "SELF_FORMS",
    "base_friend_set",
    "check_site",
    "detect",
    "make_friend_set",
]

#: Receiver forms that can never violate: the object itself.
SELF_FORMS = frozenset({"this-implicit", "this-explicit", "super"})


@dataclass(frozen=True)
class MemberExemption:
    """Exempts accesses by the member they touch, not by receiver friendship.

    ``public-static`` exempts any public static member; ``array-length``
    exempts the built-in array length read; ``pattern`` exempts members whose
    declaring type equals ``type_name`` and whose name matches ``name_glob``.
    """

    rule_id: str
    predicate: str  # public-static | array-length | pattern
    type_name: str = ""
    name_glob: str = ""

    def matches(self, site: AccessSite) -> bool:
        if self.predicate == "public-static":
            return site.member.is_static and site.member.is_public
        if self.predicate == "array-length":
            return site.access_kind == "array-length"
        if self.predicate == "pattern":
            return site.member.declaring_type == self.type_name and fnmatchcase(
                site.member.name, self.name_glob
            )
        raise ValueError(f"unknown member predicate '{self.predicate}'")


@dataclass(frozen=True)
class FriendSet:
    """Role-tagged friend seeds with their supertype closure.

    ``seeds`` maps each seed type to its sorted role tags: ``self``,
    ``field-type``, ``param-type``, ``instantiated``, or ``granted:<rule>``.
    The closure is what detection tests receivers against.
    """

    seeds: tuple[tuple[TypeRef, tuple[str, ...]], ...]
    closure: frozenset[TypeRef]
    member_exemptions: tuple[MemberExemption, ...] = ()

    def seed_roles(self) -> dict[TypeRef, set[str]]:
        """Mutable copy of the seed map, for rule application."""
        return {t: set(roles) for t, roles in self.seeds}


def make_friend_set(
    table: TypeTable,
    seed_roles: Mapping[TypeRef, Iterable[str]],
    exemptions: Iterable[MemberExemption] = (),
) -> FriendSet:
    """Close the seeds under supertypes; primitive seeds are dropped."""
    kept = {t: tuple(sorted(set(r))) for t, r in seed_roles.items() if not t.is_primitive}
    closure = table.supertype_closure(kept)
    seeds = tuple(sorted(kept.items(), key=lambda pair: pair[0].name))
    return FriendSet(seeds=seeds, closure=closure, member_exemptions=tuple(exemptions))


def base_friend_set(executable: Executable, table: TypeTable) -> FriendSet:
    """Friends before any adaptation: C, declared-field types, params, news.

    Field types come from fields declared in C itself; inherited fields
    contribute nothing.  Primitive types never become friends.
    """
    roles: dict[TypeRef, set[str]] = {}

    def add(t: TypeRef, role: str) -> None:
        if t.is_primitive:
            return
        roles.setdefault(t, set()).add(role)

    add(executable.owner_type, "self")
    decl = table.get(executable.owner_type.name)
    if decl is not None:
        for m in decl.members:
            if m.member_kind is MemberKind.FIELD:
                add(m.declared_type, "field-type")
    for _, param_type in executable.params:
        add(param_type, "param-type")
    for t in executable.instantiated_types:
        add(t, "instantiated")
    return make_friend_set(table, roles)


@dataclass(frozen=True)
class PotentialViolation:
    site: AccessSite
    executable_id: str
    receiver_type: TypeRef
    note: Optional[str] = None


def check_site(
    site: AccessSite, executable_id: str, friends: FriendSet
) -> Optional[PotentialViolation]:
    """The per-site predicate; returns a violation or None.

    Self receivers and primitive receivers are never violations.  Unknown
    receiver types (lenient binding) are counted conservatively, with a note,
    rather than dropped.
    """
    if site.receiver.form in SELF_FORMS:
        return None
    receiver_type = site.receiver.static_type
    if receiver_type.is_primitive:
        return None
    for exemption in friends.member_exemptions:
        if exemption.matches(site):
            return None
    if receiver_type in friends.closure:
        return None
    note = "unresolved-receiver" if receiver_type.kind is TypeKind.UNKNOWN else None
    return PotentialViolation(
        site=site, executable_id=executable_id, receiver_type=receiver_type, note=note
    )


def detect(executable: Executable, friends: FriendSet) -> list[PotentialViolation]:
    """All potential violations of one executable, in site-ordinal order."""
    out = []
    for site in executable.body_accesses:
        v = check_site(site, executable.id, friends)
        if v is not None:
            out.append(v)
    return out
