"""Strict class-form Law of Demeter: friend sets and the violation predicate.

For every executable M of a class C, the allowed receiver types ("friends")
are C itself, the types of fields declared in C, the types of M's parameters,
the classes M instantiates, and all their supertypes.  Every access site
whose receiver is not ``this``/``super`` and whose static receiver type falls
outside that closure is a potential violation.

Friendship is a property of types, computed per executable; adaptation rules
(see ``adapt``) later enlarge the seed set or exempt members, which is why
``FriendSet`` records the rules' grants and a list of member exemptions next
to the closure mask that detection tests receivers against.  The seeds and
their roles are derived on demand, for explanations only.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterable, Mapping, Optional

from .codemodel import MemberKind, TypeKind, TypeRef, TypeTable
from .javafront import AccessSite, Executable
from .records import Value

__all__ = [
    "FriendSet",
    "MemberExemption",
    "PotentialViolation",
    "SELF_FORMS",
    "base_friend_set",
    "check_site",
    "detect",
]

#: Receiver forms that can never violate: the object itself.
SELF_FORMS = frozenset({"this-implicit", "this-explicit", "super"})


class MemberExemption(Value):
    """Exempts accesses by the member they touch, not by receiver friendship.

    ``public-static`` exempts any public static member; ``array-length``
    exempts the built-in array length read; ``pattern`` exempts members whose
    declaring type equals ``type_name`` and whose name matches ``name_glob``.
    A glob without ``*``, ``?`` or ``[`` matches the one name it equals, as
    in fnmatch, and is tested without compiling a pattern, which fnmatch
    and ``re`` would keep cached for the life of the process.
    """

    __slots__ = ("rule_id", "predicate", "type_name", "name_glob", "literal")
    _fields = ("rule_id", "predicate", "type_name", "name_glob")

    def __init__(
        self, rule_id: str, predicate: str, type_name: str = "", name_glob: str = ""
    ) -> None:
        self.rule_id = rule_id
        self.predicate = predicate  # public-static | array-length | pattern
        self.type_name = type_name
        self.name_glob = name_glob
        self.literal = not any(c in name_glob for c in "*?[")

    def matches(self, site: AccessSite) -> bool:
        if self.predicate == "public-static":
            return site.member.is_static and site.member.is_public
        if self.predicate == "array-length":
            return site.access_kind == "array-length"
        if self.predicate == "pattern":
            member = site.member
            return member.declaring_type == self.type_name and (
                member.name == self.name_glob
                if self.literal
                else fnmatchcase(member.name, self.name_glob)
            )
        raise ValueError(f"unknown member predicate '{self.predicate}'")


class FriendSet(Value):
    """A friend closure with the executable and grants it was closed from.

    ``mask`` is the closure, interned by ``table``; it is what detection
    tests receivers against.  ``executable`` is the one whose base seeds
    the set starts from (see ``base``), and ``grants`` holds the (rule id,
    types) a rule granted, in the order the rules applied.  Equality and
    repr leave out ``table`` and ``executable``.
    """

    __slots__ = ("table", "executable", "mask", "grants", "member_exemptions")
    _fields = ("mask", "grants", "member_exemptions")

    def __init__(
        self,
        table: TypeTable,
        executable: Executable,
        mask: int,
        grants: tuple[tuple[str, tuple[TypeRef, ...]], ...] = (),
        member_exemptions: tuple[MemberExemption, ...] = (),
    ) -> None:
        self.table = table
        self.executable = executable
        self.mask = mask
        self.grants = grants
        self.member_exemptions = member_exemptions

    def __contains__(self, ref: TypeRef) -> bool:
        return self.table.in_mask(self.mask, ref)

    @property
    def closure(self) -> frozenset[TypeRef]:
        return self.table.types_in(self.mask)

    @property
    def base(self) -> tuple[tuple[TypeRef, tuple[str, ...]], ...]:
        """The base seeds with their sorted roles (``self``, ``field-type``,
        ``param-type``, ``instantiated``), sorted by type name."""
        ex = self.executable
        roles: dict[TypeRef, set[str]] = {}
        for role, types in (
            ("self", (ex.owner_type,)),
            ("field-type", _field_types(ex.owner_type, self.table)),
            ("param-type", (t for _, t in ex.params)),
            ("instantiated", ex.instantiated_types),
        ):
            for t in types:
                roles.setdefault(t, set()).add(role)
        return _sorted_seeds(roles)

    @property
    def seeds(self) -> tuple[tuple[TypeRef, tuple[str, ...]], ...]:
        """Each seed type with its sorted roles, granted ones as
        ``granted:<rule>``; sorted by type name."""
        roles = {t: set(r) for t, r in self.base}
        for rule_id, types in self.grants:
            for t in types:
                roles.setdefault(t, set()).add(f"granted:{rule_id}")
        return _sorted_seeds(roles)


def _sorted_seeds(roles: Mapping[TypeRef, Iterable[str]]):
    kept = {t: tuple(sorted(set(r))) for t, r in roles.items() if not t.is_primitive}
    return tuple(sorted(kept.items(), key=lambda pair: pair[0].name))


def _field_types(owner: TypeRef, table: TypeTable) -> list[TypeRef]:
    """The types of the fields ``owner`` declares itself."""
    decl = table.get(owner.name)
    if decl is None:
        return []
    return [m.declared_type for m in decl.members if m.member_kind is MemberKind.FIELD]


def base_friend_set(executable: Executable, table: TypeTable) -> FriendSet:
    """Friends before any adaptation: C, declared-field types, params, news.

    Field types come from fields declared in C itself; inherited fields
    contribute nothing.  Primitive types never become friends.  Nothing is
    memoized here beyond ``table``'s closure of each type, so a caller that
    drops the set holds no memory for it.
    """
    owner = executable.owner_type
    seeds = [owner, *(t for t in _field_types(owner, table) if not t.is_primitive)]
    seeds += [t for _, t in executable.params if not t.is_primitive]
    seeds += [t for t in executable.instantiated_types if not t.is_primitive]
    return FriendSet(table, executable, table.closure_mask(seeds))


class PotentialViolation(Value):
    __slots__ = ("site", "executable_id", "receiver_type", "note")

    def __init__(
        self,
        site: AccessSite,
        executable_id: str,
        receiver_type: TypeRef,
        note: Optional[str] = None,
    ) -> None:
        self.site = site
        self.executable_id = executable_id
        self.receiver_type = receiver_type
        self.note = note


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
    if receiver_type in friends:
        return None
    for exemption in friends.member_exemptions:
        if exemption.matches(site):
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
