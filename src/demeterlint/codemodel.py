"""Types, members, and the merged type table the analysis runs against.

The model is deliberately small: a type is a named reference (declared,
primitive, array, or unknown), a declaration lists supertypes and members,
and a table maps qualified names to declarations.  Declarations come from
two origins, analyzed source and stub documents, and are merged into one
table before analysis.

Two operations carry the semantic weight.  ``closure_mask`` computes the
reflexive-transitive supertype set used for friendship checks, and
``resolve_member`` finds the member an access refers to, searching the
receiver first and then its supertypes depth-first, extends before
implements.

Closures are interned bitmasks: the table gives every type it meets one bit
and memoizes each type's closure as a Python int, so the closure of a seed
set is an OR of memoized masks and a membership test is one bit test.
``supertype_closure`` decodes the same mask into a set of references.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .records import Struct, Value

__all__ = [
    "ARRAYS",
    "DeclKind",
    "Document",
    "LoadError",
    "MemberDecl",
    "MemberKind",
    "MemberResolutionError",
    "Origin",
    "PRIMITIVES",
    "ResolutionMode",
    "TypeDecl",
    "TypeKind",
    "TypeRef",
    "TypeTable",
    "json_document",
    "load_stubs",
    "parse_type_name",
    "read_document",
]

STUB_SCHEMA = "demeterlint-stubs/1"

PRIMITIVES = frozenset(
    {"int", "boolean", "char", "byte", "short", "long", "float", "double", "void", "null"}
)

OBJECT_NAME = "java.lang.Object"


class TypeKind(Enum):
    DECLARED = "declared"
    PRIMITIVE = "primitive"
    ARRAY = "array"
    UNKNOWN = "unknown"


class TypeRef(Value):
    """A reference to a type by qualified name.

    Array references carry exactly one element reference; their name is the
    element name with a trailing ``[]``.  ``null`` is modelled as a primitive
    so the literal can be typed without ever becoming a friend or receiver.

    References are equal when name, kind and element are; the hash is the
    name's, which ``str`` caches, so a dict lookup hashes no enum member.
    """

    __slots__ = ("name", "kind", "element")

    def __init__(
        self, name: str, kind: TypeKind = TypeKind.DECLARED, element: TypeRef | None = None
    ) -> None:
        if kind is TypeKind.ARRAY and element is None:
            raise ValueError("array reference needs an element type")
        if kind is not TypeKind.ARRAY and element is not None:
            raise ValueError("only array references carry an element type")
        self.name = name
        self.kind = kind
        self.element = element

    # Written out, not the shared ``Value`` ones: a TypeRef is the key of
    # every closure and interning lookup.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TypeRef:
            return NotImplemented
        return self.name == other.name and self.kind is other.kind and self.element == other.element

    def __hash__(self) -> int:
        return hash(self.name)

    @property
    def is_primitive(self) -> bool:
        return self.kind is TypeKind.PRIMITIVE

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def __str__(self) -> str:
        return self.name


_OBJECT = TypeRef(OBJECT_NAME)


def array_of(element: TypeRef) -> TypeRef:
    return TypeRef(element.name + "[]", TypeKind.ARRAY, element)


#: Pseudo-type standing for "some array"; closures of array types include it,
#: never user code.  The angle brackets keep it out of the Java name space.
ARRAYS = TypeRef("<arrays>")


def unknown_type(name: str) -> TypeRef:
    return TypeRef(name, TypeKind.UNKNOWN)


def parse_type_name(text: str) -> TypeRef:
    """Turn a stub-document type string into a reference.

    Accepts qualified names, primitive names, and trailing ``[]`` pairs
    (``java.lang.String[]``).
    """
    text = text.strip()
    dims = 0
    while text.endswith("[]"):
        text = text[:-2].strip()
        dims += 1
    if not text:
        raise LoadError("E-STUB", "empty type name")
    if text in PRIMITIVES:
        ref = TypeRef(text, TypeKind.PRIMITIVE)
    else:
        ref = TypeRef(text)
    for _ in range(dims):
        ref = array_of(ref)
    return ref


class MemberKind(Enum):
    FIELD = "field"
    METHOD = "method"
    CONSTRUCTOR = "constructor"


class DeclKind(Enum):
    CLASS = "class"
    INTERFACE = "interface"


class Origin(Enum):
    SOURCE = "analyzed-source"
    STUB = "stub"


class MemberDecl(Value):
    """One declared field, method, or constructor.

    ``declared_type`` is the field type or method return type.  The
    resolution key is (declaring type, name, arity); fields resolve with
    arity ``None``.
    """

    __slots__ = (
        "name",
        "member_kind",
        "is_static",
        "visibility",
        "declared_type",
        "param_types",
        "declaring_type",
    )

    def __init__(
        self,
        name: str,
        member_kind: MemberKind,
        is_static: bool,
        visibility: str,
        declared_type: TypeRef,
        param_types: tuple[TypeRef, ...],
        declaring_type: str,
    ) -> None:
        self.name = name
        self.member_kind = member_kind
        self.is_static = is_static
        self.visibility = visibility
        self.declared_type = declared_type
        self.param_types = param_types
        self.declaring_type = declaring_type

    @property
    def arity(self) -> int | None:
        if self.member_kind is MemberKind.FIELD:
            return None
        return len(self.param_types)

    @property
    def is_public(self) -> bool:
        return self.visibility == "public"


class TypeDecl(Value):
    __slots__ = ("ref", "decl_kind", "supertypes", "members", "origin")

    def __init__(
        self,
        ref: TypeRef,
        decl_kind: DeclKind,
        supertypes: tuple[TypeRef, ...],
        members: tuple[MemberDecl, ...],
        origin: Origin,
    ) -> None:
        self.ref = ref
        self.decl_kind = decl_kind
        self.supertypes = supertypes
        self.members = members
        self.origin = origin

    @property
    def name(self) -> str:
        return self.ref.name

    def structurally_equal(self, other: TypeDecl) -> bool:
        """Equality ignoring origin, used to tolerate benign merges."""
        return (
            self.ref == other.ref
            and self.decl_kind == other.decl_kind
            and self.supertypes == other.supertypes
            and self.members == other.members
        )


class LoadError(Exception):
    """Raised for malformed or inconsistent stub and table input."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class MemberResolutionError(LookupError):
    def __init__(self, receiver: TypeRef, name: str, arity: int | None):
        shown = name if arity is None else f"{name}/{arity}"
        super().__init__(f"no member {shown} on {receiver.name}")
        self.receiver = receiver
        self.member_name = name
        self.arity = arity


class ResolutionMode(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


def _check_members(decl_name: str, members: Iterable[MemberDecl]) -> None:
    seen: set[tuple[str, int | None]] = set()
    for m in members:
        key = (m.name, m.arity)
        if m.member_kind is MemberKind.CONSTRUCTOR:
            key = ("<init>", m.arity)
        if key in seen:
            raise LoadError(
                "E-STUB", f"duplicate member {key[0]}/{key[1]} in {decl_name}"
            )
        seen.add(key)


def _own_member(
    decl: TypeDecl, name: str, arity: int | None, private: bool
) -> MemberDecl | None:
    """The field or method (``name``, ``arity``) that ``decl`` declares
    itself, None if none, or if it is private and ``private`` is false."""
    for m in decl.members:
        if m.name == name and m.arity == arity and m.member_kind is not MemberKind.CONSTRUCTOR:
            return m if private or m.visibility != "private" else None
    return None


class TypeTable(Struct):
    """All known type declarations, keyed by qualified name.

    Also the interning of closures: ``_bits`` gives each type met a bit
    position (``_types`` is the reverse), and ``_masks`` memoizes each type's
    closure mask until the next ``add``.  ``_members`` memoizes, the same
    way, the member each type offers its subtypes (see ``_inherited``), and
    ``_below`` the closure's steps read backwards (see ``declared_subtypes``).
    """

    __slots__ = ("_decls", "_bits", "_types", "_masks", "_members", "_below")
    _fields = ("_decls",)

    def __init__(self, _decls: dict[str, TypeDecl] | None = None) -> None:
        self._decls: dict[str, TypeDecl] = {} if _decls is None else _decls
        self._bits: dict[TypeRef, int] = {}
        self._types: list[TypeRef] = []
        self._masks: dict[TypeRef, int] = {}
        self._members: dict[tuple[str, str, int | None], MemberDecl | None] = {}
        self._below: dict[TypeRef, list[TypeRef]] | None = None

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def __iter__(self) -> Iterator[TypeDecl]:
        return iter(self._decls.values())

    def __len__(self) -> int:
        return len(self._decls)

    def get(self, name: str) -> TypeDecl | None:
        return self._decls.get(name)

    def add(self, decl: TypeDecl) -> None:
        if decl.name not in self._decls:
            _check_members(decl.name, decl.members)
        self._put(decl)

    def _put(self, decl: TypeDecl) -> None:
        """Add a declaration whose members are already checked."""
        self._masks.clear()
        self._members.clear()
        self._below = None
        existing = self._decls.get(decl.name)
        if existing is not None:
            if existing.structurally_equal(decl):
                # Prefer the analyzed declaration so merge order cannot matter.
                if existing.origin is Origin.STUB and decl.origin is Origin.SOURCE:
                    self._decls[decl.name] = decl
                return
            raise LoadError(
                "E-STUB",
                f"conflicting declarations for {decl.name} "
                f"({existing.origin.value} vs {decl.origin.value})",
            )
        self._decls[decl.name] = decl

    def merge(self, other: TypeTable) -> TypeTable:
        """A new table with the declarations of both.  Every declaration
        entered its table through ``add`` or a merge of such tables, so its
        members are checked already."""
        merged = TypeTable(dict(self._decls))
        for decl in other:
            merged._put(decl)
        return merged

    def validate(self) -> None:
        """Check supertype sanity: acyclic everywhere, resolvable for source.

        Stub declarations may name supertypes that are not in the table, and
        lenient binding types a source supertype it cannot resolve as
        unknown; such references simply close to themselves.
        """
        for decl in self:
            if decl.origin is Origin.SOURCE:
                for sup in decl.supertypes:
                    if sup.name not in self._decls and sup.kind is not TypeKind.UNKNOWN:
                        raise LoadError(
                            "E-BIND",
                            f"{decl.name}: supertype {sup.name} is not declared",
                        )
        # Depth-first over supertype edges with an explicit stack: ``trail``
        # holds the names being visited (state 1), ``pending`` each one's
        # supertypes not yet visited; finished names get state 2.  An
        # unknown type is no edge, though a declaration may share its name:
        # closures do not walk past it either.
        state: dict[str, int] = {}
        for root in self._decls:
            if root in state:
                continue
            state[root] = 1
            trail = [root]
            pending = [iter(self._supertypes_of(root))]
            while pending:
                sup = next(pending[-1], None)
                if sup is None:
                    pending.pop()
                    state[trail.pop()] = 2
                    continue
                mark = state.get(sup.name)
                if mark == 2 or sup.kind is TypeKind.UNKNOWN:
                    continue
                if mark == 1:
                    cycle = " -> ".join(trail + [sup.name])
                    raise LoadError("E-STUB", f"cyclic supertypes: {cycle}")
                state[sup.name] = 1
                trail.append(sup.name)
                pending.append(iter(self._supertypes_of(sup.name)))

    def _supertypes_of(self, name: str) -> tuple[TypeRef, ...]:
        decl = self._decls.get(name)
        return decl.supertypes if decl is not None else ()

    # -- closure ----------------------------------------------------------

    def bit(self, ref: TypeRef) -> int:
        """The bit position of ``ref``, interning it on first sight."""
        got = self._bits.get(ref)
        if got is None:
            got = self._bits[ref] = len(self._types)
            self._types.append(ref)
        return got

    def in_mask(self, mask: int, ref: TypeRef) -> bool:
        """Whether ``ref`` is in the closure ``mask``."""
        got = self._bits.get(ref)
        return got is not None and mask >> got & 1 == 1

    def closure_mask(self, seeds: Iterable[TypeRef]) -> int:
        """Reflexive-transitive supertypes of ``seeds``, as a mask.

        Seeds must already be primitive-free; callers filter.  Unknown types
        close to themselves.  An array closes to itself, its element's
        closure, and the shared array pseudo-type.  Declared types implicitly
        reach ``java.lang.Object`` even when no supertype is written.
        """
        mask = 0
        for ref in seeds:
            got = self._masks.get(ref)
            if got is None:
                if ref.is_primitive:
                    raise ValueError(f"primitive seed {ref.name} (callers must filter)")
                got = self._masks[ref] = self._close(ref)
            mask |= got
        return mask

    def _close(self, start: TypeRef) -> int:
        """The closure mask of one type, by worklist; memoized masks of
        the types it reaches are used whole."""
        mask = 0
        seen: set[TypeRef] = set()
        work = [start]
        while work:
            ref = work.pop()
            if ref in seen:
                continue
            seen.add(ref)
            done = self._masks.get(ref)
            if done is not None:
                mask |= done
                continue
            mask |= 1 << self.bit(ref)
            if ref.kind is TypeKind.ARRAY:
                mask |= 1 << self.bit(ARRAYS)
                assert ref.element is not None
                if not ref.element.is_primitive:
                    work.append(ref.element)
                continue
            if ref.kind is not TypeKind.DECLARED or ref == ARRAYS:
                continue
            decl = self._decls.get(ref.name)
            if decl is not None:
                work.extend(decl.supertypes)
            if ref.name != OBJECT_NAME:
                work.append(_OBJECT)
        return mask

    def declared_subtypes(self, target: TypeRef) -> tuple[str, ...]:
        """The names, sorted, of the declared types whose closure holds
        ``target``: those the steps of ``_close``'s walk lead from to it,
        found by walking them backwards from it."""
        if self._below is None:
            self._below = self._steps_below()
        below = self._below
        reached = {target}
        work = [target]
        while work:
            for sub in below.get(work.pop(), ()):
                if sub not in reached:
                    reached.add(sub)
                    work.append(sub)
        # Every declaration's closure holds java.lang.Object, but for one
        # named like the array pseudo-type.
        everything = _OBJECT in reached
        return tuple(
            sorted(
                decl.name
                for decl in self._decls.values()
                if decl.ref in reached or (everything and decl.ref != ARRAYS)
            )
        )

    def _steps_below(self) -> dict[TypeRef, list[TypeRef]]:
        """Each type a step of ``_close``'s walk from a declaration reaches,
        mapped to the types the step is taken from.  The steps to
        ``java.lang.Object`` are left out: every declared type takes one."""
        below: dict[TypeRef, list[TypeRef]] = {}
        arrays = []
        for decl in self._decls.values():
            if decl.ref == ARRAYS:
                continue  # the walk takes no step from the pseudo-type
            for sup in decl.supertypes:
                below.setdefault(sup, []).append(decl.ref)
                if sup.kind is TypeKind.ARRAY:
                    arrays.append(sup)
        seen: set[TypeRef] = set()
        while arrays:
            ref = arrays.pop()
            if ref in seen:
                continue
            seen.add(ref)
            below.setdefault(ARRAYS, []).append(ref)
            element = ref.element
            assert element is not None
            if not element.is_primitive:
                below.setdefault(element, []).append(ref)
                if element.kind is TypeKind.ARRAY:
                    arrays.append(element)
        return below

    def types_in(self, mask: int) -> frozenset[TypeRef]:
        """The references a closure mask holds."""
        types = self._types
        return frozenset(types[i] for i, b in enumerate(reversed(bin(mask)[2:])) if b == "1")

    def supertype_closure(self, seeds: Iterable[TypeRef]) -> frozenset[TypeRef]:
        """``closure_mask`` of ``seeds``, decoded into references."""
        return self.types_in(self.closure_mask(seeds))

    # -- member resolution -------------------------------------------------

    def resolve_member(
        self,
        receiver: TypeRef,
        name: str,
        arity: int | None,
        mode: ResolutionMode = ResolutionMode.STRICT,
    ) -> MemberDecl:
        """Find the member ``name`` with the given arity on ``receiver``.

        ``arity`` is ``None`` for fields.  The receiver is searched first,
        then its supertypes depth first in declared order, and
        ``java.lang.Object`` last.  The parser and the stub loader both keep
        the extends edge ahead of implements edges, so the declared order
        realizes extends-first.  Private members of supertypes are
        invisible.  Constructors are looked up on the receiver only; they are
        not inherited.  In lenient mode an unresolved member comes back as a
        synthetic member of unknown type instead of an error.
        """
        if receiver.kind is TypeKind.DECLARED:
            decl = self._decls.get(receiver.name)
            if name == "<init>":
                if decl is not None:
                    for m in decl.members:
                        if m.member_kind is MemberKind.CONSTRUCTOR and m.arity == arity:
                            return m
            else:
                found = None
                if decl is not None:
                    found = _own_member(decl, name, arity, private=True)
                    for sup in decl.supertypes:
                        if found is not None:
                            break
                        found = self._inherited(sup.name, name, arity)
                if found is None and receiver.name != OBJECT_NAME:
                    found = self._inherited(OBJECT_NAME, name, arity)
                if found is not None:
                    return found
        if mode is ResolutionMode.LENIENT:
            kind = MemberKind.FIELD if arity is None else MemberKind.METHOD
            return MemberDecl(
                name=name,
                member_kind=kind,
                is_static=False,
                visibility="public",
                declared_type=unknown_type(f"<unresolved:{name}>"),
                param_types=tuple(unknown_type("<arg>") for _ in range(arity or 0)),
                declaring_type=receiver.name,
            )
        raise MemberResolutionError(receiver, name, arity)

    def _inherited(self, owner: str, name: str, arity: int | None) -> MemberDecl | None:
        """The member (``name``, ``arity``) that type ``owner`` offers a
        subtype: its own unless private, else the first one its supertypes
        offer, in declared order; None for none.

        The search order is the preorder of a depth-first walk, and in a
        walk without cycles a type met again was searched in full already,
        so each answer is built from the supertypes' answers.  Answers are
        memoized per (type, name, arity) and found on an explicit stack, so
        a chain of supertypes of any length costs one step per type.  In a
        cycle of supertypes, a type being found counts as offering none.
        """
        memo = self._members
        key = (owner, name, arity)
        if key in memo:
            return memo[key]
        memo[key] = None
        stack = [owner]
        while stack:
            t = stack[-1]
            decl = self._decls.get(t)
            found = pending = None
            if decl is not None:
                found = _own_member(decl, name, arity, private=False)
                for sup in decl.supertypes:
                    if found is not None:
                        break
                    sup_key = (sup.name, name, arity)
                    if sup_key not in memo:
                        pending = sup_key
                        break
                    found = memo[sup_key]
            if pending is not None:
                memo[pending] = None
                stack.append(pending[0])
                continue
            memo[t, name, arity] = found
            stack.pop()
        return memo[key]


# -- documents ---------------------------------------------------------------


class Document(Struct):
    """A JSON document's text and the name its messages give it: the path
    it was read from, or ``<inline>``."""

    __slots__ = ("name", "text")

    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.text = text


def read_document(path: Path) -> Document:
    """The document in the file ``path``; raises ``OSError`` or
    ``UnicodeDecodeError``."""
    return Document(str(path), path.read_text(encoding="utf-8"))


def json_document(
    source: str | Path | Document, schema: str, error: Callable[[str], LoadError]
) -> tuple[str, dict]:
    """The name and parsed object of a document of ``schema``: ``source`` is
    a path, a read document, or raw JSON text (a string that begins with
    ``{``).  Whatever is wrong raises ``error(message)``."""
    if not isinstance(source, Document):
        if isinstance(source, Path) or not str(source).lstrip().startswith("{"):
            path = Path(source)
            try:
                source = read_document(path)
            except OSError as exc:
                raise error(f"cannot read {path}: {exc}") from exc
            except UnicodeDecodeError:
                raise error(f"cannot decode {path} as UTF-8") from None
        else:
            source = Document("<inline>", str(source))
    try:
        doc = json.loads(source.text)
    except json.JSONDecodeError as exc:
        raise error(f"{source.name}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{source.name}: nesting too deep to parse") from None
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise error(f"{source.name}: expected schema {schema}")
    return source.name, doc


# -- stub loading -----------------------------------------------------------


_DECL_KINDS = {k.value: k for k in DeclKind}
_MEMBER_KINDS = {k.value: k for k in MemberKind}


class _BadField(Exception):
    """A malformed stub field; the caller prefixes where it is."""


def _stub_error(message: str) -> LoadError:
    return LoadError("E-STUB", message)


class _Refs(dict):
    """A document's type names, each parsed on first use."""

    def __missing__(self, name: str) -> TypeRef:
        ref = self[name] = parse_type_name(name)
        return ref


def _stub_refs(names, key: str, refs: _Refs) -> tuple[TypeRef, ...]:
    """``names``, a stub's ``key`` field, as references."""
    if not isinstance(names, list):
        raise _BadField(f"'{key}' must be a list")
    for name in names:
        if not isinstance(name, str):
            raise _BadField(f"'{key}' must be a list of strings")
    return tuple([refs[name] for name in names])


def _stub_member(owner: str, raw, refs: _Refs) -> MemberDecl:
    if not (isinstance(raw, dict) and isinstance(raw.get("name"), str) and "kind" in raw):
        raise _stub_error(f"bad member in {owner}: needs a string 'name' and a 'kind'")
    name = raw["name"]
    value = raw["kind"]
    kind = _MEMBER_KINDS.get(value) if isinstance(value, str) else None
    if kind is None:
        raise _stub_error(f"bad member in {owner}: {value!r} is not a valid MemberKind")
    try:
        declared = raw.get("type", "void")
        if not isinstance(declared, str):
            raise _BadField("'type' must be a string")
        declared = refs[declared]
        params = ()
        if "params" in raw:
            params = _stub_refs(raw["params"], "params", refs)
        if params and kind is MemberKind.FIELD:
            raise _stub_error(f"field {owner}.{name} must not list params")
        is_static = raw.get("static", False)
        if not isinstance(is_static, bool):
            raise _BadField("'static' must be true or false")
        visibility = raw.get("visibility", "public")
        if not isinstance(visibility, str):
            raise _BadField("'visibility' must be a string")
    except _BadField as exc:
        raise _stub_error(f"{owner}.{name}: {exc}") from None
    return MemberDecl(name, kind, is_static, visibility, declared, params, owner)


def load_stubs(source: str | Path | Document) -> TypeTable:
    """Load one stub document (a path, a read document or raw JSON text)
    into a table.

    Each field is checked where it is read, in document order, and each
    distinct type-name string is parsed once per document.
    """
    origin, doc = json_document(source, STUB_SCHEMA, _stub_error)
    raw_types = doc.get("types", [])
    if not isinstance(raw_types, list):
        raise _stub_error(f"{origin}: 'types' must be a list")
    refs = _Refs()
    table = TypeTable()
    decls = table._decls
    for raw in raw_types:
        name = raw.get("name") if isinstance(raw, dict) else None
        if not name or not isinstance(name, str):
            raise _stub_error(f"{origin}: a type needs a non-empty string 'name'")
        try:
            value = raw.get("kind", "class")
            kind = _DECL_KINDS.get(value) if isinstance(value, str) else None
            if kind is None:
                raise _BadField(f"{value!r} is not a valid DeclKind")
            supers = ()
            if "supertypes" in raw:
                supers = _stub_refs(raw["supertypes"], "supertypes", refs)
            raw_members = raw.get("members", [])
            if not isinstance(raw_members, list):
                raise _BadField("'members' must be a list")
        except _BadField as exc:
            raise _stub_error(f"{origin}: {name}: {exc}") from None
        members = tuple([_stub_member(name, m, refs) for m in raw_members])
        decl = TypeDecl(TypeRef(name), kind, supers, members, Origin.STUB)
        if name in decls:
            table._put(decl)  # kept once if equal, else a conflict
        else:
            _check_members(name, members)
            decls[name] = decl
    return table
