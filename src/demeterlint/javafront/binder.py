"""Name binding and per-executable fact extraction.

Two passes, each over the type declarations the parser listed in
``unit.type_decls``.  ``build_type_table`` turns every one, under the
qualified name the parser gave it (generated ``Outer$anonN`` names
included), into a TypeDecl, and merges with the stub table.
``bind_and_extract`` then walks the executable bodies of each one, emitting
one AccessSite per syntactic member access, with receiver static type and
provenance, in token order.  Postfix chains such as ``a.b().c[i]`` and
left-nested binary chains are walked in loops, so a chain of any length
binds.

Receiver typing is static: the declared type of the receiver expression
governs, with no flow analysis.  Accesses through ``this``/``super`` are
recorded but marked by form so detection can skip them.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Sequence

from ..codemodel import (
    DeclKind,
    MemberDecl,
    MemberKind,
    MemberResolutionError,
    Origin,
    ResolutionMode,
    TypeDecl,
    TypeKind,
    TypeRef,
    TypeTable,
    array_of,
    unknown_type,
)
from ..records import Struct, Value
from . import ast
from .errors import BindError
from .lexer import line_col

__all__ = [
    "AccessSite",
    "Executable",
    "ProvStep",
    "ReceiverDesc",
    "bind_and_extract",
    "build_type_table",
]

OBJECT = TypeRef("java.lang.Object")
STRING = "java.lang.String"
STRING_REF = TypeRef(STRING)

_PRIM = {name: TypeRef(name, TypeKind.PRIMITIVE) for name in (
    "int", "boolean", "char", "byte", "short", "long", "float", "double", "void", "null"
)}

_NUMERIC_RANK = {"double": 4, "float": 3, "long": 2, "int": 1, "char": 0, "short": 0, "byte": 0}

#: The type set of an executable that has none.  Most executables create
#: nothing and downcast no parameter, so they share this one; the walker
#: gives an executable a set of its own at its first type.
_NO_TYPES: frozenset[TypeRef] = frozenset()


class ProvStep(Value):
    """One step of receiver provenance: how the value came to hand.

    ``parent`` is the step before it, None for the first.  A chain is held
    by its last step, and a chain shares the steps of the one it extends,
    so an n-link chain costs n steps, not n(n+1)/2.  A step compares and
    hashes by its own kind, label and type, not its parent's, so neither
    recurses along a chain.
    """

    __slots__ = ("kind", "label", "type", "parent")
    _fields = ("kind", "label", "type")

    def __init__(
        self, kind: str, label: str, type: TypeRef, parent: Optional[ProvStep] = None
    ) -> None:
        self.kind = kind  # parameter field local call cast new static-member literal
        self.label = label
        self.type = type
        self.parent = parent


class ReceiverDesc(Value):
    """A site's receiver: its form, its static type and the last step of
    its provenance, None for none.  It compares and hashes by its form,
    static type and whole ``chain``."""

    __slots__ = ("form", "static_type", "last")
    _fields = ("form", "static_type", "chain")

    def __init__(self, form: str, static_type: TypeRef, last: Optional[ProvStep]) -> None:
        self.form = form  # this-implicit this-explicit super outer-instance type-name expression
        self.static_type = static_type
        self.last = last

    @property
    def chain(self) -> tuple[ProvStep, ...]:
        """The provenance steps, first to last."""
        steps = []
        step = self.last
        while step is not None:
            steps.append(step)
            step = step.parent
        steps.reverse()
        return tuple(steps)


class AccessSite(Struct):
    __slots__ = (
        "site_id", "access_kind", "receiver", "member", "file", "line", "col", "arg_types"
    )

    def __init__(
        self,
        site_id: str,
        access_kind: str,
        receiver: ReceiverDesc,
        member: MemberDecl,
        file: str,
        line: int,
        col: int,
        arg_types: tuple[TypeRef, ...] = (),
    ) -> None:
        self.site_id = site_id
        # method-call field-read field-write static-member-access array-length
        self.access_kind = access_kind
        self.receiver = receiver
        self.member = member
        self.file = file
        self.line = line
        self.col = col
        self.arg_types = arg_types


class Executable(Struct):
    """One executable body and the facts bound from it.  ``params``, and
    ``body_accesses`` until the walker emits the first site, are tuples, the
    one shared ``()`` when empty: most executables hold no container of
    their own for either."""

    __slots__ = (
        "id",
        "owner_type",
        "exec_kind",
        "params",
        "instantiated_types",
        "downcast_param_types",
        "enclosing_executable",
        "body_accesses",
        "file",
        "line",
        "col",
    )

    def __init__(
        self,
        id: str,
        owner_type: TypeRef,
        exec_kind: str,
        params: tuple[tuple[str, TypeRef], ...],
        enclosing_executable: Optional[str] = None,
        file: str = "",
        line: int = 0,
        col: int = 0,
    ) -> None:
        self.id = id
        self.owner_type = owner_type
        # method constructor instance-initializer static-initializer field-initializer
        self.exec_kind = exec_kind
        self.params = params
        self.instantiated_types: AbstractSet[TypeRef] = _NO_TYPES
        self.downcast_param_types: AbstractSet[TypeRef] = _NO_TYPES
        self.enclosing_executable = enclosing_executable
        self.body_accesses: Sequence[AccessSite] = ()
        self.file = file
        self.line = line
        self.col = col

    def sort_key(self) -> tuple[str, int, int]:
        return (self.file, self.line, self.col)


# -- type names ----------------------------------------------------------------


class _UnitEnv:
    """What one compilation unit brings to resolving type names: its
    package, its imports, its top-level types and each type's enclosing
    type."""

    def __init__(self, unit: ast.CompilationUnit):
        self.unit = unit
        self.package = unit.package or ""
        self.single: dict[str, str] = {}
        self.on_demand: list[str] = []
        for imp in unit.imports:
            if imp.on_demand:
                self.on_demand.append(imp.name)
            else:
                self.single[imp.name.rsplit(".", 1)[-1]] = imp.name
        self.outer = {n.qualified_name: n.outer for n in unit.type_decls}
        self.top = {n.name: n.qualified_name for n in unit.types}

    def error(self, pos: int, message: str) -> BindError:
        """An error at offset ``pos`` of this unit."""
        return BindError(self.unit.file, *line_col(self.unit.line_starts, pos), message)


class _Names:
    """Type-name resolution for the compilation units of one project.

    A simple name resolves in Java's order (JLS 2nd ed. §6.3, §7.5.1):
    first to a member type of ``scope``, the type whose text holds the
    name, declared there or inherited, then to one of each enclosing type
    outward; then to a top-level type of the unit, a single-type import, a
    type of the unit's package, an on-demand import (ambiguity is an
    error) and, last, a type of java.lang, which unlike in javac takes no
    part in the ambiguity check.

    ``universe`` holds the stub types and the top-level source types, which
    a qualified name, an on-demand import, the package and java.lang reach;
    a single-type import names any type but a member or anonymous one.
    Those, ``inner``, are reached by the scope chain alone, by enclosing type
    and simple name, never by the ``Outer$Inner`` name they were given.

    A type's supertypes resolve when first asked for, from the scope that
    holds its declaration in ``decls``, so the order of the files does not
    matter.  Given ``table``, the resolver takes them from the table's
    declarations instead and keeps no declaration, so it holds no unit.
    """

    def __init__(
        self,
        envs: list[_UnitEnv],
        universe: set[str],
        mode: ResolutionMode,
        table: Optional[TypeTable] = None,
    ):
        self.mode = mode
        # Each source type's first declaration, with its unit.
        decls: dict[str, tuple[ast.TypeDeclNode, _UnitEnv]] = {}
        for env in envs:
            for n in env.unit.type_decls:
                decls.setdefault(n.qualified_name, (n, env))
        self.inner = {q for q, (n, _) in decls.items() if n.outer}
        self.universe = universe - self.inner
        # The named member types by (enclosing type, simple name), and
        # their simple names: no other name needs the scope chain.
        self.nested = {(n.outer, n.name): q for q, (n, _) in decls.items() if n.outer and n.name}
        self.member_names = {name for _, name in self.nested}
        # Supertypes by type; member types by (type, name), None for none
        # and while being found.
        self.supers: dict[str, tuple[TypeRef, ...]] = {}
        self.members: dict[tuple[str, str], Optional[str]] = {}
        if table is None:
            self.decls = decls
        else:
            self.decls = {}
            self.supers = {q: table.get(q).supertypes for q in decls}
        # One reference per resolved type name.
        self.refs: dict[str, TypeRef] = {}

    def ref(self, q: str) -> TypeRef:
        """The one reference to declared type ``q``."""
        got = self.refs.get(q)
        if got is None:
            got = self.refs[q] = TypeRef(q)
        return got

    def resolve(
        self, env: _UnitEnv, tn: ast.TypeName, scope: Optional[str], extra_dims: int = 0
    ) -> TypeRef:
        """The type ``tn`` names in ``scope`` of ``env``'s unit."""
        name = tn.name
        if name in _PRIM:
            ref = _PRIM[name]
        else:
            if "." in name:
                q = name if name in self.universe else None
            else:
                q = self.resolve_simple(env, name, tn.pos, scope)
            if q is not None:
                ref = self.ref(q)
            elif self.mode is ResolutionMode.LENIENT:
                ref = unknown_type(name)
            else:
                raise env.error(tn.pos, f"unknown type '{name}'")
        for _ in range(tn.dims + extra_dims):
            ref = array_of(ref)
        return ref

    def resolve_simple(
        self, env: _UnitEnv, name: str, pos: int, scope: Optional[str]
    ) -> Optional[str]:
        """The type simple ``name`` means in ``scope``, None if none; an
        ambiguous name is an error at ``pos``."""
        if name in self.member_names:
            while scope is not None:
                q = self.member_type(scope, name)
                if q is not None:
                    return q
                scope = env.outer[scope]
        if name in env.top:
            return env.top[name]
        if name in env.single:
            q = env.single[name]
            return None if q in self.inner else q
        q = f"{env.package}.{name}" if env.package else name
        if q in self.universe:
            return q
        matches = []
        for pkg in env.on_demand:
            q = f"{pkg}.{name}"
            if q in self.universe and q not in matches:
                matches.append(q)
        if len(matches) > 1:
            raise env.error(pos, f"ambiguous type name '{name}': {' vs '.join(matches)}")
        if matches:
            return matches[0]
        q = f"java.lang.{name}"
        return q if q in self.universe else None

    def supertypes(self, name: str) -> tuple[TypeRef, ...]:
        """The supertypes of source type ``name``, resolved once; () for any
        other type.  They are named in its enclosing type, as top-level types
        or member types of an enclosing type or its supertypes, so no type
        has a supertype nested deeper than itself, and this asks only for the
        supertypes of types nested less deep than ``name``, never its own
        again.  ``TypeTable.validate`` rejects a cycle of supertypes."""
        supers = self.supers.get(name)
        if supers is None:
            if name not in self.decls:
                return ()
            node, env = self.decls[name]
            written = [node.anon_supertype] if node.anonymous else node.extends + node.implements
            supers = self.supers[name] = tuple(
                self.supertype(env, tn, node.outer) for tn in written
            )
        return supers

    def supertype(self, env: _UnitEnv, tn: ast.TypeName, scope: Optional[str]) -> TypeRef:
        """The supertype ``tn`` names in ``scope``.  A single-type import is
        taken as given, so the class type it names may be declared nowhere:
        that is an error at ``tn``, or an unknown type when lenient, as an
        unresolved name is."""
        ref = self.resolve(env, tn, scope)
        declared = ref.name in self.universe or ref.name in self.inner
        if declared or ref.kind is not TypeKind.DECLARED:
            return ref
        if self.mode is ResolutionMode.LENIENT:
            return unknown_type(ref.name)
        raise env.error(tn.pos, f"supertype {ref.name} is not declared")

    def member_type(self, owner: str, name: str) -> Optional[str]:
        """The member type ``name`` of ``owner``: its own, else the nearest
        one it inherits, each supertype's own before those that supertype
        inherits.

        Each answer is memoized per (type, name) and built from the
        supertypes' answers, found depth first on an explicit stack, so a
        chain of supertypes of any length costs one step per type.  In a
        cycle of supertypes, a type being found counts as having none.
        """
        memo = self.members
        if (owner, name) in memo:
            return memo[owner, name]
        memo[owner, name] = None
        stack = [owner]
        while stack:
            t = stack[-1]
            found = self.nested.get((t, name))
            if found is None:
                pending = None
                for sup in self.supertypes(t):
                    if (sup.name, name) not in memo:
                        pending = sup.name
                        break
                    found = memo[sup.name, name]
                    if found is not None:
                        break
                if pending is not None:
                    memo[pending, name] = None
                    stack.append(pending)
                    continue
            memo[t, name] = found
            stack.pop()
        return memo[owner, name]

    def is_name_prefix(self, prefix: str) -> bool:
        dotted = prefix + "."
        return any(n.startswith(dotted) for n in self.universe)


# -- table construction -------------------------------------------------------


def _visibility(modifiers: tuple[str, ...]) -> str:
    for v in ("public", "protected", "private"):
        if v in modifiers:
            return v
    return "package"


def build_type_table(
    units: list[ast.CompilationUnit],
    stubs: TypeTable,
    mode: ResolutionMode = ResolutionMode.STRICT,
) -> TypeTable:
    """Declare every source type the parser listed, merge with stubs.

    A type declared twice among the sources is an error at its second
    declaration, even when both declarations are the same text.
    """
    universe: set[str] = {d.name for d in stubs}
    for unit in units:
        universe.update(n.qualified_name for n in unit.types)

    envs = [_UnitEnv(unit) for unit in units]
    names = _Names(envs, universe, mode)
    source = TypeTable()
    for env in envs:
        try:
            for node in env.unit.type_decls:
                if node.qualified_name in source:
                    raise env.error(node.pos, f"duplicate type {node.qualified_name}")
                supers = names.supertypes(node.qualified_name)
                source.add(_declare(node, supers, names, env))
        except RecursionError:
            raise _too_deep(env.unit) from None
    merged = stubs.merge(source)
    merged.validate()
    return merged


def _too_deep(unit: ast.CompilationUnit) -> BindError:
    """A unit whose expressions, or member types and their supertypes, nest
    deeper than the binder's recursive walks reach; the parser's reach more."""
    return BindError(unit.file, 1, 1, "nesting too deep to analyze")


def _declare(
    node: ast.TypeDeclNode, supers: tuple[TypeRef, ...], names: _Names, env: _UnitEnv
) -> TypeDecl:
    assert node.qualified_name is not None
    owner = node.qualified_name
    members: list[MemberDecl] = []
    is_interface = node.kind == "interface"
    for m in node.members:
        if isinstance(m, ast.FieldDecl):
            base = m.type
            for d in m.declarators:
                members.append(
                    MemberDecl(
                        name=d.name,
                        member_kind=MemberKind.FIELD,
                        is_static="static" in m.modifiers or is_interface,
                        visibility="public" if is_interface else _visibility(m.modifiers),
                        declared_type=names.resolve(env, base, owner, d.extra_dims),
                        param_types=(),
                        declaring_type=owner,
                    )
                )
        elif isinstance(m, ast.MethodDecl):
            params = tuple(
                names.resolve(env, p.type, owner, p.extra_dims)
                for p in m.params
            )
            if m.is_ctor:
                members.append(
                    MemberDecl(
                        name="<init>",
                        member_kind=MemberKind.CONSTRUCTOR,
                        is_static=False,
                        visibility=_visibility(m.modifiers),
                        declared_type=TypeRef(owner),
                        param_types=params,
                        declaring_type=owner,
                    )
                )
            else:
                assert m.ret is not None
                members.append(
                    MemberDecl(
                        name=m.name,
                        member_kind=MemberKind.METHOD,
                        is_static="static" in m.modifiers,
                        visibility="public" if is_interface else _visibility(m.modifiers),
                        declared_type=names.resolve(env, m.ret, owner),
                        param_types=params,
                        declaring_type=owner,
                    )
                )
    return TypeDecl(
        ref=TypeRef(owner),
        decl_kind=DeclKind.INTERFACE if is_interface else DeclKind.CLASS,
        supertypes=supers,
        members=tuple(members),
        origin=Origin.SOURCE,
    )


# -- extraction ----------------------------------------------------------------


def bind_and_extract(
    units: list[ast.CompilationUnit],
    table: TypeTable,
    mode: ResolutionMode = ResolutionMode.STRICT,
) -> list[Executable]:
    """Extract every executable with its access sites, sorted by position.

    Consumes ``units``: the list is empty on return.  Each unit's tree is
    dropped as soon as it is bound, and source supertypes come from
    ``table``, which ``build_type_table`` resolved them into, so no tree
    outlives its own bind.
    """
    envs = [_UnitEnv(unit) for unit in units]
    units.clear()
    names = _Names(envs, {d.name for d in table}, mode, table)
    envs.reverse()
    out: list[Executable] = []
    while envs:
        out.extend(_extract_unit(names, envs.pop(), table))
    out.sort(key=Executable.sort_key)
    return out


def _extract_unit(names: _Names, env: _UnitEnv, table: TypeTable) -> list[Executable]:
    """The executables of one unit; nothing here outlives the call but them."""
    extractor = _Extractor(names, env, table)
    try:
        for node in env.unit.type_decls:
            extractor.extract_type(node)
    except RecursionError:
        raise _too_deep(env.unit) from None
    return extractor.executables


class _Value(Struct):
    """What visiting an expression yields for receiver purposes: its type,
    the last step of its provenance, its form and, for a name prefix, its
    text."""

    __slots__ = ("type", "last", "form", "label")

    def __init__(
        self, type: TypeRef, last: Optional[ProvStep], form: str, label: str = ""
    ) -> None:
        self.type = type
        self.last = last
        self.form = form  # expression | this-explicit | type-name | name-prefix
        self.label = label  # dotted prefix text for name-prefix values


class _Extractor:
    def __init__(self, names: _Names, env: _UnitEnv, table: TypeTable):
        self.names = names
        self.env = env
        self.table = table
        self.mode = names.mode
        self.executables: list[Executable] = []
        self.file = env.unit.file
        self.line_starts = env.unit.line_starts
        # The id of the executable that creates each anonymous body.
        self.creators: dict[str, str] = {}

    def extract_type(self, node: ast.TypeDeclNode) -> None:
        """Extract the executables declared directly in ``node``.

        The parser lists a type after the type whose body holds it, so the
        executable that creates an anonymous body has been walked already.
        """
        assert node.qualified_name is not None
        owner = self.names.ref(node.qualified_name)
        instances = [owner]
        outer = node.outer
        while outer is not None:
            instances.append(self.names.ref(outer))
            outer = self.env.outer[outer]
        creator = self.creators.get(owner.name)
        init_blocks = 0
        static_blocks = 0
        for m in node.members:
            if isinstance(m, ast.FieldDecl):
                for d in m.declarators:
                    if d.init is None:
                        continue
                    ex = self._new_executable(
                        f"{owner.name}#<field:{d.name}>",
                        owner, "field-initializer", (), d.pos, creator,
                    )
                    _BodyWalker(self, ex, instances).visit_expr_or_init(d.init)
            elif isinstance(m, ast.InitBlock):
                if m.static:
                    static_blocks += 1
                    ident = f"{owner.name}#<clinit>[{static_blocks}]"
                    kind = "static-initializer"
                else:
                    init_blocks += 1
                    ident = f"{owner.name}#<init-block>[{init_blocks}]"
                    kind = "instance-initializer"
                ex = self._new_executable(ident, owner, kind, (), m.pos, creator)
                _BodyWalker(self, ex, instances).visit_stmt(m.body)
            elif isinstance(m, ast.MethodDecl) and m.body is not None:
                sig = ",".join(p.written_type for p in m.params)
                name = "<init>" if m.is_ctor else m.name
                params = tuple(
                    (p.name, self.names.resolve(self.env, p.type, owner.name, p.extra_dims))
                    for p in m.params
                )
                ex = self._new_executable(
                    f"{owner.name}#{name}({sig})",
                    owner,
                    "constructor" if m.is_ctor else "method",
                    params,
                    m.pos,
                    creator,
                )
                _BodyWalker(self, ex, instances).visit_stmt(m.body)

    def _new_executable(
        self,
        ident: str,
        owner: TypeRef,
        kind: str,
        params: tuple[tuple[str, TypeRef], ...],
        pos: int,
        enclosing_exec: Optional[str],
    ) -> Executable:
        line, col = line_col(self.line_starts, pos)
        ex = Executable(
            id=ident,
            owner_type=owner,
            exec_kind=kind,
            params=params,
            enclosing_executable=enclosing_exec,
            file=self.file,
            line=line,
            col=col,
        )
        self.executables.append(ex)
        return ex


#: The postfix forms a chain is made of; a call with no target ends one.
_LINKS = (ast.FieldAccess, ast.MethodCall, ast.ArrayAccess)


class _BodyWalker:
    """Walks one executable body, emitting sites in token order."""

    def __init__(self, extractor: _Extractor, ex: Executable, instances: list[TypeRef]):
        self.x = extractor
        self.ex = ex
        self.owner = instances[0]
        # The owner, then each enclosing type outward: the instances an
        # unqualified member name may belong to, in lookup order.
        self.instances = instances
        self.scopes: list[dict[str, TypeRef]] = []
        self.ordinal = 0

    # -- helpers ------------------------------------------------------------

    def err(self, pos: int, message: str) -> BindError:
        return self.x.env.error(pos, message)

    def type_of(self, tn: ast.TypeName, extra_dims: int = 0) -> TypeRef:
        """The type ``tn`` names in the owner's scope."""
        return self.x.names.resolve(self.x.env, tn, self.owner.name, extra_dims)

    def member_or_err(
        self, receiver: TypeRef, name: str, arity: int | None, pos: int
    ) -> MemberDecl:
        if receiver.kind is TypeKind.PRIMITIVE:
            raise self.err(pos, f"member access on primitive type '{receiver.name}'")
        if receiver.kind is TypeKind.ARRAY:
            receiver = OBJECT  # arrays expose only Object members beyond length
        try:
            return self.x.table.resolve_member(receiver, name, arity, self.x.mode)
        except MemberResolutionError:
            shown = name if arity is None else f"{name}({arity} args)"
            raise self.err(pos, f"no member {shown} on type {receiver.name}") from None

    def emit(
        self,
        access_kind: str,
        receiver: ReceiverDesc,
        member: MemberDecl,
        pos: int,
    ) -> AccessSite:
        self.ordinal += 1
        line, col = line_col(self.x.line_starts, pos)
        site = AccessSite(
            site_id=f"{self.ex.id}@{self.ordinal:04d}",
            access_kind=access_kind,
            receiver=receiver,
            member=member,
            file=self.x.file,
            line=line,
            col=col,
        )
        if self.ex.body_accesses:
            self.ex.body_accesses.append(site)
        else:
            self.ex.body_accesses = [site]
        return site

    def lookup_param(self, name: str) -> TypeRef | None:
        for pname, ptype in self.ex.params:
            if pname == name:
                return ptype
        return None

    def implicit_member(
        self, name: str, arity: int | None, access_kind: str, pos: int
    ) -> AccessSite | None:
        """Emit the site of an unqualified member on the first instance
        that has it: this one, then each enclosing one outward."""
        form = "this-implicit"
        for t in self.instances:
            try:
                member = self.x.table.resolve_member(t, name, arity, ResolutionMode.STRICT)
            except MemberResolutionError:
                form = "outer-instance"
                continue
            return self.emit(access_kind, ReceiverDesc(form, t, None), member, pos)
        return None

    def variable(self, name: str, pos: int, access_kind: str) -> _Value | None:
        """A simple name as a local, then a parameter, then an implicit
        field, whose ``access_kind`` site it emits; None if it is none."""
        for scope in reversed(self.scopes):
            if name in scope:
                t = scope[name]
                return _Value(t, ProvStep("local", name, t), "expression")
        t = self.lookup_param(name)
        if t is not None:
            return _Value(t, ProvStep("parameter", name, t), "expression")
        site = self.implicit_member(name, None, access_kind, pos)
        if site is None:
            return None
        t = site.member.declared_type
        return _Value(t, ProvStep("field", name, t), "expression")

    def unresolved(self, name: str, pos: int) -> _Value:
        """A name that resolves to nothing: an unknown value when lenient."""
        if self.x.mode is ResolutionMode.LENIENT:
            t = unknown_type(name)
            return _Value(t, ProvStep("local", name, t), "expression")
        raise self.err(pos, f"cannot resolve name '{name}'")

    def name_prefix(self, label: str, pos: int) -> _Value:
        """``label`` as the start of a longer qualified type name, if any
        known type's name starts with it; else an unresolved name."""
        if self.x.names.is_name_prefix(label):
            return _Value(OBJECT, None, "name-prefix", label=label)
        return self.unresolved(label, pos)

    def direct_superclass(self) -> TypeRef:
        decl = self.x.table.get(self.owner.name)
        if decl is not None:
            for sup in decl.supertypes:
                sup_decl = self.x.table.get(sup.name)
                if sup_decl is None or sup_decl.decl_kind is DeclKind.CLASS:
                    return sup
        return OBJECT

    # -- statements ----------------------------------------------------------

    def visit_stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            self.scopes.append({})
            for inner in s.stmts:
                self.visit_stmt(inner)
            self.scopes.pop()
        elif isinstance(s, ast.LocalDecl):
            self.visit_local_decl(s)
        elif isinstance(s, ast.ExprStmt):
            self.visit_expr(s.expr)
        elif isinstance(s, ast.IfStmt):
            # An else-if chain nests as deep as it is long: walk it in a loop.
            while isinstance(s, ast.IfStmt):
                self.visit_expr(s.cond)
                self.visit_stmt(s.then)
                s = s.other
            if s is not None:
                self.visit_stmt(s)
        elif isinstance(s, ast.WhileStmt):
            self.visit_expr(s.cond)
            self.visit_stmt(s.body)
        elif isinstance(s, ast.ForStmt):
            self.scopes.append({})
            if isinstance(s.init, ast.LocalDecl):
                self.visit_local_decl(s.init)
            elif isinstance(s.init, tuple):
                for e in s.init:
                    self.visit_expr(e)
            if s.cond is not None:
                self.visit_expr(s.cond)
            for e in s.update:
                self.visit_expr(e)
            self.visit_stmt(s.body)
            self.scopes.pop()
        elif isinstance(s, ast.SwitchStmt):
            self.visit_expr(s.selector)
            self.scopes.append({})
            for g in s.groups:
                for label in g.labels:
                    if label is not None:
                        self.visit_expr(label)
                for inner in g.stmts:
                    self.visit_stmt(inner)
            self.scopes.pop()
        elif isinstance(s, ast.ReturnStmt):
            if s.value is not None:
                self.visit_expr(s.value)
        elif isinstance(s, ast.TryStmt):
            self.visit_stmt(s.body)
            for c in s.catches:
                # Caught variables count as parameters of this executable.
                self.ex.params += ((c.param.name, self.type_of(c.param.type)),)
                self.visit_stmt(c.body)
            if s.final is not None:
                self.visit_stmt(s.final)
        elif isinstance(s, (ast.BreakStmt, ast.ContinueStmt, ast.EmptyStmt)):
            pass
        else:  # pragma: no cover - parser produces no other statements
            raise AssertionError(f"unhandled statement {type(s).__name__}")

    def visit_local_decl(self, s: ast.LocalDecl) -> None:
        # A block, a switch body or a for header holds it, and opened a scope.
        for d in s.declarators:
            if d.init is not None:
                self.visit_expr_or_init(d.init)
            self.scopes[-1][d.name] = self.type_of(s.type, d.extra_dims)

    def visit_expr_or_init(self, e) -> None:
        if isinstance(e, ast.ArrayInit):
            for item in e.items:
                self.visit_expr_or_init(item)
        else:
            self.visit_expr(e)

    # -- expressions -----------------------------------------------------------

    def visit_expr(self, e: ast.Expr) -> _Value:
        method = getattr(self, "_visit_" + type(e).__name__, None)
        if method is None:  # pragma: no cover - parser produces no other nodes
            raise AssertionError(f"unhandled expression {type(e).__name__}")
        return method(e)

    def _visit_Literal(self, e: ast.Literal) -> _Value:
        if e.kind == "string":
            t: TypeRef = STRING_REF
        elif e.kind == "boolean":
            t = _PRIM["boolean"]
        elif e.kind == "null":
            t = _PRIM["null"]
        else:
            t = _PRIM[e.kind]
        return _Value(t, ProvStep("literal", e.text, t), "expression")

    def _visit_ThisExpr(self, e: ast.ThisExpr) -> _Value:
        return _Value(self.owner, None, "this-explicit")

    def _visit_Paren(self, e: ast.Paren) -> _Value:
        return self.visit_expr(e.expr)

    def _visit_NameExpr(self, e: ast.NameExpr) -> _Value:
        v = self.variable(e.name, e.pos, "field-read")
        if v is not None:
            return v
        resolved = self.x.names.resolve_simple(self.x.env, e.name, e.pos, self.owner.name)
        if resolved is not None:
            return _Value(self.x.names.ref(resolved), None, "type-name")
        return self.name_prefix(e.name, e.pos)

    def _visit_chain(self, e: ast.Expr) -> _Value:
        # The parser nests a postfix chain like a.b().c[i] to the left, as
        # deep as the chain is long, so peel it in a loop, not by recursion:
        # visit the innermost operand, then apply each link in order.
        links = []
        while isinstance(e, _LINKS) and e.target is not None:
            links.append(e)
            e = e.target
        v = self.implicit_call(e) if isinstance(e, ast.MethodCall) else self.visit_expr(e)
        for link in reversed(links):
            v = self.link(v, link, "field-read")
        return v

    _visit_FieldAccess = _visit_MethodCall = _visit_ArrayAccess = _visit_chain

    def implicit_call(self, e: ast.MethodCall) -> _Value:
        """A call with no target: emit its site, then visit its arguments."""
        arity = len(e.args)
        site = self.implicit_member(e.name, arity, "method-call", e.pos)
        if site is None:
            if self.x.mode is not ResolutionMode.LENIENT:
                raise self.err(e.pos, f"cannot resolve method '{e.name}' ({arity} args)")
            member = self.x.table.resolve_member(self.owner, e.name, arity, ResolutionMode.LENIENT)
            recv = ReceiverDesc("this-implicit", self.owner, None)
            site = self.emit("method-call", recv, member, e.pos)
        site.arg_types = tuple(self.visit_expr(a).type for a in e.args)
        t = site.member.declared_type
        return _Value(t, ProvStep("call", e.name, t), "expression")

    def link(self, v: _Value, e: ast.Expr, access_kind: str) -> _Value:
        """Apply one postfix link to ``v``: an index, or a member that is
        called, or read or written as ``access_kind`` says.  A member link
        emits its site, then visits its arguments."""
        if isinstance(e, ast.ArrayAccess):
            self.visit_expr(e.index)
            if v.type.kind is TypeKind.ARRAY:
                assert v.type.element is not None
                return _Value(v.type.element, v.last, "expression")
            if v.type.kind is TypeKind.UNKNOWN or self.x.mode is ResolutionMode.LENIENT:
                return _Value(unknown_type(f"{v.type.name}[?]"), v.last, "expression")
            raise self.err(e.pos, f"array access on non-array type {v.type.name}")
        name, pos = e.name, e.pos
        call = isinstance(e, ast.MethodCall)
        if call:
            access_kind = "method-call"
        if v.form == "name-prefix":
            if access_kind == "field-read":
                extended = f"{v.label}.{name}"
                if extended in self.x.names.universe:
                    return _Value(self.x.names.ref(extended), None, "type-name")
                return self.name_prefix(extended, pos)
            v = self.unresolved(v.label, pos)
        form = "this-explicit" if v.form == "this-explicit" else "expression"
        if access_kind == "field-read" and name == "length" and v.type.kind is TypeKind.ARRAY:
            t = _PRIM["int"]
            member = MemberDecl(
                name="length",
                member_kind=MemberKind.FIELD,
                is_static=False,
                visibility="public",
                declared_type=t,
                param_types=(),
                declaring_type=v.type.name,
            )
            self.emit("array-length", ReceiverDesc(form, v.type, v.last), member, pos)
            return _Value(t, ProvStep("field", "length", t), "expression")
        member = self.member_or_err(v.type, name, len(e.args) if call else None, pos)
        step = "call" if call else "field"
        if v.form == "type-name":
            # A written static field keeps the step of a field.
            if access_kind != "field-write":
                step = "static-member"
            access_kind, form = "static-member-access", "type-name"
        site = self.emit(access_kind, ReceiverDesc(form, v.type, v.last), member, pos)
        if call:
            site.arg_types = tuple(self.visit_expr(a).type for a in e.args)
        t = member.declared_type
        return _Value(t, ProvStep(step, name, t, v.last), "expression")

    def _visit_SuperMember(self, e: ast.SuperMember) -> _Value:
        sup = self.direct_superclass()
        arity = None if e.args is None else len(e.args)
        member = self.member_or_err(sup, e.name, arity, e.pos)
        kind = "field-read" if e.args is None else "method-call"
        site = self.emit(kind, ReceiverDesc("super", sup, None), member, e.pos)
        if e.args is not None:
            site.arg_types = tuple(self.visit_expr(a).type for a in e.args)
            return _Value(
                member.declared_type,
                ProvStep("call", e.name, member.declared_type),
                "expression",
            )
        return _Value(
            member.declared_type,
            ProvStep("field", e.name, member.declared_type),
            "expression",
        )

    def _visit_SuperCtorCall(self, e: ast.SuperCtorCall) -> _Value:
        for a in e.args:
            self.visit_expr(a)
        return _Value(_PRIM["void"], None, "expression")

    def _visit_ThisCtorCall(self, e: ast.ThisCtorCall) -> _Value:
        for a in e.args:
            self.visit_expr(a)
        return _Value(_PRIM["void"], None, "expression")

    def _visit_Cast(self, e: ast.Cast) -> _Value:
        v = self.visit_expr(e.expr)
        t = self.type_of(e.type)
        if isinstance(e.expr, ast.NameExpr) and self.lookup_param(e.expr.name) is not None:
            if not t.is_primitive:
                if self.ex.downcast_param_types is _NO_TYPES:
                    self.ex.downcast_param_types = set()
                self.ex.downcast_param_types.add(t)
        return _Value(t, ProvStep("cast", t.name, t, v.last), "expression")

    def _visit_NewObject(self, e: ast.NewObject) -> _Value:
        if e.body is not None:
            assert e.body.qualified_name is not None
            t = self.x.names.ref(e.body.qualified_name)
            self.x.creators[t.name] = self.ex.id
        else:
            t = self.type_of(e.type)
        if not t.is_primitive:
            if self.ex.instantiated_types is _NO_TYPES:
                self.ex.instantiated_types = set()
            self.ex.instantiated_types.add(t)
        for a in e.args:
            self.visit_expr(a)
        return _Value(t, ProvStep("new", t.name, t), "expression")

    def _visit_NewArray(self, e: ast.NewArray) -> _Value:
        elem = self.type_of(e.element)
        t = elem
        for _ in e.dim_exprs:
            t = array_of(t)
        for d in e.dim_exprs:
            if d is not None:
                self.visit_expr(d)
        if e.init is not None:
            self.visit_expr_or_init(e.init)
        return _Value(t, ProvStep("new", t.name, t), "expression")

    def _visit_Unary(self, e: ast.Unary) -> _Value:
        if e.op in ("++", "--"):
            return self._write_target(e.expr)
        v = self.visit_expr(e.expr)
        # The parser builds a Unary only for + - ! ~ ++ --.
        t = _PRIM["boolean"] if e.op == "!" else _promote_unary(v.type)
        return _Value(t, ProvStep("literal", e.op, t), "expression")

    def _visit_Binary(self, e: ast.Binary) -> _Value:
        # The parser nests a chain like a + b + c to the left, as deep as the
        # chain is long, so walk the left spine in a loop, not by recursion.
        spine = []
        while isinstance(e, ast.Binary):
            spine.append(e)
            e = e.left
        t = self.visit_expr(e).type
        for node in reversed(spine):
            t = _binary_type(node.op, t, self.visit_expr(node.right).type)
        return _Value(t, ProvStep("literal", spine[0].op, t), "expression")

    def _visit_InstanceOf(self, e: ast.InstanceOf) -> _Value:
        self.visit_expr(e.expr)
        self.type_of(e.type)
        t = _PRIM["boolean"]
        return _Value(t, ProvStep("literal", "instanceof", t), "expression")

    def _visit_Conditional(self, e: ast.Conditional) -> _Value:
        self.visit_expr(e.cond)
        then = self.visit_expr(e.then)
        self.visit_expr(e.other)
        # Documented simplification: the conditional types as its then-branch.
        return _Value(then.type, then.last, "expression")

    def _visit_Assign(self, e: ast.Assign) -> _Value:
        v = self._write_target(e.target)
        self.visit_expr(e.value)
        return v

    def _write_target(self, target: ast.Expr) -> _Value:
        """Visit an assignment or increment target, emitting one write site
        for a field; any other target is visited as a read."""
        while isinstance(target, ast.Paren):
            target = target.expr
        if isinstance(target, ast.NameExpr):
            v = self.variable(target.name, target.pos, "field-write")
            if v is None:
                v = self.unresolved(target.name, target.pos)
        elif isinstance(target, ast.FieldAccess):
            v = self.link(self.visit_expr(target.target), target, "field-write")
        else:
            v = self.visit_expr(target)
        return _Value(v.type, v.last, "expression")



def _promote_unary(t: TypeRef) -> TypeRef:
    if t.kind is TypeKind.PRIMITIVE and t.name in _NUMERIC_RANK:
        return _PRIM[t.name] if _NUMERIC_RANK[t.name] >= 1 else _PRIM["int"]
    if t.kind is TypeKind.UNKNOWN:
        return t
    return _PRIM["int"]


def _binary_type(op: str, left: TypeRef, right: TypeRef) -> TypeRef:
    if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
        return _PRIM["boolean"]
    if op == "+" and (left.name == STRING or right.name == STRING):
        return STRING_REF
    if op in ("&", "|", "^") and left.name == "boolean" and right.name == "boolean":
        return _PRIM["boolean"]
    if op in ("<<", ">>", ">>>"):
        return _promote_unary(left)
    if left.kind is TypeKind.UNKNOWN:
        return left
    if right.kind is TypeKind.UNKNOWN:
        return right
    lrank = _NUMERIC_RANK.get(left.name, 0) if left.is_primitive else 0
    rrank = _NUMERIC_RANK.get(right.name, 0) if right.is_primitive else 0
    # byte, short and char promote to int at least
    return _PRIM[("int", "long", "float", "double")[max(lrank, rrank, 1) - 1]]
