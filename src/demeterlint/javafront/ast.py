"""Syntax nodes for the analyzed dialect.

Nodes are plain classes with ``__slots__`` and a written-out ``__init__``
taking the fields in order; the parser gives type declarations their
qualified names (``qualified_name``), including generated names for
anonymous classes.  Slots keep the per-node memory small, since an analysis
holds every unit's tree at once until the declare (``build_type_table``)
ends; a node takes no attribute beyond its fields.  The declare drops from
each type's node what only it reads, as the field comments below say, and
the bind (``bind_and_extract``) drops each unit's tree once it is bound.
Nodes compare by identity.  A node's position is ``pos``, the character
offset of its first token in the unit's text, an int rather than an
object; ``lexer.line_col`` decodes it against the unit's ``line_starts``
where a line and column are shown.  No method is generated at import time,
so importing this module costs a per-file invocation next to nothing.

Every sequence a node holds is a tuple, finished when the node is built;
an empty one is the shared ``()``.  Most sequences of a tree are short or
empty, and a tuple is smaller than a list and needs no spare capacity.
"""

from __future__ import annotations

from typing import Optional, Union

from ..records import Struct

__all__ = [
    "ArrayAccess",
    "ArrayInit",
    "Assign",
    "Binary",
    "Block",
    "BreakStmt",
    "Cast",
    "CatchClause",
    "CompilationUnit",
    "Conditional",
    "ContinueStmt",
    "Declarator",
    "EmptyStmt",
    "Expr",
    "ExprStmt",
    "FieldAccess",
    "FieldDecl",
    "ForStmt",
    "IfStmt",
    "ImportDecl",
    "InitBlock",
    "InstanceOf",
    "Literal",
    "LocalDecl",
    "MethodCall",
    "MethodDecl",
    "NameExpr",
    "NewArray",
    "NewObject",
    "Param",
    "Paren",
    "ReturnStmt",
    "Stmt",
    "SuperCtorCall",
    "SuperMember",
    "SwitchGroup",
    "SwitchStmt",
    "ThisCtorCall",
    "ThisExpr",
    "TryStmt",
    "TypeDeclNode",
    "TypeName",
    "Unary",
    "WhileStmt",
]


class TypeName(Struct):
    """A type as written: dotted name plus array dimensions."""

    __slots__ = ("name", "dims", "pos")

    def __init__(self, name: str, dims: int, pos: int) -> None:
        self.name = name
        self.dims = dims
        self.pos = pos

    @property
    def written(self) -> str:
        return self.name + "[]" * self.dims


# -- expressions -------------------------------------------------------------


class Literal(Struct):
    """A literal; ``kind`` names its type and ``text`` is as written."""

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind  # int long float double char string boolean null
        self.text = text
        self.pos = pos


class NameExpr(Struct):
    """A simple name: a local, parameter, field, type or package prefix."""

    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: int) -> None:
        self.name = name
        self.pos = pos


class ThisExpr(Struct):
    """``this``."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos


class FieldAccess(Struct):
    """``target.name``: a field, or a further segment of a dotted name."""

    __slots__ = ("target", "name", "pos")

    def __init__(self, target: "Expr", name: str, pos: int) -> None:
        self.target = target
        self.name = name
        self.pos = pos


class MethodCall(Struct):
    """``target.name(args)``, or ``name(args)`` when unqualified."""

    __slots__ = ("target", "name", "args", "pos")

    def __init__(
        self,
        target: Optional["Expr"],
        name: str,
        args: tuple["Expr", ...],
        pos: int,
    ) -> None:
        self.target = target  # None = unqualified call
        self.name = name
        self.args = args
        self.pos = pos


class SuperMember(Struct):
    """``super.name`` or ``super.name(args)`` (``args`` None for a field)."""

    __slots__ = ("name", "args", "pos")

    def __init__(self, name: str, args: Optional[tuple["Expr", ...]], pos: int) -> None:
        self.name = name
        self.args = args
        self.pos = pos


class SuperCtorCall(Struct):
    """``super(args)`` at the start of a constructor."""

    __slots__ = ("args", "pos")

    def __init__(self, args: tuple["Expr", ...], pos: int) -> None:
        self.args = args
        self.pos = pos


class ThisCtorCall(Struct):
    """``this(args)`` at the start of a constructor."""

    __slots__ = ("args", "pos")

    def __init__(self, args: tuple["Expr", ...], pos: int) -> None:
        self.args = args
        self.pos = pos


class Cast(Struct):
    """``(type) expr``."""

    __slots__ = ("type", "expr", "pos")

    def __init__(self, type: TypeName, expr: "Expr", pos: int) -> None:
        self.type = type
        self.expr = expr
        self.pos = pos


class NewObject(Struct):
    """``new Type(args)``, with ``body`` for an anonymous class."""

    __slots__ = ("type", "args", "body", "pos")

    def __init__(
        self,
        type: TypeName,
        args: tuple["Expr", ...],
        body: Optional["TypeDeclNode"],
        pos: int,
    ) -> None:
        self.type = type
        self.args = args
        self.body = body  # anonymous class body
        self.pos = pos


class NewArray(Struct):
    """``new T[d]...[]``, with ``init`` for an initializer; None for an empty dimension."""

    __slots__ = ("element", "dim_exprs", "init", "pos")

    def __init__(
        self,
        element: TypeName,
        dim_exprs: tuple[Optional["Expr"], ...],
        init: Optional["ArrayInit"],
        pos: int,
    ) -> None:
        self.element = element
        self.dim_exprs = dim_exprs
        self.init = init
        self.pos = pos


class ArrayInit(Struct):
    """``{items}``: an array initializer, possibly nested."""

    __slots__ = ("items", "pos")

    def __init__(self, items: tuple[Union["Expr", "ArrayInit"], ...], pos: int) -> None:
        self.items = items
        self.pos = pos


class ArrayAccess(Struct):
    """``target[index]``."""

    __slots__ = ("target", "index", "pos")

    def __init__(self, target: "Expr", index: "Expr", pos: int) -> None:
        self.target = target
        self.index = index
        self.pos = pos


class Unary(Struct):
    """A prefix or postfix operator applied to ``expr``."""

    __slots__ = ("op", "expr", "prefix", "pos")

    def __init__(self, op: str, expr: "Expr", prefix: bool, pos: int) -> None:
        self.op = op
        self.expr = expr
        self.prefix = prefix
        self.pos = pos


class Binary(Struct):
    """``left op right``; chains nest to the left."""

    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left: "Expr", right: "Expr", pos: int) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.pos = pos


class InstanceOf(Struct):
    """``expr instanceof type``."""

    __slots__ = ("expr", "type", "pos")

    def __init__(self, expr: "Expr", type: TypeName, pos: int) -> None:
        self.expr = expr
        self.type = type
        self.pos = pos


class Conditional(Struct):
    """``cond ? then : other``."""

    __slots__ = ("cond", "then", "other", "pos")

    def __init__(self, cond: "Expr", then: "Expr", other: "Expr", pos: int) -> None:
        self.cond = cond
        self.then = then
        self.other = other
        self.pos = pos


class Assign(Struct):
    """``target op value`` for ``=`` and the compound assignments."""

    __slots__ = ("op", "target", "value", "pos")

    def __init__(self, op: str, target: "Expr", value: "Expr", pos: int) -> None:
        self.op = op  # "=", "+=", ...
        self.target = target
        self.value = value
        self.pos = pos


class Paren(Struct):
    """A parenthesized expression."""

    __slots__ = ("expr", "pos")

    def __init__(self, expr: "Expr", pos: int) -> None:
        self.expr = expr
        self.pos = pos


Expr = Union[
    Literal,
    NameExpr,
    ThisExpr,
    FieldAccess,
    MethodCall,
    SuperMember,
    SuperCtorCall,
    ThisCtorCall,
    Cast,
    NewObject,
    NewArray,
    ArrayInit,
    ArrayAccess,
    Unary,
    Binary,
    InstanceOf,
    Conditional,
    Assign,
    Paren,
]


# -- statements --------------------------------------------------------------


class Block(Struct):
    """``{ stmts }``."""

    __slots__ = ("stmts", "pos")

    def __init__(self, stmts: tuple["Stmt", ...], pos: int) -> None:
        self.stmts = stmts
        self.pos = pos


class LocalDecl(Struct):
    """A local variable declaration: one type, several declarators."""

    __slots__ = ("type", "declarators", "pos")

    def __init__(
        self,
        type: TypeName,
        declarators: tuple["Declarator", ...],
        pos: int,
    ) -> None:
        self.type = type
        self.declarators = declarators
        self.pos = pos


class ExprStmt(Struct):
    """An expression used as a statement."""

    __slots__ = ("expr", "pos")

    def __init__(self, expr: Expr, pos: int) -> None:
        self.expr = expr
        self.pos = pos


class IfStmt(Struct):
    """``if (cond) then else other``."""

    __slots__ = ("cond", "then", "other", "pos")

    def __init__(
        self,
        cond: Expr,
        then: "Stmt",
        other: Optional["Stmt"],
        pos: int,
    ) -> None:
        self.cond = cond
        self.then = then
        self.other = other
        self.pos = pos


class WhileStmt(Struct):
    """``while (cond) body``."""

    __slots__ = ("cond", "body", "pos")

    def __init__(self, cond: Expr, body: "Stmt", pos: int) -> None:
        self.cond = cond
        self.body = body
        self.pos = pos


class ForStmt(Struct):
    """``for (init; cond; update) body``."""

    __slots__ = ("init", "cond", "update", "body", "pos")

    def __init__(
        self,
        init: Union[LocalDecl, tuple[Expr, ...], None],
        cond: Optional[Expr],
        update: tuple[Expr, ...],
        body: "Stmt",
        pos: int,
    ) -> None:
        self.init = init
        self.cond = cond
        self.update = update
        self.body = body
        self.pos = pos


class SwitchGroup(Struct):
    """The case labels of one group and the statements after them."""

    __slots__ = ("labels", "stmts")

    def __init__(self, labels: tuple[Optional[Expr], ...], stmts: tuple["Stmt", ...]) -> None:
        self.labels = labels  # None = default
        self.stmts = stmts


class SwitchStmt(Struct):
    """``switch (selector) { groups }``."""

    __slots__ = ("selector", "groups", "pos")

    def __init__(self, selector: Expr, groups: tuple[SwitchGroup, ...], pos: int) -> None:
        self.selector = selector
        self.groups = groups
        self.pos = pos


class ReturnStmt(Struct):
    """``return value;``, with ``value`` None for a bare return."""

    __slots__ = ("value", "pos")

    def __init__(self, value: Optional[Expr], pos: int) -> None:
        self.value = value
        self.pos = pos


class BreakStmt(Struct):
    """``break;``."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos


class ContinueStmt(Struct):
    """``continue;``."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos


class CatchClause(Struct):
    """``catch (param) body``."""

    __slots__ = ("param", "body", "pos")

    def __init__(self, param: "Param", body: Block, pos: int) -> None:
        self.param = param
        self.body = body
        self.pos = pos


class TryStmt(Struct):
    """``try body catches finally final``."""

    __slots__ = ("body", "catches", "final", "pos")

    def __init__(
        self,
        body: Block,
        catches: tuple[CatchClause, ...],
        final: Optional[Block],
        pos: int,
    ) -> None:
        self.body = body
        self.catches = catches
        self.final = final
        self.pos = pos


class EmptyStmt(Struct):
    """``;``."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos


Stmt = Union[
    Block,
    LocalDecl,
    ExprStmt,
    IfStmt,
    WhileStmt,
    ForStmt,
    SwitchStmt,
    ReturnStmt,
    BreakStmt,
    ContinueStmt,
    TryStmt,
    EmptyStmt,
]


# -- declarations ------------------------------------------------------------


class Declarator(Struct):
    """One declared name, its extra ``[]`` pairs and its initializer."""

    __slots__ = ("name", "extra_dims", "init", "pos")

    def __init__(
        self,
        name: str,
        extra_dims: int,
        init: Union[Expr, ArrayInit, None],
        pos: int,
    ) -> None:
        self.name = name
        self.extra_dims = extra_dims
        self.init = init
        self.pos = pos


class FieldDecl(Struct):
    """A field declaration: modifiers, one type, several declarators."""

    __slots__ = ("modifiers", "type", "declarators", "pos")

    def __init__(
        self,
        modifiers: tuple[str, ...],
        type: Optional[TypeName],
        declarators: tuple[Declarator, ...],
        pos: int,
    ) -> None:
        self.modifiers = modifiers  # () after the declare
        self.type = type  # None after the declare
        self.declarators = declarators
        self.pos = pos


class Param(Struct):
    """A formal parameter of a method, constructor or catch clause."""

    __slots__ = ("type", "name", "extra_dims", "pos")

    def __init__(self, type: TypeName, name: str, extra_dims: int, pos: int) -> None:
        self.type = type
        self.name = name
        self.extra_dims = extra_dims
        self.pos = pos

    @property
    def written_type(self) -> str:
        return self.type.written + "[]" * self.extra_dims


class MethodDecl(Struct):
    """A method or constructor; ``body`` is None for a method without one."""

    __slots__ = ("modifiers", "ret", "name", "params", "body", "is_ctor", "pos")

    def __init__(
        self,
        modifiers: tuple[str, ...],
        ret: Optional[TypeName],
        name: str,
        params: tuple[Param, ...],
        body: Optional[Block],
        is_ctor: bool,
        pos: int,
    ) -> None:
        self.modifiers = modifiers  # () after the declare
        self.ret = ret  # None for constructors, and for any method after the declare
        self.name = name
        self.params = params
        self.body = body
        self.is_ctor = is_ctor
        self.pos = pos


class InitBlock(Struct):
    """An instance or ``static`` initializer block."""

    __slots__ = ("static", "body", "pos")

    def __init__(self, static: bool, body: Block, pos: int) -> None:
        self.static = static
        self.body = body
        self.pos = pos


class TypeDeclNode(Struct):
    """A class or interface declaration, named or anonymous."""

    __slots__ = (
        "name",
        "kind",
        "modifiers",
        "extends",
        "implements",
        "members",
        "pos",
        "anonymous",
        "anon_supertype",
        "qualified_name",
        "outer",
    )

    def __init__(
        self,
        name: Optional[str],
        kind: str,
        modifiers: tuple[str, ...],
        extends: tuple[TypeName, ...],
        implements: tuple[TypeName, ...],
        members: tuple,
        pos: int,
        anonymous: bool = False,
        anon_supertype: Optional[TypeName] = None,
        qualified_name: Optional[str] = None,
        outer: Optional[str] = None,
    ) -> None:
        self.name = name  # None for anonymous classes until named
        self.kind = kind  # "class" | "interface"
        # Each of these three is () after the declare.
        self.modifiers = modifiers
        self.extends = extends
        self.implements = implements
        # FieldDecl | MethodDecl | InitBlock | TypeDeclNode.  After the
        # declare, only fields with an initializer and methods with a body
        # are left, next to every initializer block and member type.
        self.members = members
        self.pos = pos
        self.anonymous = anonymous
        # Supplied by the anonymous-class creation site: the written supertype.
        self.anon_supertype = anon_supertype
        # Assigned by the parser; ``outer`` is the qualified name of the type
        # whose body holds this declaration, None for a top-level type.
        self.qualified_name = qualified_name
        self.outer = outer


class ImportDecl(Struct):
    """``import name;``, or ``import name.*;`` when ``on_demand``."""

    __slots__ = ("name", "on_demand", "pos")

    def __init__(self, name: str, on_demand: bool, pos: int) -> None:
        self.name = name
        self.on_demand = on_demand
        self.pos = pos


class CompilationUnit(Struct):
    """One source file: package, imports and top-level types.

    ``type_decls`` lists every type declaration of the file, member and
    anonymous types included, in preorder.  ``line_starts`` holds the
    offset of each line's first character, to decode a node's ``pos``.
    """

    __slots__ = ("package", "imports", "types", "file", "type_decls", "line_starts")

    def __init__(
        self,
        package: Optional[str],
        imports: tuple[ImportDecl, ...],
        types: tuple[TypeDeclNode, ...],
        file: str,
        type_decls: tuple[TypeDeclNode, ...],
        line_starts: list[int],
    ) -> None:
        self.package = package
        self.imports = imports
        self.types = types
        self.file = file
        self.type_decls = type_decls
        self.line_starts = line_starts
