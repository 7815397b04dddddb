"""Syntax nodes for the analyzed dialect.

Nodes are plain classes with ``__slots__`` and a written-out ``__init__``
taking the fields in order; the parser gives type declarations their
qualified names (``qualified_name``), including generated names for
anonymous classes.  Slots keep the per-node memory small, since an analysis
holds every unit's tree at once; a node takes no attribute beyond its
fields.  Nodes compare by identity; ``Span`` is a value and compares by its
fields.  No method is generated at import time, so importing this module
costs a per-file invocation next to nothing.
"""

from __future__ import annotations

from typing import Optional, Union

from ..records import Struct, Value

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
    "Span",
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


class Span(Value):
    """A source position: file, 1-based line and column."""

    __slots__ = ("file", "line", "col")

    def __init__(self, file: str, line: int, col: int) -> None:
        self.file = file
        self.line = line
        self.col = col

    def key(self) -> tuple[str, int, int]:
        return (self.file, self.line, self.col)


class TypeName(Struct):
    """A type as written: dotted name plus array dimensions."""

    __slots__ = ("name", "dims", "span")

    def __init__(self, name: str, dims: int, span: Span) -> None:
        self.name = name
        self.dims = dims
        self.span = span

    @property
    def written(self) -> str:
        return self.name + "[]" * self.dims


# -- expressions -------------------------------------------------------------


class Literal(Struct):
    """A literal; ``kind`` names its type and ``text`` is as written."""

    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span) -> None:
        self.kind = kind  # int long float double char string boolean null
        self.text = text
        self.span = span


class NameExpr(Struct):
    """A simple name: a local, parameter, field, type or package prefix."""

    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Span) -> None:
        self.name = name
        self.span = span


class ThisExpr(Struct):
    """``this``."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span


class FieldAccess(Struct):
    """``target.name``: a field, or a further segment of a dotted name."""

    __slots__ = ("target", "name", "span")

    def __init__(self, target: "Expr", name: str, span: Span) -> None:
        self.target = target
        self.name = name
        self.span = span


class MethodCall(Struct):
    """``target.name(args)``, or ``name(args)`` when unqualified."""

    __slots__ = ("target", "name", "args", "span")

    def __init__(
        self,
        target: Optional["Expr"],
        name: str,
        args: list["Expr"],
        span: Span,
    ) -> None:
        self.target = target  # None = unqualified call
        self.name = name
        self.args = args
        self.span = span


class SuperMember(Struct):
    """``super.name`` or ``super.name(args)`` (``args`` None for a field)."""

    __slots__ = ("name", "args", "span")

    def __init__(self, name: str, args: Optional[list["Expr"]], span: Span) -> None:
        self.name = name
        self.args = args
        self.span = span


class SuperCtorCall(Struct):
    """``super(args)`` at the start of a constructor."""

    __slots__ = ("args", "span")

    def __init__(self, args: list["Expr"], span: Span) -> None:
        self.args = args
        self.span = span


class ThisCtorCall(Struct):
    """``this(args)`` at the start of a constructor."""

    __slots__ = ("args", "span")

    def __init__(self, args: list["Expr"], span: Span) -> None:
        self.args = args
        self.span = span


class Cast(Struct):
    """``(type) expr``."""

    __slots__ = ("type", "expr", "span")

    def __init__(self, type: TypeName, expr: "Expr", span: Span) -> None:
        self.type = type
        self.expr = expr
        self.span = span


class NewObject(Struct):
    """``new Type(args)``, with ``body`` for an anonymous class."""

    __slots__ = ("type", "args", "body", "span")

    def __init__(
        self,
        type: TypeName,
        args: list["Expr"],
        body: Optional["TypeDeclNode"],
        span: Span,
    ) -> None:
        self.type = type
        self.args = args
        self.body = body  # anonymous class body
        self.span = span


class NewArray(Struct):
    """``new T[d]...[]``, with ``init`` for an initializer; None for an empty dimension."""

    __slots__ = ("element", "dim_exprs", "init", "span")

    def __init__(
        self,
        element: TypeName,
        dim_exprs: list[Optional["Expr"]],
        init: Optional["ArrayInit"],
        span: Span,
    ) -> None:
        self.element = element
        self.dim_exprs = dim_exprs
        self.init = init
        self.span = span


class ArrayInit(Struct):
    """``{items}``: an array initializer, possibly nested."""

    __slots__ = ("items", "span")

    def __init__(self, items: list[Union["Expr", "ArrayInit"]], span: Span) -> None:
        self.items = items
        self.span = span


class ArrayAccess(Struct):
    """``target[index]``."""

    __slots__ = ("target", "index", "span")

    def __init__(self, target: "Expr", index: "Expr", span: Span) -> None:
        self.target = target
        self.index = index
        self.span = span


class Unary(Struct):
    """A prefix or postfix operator applied to ``expr``."""

    __slots__ = ("op", "expr", "prefix", "span")

    def __init__(self, op: str, expr: "Expr", prefix: bool, span: Span) -> None:
        self.op = op
        self.expr = expr
        self.prefix = prefix
        self.span = span


class Binary(Struct):
    """``left op right``; chains nest to the left."""

    __slots__ = ("op", "left", "right", "span")

    def __init__(self, op: str, left: "Expr", right: "Expr", span: Span) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.span = span


class InstanceOf(Struct):
    """``expr instanceof type``."""

    __slots__ = ("expr", "type", "span")

    def __init__(self, expr: "Expr", type: TypeName, span: Span) -> None:
        self.expr = expr
        self.type = type
        self.span = span


class Conditional(Struct):
    """``cond ? then : other``."""

    __slots__ = ("cond", "then", "other", "span")

    def __init__(self, cond: "Expr", then: "Expr", other: "Expr", span: Span) -> None:
        self.cond = cond
        self.then = then
        self.other = other
        self.span = span


class Assign(Struct):
    """``target op value`` for ``=`` and the compound assignments."""

    __slots__ = ("op", "target", "value", "span")

    def __init__(self, op: str, target: "Expr", value: "Expr", span: Span) -> None:
        self.op = op  # "=", "+=", ...
        self.target = target
        self.value = value
        self.span = span


class Paren(Struct):
    """A parenthesized expression."""

    __slots__ = ("expr", "span")

    def __init__(self, expr: "Expr", span: Span) -> None:
        self.expr = expr
        self.span = span


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

    __slots__ = ("stmts", "span")

    def __init__(self, stmts: list["Stmt"], span: Span) -> None:
        self.stmts = stmts
        self.span = span


class LocalDecl(Struct):
    """A local variable declaration: one type, several declarators."""

    __slots__ = ("type", "declarators", "span")

    def __init__(
        self,
        type: TypeName,
        declarators: list["Declarator"],
        span: Span,
    ) -> None:
        self.type = type
        self.declarators = declarators
        self.span = span


class ExprStmt(Struct):
    """An expression used as a statement."""

    __slots__ = ("expr", "span")

    def __init__(self, expr: Expr, span: Span) -> None:
        self.expr = expr
        self.span = span


class IfStmt(Struct):
    """``if (cond) then else other``."""

    __slots__ = ("cond", "then", "other", "span")

    def __init__(
        self,
        cond: Expr,
        then: "Stmt",
        other: Optional["Stmt"],
        span: Span,
    ) -> None:
        self.cond = cond
        self.then = then
        self.other = other
        self.span = span


class WhileStmt(Struct):
    """``while (cond) body``."""

    __slots__ = ("cond", "body", "span")

    def __init__(self, cond: Expr, body: "Stmt", span: Span) -> None:
        self.cond = cond
        self.body = body
        self.span = span


class ForStmt(Struct):
    """``for (init; cond; update) body``."""

    __slots__ = ("init", "cond", "update", "body", "span")

    def __init__(
        self,
        init: Union[LocalDecl, list[Expr], None],
        cond: Optional[Expr],
        update: list[Expr],
        body: "Stmt",
        span: Span,
    ) -> None:
        self.init = init
        self.cond = cond
        self.update = update
        self.body = body
        self.span = span


class SwitchGroup(Struct):
    """The case labels of one group and the statements after them."""

    __slots__ = ("labels", "stmts")

    def __init__(self, labels: list[Optional[Expr]], stmts: list["Stmt"]) -> None:
        self.labels = labels  # None = default
        self.stmts = stmts


class SwitchStmt(Struct):
    """``switch (selector) { groups }``."""

    __slots__ = ("selector", "groups", "span")

    def __init__(self, selector: Expr, groups: list[SwitchGroup], span: Span) -> None:
        self.selector = selector
        self.groups = groups
        self.span = span


class ReturnStmt(Struct):
    """``return value;``, with ``value`` None for a bare return."""

    __slots__ = ("value", "span")

    def __init__(self, value: Optional[Expr], span: Span) -> None:
        self.value = value
        self.span = span


class BreakStmt(Struct):
    """``break;``."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span


class ContinueStmt(Struct):
    """``continue;``."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span


class CatchClause(Struct):
    """``catch (param) body``."""

    __slots__ = ("param", "body", "span")

    def __init__(self, param: "Param", body: Block, span: Span) -> None:
        self.param = param
        self.body = body
        self.span = span


class TryStmt(Struct):
    """``try body catches finally final``."""

    __slots__ = ("body", "catches", "final", "span")

    def __init__(
        self,
        body: Block,
        catches: list[CatchClause],
        final: Optional[Block],
        span: Span,
    ) -> None:
        self.body = body
        self.catches = catches
        self.final = final
        self.span = span


class EmptyStmt(Struct):
    """``;``."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span


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

    __slots__ = ("name", "extra_dims", "init", "span")

    def __init__(
        self,
        name: str,
        extra_dims: int,
        init: Union[Expr, ArrayInit, None],
        span: Span,
    ) -> None:
        self.name = name
        self.extra_dims = extra_dims
        self.init = init
        self.span = span


class FieldDecl(Struct):
    """A field declaration: modifiers, one type, several declarators."""

    __slots__ = ("modifiers", "type", "declarators", "span")

    def __init__(
        self,
        modifiers: list[str],
        type: TypeName,
        declarators: list[Declarator],
        span: Span,
    ) -> None:
        self.modifiers = modifiers
        self.type = type
        self.declarators = declarators
        self.span = span


class Param(Struct):
    """A formal parameter of a method, constructor or catch clause."""

    __slots__ = ("type", "name", "extra_dims", "span")

    def __init__(self, type: TypeName, name: str, extra_dims: int, span: Span) -> None:
        self.type = type
        self.name = name
        self.extra_dims = extra_dims
        self.span = span

    @property
    def written_type(self) -> str:
        return self.type.written + "[]" * self.extra_dims


class MethodDecl(Struct):
    """A method or constructor; ``body`` is None for a method without one."""

    __slots__ = ("modifiers", "ret", "name", "params", "body", "is_ctor", "span")

    def __init__(
        self,
        modifiers: list[str],
        ret: Optional[TypeName],
        name: str,
        params: list[Param],
        body: Optional[Block],
        is_ctor: bool,
        span: Span,
    ) -> None:
        self.modifiers = modifiers
        self.ret = ret  # None for constructors
        self.name = name
        self.params = params
        self.body = body
        self.is_ctor = is_ctor
        self.span = span


class InitBlock(Struct):
    """An instance or ``static`` initializer block."""

    __slots__ = ("static", "body", "span")

    def __init__(self, static: bool, body: Block, span: Span) -> None:
        self.static = static
        self.body = body
        self.span = span


class TypeDeclNode(Struct):
    """A class or interface declaration, named or anonymous."""

    __slots__ = (
        "name",
        "kind",
        "modifiers",
        "extends",
        "implements",
        "members",
        "span",
        "anonymous",
        "anon_supertype",
        "qualified_name",
        "outer",
    )

    def __init__(
        self,
        name: Optional[str],
        kind: str,
        modifiers: list[str],
        extends: list[TypeName],
        implements: list[TypeName],
        members: list,
        span: Span,
        anonymous: bool = False,
        anon_supertype: Optional[TypeName] = None,
        qualified_name: Optional[str] = None,
        outer: Optional[str] = None,
    ) -> None:
        self.name = name  # None for anonymous classes until named
        self.kind = kind  # "class" | "interface"
        self.modifiers = modifiers
        self.extends = extends
        self.implements = implements
        self.members = members  # FieldDecl | MethodDecl | InitBlock | TypeDeclNode
        self.span = span
        self.anonymous = anonymous
        # Supplied by the anonymous-class creation site: the written supertype.
        self.anon_supertype = anon_supertype
        # Assigned by the parser; ``outer`` is the qualified name of the type
        # whose body holds this declaration, None for a top-level type.
        self.qualified_name = qualified_name
        self.outer = outer


class ImportDecl(Struct):
    """``import name;``, or ``import name.*;`` when ``on_demand``."""

    __slots__ = ("name", "on_demand", "span")

    def __init__(self, name: str, on_demand: bool, span: Span) -> None:
        self.name = name
        self.on_demand = on_demand
        self.span = span


class CompilationUnit(Struct):
    """One source file: package, imports and top-level types.

    ``type_decls`` lists every type declaration of the file, member and
    anonymous types included, in preorder.
    """

    __slots__ = ("package", "imports", "types", "file", "type_decls")

    def __init__(
        self,
        package: Optional[str],
        imports: list[ImportDecl],
        types: list[TypeDeclNode],
        file: str,
        type_decls: list[TypeDeclNode],
    ) -> None:
        self.package = package
        self.imports = imports
        self.types = types
        self.file = file
        self.type_decls = type_decls
