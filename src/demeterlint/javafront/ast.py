"""Syntax nodes for the analyzed dialect.

Nodes are mutable dataclasses with ``__slots__``; the parser gives type
declarations their qualified names (``qualified_name``), including
generated names for anonymous classes.  ``Span`` is
frozen.  Slots keep the per-node memory small, since an analysis holds
every unit's tree at once; a node takes no attribute beyond its fields.
Every node class has a docstring: for a class without one, ``dataclass``
builds one from ``inspect.signature`` at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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


@dataclass(frozen=True, slots=True)
class Span:
    """A source position: file, 1-based line and column."""

    file: str
    line: int
    col: int

    def key(self) -> tuple[str, int, int]:
        return (self.file, self.line, self.col)


@dataclass(slots=True)
class TypeName:
    """A type as written: dotted name plus array dimensions."""

    name: str
    dims: int
    span: Span

    @property
    def written(self) -> str:
        return self.name + "[]" * self.dims


# -- expressions -------------------------------------------------------------


@dataclass(slots=True)
class Literal:
    """A literal; ``kind`` names its type and ``text`` is as written."""

    kind: str  # int long float double char string boolean null
    text: str
    span: Span


@dataclass(slots=True)
class NameExpr:
    """A simple name: a local, parameter, field, type or package prefix."""

    name: str
    span: Span


@dataclass(slots=True)
class ThisExpr:
    """``this``."""

    span: Span


@dataclass(slots=True)
class FieldAccess:
    """``target.name``: a field, or a further segment of a dotted name."""

    target: "Expr"
    name: str
    span: Span


@dataclass(slots=True)
class MethodCall:
    """``target.name(args)``, or ``name(args)`` when unqualified."""

    target: Optional["Expr"]  # None = unqualified call
    name: str
    args: list["Expr"]
    span: Span


@dataclass(slots=True)
class SuperMember:
    """``super.name`` or ``super.name(args)`` (``args`` None for a field)."""

    name: str
    args: Optional[list["Expr"]]
    span: Span


@dataclass(slots=True)
class SuperCtorCall:
    """``super(args)`` at the start of a constructor."""

    args: list["Expr"]
    span: Span


@dataclass(slots=True)
class ThisCtorCall:
    """``this(args)`` at the start of a constructor."""

    args: list["Expr"]
    span: Span


@dataclass(slots=True)
class Cast:
    """``(type) expr``."""

    type: TypeName
    expr: "Expr"
    span: Span


@dataclass(slots=True)
class NewObject:
    """``new Type(args)``, with ``body`` for an anonymous class."""

    type: TypeName
    args: list["Expr"]
    body: Optional["TypeDeclNode"]  # anonymous class body
    span: Span


@dataclass(slots=True)
class NewArray:
    """``new T[d]...[]``, with ``init`` for an initializer; None for an empty dimension."""

    element: TypeName
    dim_exprs: list[Optional["Expr"]]
    init: Optional["ArrayInit"]
    span: Span


@dataclass(slots=True)
class ArrayInit:
    """``{items}``: an array initializer, possibly nested."""

    items: list[Union["Expr", "ArrayInit"]]
    span: Span


@dataclass(slots=True)
class ArrayAccess:
    """``target[index]``."""

    target: "Expr"
    index: "Expr"
    span: Span


@dataclass(slots=True)
class Unary:
    """A prefix or postfix operator applied to ``expr``."""

    op: str
    expr: "Expr"
    prefix: bool
    span: Span


@dataclass(slots=True)
class Binary:
    """``left op right``; chains nest to the left."""

    op: str
    left: "Expr"
    right: "Expr"
    span: Span


@dataclass(slots=True)
class InstanceOf:
    """``expr instanceof type``."""

    expr: "Expr"
    type: TypeName
    span: Span


@dataclass(slots=True)
class Conditional:
    """``cond ? then : other``."""

    cond: "Expr"
    then: "Expr"
    other: "Expr"
    span: Span


@dataclass(slots=True)
class Assign:
    """``target op value`` for ``=`` and the compound assignments."""

    op: str  # "=", "+=", ...
    target: "Expr"
    value: "Expr"
    span: Span


@dataclass(slots=True)
class Paren:
    """A parenthesized expression."""

    expr: "Expr"
    span: Span


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


@dataclass(slots=True)
class Block:
    """``{ stmts }``."""

    stmts: list["Stmt"]
    span: Span


@dataclass(slots=True)
class LocalDecl:
    """A local variable declaration: one type, several declarators."""

    type: TypeName
    declarators: list["Declarator"]
    span: Span


@dataclass(slots=True)
class ExprStmt:
    """An expression used as a statement."""

    expr: Expr
    span: Span


@dataclass(slots=True)
class IfStmt:
    """``if (cond) then else other``."""

    cond: Expr
    then: "Stmt"
    other: Optional["Stmt"]
    span: Span


@dataclass(slots=True)
class WhileStmt:
    """``while (cond) body``."""

    cond: Expr
    body: "Stmt"
    span: Span


@dataclass(slots=True)
class ForStmt:
    """``for (init; cond; update) body``."""

    init: Union[LocalDecl, list[Expr], None]
    cond: Optional[Expr]
    update: list[Expr]
    body: "Stmt"
    span: Span


@dataclass(slots=True)
class SwitchGroup:
    """The case labels of one group and the statements after them."""

    labels: list[Optional[Expr]]  # None = default
    stmts: list["Stmt"]


@dataclass(slots=True)
class SwitchStmt:
    """``switch (selector) { groups }``."""

    selector: Expr
    groups: list[SwitchGroup]
    span: Span


@dataclass(slots=True)
class ReturnStmt:
    """``return value;``, with ``value`` None for a bare return."""

    value: Optional[Expr]
    span: Span


@dataclass(slots=True)
class BreakStmt:
    """``break;``."""

    span: Span


@dataclass(slots=True)
class ContinueStmt:
    """``continue;``."""

    span: Span


@dataclass(slots=True)
class CatchClause:
    """``catch (param) body``."""

    param: "Param"
    body: Block
    span: Span


@dataclass(slots=True)
class TryStmt:
    """``try body catches finally final``."""

    body: Block
    catches: list[CatchClause]
    final: Optional[Block]
    span: Span


@dataclass(slots=True)
class EmptyStmt:
    """``;``."""

    span: Span


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


@dataclass(slots=True)
class Declarator:
    """One declared name, its extra ``[]`` pairs and its initializer."""

    name: str
    extra_dims: int
    init: Union[Expr, ArrayInit, None]
    span: Span


@dataclass(slots=True)
class FieldDecl:
    """A field declaration: modifiers, one type, several declarators."""

    modifiers: list[str]
    type: TypeName
    declarators: list[Declarator]
    span: Span


@dataclass(slots=True)
class Param:
    """A formal parameter of a method, constructor or catch clause."""

    type: TypeName
    name: str
    extra_dims: int
    span: Span

    @property
    def written_type(self) -> str:
        return self.type.written + "[]" * self.extra_dims


@dataclass(slots=True)
class MethodDecl:
    """A method or constructor; ``body`` is None for a method without one."""

    modifiers: list[str]
    ret: Optional[TypeName]  # None for constructors
    name: str
    params: list[Param]
    body: Optional[Block]
    is_ctor: bool
    span: Span


@dataclass(slots=True)
class InitBlock:
    """An instance or ``static`` initializer block."""

    static: bool
    body: Block
    span: Span


@dataclass(slots=True)
class TypeDeclNode:
    """A class or interface declaration, named or anonymous."""

    name: Optional[str]  # None for anonymous classes until named
    kind: str  # "class" | "interface"
    modifiers: list[str]
    extends: list[TypeName]
    implements: list[TypeName]
    members: list  # FieldDecl | MethodDecl | InitBlock | TypeDeclNode
    span: Span
    anonymous: bool = False
    # Supplied by the anonymous-class creation site: the written supertype.
    anon_supertype: Optional[TypeName] = None
    # Assigned by the parser.
    qualified_name: Optional[str] = None


@dataclass(slots=True)
class ImportDecl:
    """``import name;``, or ``import name.*;`` when ``on_demand``."""

    name: str
    on_demand: bool
    span: Span


@dataclass(slots=True)
class CompilationUnit:
    """One source file: package, imports and top-level types.

    ``type_decls`` lists every type declaration of the file, member and
    anonymous types included, in preorder.
    """

    package: Optional[str]
    imports: list[ImportDecl]
    types: list[TypeDeclNode]
    file: str
    type_decls: list[TypeDeclNode]
