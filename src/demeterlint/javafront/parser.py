"""Recursive-descent parser for the analyzed dialect.

The dialect is the pre-generics language of the corpus: package and import
declarations, class/interface declarations (nested and anonymous included),
fields with initializers, methods, constructors, initializer blocks, and the
statement and expression forms below.  Constructs outside the subset fail
with an error naming the construct.

Binary operators are parsed by precedence climbing (Pratt, "Top Down
Operator Precedence", 1973) over the level table ``_LEVELS``: one loop and
one frame per operand, however many levels there are.  Input nested deeper
than the interpreter's stack allows fails with a ``ParseError``.

The parser lists every type declaration in ``CompilationUnit.type_decls``,
in preorder, and names them all once the unit is parsed: a nested type is
``Outer$Inner``, and an anonymous body ``Outer$anonN``, numbered per nearest
named type in the order the bodies open, after their creation arguments,
skipping each ``anonN`` that a member type of that named type takes.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import Kind, Lexed, line_col, line_starts, tokenize

__all__ = ["parse_unit"]

PRIMITIVE_TYPES = frozenset(
    {"int", "boolean", "char", "byte", "short", "long", "float", "double", "void"}
)

MODIFIER_WORDS = frozenset(
    {
        "public",
        "private",
        "protected",
        "static",
        "final",
        "abstract",
        "transient",
        "synchronized",
        "native",
        "volatile",
    }
)

ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)

#: Binary operator levels, loosest first; ``instanceof`` is relational.
_LEVELS: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_PRECEDENCE = {op: level for level, ops in enumerate(_LEVELS) for op in ops}


#: Literal token kinds; each is also the name of the literal's type.
_LITERAL_KINDS = frozenset(
    {Kind.INT, Kind.LONG, Kind.FLOAT, Kind.DOUBLE, Kind.CHAR, Kind.STRING}
)

IDENT, KEYWORD, PUNCT, EOF = Kind.IDENT, Kind.KEYWORD, Kind.PUNCT, Kind.EOF


def parse_unit(source_text: str, file_name: str) -> ast.CompilationUnit:
    """Parse one compilation unit; raises ParseError outside the dialect."""
    tokens = tokenize(source_text, file_name)
    parser = _Parser(tokens, line_starts(source_text), file_name)
    try:
        return parser.unit()
    except RecursionError:
        raise parser.error("nesting too deep to parse") from None


class _Parser:
    def __init__(self, tokens: Lexed, starts: list[int], file_name: str):
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.offsets = tokens.offsets
        self.last = len(tokens) - 1  # the EOF token
        self.i = 0
        self.starts = starts
        self.file = file_name
        # Type declarations in preorder, the index in ``types`` of each
        # one's enclosing type (-1 for none), and that of the type whose
        # body is open; ``unit`` names them all once the unit is parsed.
        self.types: list[ast.TypeDeclNode] = []
        self.enclosing: list[int] = []
        self.open = -1

    # -- token plumbing ----------------------------------------------------
    # ``i`` never moves past the EOF token, so ``texts[i]`` is always the
    # current token; only lookahead (``k`` > 0) needs clamping.  The grammar
    # names keywords and operators by their text alone: no identifier or
    # literal has the text of one, and EOF's text is empty.

    def peek(self, k: int) -> int:
        return min(self.i + k, self.last)

    def here(self) -> int:
        return self.offsets[self.i]

    def at(self, text: str, k: int = 0) -> bool:
        return self.texts[self.peek(k) if k else self.i] == text

    def at_ident(self, k: int = 0) -> bool:
        return self.kinds[self.peek(k) if k else self.i] is IDENT

    def next(self) -> int:
        """Consume the current token, unless it is EOF; return its offset."""
        i = self.i
        if self.texts[i]:  # not EOF
            self.i = i + 1
        return self.offsets[i]

    def accept(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str, context: str) -> int:
        """Consume ``text`` and return its offset."""
        i = self.i
        if self.texts[i] == text:
            self.i = i + 1
            return self.offsets[i]
        got = self.texts[i] or "end of file"
        raise self.error(f"expected '{text}' {context}, got '{got}'")

    def error(self, message: str, offset: int | None = None) -> ParseError:
        """An error at ``offset``, by default the current token's."""
        if offset is None:
            offset = self.offsets[self.i]
        return ParseError(self.file, *line_col(self.starts, offset), message)

    def fail(self, construct: str, offset: int | None = None) -> ParseError:
        return self.error(f"{construct} is outside the analyzed dialect", offset)

    # -- unit and declarations ---------------------------------------------

    def unit(self) -> ast.CompilationUnit:
        package = None
        if self.at("package"):
            self.next()
            package = self.qualified_name("in package declaration")
            self.expect(";", "after package declaration")
        imports: list[ast.ImportDecl] = []
        while self.at("import"):
            start = self.next()
            name = self.ident("after import")
            on_demand = False
            while self.accept("."):
                if self.accept("*"):
                    on_demand = True
                    break
                name += "." + self.ident("in import name")
            self.expect(";", "after import declaration")
            imports.append(ast.ImportDecl(name, on_demand, start))
        types: list[ast.TypeDeclNode] = []
        while self.kinds[self.i] is not EOF:
            if self.accept(";"):
                continue
            types.append(self.type_decl())
        _name_types(package, self.types, self.enclosing)
        return ast.CompilationUnit(
            package, tuple(imports), tuple(types), self.file, tuple(self.types), self.starts
        )

    def qualified_name(self, context: str) -> str:
        name = self.ident(context)
        while self.at(".") and self.at_ident(1):
            self.next()
            name += "." + self.ident(context)
        return name

    def ident(self, context: str) -> str:
        i = self.i
        text = self.texts[i]
        if self.kinds[i] is not IDENT:
            if text == "@":
                raise self.fail("annotation")
            raise self.error(f"expected identifier {context}, got '{text or 'eof'}'")
        self.i = i + 1
        return text

    def modifiers(self) -> tuple[str, ...]:
        mods: list[str] = []
        while True:
            text = self.texts[self.i]
            if text in MODIFIER_WORDS:
                # 'static {' and 'synchronized (' open blocks, not modifiers
                if text == "static" and self.at("{", 1):
                    break
                mods.append(text)
                self.next()
            elif text == "@":
                raise self.fail("annotation")
            else:
                break
        return tuple(mods)

    def type_decl(self) -> ast.TypeDeclNode:
        mods = self.modifiers()
        start = self.here()
        kind = self.texts[self.i]
        if kind != "class" and kind != "interface":
            raise self.error(f"expected a type declaration, got '{kind or 'eof'}'")
        self.next()
        name = self.ident("after 'class'" if kind == "class" else "after 'interface'")
        if self.at("<"):
            raise self.fail("generic type declaration")
        extends: list[ast.TypeName] = []
        implements: list[ast.TypeName] = []
        if self.accept("extends"):
            extends.append(self.type_name("in extends clause"))
            while self.accept(","):
                if kind == "class":
                    raise self.fail("multiple class inheritance")
                extends.append(self.type_name("in extends clause"))
        if self.accept("implements"):
            if kind == "interface":
                raise self.fail("implements clause on an interface")
            implements.append(self.type_name("in implements clause"))
            while self.accept(","):
                implements.append(self.type_name("in implements clause"))
        node = ast.TypeDeclNode(
            name=name,
            kind=kind,
            modifiers=mods,
            extends=tuple(extends),
            implements=tuple(implements),
            members=(),
            pos=start,
        )
        self.type_body(node)
        return node

    def type_body(self, node: ast.TypeDeclNode) -> None:
        """List ``node``, then parse its body into its members."""
        outer, self.open = self.open, len(self.types)
        self.types.append(node)
        self.enclosing.append(outer)
        self.expect("{", "to open the type body")
        members: list = []
        while not self.at("}"):
            if self.kinds[self.i] is EOF:
                raise self.error("unclosed type body")
            if self.accept(";"):
                continue
            members.append(self.member(node.name))
        self.next()  # }
        node.members = tuple(members)
        self.open = outer

    def member(self, type_name: str | None):
        start_i = self.i
        start = self.here()
        # initializer blocks: '{' or 'static {'
        if self.at("{"):
            return ast.InitBlock(False, self.block(), start)
        if self.at("static") and self.at("{", 1):
            self.next()
            return ast.InitBlock(True, self.block(), start)
        mods = self.modifiers()
        text = self.texts[self.i]
        if text == "class" or text == "interface":
            self.i = start_i
            return self.type_decl()
        # constructor: Name '(' where Name is the declared type's simple name
        if text == type_name and self.at("(", 1):
            self.next()
            params = self.param_list()
            self.skip_throws()
            body = self.block() if self.at("{") else self.no_body("constructor")
            return ast.MethodDecl(mods, None, text, params, body, True, start)
        ret = self.type_name("as a member type", allow_void=True)
        if self.at("(", 1):
            name = self.ident("as the member name")
            params = self.param_list()
            self.skip_throws()
            if self.at("{"):
                body = self.block()
            else:
                self.expect(";", "after abstract method declaration")
                body = None
            return ast.MethodDecl(mods, ret, name, params, body, False, start)
        declarators = [self.declarator("as the member name")]
        while self.accept(","):
            declarators.append(self.declarator("in field declaration"))
        self.expect(";", "after field declaration")
        return ast.FieldDecl(mods, ret, tuple(declarators), start)

    def no_body(self, what: str):
        self.expect(";", f"after {what} declaration")
        return None

    def skip_throws(self) -> None:
        if self.accept("throws"):
            self.qualified_name("in throws clause")
            while self.accept(","):
                self.qualified_name("in throws clause")

    def param_list(self) -> tuple[ast.Param, ...]:
        self.expect("(", "to open the parameter list")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                start = self.here()
                self.accept("final")
                ptype = self.type_name("as a parameter type")
                name = self.ident("as the parameter name")
                extra = 0
                while self.accept("["):
                    self.expect("]", "in parameter array declarator")
                    extra += 1
                params.append(ast.Param(ptype, name, extra, start))
                if not self.accept(","):
                    break
        self.expect(")", "to close the parameter list")
        return tuple(params)

    def declarator(self, context: str) -> ast.Declarator:
        start = self.here()
        name = self.ident(context)
        extra = 0
        while self.accept("["):
            self.expect("]", "in array declarator")
            extra += 1
        init = None
        if self.accept("="):
            init = self.array_init() if self.at("{") else self.expr()
        return ast.Declarator(name, extra, init, start)

    def type_name(self, context: str, allow_void: bool = False) -> ast.TypeName:
        start = self.here()
        name = self.texts[self.i]
        if name in PRIMITIVE_TYPES:
            if name == "void" and not allow_void:
                raise self.error(f"'void' is not allowed {context}")
            self.next()
        else:
            name = self.qualified_name(context)
        if self.at("<"):
            raise self.fail("generic type arguments")
        dims = 0
        while self.at("[") and self.at("]", 1):
            self.i += 2
            dims += 1
        return ast.TypeName(name, dims, start)

    # -- statements ----------------------------------------------------------

    def block(self) -> ast.Block:
        start = self.expect("{", "to open a block")
        stmts: list[ast.Stmt] = []
        while not self.at("}"):
            if self.kinds[self.i] is EOF:
                raise self.error("unclosed block", start)
            stmts.append(self.stmt())
        self.next()
        return ast.Block(tuple(stmts), start)

    def stmt(self) -> ast.Stmt:
        i = self.i
        kind = self.kinds[i]
        start = self.offsets[i]
        # Only a keyword or punctuator can open the statements tested here.
        if kind is KEYWORD or kind is PUNCT:
            text = self.texts[i]
            if text == "{":
                return self.block()
            if text == ";":
                self.i = i + 1
                return ast.EmptyStmt(start)
            if text == "if":
                return self.if_stmt()
            if text == "while":
                self.next()
                self.expect("(", "after 'while'")
                cond = self.expr()
                self.expect(")", "after while condition")
                return ast.WhileStmt(cond, self.stmt(), start)
            if text == "do":
                raise self.fail("do-while statement")
            if text == "throw":
                raise self.fail("throw statement")
            if text == "synchronized":
                raise self.fail("synchronized statement")
            if text == "class" or text == "interface":
                raise self.fail("local class declaration")
            if text == "for":
                return self.for_stmt()
            if text == "switch":
                return self.switch_stmt()
            if text == "return":
                self.next()
                value = None if self.at(";") else self.expr()
                self.expect(";", "after return statement")
                return ast.ReturnStmt(value, start)
            if text == "break":
                self.next()
                if self.at_ident():
                    raise self.fail("labeled break")
                self.expect(";", "after 'break'")
                return ast.BreakStmt(start)
            if text == "continue":
                self.next()
                if self.at_ident():
                    raise self.fail("labeled continue")
                self.expect(";", "after 'continue'")
                return ast.ContinueStmt(start)
            if text == "try":
                return self.try_stmt()
        elif kind is IDENT and self.at(":", 1):
            raise self.fail("labeled statement")
        decl = self.try_local_decl()
        if decl is not None:
            return decl
        expr = self.expr()
        self.expect(";", "after expression statement")
        return ast.ExprStmt(expr, start)

    def try_local_decl(self) -> ast.LocalDecl | None:
        """Parse a local declaration if the lookahead shape matches.

        The shape is (optional 'final') type identifier followed by one of
        '=', ',', ';', '['.  Anything else backtracks to an expression
        statement; a '<' after the would-be type name backtracks too, so
        comparisons like ``a < b`` parse as expressions.
        """
        start_i = self.i
        start = self.here()
        had_final = self.accept("final")
        if not (self.texts[self.i] in PRIMITIVE_TYPES or self.at_ident()):
            if had_final:
                raise self.error("expected a type after 'final'", start)
            self.i = start_i
            return None
        try:
            ty = self.type_name("in local declaration")
        except ParseError:
            self.i = start_i
            if had_final:
                raise
            return None
        if not self.at_ident():
            self.i = start_i
            if had_final:
                raise self.error("expected a name after the type", start)
            return None
        if self.texts[self.peek(1)] not in ("=", ",", ";", "["):
            self.i = start_i
            return None
        declarators = [self.declarator("in local declaration")]
        while self.accept(","):
            declarators.append(self.declarator("in local declaration"))
        self.expect(";", "after local declaration")
        return ast.LocalDecl(ty, tuple(declarators), start)

    def if_stmt(self) -> ast.IfStmt:
        """An ``if`` statement.  Each ``else if`` arm nests in the ``other``
        of the arm before it, but the arms are parsed in a loop, so a chain
        of any length parses."""
        arms = []
        while True:
            start = self.next()  # 'if'
            self.expect("(", "after 'if'")
            cond = self.expr()
            self.expect(")", "after if condition")
            arms.append(ast.IfStmt(cond, self.stmt(), None, start))
            if not self.accept("else"):
                break
            if not self.at("if"):
                arms[-1].other = self.stmt()
                break
        for arm, other in zip(arms, arms[1:]):
            arm.other = other
        return arms[0]

    def for_stmt(self) -> ast.ForStmt:
        start = self.next()
        self.expect("(", "after 'for'")
        init: ast.LocalDecl | tuple[ast.Expr, ...] | None
        if self.at(";"):
            self.next()
            init = None
        else:
            decl = self.try_local_decl()
            if decl is not None:
                init = decl  # the ';' was consumed by the declaration parse
            else:
                exprs = [self.expr()]
                while self.accept(","):
                    exprs.append(self.expr())
                self.expect(";", "after for-initializer")
                init = tuple(exprs)
        cond = None if self.at(";") else self.expr()
        self.expect(";", "after for-condition")
        update: list[ast.Expr] = []
        if not self.at(")"):
            update.append(self.expr())
            while self.accept(","):
                update.append(self.expr())
        self.expect(")", "after for header")
        return ast.ForStmt(init, cond, tuple(update), self.stmt(), start)

    def switch_stmt(self) -> ast.SwitchStmt:
        start = self.next()
        self.expect("(", "after 'switch'")
        selector = self.expr()
        self.expect(")", "after switch selector")
        self.expect("{", "to open the switch body")
        groups: list[ast.SwitchGroup] = []
        while not self.at("}"):
            labels: list[ast.Expr | None] = []
            while self.at("case") or self.at("default"):
                default = self.at("default")
                self.next()
                labels.append(None if default else self.expr())
                self.expect(":", "after switch label")
            if not labels:
                raise self.error("expected 'case' or 'default' in switch body")
            stmts: list[ast.Stmt] = []
            while not (self.at("case") or self.at("default") or self.at("}")):
                stmts.append(self.stmt())
            groups.append(ast.SwitchGroup(tuple(labels), tuple(stmts)))
        self.next()
        return ast.SwitchStmt(selector, tuple(groups), start)

    def try_stmt(self) -> ast.TryStmt:
        start = self.next()
        body = self.block()
        catches: list[ast.CatchClause] = []
        while self.at("catch"):
            c = self.next()
            self.expect("(", "after 'catch'")
            self.accept("final")
            ptype = self.type_name("as the catch parameter type")
            pname = self.ident("as the catch parameter name")
            self.expect(")", "after catch parameter")
            catches.append(ast.CatchClause(ast.Param(ptype, pname, 0, c), self.block(), c))
        final = self.block() if self.accept("finally") else None
        if not catches and final is None:
            raise self.error("try statement needs a catch or finally", start)
        return ast.TryStmt(body, tuple(catches), final, start)

    # -- expressions ---------------------------------------------------------

    def expr(self) -> ast.Expr:
        return self.assignment()

    def assignment(self) -> ast.Expr:
        start = self.here()
        left = self.conditional()
        op = self.texts[self.i]
        if op == "->":
            raise self.fail("lambda expression")
        if op in ASSIGN_OPS:
            self.i += 1
            value = self.assignment()
            return ast.Assign(op, left, value, start)
        return left

    def conditional(self) -> ast.Expr:
        start = self.here()
        cond = self.binary(0)
        if self.accept("?"):
            then = self.expr()
            self.expect(":", "in conditional expression")
            other = self.conditional()
            return ast.Conditional(cond, then, other, start)
        return cond

    def binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing over ``_PRECEDENCE``.

        Operators from ``min_level`` up to ``ceiling`` extend the left
        operand.  After an operator of level L only levels up to L may
        follow; a right operand takes the tighter ones, and ``instanceof``,
        whose right side is a type, takes none.
        """
        start = self.here()
        left = self.unary()
        ceiling = len(_LEVELS)
        while True:
            op = self.texts[self.i]
            level = _PRECEDENCE.get(op)
            if level is None or not min_level <= level <= ceiling:
                return left
            self.i += 1
            ceiling = level
            if op == "instanceof":
                ty = self.type_name("after 'instanceof'")
                left = ast.InstanceOf(left, ty, start)
            else:
                right = self.binary(level + 1)
                left = ast.Binary(op, left, right, start)

    def unary(self) -> ast.Expr:
        start = self.here()
        op = self.texts[self.i]
        if op in ("+", "-", "!", "~", "++", "--"):
            self.i += 1
            return ast.Unary(op, self.unary(), True, start)
        if op == "(" and self.cast_ahead():
            self.next()
            ty = self.type_name("in cast")
            self.expect(")", "after cast type")
            return ast.Cast(ty, self.unary(), start)
        return self.postfix()

    def cast_ahead(self) -> bool:
        """Decide '(' opens a cast: '(' type ')' then a unary-start token."""
        texts, kinds, peek = self.texts, self.kinds, self.peek
        k = 1
        text = texts[peek(k)]
        if text in PRIMITIVE_TYPES and text != "void":
            primitive = True
        elif kinds[peek(k)] is IDENT:
            primitive = False
        else:
            return False
        k += 1
        if not primitive:
            while texts[peek(k)] == "." and kinds[peek(k + 1)] is IDENT:
                k += 2
        dims = 0
        while texts[peek(k)] == "[" and texts[peek(k + 1)] == "]":
            k += 2
            dims += 1
        if texts[peek(k)] != ")":
            return False
        after, after_kind = texts[peek(k + 1)], kinds[peek(k + 1)]
        if primitive or dims:
            return after != ")"  # '(int)' must still be followed by something
        if after_kind is IDENT or after_kind in _LITERAL_KINDS:
            return True
        if after in ("this", "super", "new", "true", "false", "null"):
            return True
        return after in ("(", "!", "~")

    def postfix(self) -> ast.Expr:
        expr = self.primary()
        texts = self.texts
        while True:
            i = self.i
            op = texts[i]
            if op == ".":
                # '.' is not EOF, so a token follows it
                after = texts[i + 1]
                if after == "this":
                    raise self.fail("qualified 'this'", self.offsets[i + 1])
                if after == "new":
                    raise self.fail("qualified class instance creation", self.offsets[i + 1])
                if after == "class":
                    raise self.fail("class literal", self.offsets[i + 1])
                self.i = i + 1
                start = self.offsets[i + 1]
                name = self.ident("after '.'")
                if self.at("("):
                    expr = ast.MethodCall(expr, name, self.arg_list(), start)
                else:
                    expr = ast.FieldAccess(expr, name, start)
            elif op == "[":
                self.i = i + 1
                index = self.expr()
                self.expect("]", "after array index")
                expr = ast.ArrayAccess(expr, index, self.offsets[i])
            elif op == "++" or op == "--":
                self.i = i + 1
                expr = ast.Unary(op, expr, False, self.offsets[i])
            else:
                return expr

    def arg_list(self) -> tuple[ast.Expr, ...]:
        self.expect("(", "to open the argument list")
        args: list[ast.Expr] = []
        if not self.at(")"):
            args.append(self.expr())
            while self.accept(","):
                args.append(self.expr())
        self.expect(")", "to close the argument list")
        return tuple(args)

    def array_init(self) -> ast.ArrayInit:
        start = self.expect("{", "to open an array initializer")
        items: list = []
        while not self.at("}"):
            items.append(self.array_init() if self.at("{") else self.expr())
            if not self.accept(","):
                break
        self.expect("}", "to close an array initializer")
        return ast.ArrayInit(tuple(items), start)

    def primary(self) -> ast.Expr:
        i = self.i
        kind = self.kinds[i]
        text = self.texts[i]
        start = self.offsets[i]
        if kind is IDENT:
            self.i = i + 1
            if self.at("("):
                return ast.MethodCall(None, text, self.arg_list(), start)
            return ast.NameExpr(text, start)
        if kind in _LITERAL_KINDS:
            self.i = i + 1
            return ast.Literal(kind, text, start)
        if kind is KEYWORD:
            if text == "true" or text == "false":
                self.i = i + 1
                return ast.Literal("boolean", text, start)
            if text == "null":
                self.i = i + 1
                return ast.Literal("null", text, start)
            if text == "this":
                self.i = i + 1
                if self.at("("):
                    return ast.ThisCtorCall(self.arg_list(), start)
                return ast.ThisExpr(start)
            if text == "super":
                self.i = i + 1
                if self.at("("):
                    return ast.SuperCtorCall(self.arg_list(), start)
                self.expect(".", "after 'super'")
                name_start = self.here()
                name = self.ident("after 'super.'")
                if self.at("("):
                    return ast.SuperMember(name, self.arg_list(), name_start)
                return ast.SuperMember(name, None, name_start)
            if text == "new":
                return self.creator()
            if text in PRIMITIVE_TYPES:
                # e.g. 'int.class'; nothing in the dialect starts this way
                raise self.fail(f"'{text}' in expression position")
        if text == "(":
            self.i = i + 1
            if self.at(")") and self.at("->", 1):
                raise self.fail("lambda expression")
            inner = self.expr()
            if self.at(",") and self._lambda_params_ahead():
                raise self.fail("lambda expression")
            self.expect(")", "to close the parenthesized expression")
            if self.at("->"):
                raise self.fail("lambda expression")
            return ast.Paren(inner, start)
        if text == "->":
            raise self.fail("lambda expression")
        if text == "@":
            raise self.fail("annotation")
        raise self.error(f"unexpected '{text or 'end of file'}' in expression")

    def _lambda_params_ahead(self) -> bool:
        """From inside '(...', does the matching ')' lead into '->'?"""
        depth = 1
        k = 0
        while True:
            j = self.peek(k)
            if self.kinds[j] is EOF:
                return False
            text = self.texts[j]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    return self.at("->", k + 1)
            k += 1

    def creator(self) -> ast.Expr:
        start = self.next()  # 'new'
        type_start = self.here()
        text = self.texts[self.i]
        if text in PRIMITIVE_TYPES and text != "void":
            self.next()
            return self.array_creator(ast.TypeName(text, 0, type_start), start)
        name = self.qualified_name("after 'new'")
        if self.at("<"):
            raise self.fail("generic type arguments")
        ty = ast.TypeName(name, 0, type_start)
        if self.at("["):
            return self.array_creator(ty, start)
        args = self.arg_list()
        body = None
        if self.at("{"):
            body = ast.TypeDeclNode(
                name=None,
                kind="class",
                modifiers=(),
                extends=(),
                implements=(),
                members=(),
                pos=start,
                anonymous=True,
                anon_supertype=ty,
            )
            self.type_body(body)
        return ast.NewObject(ty, args, body, start)

    def array_creator(self, elem: ast.TypeName, start: int) -> ast.NewArray:
        dim_exprs: list[ast.Expr | None] = []
        while self.at("["):
            self.next()
            if self.at("]"):
                self.next()
                dim_exprs.append(None)
            else:
                dim_exprs.append(self.expr())
                self.expect("]", "after array dimension")
        init = self.array_init() if self.at("{") else None
        if init is None and all(d is None for d in dim_exprs):
            raise self.error("array creation needs a dimension or initializer", start)
        return ast.NewArray(elem, tuple(dim_exprs), init, start)


def _name_types(
    package: str | None, types: list[ast.TypeDeclNode], enclosing: list[int]
) -> None:
    """Set the ``qualified_name`` and ``outer`` of each of ``types``, listed
    in preorder with the index of each one's enclosing type: the one place
    that spells a nested type's name."""
    named: list[int] = []  # each type's nearest named type, by index
    # Per named type: the N of its last anonN, and its member types' names.
    anon: dict[int, tuple[int, set]] = {}
    for i, node in enumerate(types):
        up = enclosing[i]
        if up < 0:
            node.qualified_name = f"{package}.{node.name}" if package else node.name
            named.append(i)
            continue
        owner, simple = up, node.name
        if node.anonymous:
            owner = named[up]
            n, taken = anon.get(owner) or (
                0, {m.name for m in types[owner].members if isinstance(m, ast.TypeDeclNode)}
            )
            n += 1
            while f"anon{n}" in taken:
                n += 1
            anon[owner] = n, taken
            simple = f"anon{n}"
        named.append(owner if node.anonymous else i)
        node.outer = types[up].qualified_name
        node.qualified_name = f"{types[owner].qualified_name}${simple}"
