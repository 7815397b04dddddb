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

The parser names every type declaration as it meets it and lists it in
``CompilationUnit.type_decls``, in preorder: a nested type is
``Outer$Inner``, and an anonymous body is ``Outer$anonN``, numbered per
nearest named type when its body opens, after its creation arguments.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import Kind, Token, tokenize

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

#: Punctuators and keywords: the tokens the grammar names by their text.
_FIXED_KINDS = (Kind.PUNCT, Kind.KEYWORD)

_LITERAL_KINDS = {
    Kind.INT: "int",
    Kind.LONG: "long",
    Kind.FLOAT: "float",
    Kind.DOUBLE: "double",
    Kind.CHAR: "char",
    Kind.STRING: "string",
}


def parse_unit(source_text: str, file_name: str) -> ast.CompilationUnit:
    """Parse one compilation unit; raises ParseError outside the dialect."""
    parser = _Parser(tokenize(source_text, file_name), file_name)
    try:
        return parser.unit()
    except RecursionError:
        t = parser.toks[parser.pos]
        raise ParseError(file_name, t.line, t.col, "nesting too deep to parse") from None


class _Parser:
    def __init__(self, tokens: list[Token], file_name: str):
        self.toks = tokens
        self.pos = 0
        self.file = file_name
        # Type declarations in preorder, the package prefix of their names,
        # the innermost enclosing type's qualified name, and the nearest
        # named type's [qualified name, anonymous bodies numbered so far].
        self.types: list[ast.TypeDeclNode] = []
        self.prefix = ""
        self.outer: str | None = None
        self.named: list | None = None

    # -- token plumbing ----------------------------------------------------
    # ``pos`` never moves past the EOF token, so ``toks[pos]`` is always the
    # current token; only lookahead (``k`` > 0) needs clamping.

    def peek(self, k: int) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def at(self, text: str, k: int = 0) -> bool:
        t = self.peek(k) if k else self.toks[self.pos]
        return t.text == text and t.kind in _FIXED_KINDS

    def at_ident(self, k: int = 0) -> bool:
        t = self.peek(k) if k else self.toks[self.pos]
        return t.kind is Kind.IDENT

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind is not Kind.EOF:
            self.pos += 1
        return t

    def accept(self, text: str) -> Token | None:
        t = self.toks[self.pos]
        if t.text == text and t.kind in _FIXED_KINDS:
            self.pos += 1  # never EOF: its text is empty
            return t
        return None

    def expect(self, text: str, context: str) -> Token:
        t = self.toks[self.pos]
        if t.text == text and t.kind in _FIXED_KINDS:
            self.pos += 1
            return t
        got = t.text or "end of file"
        raise ParseError(self.file, t.line, t.col, f"expected '{text}' {context}, got '{got}'")

    def span(self, tok: Token | None = None) -> ast.Span:
        t = tok or self.toks[self.pos]
        return ast.Span(self.file, t.line, t.col)

    def fail(self, construct: str, tok: Token | None = None) -> ParseError:
        t = tok or self.toks[self.pos]
        return ParseError(self.file, t.line, t.col, f"{construct} is outside the analyzed dialect")

    # -- unit and declarations ---------------------------------------------

    def unit(self) -> ast.CompilationUnit:
        package = None
        if self.at("package"):
            self.next()
            package = self.qualified_name("in package declaration")
            self.expect(";", "after package declaration")
            self.prefix = package + "."
        imports: list[ast.ImportDecl] = []
        while self.at("import"):
            start = self.next()
            name = self.ident("after import").text
            on_demand = False
            while self.accept("."):
                if self.accept("*"):
                    on_demand = True
                    break
                name += "." + self.ident("in import name").text
            self.expect(";", "after import declaration")
            imports.append(ast.ImportDecl(name, on_demand, self.span(start)))
        types: list[ast.TypeDeclNode] = []
        while self.toks[self.pos].kind is not Kind.EOF:
            if self.accept(";"):
                continue
            types.append(self.type_decl())
        return ast.CompilationUnit(package, imports, types, self.file, self.types)

    def qualified_name(self, context: str) -> str:
        name = self.ident(context).text
        while self.at(".") and self.at_ident(1):
            self.next()
            name += "." + self.next().text
        return name

    def ident(self, context: str) -> Token:
        t = self.toks[self.pos]
        if t.kind is not Kind.IDENT:
            if t.text == "@":
                raise self.fail("annotation")
            raise ParseError(
                self.file, t.line, t.col, f"expected identifier {context}, got '{t.text or 'eof'}'"
            )
        self.pos += 1
        return t

    def modifiers(self) -> list[str]:
        mods: list[str] = []
        while True:
            t = self.toks[self.pos]
            if t.kind is Kind.KEYWORD and t.text in MODIFIER_WORDS:
                # 'static {' and 'synchronized (' open blocks, not modifiers
                if t.text == "static" and self.at("{", 1):
                    return mods
                mods.append(self.next().text)
            elif t.text == "@":
                raise self.fail("annotation")
            else:
                return mods

    def type_decl(self) -> ast.TypeDeclNode:
        mods = self.modifiers()
        start = self.toks[self.pos]
        if self.at("class"):
            kind = "class"
        elif self.at("interface"):
            kind = "interface"
        else:
            raise ParseError(
                self.file,
                start.line,
                start.col,
                f"expected a type declaration, got '{start.text or 'eof'}'",
            )
        self.next()
        name = self.ident("after 'class'" if kind == "class" else "after 'interface'").text
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
            extends=extends,
            implements=implements,
            members=[],
            span=self.span(start),
        )
        qualified_name = self.prefix + name if self.outer is None else f"{self.outer}${name}"
        self.type_body(node, qualified_name, [qualified_name, 0])
        return node

    def type_body(self, node: ast.TypeDeclNode, qualified_name: str, named: list) -> None:
        """Name and list ``node``, then parse its body into its members;
        ``named`` is the nearest named type's entry (see ``__init__``)."""
        node.qualified_name = qualified_name
        node.outer = self.outer
        self.types.append(node)
        outer, outer_named = self.outer, self.named
        self.outer, self.named = qualified_name, named
        node.members = self.class_body(node.name)
        self.outer, self.named = outer, outer_named

    def class_body(self, type_name: str | None) -> list:
        self.expect("{", "to open the type body")
        members: list = []
        while not self.at("}"):
            t = self.toks[self.pos]
            if t.kind is Kind.EOF:
                raise ParseError(self.file, t.line, t.col, "unclosed type body")
            if self.accept(";"):
                continue
            members.append(self.member(type_name))
        self.next()  # }
        return members

    def member(self, type_name: str | None):
        start = self.toks[self.pos]
        start_pos = self.pos
        # initializer blocks: '{' or 'static {'
        if self.at("{"):
            return ast.InitBlock(False, self.block(), self.span(start))
        if self.at("static") and self.at("{", 1):
            self.next()
            return ast.InitBlock(True, self.block(), self.span(start))
        mods = self.modifiers()
        t = self.toks[self.pos]
        if t.kind is Kind.KEYWORD and (t.text == "class" or t.text == "interface"):
            self.pos = start_pos
            return self.type_decl()
        # constructor: Name '(' where Name is the declared type's simple name
        if t.kind is Kind.IDENT and t.text == type_name and self.at("(", 1):
            name_tok = self.next()
            params = self.param_list()
            self.skip_throws()
            body = self.block() if self.at("{") else self.no_body("constructor")
            return ast.MethodDecl(mods, None, name_tok.text, params, body, True, self.span(start))
        ret = self.type_name("as a member type", allow_void=True)
        name_tok = self.ident("as the member name")
        if self.at("("):
            params = self.param_list()
            self.skip_throws()
            if self.at("{"):
                body = self.block()
            else:
                self.expect(";", "after abstract method declaration")
                body = None
            return ast.MethodDecl(
                mods, ret, name_tok.text, params, body, False, self.span(start)
            )
        declarators = [self.declarator(name_tok)]
        while self.accept(","):
            declarators.append(self.declarator(self.ident("in field declaration")))
        self.expect(";", "after field declaration")
        return ast.FieldDecl(mods, ret, declarators, self.span(start))

    def no_body(self, what: str):
        self.expect(";", f"after {what} declaration")
        return None

    def skip_throws(self) -> None:
        if self.accept("throws"):
            self.qualified_name("in throws clause")
            while self.accept(","):
                self.qualified_name("in throws clause")

    def param_list(self) -> list[ast.Param]:
        self.expect("(", "to open the parameter list")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                start = self.toks[self.pos]
                self.accept("final")
                ptype = self.type_name("as a parameter type")
                name = self.ident("as the parameter name").text
                extra = 0
                while self.accept("["):
                    self.expect("]", "in parameter array declarator")
                    extra += 1
                params.append(ast.Param(ptype, name, extra, self.span(start)))
                if not self.accept(","):
                    break
        self.expect(")", "to close the parameter list")
        return params

    def declarator(self, name_tok: Token) -> ast.Declarator:
        extra = 0
        while self.accept("["):
            self.expect("]", "in array declarator")
            extra += 1
        init = None
        if self.accept("="):
            init = self.array_init() if self.at("{") else self.expr()
        return ast.Declarator(name_tok.text, extra, init, ast.Span(self.file, name_tok.line, name_tok.col))

    def type_name(self, context: str, allow_void: bool = False) -> ast.TypeName:
        t = self.toks[self.pos]
        if t.kind is Kind.KEYWORD and t.text in PRIMITIVE_TYPES:
            if t.text == "void" and not allow_void:
                raise ParseError(self.file, t.line, t.col, f"'void' is not allowed {context}")
            self.next()
            name = t.text
        else:
            name = self.qualified_name(context)
        if self.at("<"):
            raise self.fail("generic type arguments")
        dims = 0
        while self.at("[") and self.at("]", 1):
            self.next()
            self.next()
            dims += 1
        return ast.TypeName(name, dims, ast.Span(self.file, t.line, t.col))

    # -- statements ----------------------------------------------------------

    def block(self) -> ast.Block:
        start = self.expect("{", "to open a block")
        stmts: list[ast.Stmt] = []
        while not self.at("}"):
            if self.toks[self.pos].kind is Kind.EOF:
                raise ParseError(self.file, start.line, start.col, "unclosed block")
            stmts.append(self.stmt())
        self.next()
        return ast.Block(stmts, self.span(start))

    def stmt(self) -> ast.Stmt:
        t = self.toks[self.pos]
        # Only a keyword or punctuator can open the statements tested here.
        if t.kind is Kind.KEYWORD or t.kind is Kind.PUNCT:
            text = t.text
            if text == "{":
                return self.block()
            if text == ";":
                self.pos += 1
                return ast.EmptyStmt(self.span(t))
            if text == "if":
                self.next()
                self.expect("(", "after 'if'")
                cond = self.expr()
                self.expect(")", "after if condition")
                then = self.stmt()
                other = self.stmt() if self.accept("else") else None
                return ast.IfStmt(cond, then, other, self.span(t))
            if text == "while":
                self.next()
                self.expect("(", "after 'while'")
                cond = self.expr()
                self.expect(")", "after while condition")
                return ast.WhileStmt(cond, self.stmt(), self.span(t))
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
                return ast.ReturnStmt(value, self.span(t))
            if text == "break":
                self.next()
                if self.at_ident():
                    raise self.fail("labeled break")
                self.expect(";", "after 'break'")
                return ast.BreakStmt(self.span(t))
            if text == "continue":
                self.next()
                if self.at_ident():
                    raise self.fail("labeled continue")
                self.expect(";", "after 'continue'")
                return ast.ContinueStmt(self.span(t))
            if text == "try":
                return self.try_stmt()
        elif t.kind is Kind.IDENT and self.at(":", 1):
            raise self.fail("labeled statement")
        decl = self.try_local_decl()
        if decl is not None:
            return decl
        expr = self.expr()
        self.expect(";", "after expression statement")
        return ast.ExprStmt(expr, self.span(t))

    def try_local_decl(self) -> ast.LocalDecl | None:
        """Parse a local declaration if the lookahead shape matches.

        The shape is (optional 'final') type identifier followed by one of
        '=', ',', ';', '['.  Anything else backtracks to an expression
        statement; a '<' after the would-be type name backtracks too, so
        comparisons like ``a < b`` parse as expressions.
        """
        start_pos = self.pos
        t = self.toks[self.pos]
        had_final = bool(self.accept("final"))
        is_primitive = t.kind is Kind.KEYWORD and self.toks[self.pos].text in PRIMITIVE_TYPES
        if not (is_primitive or self.at_ident()):
            if had_final:
                raise ParseError(self.file, t.line, t.col, "expected a type after 'final'")
            self.pos = start_pos
            return None
        try:
            ty = self.type_name("in local declaration")
        except ParseError:
            self.pos = start_pos
            if had_final:
                raise
            return None
        if not self.at_ident():
            self.pos = start_pos
            if had_final:
                raise ParseError(self.file, t.line, t.col, "expected a name after the type")
            return None
        name_tok = self.toks[self.pos]
        follower = self.peek(1).text
        if follower not in ("=", ",", ";", "["):
            self.pos = start_pos
            return None
        self.next()
        declarators = [self.declarator(name_tok)]
        while self.accept(","):
            declarators.append(self.declarator(self.ident("in local declaration")))
        self.expect(";", "after local declaration")
        return ast.LocalDecl(ty, declarators, ast.Span(self.file, t.line, t.col))

    def for_stmt(self) -> ast.ForStmt:
        start = self.next()
        self.expect("(", "after 'for'")
        init: ast.LocalDecl | list[ast.Expr] | None
        if self.at(";"):
            self.next()
            init = None
        else:
            decl = self.try_local_decl_in_for()
            if decl is not None:
                init = decl  # the ';' was consumed by the declaration parse
            else:
                init = [self.expr()]
                while self.accept(","):
                    init.append(self.expr())
                self.expect(";", "after for-initializer")
        cond = None if self.at(";") else self.expr()
        self.expect(";", "after for-condition")
        update: list[ast.Expr] = []
        if not self.at(")"):
            update.append(self.expr())
            while self.accept(","):
                update.append(self.expr())
        self.expect(")", "after for header")
        return ast.ForStmt(init, cond, update, self.stmt(), self.span(start))

    def try_local_decl_in_for(self) -> ast.LocalDecl | None:
        saved = self.pos
        decl = self.try_local_decl()
        if decl is None:
            self.pos = saved
        return decl

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
                if self.next().text == "case":
                    labels.append(self.expr())
                else:
                    labels.append(None)
                self.expect(":", "after switch label")
            if not labels:
                t = self.toks[self.pos]
                raise ParseError(
                    self.file, t.line, t.col, "expected 'case' or 'default' in switch body"
                )
            stmts: list[ast.Stmt] = []
            while not (self.at("case") or self.at("default") or self.at("}")):
                stmts.append(self.stmt())
            groups.append(ast.SwitchGroup(labels, stmts))
        self.next()
        return ast.SwitchStmt(selector, groups, self.span(start))

    def try_stmt(self) -> ast.TryStmt:
        start = self.next()
        body = self.block()
        catches: list[ast.CatchClause] = []
        while self.at("catch"):
            c = self.next()
            self.expect("(", "after 'catch'")
            self.accept("final")
            ptype = self.type_name("as the catch parameter type")
            pname = self.ident("as the catch parameter name").text
            self.expect(")", "after catch parameter")
            catches.append(
                ast.CatchClause(ast.Param(ptype, pname, 0, self.span(c)), self.block(), self.span(c))
            )
        final = self.block() if self.accept("finally") else None
        if not catches and final is None:
            raise ParseError(
                self.file, start.line, start.col, "try statement needs a catch or finally"
            )
        return ast.TryStmt(body, catches, final, self.span(start))

    # -- expressions ---------------------------------------------------------

    def expr(self) -> ast.Expr:
        return self.assignment()

    def assignment(self) -> ast.Expr:
        start = self.toks[self.pos]
        left = self.conditional()
        t = self.toks[self.pos]
        if t.text == "->":
            raise self.fail("lambda expression", t)
        if t.kind is Kind.PUNCT and t.text in ASSIGN_OPS:
            self.next()
            value = self.assignment()
            return ast.Assign(t.text, left, value, self.span(start))
        return left

    def conditional(self) -> ast.Expr:
        start = self.toks[self.pos]
        cond = self.binary(0)
        if self.accept("?"):
            then = self.expr()
            self.expect(":", "in conditional expression")
            other = self.conditional()
            return ast.Conditional(cond, then, other, self.span(start))
        return cond

    def binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing over ``_PRECEDENCE``.

        Operators from ``min_level`` up to ``ceiling`` extend the left
        operand.  After an operator of level L only levels up to L may
        follow; a right operand takes the tighter ones, and ``instanceof``,
        whose right side is a type, takes none.
        """
        start = self.toks[self.pos]
        left = self.unary()
        ceiling = len(_LEVELS)
        while True:
            t = self.toks[self.pos]
            level = _PRECEDENCE.get(t.text)
            if (
                level is None
                or not min_level <= level <= ceiling
                or t.kind not in _FIXED_KINDS
            ):
                return left
            self.pos += 1
            ceiling = level
            if t.text == "instanceof":
                ty = self.type_name("after 'instanceof'")
                left = ast.InstanceOf(left, ty, self.span(start))
            else:
                right = self.binary(level + 1)
                left = ast.Binary(t.text, left, right, self.span(start))

    def unary(self) -> ast.Expr:
        t = self.toks[self.pos]
        if t.text in ("+", "-", "!", "~", "++", "--") and t.kind is Kind.PUNCT:
            self.next()
            return ast.Unary(t.text, self.unary(), True, self.span(t))
        if self.at("(") and self.cast_ahead():
            self.next()
            ty = self.type_name("in cast")
            self.expect(")", "after cast type")
            return ast.Cast(ty, self.unary(), self.span(t))
        return self.postfix()

    def cast_ahead(self) -> bool:
        """Decide '(' opens a cast: '(' type ')' then a unary-start token."""
        k = 1
        t = self.peek(k)
        if t.kind is Kind.KEYWORD and t.text in PRIMITIVE_TYPES and t.text != "void":
            primitive = True
        elif t.kind is Kind.IDENT:
            primitive = False
        else:
            return False
        k += 1
        if not primitive:
            while self.peek(k).text == "." and self.peek(k + 1).kind is Kind.IDENT:
                k += 2
        dims = 0
        while self.peek(k).text == "[" and self.peek(k + 1).text == "]":
            k += 2
            dims += 1
        if self.peek(k).text != ")":
            return False
        after = self.peek(k + 1)
        if primitive or dims:
            return after.text != ")"  # '(int)' must still be followed by something
        if after.kind in (Kind.IDENT, Kind.INT, Kind.LONG, Kind.FLOAT, Kind.DOUBLE, Kind.CHAR, Kind.STRING):
            return True
        if after.kind is Kind.KEYWORD and after.text in ("this", "super", "new", "true", "false", "null"):
            return True
        return after.text in ("(", "!", "~")

    def postfix(self) -> ast.Expr:
        expr = self.primary()
        while True:
            t = self.toks[self.pos]
            if t.kind is not Kind.PUNCT:
                return expr
            if t.text == ".":
                nxt = self.peek(1)
                if nxt.kind is Kind.KEYWORD and nxt.text == "this":
                    raise self.fail("qualified 'this'", nxt)
                if nxt.kind is Kind.KEYWORD and nxt.text == "new":
                    raise self.fail("qualified class instance creation", nxt)
                if nxt.kind is Kind.KEYWORD and nxt.text == "class":
                    raise self.fail("class literal", nxt)
                self.pos += 1
                name = self.ident("after '.'")
                if self.at("("):
                    args = self.arg_list()
                    expr = ast.MethodCall(expr, name.text, args, self.span(name))
                else:
                    expr = ast.FieldAccess(expr, name.text, self.span(name))
            elif t.text == "[":
                self.pos += 1
                index = self.expr()
                self.expect("]", "after array index")
                expr = ast.ArrayAccess(expr, index, self.span(t))
            elif t.text == "++" or t.text == "--":
                self.pos += 1
                expr = ast.Unary(t.text, expr, False, self.span(t))
            else:
                return expr

    def arg_list(self) -> list[ast.Expr]:
        self.expect("(", "to open the argument list")
        args: list[ast.Expr] = []
        if not self.at(")"):
            args.append(self.expr())
            while self.accept(","):
                args.append(self.expr())
        self.expect(")", "to close the argument list")
        return args

    def array_init(self) -> ast.ArrayInit:
        start = self.expect("{", "to open an array initializer")
        items: list = []
        while not self.at("}"):
            items.append(self.array_init() if self.at("{") else self.expr())
            if not self.accept(","):
                break
        self.expect("}", "to close an array initializer")
        return ast.ArrayInit(items, self.span(start))

    def primary(self) -> ast.Expr:
        t = self.toks[self.pos]
        if t.kind in _LITERAL_KINDS:
            self.next()
            return ast.Literal(_LITERAL_KINDS[t.kind], t.text, self.span(t))
        if t.kind is Kind.KEYWORD:
            if t.text in ("true", "false"):
                self.next()
                return ast.Literal("boolean", t.text, self.span(t))
            if t.text == "null":
                self.next()
                return ast.Literal("null", t.text, self.span(t))
            if t.text == "this":
                self.next()
                if self.at("("):
                    return ast.ThisCtorCall(self.arg_list(), self.span(t))
                return ast.ThisExpr(self.span(t))
            if t.text == "super":
                self.next()
                if self.at("("):
                    return ast.SuperCtorCall(self.arg_list(), self.span(t))
                self.expect(".", "after 'super'")
                name = self.ident("after 'super.'")
                if self.at("("):
                    return ast.SuperMember(name.text, self.arg_list(), self.span(name))
                return ast.SuperMember(name.text, None, self.span(name))
            if t.text == "new":
                return self.creator()
            if t.text in PRIMITIVE_TYPES:
                # e.g. 'int.class'; nothing in the dialect starts this way
                raise self.fail(f"'{t.text}' in expression position")
        if self.at("("):
            self.next()
            if self.at(")") and self.peek(1).text == "->":
                raise self.fail("lambda expression")
            inner = self.expr()
            if self.at(",") and self._lambda_params_ahead():
                raise self.fail("lambda expression")
            self.expect(")", "to close the parenthesized expression")
            if self.at("->"):
                raise self.fail("lambda expression")
            return ast.Paren(inner, self.span(t))
        if t.text == "->":
            raise self.fail("lambda expression")
        if t.text == "@":
            raise self.fail("annotation")
        if t.kind is Kind.IDENT:
            self.next()
            if self.at("("):
                return ast.MethodCall(None, t.text, self.arg_list(), self.span(t))
            return ast.NameExpr(t.text, self.span(t))
        raise ParseError(
            self.file, t.line, t.col, f"unexpected '{t.text or 'end of file'}' in expression"
        )

    def _lambda_params_ahead(self) -> bool:
        """From inside '(...', does the matching ')' lead into '->'?"""
        depth = 1
        k = 0
        while True:
            tok = self.peek(k)
            if tok.kind is Kind.EOF:
                return False
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
                if depth == 0:
                    return self.peek(k + 1).text == "->"
            k += 1

    def creator(self) -> ast.Expr:
        start = self.next()  # 'new'
        t = self.toks[self.pos]
        if t.kind is Kind.KEYWORD and t.text in PRIMITIVE_TYPES and t.text != "void":
            self.next()
            elem = ast.TypeName(t.text, 0, self.span(t))
            return self.array_creator(elem, start)
        name = self.qualified_name("after 'new'")
        if self.at("<"):
            raise self.fail("generic type arguments")
        ty = ast.TypeName(name, 0, ast.Span(self.file, t.line, t.col))
        if self.at("["):
            return self.array_creator(ty, start)
        args = self.arg_list()
        body = None
        if self.at("{"):
            body = ast.TypeDeclNode(
                name=None,
                kind="class",
                modifiers=[],
                extends=[],
                implements=[],
                members=[],
                span=self.span(start),
                anonymous=True,
                anon_supertype=ty,
            )
            named = self.named
            named[1] += 1
            self.type_body(body, f"{named[0]}$anon{named[1]}", named)
        return ast.NewObject(ty, args, body, self.span(start))

    def array_creator(self, elem: ast.TypeName, start: Token) -> ast.NewArray:
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
            raise ParseError(
                self.file, start.line, start.col, "array creation needs a dimension or initializer"
            )
        return ast.NewArray(elem, dim_exprs, init, ast.Span(self.file, start.line, start.col))

