"""Parser coverage: dialect acceptance, rejection messages, tree shapes."""

import pytest

from demeterlint.javafront import ParseError, parse_unit
from demeterlint.javafront import ast


def parse(src: str):
    return parse_unit(src, "T.java")


class TestDeclarations:
    def test_empty_class(self):
        unit = parse("class A{}")
        assert len(unit.types) == 1
        assert unit.types[0].name == "A"
        assert unit.types[0].members == ()

    def test_package_and_imports(self):
        unit = parse(
            "package p.q;\nimport java.awt.*;\nimport java.util.Vector;\nclass A{}"
        )
        assert unit.package == "p.q"
        assert unit.imports[0].on_demand and unit.imports[0].name == "java.awt"
        assert not unit.imports[1].on_demand and unit.imports[1].name == "java.util.Vector"

    def test_extends_implements(self):
        unit = parse("class A extends B implements C, D {}")
        t = unit.types[0]
        assert [x.name for x in t.extends] == ["B"]
        assert [x.name for x in t.implements] == ["C", "D"]

    def test_interface_multi_extends(self):
        t = parse("interface I extends A, B { void m(); }").types[0]
        assert t.kind == "interface"
        assert [x.name for x in t.extends] == ["A", "B"]
        assert t.members[0].body is None

    def test_listing1_shape(self, corpus):
        src = corpus["listing1"].java_files[0].read_text()
        unit = parse_unit(src, "TriangleFigure.java")
        t = unit.types[0]
        assert t.name == "TriangleFigure"
        fields = [m for m in t.members if isinstance(m, ast.FieldDecl)]
        methods = [m for m in t.members if isinstance(m, ast.MethodDecl)]
        assert len(fields) == 1 and len(methods) == 1
        assert fields[0].declarators[0].init is not None

    def test_whole_corpus_parses(self, corpus):
        for case in corpus.values():
            for path in case.java_files:
                unit = parse_unit(path.read_text(), path.name)
                assert unit.types

    def test_field_multi_declarators(self):
        t = parse("class A { int a, b = 1, c; }").types[0]
        decls = t.members[0].declarators
        assert [d.name for d in decls] == ["a", "b", "c"]
        assert decls[1].init is not None and decls[0].init is None

    def test_constructor_recognized(self):
        t = parse("class A { A(int x) { } void A(int x) { } }").types[0]
        assert t.members[0].is_ctor and not t.members[1].is_ctor

    def test_initializer_blocks(self):
        t = parse("class A { static { int x; } { int y; } }").types[0]
        assert t.members[0].static and not t.members[1].static

    def test_array_parameter_styles(self):
        t = parse("class A { void m(int[] a, String b[]) { } }").types[0]
        params = t.members[0].params
        assert params[0].type.dims == 1 and params[0].extra_dims == 0
        assert params[1].type.dims == 0 and params[1].extra_dims == 1
        assert params[1].written_type == "String[]"

    def test_throws_clause_skipped(self):
        t = parse("class A { void m() throws java.io.IOException, E { } }").types[0]
        assert t.members[0].name == "m"

    def test_anonymous_class_body(self):
        t = parse(
            "class A { void m() { f(new Runnable() { public void run() { } }); } }"
        ).types[0]
        call = t.members[0].body.stmts[0].expr
        anon = call.args[0]
        assert isinstance(anon, ast.NewObject) and anon.body is not None
        assert anon.body.anonymous and anon.body.anon_supertype.name == "Runnable"

    def test_nested_named_class(self):
        t = parse("class A { class B { int f; } }").types[0]
        inner = t.members[0]
        assert isinstance(inner, ast.TypeDeclNode) and inner.name == "B"


class TestStatements:
    def body(self, stmts: str):
        return parse("class A { void m() { " + stmts + " } }").types[0].members[0].body.stmts

    def test_if_else_while_return(self):
        stmts = self.body("if (a) return 1; else while (b) return; return;")
        assert isinstance(stmts[0], ast.IfStmt)
        assert isinstance(stmts[0].other, ast.WhileStmt)

    def test_else_if_arms_nest_and_else_binds_to_the_nearest_if(self):
        (first,) = self.body("if (a) x(); else if (b) if (c) y(); else z(); else if (d) { }")
        second = first.other
        assert [s.cond.name for s in (first, second, second.then)] == ["a", "b", "c"]
        assert isinstance(second.then.other, ast.ExprStmt)
        assert second.other.cond.name == "d" and second.other.other is None

    def test_for_variants(self):
        stmts = self.body("for (int i = 0, j = 1; i < j; i++, j--) f(); for (;;) break;")
        first, second = stmts
        assert isinstance(first.init, ast.LocalDecl) and len(first.init.declarators) == 2
        assert len(first.update) == 2
        assert second.init is None and second.cond is None

    def test_switch_groups(self):
        stmts = self.body("switch (x) { case 0: case 1: f(); break; default: g(); }")
        sw = stmts[0]
        assert len(sw.groups) == 2
        assert len(sw.groups[0].labels) == 2
        assert sw.groups[1].labels == (None,)

    def test_try_catch_finally(self):
        stmts = self.body("try { f(); } catch (E e) { g(); } finally { h(); }")
        t = stmts[0]
        assert len(t.catches) == 1 and t.catches[0].param.name == "e"
        assert t.final is not None

    def test_local_vs_expression_disambiguation(self):
        stmts = self.body("a.b.c(); x = y; A b = c; a[0] = 1; A[] d; a < b;")
        kinds = [type(s).__name__ for s in stmts]
        assert kinds == [
            "ExprStmt", "ExprStmt", "LocalDecl", "ExprStmt", "LocalDecl", "ExprStmt",
        ]

    def test_empty_statement(self):
        assert isinstance(self.body(";")[0], ast.EmptyStmt)


class TestExpressions:
    def expr(self, text: str):
        return parse("class A { void m() { x = " + text + "; } }").types[0].members[0].body.stmts[0].expr.value

    def test_cast_vs_paren(self):
        cast = self.expr("(Handle) k.nextElement()")
        assert isinstance(cast, ast.Cast) and cast.type.name == "Handle"
        paren = self.expr("(a) + b")
        assert isinstance(paren, ast.Binary) and isinstance(paren.left, ast.Paren)

    def test_double_paren_cast(self):
        e = self.expr("((TriangleFigure)(owner())).hashCode()")
        assert isinstance(e, ast.MethodCall)
        inner = e.target.expr
        assert isinstance(inner, ast.Cast)

    def test_qualified_type_cast(self):
        e = self.expr("(java.awt.Point) p")
        assert isinstance(e, ast.Cast) and e.type.name == "java.awt.Point"

    def test_new_array_forms(self):
        e = self.expr("new int[5]")
        assert isinstance(e, ast.NewArray) and len(e.dim_exprs) == 1
        e = self.expr("new String[] { \"a\", \"b\" }")
        assert e.init is not None

    def test_conditional_instanceof_concat(self):
        e = self.expr("a instanceof B ? \"x\" + c : d")
        assert isinstance(e, ast.Conditional)
        assert isinstance(e.cond, ast.InstanceOf)

    def test_array_length_chain(self):
        e = self.expr("fonts.length")
        assert isinstance(e, ast.FieldAccess) and e.name == "length"

    def test_super_member(self):
        stmts = parse("class A { void m() { super.f(); x = super.g; } }").types[0].members[0].body.stmts
        assert isinstance(stmts[0].expr, ast.SuperMember) and stmts[0].expr.args == ()
        assert stmts[1].expr.value.args is None

    def test_explicit_ctor_calls(self):
        t = parse("class A { A() { super(1); } A(int x) { this(); } }").types[0]
        assert isinstance(t.members[0].body.stmts[0].expr, ast.SuperCtorCall)
        assert isinstance(t.members[1].body.stmts[0].expr, ast.ThisCtorCall)


class TestRejections:
    @pytest.mark.parametrize(
        "src,needle",
        [
            ("class A { java.util.List<String> f; }", "generic"),
            ("class A<T> { }", "generic"),
            ("class A { void m() { do { } while (x); } }", "do-while"),
            ("class A { void m() { throw e; } }", "throw"),
            ("class A { void m() { synchronized (x) { } } }", "synchronized"),
            ("class A { void m() { Runnable r = () -> x; } }", "lambda"),
            ("@Deprecated class A { }", "annotation"),
            ("class A { void m() { class B { } } }", "local class"),
            ("class A { void m() { loop: while (x) break loop; } }", "labeled"),
            ("class A { void m() { x = A.class; } }", "class literal"),
            ("class A { void m() { x = B.this; } }", "qualified 'this'"),
        ],
    )
    def test_named_construct(self, src, needle):
        with pytest.raises(ParseError) as e:
            parse(src)
        assert needle in str(e.value)
        assert str(e.value).startswith("E-PARSE: T.java:")

    def test_char_literal_cut_at_end_of_file(self):
        with pytest.raises(ParseError) as e:
            parse("class A { char c = '\\")
        assert (e.value.line, e.value.col) == (1, 20)
        assert e.value.message == "unterminated character literal"

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as e:
            parse("class A {\n  void m() {\n    do { } while(x);\n  }\n}")
        assert e.value.line == 3
