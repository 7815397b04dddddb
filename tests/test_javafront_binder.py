"""Binder coverage: table construction, executables, sites, provenance."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demeterlint.codemodel import (
    DeclKind,
    LoadError,
    ResolutionMode,
    TypeKind,
    TypeRef,
    TypeTable,
)
from demeterlint.javafront import BindError, bind_and_extract, build_type_table, parse_unit

from conftest import build_case_front, build_front

LENIENT = ResolutionMode.LENIENT


def front(*sources: str, stubs=(), mode=ResolutionMode.STRICT):
    named = [(f"S{i}.java", s) for i, s in enumerate(sources)]
    return build_front(named, list(stubs), mode)


def by_id(executables) -> dict:
    return {ex.id: ex for ex in executables}


def site_kinds(ex) -> list[str]:
    return [s.access_kind for s in ex.body_accesses]


class TestTableConstruction:
    def test_qualified_names(self):
        table, _ = front("package p.q;\nclass A { class B { } }")
        assert table.get("p.q.A") is not None
        assert table.get("p.q.A$B") is not None

    def test_default_package(self):
        table, _ = front("class A { }")
        assert table.get("A") is not None

    def test_supertypes_resolved_through_imports(self):
        table, _ = front(
            "package p;\nimport q.*;\nclass A extends B { }",
            "package q;\npublic class B { }",
        )
        assert table.get("p.A").supertypes == (TypeRef("q.B"),)

    def test_interface_members_implicitly_public(self):
        table, _ = front("package p;\ninterface I { int C = 1; void m(); }")
        decl = table.get("p.I")
        assert decl.decl_kind is DeclKind.INTERFACE
        c, m = decl.members
        assert c.is_static and c.is_public
        assert m.is_public and not m.is_static

    def test_ctor_member(self):
        table, _ = front("package p;\nclass A { A(int x) { } }")
        ctor = table.get("p.A").members[0]
        assert ctor.name == "<init>" and ctor.declared_type == TypeRef("p.A")

    def test_anonymous_type_declared_with_supertype(self):
        table, _ = front(
            "package p;\nclass A { void m() { I r = new I() { public void f() { } }; } }\n"
            "interface I { void f(); }"
        )
        anon = table.get("p.A$anon1")
        assert anon is not None and anon.supertypes == (TypeRef("p.I"),)

    def test_anon_numbering_flat_per_named_type(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  void m() { f(new I() { public void f() { g(new I() { public void f() { } }); } }); }\n"
            "  void n() { f(new I() { public void f() { } }); }\n"
            "  void f(I i) { } void g(I i) { }\n"
            "}\n"
            "interface I { void f(); }"
        )
        table, _ = front(src)
        assert table.get("p.A$anon1") is not None
        assert table.get("p.A$anon2") is not None
        assert table.get("p.A$anon3") is not None
        assert table.get("p.A$anon1$anon2") is None

    def test_type_nodes_in_source_order_with_generated_names(self):
        # Creation arguments are numbered before the body they pass to;
        # a member type of an anonymous class starts its own numbering.
        unit = parse_unit(
            "package p;\n"
            "class A {\n"
            "  I f = new I() { public void f() { } };\n"
            "  void m() {\n"
            "    new B(new I() { public void f() { new I() { public void f() { } }; } }) {\n"
            "      class In { I g = new I() { public void f() { } }; }\n"
            "      public void f() { new I() { public void f() { } }; }\n"
            "    };\n"
            "  }\n"
            "  class Inner { void k() { new I() { public void f() { } }; } }\n"
            "}\n"
            "interface I { void f(); }\n"
            "class B { B(I i) { } void f() { } }\n",
            "A.java",
        )
        assert [n.qualified_name for n in unit.type_decls] == [
            "p.A", "p.A$anon1", "p.A$anon2", "p.A$anon3", "p.A$anon4", "p.A$anon4$In",
            "p.A$anon4$In$anon1", "p.A$anon5", "p.A$Inner", "p.A$Inner$anon1", "p.I", "p.B",
        ]

    @pytest.mark.parametrize("member_first", [True, False], ids=["before", "after"])
    def test_anonymous_body_skips_a_member_type_named_anon(self, member_first):
        member = "class anon1 { void g() { } }"
        method = "void m() { I i = new I() { }; anon1 a = null; a.g(); }"
        body = f"{member} {method}" if member_first else f"{method} {member}"
        table, exes = front(f"package p; interface I {{ }} class A {{ {body} }}")
        assert table.get("p.A$anon1").members[0].name == "g"
        assert table.get("p.A$anon2").supertypes == (TypeRef("p.I"),)
        (site,) = by_id(exes)["p.A#m()"].body_accesses
        assert site.receiver.static_type == TypeRef("p.A$anon1")

    def test_skipped_anonymous_numbers_rename_nested_types(self):
        unit = parse_unit(
            "package p;\n"
            "class A {\n"
            "  I f = new I() { class X { I y = new I() { }; } I z = new I() { }; };\n"
            "  class anon1 { }\n"
            "  class anon3 { }\n"
            "  I g = new I() { };\n"
            "}\n"
            "interface I { }\n",
            "A.java",
        )
        assert [(n.qualified_name, n.outer) for n in unit.type_decls] == [
            ("p.A", None),
            ("p.A$anon2", "p.A"),
            ("p.A$anon2$X", "p.A$anon2"),
            ("p.A$anon2$X$anon1", "p.A$anon2$X"),
            ("p.A$anon4", "p.A$anon2"),
            ("p.A$anon1", "p.A"),
            ("p.A$anon3", "p.A"),
            ("p.A$anon5", "p.A"),
            ("p.I", None),
        ]

    def test_ambiguous_on_demand_import(self):
        with pytest.raises(BindError) as e:
            front(
                "package p;\nimport q.*;\nimport r.*;\nclass A { void m(V v) { } }",
                "package q;\npublic class V { }",
                "package r;\npublic class V { }",
            )
        assert "ambiguous" in str(e.value)

    def test_unknown_type_strict_vs_lenient(self):
        with pytest.raises(BindError):
            front("package p;\nclass A { void m(Missing x) { } }")
        table, exes = front(
            "package p;\nclass A { void m(Missing x) { } }", mode=LENIENT
        )
        (param_name, param_type), = by_id(exes)["p.A#m(Missing)"].params
        assert param_type.kind is TypeKind.UNKNOWN


class TestExecutables:
    def test_ids_and_kinds(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  int f = 1;\n"
            "  int g;\n"
            "  static { }\n"
            "  { }\n"
            "  static { }\n"
            "  A(int x, String[] s) { }\n"
            "  void m(int a[]) { }\n"
            "}"
        )
        _, exes = front(src, mode=LENIENT)
        ids = [ex.id for ex in exes]
        assert ids == [
            "p.A#<field:f>",
            "p.A#<clinit>[1]",
            "p.A#<init-block>[1]",
            "p.A#<clinit>[2]",
            "p.A#<init>(int,String[])",
            "p.A#m(int[])",
        ]
        kinds = {ex.id: ex.exec_kind for ex in exes}
        assert kinds["p.A#<field:f>"] == "field-initializer"
        assert kinds["p.A#<clinit>[1]"] == "static-initializer"
        assert kinds["p.A#<init-block>[1]"] == "instance-initializer"
        assert kinds["p.A#<init>(int,String[])"] == "constructor"

    def test_uninitialized_field_no_executable(self):
        _, exes = front("package p;\nclass A { int g; }")
        assert exes == []

    def test_abstract_method_no_executable(self):
        _, exes = front("package p;\nabstract class A { abstract void m(); }")
        assert exes == []

    def test_sorted_by_position(self):
        _, exes = front(
            "package p;\nclass B { void z() { } void a() { } }",
            "package p;\nclass A { void q() { } }",
        )
        assert [ex.id for ex in exes] == ["p.B#z()", "p.B#a()", "p.A#q()"]

    def test_catch_var_becomes_param(self):
        src = (
            "package p;\n"
            "class A { void m() { try { } catch (E e) { } } }\n"
            "class E { }"
        )
        _, exes = front(src)
        ex = exes[0]
        assert ex.params == (("e", TypeRef("p.E")),)

    def test_instantiated_types(self):
        src = "package p;\nclass A { void m() { B b = new B(); int[] a = new int[3]; } }\nclass B { }"
        _, exes = front(src)
        ex = by_id(exes)["p.A#m()"]
        assert ex.instantiated_types == {TypeRef("p.B")}

    def test_downcast_params_bare_names_only(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  void m(Object o, Object q) {\n"
            "    B b = (B) o;\n"
            "    B c = (B) (q);\n"
            "    B d = (B) mk();\n"
            "    int n = (int) 0;\n"
            "  }\n"
            "  Object mk() { return null; }\n"
            "}\n"
            "class B { }"
        )
        table, exes = front(src, stubs=[], mode=LENIENT)
        ex = by_id(exes)["p.A#m(Object,Object)"]
        assert ex.downcast_param_types == {TypeRef("p.B")}


class TestSharedEmptyContainers:
    """An executable with no site or no parameter holds no container of its
    own: all such executables share the one empty tuple."""

    SRC = (
        "package p;\n"
        "class A {\n"
        "  B b; int f = 1; static { } A() { }\n"
        "  void m() { b.g(); b.g(); } void n(B x) { x.g(); } void q(int i) { }\n"
        "  void t() { try { } catch (E e) { } catch (F f) { try { } catch (E g) { } } }\n"
        "}\n"
        "class B { void g() { } }\n"
        "class E { }\n"
        "class F { }"
    )

    def test_siteless_executables_share_one_empty_tuple(self):
        _, exes = front(self.SRC)
        siteless = [ex.body_accesses for ex in exes if not ex.body_accesses]
        assert len(siteless) == 6  # all but m() and n(B)
        assert all(type(sites) is tuple for sites in siteless)
        assert len({id(sites) for sites in siteless}) == 1

    def test_parameterless_executables_share_one_empty_tuple(self):
        _, exes = front(self.SRC)
        empty = [ex.params for ex in exes if not ex.params]
        assert len(empty) == 5  # the field initializer, the static block, A(), m(), g()
        assert all(type(params) is tuple for params in empty)
        assert len({id(params) for params in empty}) == 1
        assert by_id(exes)["p.A#n(B)"].params == (("x", TypeRef("p.B")),)

    def test_catch_params_extend_params_in_source_order(self):
        _, exes = front(self.SRC)
        params = by_id(exes)["p.A#t()"].params
        assert type(params) is tuple
        assert params == (
            ("e", TypeRef("p.E")), ("f", TypeRef("p.F")), ("g", TypeRef("p.E"))
        )
        assert by_id(exes)["p.A#m()"].params == ()

    def test_first_site_makes_a_list_of_its_own(self):
        _, exes = front(self.SRC)
        m, n = by_id(exes)["p.A#m()"], by_id(exes)["p.A#n(B)"]
        assert type(m.body_accesses) is list and type(n.body_accesses) is list
        assert m.body_accesses is not n.body_accesses
        assert [s.access_kind for s in m.body_accesses] == ["field-read", "method-call"] * 2
        assert [s.site_id for s in n.body_accesses] == ["p.A#n(B)@0001"]


class TestSites:
    def test_own_member_forms(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  int f;\n"
            "  void m() { f = f + 1; this.f = 2; g(); this.g(); }\n"
            "  void g() { }\n"
            "}"
        )
        _, exes = front(src)
        ex = by_id(exes)["p.A#m()"]
        got = [(s.access_kind, s.receiver.form) for s in ex.body_accesses]
        assert got == [
            ("field-write", "this-implicit"),
            ("field-read", "this-implicit"),
            ("field-write", "this-explicit"),
            ("method-call", "this-implicit"),
            ("method-call", "this-explicit"),
        ]

    def test_site_ids_are_ordinal(self):
        _, exes = front("package p;\nclass A { int f; void m() { f = 1; f = 2; } }")
        ex = by_id(exes)["p.A#m()"]
        assert [s.site_id for s in ex.body_accesses] == [
            "p.A#m()@0001",
            "p.A#m()@0002",
        ]

    def test_compound_assignment_single_write(self):
        _, exes = front("package p;\nclass A { int f; void m() { f += 1; f++; --f; } }")
        ex = by_id(exes)["p.A#m()"]
        assert site_kinds(ex) == ["field-write", "field-write", "field-write"]

    def test_member_type_of_anonymous_body_resolves(self):
        _, exes = front(
            "package p;\ninterface I { void f(); }\n"
            "class A { void m() { I i = new I() { class In { void g() { } } "
            "public void f() { In x = new In(); x.g(); } }; } }"
        )
        (site,) = by_id(exes)["p.A$anon1#f()"].body_accesses
        assert site.member.name == "g"
        assert site.receiver.static_type == TypeRef("p.A$anon1$In")

    def test_anonymous_body_member_does_not_hide_a_name_that_resolves(self):
        # q.Point is imported and p.Box is in the package; the anonymous body
        # declares a Point and a Box of its own, which the rest of the unit
        # never means.
        table, exes = front(
            "package p;\nimport q.Point;\ninterface I { void f(); }\n"
            "class A { Point pt; Box bx; void m() { I i = new I() { class Point { } "
            "class Box { } public void f() { } }; pt.x(); bx.y(); } }",
            "package q;\npublic class Point { public void x() { } }",
            "package p;\nclass Box { void y() { } }",
        )
        pt, bx, _ = table.get("p.A").members
        assert (pt.declared_type, bx.declared_type) == (TypeRef("q.Point"), TypeRef("p.Box"))
        x, y = (s for s in by_id(exes)["p.A#m()"].body_accesses if s.access_kind == "method-call")
        assert (x.receiver.static_type, y.receiver.static_type) == (
            TypeRef("q.Point"),
            TypeRef("p.Box"),
        )

    def test_each_anonymous_body_names_its_own_member(self):
        table, exes = front(
            "package p;\ninterface I { void f(); }\n"
            "class A { void m() {"
            " I i = new I() { class In { void g() { } } In k; public void f() { new In().g(); } };"
            " I j = new I() { class In { void h() { } } public void f() { new In().h(); } };"
            " } }"
        )
        assert table.get("p.A$anon1").members[0].declared_type == TypeRef("p.A$anon1$In")
        (g,) = by_id(exes)["p.A$anon1#f()"].body_accesses
        (h,) = by_id(exes)["p.A$anon2#f()"].body_accesses
        assert (g.member.name, g.receiver.static_type) == ("g", TypeRef("p.A$anon1$In"))
        assert (h.member.name, h.receiver.static_type) == ("h", TypeRef("p.A$anon2$In"))

    def test_anonymous_body_member_is_not_named_outside_the_body(self):
        with pytest.raises(BindError) as e:
            front(
                "package p;\ninterface I { void f(); }\n"
                "class A { void m() { I i = new I() { class In { } public void f() { } };"
                " In x = null; } }"
            )
        assert "unknown type 'In'" in str(e.value)

    def test_anonymous_body_member_seen_from_a_nested_anonymous_body(self):
        _, exes = front(
            "package p;\ninterface I { void f(); }\n"
            "class A { void m() { I i = new I() { class In { void g() { } }"
            " public void f() { I j = new I() { public void f() { new In().g(); } }; } }; } }"
        )
        (g,) = by_id(exes)["p.A$anon2#f()"].body_accesses
        assert g.receiver.static_type == TypeRef("p.A$anon1$In")

    @pytest.mark.parametrize(
        "outer, header",
        [("q.Point", "import q.Point;\n"), ("p.Point", ""), ("java.lang.String", "")],
        ids=["import", "same-package", "java.lang"],
    )
    def test_anonymous_body_member_hides_an_outer_name_inside_the_body(self, outer, header):
        # Inside the body, and inside a type nested in it, the body's own
        # member is meant; outside it, the name keeps its outer meaning.
        package, name = outer.rsplit(".", 1)
        table, exes = front(
            f"package p;\n{header}interface I {{ void f(); }}\n"
            f"class A {{ {name} o; void m() {{ I i = new I() {{ class {name} {{ void z() {{ }} }} "
            f"class In {{ {name} n; }} "
            f"public void f() {{ {name} k = new {name}(); k.z(); }} }}; o.x(); }} }}",
            f"package {package};\npublic class {name} {{ public void x() {{ }} }}",
        )
        inner = TypeRef(f"p.A$anon1${name}")
        (z,) = by_id(exes)["p.A$anon1#f()"].body_accesses
        assert (z.member.name, z.receiver.static_type) == ("z", inner)
        assert table.get("p.A$anon1$In").members[0].declared_type == inner
        _, x = by_id(exes)["p.A#m()"].body_accesses
        assert (x.member.name, x.receiver.static_type) == ("x", TypeRef(outer))

    def test_member_type_name_resolves_in_enclosing_types_first(self):
        # Both A and B declare an In; each of them, and a type nested in B,
        # means its own.
        table, exes = front(
            "package p;\nclass A { class In { void a() { } } In own; void n(In y) { y.a(); } }\n"
            "class B { class In { void b() { } } void m(In x) { x.b(); }"
            " class Nest { void k(In z) { z.b(); } } }"
        )
        b_in, a_in = TypeRef("p.B$In"), TypeRef("p.A$In")
        for ident, name, expected in [
            ("p.B#m(In)", "b", b_in), ("p.B$Nest#k(In)", "b", b_in), ("p.A#n(In)", "a", a_in)
        ]:
            (site,) = by_id(exes)[ident].body_accesses
            assert (site.member.name, site.receiver.static_type) == (name, expected)
        assert table.get("p.A").members[0].declared_type == a_in

    @pytest.mark.parametrize(
        "sources, ident, name, expected",
        [
            (  # inherited from the superclass, not the unit's first In
                ["package p;\nclass C { class In { void c() { } } }\n"
                 "class A { class In { void a() { } } }\n"
                 "class B extends A { void m(In x) { x.a(); } }\n"],
                "p.B#m(In)", "a", "p.A$In",
            ),
            (  # two levels up, declared in another file
                ["package p;\nclass C { class In { void c() { } } }\n"
                 "class B extends Mid { void m(In x) { x.a(); } }\n"
                 "class Mid extends A { }\n",
                 "package p;\nclass A { class In { void a() { } } }\n"],
                "p.B#m(In)", "a", "p.A$In",
            ),
            (  # through an interface, from a type nested in the heir
                ["package p;\nclass C { class In { void c() { } } }\n"
                 "interface J { class In { void j() { } } }\n"
                 "class B implements J { class Nest { void k(In z) { z.j(); } } }\n"],
                "p.B$Nest#k(In)", "j", "p.J$In",
            ),
            (  # the nearest supertype's own In hides the one it inherits
                ["package p;\nclass C { class In { void c() { } } }\n"
                 "class A { class In { void a() { } } }\n"
                 "class Mid extends A { class In { void b() { } } }\n"
                 "class B extends Mid { void m(In x) { x.b(); } }\n"],
                "p.B#m(In)", "b", "p.Mid$In",
            ),
        ],
    )
    def test_inherited_member_type(self, sources, ident, name, expected):
        _, exes = front(*sources)
        (site,) = by_id(exes)[ident].body_accesses
        assert (site.member.name, site.receiver.static_type) == (name, TypeRef(expected))
        assert site.member.declaring_type == expected

    def test_inherited_member_type_names_a_field_type(self):
        table, exes = front(
            "package p;\nclass C { class In { } }\nclass A { class In { } }\n"
            "class B extends A { In f; }\n"
        )
        assert table.get("p.B").members[0].declared_type == TypeRef("p.A$In")

    def test_member_type_of_another_type_is_not_in_scope(self):
        # J's K is in scope only inside J and its subtypes; B means the
        # package's K.
        _, exes = front(
            "package p; interface J { class K { } } class K { void f() { } } "
            "class B { void m(K y) { y.f(); } }"
        )
        (site,) = by_id(exes)["p.B#m(K)"].body_accesses
        assert (site.member.name, site.receiver.static_type) == ("f", TypeRef("p.K"))

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_supertypes_resolve_in_any_file_order(self, order):
        sources = [
            ("B.java", "package p; class B extends Mid { class D extends In { } }"),
            ("Mid.java", "package p; class Mid extends A { }"),
            ("A.java", "package p; class A { class In { } }"),
        ]
        table, _ = build_front([sources[i] for i in order])
        assert table.get("p.B$D").supertypes == (TypeRef("p.A$In"),)

    def test_single_type_import_shadows_the_package(self):
        _, exes = build_front([
            ("q/K.java", "package q; public class K { public void g() { } }"),
            ("p/K.java", "package p; class K { void f() { } }"),
            ("p/B.java", "package p; import q.K; class B { void m(K y) { y.g(); } }"),
        ])
        (site,) = by_id(exes)["p.B#m(K)"].body_accesses
        assert (site.member.name, site.receiver.static_type) == ("g", TypeRef("q.K"))

    def test_cyclic_supertypes_with_member_types_are_an_error(self):
        with pytest.raises(LoadError, match="cyclic supertypes"):
            front(
                "package p;\nclass A extends B { void m(In x) { } }\n"
                "class B extends A { class In { } }"
            )

    def test_call_chain_provenance(self):
        src = (
            "package p;\n"
            "class A { void m(B b) { b.g().h(); } }\n"
            "class B { C g() { return null; } }\n"
            "class C { void h() { } }"
        )
        _, exes = front(src)
        ex = by_id(exes)["p.A#m(B)"]
        g, h = ex.body_accesses
        assert g.receiver.static_type == TypeRef("p.B")
        assert [(s.kind, s.label) for s in g.receiver.chain] == [("parameter", "b")]
        assert h.receiver.static_type == TypeRef("p.C")
        assert [(s.kind, s.label) for s in h.receiver.chain] == [
            ("parameter", "b"),
            ("call", "g"),
        ]

    def test_long_chain_receivers_compare_and_hash(self):
        src = "class A { A b() { return this; } void m(A a) { a" + ".b()" * 5000 + "; } }"

        def last_receiver():
            return by_id(front(src)[1])["A#m(A)"].body_accesses[-1].receiver

        first, second = last_receiver(), last_receiver()
        assert first is not second and first.last is not second.last
        assert first == second and hash(first) == hash(second)
        assert len(first.chain) == 5000 and first.chain[0].kind == "parameter"

    def test_super_receiver(self):
        src = (
            "package p;\n"
            "class A { int f; void m() { } }\n"
            "class B extends A { void n() { super.m(); int x = super.f; } }"
        )
        _, exes = front(src)
        ex = by_id(exes)["p.B#n()"]
        assert [(s.access_kind, s.receiver.form, s.receiver.static_type.name) for s in ex.body_accesses] == [
            ("method-call", "super", "p.A"),
            ("field-read", "super", "p.A"),
        ]

    def test_outer_instance_access(self):
        src = (
            "package p;\n"
            "class Outer {\n"
            "  int of;\n"
            "  void om() { }\n"
            "  class Inner { void m() { of = 1; om(); } }\n"
            "}"
        )
        _, exes = front(src)
        ex = by_id(exes)["p.Outer$Inner#m()"]
        got = [(s.access_kind, s.receiver.form, s.receiver.static_type.name) for s in ex.body_accesses]
        assert got == [
            ("field-write", "outer-instance", "p.Outer"),
            ("method-call", "outer-instance", "p.Outer"),
        ]

    def test_static_member_access_via_type_name(self):
        src = (
            "package p;\n"
            "class A { void m() { int x = B.C; B.f(); B.C = 2; } }\n"
            "class B { static int C; static void f() { } }"
        )
        _, exes = front(src)
        ex = by_id(exes)["p.A#m()"]
        assert site_kinds(ex) == ["static-member-access"] * 3
        assert all(s.receiver.form == "type-name" for s in ex.body_accesses)
        assert all(s.receiver.static_type == TypeRef("p.B") for s in ex.body_accesses)

    def test_static_call_result_chain(self):
        src = (
            "package p;\n"
            "class A { void m() { B.mk().h(); } }\n"
            "class B { static C mk() { return null; } }\n"
            "class C { void h() { } }"
        )
        _, exes = front(src)
        mk, h = by_id(exes)["p.A#m()"].body_accesses
        assert mk.access_kind == "static-member-access"
        assert h.access_kind == "method-call"
        assert [(s.kind, s.label) for s in h.receiver.chain] == [("static-member", "mk")]

    def test_array_length_site(self):
        src = "package p;\nclass A { void m(String[] a) { int n = a.length; } }"
        _, exes = front(src, mode=LENIENT)
        (site,) = by_id(exes)["p.A#m(String[])"].body_accesses
        assert site.access_kind == "array-length"
        assert site.receiver.static_type.kind is TypeKind.ARRAY
        assert site.member.name == "length"
        assert site.member.declared_type.name == "int"

    def test_array_element_transparent(self):
        src = (
            "package p;\n"
            "class A { void m(B[] bs) { bs[0].h(); } }\n"
            "class B { void h() { } }"
        )
        _, exes = front(src)
        (site,) = by_id(exes)["p.A#m(B[])"].body_accesses
        assert site.access_kind == "method-call"
        assert site.receiver.static_type == TypeRef("p.B")
        assert [(s.kind, s.label) for s in site.receiver.chain] == [("parameter", "bs")]

    def test_new_emits_no_site(self):
        src = "package p;\nclass A { void m() { B b = new B(1); } }\nclass B { B(int x) { } }"
        _, exes = front(src)
        assert by_id(exes)["p.A#m()"].body_accesses == ()

    def test_explicit_ctor_calls_no_site(self):
        src = (
            "package p;\n"
            "class A { A(int x) { } A() { this(1); } }\n"
            "class B extends A { B() { super(2); } }"
        )
        _, exes = front(src)
        for ex in exes:
            assert ex.body_accesses == ()

    def test_arg_types_recorded(self):
        src = (
            "package p;\n"
            "class A { void m(B b, C c) { b.add(c); } }\n"
            "class B { void add(Object o) { } }\n"
            "class C { }"
        )
        _, exes = front(src, mode=LENIENT)
        (site,) = by_id(exes)["p.A#m(B,C)"].body_accesses
        assert site.arg_types == (TypeRef("p.C"),)

    def test_receiver_sites_before_member_before_args(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  B fb; int fi;\n"
            "  void m() { fb.add(fi); }\n"
            "}\n"
            "class B { void add(int x) { } }"
        )
        _, exes = front(src)
        ex = by_id(exes)["p.A#m()"]
        labels = [(s.access_kind, s.member.name) for s in ex.body_accesses]
        assert labels == [
            ("field-read", "fb"),
            ("method-call", "add"),
            ("field-read", "fi"),
        ]

    def test_for_order_init_cond_update_body(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  int a, b, c, d;\n"
            "  void m() { for (a = 0; b < 1; c++) d = 2; }\n"
            "}"
        )
        _, exes = front(src)
        ex = by_id(exes)["p.A#m()"]
        assert [s.member.name for s in ex.body_accesses] == ["a", "b", "c", "d"]

    def test_name_prefix_resolution(self, stub_paths):
        src = (
            "package p;\n"
            'class A { void m() { java.lang.System.out.println("x"); } }'
        )
        jdk = [p for p in stub_paths if p.name == "jdk.json"]
        _, exes = build_front([("A.java", src)], jdk)
        out, println = by_id(exes)["p.A#m()"].body_accesses
        assert out.access_kind == "static-member-access"
        assert out.receiver.static_type == TypeRef("java.lang.System")
        assert println.access_kind == "method-call"
        assert println.receiver.static_type == TypeRef("java.io.PrintStream")

    def test_dead_prefix_strict_error(self):
        src = "package p;\nclass A { void m() { int x = com.nowhere.Foo.bar; } }"
        with pytest.raises(BindError) as e:
            front(src)
        assert "cannot resolve name 'com'" in str(e.value)

    def test_dead_prefix_lenient_unknown(self):
        src = "package p;\nclass A { void m() { int x = com.nowhere.Foo.bar; } }"
        _, exes = front(src, mode=LENIENT)
        sites = by_id(exes)["p.A#m()"].body_accesses
        # 'com' matches no known package, so it becomes an unknown value and
        # each following segment reads a field off an unknown receiver.
        assert len(sites) == 3
        assert all(s.receiver.static_type.kind is TypeKind.UNKNOWN for s in sites)

    def test_string_concat_types_string(self, stub_paths):
        src = 'package p;\nclass A { void m(int n) { int k = ("x" + n).length(); } }'
        jdk = [p for p in stub_paths if p.name == "jdk.json"]
        _, exes = build_front([("A.java", src)], jdk)
        (site,) = by_id(exes)["p.A#m(int)"].body_accesses
        assert site.receiver.static_type == TypeRef("java.lang.String")

    def test_conditional_types_as_then_branch(self):
        src = (
            "package p;\n"
            "class A { void m(boolean t, B b, C c) { (t ? b : c).h(); } }\n"
            "class B { void h() { } }\n"
            "class C { void h() { } }"
        )
        _, exes = front(src)
        site = by_id(exes)["p.A#m(boolean,B,C)"].body_accesses[-1]
        assert site.receiver.static_type == TypeRef("p.B")

    def test_primitive_receiver_strict_error(self):
        with pytest.raises(BindError) as e:
            front("package p;\nclass A { void m(int x) { x.f(); } }")
        assert "primitive" in str(e.value)

    def test_unresolved_member_lenient_unknown(self):
        src = "package p;\nclass A { void m(B b) { b.nope(); } }\nclass B { }"
        _, exes = front(src, mode=LENIENT)
        (site,) = by_id(exes)["p.A#m(B)"].body_accesses
        assert site.member.declared_type.kind is TypeKind.UNKNOWN

    def test_anon_enclosing_executable(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  void m() { reg(new I() { public void f() { helper(); } }); }\n"
            "  void reg(I i) { }\n"
            "  void helper() { }\n"
            "}\n"
            "interface I { void f(); }"
        )
        _, exes = front(src)
        anon = by_id(exes)["p.A$anon1#f()"]
        assert anon.enclosing_executable == "p.A#m()"
        assert anon.owner_type == TypeRef("p.A$anon1")
        (site,) = anon.body_accesses
        assert site.receiver.form == "outer-instance"
        assert site.receiver.static_type == TypeRef("p.A")

    def test_nested_named_type_has_no_enclosing_executable(self):
        src = "package p;\nclass A { class B { void m() { } } }"
        _, exes = front(src)
        assert by_id(exes)["p.A$B#m()"].enclosing_executable is None


#: A postfix chain over ``C`` below: a base, then links.  A base is ``c``,
#: ``this``, ``f``, ``("g", chain)`` for ``g(chain)`` or ``("()", chain)``
#: for ``(chain)``; a link is ``.f``, ``.a[0]`` or ``(".g", chain)``.
_bases = st.sampled_from(["c", "this", "f"])
_fields = st.sampled_from([".f", ".a[0]"])
_chains = st.recursive(
    st.tuples(_bases, st.lists(_fields, max_size=4)),
    lambda chains: st.tuples(
        st.one_of(_bases, st.tuples(st.sampled_from(["g", "()"]), chains)),
        st.lists(st.one_of(_fields, st.tuples(st.just(".g"), chains)), max_size=4),
    ),
    max_leaves=6,
)

_CHAIN_CLASS = "package p;\nclass C { C f; C[] a; C g(C x) { return x; } void m(C c) { %s } }"


def _chain_text(chain) -> str:
    base, links = chain
    if isinstance(base, tuple):
        text = ("g(%s)" if base[0] == "g" else "(%s)") % _chain_text(base[1])
    else:
        text = base
    for link in links:
        text += f".g({_chain_text(link[1])})" if isinstance(link, tuple) else link
    return text


def _chain_sites(chain, sites: list) -> tuple:
    """Append the sites ``chain`` emits, as (kind, member, receiver form,
    provenance), to ``sites``: a receiver's sites come before its member's,
    and a call's argument sites after it.  Returns the chain's receiver
    form and provenance."""
    base, links = chain
    if base == "c":
        form, steps = "expression", (("parameter", "c"),)
    elif base == "this":
        form, steps = "this-explicit", ()
    elif base == "f":
        sites.append(("field-read", "f", "this-implicit", ()))
        form, steps = "expression", (("field", "f"),)
    elif base[0] == "g":
        sites.append(("method-call", "g", "this-implicit", ()))
        _chain_sites(base[1], sites)
        form, steps = "expression", (("call", "g"),)
    else:
        form, steps = _chain_sites(base[1], sites)
    for link in links:
        if isinstance(link, tuple):
            sites.append(("method-call", "g", form, steps))
            _chain_sites(link[1], sites)
            steps += (("call", "g"),)
        else:
            name = link[1]  # .f or .a[0]
            sites.append(("field-read", name, form, steps))
            steps += (("field", name),)
        form = "expression"
    return form, steps


def site_rows(ex) -> list[tuple]:
    """Each site of ``ex`` as (id, access kind, member, receiver type,
    argument types)."""
    return [
        (
            s.site_id,
            s.access_kind,
            s.member.name,
            s.receiver.static_type.name,
            tuple(t.name for t in s.arg_types),
        )
        for s in ex.body_accesses
    ]


class TestStatementAndOperatorForms:
    """Valid forms that no corpus listing holds, pinned site by site."""

    def test_unary_operators(self):
        src = (
            "package p;\n"
            "class B { boolean ok() { return true; } int n() { return 1; } byte y; }\n"
            "class C { void i(int v) { } void z(boolean v) { } }\n"
            "class A { void m(B b, C c) { c.z(!b.ok()); c.i(~b.y); c.i(+b.n()); c.i(-b.y); } }"
        )
        _, exes = front(src)
        # ``!`` types boolean; ``~``, ``+`` and ``-`` promote byte to int.
        assert site_rows(by_id(exes)["p.A#m(B,C)"]) == [
            ("p.A#m(B,C)@0001", "method-call", "z", "p.C", ("boolean",)),
            ("p.A#m(B,C)@0002", "method-call", "ok", "p.B", ()),
            ("p.A#m(B,C)@0003", "method-call", "i", "p.C", ("int",)),
            ("p.A#m(B,C)@0004", "field-read", "y", "p.B", ()),
            ("p.A#m(B,C)@0005", "method-call", "i", "p.C", ("int",)),
            ("p.A#m(B,C)@0006", "method-call", "n", "p.B", ()),
            ("p.A#m(B,C)@0007", "method-call", "i", "p.C", ("int",)),
            ("p.A#m(B,C)@0008", "field-read", "y", "p.B", ()),
        ]

    def test_shifts_type_as_the_promoted_left_operand(self):
        src = (
            "package p;\n"
            "class C { void i(int v) { } void l(long v) { } }\n"
            "class A { void m(C c, int a, byte y, long w) {\n"
            "  c.i(a << 2L); c.i(y >> 1); c.l(w >>> a);\n"
            "} }"
        )
        _, exes = front(src)
        assert [row[4] for row in site_rows(by_id(exes)["p.A#m(C,int,byte,long)"])] == [
            ("int",), ("int",), ("long",),
        ]

    def test_bitwise_operators_on_booleans(self):
        src = (
            "package p;\n"
            "class B { boolean ok() { return true; } }\n"
            "class C { void i(int v) { } void z(boolean v) { } }\n"
            "class A { void m(B b, C c, boolean t, int a) {\n"
            "  c.z(b.ok() & t); c.z(t | false); c.z(t ^ b.ok()); c.i(a & 1);\n"
            "} }"
        )
        _, exes = front(src)
        assert site_rows(by_id(exes)["p.A#m(B,C,boolean,int)"]) == [
            ("p.A#m(B,C,boolean,int)@0001", "method-call", "z", "p.C", ("boolean",)),
            ("p.A#m(B,C,boolean,int)@0002", "method-call", "ok", "p.B", ()),
            ("p.A#m(B,C,boolean,int)@0003", "method-call", "z", "p.C", ("boolean",)),
            ("p.A#m(B,C,boolean,int)@0004", "method-call", "z", "p.C", ("boolean",)),
            ("p.A#m(B,C,boolean,int)@0005", "method-call", "ok", "p.B", ()),
            ("p.A#m(B,C,boolean,int)@0006", "method-call", "i", "p.C", ("int",)),
        ]

    def test_minus_on_a_reference_operand(self):
        """javac rejects ``-b`` for a class type; the binder types it int."""
        src = (
            "package p;\n"
            "class B { }\n"
            "class C { void i(int v) { } }\n"
            "class A { void m(B b, C c) { c.i(-b); } }"
        )
        _, exes = front(src)
        assert site_rows(by_id(exes)["p.A#m(B,C)"]) == [
            ("p.A#m(B,C)@0001", "method-call", "i", "p.C", ("int",)),
        ]

    def test_lenient_unknown_operand_stays_unknown(self):
        src = (
            "package p;\n"
            "class C { void i(int v) { } }\n"
            "class A { void m(C c, int a) { c.i(g + 1); c.i(a * g); c.i(-g); c.i(g << 1); } }"
        )
        _, exes = front(src, mode=LENIENT)
        args = [s.arg_types for s in by_id(exes)["p.A#m(C,int)"].body_accesses]
        assert [[(t.name, t.kind) for t in types] for types in args] == [
            [("g", TypeKind.UNKNOWN)]
        ] * 4

    def test_array_initializers(self):
        src = (
            "package p;\n"
            "class B { C c() { return null; } }\n"
            "class C { }\n"
            "class A { void m(B b) {\n"
            "  C[] cs = { b.c(), null };\n"
            "  C[] ds = new C[] { b.c() };\n"
            "  C[][] d = new C[][] { { b.c() }, cs };\n"
            "} }"
        )
        _, exes = front(src)
        ex = by_id(exes)["p.A#m(B)"]
        assert site_rows(ex) == [
            (f"p.A#m(B)@000{i}", "method-call", "c", "p.B", ()) for i in (1, 2, 3)
        ]
        assert [[(st.kind, st.label) for st in s.receiver.chain] for s in ex.body_accesses] == [
            [("parameter", "b")]
        ] * 3

    def test_finally_block(self):
        src = (
            "package p;\n"
            "class B { void f() { } void g() { } }\n"
            "class A { void m(B b) { try { b.f(); } finally { b.g(); } } }"
        )
        _, exes = front(src)
        assert site_rows(by_id(exes)["p.A#m(B)"]) == [
            ("p.A#m(B)@0001", "method-call", "f", "p.B", ()),
            ("p.A#m(B)@0002", "method-call", "g", "p.B", ()),
        ]

    def test_continue_in_loops(self):
        src = (
            "package p;\n"
            "class B { boolean ok() { return true; } int n() { return 1; } }\n"
            "class A { void m(B b) {\n"
            "  while (b.ok()) { if (b.ok()) continue; b.n(); }\n"
            "  for (int i = 0; i < b.n(); i++) { if (b.ok()) continue; b.n(); }\n"
            "} }"
        )
        _, exes = front(src)
        assert [row[:3] for row in site_rows(by_id(exes)["p.A#m(B)"])] == [
            ("p.A#m(B)@0001", "method-call", "ok"),
            ("p.A#m(B)@0002", "method-call", "ok"),
            ("p.A#m(B)@0003", "method-call", "n"),
            ("p.A#m(B)@0004", "method-call", "n"),
            ("p.A#m(B)@0005", "method-call", "ok"),
            ("p.A#m(B)@0006", "method-call", "n"),
        ]


class TestChainOrder:
    @settings(max_examples=150, deadline=None)
    @given(target=_chains, value=_chains, parens=st.booleans())
    def test_sites_follow_the_chain(self, target, value, parens):
        written = f"{_chain_text(target)}.f"
        stmts = (
            f"C r = {_chain_text(value)}; "
            f"{'(' + written + ')' if parens else written} = {_chain_text(value)};"
        )
        expected: list = []
        _chain_sites(value, expected)
        form, steps = _chain_sites(target, expected)
        expected.append(("field-write", "f", form, steps))
        _chain_sites(value, expected)
        _, exes = front(_CHAIN_CLASS % stmts)
        sites = by_id(exes)["p.C#m(C)"].body_accesses
        got = [
            (
                s.access_kind,
                s.member.name,
                s.receiver.form,
                tuple((step.kind, step.label) for step in s.receiver.chain),
            )
            for s in sites
        ]
        assert got == expected
        assert all(s.receiver.static_type == TypeRef("p.C") for s in sites)


class TestDeterminism:
    def test_two_runs_identical(self, corpus):
        case = corpus["listing3"]
        _, first = build_case_front(case)
        _, second = build_case_front(case)

        def shape(exes):
            return [
                (
                    ex.id,
                    ex.exec_kind,
                    tuple(ex.params),
                    tuple(sorted(t.name for t in ex.instantiated_types)),
                    tuple(
                        (s.site_id, s.access_kind, s.receiver.form,
                         s.receiver.static_type.name, s.member.name, s.arg_types)
                        for s in ex.body_accesses
                    ),
                )
                for ex in exes
            ]

        assert shape(first) == shape(second)


class TestCorpus:
    def test_counts_match_oracle(self, corpus_case):
        _, exes = build_case_front(corpus_case)
        oracle = corpus_case.expected["oracle"]
        assert len(exes) == oracle["executables"]
        assert sum(len(ex.body_accesses) for ex in exes) == oracle["access_sites"]

    def test_listing1_shape(self, corpus):
        _, exes = build_case_front(corpus["listing1"])
        ids = {ex.id for ex in exes}
        assert ids == {
            "CH.ifa.draw.figures.TriangleFigure#<field:fRotation>",
            "CH.ifa.draw.figures.TriangleFigure#polygon()",
        }
        poly = by_id(exes)["CH.ifa.draw.figures.TriangleFigure#polygon()"]
        assert poly.instantiated_types == {TypeRef("java.awt.Polygon")}
        assert len(poly.body_accesses) == 15
        rect_reads = [
            s for s in poly.body_accesses
            if s.access_kind == "field-read" and s.receiver.static_type.name == "java.awt.Rectangle"
        ]
        assert len(rect_reads) == 10

    def test_listing3_shape(self, corpus):
        _, exes = build_case_front(corpus["listing3"])
        constrain = by_id(exes)["CH.ifa.draw.figures.ElbowHandle#constrainX(int)"]
        assert len(constrain.body_accesses) == 24
        owner_call = constrain.body_accesses[2]
        assert owner_call.member.name == "owner"
        assert owner_call.receiver.static_type.name == "CH.ifa.draw.framework.Connector"
        assert [(s.kind, s.label) for s in owner_call.receiver.chain] == [
            ("local", "line"),
            ("call", "start"),
        ]
        ctor = by_id(exes)["CH.ifa.draw.figures.ElbowHandle#<init>(LineConnection,int)"]
        assert site_kinds(ctor) == ["field-write"]

    def test_listing5_shape(self, corpus):
        _, exes = build_case_front(corpus["listing5"])
        load = by_id(exes)["CH.ifa.draw.util.Iconkit#loadImageResource(String)"]
        assert len(load.body_accesses) == 8
        assert ("ex", TypeRef("java.lang.Exception")) in load.params
        kinds = site_kinds(load)
        assert kinds.count("static-member-access") == 2  # getDefaultToolkit, System.out

    def test_listing6_anon(self, corpus):
        _, exes = build_case_front(corpus["listing6"])
        anon = by_id(exes)[
            "CH.ifa.draw.samples.javadraw.JavaDrawApp$anon1#actionPerformed(ActionEvent)"
        ]
        assert anon.enclosing_executable == (
            "CH.ifa.draw.samples.javadraw.JavaDrawApp#createWindowMenu()"
        )
        (site,) = anon.body_accesses
        assert site.receiver.form == "outer-instance"
        assert site.member.name == "openView"

    def test_listing8_provenance(self, corpus):
        _, exes = build_case_front(corpus["listing8"])
        step = by_id(exes)[
            "CH.ifa.draw.figures.TriangleRotationHandle#invokeStep(int,int,Drawing)"
        ]
        assert len(step.body_accesses) == 11
        rotate = step.body_accesses[-1]
        assert rotate.member.name == "rotate"
        assert rotate.receiver.static_type.name == "CH.ifa.draw.figures.TriangleFigure"
        assert [(s.kind, s.label) for s in rotate.receiver.chain] == [
            ("call", "owner"),
            ("cast", "CH.ifa.draw.figures.TriangleFigure"),
        ]
        atan = step.body_accesses[0]
        assert atan.access_kind == "static-member-access"
        assert atan.receiver.static_type.name == "java.lang.Math"

    def test_listing9_array_length(self, corpus):
        _, exes = build_case_front(corpus["listing9"])
        font = by_id(exes)["CH.ifa.draw.application.DrawApplication#createFontMenu()"]
        lengths = [s for s in font.body_accesses if s.access_kind == "array-length"]
        assert len(lengths) == 1
        assert lengths[0].receiver.static_type.name == "java.lang.String[]"
        menu_add = [s for s in font.body_accesses if s.member.name == "add"]
        assert menu_add[0].arg_types == (
            TypeRef("CH.ifa.draw.standard.ChangeAttributeCommand"),
        )

    def test_listing15_downcasts(self, corpus):
        _, exes = build_case_front(corpus["listing15"])
        connect = by_id(exes)[
            "CH.ifa.draw.samples.pert.PertDependency#handleConnect(Figure,Figure)"
        ]
        assert connect.downcast_param_types == {
            TypeRef("CH.ifa.draw.samples.pert.PertFigure")
        }
        can = by_id(exes)[
            "CH.ifa.draw.samples.pert.PertDependency#canConnect(Figure,Figure)"
        ]
        assert can.body_accesses == () and can.downcast_param_types == set()
