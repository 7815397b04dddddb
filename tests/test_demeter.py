"""Friend-set computation and the base violation predicate."""

import pytest
from hypothesis import given, strategies as st

from demeterlint.codemodel import ResolutionMode, TypeRef, TypeTable
from demeterlint.demeter import (
    FriendSet,
    MemberExemption,
    base_friend_set,
    detect,
)

from conftest import build_case_front, build_front


def front(*sources: str, mode=ResolutionMode.STRICT):
    named = [(f"S{i}.java", s) for i, s in enumerate(sources)]
    return build_front(named, [], mode)


def by_id(executables) -> dict:
    return {ex.id: ex for ex in executables}


def seeds_of(fs) -> dict[str, tuple[str, ...]]:
    return {t.name: roles for t, roles in fs.seeds}


def enlarged(base, table, types=(), exemptions=()):
    """``base`` with ``types`` granted and ``exemptions`` added, the way an
    adaptation rule enlarges a friend set."""
    types = tuple(types)
    return FriendSet(
        base.table,
        base.executable,
        base.mask | table.closure_mask(types),
        (("test", types),) if types else (),
        tuple(exemptions),
    )


class TestBaseFriendSet:
    def test_bare_method(self):
        table, exes = front("package p;\nclass A { void m() { } }")
        fs = base_friend_set(by_id(exes)["p.A#m()"], table)
        assert seeds_of(fs) == {"p.A": ("self",)}
        assert fs.closure == frozenset({TypeRef("p.A"), TypeRef("java.lang.Object")})
        assert fs.member_exemptions == ()
        assert not any(role.startswith("granted:") for _, roles in fs.seeds for role in roles)

    def test_all_seed_roles(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  B fb;\n"
            "  int fi;\n"
            "  void m(C c, int n) { D d = new D(); }\n"
            "}\n"
            "class B { } class C { } class D { }"
        )
        table, exes = front(src)
        fs = base_friend_set(by_id(exes)["p.A#m(C,int)"], table)
        assert seeds_of(fs) == {
            "p.A": ("self",),
            "p.B": ("field-type",),
            "p.C": ("param-type",),
            "p.D": ("instantiated",),
        }

    def test_primitive_types_never_friends(self):
        table, exes = front("package p;\nclass A { int f; void m(int x) { } }")
        fs = base_friend_set(by_id(exes)["p.A#m(int)"], table)
        assert seeds_of(fs) == {"p.A": ("self",)}

    def test_inherited_fields_contribute_nothing(self):
        src = (
            "package p;\n"
            "class A { B fb; }\n"
            "class B { }\n"
            "class Sub extends A { void m() { } }"
        )
        table, exes = front(src)
        fs = base_friend_set(by_id(exes)["p.Sub#m()"], table)
        assert "p.B" not in seeds_of(fs)
        # but A itself is in the closure, being a supertype of Sub
        assert TypeRef("p.A") in fs.closure

    def test_fields_of_c_are_friends_in_every_executable(self):
        src = "package p;\nclass A { B fb; void m() { } }\nclass B { }"
        table, exes = front(src)
        fs = base_friend_set(by_id(exes)["p.A#m()"], table)
        assert "p.B" in seeds_of(fs)

    def test_catch_param_is_a_friend(self):
        src = (
            "package p;\n"
            "class A { void m() { try { } catch (E e) { } } }\n"
            "class E { }"
        )
        table, exes = front(src)
        fs = base_friend_set(by_id(exes)["p.A#m()"], table)
        assert seeds_of(fs)["p.E"] == ("param-type",)

    def test_closure_includes_supertypes_of_seeds(self):
        src = (
            "package p;\n"
            "class A { void m(Sub s) { } }\n"
            "class Sub extends Sup { }\n"
            "class Sup { }"
        )
        table, exes = front(src)
        fs = base_friend_set(by_id(exes)["p.A#m(Sub)"], table)
        assert TypeRef("p.Sup") in fs.closure

    def test_listing1_seeds(self, corpus):
        table, exes = build_case_front(corpus["listing1"])
        poly = by_id(exes)["CH.ifa.draw.figures.TriangleFigure#polygon()"]
        fs = base_friend_set(poly, table)
        s = seeds_of(fs)
        assert s["java.awt.Polygon"] == ("instantiated",)
        assert "java.awt.Rectangle" not in s
        assert TypeRef("java.awt.Rectangle") not in fs.closure

    def test_listing3_seeds(self, corpus):
        table, exes = build_case_front(corpus["listing3"])
        constrain = by_id(exes)["CH.ifa.draw.figures.ElbowHandle#constrainX(int)"]
        fs = base_friend_set(constrain, table)
        assert set(seeds_of(fs)) == {"CH.ifa.draw.figures.ElbowHandle"}
        for outsider in (
            "CH.ifa.draw.figures.LineConnection",
            "CH.ifa.draw.framework.Figure",
            "CH.ifa.draw.framework.Connector",
            "java.awt.Rectangle",
            "java.awt.Insets",
            "CH.ifa.draw.util.Geom",
        ):
            assert TypeRef(outsider) not in fs.closure


class TestDetect:
    def detect_in(self, src: str, exec_id: str, mode=ResolutionMode.STRICT):
        table, exes = front(src, mode=mode)
        ex = by_id(exes)[exec_id]
        return detect(ex, base_friend_set(ex, table))

    def test_self_accesses_never_violate(self):
        src = (
            "package p;\n"
            "class A {\n"
            "  int f;\n"
            "  void m() { this.f = f + 1; g(); this.g(); }\n"
            "  void g() { }\n"
            "}"
        )
        assert self.detect_in(src, "p.A#m()") == []

    def test_super_never_violates(self):
        src = (
            "package p;\n"
            "class A { void g() { } }\n"
            "class B extends A { void m() { super.g(); } }"
        )
        assert self.detect_in(src, "p.B#m()") == []

    def test_friend_receivers_pass(self):
        src = (
            "package p;\n"
            "class A { B fb; void m(C c) { fb.f(); c.f(); D d = new D(); d.f(); } }\n"
            "class B { void f() { } } class C { void f() { } } class D { void f() { } }"
        )
        assert self.detect_in(src, "p.A#m(C)") == []

    def test_supertype_receiver_of_friend_passes(self):
        src = (
            "package p;\n"
            "class A { void m(Sub s) { Sup x = null; x.f(); } }\n"
            "class Sub extends Sup { }\n"
            "class Sup { void f() { } }"
        )
        assert self.detect_in(src, "p.A#m(Sub)") == []

    def test_call_result_violates(self):
        src = (
            "package p;\n"
            "class A { void m(B b) { b.g().h(); } }\n"
            "class B { C g() { return null; } }\n"
            "class C { void h() { } }"
        )
        violations = self.detect_in(src, "p.A#m(B)")
        assert [v.receiver_type.name for v in violations] == ["p.C"]
        assert violations[0].site.member.name == "h"

    def test_outer_instance_is_a_candidate(self):
        src = (
            "package p;\n"
            "class Outer { void om() { } class Inner { void m() { om(); } } }"
        )
        violations = self.detect_in(src, "p.Outer$Inner#m()")
        assert len(violations) == 1
        assert violations[0].receiver_type == TypeRef("p.Outer")

    def test_static_access_on_non_friend_violates(self):
        src = (
            "package p;\n"
            "class A { void m() { B.f(); } }\n"
            "class B { static void f() { } }"
        )
        violations = self.detect_in(src, "p.A#m()")
        assert [v.site.access_kind for v in violations] == ["static-member-access"]

    def test_static_access_on_friend_passes(self):
        src = (
            "package p;\n"
            "class A { void m(B b) { B.f(); } }\n"
            "class B { static void f() { } }"
        )
        assert self.detect_in(src, "p.A#m(B)") == []

    def test_array_length_violates_when_array_not_friend(self):
        src = "package p;\nclass A { void m() { int[] a = new int[2]; int n = a.length; } }"
        violations = self.detect_in(src, "p.A#m()")
        assert [v.site.access_kind for v in violations] == ["array-length"]
        assert violations[0].receiver_type.name == "int[]"

    def test_array_length_on_param_array_passes(self):
        src = "package p;\nclass A { void m(B[] bs) { int n = bs.length; } }\nclass B { }"
        assert self.detect_in(src, "p.A#m(B[])") == []

    def test_unknown_receiver_conservative(self):
        src = "package p;\nclass A { void m() { mystery().f(); } }"
        violations = self.detect_in(src, "p.A#m()", mode=ResolutionMode.LENIENT)
        assert len(violations) == 1
        assert violations[0].note == "unresolved-receiver"

    def test_order_is_site_order(self):
        src = (
            "package p;\n"
            "class A { void m() { B b = null; b.f(); b.g(); b.f(); } }\n"
            "class B { void f() { } void g() { } }"
        )
        violations = self.detect_in(src, "p.A#m()")
        ids = [v.site.site_id for v in violations]
        assert ids == sorted(ids)
        assert [v.site.member.name for v in violations] == ["f", "g", "f"]

    def test_monotone_in_seeds(self):
        src = (
            "package p;\n"
            "class A { void m(B b) { b.g().h(); } }\n"
            "class B { C g() { return null; } }\n"
            "class C { void h() { } }"
        )
        table, exes = front(src)
        ex = by_id(exes)["p.A#m(B)"]
        base = base_friend_set(ex, table)
        more = enlarged(base, table, [TypeRef("p.C")])
        assert seeds_of(more)["p.C"] == ("granted:test",)
        assert set(v.site.site_id for v in detect(ex, more)) <= set(
            v.site.site_id for v in detect(ex, base)
        )


class TestExemptions:
    def run(self, src, exec_id, exemptions):
        table, exes = front(src)
        ex = by_id(exes)[exec_id]
        return detect(ex, enlarged(base_friend_set(ex, table), table, exemptions=exemptions))

    def test_public_static(self):
        src = (
            "package p;\n"
            "class A { void m() { B.f(); B.g(); } }\n"
            "class B { public static void f() { } static void g() { } }"
        )
        out = self.run(
            src, "p.A#m()", [MemberExemption("R", "public-static")]
        )
        # g() is static but package-visible, so it stays a violation
        assert [v.site.member.name for v in out] == ["g"]

    def test_array_length(self):
        src = "package p;\nclass A { void m() { int[] a = new int[2]; int n = a.length; } }"
        out = self.run(src, "p.A#m()", [MemberExemption("R", "array-length")])
        assert out == []

    def test_pattern(self):
        src = (
            "package p;\n"
            "class A { void m() { B b = null; b.printAll(); b.save(); } }\n"
            "class B { void printAll() { } void save() { } }"
        )
        out = self.run(
            src, "p.A#m()", [MemberExemption("R", "pattern", "p.B", "print*")]
        )
        assert [v.site.member.name for v in out] == ["save"]

    @pytest.mark.parametrize(
        "glob, kept",
        [("print", ["printAll", "save"]), ("printAll", ["print", "save"]),
         ("print?ll", ["print", "save"]), ("[ps]*", [])],
    )
    def test_pattern_literal_or_wildcard(self, glob, kept):
        """A glob without a wildcard matches only the name it equals."""
        src = (
            "package p;\n"
            "class A { void m() { B b = null; b.print(); b.printAll(); b.save(); } }\n"
            "class B { void print() { } void printAll() { } void save() { } }"
        )
        out = self.run(src, "p.A#m()", [MemberExemption("R", "pattern", "p.B", glob)])
        assert [v.site.member.name for v in out] == kept

    def test_pattern_wrong_type_inert(self):
        src = (
            "package p;\n"
            "class A { void m() { B b = null; b.printAll(); } }\n"
            "class B { void printAll() { } }"
        )
        out = self.run(
            src, "p.A#m()", [MemberExemption("R", "pattern", "p.C", "print*")]
        )
        assert len(out) == 1


class TestCorpusBase:
    def test_base_violation_counts(self, corpus_case):
        table, exes = build_case_front(corpus_case)
        oracle = corpus_case.expected["oracle"]
        per_exec = {}
        total = 0
        for ex in exes:
            violations = detect(ex, base_friend_set(ex, table))
            total += len(violations)
            if violations:
                per_exec[ex.id] = len(violations)
        assert total == oracle["base_violations"]
        assert per_exec == oracle["violations_by_executable"]

    def test_mask_is_the_closure_of_the_seeds(self, corpus_case):
        # The mask is closed from the executable's seeds in one call; the
        # seeds with their roles are derived on demand.  Both must describe
        # the same set.
        table, exes = build_case_front(corpus_case)
        for ex in exes:
            fs = base_friend_set(ex, table)
            assert fs.mask == table.closure_mask(t for t, _ in fs.base)

    def test_soundness_on_corpus(self, corpus_case):
        table, exes = build_case_front(corpus_case)
        from demeterlint.demeter import SELF_FORMS

        for ex in exes:
            fs = base_friend_set(ex, table)
            flagged = {v.site.site_id for v in detect(ex, fs)}
            for site in ex.body_accesses:
                eligible = (
                    site.receiver.form not in SELF_FORMS
                    and not site.receiver.static_type.is_primitive
                )
                if site.site_id in flagged:
                    assert site.receiver.static_type not in fs.closure
                elif eligible:
                    assert site.receiver.static_type in fs.closure


@given(
    extra=st.sets(
        st.sampled_from(["p.B", "p.C", "p.D", "java.lang.Object"]), max_size=4
    )
)
def test_monotonicity_property(extra):
    src = (
        "package p;\n"
        "class A { void m(B b) { b.g().h(); b.g().k(); } }\n"
        "class B { C g() { return null; } }\n"
        "class C { D h() { return null; } D k() { return null; } }\n"
        "class D { }"
    )
    table, exes = front(src)
    ex = by_id(exes)["p.A#m(B)"]
    base = base_friend_set(ex, table)
    more = enlarged(base, table, map(TypeRef, sorted(extra)))
    base_ids = {v.site.site_id for v in detect(ex, base)}
    enlarged_ids = {v.site.site_id for v in detect(ex, more)}
    assert enlarged_ids <= base_ids
