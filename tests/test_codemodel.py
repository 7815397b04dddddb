"""Type table behavior: loading, merging, closure, member resolution."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demeterlint.codemodel import (
    ARRAYS,
    DeclKind,
    LoadError,
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
    load_stubs,
    parse_type_name,
)

from bruteforce import naive_closure, resolution_order
from conftest import STUBS, build_front
from randprog import random_program

OBJECT = TypeRef("java.lang.Object")


def decl(name, *, kind=DeclKind.CLASS, supers=(), members=(), origin=Origin.STUB):
    return TypeDecl(
        ref=TypeRef(name),
        decl_kind=kind,
        supertypes=tuple(TypeRef(s) for s in supers),
        members=tuple(members),
        origin=origin,
    )


def method(owner, name, arity=0, *, ret="void", visibility="public", static=False):
    return MemberDecl(
        name=name,
        member_kind=MemberKind.METHOD,
        is_static=static,
        visibility=visibility,
        declared_type=parse_type_name(ret),
        param_types=tuple(TypeRef("int", TypeKind.PRIMITIVE) for _ in range(arity)),
        declaring_type=owner,
    )


def field_member(owner, name, type_name, *, static=False):
    return MemberDecl(
        name=name,
        member_kind=MemberKind.FIELD,
        is_static=static,
        visibility="public",
        declared_type=parse_type_name(type_name),
        param_types=(),
        declaring_type=owner,
    )


#: Type references over few names, so that equal names with another kind
#: or element come up often.
type_refs = st.recursive(
    st.builds(
        TypeRef,
        st.sampled_from(["p.A", "p.A[]", "int"]),
        st.sampled_from([TypeKind.DECLARED, TypeKind.PRIMITIVE, TypeKind.UNKNOWN]),
    ),
    lambda inner: st.builds(
        lambda name, element: TypeRef(name, TypeKind.ARRAY, element),
        st.sampled_from(["p.A", "p.A[]", "int"]),
        inner,
    ),
    max_leaves=4,
)


class TestTypeRefEquality:
    @given(type_refs, type_refs)
    def test_equal_exactly_when_fields_are(self, a, b):
        # b as drawn, and b under a's name, which shares a's hash.
        for other in (b, TypeRef(a.name, b.kind, b.element)):
            same = (a.name, a.kind, a.element) == (other.name, other.kind, other.element)
            assert (a == other) is same
            assert (a != other) is not same
            if same:
                assert hash(a) == hash(other)

    @given(type_refs)
    def test_rebuilt_reference_is_equal(self, a):
        b = TypeRef(a.name, a.kind, a.element)
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1

    @given(type_refs)
    def test_never_equal_to_a_tuple_or_string(self, a):
        assert a != (a.name, a.kind, a.element)
        assert a != a.name
        assert (a.name, a.kind, a.element) != a and a.name != a


class TestParseTypeName:
    def test_plain(self):
        assert parse_type_name("java.awt.Point") == TypeRef("java.awt.Point")

    def test_primitive(self):
        ref = parse_type_name("int")
        assert ref.is_primitive

    def test_array(self):
        ref = parse_type_name("java.lang.String[]")
        assert ref.kind is TypeKind.ARRAY
        assert ref.element == TypeRef("java.lang.String")
        assert ref.name == "java.lang.String[]"

    def test_array_of_primitive(self):
        ref = parse_type_name("int[][]")
        assert ref.kind is TypeKind.ARRAY
        assert ref.element.kind is TypeKind.ARRAY
        assert ref.element.element.is_primitive

    def test_empty_rejected(self):
        with pytest.raises(LoadError):
            parse_type_name("[]")


class TestLoadStubs:
    def test_minimal_document(self):
        doc = {
            "schema": "demeterlint-stubs/1",
            "types": [
                {
                    "name": "p.A",
                    "kind": "class",
                    "supertypes": ["p.B"],
                    "members": [
                        {"name": "f", "kind": "field", "type": "int"},
                        {"name": "m", "kind": "method", "type": "p.B", "params": ["int"]},
                    ],
                }
            ],
        }
        table = load_stubs(json.dumps(doc))
        a = table.get("p.A")
        assert a is not None
        assert a.decl_kind is DeclKind.CLASS
        assert a.supertypes == (TypeRef("p.B"),)
        assert a.members[0].member_kind is MemberKind.FIELD
        assert a.members[1].arity == 1
        assert a.origin is Origin.STUB

    def test_bad_schema(self):
        with pytest.raises(LoadError) as e:
            load_stubs('{"schema": "something-else", "types": []}')
        assert e.value.code == "E-STUB"

    def test_duplicate_member_key(self):
        doc = {
            "schema": "demeterlint-stubs/1",
            "types": [
                {
                    "name": "p.A",
                    "kind": "class",
                    "members": [
                        {"name": "m", "kind": "method"},
                        {"name": "m", "kind": "method"},
                    ],
                }
            ],
        }
        with pytest.raises(LoadError):
            load_stubs(json.dumps(doc))

    def test_overload_by_arity_allowed(self):
        doc = {
            "schema": "demeterlint-stubs/1",
            "types": [
                {
                    "name": "p.A",
                    "kind": "class",
                    "members": [
                        {"name": "m", "kind": "method"},
                        {"name": "m", "kind": "method", "params": ["int"]},
                    ],
                }
            ],
        }
        table = load_stubs(json.dumps(doc))
        assert len(table.get("p.A").members) == 2

    def test_fixture_stub_files_load(self, stub_paths):
        for path in stub_paths:
            table = load_stubs(path)
            assert len(table) > 0


class TestMerge:
    def test_disjoint(self):
        t1 = TypeTable()
        t1.add(decl("p.A"))
        t2 = TypeTable()
        t2.add(decl("p.B"))
        merged = t1.merge(t2)
        assert "p.A" in merged and "p.B" in merged

    def test_conflict_raises(self):
        t1 = TypeTable()
        t1.add(decl("p.A", supers=["p.B"]))
        t2 = TypeTable()
        t2.add(decl("p.A", supers=["p.C"]))
        with pytest.raises(LoadError):
            t1.merge(t2)

    def test_identical_duplicate_tolerated(self):
        t1 = TypeTable()
        t1.add(decl("p.A", supers=["p.B"]))
        t2 = TypeTable()
        t2.add(decl("p.A", supers=["p.B"]))
        merged = t1.merge(t2)
        assert len(merged) == 1

    def test_source_wins_over_identical_stub(self):
        t1 = TypeTable()
        t1.add(decl("p.A", origin=Origin.STUB))
        t2 = TypeTable()
        t2.add(decl("p.A", origin=Origin.SOURCE))
        assert t1.merge(t2).get("p.A").origin is Origin.SOURCE
        assert t2.merge(t1).get("p.A").origin is Origin.SOURCE

    @given(st.permutations(["p.A", "p.B", "p.C", "p.D"]))
    def test_merge_order_insensitive(self, names):
        tables = []
        for n in names:
            t = TypeTable()
            t.add(decl(n))
            tables.append(t)
        merged = tables[0]
        for t in tables[1:]:
            merged = merged.merge(t)
        assert sorted(d.name for d in merged) == ["p.A", "p.B", "p.C", "p.D"]


class TestValidate:
    def test_cycle_detected(self):
        t = TypeTable()
        t.add(decl("p.A", supers=["p.B"]))
        t.add(decl("p.B", supers=["p.A"]))
        with pytest.raises(LoadError) as e:
            t.validate()
        assert "cyclic" in str(e.value)

    def test_source_supertype_must_resolve(self):
        t = TypeTable()
        t.add(decl("p.A", supers=["p.Missing"], origin=Origin.SOURCE))
        with pytest.raises(LoadError):
            t.validate()

    def test_stub_supertype_may_dangle(self):
        t = TypeTable()
        t.add(decl("p.A", supers=["p.Missing"], origin=Origin.STUB))
        t.validate()


class TestClosure:
    def make_table(self):
        t = TypeTable()
        t.add(decl("java.lang.Object"))
        t.add(decl("p.I", kind=DeclKind.INTERFACE))
        t.add(decl("p.B", supers=["p.I"]))
        t.add(decl("p.A", supers=["p.B", "p.I"]))
        return t

    def test_reflexive_transitive(self):
        t = self.make_table()
        cl = t.supertype_closure([TypeRef("p.A")])
        assert cl == frozenset({TypeRef("p.A"), TypeRef("p.B"), TypeRef("p.I"), OBJECT})

    def test_object_implicit_even_for_interfaces(self):
        t = self.make_table()
        assert OBJECT in t.supertype_closure([TypeRef("p.I")])

    def test_object_closes_to_itself(self):
        t = self.make_table()
        assert t.supertype_closure([OBJECT]) == frozenset({OBJECT})

    def test_unknown_closes_to_itself_plus_nothing(self):
        t = self.make_table()
        u = TypeRef("x.Y", TypeKind.UNKNOWN)
        assert t.supertype_closure([u]) == frozenset({u})

    def test_undeclared_name_still_reaches_object(self):
        t = self.make_table()
        cl = t.supertype_closure([TypeRef("q.NotHere")])
        assert cl == frozenset({TypeRef("q.NotHere"), OBJECT})

    def test_array_closure(self):
        t = self.make_table()
        arr = array_of(TypeRef("p.A"))
        cl = t.supertype_closure([arr])
        assert arr in cl and ARRAYS in cl
        assert TypeRef("p.A") in cl and TypeRef("p.B") in cl

    def test_primitive_array_closure(self):
        t = self.make_table()
        arr = array_of(TypeRef("int", TypeKind.PRIMITIVE))
        cl = t.supertype_closure([arr])
        assert cl == frozenset({arr, ARRAYS})

    def test_primitive_seed_rejected(self):
        t = self.make_table()
        with pytest.raises(ValueError):
            t.supertype_closure([TypeRef("int", TypeKind.PRIMITIVE)])

    def test_empty_seeds(self):
        assert self.make_table().supertype_closure([]) == frozenset()

    @given(st.sets(st.sampled_from(["p.A", "p.B", "p.I", "java.lang.Object"])))
    def test_idempotent(self, names):
        t = self.make_table()
        seeds = [TypeRef(n) for n in names]
        once = t.supertype_closure(seeds)
        assert t.supertype_closure(once) == once

    @given(
        st.sets(st.sampled_from(["p.A", "p.B", "p.I"])),
        st.sets(st.sampled_from(["p.A", "p.B", "p.I"])),
    )
    def test_monotone(self, smaller, extra):
        t = self.make_table()
        a = t.supertype_closure([TypeRef(n) for n in smaller])
        b = t.supertype_closure([TypeRef(n) for n in smaller | extra])
        assert a <= b


class TestClosureMask:
    """The interned closure against the naive oracle, decoded and bit-tested."""

    def check(self, table, seeds):
        expected = naive_closure(seeds, table)
        mask = table.closure_mask(seeds)
        assert table.supertype_closure(seeds) == expected
        assert table.types_in(mask) == expected
        assert all(table.in_mask(mask, t) for t in expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_randprog_tables(self, seed):
        table, executables = build_front(random_program(seed), [STUBS / "jdk.json"])
        refs = [d.ref for d in table]
        for ref in refs:
            self.check(table, [ref])
            self.check(table, [array_of(ref)])
        for ex in executables:
            self.check(table, [t for t in (ex.owner_type, *ex.instantiated_types)])
        self.check(table, refs)

    def make_table(self):
        t = TestClosure().make_table()
        t.add(decl("q.S", supers=["q.Missing", "p.A"]))  # a stub, so q.Missing may be absent
        return t

    @pytest.mark.parametrize(
        "seeds",
        [
            [array_of(array_of(TypeRef("p.A")))],
            [array_of(TypeRef("int", TypeKind.PRIMITIVE))],
            [array_of(array_of(TypeRef("int", TypeKind.PRIMITIVE)))],
            [TypeRef("x.Y", TypeKind.UNKNOWN), array_of(TypeRef("x.Y", TypeKind.UNKNOWN))],
            [TypeRef("q.S")],
            [TypeRef("q.Missing")],
            [OBJECT],
            [ARRAYS],
            [TypeRef("q.S"), array_of(TypeRef("q.S")), OBJECT],
            [],
        ],
    )
    def test_edge_cases(self, seeds):
        self.check(self.make_table(), seeds)

    def test_unseen_type_is_in_no_mask(self):
        t = self.make_table()
        mask = t.closure_mask([TypeRef("q.S")])
        assert not t.in_mask(mask, TypeRef("never.Seen"))
        assert not t.in_mask(mask, TypeRef("p.I", TypeKind.UNKNOWN))

    def test_primitive_seed_rejected(self):
        with pytest.raises(ValueError):
            self.make_table().closure_mask([OBJECT, TypeRef("int", TypeKind.PRIMITIVE)])

    def test_add_invalidates_memo(self):
        t = self.make_table()
        t.add(decl("p.D", supers=["p.C"]))
        assert t.supertype_closure([TypeRef("p.D")]) == {TypeRef("p.D"), TypeRef("p.C"), OBJECT}
        t.add(decl("p.C", supers=["p.I"]))
        for seeds in ([TypeRef("p.C")], [TypeRef("p.D")]):
            self.check(t, seeds)
        assert TypeRef("p.I") in t.supertype_closure([TypeRef("p.D")])


class TestResolveMember:
    def make_table(self):
        t = TypeTable()
        t.add(
            decl(
                "java.lang.Object",
                members=[method("java.lang.Object", "toString", ret="java.lang.String")],
            )
        )
        t.add(
            decl(
                "p.I",
                kind=DeclKind.INTERFACE,
                members=[method("p.I", "fromInterface")],
            )
        )
        t.add(
            decl(
                "p.Base",
                members=[
                    method("p.Base", "inherited"),
                    method("p.Base", "secret", visibility="private"),
                    field_member("p.Base", "shared", "p.Base"),
                ],
            )
        )
        t.add(
            decl(
                "p.Sub",
                supers=["p.Base", "p.I"],
                members=[
                    method("p.Sub", "own", 1),
                    method("p.Sub", "inherited"),
                    MemberDecl(
                        name="<init>",
                        member_kind=MemberKind.CONSTRUCTOR,
                        is_static=False,
                        visibility="public",
                        declared_type=TypeRef("void", TypeKind.PRIMITIVE),
                        param_types=(TypeRef("int", TypeKind.PRIMITIVE),),
                        declaring_type="p.Sub",
                    ),
                ],
            )
        )
        return t

    def test_own_member(self):
        t = self.make_table()
        m = t.resolve_member(TypeRef("p.Sub"), "own", 1)
        assert m.declaring_type == "p.Sub"

    def test_override_shadows_supertype(self):
        t = self.make_table()
        m = t.resolve_member(TypeRef("p.Sub"), "inherited", 0)
        assert m.declaring_type == "p.Sub"

    def test_inherited_through_extends(self):
        t = self.make_table()
        m = t.resolve_member(TypeRef("p.Sub"), "shared", None)
        assert m.declaring_type == "p.Base"
        assert m.member_kind is MemberKind.FIELD

    def test_interface_member_reachable(self):
        t = self.make_table()
        m = t.resolve_member(TypeRef("p.Sub"), "fromInterface", 0)
        assert m.declaring_type == "p.I"

    def test_object_fallback(self):
        t = self.make_table()
        m = t.resolve_member(TypeRef("p.I"), "toString", 0)
        assert m.declaring_type == "java.lang.Object"

    def test_supertype_private_invisible(self):
        t = self.make_table()
        with pytest.raises(MemberResolutionError):
            t.resolve_member(TypeRef("p.Sub"), "secret", 0)
        own = t.resolve_member(TypeRef("p.Base"), "secret", 0)
        assert own.visibility == "private"

    def test_arity_distinguishes(self):
        t = self.make_table()
        with pytest.raises(MemberResolutionError):
            t.resolve_member(TypeRef("p.Sub"), "own", 2)

    def test_constructor_not_inherited(self):
        t = self.make_table()
        m = t.resolve_member(TypeRef("p.Sub"), "<init>", 1)
        assert m.member_kind is MemberKind.CONSTRUCTOR
        with pytest.raises(MemberResolutionError):
            t.resolve_member(TypeRef("p.Base"), "<init>", 1)

    def test_lenient_synthesizes(self):
        t = self.make_table()
        m = t.resolve_member(
            TypeRef("p.Sub"), "nope", 3, mode=ResolutionMode.LENIENT
        )
        assert m.declared_type.kind is TypeKind.UNKNOWN
        assert m.arity == 3

    def test_resolution_order_is_depth_first_with_object_last(self):
        t = TypeTable()
        t.add(decl("java.lang.Object"))
        t.add(decl("p.A", supers=["p.B", "p.I", "p.J"]))
        t.add(decl("p.B", supers=["p.C"]))
        t.add(decl("p.C", supers=["p.I"]))
        t.add(decl("p.I", kind=DeclKind.INTERFACE, supers=["p.K"]))
        t.add(decl("p.J", kind=DeclKind.INTERFACE))
        t.add(decl("p.K", kind=DeclKind.INTERFACE))
        t.add(decl("p.D", supers=["java.lang.Object", "p.J"]))

        def order(name):
            return [d.name for d in resolution_order(t, TypeRef(name))]

        assert order("p.A") == ["p.A", "p.B", "p.C", "p.I", "p.K", "p.J", "java.lang.Object"]
        assert order("p.D") == ["p.D", "java.lang.Object", "p.J"]
        assert order("java.lang.Object") == ["java.lang.Object"]
        assert order("p.Missing") == ["java.lang.Object"]

    @given(st.data())
    def test_memoized_lookup_takes_the_first_member_in_resolution_order(self, data):
        # Random acyclic tables: each type's supertypes come from the types
        # before it, java.lang.Object among them; every type declares some
        # of a few (name, arity) pairs, private or not.
        keys = [("a", None), ("a", 0), ("b", 1), ("c", 0)]
        names = ["java.lang.Object"] + [f"p.T{i}" for i in range(data.draw(st.integers(1, 7)))]
        t = TypeTable()
        for i, name in enumerate(names):
            supers = data.draw(st.lists(st.sampled_from(names[:i]), max_size=3, unique=True)) if i else []
            members = [
                MemberDecl(
                    member, MemberKind.FIELD if arity is None else MemberKind.METHOD, False,
                    data.draw(st.sampled_from(["public", "private"])),
                    TypeRef("int", TypeKind.PRIMITIVE), (OBJECT,) * (arity or 0), name,
                )
                for member, arity in data.draw(st.lists(st.sampled_from(keys), unique=True))
            ]
            t.add(decl(name, supers=supers, members=members))

        def first_on_order(receiver, member, arity):
            for d in resolution_order(t, receiver):
                for m in d.members:
                    if (m.name, m.arity) == (member, arity) and (
                        m.visibility != "private" or d.name == receiver.name
                    ):
                        return m
            return None

        for name in names + ["p.Missing"]:
            for member, arity in keys:
                try:
                    got = t.resolve_member(TypeRef(name), member, arity)
                except MemberResolutionError:
                    got = None
                assert got is first_on_order(TypeRef(name), member, arity), (name, member, arity)

    def test_never_returns_foreign_private(self):
        # Resolution over every (receiver, name, arity) triple in the table
        # must never surface a private member of another type.
        t = self.make_table()
        names = {(m.name, m.arity) for d in t for m in d.members}
        for d in t:
            for name, arity in names:
                try:
                    m = t.resolve_member(d.ref, name, arity)
                except MemberResolutionError:
                    continue
                if m.visibility == "private":
                    assert m.declaring_type == d.name
