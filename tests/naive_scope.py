"""Type-name scope oracle: the type a simple name means, read off the JLS
(2nd ed.) text directly, with no memo and no shortcut.

It is kept deliberately naive, as the independent check of the binder's
resolver, and shares no code with it: it reads only the parser's trees.
Every answer is recomputed from the declarations each time it is asked for.
It knows the named types of the given units (anonymous bodies and what
they hold are out of its reach) and nothing of java.lang or of stubs, so
the projects it checks name no type outside themselves.
"""

from demeterlint.javafront import ast


class Invalid(Exception):
    """javac would reject the project: a name means no type, or two types
    of on-demand imports, or the supertypes form a cycle."""


class AmbiguousMember(Exception):
    """A name means member types inherited from two supertypes (JLS §8.5,
    §9.5), which javac rejects; the binder takes the nearest instead."""


class Project:
    def __init__(self, units: list[ast.CompilationUnit]):
        # Every named type: qualified name -> (declaration, unit, the
        # qualified name of the type whose body declares it, or None).
        self.types: dict[str, tuple] = {}
        for unit in units:
            prefix = f"{unit.package}." if unit.package else ""
            work = [(node, prefix + node.name, None) for node in unit.types]
            while work:
                node, name, outer = work.pop()
                self.types[name] = (node, unit, outer)
                work.extend(
                    (m, f"{name}${m.name}", name)
                    for m in node.members
                    if isinstance(m, ast.TypeDeclNode)
                )
        self.top_level = {name for name, (_, _, outer) in self.types.items() if outer is None}

    def supertypes(self, name: str) -> list[str]:
        """§8.1.3, §8.1.4, §9.1.2: the types the extends and implements
        clauses name, each resolved in the scope the declaration is in:
        a member type's enclosing type, or the compilation unit."""
        node, unit, outer = self.types[name]
        return [self.resolve(unit, outer, tn.name) for tn in node.extends + node.implements]

    def check_acyclic(self) -> None:
        """§8.1.3, §9.1.2: no type depends on itself through supertypes."""
        for start in self.types:
            path = [start]
            todo = [iter(self.supertypes(start))]
            while todo:
                sup = next(todo[-1], None)
                if sup is None:
                    todo.pop()
                    path.pop()
                elif sup in path:
                    raise Invalid(f"cyclic inheritance involving {sup}")
                else:
                    path.append(sup)
                    todo.append(iter(self.supertypes(sup)))

    def member_types(self, name: str, simple: str, path: tuple = ()) -> set[str]:
        """§8.5, §9.5: the member types named ``simple`` that type ``name``
        has.  One it declares hides all it would inherit; otherwise it has
        every one each direct supertype has.  ``path`` holds the types that
        inherit from ``name`` on the way here."""
        if name in path:
            raise Invalid(f"cyclic inheritance involving {name}")
        node = self.types[name][0]
        for m in node.members:
            if isinstance(m, ast.TypeDeclNode) and m.name == simple:
                return {f"{name}${simple}"}
        found: set[str] = set()
        for sup in self.supertypes(name):
            found |= self.member_types(sup, simple, path + (name,))
        return found

    def resolve(self, unit: ast.CompilationUnit, scope, simple: str) -> str:
        """§6.5.5.1: the type ``simple`` means inside the body of type
        ``scope`` (None: outside every type) of ``unit``.

        §6.3: the scope of a member type is the body of the type that
        declares or inherits it, including nested declarations, and the
        innermost declaration shadows the others (§6.3.1).  Outside every
        such body come the unit's own top-level types and its single-type
        imports (§7.5.1: these shadow the package's types from other units
        and on-demand imports), then the package's top-level types (§7.6),
        then on-demand imports (§7.5.2), where two types are ambiguous."""
        while scope is not None:
            found = self.member_types(scope, simple)
            if len(found) > 1:
                raise AmbiguousMember(f"{simple} in {scope}: {sorted(found)}")
            if found:
                return found.pop()
            scope = self.types[scope][2]
        prefix = f"{unit.package}." if unit.package else ""
        if any(top.name == simple for top in unit.types):
            return prefix + simple
        for imp in unit.imports:
            if not imp.on_demand and imp.name.rsplit(".", 1)[-1] == simple:
                if imp.name not in self.top_level:
                    raise Invalid(f"cannot find imported {imp.name}")
                return imp.name
        if prefix + simple in self.top_level:
            return prefix + simple
        found = {
            f"{imp.name}.{simple}"
            for imp in unit.imports
            if imp.on_demand and f"{imp.name}.{simple}" in self.top_level
        }
        if len(found) > 1:
            raise Invalid(f"{simple} is ambiguous: {sorted(found)}")
        if not found:
            raise Invalid(f"cannot find symbol {simple}")
        return found.pop()
