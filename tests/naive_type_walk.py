"""Type-declaration walk oracle: every type node of a unit, found by
walking every statement and expression.

This is the walk the binder used before the parser listed type declarations
itself (``CompilationUnit.type_decls``).  It is kept unchanged as the
independent check of that list: its order and the qualified names it
assigns, anonymous-class numbering included.  It overwrites the
``qualified_name`` of every node it yields.
"""

from demeterlint.javafront import ast


def naive_type_nodes(unit: ast.CompilationUnit):
    """Yield every type node of the unit in source order, anonymous included.

    Qualified names are assigned on the way: nested named types get
    ``Outer$Inner``; anonymous bodies get ``Outer$anonN`` numbered per
    nearest enclosing named type.

    The walk is a preorder over an explicit stack of (node, counter, named
    base) items.  A named type is named when its parent pushes it; an
    anonymous body is numbered when it comes off the stack, after the
    arguments of its creation expression.
    """
    prefix = f"{unit.package}." if unit.package else ""
    for top in unit.types:
        top.qualified_name = prefix + (top.name or "")
    stack: list = [(top, None, None) for top in reversed(unit.types)]
    while stack:
        node, counter, named_base = stack.pop()
        if isinstance(node, ast.TypeDeclNode):
            if node.anonymous:
                counter[0] += 1
                node.qualified_name = f"{named_base}$anon{counter[0]}"
            else:
                counter, named_base = [0], node.qualified_name
            yield node
            children = []
            for member in node.members:
                if isinstance(member, ast.TypeDeclNode):
                    member.qualified_name = f"{node.qualified_name}${member.name}"
                    children.append(member)
                elif isinstance(member, ast.FieldDecl):
                    children.extend(d.init for d in member.declarators if d.init is not None)
                elif isinstance(member, (ast.MethodDecl, ast.InitBlock)):
                    if member.body is not None:
                        children.append(member.body)
        elif isinstance(node, ast.NewObject) and node.body is not None:
            children = [*node.args, node.body]
        else:
            children = _child_exprs(node)
        stack.extend((child, counter, named_base) for child in reversed(children))


def _stmt_exprs(s) -> list:
    """Children of a statement in token order (statements and expressions)."""
    if isinstance(s, ast.Block):
        return list(s.stmts)
    if isinstance(s, ast.LocalDecl):
        return [d.init for d in s.declarators if d.init is not None]
    if isinstance(s, ast.ExprStmt):
        return [s.expr]
    if isinstance(s, ast.IfStmt):
        out = [s.cond, s.then]
        if s.other is not None:
            out.append(s.other)
        return out
    if isinstance(s, ast.WhileStmt):
        return [s.cond, s.body]
    if isinstance(s, ast.ForStmt):
        out: list = []
        if isinstance(s.init, ast.LocalDecl):
            out.append(s.init)
        elif isinstance(s.init, tuple):
            out.extend(s.init)
        if s.cond is not None:
            out.append(s.cond)
        out.extend(s.update)
        out.append(s.body)
        return out
    if isinstance(s, ast.SwitchStmt):
        out = [s.selector]
        for g in s.groups:
            out.extend(l for l in g.labels if l is not None)
            out.extend(g.stmts)
        return out
    if isinstance(s, ast.ReturnStmt):
        return [s.value] if s.value is not None else []
    if isinstance(s, ast.TryStmt):
        out = [s.body]
        for c in s.catches:
            out.append(c.body)
        if s.final is not None:
            out.append(s.final)
        return out
    return []


def _child_exprs(e) -> list:
    """Sub-expressions (and nested statements) of an expression, token order."""
    if isinstance(e, (ast.Block, ast.LocalDecl, ast.ExprStmt, ast.IfStmt, ast.WhileStmt,
                      ast.ForStmt, ast.SwitchStmt, ast.ReturnStmt, ast.TryStmt,
                      ast.BreakStmt, ast.ContinueStmt, ast.EmptyStmt)):
        return _stmt_exprs(e)
    if isinstance(e, ast.FieldAccess):
        return [e.target]
    if isinstance(e, ast.MethodCall):
        return ([e.target] if e.target is not None else []) + list(e.args)
    if isinstance(e, ast.SuperMember):
        return list(e.args or [])
    if isinstance(e, (ast.SuperCtorCall, ast.ThisCtorCall)):
        return list(e.args)
    if isinstance(e, ast.Cast):
        return [e.expr]
    if isinstance(e, ast.NewObject):
        return list(e.args)  # the body is handled by the caller
    if isinstance(e, ast.NewArray):
        out = [d for d in e.dim_exprs if d is not None]
        if e.init is not None:
            out.append(e.init)
        return out
    if isinstance(e, ast.ArrayInit):
        return list(e.items)
    if isinstance(e, ast.ArrayAccess):
        return [e.target, e.index]
    if isinstance(e, ast.Unary):
        return [e.expr]
    if isinstance(e, ast.Binary):
        return [e.left, e.right]
    if isinstance(e, ast.InstanceOf):
        return [e.expr]
    if isinstance(e, ast.Conditional):
        return [e.cond, e.then, e.other]
    if isinstance(e, ast.Assign):
        return [e.target, e.value]
    if isinstance(e, ast.Paren):
        return [e.expr]
    return []
