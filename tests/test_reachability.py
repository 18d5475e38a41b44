"""No library code that only tests run, and no export that nothing uses.

Every function, method and property warpcurve defines needs a reference
outside tests: in src/ outside its own body, in a demo, or in perfbench
outside its tests.  A reference is a name, an attribute or a string that
is an identifier (the benchmark wraps attributes by name).  The few
definitions that only tests reach are listed with their reasons.  Every
name the package exports needs a reference in a demo or a test.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# definitions only tests reach: the references they check the library by
_TEST_REFERENCES = {
    # the recurrence the unrolled sym_poly equals bit for bit
    "curvature._sym_poly_recurrence",
    # the finite-difference Jacobians the analytic J is checked against
    "oracle.fd_jacobian",
    "oracle.fd_colored_jacobian",
}


def _definitions(tree):
    """(qualified name, node) of a module's functions and of its classes'
    methods and properties."""
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        prefix = f"{node.name}." if is_class else ""
        for fdef in node.body if is_class else [node]:
            if isinstance(fdef, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + fdef.name, fdef


def _references(tree):
    """How often tree refers to each name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def _files(*dirs):
    return [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))
            if "tests" not in p.relative_to(ROOT / d).parts]


def test_every_definition_has_a_reference_outside_tests():
    trees = {p: ast.parse(p.read_text()) for p in _files("src/warpcurve")}
    refs = sum((_references(t) for t in trees.values()), Counter())
    for path in _files("demos", "perfbench"):
        refs += _references(ast.parse(path.read_text()))
    unreached = set()
    for path, tree in trees.items():
        for qual, fdef in _definitions(tree):
            name = fdef.name
            if name.startswith("__") and name.endswith("__"):
                continue                    # Python calls them
            # a call from its own body (recursion) is no caller
            if refs[name] == _references(fdef)[name]:
                unreached.add(f"{path.stem}.{qual}")
    assert unreached == _TEST_REFERENCES


def test_every_test_reference_is_read_by_a_test():
    refs = sum((_references(ast.parse(p.read_text()))
                for p in sorted((ROOT / "tests").glob("*.py"))), Counter())
    assert all(refs[q.rsplit(".", 1)[1]] for q in _TEST_REFERENCES)


def test_every_export_is_used_by_a_demo_or_a_test():
    init = ast.parse((ROOT / "src/warpcurve/__init__.py").read_text())
    exports = {alias.asname or alias.name for node in ast.walk(init)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    # this file names no export, so it cannot count as their user
    users = [p for p in sorted((ROOT / "tests").glob("*.py"))
             if p.name != Path(__file__).name]
    refs = sum((_references(ast.parse(p.read_text()))
                for p in users + _files("demos")), Counter())
    assert {name for name in exports if not refs[name]} == set()
