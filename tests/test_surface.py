# Public-surface guard: every public module-level function or class in
# src/galideal is referenced somewhere in src/galideal (by name, attribute
# or import alias) outside its own def, so a recursive call is no use.  The
# package root's re-exports are no use either: __init__.py only imports
# names, so a name nothing else reaches would pass on that import alone.  A
# name only tests call is either wired in, deleted, or listed below with
# the reason it stays.
#
# The public methods and properties of those classes are held to the same
# rule, read through attributes: a method is used when x.name appears
# outside its own def, or when its class body aliases it (conjugate =
# inverse).  The check is by name only, so a method that shares its name
# with another attribute is never flagged: one named split or index would
# pass on str.split and list.index alone.  Operators (dunders) are called
# by syntax, not by name, and are not checked.

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "galideal"

# kept for README's promises, the benchmark worker or the CLI's file format
KEPT_FOR_TESTS = {
    "intersect": "I cap J; README promises intersection of ideals",
    "eigen_projection": "README promises Teichmueller eigen-projections; "
                        "wiring it into a suite is left open, as it changes "
                        "suite check counts",
    "compare": "equal/subset/superset/incomparable; the benchmark worker "
               "imports it from galideal.lattice for its membership queries",
    "to_cayley_text": "writes the --cayley format from_cayley_text reads; "
                      "the CLI tests write their Cayley fixtures with it",
}

KEPT_METHODS = {
    "CyclotomicNumber.lift": "the sympy cross-checks read coefficients at a "
                             "common order through it",
    "EigenProjection.certified": "README promises eigen-projections with "
                                 "certified valuation signs",
}


def _surface():
    defined = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        root = path.name == "__init__.py"
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined[own] = path.stem
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias) and not root:
                    name = sub.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined, referenced


def test_every_public_name_is_used_in_the_package():
    defined, referenced = _surface()
    unused = sorted("%s.%s" % (defined[name], name) for name in defined
                    if name not in referenced and name not in KEPT_FOR_TESTS)
    assert unused == []
    # an exception that is wired in, or deleted, leaves the list
    assert sorted(n for n in KEPT_FOR_TESTS
                  if n not in defined or n in referenced) == []


def _methods():
    # {Class.method: module} for public methods, and the attribute names
    # used outside each one's own def
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            items = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in items:
                own = None
                if isinstance(node, ast.ClassDef):
                    if isinstance(item, ast.FunctionDef):
                        own = item.name
                        if not own.startswith("_"):
                            defined["%s.%s" % (node.name, own)] = path.stem
                    else:
                        used.update(sub.id for sub in ast.walk(item)
                                    if isinstance(sub, ast.Name))
                used.update(sub.attr for sub in ast.walk(item)
                            if isinstance(sub, ast.Attribute)
                            and sub.attr != own)
    return defined, used


def test_every_public_method_is_used_in_the_package():
    defined, used = _methods()
    unused = sorted("%s.%s" % (defined[name], name) for name in defined
                    if name.split(".")[1] not in used
                    and name not in KEPT_METHODS)
    assert unused == []
    assert sorted(n for n in KEPT_METHODS
                  if n not in defined or n.split(".")[1] in used) == []


# assert statements left in src/galideal.  python -O strips them, so none
# may guard a caller's input; each one removed lowers the pin, and no change
# may raise it
ASSERT_PIN = 13


def test_assert_count_only_falls():
    count = sum(isinstance(node, ast.Assert)
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert count <= ASSERT_PIN, "%d asserts, above the pin" % count
    assert count == ASSERT_PIN, "lower ASSERT_PIN to %d" % count


# the stdlib modules src/galideal imports.  Every operation of every
# benchmark workload runs in a fresh interpreter and pays for each import
# in its setup time, and some cost milliseconds (inspect alone took 8.1 ms
# under -X importtime, about 7% of an operation's setup on a 2-core VM),
# so a new import is a decision, made by extending this set.  Relative
# imports (the package's own modules) are not counted
IMPORTS = {"collections", "fractions", "functools", "itertools", "json",
           "math", "operator", "random", "re", "sys", "types", "typing"}


def test_imports_are_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert sorted(found - IMPORTS) == []
