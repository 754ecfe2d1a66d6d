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
# with another method is never flagged: one named split or index would
# pass on str.split and list.index alone.  A method whose name is also a
# plain attribute or a property somewhere in the package is used only when
# x.name(...) is called, since a read such as group.order would hide an
# unused order().  Operators (dunders) are called by syntax, not by name,
# and are not checked.

import ast
import json
from pathlib import Path

from galideal.cli import parse_argv
from galideal.suites import PARAM_FLAGS, SUITE_ALIASES, SUITE_PARAMS, SUITES

SRC = Path(__file__).resolve().parents[1] / "src" / "galideal"
GOLDEN_CASES = Path(__file__).resolve().parent / "golden" / "cases.json"

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
    "TorsionAnnihilator.ideal": "README promises torsion annihilators; the "
                                "verdicts read only the generators, and the "
                                "padic and ncideal tests read the ideal",
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
    # {Class.method: module} for public methods and properties, the names
    # of properties and plain attributes (self.x = ..., NamedTuple fields),
    # and the attribute names used, and those called, outside each one's
    # own def
    defined, properties, attributes = {}, set(), set()
    used, called = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            items = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in items:
                own = None
                if isinstance(node, ast.ClassDef):
                    if isinstance(item, ast.FunctionDef):
                        own = item.name
                        key = "%s.%s" % (node.name, own)
                        if any(isinstance(d, ast.Name) and d.id == "property"
                               for d in item.decorator_list):
                            properties.add(key)
                            attributes.add(own)
                        if not own.startswith("_"):
                            defined[key] = path.stem
                    else:
                        if isinstance(item, ast.AnnAssign):
                            attributes.add(item.target.id)
                        used.update(sub.id for sub in ast.walk(item)
                                    if isinstance(sub, ast.Name))
                for sub in ast.walk(item):
                    if isinstance(sub, ast.Attribute):
                        if isinstance(sub.ctx, ast.Store):
                            attributes.add(sub.attr)
                        if sub.attr != own:
                            used.add(sub.attr)
                    elif (isinstance(sub, ast.Call)
                          and isinstance(sub.func, ast.Attribute)
                          and sub.func.attr != own):
                        called.add(sub.func.attr)

    def is_used(key):
        name = key.split(".")[1]
        if key not in properties and name in attributes:
            return name in called
        return name in used

    return defined, is_used


def test_every_public_method_is_used_in_the_package():
    defined, is_used = _methods()
    unused = sorted("%s.%s" % (defined[name], name) for name in defined
                    if not is_used(name) and name not in KEPT_METHODS)
    assert unused == []
    assert sorted(n for n in KEPT_METHODS
                  if n not in defined or is_used(n)) == []


# assert statements left in src/galideal.  python -O strips them, so none
# may guard a caller's input; each one removed lowers the pin, and no change
# may raise it
ASSERT_PIN = 0


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


# Parameter guard: every defaulted parameter of a public module-level
# function in src/galideal is set by some call in src/galideal outside the
# function's own def, by keyword, by position, or through *args (every
# positional parameter) or **kwargs (every parameter).  Calls are matched by
# name, as f(...) or x.f(...), so a method sharing a function's name counts
# for it.  A default that no call overrides is a setting only tests reach:
# it is removed, or listed below with the reason it stays.
KEPT_PARAMS = {
    "main.argv": "the console script calls main() and it reads sys.argv; "
                 "tests pass the arguments in",
    "eigen_projection.precision": "eigen_projection is kept for README "
                                  "(KEPT_FOR_TESTS above), and its caller "
                                  "chooses the ell-adic precision",
}


def _suite_params():
    # the suite keyword parameters: run_suite passes them through
    # SUITES[name](**kwargs), a call by subscript that the scan cannot
    # name; the CLI sets them, each checked by check_params
    return {"%s.%s" % (SUITES[name].__name__, param)
            for name, params in SUITE_PARAMS.items() for param in params}


def _unset_defaults():
    defaults = {}   # "function.param" -> (module, position or None)
    calls = []      # (enclosing public function or None, ast.Call)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            own = None
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                own = node.name
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    defaults["%s.%s" % (own, arg.arg)] = (path.stem, i)
                for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        defaults["%s.%s" % (own, arg.arg)] = (path.stem, None)
            calls.extend((own, sub) for sub in ast.walk(node)
                         if isinstance(sub, ast.Call))
    set_by_call = set()
    for own, call in calls:
        f = call.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        if name is None or name == own:
            continue
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        for key, (_, pos) in defaults.items():
            fn, param = key.split(".")
            if fn != name:
                continue
            if (any(k.arg in (None, param) for k in call.keywords)
                    or (pos is not None
                        and (starred or pos < len(call.args)))):
                set_by_call.add(key)
    return {key: mod for key, (mod, _) in defaults.items()
            if key not in set_by_call}


def test_every_default_is_set_by_some_call():
    unset = _unset_defaults()
    allowed = _suite_params() | set(KEPT_PARAMS)
    assert sorted("%s.%s" % (unset[k], k) for k in unset
                  if k not in allowed) == []
    # an exception that a call now sets, or whose parameter is gone,
    # leaves the list
    assert sorted(k for k in KEPT_PARAMS if k not in unset) == []


def test_every_suite_parameter_is_set_by_a_golden_case():
    # the suite parameters are the knobs check hands to users: each
    # (suite, parameter) pair check_params admits is set, through its
    # PARAM_FLAGS flag, by some golden case, so a knob that only tests reach
    # fails here, as a default that only tests reach fails above
    set_by_case = set()
    for case in json.loads(GOLDEN_CASES.read_text()):
        if case["argv"][0] != "check":
            continue
        args = parse_argv(case["argv"])
        suite = SUITE_ALIASES.get(args.suite, args.suite)
        for param, flag in PARAM_FLAGS.items():
            if getattr(args, flag[2:].replace("-", "_"), None) is not None:
                set_by_case.add((suite, param))
    admitted = {(suite, param) for suite, params in SUITE_PARAMS.items()
                for param in params}
    assert sorted(admitted - set_by_case) == []
    # and every flag carries some suite's parameter
    assert {param for _, param in admitted} == set(PARAM_FLAGS)
