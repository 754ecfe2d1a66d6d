# Public-surface guard: every public module-level function or class in
# src/galideal is referenced somewhere in src/galideal (by name, attribute
# or import alias) outside its own def, so a recursive call is no use.  A
# name only tests call is either wired in, deleted, or listed below with
# the reason it stays.

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "galideal"

# kept as independent references that tests compare the package against
KEPT_FOR_TESTS = {
    "intersect": "I cap J; tests check that the plus and minus parts meet in 0",
    "ideal_product": "I J; the nc-ideal tests check an annihilator identity",
    "minus_idempotent": "the minus projector; tests split ideals into parts",
    "roots_of_unity_count": "w_m, the factor of the tests' half-Stickelberger "
                            "identity",
    "eigen_projection": "the p-adic eigenspace map; wiring it into a suite "
                        "is left open, as it changes suite check counts",
}


def _surface():
    defined = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
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
                elif isinstance(sub, ast.alias):
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


# assert statements left in src/galideal.  python -O strips them, so none
# may guard a caller's input; each one removed lowers the pin, and no change
# may raise it
ASSERT_PIN = 15


def test_assert_count_only_falls():
    count = sum(isinstance(node, ast.Assert)
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert count <= ASSERT_PIN, "%d asserts, above the pin" % count
    assert count == ASSERT_PIN, "lower ASSERT_PIN to %d" % count
