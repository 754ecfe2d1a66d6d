"""List the statements of src/galideal that no test runs.

    python3 tests/unexecuted.py

Runs the tier-1 suite once under a line tracer limited to src/galideal
frames, in the pytest process and in every Python child that a test starts
through subprocess.run (conftest.run_python), and prints each statement of
src/galideal that no test ran.  Definitions, imports and docstrings are not
counted, and a statement that KEPT below names, with the reason it stays
unrun, is not printed.  The tracer sees lines, so a statement that shares its
first line with code before it (if x: return y, a = 1; b = 2) cannot be told
apart from that code; such a statement is printed too, to be put on a line of
its own.  The output is the same from run to run; the exit status is 1 when a
statement is printed, when a KEPT entry names a statement that runs or no
longer exists, or when the suite fails.

Pytest does not collect this file (it is no test_*.py).  It is also the
plugin of the traced run (pytest -p unexecuted), which, for that run only,
fixes Hypothesis's draws (derandomize, no example database, no deadline) and
puts the tracer's directory first on the PYTHONPATH of every child.  The
tracer itself is that directory's sitecustomize.py, so each interpreter that
has the directory on its path, the pytest process included, traces from its
start and writes its hits there at exit.  Stdlib only, apart from the pytest
run it starts.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "galideal"

# statements no test runs, by "file qualname: first line", with the reason
# each stays; the second and later statements of one function with the same
# first line are keyed with " #2", " #3", ... after it
_REPR = ("a debugging aid, shown when a value is printed by hand or in a "
         "failing test's report; no output or message of the package reads it")
KEPT = {
    'abelian.py AbelianCharacter.__repr__: '
    'return "AbelianCharacter(%r, %r)" % (self.group, self.tuple)': _REPR,
    'cycloideal.py CyclotomicLevel.__repr__: '
    'return "CyclotomicLevel(ell=%d, n=%d)" % (self.ell, self.level)': _REPR,
    'groupring.py GroupRingElement.__repr__: label = self.group.label': _REPR,
    'groupring.py GroupRingElement.__repr__: '
    'return " + ".join("(%s)%s" % (Fraction(a, self.den), label(g)) '
    'for g, a': _REPR,
    'lattice.py FractionalIdeal.__repr__: '
    'return "FractionalIdeal(dim %d, rank %d, den %d)" % (': _REPR,
}

SITECUSTOMIZE = '''\
import atexit, os, sys

_SRC = %r
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_lineno, frame.f_code.co_filename))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_SRC) else None


@atexit.register
def _write():
    sys.settrace(None)
    path = os.path.join(os.path.dirname(__file__), "hits-%%d" %% os.getpid())
    with open(path, "w", encoding="utf-8") as f:
        f.writelines("%%d %%s\\n" %% hit for hit in sorted(_hits))


sys.settrace(_call)
'''


# -- the pytest plugin -------------------------------------------------------

_real_run = subprocess.run


def pytest_configure(config):
    import pytest
    from hypothesis import settings

    site = sys.modules.get("sitecustomize")
    if site is None or not hasattr(site, "_hits"):
        raise pytest.UsageError("the unexecuted plugin runs only under "
                                "python3 tests/unexecuted.py")
    settings.register_profile("unexecuted", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("unexecuted")
    sitedir = os.path.dirname(site.__file__)

    def run(*args, env=None, **kwargs):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (sitedir, env.get("PYTHONPATH")) if p)
        return _real_run(*args, env=env, **kwargs)

    subprocess.run = run


def pytest_unconfigure(config):
    subprocess.run = _real_run


# -- the statements of src/galideal -------------------------------------------

# statements that compile to no line of their own: imports are not
# counted, and a bare constant (a docstring) compiles to nothing
_UNCOUNTED = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def _uncounted(stmt):
    return isinstance(stmt, _UNCOUNTED) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def _children(stmt):
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(stmt, field, ())
    for handler in getattr(stmt, "handlers", ()):
        yield from handler.body
    for case in getattr(stmt, "cases", ()):
        yield from case.body


def _statements(body, qualname, lines, hits, out):
    # append (lineno, qualname, text, ran, shared) for each counted
    # statement of body, those inside it included, to out, where shared
    # says that code before it on its first line hides whether it ran;
    # return whether any ran
    any_ran = False
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = qualname + "." + stmt.name if qualname else stmt.name
            _statements(stmt.body, name, lines, hits, out)
            continue
        if _uncounted(stmt):
            continue
        children = list(_children(stmt))
        # a compound statement owns its header lines, a simple one all of
        # its lines; a header that emits no line event (try:) still ran
        # when a statement inside it did
        end = (max(children[0].lineno - 1, stmt.lineno) if children
               else stmt.end_lineno)
        inner = []
        ran = (_statements(children, qualname, lines, hits, inner)
               or any(n in hits for n in range(stmt.lineno, end + 1)))
        line = lines[stmt.lineno - 1]
        out.append((stmt.lineno, qualname or "<module>", line.strip(), ran,
                    bool(line[:stmt.col_offset].strip())))
        out.extend(inner)
        any_ran = any_ran or ran
    return any_ran


def statements(hits):
    # {file name: [(lineno, qualname, text, ran, shared)]} for src/galideal
    found = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        out = []
        _statements(ast.parse(text).body, "", text.splitlines(),
                    hits.get(str(path), set()), out)
        found[path.name] = sorted(out)
    return found


# -- the traced run ----------------------------------------------------------

def traced_hits():
    # run tier-1 traced; return ({file: {line}}, pytest's exit status)
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(
            SITECUSTOMIZE % (str(SRC) + os.sep), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmp, str(ROOT / "tests"), str(ROOT / "src"),
                        env.get("PYTHONPATH")) if p)
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "unexecuted",
             "-p", "no:cacheprovider", str(ROOT / "tests")],
            cwd=ROOT, env=env, stdout=sys.stderr).returncode
        files = sorted(Path(tmp).glob("hits-*"))
        hits = {}
        for path in files:
            for row in path.read_text(encoding="utf-8").splitlines():
                line, name = row.split(" ", 1)
                hits.setdefault(name, set()).add(int(line))
    print("traced %d interpreters" % len(files), file=sys.stderr)
    return hits, status


def main():
    hits, status = traced_hits()
    found = statements(hits)
    unrun, shared = [], []   # (KEPT key, location) of each statement
    for name, rows in found.items():
        copies = {}
        for line, qualname, text, ran, hidden in rows:
            key = "%s %s: %s" % (name, qualname, text)
            copies[key] = n = copies.get(key, 0) + 1
            if n > 1:
                key += " #%d" % n
            where = "src/galideal/%s:%d" % (name, line)
            if hidden:
                shared.append((key, where))
            elif not ran:
                unrun.append((key, where))
    unexplained = [(key, where) for key, where in unrun if key not in KEPT]
    stale = sorted(set(KEPT) - {key for key, _ in unrun})
    for key, where in unexplained:
        print(where, key)
    for key, where in shared:
        print(where, "shares its line with code before it:", key)
    for key in stale:
        print("KEPT names a statement that runs or is gone: %s" % key)
    total = sum(len(rows) for rows in found.values())
    print("%d statements, %d not run: %d kept, %d unexplained"
          % (total, len(unrun), len(unrun) - len(unexplained),
             len(unexplained)))
    if status != 0:
        print("pytest exited with status %d" % status, file=sys.stderr)
    return 1 if unexplained or shared or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
