# Golden corpus: CLI invocations whose exact stdout and exit code were
# recorded once and are compared byte for byte.  A refactor must leave every
# case unchanged; the recorded files are never rewritten to make a change
# pass.  Cases run with tests/golden/ as the working directory, because the
# fixture paths given on the command line are echoed into the report.

import json
import subprocess
import sys
from pathlib import Path

import pytest

import galideal
from galideal.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == case["exit"]
    assert captured.out.encode() == (GOLDEN / (case["name"] + ".out")).read_bytes()


def test_check_and_lvalue_cases_without_asserts():
    # python -O strips asserts: every check and lvalue case prints the same
    # bytes in one -O process, so none of their work happens in an assert
    cases = [c for c in CASES if c["argv"][0] in ("check", "lvalue")]
    assert len(cases) > 20
    _run_without_asserts(cases)


def test_brauer_map_cases_without_asserts():
    # the same for brauer-map, whose subgroup lattices and commutator
    # subgroups carry asserts on internal invariants
    cases = [c for c in CASES if c["argv"][0] == "brauer-map"]
    assert len(cases) >= 8
    _run_without_asserts(cases)


def _run_without_asserts(cases):
    script = """
import contextlib, io, json, sys
from galideal.cli import main
if __debug__:
    sys.exit("asserts are on")
out = []
for argv in json.loads(sys.stdin.read()):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    out.append([code, buf.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(out))
"""
    src = str(Path(galideal.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          input=json.dumps([c["argv"] for c in cases]),
                          capture_output=True, text=True, timeout=300,
                          cwd=GOLDEN, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    for case, (code, out, err) in zip(cases, results):
        assert (code, err) == (case["exit"], ""), case["name"]
        assert out.encode() == (GOLDEN / (case["name"] + ".out")).read_bytes(), \
            case["name"]
