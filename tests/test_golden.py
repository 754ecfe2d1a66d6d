# Golden corpus: CLI invocations whose exact stdout and exit code were
# recorded once and are compared byte for byte.  A refactor must leave every
# case unchanged; the recorded files are never rewritten to make a change
# pass.  Cases run with tests/golden/ as the working directory, because the
# fixture paths given on the command line are echoed into the report.

import hashlib
import json
from pathlib import Path

import pytest

from galideal.cli import main

from conftest import run_python

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


@pytest.mark.parametrize("argv,digest", [
    (["ideal", "--ell", "3", "--level", "4", "--part", "minus", "--r", "-1"],
     "3ef8d309c88e76ece85d730067d1d9eccdef9bc2af6fcbc97f492bb4b04e3ba4"),
    (["ideal", "--ell", "7", "--level", "2", "--part", "minus", "--r", "-1"],
     "4e732c94ad3c6923f6b4e2a8bef4bb22a606093fb6850195a81f2544f5e08cd8"),
], ids=["ideal-minus-3-4", "ideal-minus-7-2"])
def test_deep_minus_lattices_keep_their_digest(argv, digest, capsys):
    # deep tower levels whose reports (170 KB and 570 KB) are too large
    # for the corpus, pinned by the sha256 of their stdout instead
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


LVALUE_9241 = ["lvalue", "--modulus", "9241", "--char", "1", "--r", "-2"]
LVALUE_9241_DIGEST = (
    "b93419f14be343064df97c0c32dbee25b75c08cb59ea67bac509900deb0e478a")


@pytest.mark.parametrize("argv,digest", [
    (LVALUE_9241, LVALUE_9241_DIGEST),
    (["lvalue", "--modulus", "10007", "--char", "1", "--r", "-2"],
     "e0f8627796dcadeb13277ab8eff46b987550e0da0d90030c44d9e3311553fce5"),
], ids=["lvalue-9241", "lvalue-10007"])
def test_large_lvalues_keep_their_digest(argv, digest, capsys):
    # L-values whose character values live at the orders 9240 and 10006,
    # far above any golden case; their reports (36 KB and 137 KB) are
    # pinned by the sha256 of their stdout
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_lvalue_at_order_9240_fits_in_128_mb():
    # reduction mod Phi_9240 needs no table of powers of zeta: the child caps
    # its own address space at 128 MB and still prints the pinned report
    script = """
import contextlib, hashlib, io, json, resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (128 << 20, hard))
from galideal.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(json.loads(sys.argv[1]))
print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""
    proc = run_python("-c", script, json.dumps(LVALUE_9241))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", LVALUE_9241_DIGEST]


@pytest.fixture(scope="module")
def without_asserts():
    # python -O strips asserts, and a non-default PYTHONHASHSEED reorders
    # every set and dict of strings: every case runs once in one such
    # process, and the tests below compare its bytes with the corpus, so none
    # of the work happens in an assert and no output follows the hash order
    script = """
import contextlib, io, json, os, sys
from galideal.cli import main
if __debug__ or os.environ["PYTHONHASHSEED"] != "123":
    sys.exit("asserts are on, or the hash seed is not 123")
out = []
for argv in json.loads(sys.stdin.read()):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    out.append([code, buf.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(out))
"""
    proc = run_python("-O", "-c", script,
                      input=json.dumps([c["argv"] for c in CASES]),
                      timeout=300, cwd=GOLDEN, env={"PYTHONHASHSEED": "123"})
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(CASES)
    return {case["name"]: result for case, result in zip(CASES, results)}


def _same_without_asserts(cases, results):
    for case in cases:
        code, out, err = results[case["name"]]
        assert (code, err) == (case["exit"], ""), case["name"]
        assert out.encode() == (GOLDEN / (case["name"] + ".out")).read_bytes(), \
            case["name"]


def test_every_case_without_asserts_under_a_fixed_hash_seed(without_asserts):
    assert {c["argv"][0] for c in CASES} == {
        "brauer-map", "check", "ideal", "lvalue", "nc-ideal", "stickelberger"}
    _same_without_asserts(CASES, without_asserts)


def test_check_and_lvalue_cases_without_asserts(without_asserts):
    cases = [c for c in CASES if c["argv"][0] in ("check", "lvalue")]
    assert len(cases) > 20
    _same_without_asserts(cases, without_asserts)


def test_brauer_map_cases_without_asserts(without_asserts):
    # subgroup lattices and commutator subgroups carry asserts on internal
    # invariants
    cases = [c for c in CASES if c["argv"][0] == "brauer-map"]
    assert len(cases) >= 8
    _same_without_asserts(cases, without_asserts)


def test_ideal_cases_without_asserts(without_asserts):
    # the eigenspace lattices reject a generator off its eigenspace with a
    # raise, so nothing they compute sits in an assert
    cases = [c for c in CASES if c["argv"][0] == "ideal"]
    assert len(cases) >= 13
    _same_without_asserts(cases, without_asserts)
