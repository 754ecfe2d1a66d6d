# Golden corpus: CLI invocations whose exact stdout and exit code were
# recorded once and are compared byte for byte.  A refactor must leave every
# case unchanged; the recorded files are never rewritten to make a change
# pass.  Cases run with tests/golden/ as the working directory, because the
# fixture paths given on the command line are echoed into the report.

import json
from pathlib import Path

import pytest

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
