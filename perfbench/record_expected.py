"""Record perfbench/expected.json from the current source tree.

    python3 perfbench/record_expected.py

Writes the stdout sha256 of every unseeded op the workloads run and the
number of checks of every suite.  The file is recorded once, at the commit
the benchmark was defined on, and is never regenerated to make a run pass.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.getcwd(), "src")]

import run  # noqa: E402
from galideal import cli  # noqa: E402


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, argv
    return buf.getvalue()


def main():
    digests, suite_checks = {}, {}
    for workload in sorted(run.WORKLOADS):
        for op in run.build_ops(workload, 0):
            if op["kind"] != "cli":
                continue
            if op["check"][0] == "digest":
                out = stdout_of(op["argv"])
                digests[" ".join(op["argv"])] = hashlib.sha256(out.encode()).hexdigest()
            elif op["check"][0] == "suite":
                suite_checks[op["check"][1]] = json.loads(stdout_of(op["argv"]))["checks"]
    with open(os.path.join(BENCH, "expected.json"), "w") as fh:
        json.dump({"digests": digests, "suite_checks": suite_checks}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
