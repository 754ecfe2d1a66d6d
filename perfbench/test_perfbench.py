"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Run from the repository root.  They take about two minutes: one untraced
and two traced runs of the `checks` workload, one op killed at the cap,
and op-list checks that start no process.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["name"].endswith("_calls")
          or m["name"] in ("intmat.max_entry_bits", "serialize.out_bytes")]


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return [bench("checks", 7, 1), bench("checks", 7, 1)]


def assert_reports(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}


def test_smoke_run_reports_every_end_to_end_metric():
    assert_reports(bench("checks", 7, 0), SPEC["end_to_end"])


def test_traced_run_reports_every_per_layer_metric(traced):
    assert_reports(traced[0], SPEC["per_layer"])
    layers = traced[0]["metrics"]
    assert layers["brauer.duality_s"]["value"] > 0
    assert layers["trace.overhead_ratio"]["value"] > 1


def test_counts_repeat_exactly_at_one_seed(traced):
    first, second = (r["metrics"] for r in traced)
    assert COUNTS
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name


def test_op_past_the_cap_is_killed_and_fails(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.05)
    op = run.cli("stickelberger", "--modulus", 105, "--s", "infty,2,3,5,7",
                 "--r", -1, check=("theta", 105, -1, [2]))
    assert run.spawn(op, ROOT, False) is None


def cost_class(op):
    # what the seed may not change: command, modulus or ideal, and for the
    # Stickelberger rungs the number of extra primes and the twist total
    if op["kind"] == "query":
        return ("query",)
    argv = list(op["argv"])
    if argv[0] in ("stickelberger", "check"):
        for flag in ("--s", "--seed", "--r"):
            if flag in argv:
                argv[argv.index(flag) + 1] = "*"
    if op.get("files"):
        argv.append("file")
    return tuple(argv)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_second_seed_changes_inputs_not_cost_class(workload):
    one, two = run.build_ops(workload, 1), run.build_ops(workload, 2)
    assert one == run.build_ops(workload, 1)
    assert Counter(map(cost_class, one)) == Counter(map(cost_class, two))
    assert one != two
    if workload == "theta":
        for ops in (one, two):
            twist, extras = Counter(), Counter()
            for op in ops:
                if op["check"][0] == "theta" and op["check"][3]:
                    _, m, r, extra = op["check"]
                    twist[m] += r
                    extras[m] += len(extra)
            assert twist == {60: -6, 63: -3, 84: -3, 96: -3, 105: -3, 120: -3}
            assert extras == {60: 6, 63: 3, 84: 3, 96: 3, 105: 3, 120: 3}
