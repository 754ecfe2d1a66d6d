"""galideal benchmark runner.

    python3 perfbench/run.py --workload {theta,lattice,checks} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  A closed loop with one client runs the
workload's op list, one op at a time, each op in a fresh interpreter
(perfbench/worker.py), so every op pays what a CLI user pays: interpreter
start, `import galideal` and cold lru_caches.  With --trace 0 the op list
runs --seconds / PASS_SECONDS[workload] times (at least once) and the last
stdout line is the end-to-end metrics.
With --trace 1 one pass runs with every op twice, untraced and traced, and
the last line is the per-layer metrics.  Outputs are checked against
perfbench/oracles.py and perfbench/expected.json outside the timed region;
a wrong answer, a nonzero exit or an op past OP_CAP_S counts as failed.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import oracles  # noqa: E402

OP_CAP_S = 30.0      # an op still running after this is killed and failed
DEADLINE_S = 130.0   # no op starts after this; the rest of the pass fails
WORK = os.path.join(BENCH, "_work")


def cli(*argv, check, **extra):
    return dict(kind="cli", argv=[str(a) for a in argv], check=check, **extra)


# ---------------------------------------------------------------------------
# workloads: the seed varies the inputs, never their cost class

def theta_ops(rng):
    ops = []
    for m in (60, 63, 84, 96, 105, 120):
        ram = oracles.prime_divisors(m)
        spare = [p for p in oracles.primes_below(30) if m % p]
        if m == 60:
            rs = [0, -1, -2, -3]
        else:
            # a complementary pair keeps each rung's twist total fixed
            rs = list(rng.choice([(0, -3), (-1, -2)]))
        rng.shuffle(rs)
        counts = [1, 2] * (len(rs) // 2)
        rng.shuffle(counts)
        for r, k in zip(rs, counts):
            extra = sorted(rng.sample(spare, k))
            places = ",".join(["infty"] + [str(p) for p in sorted(ram + extra)])
            ops.append(cli("stickelberger", "--modulus", m, "--s", places,
                           "--r", r, check=("theta", m, r, extra)))
    # the ramified-only ops are cheap (Hurwitz route) and the majority, so
    # the median op lands inside their cluster, not on a boundary
    for _ in range(4):
        for m in (840, 1000):
            for r in (0, -1, -2, -3):
                ops.append(cli("stickelberger", "--modulus", m, "--r", r,
                               check=("theta", m, r, [])))
    for char, r in ((1, 0), (7, -1), (123, 0), (250, -2), (301, -1),
                    (399, 0), (57, -3), (200, -1)):
        ops.append(cli("lvalue", "--modulus", 1000, "--char", char, "--r", r,
                       check=("digest",)))
    rng.shuffle(ops)
    return ops


def lattice_ops(rng):
    built = [cli("ideal", "--ell", ell, "--level", level, "--part", "minus",
                 "--r", r, check=("digest",))
             for ell, level, r in ((29, 0, -1), (37, 0, -1), (7, 1, -1),
                                   (3, 3, -1), (101, 0, 0))]
    # the --units fixtures are fixed: with a fixture drawn per seed the
    # cost of one op ranged from 0.3 s to 79 s (see README.md, cliffs)
    for ell, level in ((43, 0), (7, 1)):
        path = "perfbench/fixtures/units-%d.json" % ell ** (level + 1)
        for part in ("full", "plus", "imagquad"):
            built.append(cli("ideal", "--ell", ell, "--level", level, "--part",
                             part, "--units", path, check=("digest",)))
    rng.shuffle(built)
    ops = []
    for op in built:
        ops.append(op)
        source = len(ops) - 1
        for _ in range(2):
            ops.append(dict(kind="query", source=source,
                            seed=rng.randrange(2 ** 32), check=("query",)))
    ops.append(cli("check", "--suite", "functoriality", "--ell", 3,
                   "--levels", 2,
                   check=("suite", "check --suite functoriality --ell 3 --levels 2")))
    return ops


def dihedral6_cayley(rng):
    # D6 as permutations of a hexagon's vertices, elements listed in a
    # seeded order under seeded labels
    rot = tuple((i + 1) % 6 for i in range(6))
    ref = tuple((-i) % 6 for i in range(6))
    elems = [tuple(range(6))]
    while len(elems) < 12:
        for g in list(elems):
            for s in (rot, ref):
                h = tuple(g[s[i]] for i in range(6))
                if h not in elems:
                    elems.append(h)
    rng.shuffle(elems)
    pos = {g: i for i, g in enumerate(elems)}
    rows = [" ".join(str(pos[tuple(a[b[i]] for i in range(6))]) for b in elems)
            for a in elems]
    labels = ["x%d" % k for k in rng.sample(range(100), 12)]
    return "\n".join(["12"] + rows + [" ".join(labels)]) + "\n"


SUITE_NAMES = ("half-stickelberger", "lvalue-identity", "base-change",
               "functoriality", "induced-det", "fixed-point", "brauer",
               "abelian-reduction", "integrality", "nc-ideal", "oracles",
               "rank")


def checks_ops(rng):
    ops = []
    for suite in SUITE_NAMES:
        argv = ["check", "--suite", suite]
        key = " ".join(argv)
        if suite in ("induced-det", "fixed-point"):
            argv += ["--seed", rng.randrange(10 ** 6)]
        ops.append(cli(*argv, check=("suite", key)))
    for group in ("S3", "D4", "Q8", "A4"):
        ops.append(cli("brauer-map", "--group", group, "--certify",
                       check=("digest",)))
    path = "perfbench/_work/d6.cayley"
    ops.append(cli("brauer-map", "--cayley", path, "--certify",
                   check=("brauer", 12, 6), files={path: dihedral6_cayley(rng)}))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"theta": theta_ops, "lattice": lattice_ops, "checks": checks_ops}


def build_ops(workload, seed):
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))


# ---------------------------------------------------------------------------
# queries against an ideal built earlier in the pass

def query_inputs(payload, seed):
    """Four members and four non-members of the ideal, and the odd prime q
    for the compare query; each answer is known by construction."""
    rng = random.Random(seed)
    d, cols, n = payload["denominator"], payload["columns"], len(payload["ambient"])
    q = next(p for p in oracles.primes_below(100)[1:] if d % p)
    vectors, members = [], []
    for k in range(8):
        coeffs = [Fraction(rng.randint(-3, 3), 2 ** rng.randint(0, 2)) for _ in cols]
        v = [sum(c * col[i] for c, col in zip(coeffs, cols)) / d for i in range(n)]
        if k % 2:
            v[rng.randrange(n)] += Fraction(1, q)
        vectors.append([str(x) for x in v])
        members.append(k % 2 == 0)
    # compare() solves once per generator of the scaled ideal; on the
    # rank-42 and rank-50 ideals that alone would outweigh building them
    return vectors, members, (q if len(cols) <= 30 else 0)


# ---------------------------------------------------------------------------
# running ops

def spawn(op, root, trace):
    """Run one op in a fresh interpreter; None when it fails to finish."""
    spec = {"kind": op["kind"], "src": os.path.join(root, "src"), "bench": BENCH,
            "trace": trace}
    spec.update({k: op[k] for k in ("argv", "ideal", "vectors", "q") if k in op})
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=root, env=env, text=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=OP_CAP_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("op past the %.0f s cap: %s" % (OP_CAP_S, " ".join(op.get("argv", ["query"]))),
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("worker exit %d: %s" % (proc.returncode, err.strip()[-400:]),
              file=sys.stderr)
        return None
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def check_answer(op, result, expected):
    kind = op["check"][0]
    if kind == "query":
        return (result["answer"]["members"] == op["members"]
                and result["answer"]["compare"] == ("subset" if op["q"] else None))
    code, stdout = result["answer"]["code"], result["answer"]["stdout"]
    if code != 0:
        return False
    if kind == "digest":
        key = " ".join(op["argv"])
        return expected["digests"].get(key) == hashlib.sha256(stdout.encode()).hexdigest()
    report = json.loads(stdout)
    if kind == "theta":
        _, m, r, extra = op["check"]
        return report["element"] == oracles.theta(m, r, extra)
    if kind == "suite":
        return (report["passed"] and report["failures"] == 0
                and report["checks"] == expected["suite_checks"][op["check"][1]]
                and all(r["passed"] for r in report["results"]))
    if kind == "brauer":
        _, order, classes = op["check"]
        return (report["order"] == order and report["injective"]
                and report["rank"] == classes == len(report["class-labels"])
                and report["duality"]["passed"])
    raise ValueError("unknown check %r" % (kind,))


class Pass:
    """One pass over the op list; query ops read the ideal their source
    op printed earlier in the same pass."""

    def __init__(self, ops, root, expected, started):
        self.ops, self.root, self.expected, self.started = ops, root, expected, started
        self.outputs = {}

    def run(self, i, trace):
        op = dict(self.ops[i])
        if time.perf_counter() - self.started > DEADLINE_S:
            return None
        if op["kind"] == "query":
            src = self.outputs.get(op["source"])
            if src is None:
                return None
            op["ideal"] = json.loads(src)["lattice"]
            op["vectors"], op["members"], op["q"] = query_inputs(op["ideal"], op["seed"])
        for path, content in op.get("files", {}).items():
            with open(os.path.join(self.root, path), "w") as fh:
                fh.write(content)
        result = spawn(op, self.root, trace)
        if result is None:
            return None
        ok = check_answer(op, result, self.expected)
        if not ok:
            print("wrong answer: %s" % " ".join(op.get("argv", ["query"])),
                  file=sys.stderr)
            return None
        if op["kind"] == "cli":
            self.outputs[i] = result["answer"]["stdout"]
        return result


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    k = len(s) - 11
    if k < 0:
        return s[-1], 100.0, len(s)
    return s[k], 100.0 * (k + 1) / len(s), len(s)


# wall seconds of one pass over each op list on a 2-core Xeon under
# Python 3.11.7.  They fix how many passes a run makes, so the samples a
# percentile is taken from keep the same composition on every commit.
PASS_SECONDS = {"theta": 28.0, "lattice": 20.0, "checks": 14.0}


def measure(ops, root, expected, passes):
    started = time.perf_counter()
    per_op = [[] for _ in ops]
    setups, rss = [], []
    attempted = failed = 0
    for _ in range(passes):
        p = Pass(ops, root, expected, started)
        for i in range(len(ops)):
            attempted += 1
            result = p.run(i, False)
            if result is None:
                failed += 1
                continue
            per_op[i].append(result["op_s"])
            setups.append(result["setup_s"])
            rss.append(result["maxrss_kb"])
    samples = [t for ts in per_op for t in ts]
    if not samples:
        return attempted, failed, {}
    t_value, pct, n = tail(samples)
    print("%d passes of %d ops: %d op samples; op_tail_ms is p%.1f (10 beyond it)"
          % (passes, len(ops), n, pct), file=sys.stderr)
    return attempted, failed, {
        "setup_s": (statistics.median(setups), "s"),
        "batch_s": (sum(statistics.median(ts) for ts in per_op if ts), "s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_tail_ms": (1000 * t_value, "ms"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }


PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_share": "ratio",
                   "max_order": "count", "max_dim": "count", "max_rank": "count",
                   "max_entry_bits": "bits", "out_bytes": "bytes",
                   "overhead_ratio": "ratio"}


def trace_pass(ops, root, expected):
    started = time.perf_counter()
    p_plain = Pass(ops, root, expected, started)
    p_traced = Pass(ops, root, expected, started)
    totals, plain_s, traced_s = {}, 0.0, 0.0
    attempted = failed = 0
    for i in range(len(ops)):
        attempted += 2
        plain, traced = p_plain.run(i, False), p_traced.run(i, True)
        failed += (plain is None) + (traced is None)
        if plain is None or traced is None:
            continue
        if plain["answer"] != traced["answer"]:
            print("traced output differs: %s" % " ".join(ops[i].get("argv", [])),
                  file=sys.stderr)
            failed += 1
            continue
        plain_s += plain["op_s"]
        traced_s += traced["op_s"]
        for key, value in traced["layers"].items():
            if key.startswith("cyclotomic.max") or key.startswith("lattice.max") \
                    or key == "intmat.max_entry_bits":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    for part, whole, share in (
            ("cyclotomic.root_muls", "cyclotomic.mul_calls", "cyclotomic.mul_root_share"),
            ("dirichlet.l_value_unique", "dirichlet.l_value_calls",
             "dirichlet.l_value_unique_share")):
        num, den = totals.pop(part, 0), totals.get(whole, 0)
        totals[share] = num / den if den else 0.0
    totals["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 0.0
    spans = totals.pop("trace.spans", 0)
    print("traced pass: %d spans, untraced batch %.3f s, traced batch %.3f s"
          % (spans, plain_s, traced_s), file=sys.stderr)
    metrics = {}
    for key, value in totals.items():
        unit = next(u for suffix, u in PER_LAYER_UNITS.items() if key.endswith(suffix))
        metrics[key] = (value, unit)
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "galideal", "cli.py")):
        print("error: no src/galideal under %s; run from a galideal checkout"
              % root, file=sys.stderr)
        return 2
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    ops = build_ops(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.trace:
            attempted, failed, metrics = trace_pass(ops, root, expected)
        else:
            passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
            attempted, failed, metrics = measure(ops, root, expected, passes)
    finally:
        for op in ops:
            for path in op.get("files", {}):
                if os.path.exists(os.path.join(root, path)):
                    os.remove(os.path.join(root, path))
    if not metrics:
        print("error: every op failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
