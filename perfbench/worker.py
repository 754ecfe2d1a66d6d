"""One benchmark op in a fresh interpreter.

Reads one JSON op from stdin, imports galideal from <root>/src, runs the op
and prints one JSON line: the time the import finished, the in-worker op
time, the op's answer, the peak RSS and, when traced, the layer summary.

Op kinds:
  cli    galideal.cli.main(argv) with stdout captured
  query  lattice.contains_vector on each vector, then lattice.compare of
         the ideal scaled by an odd prime q against the ideal
The import is outside the timed region; so are parsing the op and, for a
traced op, installing the tracer.
"""

import sys
import time

if __name__ == "__main__":
    op = __import__("json").loads(sys.stdin.read())
    sys.path.insert(0, op["src"])
    import galideal.cli
    ready = time.perf_counter()

    import contextlib
    import io
    import json
    import resource
    from fractions import Fraction

    from galideal import lattice

    tracer = None
    if op.get("trace"):
        sys.path.insert(0, op["bench"])
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    if op["kind"] == "cli":
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = galideal.cli.main(op["argv"])
            t1 = time.perf_counter()
        answer = {"code": code, "stdout": out.getvalue()}
    else:
        p = op["ideal"]
        ideal = lattice.FractionalIdeal(p["ambient"], p["denominator"],
                                        p["columns"])
        vectors = [[Fraction(x) for x in v] for v in op["vectors"]]
        scaled = None
        if op["q"]:
            scaled = lattice.FractionalIdeal(
                p["ambient"], p["denominator"],
                [[op["q"] * x for x in col] for col in p["columns"]])
        t0 = time.perf_counter()
        found = [lattice.contains_vector(ideal, v) for v in vectors]
        relation = lattice.compare(scaled, ideal) if scaled else None
        t1 = time.perf_counter()
        answer = {"members": found, "compare": relation}

    result = {
        "ready": ready,
        "op_s": t1 - t0,
        "answer": answer,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
