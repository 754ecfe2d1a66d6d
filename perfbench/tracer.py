"""Outside-in tracer for galideal: spans around every public function.

Nothing under src/ knows about this module.  `install()` wraps, from the
outside, every public module-level function of every galideal module and
every public method (plus the arithmetic dunders) of every galideal class.
It rebinds the name in each galideal module that imported the function and
in each module-level dict that stores it (the suite registry, the command
table), so callers go through the wrapper whichever name they use.

Each call records one span: function id, start, end and the index of the
enclosing span.  Spans stay in flat arrays in memory until `summary()` folds
them into per-layer numbers.  Size fields (cyclotomic order, lattice
dimension and rank, largest matrix entry in bits, JSON bytes) are read from
arguments and return values as the call ends and kept as running maxima or
sums, so a span needs no per-call allocation beyond its four array slots.
"""

import functools
import sys
import time
import types
from array import array
from fractions import Fraction

MODULES = ("abelian", "brauer", "cli", "cycloideal", "cyclotomic", "dirichlet",
           "groupring", "intmat", "lattice", "ncideal", "padic", "serialize",
           "stickelberger", "suites", "towers")

# dunders that do arithmetic or evaluation; __init__, __eq__, __hash__ and
# the like are left alone (they run inside the spans of their callers)
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__neg__", "__pow__", "__call__"}

# functions whose inclusive time is a metric of its own
_INCLUSIVE = {
    "intmat.snf_diagonal_with_span": "intmat.snf_s",
    "intmat.hnf_columns": "intmat.hnf_s",
    "intmat.rref": "intmat.rref_s",
    "lattice.canonicalize": "lattice.canonicalize_s",
    "lattice.contains_vector": "lattice.contains_s",
    "brauer.bgstar": "brauer.bgstar_s",
    "brauer.duality_certificate": "brauer.duality_s",
    "brauer.from_cayley_text": "brauer.cayley_parse_s",
    "serialize.to_json": "serialize.to_json_s",
}

# functions whose call count is a metric of its own
_COUNTED = {
    "cyclotomic.CyclotomicNumber.__mul__": "cyclotomic.mul_calls",
    "cyclotomic.CyclotomicNumber.inverse": "cyclotomic.inverse_calls",
    "dirichlet.l_value": "dirichlet.l_value_calls",
    "groupring.lambda_assemble": "groupring.lambda_assemble_calls",
    "intmat.rref": "intmat.rref_calls",
    "lattice.canonicalize": "lattice.canonicalize_calls",
    "lattice.contains_vector": "lattice.contains_calls",
}

_CHARACTER_CALLS = ("abelian.AbelianCharacter.__call__",
                    "abelian.ResidueCharacter.__call__")


def _entry_bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length() if x.numerator >= 0
                   else (-x.numerator).bit_length(),
                   x.denominator.bit_length())
    if isinstance(x, int):
        return (x if x >= 0 else -x).bit_length()
    if isinstance(x, (list, tuple)):
        return max((_entry_bits(y) for y in x), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.names = []          # function id -> span name
        self.fn_start = array("d")
        self.fn_end = array("d")
        self.fn_id = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.active = {}         # function id -> open spans (recursion guard)
        self.inclusive = {}      # metric -> seconds
        self.sizes = {"cyclotomic.max_order": 0, "lattice.max_dim": 0,
                      "lattice.max_rank": 0, "intmat.max_entry_bits": 0,
                      "serialize.out_bytes": 0}
        self.root_muls = 0
        self.lvalue_keys = set()
        self.hook_s = {}         # span index -> size-hook seconds under it
        self._roots = {}         # order -> coefficient tuples of +-zeta^k
        self._wrappers = {}      # original callable -> wrapper
        self._wrapped = set()    # the wrappers themselves
        self._classes = set()

    # -- installation ----------------------------------------------------

    def install(self):
        for mod in [sys.modules["galideal"]] + [sys.modules["galideal." + m]
                                                for m in MODULES]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type) and self._ours(obj):
                    self._wrap_class(obj)
                elif self._public_function(name, obj):
                    setattr(mod, name, self._wrapper(obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if self._public_function(getattr(val, "__name__", ""), val):
                            obj[key] = self._wrapper(val)

    @staticmethod
    def _ours(obj):
        return getattr(obj, "__module__", "").startswith("galideal.")

    def _public_function(self, name, obj):
        return (not name.startswith("_") and self._ours(obj)
                and obj not in self._wrapped
                and (isinstance(obj, types.FunctionType)
                     or isinstance(obj, functools._lru_cache_wrapper)))

    def _wrap_class(self, cls):
        if cls in self._classes:
            return
        self._classes.add(cls)
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, name, staticmethod(self._wrapper(obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                setattr(cls, name, self._wrapper(obj))

    def _wrapper(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        module = fn.__module__.split(".", 1)[1]
        qual = getattr(fn, "__qualname__", fn.__name__)
        name = "%s.%s" % (module, qual)
        fid = len(self.names)
        self.names.append(name)
        self.active[fid] = 0
        after = self._after_hook(name)
        inclusive = _INCLUSIVE.get(name)
        starts, ends, ids, parents = (self.fn_start, self.fn_end, self.fn_id,
                                      self.parent)
        stack, active, totals = self.stack, self.active, self.inclusive
        hook_s = self.hook_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            active[fid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                active[fid] -= 1
                if inclusive is not None and not active[fid]:
                    totals[inclusive] = (totals.get(inclusive, 0.0)
                                         + t1 - starts[idx])
            if after is not None:
                # size hooks run after the span closes; their time is kept
                # out of the enclosing span's self time
                after(args, result)
                p = parents[idx]
                if p >= 0:
                    hook_s[p] = hook_s.get(p, 0.0) + clock() - t1
            return result

        self._wrappers[fn] = wrapper
        self._wrapped.add(wrapper)
        return wrapper

    # -- size fields -------------------------------------------------------

    def _after_hook(self, name):
        if name == "cyclotomic.CyclotomicNumber.__mul__":
            return self._after_mul
        if name == "dirichlet.l_value":
            return self._after_l_value
        if name == "serialize.to_json":
            return self._after_to_json
        if name.startswith("cyclotomic."):
            return self._after_cyclotomic
        if name.startswith("lattice."):
            return self._after_lattice
        if name.startswith("intmat."):
            return self._after_intmat
        return None

    def _note_order(self, x):
        order = getattr(x, "order", None)
        if isinstance(order, int) and order > self.sizes["cyclotomic.max_order"]:
            self.sizes["cyclotomic.max_order"] = order

    def _after_cyclotomic(self, args, result):
        self._note_order(result)
        for a in args:
            self._note_order(a)

    def _after_mul(self, args, result):
        self._after_cyclotomic(args, result)
        if any(self._is_root_of_unity(a) for a in args):
            self.root_muls += 1

    def _is_root_of_unity(self, x):
        # +-zeta_N^k in the reduced power basis of Q(zeta_N); rationals +-1
        if isinstance(x, (int, Fraction)):
            return x == 1 or x == -1
        coeffs = getattr(x, "coeffs", None)
        if coeffs is None:
            return False
        key = []
        for c in coeffs:
            if c.denominator != 1:
                return False
            key.append(c.numerator)
        roots = self._roots.get(x.order)
        if roots is None:
            roots = self._roots[x.order] = self._roots_of_unity(x.order)
        return tuple(key) in roots

    def _roots_of_unity(self, n):
        # built from the unwrapped class so that no spans are recorded
        cls = sys.modules["galideal.cyclotomic"].CyclotomicNumber
        zeta = vars(cls)["zeta"].__func__
        zeta = getattr(zeta, "__wrapped__", zeta)
        out = set()
        for k in range(n):
            z = zeta(n, k)
            if z.order != n:
                continue
            ints = tuple(int(c) for c in z.coeffs)
            out.add(ints)
            out.add(tuple(-c for c in ints))
        return out

    def _after_l_value(self, args, result):
        self.lvalue_keys.add(tuple(args))

    def _after_to_json(self, args, result):
        self.sizes["serialize.out_bytes"] += len(result.encode())

    def _after_lattice(self, args, result):
        for x in (result,) + tuple(args):
            dim = getattr(x, "dimension", None)
            if isinstance(dim, int) and hasattr(x, "columns"):
                s = self.sizes
                s["lattice.max_dim"] = max(s["lattice.max_dim"], dim)
                s["lattice.max_rank"] = max(s["lattice.max_rank"],
                                            len(x.columns))

    def _after_intmat(self, args, result):
        if isinstance(result, (list, tuple)):
            bits = _entry_bits(result)
            if bits > self.sizes["intmat.max_entry_bits"]:
                self.sizes["intmat.max_entry_bits"] = bits

    # -- folding spans into layer numbers ----------------------------------

    def summary(self):
        n = len(self.fn_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.fn_end[i] - self.fn_start[i]
        for p, secs in self.hook_s.items():
            child[p] += secs
        out = {"%s.self_s" % m: 0.0 for m in MODULES}
        calls = {metric: 0 for metric in _COUNTED.values()}
        char_calls = 0
        names = self.names
        suite_names = self._suite_function_names()
        suite_s = {s: 0.0 for s in suite_names.values()}
        char_ids = {i for i, nm in enumerate(names) if nm in _CHARACTER_CALLS}
        for i in range(n):
            fid = self.fn_id[i]
            name = names[fid]
            dur = self.fn_end[i] - self.fn_start[i]
            out[name.split(".", 1)[0] + ".self_s"] += dur - child[i]
            metric = _COUNTED.get(name)
            if metric is not None:
                calls[metric] += 1
            if fid in char_ids:
                p = self.parent[i]
                if p < 0 or self.fn_id[p] not in char_ids:
                    char_calls += 1
            if name in suite_names:
                suite_s[suite_names[name]] += dur
        out.update(calls)
        out["abelian.char_calls"] = char_calls
        for metric in _INCLUSIVE.values():
            out[metric] = self.inclusive.get(metric, 0.0)
        out.update(self.sizes)
        out["cyclotomic.root_muls"] = self.root_muls
        out["dirichlet.l_value_unique"] = len(self.lvalue_keys)
        for suite, secs in suite_s.items():
            out["suites.%s_s" % suite] = secs
        out["trace.spans"] = n
        return out

    def _suite_function_names(self):
        suites = sys.modules["galideal.suites"]
        return {"suites.%s" % getattr(fn, "__wrapped__", fn).__qualname__: name
                for name, fn in suites.SUITES.items()}
