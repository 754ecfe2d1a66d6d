# Finitely generated Z[1/2][G]-submodules of Q[G] (or any labelled Q^n),
# held as canonical integer lattices.
#
# Representation: (labels, denominator d, columns).  The module is the
# Z[1/2]-span of {column / d}.  Canonical form:
#   - d odd and positive  (2-power content is absorbed: 2 is invertible)
#   - columns an integer matrix in column HNF with no zero columns
#   - the column lattice is 2-saturated (x in Z^n and 2x in it imply x in
#     it), and gcd(d, content of the columns) = 1
# Uniqueness: write the module M = L/d.  The integer lattice
# Lambda = (d M) cap Z^n is intrinsic, its 2-saturation
# {x in Z^n : 2^k x in Lambda} likewise, and d is minimal among odd
# denominators presenting M over an integer lattice — so equal modules get
# identical fields.
# Canonicalization (saturated_columns, at any dimension) takes integer
# vectors over one denominator (keeping its odd part) and signed coordinate
# permutations, column-HNFs the smallest lattice holding the vectors and
# stable under the permutations (hnf_columns' closure), then saturates at 2
# in one pass over that HNF's columns in pivot order.  A lattice is
# 2-saturated iff its basis is independent mod 2.  So let S be the
# saturation of the columns passed so far, with a basis independent mod 2,
# and b the next column: while b = s mod 2 for some s in S, replace b by
# (b + s)/2, which lies in the saturation T of S + Zb.  Each step halves
# the coefficient of the original column in b, so this ends, with b
# independent of S mod 2.  Then S + Zb is 2-saturated and holds S and the
# original column, so it holds T; it lies in T, so it is T.  Only if some
# b was halved is the result HNF'd again, once.  A signed permutation
# maps the 2-saturation of a stable lattice onto itself, so the saturation
# needs no closure.  Last, divide d and the columns by g = gcd(d, content),
# which leaves gcd(d, content) = 1; g is odd, so the divided lattice is
# still 2-saturated and still in column HNF.  Fractions occur only at the
# API's edges; a translate g x or x g permutes x's integer numerators.
#
# Membership: unless d*v is integral up to a power of 2, v is no member.
# Else one integer forward pass over the columns in pivot order keeps r
# over a scale s (from d*v and 1): at the pivot c = col[p], with
# g = gcd(r[p], c) and f = c/g, y_j = (r[p]/g) / (s f), r <- f r - (r[p]/g)
# col and s <- s f.  So y_j is in Z[1/2] iff f is a power of 2 (for
# c = 2^e o: iff o divides r[p]); v is outside the Q-span if r is nonzero
# above a pivot or after the last one.  The step computes exactly that s,
# and that r below p, sparsely: nothing reads r[p] again, r is scaled only
# when f != 1, and col is subtracted only on its nonzero rows, which in a
# canonical column are few.  The pass
# needs only the echelon shape, so it also holds for trusted-constructor
# ideals whose columns are echelon but not reduced; it serves map_preimage
# too, which solves T x = v on the column HNF of T.
# The zero module (no columns, d = 1) participates in everything.

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .groupring import GroupRingElement, generating_set
from .intmat import hnf_columns, hnf_transform, mat_vec, transpose


def _odd_part(x):
    x = abs(x)
    return x // (x & -x) if x else 0


class FractionalIdeal:
    __slots__ = ("labels", "denominator", "columns")

    def __init__(self, labels, denominator, columns):
        # trusted constructor: canonicalize() is the public entry
        if not (isinstance(denominator, int) and denominator % 2 == 1
                and denominator >= 1):
            raise ValueError("denominator %r is not odd and positive"
                             % (denominator,))
        self.labels = tuple(labels)
        self.denominator = denominator
        self.columns = tuple(tuple(c) for c in columns)

    @property
    def dimension(self):
        return len(self.labels)

    @property
    def rank(self):
        return len(self.columns)

    def is_zero(self):
        return not self.columns

    def __eq__(self, other):
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        return (self.labels == other.labels
                and self.denominator == other.denominator
                and self.columns == other.columns)

    def __repr__(self):
        return "FractionalIdeal(dim %d, rank %d, den %d)" % (
            self.dimension, self.rank, self.denominator)


def canonicalize(labels, denominator, vectors, perms=()):
    # the smallest Z[1/2]-module holding {v / denominator} and stable under
    # the signed coordinate permutations perms: v integer sequences of the
    # ambient's length, denominator a nonzero integer (0 fails as the
    # FractionalIdeal's denominator)
    labels = tuple(labels)
    n = len(labels)
    for v in vectors:
        if len(v) != n:
            raise ValueError("vector of length %d in an ambient of dimension %d"
                             % (len(v), n))
    return FractionalIdeal(labels,
                           *saturated_columns(denominator, vectors, n, perms))


def saturated_columns(denominator, vectors, n, perms=()):
    # (d, columns) of the canonical form of the header for integer vectors
    # of length n, without labels
    vs = [v for v in vectors if any(v)]
    if not vs:
        return 1, []
    H = hnf_columns(vs, n, perms)
    # the header's one pass: out holds the columns passed so far, 2-saturated,
    # and echelon their bitmasks mod 2 in echelon form, keyed by leading bit,
    # each with the set of columns of out it combines
    out, echelon = [], {}
    for b in H:
        while True:
            mask, combo = sum(1 << r for r, x in enumerate(b) if x & 1), 0
            while mask:
                found = echelon.get(mask.bit_length() - 1)
                if found is None:
                    break
                mask ^= found[0]
                combo ^= found[1]
            if mask:
                break
            # b = (columns of out in combo) mod 2: halve their sum with b
            b = [sum(xs) // 2 for xs in zip(b, *(
                out[k] for k in range(len(out)) if combo >> k & 1))]
        echelon[mask.bit_length() - 1] = (mask, combo | 1 << len(out))
        out.append(b)
    if out != H:
        H = hnf_columns(out, n)
    d = _odd_part(denominator)
    g = gcd(d, *(x for col in H for x in col))
    return d // g, [[x // g for x in col] for col in H]


def group_labels(group):
    return tuple(map(group.label, group.elements))


def element_vector(group, x):
    return [Fraction(a, x.den) for a in x.nums]


def ideal_elements(ideal, group):
    # the ideal's generators as elements of Q[group], read off its integer
    # columns over its denominator
    _check_same("ambient", group_labels(group), ideal.labels)
    return [GroupRingElement.from_numerators(group, col, ideal.denominator)
            for col in ideal.columns]


def _check_same(what, expected, found):
    if found != expected:
        raise ValueError("%s mismatch: %r, expected %r" % (what, found, expected))


def from_generators(group, gens):
    # Z[1/2][G]-module generated by gens: the generators' numerators over
    # their common denominator, closed under the left translation by each
    # g in generating_set(group), the permutation (g x)[t] = x[g^-1 t] of
    # the numerators, with every sign +1.  Closing under generators of G
    # closes under G, and only translates that enlarge the lattice reach the
    # HNF; then canonicalize.  Empty generator list gives the zero module.
    for x in gens:
        _check_same("generator's group", group, x.group)
    els, index, op, inv = group.elements, group.index, group.op, group.inv
    perms = [[(index(op(inv(g), t)), 1) for t in els]
             for g in generating_set(group)]
    return canonicalize(group_labels(group), *_numerators(gens), perms)


def _numerators(elements):
    # (den, nums): the elements' numerators over their common denominator
    den = lcm(*(x.den for x in elements))
    return den, [[a * (den // x.den) for a in x.nums] for x in elements]


def unit_ideal(group):
    return from_generators(group, [GroupRingElement.one(group)])


def zero_ideal(labels):
    return FractionalIdeal(tuple(labels), 1, [])


def _coordinates(columns, r, unit):
    # (Y, s) with sum_j (Y_j / s) columns[j] = r (r integers, consumed), by
    # the forward pass of the header over echelon columns; None if r is
    # outside the Q-span, or at the first pivot whose factor f fails unit
    y = []  # (q, s) per column: y_j = q / s at the scale s of the step
    s, start = 1, 0
    for col in columns:
        p = start
        while not col[p]:
            p += 1
        if any(r[start:p]):
            return None
        q, c = r[p], col[p]
        if q:
            g = gcd(q, c) if c > 0 else -gcd(q, c)
            f, q = c // g, q // g
            if not unit(f):
                return None
            if f != 1:
                s *= f
                r[p + 1:] = [f * x for x in r[p + 1:]]
            for i in range(p + 1, len(col)):
                if col[i]:
                    r[i] -= q * col[i]
        y.append((q, s))
        start = p + 1
    if any(r[start:]):
        return None
    return [q * (s // sq) for q, sq in y], s


def _contains(ideal, den, num):
    # is num / den in the ideal (num integers)?  The header's test: the odd
    # part o of den divides d num, then the pass on d num / o
    _check_same("vector length", ideal.dimension, len(num))
    d, o = ideal.denominator, _odd_part(den)
    if d * gcd(*num) % o:
        return False
    r = [d * x // o for x in num]
    return _coordinates(ideal.columns, r,
                        lambda f: f & (f - 1) == 0) is not None


def contains_vector(ideal, vector):
    # is vector (Fractions) in the Z[1/2]-span?  True iff columns . y =
    # d*vector has a solution y over Q with power-of-two denominators
    den, (num,) = _clear_denominators([vector])
    return _contains(ideal, den, num)


def contains_element(ideal, group, x):
    _check_same("ambient", ideal.labels, group_labels(group))
    _check_same("element's group", group, x.group)
    return _contains(ideal, x.den, x.nums)


def compare(I, J):
    # "equal" | "subset" (I in J) | "superset" | "incomparable"
    _check_same("ambient", I.labels, J.labels)
    if I == J:
        return "equal"
    fwd = all(_contains(J, I.denominator, col) for col in I.columns)
    bwd = all(_contains(I, J.denominator, col) for col in J.columns)
    if fwd and bwd:
        # same module must have identical canonical form
        raise AssertionError("canonical forms differ for equal modules")
    if fwd:
        return "subset"
    if bwd:
        return "superset"
    return "incomparable"


def ideal_sum(I, J):
    _check_same("ambient", I.labels, J.labels)
    d = lcm(I.denominator, J.denominator)
    return canonicalize(I.labels, d, [[d // K.denominator * x for x in col]
                                      for K in (I, J) for col in K.columns])


def scale_by(ideal, group, x):
    # image of the ideal under multiplication by x in Q[G]: the span of the
    # products x y over its generators y.  A zero ideal runs no product, so
    # x's group is checked here.
    ys = ideal_elements(ideal, group)
    _check_same("element's group", group, x.group)
    return canonicalize(ideal.labels, *_numerators([x * y for y in ys]))


def map_image(ideal, T, out_labels):
    # lattice generated by T(generators), canonicalized in the codomain:
    # lcm*T on the integer columns, over d*lcm
    out_labels = tuple(out_labels)
    _check_shape(T, len(out_labels), ideal.dimension)
    den, Ti = _clear_denominators(T)
    return canonicalize(out_labels, ideal.denominator * den,
                        [mat_vec(Ti, col) for col in ideal.columns])


def _check_shape(T, rows, cols):
    if len(T) != rows:
        raise ValueError("matrix with %d rows, expected %d" % (len(T), rows))
    for i, row in enumerate(T):
        if len(row) != cols:
            raise ValueError("matrix row %d has %d entries, expected %d"
                             % (i, len(row), cols))


def _clear_denominators(T):
    # (lcm, lcm*T) with lcm the common denominator of the entries, which
    # are ints or Fractions
    den = lcm(*(x.denominator for row in T for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row]
                 for row in T]


def map_preimage(ideal, T, in_labels):
    # {x : T(x) in ideal} for an injective linear map T (matrix over Q,
    # codomain = ideal's ambient).  Intersect the ideal with im(T) via the
    # left kernel, then pull back through T.  With Ti = lcm*T, H its column
    # HNF and Ti U[j] = H[j], T is injective iff H has a column per input,
    # and then T x = v iff x = U y for the y with H y = lcm*v, here
    # y = Y / (s d) for v = B c / d, with (Y, s) from the forward pass.
    in_labels = tuple(in_labels)
    n_in = len(in_labels)
    _check_shape(T, ideal.dimension, n_in)
    den, Ti = _clear_denominators(T)
    H, U, _ = hnf_transform([[row[j] for row in Ti] for j in range(n_in)],
                            ideal.dimension)
    if len(H) != n_in:
        raise ValueError("map is not injective; preimage is not a lattice")
    if ideal.is_zero():
        return zero_ideal(in_labels)
    K = hnf_transform(Ti, n_in)[2]  # rows u with u.T = 0, saturated
    B = transpose(ideal.columns)
    # the c with K B c = 0; with K empty T is onto the ambient, and every c
    # qualifies
    coeffs = hnf_transform([mat_vec(K, col) for col in ideal.columns],
                           len(K))[2]
    pre = []
    for c in coeffs:
        # K B c = 0 puts B c in im(T), so _coordinates finds it
        Y, s = _coordinates(H, [den * x for x in mat_vec(B, c)],
                            lambda f: True)
        pre.append((s, [sum(map(mul, col, Y)) for col in zip(*U)]))
    s = lcm(*(s for s, _ in pre))
    return canonicalize(in_labels, ideal.denominator * s,
                        [[s // sv * x for x in v] for sv, v in pre])


def intersect(I, J):
    # I cap J as Z[1/2]-modules: solve B1 a / d1 = B2 b / d2 on the
    # saturated integer kernel of [d2 B1 | -d1 B2]
    _check_same("ambient", I.labels, J.labels)
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.labels)
    B1 = transpose(I.columns)
    columns = ([[J.denominator * x for x in col] for col in I.columns]
               + [[-I.denominator * x for x in col] for col in J.columns])
    return canonicalize(I.labels, I.denominator, [
        mat_vec(B1, w[:I.rank])
        for w in hnf_transform(columns, I.dimension)[2]])
