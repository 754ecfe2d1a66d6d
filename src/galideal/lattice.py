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
# Canonicalization: clear denominators (keeping the odd part of the common
# denominator), column-HNF the integer matrix, then saturate at 2: for a
# basis c of the F2-kernel {c : H c = 0 mod 2} adjoin (H c)/2 and re-HNF,
# until the kernel is empty.  Last, divide d and the columns by
# g = gcd(d, content), which leaves gcd(d, content) = 1; g is odd, so the
# divided lattice is still 2-saturated and still in column HNF.
#
# Membership is decided by coordinate denominators (power of 2 <=> member),
# never by iterative doubling.  The coordinates of d*v come from one forward
# pass over the columns in pivot order: y_j = r[p_j] / col_j[p_j], then
# r <- r - y_j col_j; v is outside the Q-span if r is nonzero above a pivot
# or after the last one.  That is O(rank * dim) Fraction operations and
# needs only the echelon shape, so it also holds for trusted-constructor
# ideals whose columns are echelon but not reduced.  The same pass serves
# map_preimage, which solves T x = v on the rows of the row HNF of T^t.
# The zero module (no columns, d = 1) participates in everything.

from fractions import Fraction
from math import gcd

from .groupring import GroupRingElement
from .intmat import (
    column_kernel,
    hnf_columns,
    hnf_rows,
    mat_vec,
    row_kernel,
)


def _odd_part(x):
    x = abs(x)
    while x and x % 2 == 0:
        x //= 2
    return x


def _is_power_of_two(x):
    return x >= 1 and (x & (x - 1)) == 0


class FractionalIdeal:
    __slots__ = ("labels", "denominator", "columns")

    def __init__(self, labels, denominator, columns):
        # trusted constructor: canonicalize() is the public entry
        self.labels = tuple(labels)
        self.denominator = denominator
        self.columns = tuple(tuple(c) for c in columns)
        assert denominator >= 1 and denominator % 2 == 1

    @property
    def dimension(self):
        return len(self.labels)

    @property
    def rank(self):
        return len(self.columns)

    def is_zero(self):
        return not self.columns

    def vectors(self):
        # generators as Fraction vectors
        d = self.denominator
        return [[Fraction(x, d) for x in col] for col in self.columns]

    def __eq__(self, other):
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        return (self.labels == other.labels
                and self.denominator == other.denominator
                and self.columns == other.columns)

    def __hash__(self):
        return hash((self.labels, self.denominator, self.columns))

    def __repr__(self):
        return "FractionalIdeal(dim %d, rank %d, den %d)" % (
            self.dimension, self.rank, self.denominator)


def canonicalize(labels, vectors):
    # vectors: iterable of length-n sequences of Fractions/ints
    labels = tuple(labels)
    n = len(labels)
    vs = []
    for v in vectors:
        v = [Fraction(x) for x in v]
        if len(v) != n:
            raise ValueError("vector of length %d in an ambient of dimension %d"
                             % (len(v), n))
        if any(v):
            vs.append(v)
    if not vs:
        return FractionalIdeal(labels, 1, [])
    d0 = 1
    for v in vs:
        for x in v:
            d0 = d0 * x.denominator // gcd(d0, x.denominator)
    H = hnf_columns([[int(v[r] * d0) for v in vs] for r in range(n)])
    halves = _half_columns(H)
    while halves:
        H = hnf_columns([row + [h[r] for h in halves] for r, row in enumerate(H)])
        halves = _half_columns(H)
    d = _odd_part(d0)
    g = gcd(d, *(x for row in H for x in row))
    columns = [[x // g for x in col] for col in zip(*H)]
    return FractionalIdeal(labels, d // g, columns)


def _half_columns(H):
    # (H c)/2 for a basis c of the F2-kernel {c : H c = 0 mod 2}, found by
    # elimination on bitmasks of the columns mod 2; each dependent column
    # gives one kernel vector, recorded as the set of columns it combines
    cols = list(zip(*H))
    echelon = {}  # leading bit -> (column bitmask, combination bitmask)
    halves = []
    for j, col in enumerate(cols):
        mask = sum(1 << r for r, x in enumerate(col) if x & 1)
        combo = 1 << j
        while mask:
            top = mask.bit_length() - 1
            if top not in echelon:
                echelon[top] = (mask, combo)
                break
            m, c = echelon[top]
            mask ^= m
            combo ^= c
        else:
            picked = [cols[k] for k in range(j + 1) if combo >> k & 1]
            halves.append([sum(xs) // 2 for xs in zip(*picked)])
    return halves


def group_labels(group):
    return tuple(group.label(g) for g in group.elements)


def element_vector(group, x):
    return [x.coefficient(g) for g in group.elements]


def element_from_vector(group, v):
    return GroupRingElement(group, dict(zip(group.elements, map(Fraction, v))))


def from_generators(group, gens):
    # Z[1/2][G]-module generated by gens: close under the G-action, then
    # canonicalize.  Empty generator list gives the zero module.
    vecs = []
    for x in gens:
        assert x.group == group
        for g in group.elements:
            shifted = GroupRingElement.basis(group, g) * x
            vecs.append(element_vector(group, shifted))
    return canonicalize(group_labels(group), vecs)


def unit_ideal(group):
    return from_generators(group, [GroupRingElement.one(group)])


def zero_ideal(labels):
    return FractionalIdeal(tuple(labels), 1, [])


def _coordinates(columns, r, unit):
    # y with sum_j y_j columns[j] = r (r a list of Fractions, consumed), by
    # the forward pass of the header over echelon columns; None if r is
    # outside the Q-span, or at the first y_j whose denominator fails unit
    y = []
    start = 0
    for col in columns:
        p = start
        while not col[p]:
            p += 1
        if any(r[start:p]):
            return None
        c = r[p] / col[p]
        if not unit(c.denominator):
            return None
        if c:
            r[p:] = [a - c * b for a, b in zip(r[p:], col[p:])]
        y.append(c)
        start = p + 1
    return None if any(r[start:]) else y


def contains_vector(ideal, vector):
    # is vector (Fractions) in the Z[1/2]-span?  True iff columns . y =
    # d*vector has a solution y over Q with power-of-two denominators
    if len(vector) != ideal.dimension:
        raise ValueError("vector of length %d in an ambient of dimension %d"
                         % (len(vector), ideal.dimension))
    r = [Fraction(x) * ideal.denominator for x in vector]
    return _coordinates(ideal.columns, r, _is_power_of_two) is not None


def contains_element(ideal, group, x):
    assert group_labels(group) == ideal.labels, "ambient mismatch"
    return contains_vector(ideal, element_vector(group, x))


def compare(I, J):
    # "equal" | "subset" (I in J) | "superset" | "incomparable"
    assert I.labels == J.labels, "ambient mismatch"
    if I == J:
        return "equal"
    fwd = all(contains_vector(J, v) for v in I.vectors())
    bwd = all(contains_vector(I, v) for v in J.vectors())
    if fwd and bwd:
        # same module must have identical canonical form
        raise AssertionError("canonical forms differ for equal modules")
    if fwd:
        return "subset"
    if bwd:
        return "superset"
    return "incomparable"


def ideal_sum(I, J):
    assert I.labels == J.labels, "ambient mismatch"
    return canonicalize(I.labels, I.vectors() + J.vectors())


def ideal_product(I, J, group):
    # the module product: span of pairwise products of the generators,
    # closed under the group action (for commutative group rings this is
    # the full product module)
    assert group_labels(group) == I.labels == J.labels, "ambient mismatch"
    gi = [element_from_vector(group, v) for v in I.vectors()]
    gj = [element_from_vector(group, v) for v in J.vectors()]
    return from_generators(group, [x * y for x in gi for y in gj])


def multiplication_matrix(group, x):
    # matrix of y -> x*y on Q[G] in the basis `group.elements`
    cols = []
    for g in group.elements:
        xg = x * GroupRingElement.basis(group, g)
        cols.append(element_vector(group, xg))
    return [[cols[j][i] for j in range(len(cols))] for i in range(group.order)]


def scale_by(ideal, group, x):
    # image of the ideal under multiplication by x in Q[G]
    assert group_labels(group) == ideal.labels, "ambient mismatch"
    T = multiplication_matrix(group, x)
    return map_image(ideal, T, ideal.labels)


def map_image(ideal, T, out_labels):
    # lattice generated by T(generators), canonicalized in the codomain
    out_labels = tuple(out_labels)
    _check_shape(T, len(out_labels), ideal.dimension)
    vecs = [mat_vec(T, v) for v in ideal.vectors()]
    return canonicalize(out_labels, vecs)


def _check_shape(T, rows, cols):
    if len(T) != rows:
        raise ValueError("matrix with %d rows, expected %d" % (len(T), rows))
    for i, row in enumerate(T):
        if len(row) != cols:
            raise ValueError("matrix row %d has %d entries, expected %d"
                             % (i, len(row), cols))


def _clear_denominators(T):
    # (lcm, lcm*T) with lcm the common denominator of the entries
    lcm = 1
    for row in T:
        for x in row:
            f = Fraction(x)
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    return lcm, [[int(Fraction(x) * lcm) for x in row] for row in T]


def map_preimage(ideal, T, in_labels):
    # {x : T(x) in ideal} for an injective linear map T (matrix over Q,
    # codomain = ideal's ambient).  Intersect the ideal with im(T) via the
    # left kernel, then pull back through T.  With Ti = lcm*T and
    # U Ti^t = H the row HNF of Ti^t, T is injective iff H has no zero row,
    # and then T x = v iff x = U^t y for the y with H^t y = lcm*v.
    in_labels = tuple(in_labels)
    n_out, n_in = len(T), len(in_labels)
    _check_shape(T, ideal.dimension, n_in)
    lcm, Ti = _clear_denominators(T)
    H, U = hnf_rows([[row[j] for row in Ti] for j in range(n_in)])
    if not all(any(row) for row in H):
        raise ValueError("map is not injective; preimage is not a lattice")
    if ideal.is_zero():
        return zero_ideal(in_labels)
    K = row_kernel(Ti)  # rows u with u.T = 0, saturated
    B = [[col[r] for col in ideal.columns] for r in range(n_out)]
    if K:
        M = [[sum(k[r] * B[r][j] for r in range(n_out))
              for j in range(len(ideal.columns))] for k in K]
        coeffs = column_kernel(M)
    else:
        # T surjective onto the ambient: the whole ideal is in the image
        coeffs = [[1 if i == j else 0 for i in range(len(ideal.columns))]
                  for j in range(len(ideal.columns))]
    pre = []
    d = ideal.denominator
    for c in coeffs:
        rhs = [Fraction(lcm * sum(B[r][j] * c[j] for j in range(len(c))), d)
               for r in range(n_out)]
        y = _coordinates(H, rhs, lambda den: True)
        assert y is not None, "intersection vector fell outside the image"
        pre.append([sum(U[i][j] * y[i] for i in range(n_in))
                    for j in range(n_in)])
    return canonicalize(in_labels, pre)


def intersect(I, J):
    # I cap J as Z[1/2]-modules: solve B1 a / d1 = B2 b / d2 on the
    # saturated integer kernel of [d2 B1 | -d1 B2]
    assert I.labels == J.labels, "ambient mismatch"
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.labels)
    n = I.dimension
    k1 = len(I.columns)
    stacked = [[J.denominator * I.columns[j][r] for j in range(k1)]
               + [-I.denominator * J.columns[j][r] for j in range(len(J.columns))]
               for r in range(n)]
    kernel = column_kernel(stacked)
    vecs = []
    for w in kernel:
        a = w[:k1]
        vecs.append([Fraction(sum(I.columns[j][r] * a[j] for j in range(k1)),
                              I.denominator) for r in range(n)])
    return canonicalize(I.labels, vecs)
