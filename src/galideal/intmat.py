# Exact integer linear algebra used by the lattice layer.
#
# Conventions:
#   - the HNF routines take a matrix as its list of columns plus their
#     length n, so an n x 0 or a 0 x k matrix keeps its shape; entries are
#     ints (a Fraction is rejected).  mat_mul and mat_vec take lists of rows.
#   - column HNF: columns ordered by the row of their first nonzero entry
#     (the pivot), pivots positive, every other column reduced into
#     [0, pivot) on pivot rows.  It is unique for a lattice, so equal spans
#     give equal matrices.
#   - hnf_columns is the one HNF routine.  It builds the basis
#     incrementally: each generator is inserted into a basis kept in HNF,
#     merging with the column on its pivot row by xgcd, and every change of
#     the basis re-reduces the earlier columns.  Entries on pivot rows
#     therefore stay below their pivots, which bounds their growth without
#     reducing modulo a determinant (Cohen, A Course in Computational
#     Algebraic Number Theory, sec. 2.4).
#   - hnf_columns also closes under signed coordinate permutations: given
#     perms, it returns the HNF of the smallest lattice holding the columns
#     and stable under each of them, by the MeatAxe's spinning (Holt, Eick
#     and O'Brien, Handbook of Computational Group Theory): one FIFO queue
#     of the inputs, then the images of each vector that enlarged it.
#     A vector already in the lattice is a combination of earlier vectors,
#     so its images are combinations of their images, already queued.
#     Without perms the queue is the inputs in order, so this is still the
#     only HNF, not a second path.
#   - transforms and kernels are read off the column HNF of A stacked on
#     the identity (hnf_transform; Cohen, sec. 2.4.3), so rank, kernels,
#     injectivity and solutions over Q all come from hnf_columns; there is
#     no rational Gauss-Jordan.

from collections import deque
from operator import index, mul


def xgcd(a, b):
    # returns (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    if not A or not B:
        return [[] for _ in A]
    n, k, m = len(A), len(B), len(B[0])
    Bt = transpose(B)
    return [[sum(row[t] * col[t] for t in range(k)) for col in Bt] for row in A]


def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


def hnf_columns(columns, n, perms=()):
    # Canonical column HNF of the smallest lattice that contains `columns`,
    # integer vectors of length n, and is stable under each signed
    # permutation in `perms`, a list of pairs (k, s) with s = +-1
    # (v -> [s * v[k] for k, s in perm]), as a list of columns in pivot
    # order; zero columns dropped.
    basis = {}
    queue = deque(columns)
    while queue:
        v = list(map(index, queue.popleft()))
        if len(v) != n:
            raise ValueError("column of length %d, expected %d" % (len(v), n))
        if _insert(basis, v[:]):
            queue.extend([s * v[k] for k, s in perm] for perm in perms)
    return [basis[p] for p in sorted(basis)]


def hnf_transform(columns, n):
    # (H, U, K) for the n x k matrix A with the given columns: H is its
    # column HNF, U[j] satisfies A U[j] = H[j], and K is a saturated basis
    # of {x : A x = 0}.  All three are read off the column HNF of A stacked
    # on the k x k identity, whose columns are (h, u) with a pivot above
    # row n, then (0, x); they form a basis of {(A x, x)}, so [U | K] is
    # unimodular.
    k = len(columns)
    stacked = [list(col) + [0] * j + [1] + [0] * (k - 1 - j)
               for j, col in enumerate(columns)]
    basis = hnf_columns(stacked, n + k)
    r = 0
    while r < len(basis) and any(basis[r][:n]):
        r += 1
    return ([b[:n] for b in basis[:r]], [b[n:] for b in basis[:r]],
            [b[n:] for b in basis[r:]])


def _insert(basis, v):
    # Adds the vector v (consumed) to the lattice spanned by `basis`, a dict
    # from pivot row to the basis column whose first nonzero entry sits on
    # that row; returns whether the lattice grew, by a new pivot or a merge.
    n = len(v)
    p = 0
    grew = False
    while True:
        while p < n and v[p] == 0:
            p += 1
        if p == n:
            return grew
        b = basis.get(p)
        if b is None:
            _place(basis, p, v if v[p] > 0 else [-x for x in v])
            return True
        # v and b vanish above row p, so only rows >= p change
        q = v[p] // b[p]
        if q:
            v[p:] = [x - q * y for x, y in zip(v[p:], b[p:])]
        if v[p]:
            # 0 < v[p] < b[p]: replace b by the gcd combination of b and v
            # and go on inserting the remainder, which vanishes on row p
            g, x, y = xgcd(b[p], v[p])
            s, t = b[p] // g, v[p] // g
            bp, vp = b[p:], v[p:]
            merged = v[:p] + [x * bi + y * vi for bi, vi in zip(bp, vp)]
            v[p:] = [s * vi - t * bi for bi, vi in zip(bp, vp)]
            _place(basis, p, merged)
            grew = True


def _place(basis, p, v):
    # Makes v the basis column on pivot row p and restores the reduction:
    # every column reduced into [0, pivot) on each later pivot row.
    basis[p] = v
    pivots = sorted(basis)
    later = [q for q in pivots if q > p]
    _reduce(v, basis, later)
    for j in pivots:
        if j >= p:
            break
        w = basis[j]
        if not 0 <= w[p] < v[p]:
            _reduce(w, basis, [p] + later)


def _reduce(v, basis, pivots):
    # in place, pivot rows in increasing order: subtracting the column of
    # row q changes v only on rows >= q, so earlier rows stay reduced
    for q in pivots:
        b = basis[q]
        c = v[q] // b[q]
        if c:
            v[q:] = [x - c * y for x, y in zip(v[q:], b[q:])]
