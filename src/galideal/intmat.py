# Exact integer / rational linear algebra used by the lattice layer.
#
# Conventions:
#   - matrices are lists of rows of integers (the HNFs reject a Fraction)
#   - row HNF: pivot columns strictly increase, pivots positive, entries
#     above a pivot reduced into [0, pivot), zero rows at the bottom
#   - column HNF is the transpose of the row HNF of the transpose: columns
#     ordered by the row of their first nonzero entry (the pivot), pivots
#     positive, every other column reduced into [0, pivot) on pivot rows.
#     It is unique for a lattice, so equal spans give equal matrices.
#   - hnf_rows returns its unimodular transform (row_kernel reads the
#     kernel off it); hnf_columns needs none and builds the basis
#     incrementally instead: each generator is inserted into a basis kept
#     in HNF, merging with the column on its pivot row by xgcd, and every
#     change of the basis re-reduces the earlier columns.  Entries on pivot
#     rows therefore stay below their pivots, which bounds their growth
#     without reducing modulo a determinant (Cohen, A Course in
#     Computational Algebraic Number Theory, sec. 2.4).
#   - all elimination is integer HNF: rank, kernels, injectivity and
#     solutions over Q are read off hnf_rows / hnf_columns (ibid., sec.
#     2.4.3); there is no rational Gauss-Jordan.

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


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def hnf_rows(A):
    # Returns (H, U) with U unimodular and U*A = H in canonical row HNF.
    H = [list(map(index, row)) for row in A]
    n = len(H)
    m = len(H[0]) if H else 0
    U = identity_matrix(n)
    pivot_rows = []
    r = 0
    for c in range(m):
        # find a row at index >= r with nonzero entry in column c
        piv = None
        for i in range(r, n):
            if H[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            H[r], H[piv] = H[piv], H[r]
            U[r], U[piv] = U[piv], U[r]
        # clear below with gcd steps
        for i in range(r + 1, n):
            while H[i][c] != 0:
                if abs(H[i][c]) < abs(H[r][c]):
                    H[r], H[i] = H[i], H[r]
                    U[r], U[i] = U[i], U[r]
                q = H[i][c] // H[r][c]
                for j in range(m):
                    H[i][j] -= q * H[r][j]
                for j in range(n):
                    U[i][j] -= q * U[r][j]
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        pivot_rows.append((r, c))
        r += 1
        if r == n:
            break
    # reduce entries above each pivot
    for (i, c) in pivot_rows:
        for k in range(i):
            q = H[k][c] // H[i][c]
            if q != 0:
                for j in range(m):
                    H[k][j] -= q * H[i][j]
                for j in range(n):
                    U[k][j] -= q * U[i][j]
    return H, U


def hnf_columns(A):
    # Canonical column HNF of the column span of A; zero columns dropped.
    if not A:
        return []
    basis = {}
    for col in zip(*A):
        _insert(basis, list(map(index, col)))
    cols = [basis[p] for p in sorted(basis)]
    return transpose(cols) if cols else [[] for _ in A]


def _insert(basis, v):
    # Adds the vector v to the lattice spanned by `basis`, a dict from pivot
    # row to the basis column whose first nonzero entry sits on that row.
    n = len(v)
    p = 0
    while True:
        while p < n and v[p] == 0:
            p += 1
        if p == n:
            return
        b = basis.get(p)
        if b is None:
            _place(basis, p, v if v[p] > 0 else [-x for x in v])
            return
        q = v[p] // b[p]
        if q:
            v = [x - q * y for x, y in zip(v, b)]
        if v[p]:
            # 0 < v[p] < b[p]: replace b by the gcd combination of b and v
            # and go on inserting the remainder, which vanishes on row p
            g, x, y = xgcd(b[p], v[p])
            s, t = b[p] // g, v[p] // g
            merged = [x * bi + y * vi for bi, vi in zip(b, v)]
            v = [s * vi - t * bi for bi, vi in zip(b, v)]
            _place(basis, p, merged)


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


def row_kernel(A):
    # Basis (list of rows) of the left kernel {x : x*A = 0} over Z.
    # Rows of U matching zero rows of the HNF form a saturated basis.
    H, U = hnf_rows(A)
    return [U[i] for i in range(len(H)) if all(x == 0 for x in H[i])]


def column_kernel(A):
    # Basis (list of vectors) of {v : A*v = 0} over Z, saturated.
    return row_kernel(transpose(A))

