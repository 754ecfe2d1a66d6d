import random
from fractions import Fraction
from operator import index

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galideal.intmat import (
    hnf_columns,
    hnf_transform,
    mat_mul,
    mat_vec,
    transpose,
    xgcd,
)

small_int = st.integers(min_value=-30, max_value=30)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == x * a + y * b
    assert g >= 0
    import math

    assert g == math.gcd(a, b)


def det_int(M):
    # Laplace expansion; only used on tiny unimodular matrices in tests
    n = len(M)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in M[1:]]
            total += (-1) ** j * M[0][j] * det_int(minor)
    return total


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf_rows(A):
    # Euclid-swap row HNF with its unimodular transform: the independent
    # reference that hnf_columns and hnf_transform are checked against.
    # Returns (H, U) with U unimodular and U*A = H in canonical row HNF:
    # pivot columns strictly increase, pivots positive, entries above a
    # pivot reduced into [0, pivot), zero rows at the bottom.
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


@settings(max_examples=150)
@given(matrices())
def test_hnf_rows_transform(A):
    H, U = hnf_rows(A)
    assert mat_mul(U, A) == H
    assert det_int(U) in (1, -1)
    # canonical shape: pivot columns strictly increase, pivots positive,
    # entries above each pivot reduced into [0, pivot)
    last = -1
    for row in H:
        nz = [j for j, v in enumerate(row) if v != 0]
        if not nz:
            continue
        p = nz[0]
        assert p > last
        last = p
        assert row[p] > 0
    for i, row in enumerate(H):
        nz = [j for j, v in enumerate(row) if v != 0]
        if not nz:
            continue
        p = nz[0]
        for k in range(i):
            assert 0 <= H[k][p] < row[p]


@settings(max_examples=100)
@given(matrices())
def test_hnf_rows_is_invariant_of_row_span(A):
    H, _ = hnf_rows(A)
    B = [list(r) for r in A]
    random.Random(7).shuffle(B)
    B[0] = [x + y for x, y in zip(B[0], B[-1])] if len(B) > 1 else B[0]
    H2, _ = hnf_rows(B)
    assert H == H2


@settings(max_examples=200)
@given(matrices(max_dim=6))
def test_hnf_columns_matches_row_hnf_of_transpose(A):
    # the incremental column HNF against the reference row HNF: the columns
    # of A are the rows of its transpose
    rows = [r for r in hnf_rows(transpose(A))[0] if any(r)]
    assert hnf_columns(transpose(A), len(A)) == rows


def column_lists(max_dim=4):
    # (columns, n): k columns of length n, either dimension possibly 0
    return st.integers(0, max_dim).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_int, min_size=n, max_size=n),
                     max_size=max_dim),
            st.just(n)))


@settings(max_examples=200, deadline=None)
@given(column_lists())
@example(([], 0))
@example(([], 3))
@example(([[], [], []], 0))
@example(([[0, 0], [0, 0], [0, 0]], 2))
def test_hnf_transform(case):
    columns, n = case
    k = len(columns)
    H, U, K = hnf_transform(columns, n)
    A = transpose(columns) if columns else [[] for _ in range(n)]
    assert [mat_vec(A, u) for u in U] == H
    assert [r for r in hnf_rows(columns)[0] if any(r)] == H
    assert all(not any(mat_vec(A, x)) for x in K)
    assert len(K) == k - sympy.Matrix(n, k, [x for row in A for x in row]).rank()
    assert det_int(U + K) in (1, -1)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_row_kernel(A):
    # the left kernel {x : x A = 0}: the kernel of the matrix whose columns
    # are the rows of A
    K = hnf_transform(A, len(A[0]))[2]
    for k in K:
        assert all(v == 0 for v in mat_vec(transpose(A), k))
    assert len(K) == len(A) - sympy.Matrix(A).rank()


@settings(max_examples=100)
@given(matrices())
def test_column_kernel(A):
    K = hnf_transform(transpose(A), len(A))[2]
    for k in K:
        assert all(v == 0 for v in mat_vec(A, k))


def _signed_permutation_group(perms, n, limit):
    # every composite of the signed permutations (lists of pairs (k, s),
    # v -> [s * v[k] for k, s in perm]), closed by breadth-first search from
    # the identity; None once it passes limit elements
    seen = {tuple((k, 1) for k in range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for p in perms:
                h = tuple((g[k][0], s * g[k][1]) for k, s in p)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        if len(seen) > limit:
            return None
        frontier = nxt
    return seen


@st.composite
def permuted_columns(draw):
    # (columns, n, perms): 1-3 signed permutations of n <= 8 points, the
    # identity, all signs +1 and repeats among them as often as hypothesis
    # likes
    n = draw(st.integers(1, 8))
    perm = st.one_of(st.just(list(range(n))), st.permutations(range(n)))
    signs = st.one_of(st.just([1] * n),
                      st.lists(st.sampled_from([1, -1]), min_size=n,
                               max_size=n))
    signed = st.tuples(perm, signs).map(lambda ks: list(zip(*ks)))
    perms = draw(st.lists(signed, min_size=1, max_size=2))
    if draw(st.booleans()):
        perms.append(perms[0])
    columns = draw(st.lists(st.lists(small_int, min_size=n, max_size=n),
                            max_size=3))
    return columns, n, perms


@settings(max_examples=60, deadline=None)
@given(permuted_columns())
@example(([[1, 2, 0]], 3, [[(0, 1), (1, 1), (2, 1)]]))
@example(([[1, 2, 0], [0, 0, 0]], 3,
          [[(1, 1), (2, 1), (0, 1)], [(1, 1), (2, 1), (0, 1)]]))
@example(([[2, 4, 6, 8]], 4, [[(1, 1), (0, 1), (2, 1), (3, 1)],
                              [(1, 1), (2, 1), (3, 1), (0, 1)],
                              [(1, 1), (0, 1), (2, 1), (3, 1)]]))
@example(([], 2, [[(1, 1), (0, 1)]]))
@example(([[1, 1]], 2, [[(1, -1), (0, 1)]]))
@example(([[3, 0, 0]], 3, [[(0, -1), (1, 1), (2, 1)]]))
def test_hnf_columns_closes_under_permutations(case):
    # the closure under the generators against the span of every signed
    # image under the group they generate; groups past 5040 elements (the
    # symmetric and alternating groups on 7 or 8 points, with or without
    # signs) are left out to keep the reference quick
    columns, n, perms = case
    group = _signed_permutation_group(perms, n, 5040)
    assume(group is not None)
    images = [[s * v[k] for k, s in g] for v in columns for g in sorted(group)]
    assert hnf_columns(columns, n, perms) == hnf_columns(images, n)


def test_hnf_columns_drops_zero_columns():
    H = hnf_columns([[2, 0], [0, 0], [4, 0]], 2)
    assert H == [[2, 0]]


def test_hnf_columns_rejects_bad_columns():
    with pytest.raises(ValueError, match="column of length 1, expected 2"):
        hnf_columns([[1, 0], [1]], 2)
    with pytest.raises(TypeError):
        hnf_columns([[Fraction(1, 2)]], 1)
