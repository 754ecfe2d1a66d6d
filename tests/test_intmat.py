import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from galideal.intmat import (
    column_kernel,
    hnf_columns,
    hnf_rows,
    identity_matrix,
    mat_mul,
    mat_vec,
    row_kernel,
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
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in M[1:]]
            total += (-1) ** j * M[0][j] * det_int(minor)
    return total


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
    # the incremental column HNF against the reference row HNF
    rows = [r for r in hnf_rows(transpose(A))[0] if any(r)]
    expect = transpose(rows) if rows else [[] for _ in A]
    assert hnf_columns(A) == expect


@settings(max_examples=100)
@given(matrices())
def test_row_kernel(A):
    K = row_kernel(A)
    for k in K:
        assert all(v == 0 for v in mat_vec(transpose(A), k))
    assert len(K) == len(A) - sympy.Matrix(A).rank()


@settings(max_examples=100)
@given(matrices())
def test_column_kernel(A):
    K = column_kernel(A)
    for k in K:
        assert all(v == 0 for v in mat_vec(A, k))


def test_hnf_columns_drops_zero_columns():
    A = [[2, 0, 4], [0, 0, 0]]
    H = hnf_columns(A)
    assert H == [[2], [0]]
