import json
import random
import time
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galideal.abelian import FiniteAbelianGroup, unit_group
from galideal.brauer import (alternating4, from_cayley_text, quaternion8,
                             symmetric3)
from galideal.cycloideal import CyclotomicLevel, ideal_J_minus
from galideal import lattice
from galideal.groupring import GroupRingElement, invert_unit
from galideal.intmat import hnf_columns
from galideal.lattice import (
    FractionalIdeal,
    _coordinates,
    _pivot_table,
    _pivots_of,
    canonicalize,
    compare,
    contains_element,
    contains_vector,
    element_vector,
    from_generators,
    group_labels,
    ideal_sum,
    intersect,
    map_image,
    map_preimage,
    saturated_columns,
    scale_by,
    unit_ideal,
    zero_ideal,
)
from galideal.serialize import parse_lattice
from galideal.stickelberger import stickelberger

from conftest import run_python

C2 = FiniteAbelianGroup((2,))
D6 = from_cayley_text(
    (Path(__file__).parent / "golden" / "d6.txt").read_text(encoding="utf-8"))


def gre(group, pairs):
    return GroupRingElement(group, dict(pairs))


def test_unit_ideal_c2():
    I = unit_ideal(C2)
    assert I.denominator == 1
    assert I.columns == ((1, 0), (0, 1))


def test_idempotent_orbit():
    e = gre(C2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    I = from_generators(C2, [e])
    assert I.rank == 1
    assert I.denominator == 1
    assert I.columns == ((1, 1),)


def test_theta_mod3_normalization():
    g = unit_group(3)
    theta = gre(g, {1: Fraction(1, 6), 2: Fraction(-1, 6)})
    I = from_generators(g, [theta])
    # content 1/6 = (1/2)(1/3): the 2-part is absorbed, leaving (s1 - s2)/3
    assert I.denominator == 3
    assert I.columns == ((1, -1),)


def test_contains():
    I = unit_ideal(C2)
    x = gre(C2, {(0,): Fraction(1, 4), (1,): Fraction(1, 4)})
    assert contains_element(I, C2, x)
    y = gre(C2, {(0,): Fraction(1, 3), (1,): Fraction(1, 3)})
    assert not contains_element(I, C2, y)
    g3 = unit_group(3)
    J = from_generators(g3, [gre(g3, {1: Fraction(1, 6), 2: Fraction(-1, 6)})])
    assert contains_vector(J, [Fraction(1, 6), Fraction(-1, 6)])
    assert not contains_vector(J, [Fraction(1, 9), Fraction(-1, 9)])


def test_compare():
    I = unit_ideal(C2)
    assert compare(I, I) == "equal"
    ep = from_generators(C2, [gre(C2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})])
    em = from_generators(C2, [gre(C2, {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)})])
    assert compare(ep, I) == "subset"
    assert compare(I, ep) == "superset"
    assert compare(ep, em) == "incomparable"
    # no other type is equal to an ideal, and a basis that is not the
    # canonical form of its module is refused
    assert (I == I.columns) is False
    skewed = FractionalIdeal(I.labels, 1, [(1, 1), (0, 1)])
    with pytest.raises(AssertionError, match="canonical forms differ"):
        compare(I, skewed)


def test_sum_of_idempotent_ideals():
    ep = from_generators(C2, [gre(C2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})])
    em = from_generators(C2, [gre(C2, {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)})])
    s = ideal_sum(ep, em)
    # spans (1,1) and (1,-1): index 2 in Z^2, but 2-saturation gives Z^2
    assert s == unit_ideal(C2)


def test_scale_by_unit():
    g = unit_group(3)
    I = unit_ideal(g)
    theta = gre(g, {1: Fraction(1, 6), 2: Fraction(-1, 6)})
    J = scale_by(I, g, theta)
    assert J == from_generators(g, [theta])
    # scale by an invertible fixture element and back
    r = gre(g, {1: 2, 2: 1})
    K = scale_by(I, g, invert_unit(r))
    back = scale_by(K, g, r)
    assert back == I


def test_map_image_examples():
    ident = [[1, 0], [0, 1]]
    em = from_generators(C2, [gre(C2, {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)})])
    assert map_image(em, ident, em.labels) == em
    aug = [[1, 1]]
    assert map_image(em, aug, ("q",)).is_zero()
    C4 = FiniteAbelianGroup((4,))
    T = [[0] * 4, [0] * 4]
    for j, e in enumerate(C4.elements):
        T[e[0] % 2][j] = 1
    I4 = unit_ideal(C4)
    assert map_image(I4, T, group_labels(C2)) == unit_ideal(C2)


def test_map_preimage_examples():
    one = canonicalize(("q",), 1, [[1]])
    assert map_preimage(one, [[1]], ("q",)) == one
    amb2 = canonicalize(("x", "y"), 1, [[1, 0], [0, 1]])
    first_axis = [[1], [0]]
    assert map_preimage(amb2, first_axis, ("q",)) == one
    doubled = [[1], [2]]
    assert map_preimage(amb2, doubled, ("q",)) == one
    with pytest.raises(ValueError):
        map_preimage(amb2, [[0], [0]], ("q",))
    # no rows: the map from Q^1 to Q^0 is not injective
    with pytest.raises(ValueError):
        map_preimage(zero_ideal(()), [], ("q",))


def test_map_preimage_from_the_zero_space():
    # no columns: the map from Q^0 is injective, and the preimage of a
    # nonzero ideal is the zero module of dimension 0
    I = unit_ideal(C2)
    pre = map_preimage(I, [[] for _ in I.labels], ())
    assert pre == zero_ideal(())
    assert pre.dimension == 0 and pre.is_zero()
    # no rows for a nonzero ambient is a shape error
    with pytest.raises(ValueError):
        map_preimage(I, [], ())


def test_shapes_checked_without_asserts():
    # a wrong shape raises ValueError, which python -O does not strip, so
    # no entry is ever dropped silently
    with pytest.raises(ValueError):
        canonicalize(("a", "b"), 1, [[1, 2, 3]])
    I = canonicalize(("a", "b"), 1, [[1, 0], [0, 1]])
    assert I.rank == 2
    for T in ([[1, 0, 0], [0, 1, 0]], [[1, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(ValueError):
            map_image(I, T, ("a", "b"))
    for T in ([[1], [0], [0]], [[1, 0], [0, 1]]):
        with pytest.raises(ValueError):
            map_preimage(I, T, ("q",))


def test_map_preimage_of_image_contains_identity():
    g = unit_group(5)
    theta_like = gre(g, {1: Fraction(1, 5), 2: Fraction(-2, 5), 3: Fraction(1, 5)})
    I = from_generators(g, [theta_like])
    # embed Q[G] -> Q[G] x Q[G] diagonally (injective)
    n = g.order
    T = [[1 if j == i % n else 0 for j in range(n)] for i in range(2 * n)]
    labels2 = tuple("d%d" % i for i in range(2 * n))
    img = map_image(I, T, labels2)
    back = map_preimage(img, T, group_labels(g))
    assert compare(I, back) in ("equal", "subset")


def test_intersect():
    ep = from_generators(C2, [gre(C2, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})])
    em = from_generators(C2, [gre(C2, {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)})])
    assert intersect(ep, em).is_zero()
    I = unit_ideal(C2)
    assert intersect(I, ep) == ep
    third = canonicalize(group_labels(C2), 3, [[1, 0], [0, 1]])
    assert intersect(I, third) == I


def test_zero_module_participates():
    z = zero_ideal(group_labels(C2))
    I = unit_ideal(C2)
    assert ideal_sum(z, I) == I
    assert intersect(z, I).is_zero()
    assert compare(z, I) == "subset"
    assert from_generators(C2, []) == z
    assert not contains_vector(z, [1, 0])
    assert contains_vector(z, [0, 0])


def test_canonicalize_against_sympy_hnf():
    # sympy's HNF of the Stickelberger generators at conductor 49 spans the
    # same lattice, so it must canonicalize to the same ideal
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    level = CyclotomicLevel(7, 1)
    group = level.group
    theta = stickelberger(level.modulus, level.places(), 0)
    vecs = [element_vector(group, GroupRingElement.basis(group, g) * theta)
            for g in group.elements]
    d0 = lcm(*(x.denominator for v in vecs for x in v))
    A = [[int(x * d0) for x in v] for v in vecs]
    S = hermite_normal_form(Matrix(A).T)
    cols = [[int(S[r, j]) for r in range(S.rows)] for j in range(S.cols)]
    assert hnf_columns(cols, group.order) == hnf_columns(A, group.order)
    assert canonicalize(group_labels(group), d0, cols) == ideal_J_minus(level)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonicality_under_presentation_changes(data):
    group = data.draw(st.sampled_from([C2, unit_group(5), FiniteAbelianGroup((2, 2))]))
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    gens = data.draw(st.lists(
        st.builds(lambda d: GroupRingElement(group, d),
                  st.dictionaries(st.sampled_from(group.elements), frac, max_size=3)),
        min_size=1, max_size=3))
    I = from_generators(group, gens)
    # shuffle, translate by group elements, rescale by powers of 2
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    mutated = []
    for x in gens:
        g = rng.choice(group.elements)
        k = rng.choice([-2, -1, 0, 1, 2])
        mutated.append((GroupRingElement.basis(group, g) * x).scale(Fraction(2) ** k))
    rng.shuffle(mutated)
    J = from_generators(group, mutated)
    assert I == J


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generators_are_members_and_sum_monotone(data):
    group = data.draw(st.sampled_from([C2, unit_group(8)]))
    frac = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    gens = data.draw(st.lists(
        st.builds(lambda d: GroupRingElement(group, d),
                  st.dictionaries(st.sampled_from(group.elements), frac, max_size=3)),
        min_size=1, max_size=2))
    I = from_generators(group, gens)
    for x in gens:
        assert contains_element(I, group, x)
    J = ideal_sum(I, unit_ideal(group))
    assert compare(I, J) in ("equal", "subset")


def _reference_half_columns(cols):
    # (H c)/2 for a basis c of the F2-kernel {c : H c = 0 mod 2}, H the
    # matrix with columns `cols`, found by elimination on bitmasks of the
    # columns mod 2; each dependent column gives one kernel vector, recorded
    # as the set of columns it combines
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


def _reference_saturated_columns(denominator, vectors, n, perms=()):
    # the round-based 2-saturation: adjoin (H c)/2 for a basis c of the
    # F2-kernel of H and re-HNF, until the kernel is empty
    vs = [v for v in vectors if any(v)]
    if not vs:
        return 1, []
    H = hnf_columns(vs, n, perms)
    halves = _reference_half_columns(H)
    while halves:
        H = hnf_columns(H + halves, n)
        halves = _reference_half_columns(H)
    d = abs(denominator) // (denominator & -denominator)
    g = gcd(d, *(x for col in H for x in col))
    return d // g, [[x // g for x in col] for col in H]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_saturation_matches_the_round_based_reference(data):
    # generators spanning a lattice of rank below n, some columns scaled
    # by 2^k so that the saturation has work to do, sometimes with a signed
    # coordinate permutation to close under
    n = data.draw(st.integers(1, 7))
    rank = data.draw(st.integers(0, n - 1))
    entry = st.integers(-6, 6)
    basis = [data.draw(st.lists(entry, min_size=n, max_size=n))
             for _ in range(rank)]
    vectors = []
    for _ in range(data.draw(st.integers(0, 6))):
        c = [data.draw(st.integers(-3, 3)) for _ in basis]
        v = [sum(cj * b[i] for cj, b in zip(c, basis)) for i in range(n)]
        vectors.append([x << data.draw(st.integers(0, 4)) for x in v])
    perms = ()
    if rank and data.draw(st.booleans()):
        order = data.draw(st.permutations(range(n)))
        perms = ([(k, data.draw(st.sampled_from([1, -1]))) for k in order],)
    den = data.draw(st.integers(1, 90)) * data.draw(st.sampled_from([1, -1]))
    assert (saturated_columns(den, vectors, n, perms)
            == _reference_saturated_columns(den, vectors, n, perms))


def test_saturation_of_a_column_halved_three_times():
    # the HNF is (2, 0, 1), (0, 0, 4): the second column halves to
    # (0, 0, 2), then (0, 0, 1), then with the first to (1, 0, 1)
    vectors = [[2, 0, 1], [12, 0, 10]]
    assert hnf_columns(vectors, 3) == [[2, 0, 1], [0, 0, 4]]
    expected = (3, [[1, 0, 0], [0, 0, 1]])
    assert saturated_columns(6, vectors, 3) == expected
    assert _reference_saturated_columns(6, vectors, 3) == expected


def test_saturation_of_the_zero_module():
    assert saturated_columns(1, [], 3) == (1, [])
    assert saturated_columns(9, [[0, 0, 0], [0, 0, 0]], 3) == (1, [])
    assert saturated_columns(5, [], 0) == (1, [])


@pytest.mark.parametrize("name", ["units-43.json", "units-49.json"])
def test_parsing_a_units_lattice_runs_two_hnfs(monkeypatch, name):
    # one HNF of the columns and one after the 2-saturation's pass
    real = lattice.hnf_columns
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, "hnf_columns", counted)
    payload = json.loads((Path(__file__).parent / "golden" / name)
                         .read_text(encoding="utf-8"))
    parse_lattice(payload["lattice"])
    assert len(calls) == 2


def _over_common_denominator(vectors):
    d = lcm(*(x.denominator for v in vectors for x in v))
    return d, [[int(x * d) for x in v] for v in vectors]


def _gauss_jordan_solve(A, b):
    # one solution x of A*x = b over Q by Fraction Gauss-Jordan on the
    # augmented matrix, or None if inconsistent; an elimination independent
    # of the forward pass under test
    m = len(A[0])
    R = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(A, b)]
    pivots = []
    for c in range(m + 1):
        i = next((i for i in range(len(pivots), len(R)) if R[i][c]), None)
        if i is None:
            continue
        r = len(pivots)
        R[r], R[i] = R[i], R[r]
        R[r] = [x / R[r][c] for x in R[r]]
        for k in range(len(R)):
            if k != r and R[k][c]:
                R[k] = [a - R[k][c] * p for a, p in zip(R[k], R[r])]
        pivots.append(c)
        if len(pivots) == len(R):
            break
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        x[c] = R[i][m]
    return x


def _reference_coordinates(ideal, vector):
    # the coordinates of d*vector by Gauss-Jordan on the augmented matrix,
    # or None outside the Q-span
    if not any(vector):
        return [Fraction(0)] * ideal.rank
    if ideal.is_zero():
        return None
    A = [[col[r] for col in ideal.columns] for r in range(ideal.dimension)]
    return _gauss_jordan_solve(A, [Fraction(x) * ideal.denominator for x in vector])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_membership_matches_rref_reference(data):
    n = data.draw(st.integers(1, 6))
    labels = tuple("x%d" % i for i in range(n))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))
    gens = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              max_size=4))
    ideal = canonicalize(labels, *_over_common_denominator(gens))
    if data.draw(st.booleans()):
        # trusted constructor: each column times a nonzero integer keeps the
        # echelon shape but not the reduction on pivot rows (like q*I)
        ideal = FractionalIdeal(labels, ideal.denominator, [
            [data.draw(st.integers(-6, 6).filter(bool)) * x for x in col]
            for col in ideal.columns])
    kind = data.draw(st.sampled_from(["combination", "any", "zero"]))
    if kind == "combination":
        coeffs = data.draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=12),
            min_size=ideal.rank, max_size=ideal.rank))
        v = [sum((c * col[i] for c, col in zip(coeffs, ideal.columns)),
                 Fraction(0)) / ideal.denominator for i in range(n)]
    elif kind == "any":
        v = data.draw(st.lists(entry, min_size=n, max_size=n))
    else:
        v = [Fraction(0)] * n
    y = _reference_coordinates(ideal, v)
    assert contains_vector(ideal, v) == (
        y is not None and all(c.denominator & (c.denominator - 1) == 0 for c in y))


def test_membership_input_checks():
    I = unit_ideal(C2)
    for bad in ([1], [1, 0, 0]):
        with pytest.raises(ValueError):
            contains_vector(I, bad)


@pytest.mark.parametrize("ell, n", [(101, 0), (5, 2)])
def test_compare_rank_50_budget(ell, n):
    I = ideal_J_minus(CyclotomicLevel(ell, n))
    assert I.rank == 50
    tripled = FractionalIdeal(I.labels, I.denominator,
                              [[3 * x for x in col] for col in I.columns])
    t0 = time.perf_counter()
    assert compare(tripled, I) == "subset"
    assert time.perf_counter() - t0 < 1.0


def _reference_from_generators(group, gens):
    # the translates g x as group-ring products, cleared as Fraction vectors
    vecs = [element_vector(group, GroupRingElement.basis(group, g) * x)
            for x in gens for g in group.elements]
    return canonicalize(group_labels(group), *_over_common_denominator(vecs))


def _reference_multiplication_matrix(group, x):
    cols = [element_vector(group, x * GroupRingElement.basis(group, g))
            for g in group.elements]
    return [list(row) for row in zip(*cols)]


def _sparse_elements(group):
    # few terms, numerators over odd and even denominators
    coeff = st.builds(Fraction, st.integers(-6, 6),
                      st.sampled_from([1, 2, 3, 4, 5, 8, 9, 12, 15]))
    return st.builds(lambda d: GroupRingElement(group, d),
                     st.dictionaries(st.sampled_from(group.elements), coeff,
                                     max_size=4))


TRANSLATE_GROUPS = {
    "S3": symmetric3(),
    "D6": D6,
    "C2xC4": FiniteAbelianGroup((2, 4)),
    "C2xC2xC2": FiniteAbelianGroup((2, 2, 2)),
    "Q8": quaternion8(),
    "A4": alternating4(),
}


@pytest.mark.parametrize("kind", ["units"] + list(TRANSLATE_GROUPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_translates_match_group_ring_products(kind, data):
    # from_generators closes under the translates by a generating set only;
    # the reference takes every translate.  Left translates (the ideal) and
    # right translates (the columns of the multiplication matrix) differ on
    # the non-abelian S3, D6, Q8 and A4; C2xC4 and C2^3 need two and three
    # generators
    if kind == "units":
        group = unit_group(data.draw(st.integers(1, 50)))
    else:
        group = TRANSLATE_GROUPS[kind]
    gens = data.draw(st.lists(_sparse_elements(group), max_size=6))
    I = from_generators(group, gens)
    assert I == _reference_from_generators(group, gens)
    x = data.draw(_sparse_elements(group))
    assert scale_by(I, group, x) == map_image(
        I, _reference_multiplication_matrix(group, x), I.labels)


def test_membership_at_two_power_pivots():
    # pivots 12 = 4*3, 8 and -6 = -2*3 over d = 3: a coordinate may carry a
    # power of 2 in its denominator but no odd factor
    cols = [[12, 5, 1], [0, 8, 3], [0, 0, -6]]
    I = FractionalIdeal(("a", "b", "c"), 3, cols)

    def combo(*ys):
        return [sum(y * col[r] for y, col in zip(ys, cols)) / 3
                for r in range(3)]

    members = [combo(Fraction(1, 2), 0, 0), combo(Fraction(3, 4), 1, 0),
               combo(1, Fraction(-5, 16), Fraction(7, 8)),
               [0, 1, 0], [1, Fraction(5, 12), Fraction(1, 12)]]
    outsiders = [combo(Fraction(1, 3), 0, 0), combo(1, 0, Fraction(1, 6)),
                 combo(Fraction(1, 2), Fraction(5, 12), 0),
                 [1, 0, 0], [Fraction(1, 9), 0, 0]]
    for v in members + outsiders:
        y = _reference_coordinates(I, v)
        assert contains_vector(I, v) == (v in members)
        assert (v in members) == all(
            c.denominator & (c.denominator - 1) == 0 for c in y)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_membership_with_two_power_pivots(data):
    # echelon columns with pivots +-2^e o: coordinates are unique, so a
    # combination is a member iff every coefficient is in Z[1/2]; a vector
    # moved off the span at a non-pivot row never is.  Below the pivot a
    # column is mostly zero, as canonical columns are, so the forward pass
    # skips rows, and it rescales r wherever a pivot fails to divide it.
    n = data.draw(st.integers(1, 40))
    pivots = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                      max_size=12)))
    cols = []
    for p in pivots:
        col = [0] * n
        col[p] = (data.draw(st.sampled_from([1, -1]))
                  * 2 ** data.draw(st.integers(0, 4))
                  * data.draw(st.sampled_from([1, 3, 5])))
        if p < n - 1:
            tail = data.draw(st.dictionaries(st.integers(p + 1, n - 1),
                                             st.integers(-9, 9), max_size=4))
            for i, x in tail.items():
                col[i] = x
        cols.append(col)
    d = data.draw(st.sampled_from([1, 3, 5, 15]))
    I = FractionalIdeal(tuple("x%d" % i for i in range(n)), d, cols)
    ys = data.draw(st.lists(
        st.builds(Fraction, st.integers(-7, 7),
                  st.sampled_from([1, 2, 4, 8, 16, 3, 6, 12])),
        min_size=len(cols), max_size=len(cols)))
    v = [sum(y * col[r] for y, col in zip(ys, cols)) / d for r in range(n)]
    assert contains_vector(I, v) == all(
        y.denominator & (y.denominator - 1) == 0 for y in ys)
    # over Q the pass solves for the coordinates of w = L d v exactly:
    # sum_j (Y_j / s) col_j = w, with Y_j / s = L y_j
    L = lcm(*(x.denominator for x in v))
    w = [int(L * d * x) for x in v]
    Y, s = _coordinates(_pivots_of(I), list(w), lambda f: True)
    assert [sum(Fraction(Yj, s) * col[i] for Yj, col in zip(Y, cols))
            for i in range(n)] == w
    assert [Fraction(Yj, s) for Yj in Y] == [L * y for y in ys]
    free = [r for r in range(n) if r not in pivots]
    if free:
        v[data.draw(st.sampled_from(free))] += Fraction(1, 2)
        assert not contains_vector(I, v)


def _dense_coordinates(columns, r, unit):
    # reference for _coordinates: the same forward pass read off the
    # columns themselves, visiting every pivot in order and scanning every
    # column's full tail at each step
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


def _power_of_two(f):
    return f & (f - 1) == 0


def _any_factor(f):
    return True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_pass_matches_the_dense_pass(data):
    # echelon columns with pivots +-2^e o and tails of a few or of all rows
    # below the pivot; tail entries run far past the pivots, so the columns
    # are echelon but not reduced unless they are replaced by their HNF.
    # r is a combination of them, perturbed at a pivot row or at a
    # non-pivot row (then never in the Q-span), or drawn at random.
    n = data.draw(st.integers(1, 30))
    pivots = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=10)))
    dense = data.draw(st.booleans())
    entry = st.integers(-200, 200)
    cols = []
    for p in pivots:
        col = [0] * n
        col[p] = (data.draw(st.sampled_from([1, -1]))
                  * 2 ** data.draw(st.integers(0, 4))
                  * data.draw(st.sampled_from([1, 3, 5, 9])))
        if dense:
            col[p + 1:] = [data.draw(entry) for _ in range(p + 1, n)]
        elif p < n - 1:
            for i, x in data.draw(st.dictionaries(
                    st.integers(p + 1, n - 1), entry, max_size=3)).items():
                col[i] = x
        cols.append(col)
    if cols and data.draw(st.booleans()):
        cols = hnf_columns(cols, n)
    ys = data.draw(st.lists(
        st.builds(Fraction, st.integers(-7, 7),
                  st.sampled_from([1, 2, 4, 8, 3, 6, 5])),
        min_size=len(cols), max_size=len(cols)))
    v = [sum(y * col[i] for y, col in zip(ys, cols)) for i in range(n)]
    L = lcm(*(x.denominator for x in v))
    r = [int(L * x) for x in v]
    free = [i for i in range(n) if i not in pivots]
    kind = data.draw(st.sampled_from(["member", "pivot", "free", "any"]))
    if kind == "pivot" and pivots:
        r[data.draw(st.sampled_from(pivots))] += data.draw(st.integers(1, 15))
    elif kind == "free" and free:
        r[data.draw(st.sampled_from(free))] += data.draw(st.integers(1, 15))
    elif kind == "any":
        r = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    unit = data.draw(st.sampled_from([_power_of_two, _any_factor]))
    found = _coordinates(_pivot_table(cols, n), list(r), unit)
    assert found == _dense_coordinates(cols, list(r), unit)
    if unit is _any_factor and kind == "member":
        assert found is not None
    if kind == "free" and free:
        assert found is None


def test_one_pivot_table_per_ideal(monkeypatch):
    # the table is built by the first membership test on an ideal, never by
    # its constructor, and then serves every later test on it
    built, real = [], lattice._pivot_table

    def counted(columns, n):
        built.append(tuple(map(tuple, columns)))
        return real(columns, n)

    monkeypatch.setattr(lattice, "_pivot_table", counted)
    J = ideal_J_minus(CyclotomicLevel(7, 1))
    built.clear()
    I = FractionalIdeal(J.labels, J.denominator, J.columns)
    tripled = FractionalIdeal(J.labels, J.denominator,
                              [[3 * x for x in col] for col in J.columns])
    assert built == [] and J.denominator % 3
    # four members, and four outside I: a member plus e_k / 3
    vectors = [[Fraction(k + 1, 2 ** k) * x / I.denominator for x in col]
               for k, col in enumerate(I.columns[:8])]
    for k in range(1, 8, 2):
        vectors[k][k] += Fraction(1, 3)
    assert [contains_vector(I, v) for v in vectors] == [True, False] * 4
    assert compare(tripled, I) == "subset"
    assert built.count(I.columns) == 1
    assert built.count(tripled.columns) <= 1
    assert len(built) <= 2
    # map_preimage: one table for the HNF of T, whatever the number of
    # vectors it solves for
    solved, real_coordinates = [], lattice._coordinates

    def counted_coordinates(table, r, unit):
        solved.append(r)
        return real_coordinates(table, r, unit)

    monkeypatch.setattr(lattice, "_coordinates", counted_coordinates)
    amb3 = canonicalize(("x", "y", "z"), 3, [[1, 0, 0], [0, 2, 0], [0, 5, 7]])
    for T in ([[1, 0, 0], [1, 1, 0], [0, 1, 3]], [[2, 0], [1, 1], [0, 1]]):
        built.clear()
        solved.clear()
        map_preimage(amb3, T, tuple("abc"[:len(T[0])]))
        assert len(built) == 1
        assert len(solved) >= 2


def test_input_checks_survive_optimize_flag():
    # python -O strips asserts; every mismatch must still raise ValueError
    script = """
from galideal.abelian import FiniteAbelianGroup, unit_group
from galideal.groupring import GroupRingElement
from galideal.lattice import (FractionalIdeal, canonicalize, compare,
    contains_element, from_generators, group_labels, ideal_sum, intersect,
    scale_by, unit_ideal, zero_ideal)
ab = FractionalIdeal(("a", "b"), 1, [[1, 0]])
xy = FractionalIdeal(("x", "y"), 1, [[1, 0]])
c2, g3 = FiniteAbelianGroup((2,)), unit_group(3)
one3 = GroupRingElement.one(g3)
calls = {
    "ideal_sum": lambda: ideal_sum(ab, xy),
    "compare": lambda: compare(ab, xy),
    "intersect": lambda: intersect(ab, xy),
    "scale_by": lambda: scale_by(ab, c2, GroupRingElement.one(c2)),
    "contains_element": lambda: contains_element(ab, c2, one3),
    "from_generators": lambda: from_generators(c2, [one3]),
    "scale_by element": lambda: scale_by(unit_ideal(c2), c2, one3),
    "scale_by zero ideal": lambda: scale_by(zero_ideal(group_labels(c2)), c2,
                                            one3),
    "even denominator": lambda: FractionalIdeal(("a",), 2, [[1]]),
    "zero denominator": lambda: canonicalize(("a",), 0, [[1]]),
}
for name, call in calls.items():
    try:
        call()
        print(name)
    except ValueError:
        pass
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
