from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galideal.abelian import FiniteAbelianGroup, unit_group
from galideal.cyclotomic import CyclotomicNumber
from galideal.groupring import (
    EmbeddingSignature,
    GroupRingElement,
    character_components,
    det_over_group_ring,
    invert_unit,
    lambda_assemble,
    psi_eval,
    y_rank,
)

C2 = FiniteAbelianGroup((2,))
C3 = FiniteAbelianGroup((3,))
C4 = FiniteAbelianGroup((4,))


def elem(group, *pairs):
    return GroupRingElement(group, dict(pairs))


def det_leibniz(M):
    # Laplace expansion along the first row inside the group ring: the
    # reference that det_over_group_ring's character route is checked against
    n = len(M)
    if n == 1:
        return M[0][0]
    total = GroupRingElement.zero(M[0][0].group)
    for j in range(n):
        if M[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * det_leibniz(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_c2_zero_divisor():
    g = (1,)
    one_plus = elem(C2, ((0,), 1), (g, 1))
    one_minus = elem(C2, ((0,), 1), (g, -1))
    assert (one_plus * one_minus).is_zero()


def test_tau():
    x = elem(C4, ((0,), 2), ((1,), 3))
    assert x.tau() == elem(C4, ((0,), 2), ((3,), 3))
    assert x.tau().tau() == x


def test_tau_is_ring_automorphism():
    x = elem(C4, ((1,), 1), ((2,), Fraction(1, 2)))
    y = elem(C4, ((3,), 5), ((0,), -1))
    assert (x * y).tau() == x.tau() * y.tau()


def test_coefficients_must_be_rational():
    # a rational CyclotomicNumber is stored as its Fraction; an irrational
    # one is refused, since the group ring is Q[G]
    with pytest.raises(ValueError):
        GroupRingElement(C3, {(0,): CyclotomicNumber.zeta(3, 1)})
    x = GroupRingElement(C3, {(1,): CyclotomicNumber.from_rational(Fraction(2, 3))})
    c = x.coefficient((1,))
    assert type(c) is Fraction and c == Fraction(2, 3)
    assert x.coefficient((0,)) == 0 and type(x.coefficient((0,))) is Fraction


def test_group_mismatch():
    with pytest.raises(ValueError):
        GroupRingElement.one(C2) + GroupRingElement.one(C3)


def test_lambda_assemble_c2():
    chars = sorted(C2.characters(), key=lambda c: c.index)
    # index 0 is trivial
    a, b = Fraction(3), Fraction(7)
    h = {chars[0]: CyclotomicNumber.from_rational(a),
         chars[1]: CyclotomicNumber.from_rational(b)}
    x = lambda_assemble(C2, h)
    assert x == elem(C2, ((0,), (a + b) / 2), ((1,), (a - b) / 2))


def test_lambda_assemble_partition_of_unity():
    x = lambda_assemble(C3, lambda chi: CyclotomicNumber.one())
    assert x == GroupRingElement.one(C3)


def test_lambda_psi_inverse():
    import random

    rng = random.Random(3)
    for group in [C4, unit_group(5), FiniteAbelianGroup((2, 2))]:
        x = GroupRingElement(
            group, {g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in group.elements})
        comps = character_components(x)
        assert lambda_assemble(group, comps) == x


def test_lambda_rejects_nonequivariant():
    # C3 has two conjugate nontrivial characters; giving them unrelated
    # rational values breaks equivariance
    chars = C3.characters()
    h = {c: CyclotomicNumber.from_rational(i) for i, c in enumerate(chars)}
    with pytest.raises(ValueError):
        lambda_assemble(C3, h)


@pytest.mark.parametrize("group", [C3, C4, unit_group(7), unit_group(15),
                                   FiniteAbelianGroup((2, 4))],
                         ids=["C3", "C4", "units7", "units15", "C2xC4"])
def test_lambda_rejects_value_times_root_of_unity(group):
    # negative control for the irrationality check: take the components of
    # a rational element and multiply one of them by a root of unity
    # zeta != 1.  The values are then no longer Galois-equivariant, except
    # when zeta = -1 meets a rational character: that gives the components
    # of another rational element.
    import random

    rng = random.Random(group.order)
    x = GroupRingElement(group, {g: Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 4))
                                 for g in group.elements})
    comps = character_components(x)
    assert lambda_assemble(group, comps) == x
    roots = [CyclotomicNumber.zeta(n, k)
             for n, k in [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]]
    rejected = 0
    for chi in group.characters():
        assert not comps[chi].is_zero()
        for zeta in roots + [CyclotomicNumber.zeta(chi.root_order, 1)]:
            if zeta == 1:
                continue
            bad = dict(comps)
            bad[chi] = comps[chi] * zeta
            if zeta == -1 and chi.order() <= 2:
                lambda_assemble(group, bad)
                continue
            with pytest.raises(ValueError, match="not Galois-equivariant"):
                lambda_assemble(group, bad)
            rejected += 1
    assert rejected >= 4 * group.order


def test_invert_unit():
    x = elem(C2, ((0,), 3), ((1,), 1))  # components 4 and 2, a unit
    y = invert_unit(x)
    assert x * y == GroupRingElement.one(C2)
    z = elem(C2, ((0,), 1), ((1,), 1))  # sign component 0: a zero divisor
    with pytest.raises(ZeroDivisionError):
        invert_unit(z)


def test_det_examples():
    x = elem(C4, ((1,), 1), ((0,), 2))
    assert det_over_group_ring([[x]]) == x
    one = GroupRingElement.one(C4)
    zero = GroupRingElement.zero(C4)
    assert det_over_group_ring([[one, zero], [zero, one]]) == one
    g = GroupRingElement.basis(C2, (1,))
    z2 = GroupRingElement.zero(C2)
    assert det_over_group_ring([[z2, g], [g, z2]]) == -GroupRingElement.one(C2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_det_multiplicative_and_matches_leibniz(data):
    group = data.draw(st.sampled_from([C2, C3, unit_group(8)]))
    n = data.draw(st.integers(1, 3))
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def mat():
        return [[GroupRingElement(group,
                                  {g: data.draw(frac) for g in
                                   data.draw(st.lists(st.sampled_from(group.elements),
                                                      max_size=2, unique=True))})
                 for _ in range(n)] for _ in range(n)]

    A, B = mat(), mat()
    dA, dB = det_over_group_ring(A), det_over_group_ring(B)
    AB = [[sum((A[i][k] * B[k][j] for k in range(n)),
               GroupRingElement.zero(group)) for j in range(n)] for i in range(n)]
    assert det_over_group_ring(AB) == dA * dB
    assert dA == det_leibniz(A)


def test_y_rank_table():
    q_zeta5 = dict(r1=0, r2=2)
    q_zeta7 = dict(r1=0, r2=3)
    q_zeta7_real = dict(r1=3, r2=0)
    expect = {
        (0, 2): {0: 2, -1: 2, -2: 2, -3: 2},
        (0, 3): {0: 3, -1: 3, -2: 3, -3: 3},
        (3, 0): {0: 3, -1: 0, -2: 3, -3: 0},
    }
    for sig in [q_zeta5, q_zeta7, q_zeta7_real]:
        for r in [0, -1, -2, -3]:
            got = y_rank(EmbeddingSignature(sig["r1"], sig["r2"], r))
            assert got == expect[(sig["r1"], sig["r2"])][r]
