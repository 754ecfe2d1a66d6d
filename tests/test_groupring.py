import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galideal import cyclotomic
from galideal.abelian import (FiniteAbelianGroup, ResidueGroup, closure,
                              unit_group)
from galideal.brauer import BUILTIN_GROUPS, from_cayley_text, symmetric3
from galideal.cyclotomic import CyclotomicNumber, from_exponents
from galideal.groupring import (
    EmbeddingSignature,
    GroupRingElement,
    _bareiss,
    _table,
    assemble_orbits,
    det_over_group_ring,
    generating_set,
    invert_unit,
    lambda_assemble,
    map_elements,
    psi_eval,
    y_rank,
)

from conftest import run_python

C2 = FiniteAbelianGroup((2,))
C3 = FiniteAbelianGroup((3,))
C4 = FiniteAbelianGroup((4,))
C6 = FiniteAbelianGroup((6,))
C2xC4 = FiniteAbelianGroup((2, 4))
C2xC2xC2 = FiniteAbelianGroup((2, 2, 2))
C3xC3 = FiniteAbelianGroup((3, 3))
D6 = from_cayley_text(
    (Path(__file__).parent / "golden" / "d6.txt").read_text(encoding="utf-8"))


def _zero(group):
    return GroupRingElement.from_numerators(group, [0] * group.order)


def elem(group, *pairs):
    return GroupRingElement(group, dict(pairs))


def det_leibniz(M):
    # Laplace expansion along the first row inside the group ring: the
    # reference that det_over_group_ring's character route is checked against
    n = len(M)
    if n == 1:
        return M[0][0]
    total = _zero(M[0][0].group)
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
    # a character is read through its row over its own group's elements
    with pytest.raises(ValueError, match="character of"):
        psi_eval(GroupRingElement.one(C2), C4.characters()[1])


def test_lambda_assemble_c2():
    chars = sorted(C2.characters(), key=lambda c: c.index)
    # index 0 is trivial
    a, b = Fraction(3), Fraction(7)
    h = {chars[0]: CyclotomicNumber.from_rational(a),
         chars[1]: CyclotomicNumber.from_rational(b)}
    x = lambda_assemble(C2, h.__getitem__)
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
        comps = {chi: psi_eval(x, chi) for chi in x.group.characters()}
        assert lambda_assemble(group, comps.__getitem__) == x


def test_lambda_rejects_nonequivariant():
    # C3 has two conjugate nontrivial characters; giving them unrelated
    # rational values breaks equivariance
    chars = C3.characters()
    h = {c: CyclotomicNumber.from_rational(i) for i, c in enumerate(chars)}
    with pytest.raises(ValueError):
        lambda_assemble(C3, h.__getitem__)


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
    comps = {chi: psi_eval(x, chi) for chi in x.group.characters()}
    assert lambda_assemble(group, comps.__getitem__) == x
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
            if zeta == -1 and not any((chi ** 2).tuple):
                lambda_assemble(group, bad.__getitem__)
                continue
            with pytest.raises(ValueError, match="not Galois-equivariant"):
                lambda_assemble(group, bad.__getitem__)
            rejected += 1
    assert rejected >= 4 * group.order


def _assemble_reference(group, h):
    # (1/|G|) Sigma_chi h(chi) chi(g^-1) for each g, summed one term at a time
    # in CyclotomicNumber arithmetic
    out = []
    for g in group.elements:
        total = CyclotomicNumber.zero()
        for chi in group.characters():
            total = total + h[chi] * chi(group.inv(g))
        out.append((g, total * Fraction(1, group.order)))
    return out


@pytest.mark.parametrize("group", [C6, C2xC4, FiniteAbelianGroup((2, 2, 4)),
                                   unit_group(15)],
                         ids=["C6", "C2xC4", "C2xC2xC4", "units15"])
def test_lambda_assemble_matches_direct_sum(group):
    # one, two and three invariant factors, and a residue group: the
    # assembled element is the direct character sum, and for values that are
    # not Galois-equivariant the error names the first element, in element
    # order, whose direct sum is irrational.  One component times a root of
    # unity spoils the identity's coefficient; a root added at one character
    # and taken away at another leaves it rational and spoils a later one
    rng = random.Random(group.order)
    roots = [CyclotomicNumber.zeta(n, k) for n, k in [(3, 1), (4, 1), (5, 2)]]
    labels = set()
    for _ in range(4):
        x = GroupRingElement(group, {g: Fraction(rng.randint(-9, 9),
                                                 rng.randint(1, 4))
                                     for g in group.elements})
        comps = {chi: psi_eval(x, chi) for chi in x.group.characters()}
        # the same values put at twice their order
        lifted = {chi: v.lift(2 * v.order) for chi, v in comps.items()}
        for h in (comps, lifted):
            want = GroupRingElement(group, dict(_assemble_reference(group, h)))
            assert lambda_assemble(group, h.__getitem__) == want == x
        scaled, moved = dict(comps), dict(comps)
        chi = rng.choice([c for c in group.characters()[1:]
                          if not comps[c].is_zero()])
        scaled[chi] = comps[chi] * rng.choice(roots)
        c1, c2 = rng.sample(group.characters(), 2)
        w = rng.choice(roots)
        moved[c1], moved[c2] = comps[c1] + w, comps[c2] - w
        for bad in (scaled, moved):
            first = next(g for g, v in _assemble_reference(group, bad)
                         if not v.is_rational())
            labels.add(group.label(first))
            with pytest.raises(ValueError) as err:
                lambda_assemble(group, bad.__getitem__)
            assert str(err.value) == (
                "character values are not Galois-equivariant: coefficient "
                "at %s came out irrational" % group.label(first))
    assert group.label(group.identity) in labels and len(labels) > 1


def _parts(v, lift=1):
    # a CyclotomicNumber as the (order, exponent accumulator, denominator)
    # that assemble_orbits reads, at lift times its order
    v = v.lift(lift * v.order)
    return v.order, list(v.nums), v.den


@pytest.mark.parametrize("group", [
    FiniteAbelianGroup((7,)), unit_group(11), unit_group(27),
    FiniteAbelianGroup((8,)), unit_group(29), C2xC4,
    FiniteAbelianGroup((2, 2, 4)), unit_group(15)],
    ids=["C7", "units11", "units27", "C8", "units29", "C2xC4", "C2xC2xC4",
         "units15"])
def test_orbit_assembly_matches_direct_sum(group):
    # cyclic groups of prime (C7), prime-power (C8) and composite order
    # ((Z/11)^* = C10, (Z/27)^* = C18, (Z/29)^* = C28), then two and three
    # invariant factors: one value per Galois orbit, at its order, at twice
    # it, and as an unreduced accumulator (plus a multiple of Phi_m, which
    # is zero), assembles the direct sum over every character
    rng = random.Random(group.order)
    x = GroupRingElement(group, {g: Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 4))
                                 for g in group.elements})
    comps = {chi: psi_eval(x, chi) for chi in x.group.characters()}
    want = GroupRingElement(group, dict(_assemble_reference(group, comps)))
    assert want == x

    def unreduced(chi):
        v = comps[chi]
        m = 2 * v.order
        phi = cyclotomic.cyclotomic_polynomial(m)  # of length phi(m) + 1 <= m
        acc = list(v._at(m)) + [0]
        return m, [a + 5 * p for a, p in zip(acc, phi)], v.den

    for value in (lambda chi: _parts(comps[chi]),
                  lambda chi: _parts(comps[chi], 2), unreduced):
        assert assemble_orbits(group, value) == x
    lifted = {chi: v.lift(2 * v.order) for chi, v in comps.items()}
    assert lambda_assemble(group, lifted.__getitem__) == x


@pytest.mark.parametrize("make", [
    lambda: ResidueGroup._trusted(1000, list(unit_group(1000).elements)),
    lambda: FiniteAbelianGroup((2, 4))], ids=["units1000", "C2xC4"])
def test_orbit_table_builds_one_character_per_orbit(make, monkeypatch):
    # _table builds each orbit's first character alone and never the list;
    # the orbits are the cyclic subgroups of the coordinates, each listed at
    # its first tuple
    group = make()
    kind = type(group)
    built = []
    character = kind.character

    def counted(self, index):
        built.append(index)
        return character(self, index)

    def no_list(self):
        raise AssertionError("characters() was called")

    monkeypatch.setattr(kind, "character", counted)
    monkeypatch.setattr(kind, "characters", no_list)
    N, orbits = _table(group)
    A = orbits[0][0].coords
    firsts = {}
    for i, t in enumerate(A.elements):
        firsts.setdefault(frozenset(closure(A, [t])), i)
    assert built == [chi.index for chi, _, _, _ in orbits] \
        == sorted(firsts.values())
    assert N == A.exponent and len(built) < group.order


@pytest.mark.parametrize("group", [C4, C6, unit_group(15), unit_group(27)],
                         ids=["C4", "C6", "units15", "units27"])
def test_orbit_assembly_refuses_a_value_outside_its_field(group):
    # negative control for the stabiliser check: at a character of order n
    # the value zeta_4n lies outside Q(zeta_n) and is refused, while zeta_n
    # is taken, and is the component there of the assembled element
    for first, n, _, _ in _table(group)[1]:
        for q, taken in ((4 * n, False), (n, True)):
            def value(chi):
                # zeta_q at first, as the exponent accumulator [0, 1] (just
                # [1] for zeta_1 = 1), and 1 elsewhere
                if chi != first:
                    return 1, [1], 1
                return q, [0] * (q > 1) + [1], 1
            if taken:
                x = assemble_orbits(group, value)
                assert psi_eval(x, first) == CyclotomicNumber.zeta(n)
                continue
            with pytest.raises(ValueError, match=(
                    "^character values are not Galois-equivariant: the value"
                    " at character %d is moved by its stabiliser$"
                    % first.index)):
                assemble_orbits(group, value)


def test_character_route_refuses_a_cayley_table_group():
    # a Cayley-table group has no characters: each entry point of the
    # character route names the group in a ValueError
    S3 = symmetric3()
    one = GroupRingElement.one(S3)
    calls = [lambda: det_over_group_ring([[one]]),
             lambda: lambda_assemble(S3, None),
             lambda: assemble_orbits(S3, None),
             lambda: invert_unit(one)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^FiniteGroup\(order 6\) has "
                                             "no character table"):
            call()


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
    zero = _zero(C4)
    assert det_over_group_ring([[one, zero], [zero, one]]) == one
    g = GroupRingElement.basis(C2, (1,))
    z2 = _zero(C2)
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
               _zero(group)) for j in range(n)] for i in range(n)]
    assert det_over_group_ring(AB) == dA * dB
    assert dA == det_leibniz(A)


def _field_leibniz(A):
    # Sigma over permutations p of sign(p) Prod_i A[i][p(i)], in the field
    n = len(A)
    total = CyclotomicNumber.zero()
    for p in permutations(range(n)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total = total + sign * prod((A[i][p[i]] for i in range(n)),
                                    start=CyclotomicNumber.one())
    return total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bareiss_matches_leibniz(data):
    # Bareiss on numerator rows at every character against the Leibniz sum
    # in the field.  Sparse entries make zero pivots, a zero corner forces a
    # row swap at the first step, and a last row that is a Q[G]-combination
    # of the others makes the matrix singular at every character.
    # C2 x C2 x C2 has three invariant factors and only rational values.
    group = data.draw(st.sampled_from([C6, C2xC4, C2xC2xC2, C3xC3]))
    n = data.draw(st.integers(1, 4))
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    entry = st.dictionaries(st.sampled_from(group.elements), frac,
                            max_size=2).map(lambda d: GroupRingElement(group, d))
    zero = _zero(group)
    M = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        c = [data.draw(entry) for _ in range(n - 1)]
        M[-1] = [sum((c[i] * M[i][j] for i in range(n - 1)), zero)
                 for j in range(n)]
    if data.draw(st.booleans()):
        M[0][0] = zero
    assert det_over_group_ring(M) == det_leibniz(M)
    N, D = group.exponent, lcm(*(x.den for row in M for x in row))
    for chi in group.characters():
        A = [[psi_eval(x, chi) for x in row] for row in M]
        rows = [[[a * (D // v.den) for a in v._at(N)] for v in row]
                for row in A]
        assert from_exponents(N, _bareiss(N, rows), D ** n) \
            == _field_leibniz(A)


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


# --- the integer layout against a dict-of-Fraction reference ---
#
# The reference is the representation the integer numerators replaced: a
# dict from group elements to their nonzero Fraction coefficients.

def _ref_clean(d):
    return {g: c for g, c in d.items() if c}


def _ref_add(x, y, sign=1):
    out = dict(x)
    for g, c in y.items():
        out[g] = out.get(g, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(group, x, y):
    out = {}
    for g, a in x.items():
        for h, b in y.items():
            k = group.op(g, h)
            out[k] = out.get(k, 0) + a * b
    return _ref_clean(out)


def _ref_push(x, f):
    out = {}
    for g, c in x.items():
        out[f(g)] = out.get(f(g), 0) + c
    return _ref_clean(out)


def _ref_psi(x, chi):
    return sum((chi(g) * c for g, c in x.items()), CyclotomicNumber.zero())


def _as_ref(x):
    # the element read back through the public Fraction edge, after checking
    # the layout invariants: |G| numerators over den > 0, gcd(den, nums) = 1
    assert len(x.nums) == x.group.order and x.den > 0
    assert gcd(x.den, *x.nums) == 1
    return _ref_clean({g: x.coefficient(g) for g in x.group.elements})


def _ref_elements(group):
    # few terms, numerators over odd and even denominators, zeros included
    coeff = st.builds(Fraction, st.integers(-6, 6),
                      st.sampled_from([1, 2, 3, 4, 5, 8, 9, 12, 15]))
    return st.dictionaries(st.sampled_from(list(group.elements)), coeff,
                           max_size=6)


@pytest.mark.parametrize("kind", ["units", "C2xC2", "S3", "D6"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_layout_matches_fraction_reference(kind, data):
    # S3 and D6 are non-abelian, so a product taken in the wrong order fails
    if kind == "units":
        group = unit_group(data.draw(st.integers(1, 60)))
    else:
        group = {"C2xC2": FiniteAbelianGroup((2, 2)), "S3": symmetric3(),
                 "D6": D6}[kind]
    rx, ry = data.draw(_ref_elements(group)), data.draw(_ref_elements(group))
    x, y = GroupRingElement(group, rx), GroupRingElement(group, ry)
    rx, ry = _ref_clean(rx), _ref_clean(ry)
    q = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    assert _as_ref(x) == rx
    assert _as_ref(x + y) == _ref_add(rx, ry)
    assert _as_ref(x - y) == _ref_add(rx, ry, -1)
    assert _as_ref(-x) == _ref_add({}, rx, -1)
    assert _as_ref(x.scale(q)) == _ref_clean({g: q * c for g, c in rx.items()})
    assert x * q == q * x == x.scale(q)  # a scalar on either side
    assert _as_ref(x * y) == _ref_mul(group, rx, ry)
    assert _as_ref(y * x) == _ref_mul(group, ry, rx)
    assert _as_ref(x.tau()) == {group.inv(g): c for g, c in rx.items()}
    assert x.is_zero() == (not rx)
    square = lambda g: group.op(g, g)  # a set map that is not injective
    assert _as_ref(map_elements(x, group, square)) == _ref_push(rx, square)
    if kind in ("units", "C2xC2"):
        comps = {chi: psi_eval(x, chi) for chi in group.characters()}
        assert all(v == _ref_psi(rx, chi) for chi, v in comps.items())
        assert lambda_assemble(group, comps.__getitem__) == x


def test_det_of_1x1_inverts_nothing(monkeypatch):
    # a 1 x 1 determinant is its entry, and Bareiss divides step c by the
    # pivot of step c - 1, so the 2 x 2 determinants of the induced-det
    # suite invert nothing either, and a 3 x 3 one inverts one pivot per
    # Galois orbit of characters: three on C4, with characters of orders 1,
    # 2, 4 and 4
    calls = []
    inverse = CyclotomicNumber.inverse
    monkeypatch.setattr(CyclotomicNumber, "inverse",
                        lambda self: calls.append(1) or inverse(self))
    x = elem(C4, ((1,), 1), ((0,), 2))
    assert det_over_group_ring([[x]]) == x
    assert calls == []
    one, g = GroupRingElement.one(C4), GroupRingElement.basis(C4, (1,))
    zero = _zero(C4)
    assert det_over_group_ring([[one, g], [g, one]]) == one - g * g
    assert calls == []
    # the second pivot 1 - chi(g)^2 vanishes at chi(g) = +-1: a row swap
    M = [[one, g, zero], [g, one, g], [zero, g, one]]
    assert det_over_group_ring(M) == one - (g * g).scale(2)
    assert len(calls) == 3


def test_det_of_2x2_builds_no_cyclotomic_number(monkeypatch):
    # a 2 x 2 determinant runs on numerator rows from its entries to the
    # assembly, so it builds no CyclotomicNumber at any character
    made = []
    make = cyclotomic._make
    monkeypatch.setattr(cyclotomic, "_make",
                        lambda *args: made.append(1) or make(*args))
    one, g = GroupRingElement.one(C6), GroupRingElement.basis(C6, (1,))
    M = [[one + g, g.scale(Fraction(1, 2))], [g * g, one - g.scale(3)]]
    got = det_over_group_ring(M)
    assert made == []
    assert got == det_leibniz(M)


def test_det_refuses_empty_and_mixed_matrices():
    with pytest.raises(ValueError, match="^empty matrix"):
        det_over_group_ring([])
    one2, one4 = GroupRingElement.one(C2), GroupRingElement.one(C4)
    for M in ([[one2, one4], [one4, one4]], [[one4, one4], [one4, one2]]):
        with pytest.raises(ValueError, match="entry lies outside Q"):
            det_over_group_ring(M)


def test_input_checks_survive_optimize_flag():
    # python -O strips asserts; each bad input must still raise ValueError.
    # FiniteGroup.index returns its argument, so the keys -1 and 6 of S3
    # would land in a valid slot without the membership check.  The last
    # group covers the stickelberger, brauer and ncideal input checks.
    script = """
from galideal.abelian import FiniteAbelianGroup, unit_group
from galideal.brauer import (bgstar, component_images, quotient_group,
                             subgroup_lattice, symmetric3)
from galideal.cycloideal import CyclotomicLevel
from galideal.groupring import (EmbeddingSignature, GroupRingElement,
                                det_over_group_ring, y_rank)
from galideal.lattice import unit_ideal
from galideal.ncideal import datum_integrality, nc_ideal, subgroup_datum
from galideal.padic import eigen_projection
from galideal.stickelberger import half_stickelberger
S3, c2, lev = symmetric3(), FiniteAbelianGroup((2,)), CyclotomicLevel(3, 1)
c4 = FiniteAbelianGroup((4,))
x = GroupRingElement.one(S3)
top = subgroup_lattice(S3)[-1]
order2 = next(r for r in subgroup_lattice(S3) if len(r.elements) == 2)
calls = {
    "key -1": lambda: GroupRingElement(S3, {-1: 1}),
    "key order": lambda: GroupRingElement(S3, {6: 1}),
    "zero at a non-element": lambda: GroupRingElement(S3, {6: 0}),
    "residue outside the units": lambda: GroupRingElement(unit_group(7), {7: 1}),
    "tuple outside C2": lambda: GroupRingElement(c2, {(2,): 1}),
    "basis -1": lambda: GroupRingElement.basis(S3, -1),
    "basis order": lambda: GroupRingElement.basis(S3, 6),
    "coefficient order": lambda: x.coefficient(6),
    "numerator count": lambda: GroupRingElement.from_numerators(S3, [1]),
    "det of a non-square matrix": lambda: det_over_group_ring([[x, x]]),
    "det of an empty matrix": lambda: det_over_group_ring([]),
    "det over a Cayley-table group": lambda: det_over_group_ring([[x]]),
    "det with an entry of another group": lambda: det_over_group_ring(
        [[GroupRingElement.one(c2)] * 2, [GroupRingElement.one(c4)] * 2]),
    "zero denominator": lambda: GroupRingElement.from_numerators(c2, [1, 0], 0),
    "y_rank positive twist": lambda: y_rank(EmbeddingSignature(0, 2, 1)),
    "y_rank negative r1": lambda: y_rank(EmbeddingSignature(-1, 2, 0)),
    "eigen_projection group": lambda: eigen_projection(
        lev, 1, GroupRingElement.one(c2)),
    "eigen_projection precision": lambda: eigen_projection(
        lev, 1, GroupRingElement.one(lev.group), precision=0),
    "half_stickelberger index 4": lambda: half_stickelberger(8),
    "half_stickelberger at ell = 1 mod 4": lambda: half_stickelberger(13),
    "quotient without the identity": lambda: quotient_group(S3, [3, 4]),
    "quotient by a non-normal subgroup": lambda: quotient_group(S3, [0, 1]),
    "component_images ambient": lambda: component_images(
        bgstar(S3), unit_ideal(S3)),
    "datum ell 2": lambda: datum_integrality(subgroup_datum(top, x, x, 2)),
    "datum over another group": lambda: nc_ideal(
        symmetric3(), [subgroup_datum(top, x, x, 3)]),
    "push outside the subgroup": lambda: order2.push(
        GroupRingElement.basis(S3, 3)),
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


def _pairwise_closure(G, seed):
    # the reference subgroup closure: the seed and the identity, closed by
    # multiplying every pair of the growing set in both orders
    cur = {G.identity} | set(seed)
    frontier = list(cur)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(cur):
                for c in (G.op(a, b), G.op(b, a)):
                    if c not in cur:
                        cur.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(cur)


def _generating_set_by_closure(G):
    # the reference: greedy in element order, each subgroup closed pairwise
    gens = []
    cur = frozenset([G.identity])
    for g in G.elements:
        if g not in cur:
            gens.append(g)
            cur = _pairwise_closure(G, cur | {g})
    return gens


def _closure_test_groups():
    S4 = from_cayley_text(
        (Path(__file__).parent / "golden" / "s4.txt").read_text(encoding="utf-8"))
    return ([make() for make in BUILTIN_GROUPS.values()] + [S4, D6, C2xC4]
            + [unit_group(m) for m in range(1, 61)])


def test_generating_set_matches_the_closure_reference():
    for G in _closure_test_groups():
        gens = generating_set(G)
        assert gens == _generating_set_by_closure(G), G
        assert _pairwise_closure(G, gens) == frozenset(G.elements), G
    assert generating_set(unit_group(2)) == []


def test_closure_matches_the_pairwise_reference():
    # seeds: nothing, every element alone, and random sets of two to four
    rng = random.Random(21)
    for G in _closure_test_groups():
        elems = list(G.elements)
        seeds = [[]] + [[g] for g in elems] + [
            rng.sample(elems, min(k, len(elems))) for k in (2, 3, 4) * 8]
        for seed in seeds:
            assert closure(G, seed) == _pairwise_closure(G, seed), (G, seed)
