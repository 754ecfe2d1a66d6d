import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from galideal.abelian import (FiniteAbelianGroup, ResidueGroup,
                              squares_subgroup, unit_group)
from galideal.brauer import dihedral4, quotient_group, symmetric3
from galideal.cycloideal import plus_tower
from galideal.dirichlet import PlaceSet
from galideal.groupring import GroupRingElement, map_elements, psi_eval
from galideal.lattice import (compare, contains_vector, element_vector,
                              from_generators, group_labels, map_image,
                              scale_by, unit_ideal)
from galideal.stickelberger import stickelberger
from galideal.suites import theta
from galideal.towers import (
    TowerDatum,
    apply_corestriction,
    apply_fixed_point,
    apply_quotient,
    check_corestriction_containment,
    check_fixed_point_containment,
    check_quotient_containment,
    coset_section,
    cyclotomic_tower,
    induced_character_sum,
    induced_det_both_routes,
    kernel_idempotent,
)


# The dense route the containment checks replaced, kept as their reference:
# the matrix of each map on the element bases, the image of the whole
# source lattice, and a comparison of canonical lattices.

def _matrix_of(f, src, dst):
    # matrix of a linear map f: Q[src] -> Q[dst] on the element bases
    cols = [element_vector(dst, f(GroupRingElement.basis(src, g)))
            for g in src.elements]
    return [list(row) for row in zip(*cols)]


def quotient_matrix(tower):
    return _matrix_of(lambda x: apply_quotient(tower, x),
                      tower.big, tower.quotient)


def fixed_point_matrix(tower):
    return _matrix_of(lambda x: apply_fixed_point(tower, x),
                      tower.quotient, tower.big)


def corestriction_matrix(subgroup, group, embed):
    return _matrix_of(lambda x: apply_corestriction(x, subgroup, group, embed),
                      group, subgroup)


def _contained(image, target):
    return compare(image, target) in ("equal", "subset")


C2 = FiniteAbelianGroup((2,))
C4 = FiniteAbelianGroup((4,))
C3 = FiniteAbelianGroup((3,))
C6 = FiniteAbelianGroup((6,))


def c4_over_c2():
    return TowerDatum(C4, C2, lambda e: (e[0] % 2,)).validate()


def test_quotient_map_c4():
    t = c4_over_c2()
    z = GroupRingElement.basis(C4, (1,))
    z2 = GroupRingElement.basis(C4, (2,))
    assert apply_quotient(t, z) == GroupRingElement.basis(C2, (1,))
    assert apply_quotient(t, z2) == GroupRingElement.one(C2)
    # ring homomorphism on a random-ish element
    x = GroupRingElement(C4, {(0,): 2, (1,): Fraction(1, 3)})
    y = GroupRingElement(C4, {(3,): 1, (2,): -1})
    assert apply_quotient(t, x * y) == apply_quotient(t, x) * apply_quotient(t, y)


def test_reduction_towers_need_no_validation():
    # cyclotomic_tower skips validate(): reduction mod m_small is a
    # surjective homomorphism whenever m_small | m_big, as the walk confirms
    # at prime powers, mixed moduli and the trivial quotient
    for big, small in ((9, 3), (27, 3), (8, 2), (16, 4), (12, 4), (15, 5),
                       (24, 8), (60, 12), (7, 1)):
        t = cyclotomic_tower(big, small)
        assert t.validate() is t, (big, small)


def test_quotient_carries_stickelberger_down():
    # the distribution relation: with S = {ell} at both levels,
    # pi(theta_big) = theta_small exactly, for levels 1-3 and r = 0, -1, -2
    for ell in [3, 5, 7]:
        s = PlaceSet([ell])
        for level in [1, 2, 3]:
            big, small = ell ** (level + 1), ell ** level
            t = cyclotomic_tower(big, small)
            for r in [0, -1, -2]:
                assert apply_quotient(t, stickelberger(big, s, r)) \
                    == stickelberger(small, s, r), (ell, level, r)


def test_quotient_of_unit_ideal():
    t = c4_over_c2()
    img = map_image(unit_ideal(C4), quotient_matrix(t), group_labels(C2))
    assert img == unit_ideal(C2)


def test_fixed_point_c4_example():
    t = c4_over_c2()
    zbar = GroupRingElement.basis(C2, (1,))
    lam = apply_fixed_point(t, zbar)
    expected = GroupRingElement(C4, {
        (0,): Fraction(1, 2), (1,): Fraction(1, 2),
        (2,): Fraction(-1, 2), (3,): Fraction(1, 2)})
    assert lam == expected
    assert apply_fixed_point(t, GroupRingElement.one(C2)) == GroupRingElement.one(C4)


def test_fixed_point_is_unital_ring_hom():
    t = TowerDatum(C6, C3, lambda e: (e[0] % 3,)).validate()
    import random

    rng = random.Random(11)
    for _ in range(25):
        x = GroupRingElement(C3, {g: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for g in C3.elements})
        y = GroupRingElement(C3, {g: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for g in C3.elements})
        assert apply_fixed_point(t, x * y) == \
            apply_fixed_point(t, x) * apply_fixed_point(t, y)
        assert apply_fixed_point(t, x + y) == \
            apply_fixed_point(t, x) + apply_fixed_point(t, y)


def test_fixed_point_character_description():
    # on basis elements q: the chi-component of lambda(q) is chi_1(q) when
    # chi inflates from the quotient (trivial on the kernel) and 1 otherwise
    t = TowerDatum(C6, C3, lambda e: (e[0] % 3,)).validate()
    ker = t.kernel
    for q in C3.elements:
        lam = apply_fixed_point(t, GroupRingElement.basis(C3, q))
        for chi in C6.characters():
            got = psi_eval(lam, chi)
            from galideal.cyclotomic import CyclotomicNumber

            if all(chi(k) == CyclotomicNumber.one() for k in ker):
                # chi = inflation of chi1 with chi1(qbar) = chi(any preimage)
                sec = coset_section(t)
                assert got == chi(sec[q])
            else:
                assert got == CyclotomicNumber.one()


def test_fixed_point_section_independence():
    t = TowerDatum(C6, C3, lambda e: (e[0] % 3,)).validate()
    # computing with an adversarial section must give the same map, since
    # z e depends only on the coset: emulate by translating the canonical
    # section by kernel elements
    e = kernel_idempotent(t)
    sec = coset_section(t)
    for q in C3.elements:
        for k in t.kernel:
            z1 = GroupRingElement.basis(C6, sec[q])
            z2 = GroupRingElement.basis(C6, C6.op(sec[q], k))
            assert z1 * e == z2 * e


def test_fixed_point_rebuilds_its_parts_for_another_tower():
    # C6/C3 and C6/C2 share their big group; alternating between them must
    # map each element by its own tower's kernel, never the other's
    towers = [TowerDatum(C6, C3, lambda e: (e[0] % 3,)).validate(),
              TowerDatum(C6, C2, lambda e: (e[0] % 2,)).validate()]
    for _ in range(2):
        for t in towers:
            e = kernel_idempotent(t)
            sec = coset_section(t)
            for q in t.quotient.elements:
                want = (GroupRingElement.one(C6) - e
                        + GroupRingElement.basis(C6, sec[q]) * e)
                assert apply_fixed_point(
                    t, GroupRingElement.basis(t.quotient, q)) == want


def fixed_point_by_products(tower, x):
    # the product form lambda(x) = (sum a_q)(1 - e) + z e, z the image of x
    # under the canonical section, as the reference for the one-pass map
    e = kernel_idempotent(tower)
    sec = coset_section(tower)
    z = map_elements(x, tower.big, sec.__getitem__)
    s = Fraction(sum(x.nums), x.den)
    return (GroupRingElement.one(tower.big) - e).scale(s) + z * e


def test_fixed_point_matches_the_product_form():
    # abelian towers (C6 over both of its quotients, residue towers) and the
    # Cayley-table towers of brauer.quotient_group, whose kernels are normal
    # but whose groups are not abelian: random elements with denominators,
    # zero and every basis element
    rng = random.Random(47)
    S3, D4 = symmetric3(), dihedral4()
    cases = [c4_over_c2(),
             TowerDatum(C6, C3, lambda e: (e[0] % 3,)).validate(),
             TowerDatum(C6, C2, lambda e: (e[0] % 2,)).validate(),
             plus_tower(7), cyclotomic_tower(25, 5),
             quotient_group(S3, [0, 3, 4]), quotient_group(D4, D4.center)]
    for t in cases:
        Q = t.quotient
        xs = [GroupRingElement(Q, {}), *(GroupRingElement.basis(Q, q)
                                         for q in Q.elements)]
        xs += [GroupRingElement(Q, {q: Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 6))
                                    for q in Q.elements}) for _ in range(6)]
        for x in xs:
            assert apply_fixed_point(t, x) == fixed_point_by_products(t, x), \
                (t.big, Q, x)


def test_tower_maps_refuse_an_element_of_another_group():
    # pi, lambda and iota read numerators by position, so an element of the
    # wrong group is refused with both groups named, not mapped to a wrong
    # answer or a KeyError
    calls = [
        (lambda: apply_quotient(cyclotomic_tower(25, 5), theta(3, 0)),
         r"ResidueGroup\(3, order 2\) given to a map out of "
         r"ResidueGroup\(25, order 20\)"),
        (lambda: apply_corestriction(theta(9, 0), squares_subgroup(7),
                                     unit_group(7), lambda a: a),
         r"ResidueGroup\(9, order 6\) given to a map out of "
         r"ResidueGroup\(7, order 6\)"),
        (lambda: apply_fixed_point(plus_tower(7), theta(7, 0)),
         r"ResidueGroup\(7, order 6\) given to a map out of "
         r"PlusQuotientGroup\(7, order 3\)"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match="^an element of " + message):
            call()


def test_fixed_point_fixture_compatibility():
    # for any unit fixture R_K with augmentation 1, setting R_L = lambda(R_K)
    # satisfies lambda(R_K) = (1 - e) + R_L e
    t = c4_over_c2()
    e = kernel_idempotent(t)
    one = GroupRingElement.one(C4)
    rk = GroupRingElement(C2, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    assert sum(rk.nums) == rk.den
    rl = apply_fixed_point(t, rk)
    assert rl == (one - e) + rl * e


def test_induced_det_examples():
    # 1 in C2
    triv = FiniteAbelianGroup(())
    lhs, rhs = induced_det_both_routes(
        triv, C2, lambda _: (0,), [[GroupRingElement(triv, {(): 2})]])
    assert lhs == rhs == GroupRingElement(C2, {(0,): 2})
    # C2 in C4, M = [[g]]
    H = C2
    embed = lambda h: (2 * h[0] % 4,)
    g = GroupRingElement.basis(H, (1,))
    lhs, rhs = induced_det_both_routes(H, C4, embed, [[g]])
    assert lhs == rhs == GroupRingElement.basis(C4, (2,))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_induced_det_random(data):
    cases = [
        (FiniteAbelianGroup(()), C2, lambda _: (0,)),
        (C2, C4, lambda h: (2 * h[0] % 4,)),
        (C3, C6, lambda h: (2 * h[0] % 6,)),
        (C2, FiniteAbelianGroup((2, 2)), lambda h: (h[0], 0)),
    ]
    H, G, embed = data.draw(st.sampled_from(cases))
    n = data.draw(st.integers(1, 2))
    frac = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    M = [[GroupRingElement(H, {h: data.draw(frac) for h in H.elements})
          for _ in range(n)] for _ in range(n)]
    lhs, rhs = induced_det_both_routes(H, G, embed, M)
    assert lhs == rhs


def test_corestriction_examples():
    embed = lambda h: (2 * h[0] % 4,)
    z2 = GroupRingElement.basis(C4, (2,))
    z = GroupRingElement.basis(C4, (1,))
    one = GroupRingElement.one(C4)
    got = apply_corestriction(z2, C2, C4, embed)
    assert got == GroupRingElement(C2, {(1,): 2})
    assert apply_corestriction(z, C2, C4, embed).is_zero()
    assert apply_corestriction(one, C2, C4, embed) == \
        GroupRingElement(C2, {(0,): 2})


def test_corestriction_duality():
    # component of iota(x) at eta = sum of components of x at characters
    # restricting to eta
    import random

    rng = random.Random(5)
    cases = [
        (C2, C4, lambda h: (2 * h[0] % 4,)),
        (squares_subgroup(7), unit_group(7), lambda a: a),
        (C2, FiniteAbelianGroup((2, 4)), lambda h: (0, 2 * h[0] % 4)),
    ]
    for H, G, embed in cases:
        x = GroupRingElement(G, {g: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                 for g in G.elements})
        iota = apply_corestriction(x, H, G, embed)
        for eta in H.characters():
            lhs = psi_eval(iota, eta)
            rhs = induced_character_sum(x, G, H, embed, eta)
            assert lhs == rhs


def test_corestriction_h_linearity():
    # iota(phi(h) x) = h iota(x)
    embed = lambda h: (2 * h[0] % 4,)
    x = GroupRingElement(C4, {(0,): 1, (1,): 2, (3,): Fraction(1, 2)})
    for h in C2.elements:
        hx = GroupRingElement.basis(C4, embed(h)) * x
        lhs = apply_corestriction(hx, C2, C4, embed)
        rhs = GroupRingElement.basis(C2, h) * apply_corestriction(x, C2, C4, embed)
        assert lhs == rhs


def test_negative_control_corrupted_target():
    # shrink the target by 3: containment must fail with a witness
    s = PlaceSet([3])
    t = cyclotomic_tower(9, 3)
    g3 = unit_group(3)
    top = [stickelberger(9, s, 0)]
    good = from_generators(g3, [stickelberger(3, s, 0)])
    bad = from_generators(g3, [stickelberger(3, s, 0).scale(3)])
    ok = check_quotient_containment(t, top, good)
    assert ok.passed and ok.witness is None
    broken = check_quotient_containment(t, top, bad)
    assert not broken.passed
    # the witness is the image of the failing generator
    assert broken.witness == element_vector(g3, apply_quotient(t, top[0]))


@pytest.mark.parametrize("big, quotient, project, message", [
    (C4, C3, lambda e: (e[0] % 3,), "order 3 does not divide 4"),
    (C4, C2, lambda e: (0,), "projection not surjective"),
    (C4, C2, lambda e: (int(e == (1,)),), "projection not a homomorphism"),
    # a homomorphism on the first eight elements, but not at 15
    (FiniteAbelianGroup((16,)), C2, lambda e: (e[0] % 2 if e[0] < 15 else 0,),
     "projection not a homomorphism"),
    # the right kernel, but p(15 + 1) = 0 while p(15) + p(1) = 2
    (FiniteAbelianGroup((16,)), C4,
     lambda e: (1,) if e == (15,) else (e[0] % 4,),
     "projection not a homomorphism"),
])
def test_tower_datum_refuses_a_non_quotient(big, quotient, project, message):
    with pytest.raises(ValueError, match=message):
        TowerDatum(big, quotient, project).validate()


def test_identity_tower_trivial():
    t = TowerDatum(C4, C4, lambda e: e).validate()
    x = GroupRingElement(C4, {(1,): Fraction(5, 3)})
    assert apply_quotient(t, x) == x
    assert apply_fixed_point(t, x) == x
    assert apply_corestriction(x, C4, C4, lambda e: e) == x


# --- the generator checks against the dense reference ---

def _small_towers():
    # (name, tower, kernel as a group, its embedding into the top group)
    C4_C2 = TowerDatum(C4, C2, lambda e: (e[0] % 2,)).validate()
    C6_C3 = TowerDatum(C6, C3, lambda e: (e[0] % 3,)).validate()
    return [
        ("C4/C2", C4_C2, C2, lambda h: (2 * h[0] % 4,)),
        ("C6/C3", C6_C3, C2, lambda h: (3 * h[0] % 6,)),
        ("plus 5", plus_tower(5), ResidueGroup(5, [1, 4]), lambda a: a),
        ("plus 7", plus_tower(7), ResidueGroup(7, [1, 6]), lambda a: a),
        ("9->3", cyclotomic_tower(9, 3), ResidueGroup(9, [1, 4, 7]),
         lambda a: a),
        ("25->5", cyclotomic_tower(25, 5),
         ResidueGroup(25, [1, 6, 11, 16, 21]), lambda a: a),
    ]


TOWERS = _small_towers()

# the quotient check needs no characters, so it also runs on Cayley-table
# groups, towers built by brauer.quotient_group
QUOTIENT_TOWERS = [t for _, t, _, _ in TOWERS] + [
    quotient_group(symmetric3(), [0, 3, 4]),
    quotient_group(dihedral4(), dihedral4().center),
]


def _draw_elements(data, group):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return [GroupRingElement(group, {g: data.draw(coeff)
                                     for g in group.elements})
            for _ in range(data.draw(st.integers(1, 2)))]


def _draw_target(data, group, images):
    # the module generated by the images, or perturbed: every image scaled
    # by 3, or one image dropped
    how = data.draw(st.sampled_from(["same", "scaled", "dropped"]))
    if how == "scaled":
        images = [y.scale(3) for y in images]
    elif how == "dropped":
        images = list(images)
        del images[data.draw(st.integers(0, len(images) - 1))]
    return from_generators(group, images)


def _agrees(report, reference, image, target):
    event("contained" if reference else "not contained")
    assert report.passed == reference
    if report.passed:
        assert report.witness is None
    else:
        # a failure carries an image vector outside the target
        assert contains_vector(image, report.witness)
        assert not contains_vector(target, report.witness)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_check_matches_matrix_route(data):
    t = data.draw(st.sampled_from(QUOTIENT_TOWERS))
    gens = _draw_elements(data, t.big)
    image = map_image(from_generators(t.big, gens), quotient_matrix(t),
                      group_labels(t.quotient))
    target = _draw_target(data, t.quotient,
                          [apply_quotient(t, x) for x in gens])
    _agrees(check_quotient_containment(t, gens, target),
            _contained(image, target), image, target)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fixed_point_check_matches_matrix_route(data):
    _, t, _, _ = data.draw(st.sampled_from(TOWERS))
    e = kernel_idempotent(t)
    gens = _draw_elements(data, t.quotient)
    lam = map_image(from_generators(t.quotient, gens), fixed_point_matrix(t),
                    group_labels(t.big))
    target = _draw_target(data, t.big,
                          [apply_fixed_point(t, x) for x in gens])
    image, e_target = scale_by(lam, t.big, e), scale_by(target, t.big, e)
    _agrees(check_fixed_point_containment(t, gens, target),
            _contained(image, e_target), image, e_target)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_corestriction_check_matches_matrix_route(data):
    _, t, H, embed = data.draw(st.sampled_from(TOWERS))
    G = t.big
    gens = _draw_elements(data, G)
    image = map_image(from_generators(G, gens),
                      corestriction_matrix(H, G, embed), group_labels(H))
    target = _draw_target(data, H, [
        apply_corestriction(GroupRingElement.basis(G, g) * x, H, G, embed)
        for x in gens for g in G.elements])
    _agrees(check_corestriction_containment(H, G, embed, gens, target),
            _contained(image, target), image, target)
