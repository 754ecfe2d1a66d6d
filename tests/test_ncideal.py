# Left ideals built from per-subgroup annihilator data: lift mechanics,
# conjugation covariance vs two-sidedness, and behaviour under quotients.

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galideal.brauer import (cyclic_group, from_group, quotient_group,
                             subgroup_lattice, symmetric3)
from galideal.cycloideal import CyclotomicLevel, ideal_J_minus
from galideal.groupring import GroupRingElement, map_elements
from galideal.lattice import (compare, contains_element, from_generators,
                              group_labels, ideal_elements, map_image)
from galideal.ncideal import (IntegralityError,
                              covariant_data, datum_generator,
                              datum_integrality, lift_z, nc_ideal,
                              norm_element, quotient_check, quotient_data,
                              subgroup_datum, two_sided_check)
from galideal.padic import torsion_annihilator, valuation
from galideal.stickelberger import ramified_places, stickelberger

F = Fraction


def wrapped_level(m):
    # the cyclotomic Galois group re-presented as a Cayley table, with a
    # transporter for its group-ring elements
    lev = CyclotomicLevel(*_split(m))
    G = from_group(lev.group)
    move = lambda x: map_elements(x, G, lev.group.index)
    return lev, G, move


def _split(m):
    for ell in (3, 5, 7, 11):
        n = 0
        mm = m
        while mm % ell == 0:
            mm //= ell
            n += 1
        if mm == 1:
            return ell, n - 1
    raise ValueError(m)


def s3_transposition_datum(ell=3):
    # component e + (12) with trivial annihilator on the subgroup {e,(12)}
    G = symmetric3()
    records = subgroup_lattice(G)
    rec = records[1]
    assert rec.elements == (0, 2)
    alpha = GroupRingElement(G, {0: F(1), 2: F(1)})
    beta = GroupRingElement.one(G)
    return G, records, subgroup_datum(rec, alpha, beta, ell)


def test_subgroup_datum_pushes_to_abelianization():
    G, records, d = s3_transposition_datum()
    assert d.record.ab.labels == ("e", "(12)")
    assert d.alpha == GroupRingElement(d.record.ab, {0: F(1), 1: F(1)})
    assert d.beta == GroupRingElement(d.record.ab, {0: F(1)})
    assert d.ell == 3


def test_datum_integrality():
    G = symmetric3()
    rec = subgroup_lattice(G)[-1]
    one = GroupRingElement.one(G)
    ok, worst, witness = datum_integrality(subgroup_datum(rec, one, one, 3))
    assert (ok, worst, witness) == (True, 0, "")
    # a non-integral annihilator is rejected before the product is formed
    bad = subgroup_datum(rec, one, one.scale(F(1, 3)), 3)
    assert datum_integrality(bad) == (False, -1, "e")
    # an integral annihilator with a non-integral product
    bad2 = subgroup_datum(rec, one.scale(F(1, 9)), one.scale(3), 3)
    assert datum_integrality(bad2) == (False, -1, "e")


def test_lift_z_places_coefficients_on_smallest_labels():
    G = symmetric3()
    rec = subgroup_lattice(G)[-1]
    one = GroupRingElement.one(G)
    d = subgroup_datum(rec, one, one, 3)
    # the trivial coset is {e, (123), (132)}; "(123)" sorts first
    assert lift_z(d) == GroupRingElement.basis(G, 3)


def test_lift_z_rejects_non_integral_products():
    G = symmetric3()
    rec = subgroup_lattice(G)[-1]
    one = GroupRingElement.one(G)
    d = subgroup_datum(rec, one, one.scale(F(1, 3)), 3)
    with pytest.raises(IntegralityError, match="not 3-integral"):
        lift_z(d)


def test_norm_element_sums_the_commutator_subgroup():
    G = symmetric3()
    rec = subgroup_lattice(G)[-1]
    assert norm_element(rec) == GroupRingElement(
        G, {0: F(1), 3: F(1), 4: F(1)})


def test_generator_is_lift_independent():
    G = symmetric3()
    rec = subgroup_lattice(G)[-1]
    alpha = GroupRingElement(G, {0: F(1), 1: F(2)})
    d = subgroup_datum(rec, alpha, GroupRingElement.one(G), 3)
    default = datum_generator(d)
    # other lifts of alpha*beta: a random member of each coset, and the
    # largest-label one, which differs from lift_z's
    rng = random.Random(11)
    for reps in ([rng.choice(sorted(coset)) for coset in rec.cosets],
                 [max(coset, key=G.label) for coset in rec.cosets]):
        lift = map_elements(d.alpha * d.beta, G, reps.__getitem__)
        assert norm_element(rec) * lift == default
    assert lift != lift_z(d)


def test_single_subgroup_datum_is_not_two_sided():
    G, records, d = s3_transposition_datum()
    I = nc_ideal(G, [d])
    assert I.generators == (GroupRingElement(G, {0: F(1), 2: F(1)}),)
    assert I.lattice.rank == 3
    report = two_sided_check(I)
    assert not report.passed
    assert report.witness == ("(23)", 0)


def test_covariant_family_is_two_sided():
    G, records, d = s3_transposition_datum()
    data = covariant_data(records, [d])
    assert len(data) == 3
    assert sorted(x.record.elements for x in data) == [(0, 1), (0, 2), (0, 5)]
    I = nc_ideal(G, data)
    report = two_sided_check(I)
    assert report.passed and report.witness == ()


def _conjugation_check(I):
    # the reference: every conjugate w x w^-1 of every generator x, formed
    # as two products in Q[G], in the order two_sided_check walks them
    G = I.group
    for t, x in enumerate(I.generators):
        for w in G.elements:
            conj = (GroupRingElement.basis(G, w) * x
                    * GroupRingElement.basis(G, G.inv(w)))
            if not contains_element(I.lattice, G, conj):
                return False, (G.label(w), t)
    return True, ()


def test_right_translation_matches_the_conjugation_form():
    # the nc-ideal suite's ideals: the S3 control that fails, its covariant
    # completion, the full-subgroup datum of S3 and the C9 Stickelberger
    # data; one verdict and one witness by either test
    G, records, d = s3_transposition_datum()
    full = subgroup_datum(records[-1], GroupRingElement(G, {0: F(1), 1: F(2)}),
                          GroupRingElement.one(G), 3)
    lev, G9, move = wrapped_level(9)
    theta = stickelberger(9, ramified_places(9), -1)
    rec9 = subgroup_lattice(G9)[-1]
    data9 = [subgroup_datum(rec9, move(theta), move(b), 3)
             for b in torsion_annihilator(9, 3, -1).generators]
    ideals = [nc_ideal(G, [d]), nc_ideal(G, covariant_data(records, [d])),
              nc_ideal(G, [full]), nc_ideal(G9, data9)]
    verdicts = [tuple(two_sided_check(I)) for I in ideals]
    assert verdicts == [_conjugation_check(I) for I in ideals]
    assert verdicts[0] == (False, ("(23)", 0))
    assert all(passed for passed, _ in verdicts[1:])


def test_nc_ideal_is_left_closed():
    G, records, d = s3_transposition_datum()
    I = nc_ideal(G, [d])
    for gen in I.generators:
        for w in G.elements:
            shifted = GroupRingElement.basis(G, w) * gen
            assert contains_element(I.lattice, G, shifted)


def test_nc_ideal_rejects_foreign_data():
    G, records, d = s3_transposition_datum()
    other = symmetric3()
    with pytest.raises(ValueError, match="different group"):
        nc_ideal(other, [d])


def test_empty_data_gives_the_zero_ideal():
    G = symmetric3()
    I = nc_ideal(G, [])
    assert I.lattice.is_zero()
    assert two_sided_check(I).passed


def test_abelian_case_recovers_the_ideal_times_annihilator():
    # over (Z/3)^* with the full subgroup, the construction collapses to
    # the product of the minus ideal with the torsion annihilator ideal
    lev, G, move = wrapped_level(3)
    rec = subgroup_lattice(G)[-1]
    theta = stickelberger(3, ramified_places(3), -1)
    ann = torsion_annihilator(3, 3, -1)
    data = [subgroup_datum(rec, move(theta), move(b), 3)
            for b in ann.generators]
    I = nc_ideal(G, data)
    assert two_sided_check(I).passed
    # the module product: the span of the pairwise products of generators
    prod = from_generators(lev.group, [
        x * y for x in ideal_elements(ideal_J_minus(lev, -1), lev.group)
        for y in ideal_elements(ann.ideal, lev.group)])
    assert I.lattice.columns == prod.columns
    assert I.lattice.denominator == prod.denominator


def test_generator_integrality_sweep():
    # annihilator-times-component generators stay ell-integral
    for m, ell in ((3, 3), (9, 3), (5, 5), (7, 7)):
        for r in (-1, -2):
            lev, G, move = wrapped_level(m)
            rec = subgroup_lattice(G)[-1]
            theta = stickelberger(m, ramified_places(m), r)
            ann = torsion_annihilator(m, ell, r)
            data = [subgroup_datum(rec, move(theta), move(b), ell)
                    for b in ann.generators]
            for t, d in enumerate(data):
                ok, worst, witness = datum_integrality(d)
                assert ok, (m, ell, r, t, worst, witness)
            for gen in nc_ideal(G, data).generators:
                assert all(valuation(c, ell) >= 0
                           for c in map(gen.coefficient, G.elements) if c)


def test_quotient_data_structure():
    G, records, d = s3_transposition_datum()
    tower = quotient_group(G, [0, 3, 4])
    small = quotient_data([d], tower)
    assert len(small) == 1
    assert small[0].record.group is tower.quotient
    # the image subgroup of {e, (12)} is all of the order-2 quotient
    assert small[0].record.elements == (0, 1)
    assert small[0].alpha == GroupRingElement(
        small[0].record.ab, {0: F(1), 1: F(1)})


def test_quotient_check_stickelberger_level_drop():
    # data over (Z/9)^* from theta(-1) and the torsion annihilator,
    # pushed through the quotient onto (Z/3)^*
    lev9, G9, move9 = wrapped_level(9)
    rec9 = subgroup_lattice(G9)[-1]
    theta9 = stickelberger(9, ramified_places(9), -1)
    ann9 = torsion_annihilator(9, 3, -1)
    data9 = [subgroup_datum(rec9, move9(theta9), move9(b), 3)
             for b in ann9.generators]
    normal = [lev9.group.index(a) for a in (1, 4, 7)]
    tower = quotient_group(G9, normal)
    data3 = quotient_data(data9, tower)
    report = quotient_check(tower, data9, data3)
    assert report.compatible and report.contained and report.passed


def test_quotient_check_s3_mod_a3():
    G = symmetric3()
    rec = subgroup_lattice(G)[-1]
    alpha = GroupRingElement(G, {0: F(1), 1: F(2)})
    d = subgroup_datum(rec, alpha, GroupRingElement.one(G), 3)
    tower = quotient_group(G, [0, 3, 4])
    small = quotient_data([d], tower)
    report = quotient_check(tower, [d], small)
    assert report.passed


def test_quotient_check_flags_incompatible_data():
    G = symmetric3()
    rec = subgroup_lattice(G)[-1]
    alpha = GroupRingElement(G, {0: F(1), 1: F(2)})
    d = subgroup_datum(rec, alpha, GroupRingElement.one(G), 3)
    tower = quotient_group(G, [0, 3, 4])
    small = quotient_data([d], tower)
    corrupted = [small[0]._replace(beta=small[0].beta.scale(5))]
    report = quotient_check(tower, [d], corrupted)
    assert not report.compatible
    assert report.witness == ("incompatible datum", 0)
    assert not report.passed


def test_quotient_check_flags_an_escaping_image():
    # the image of the big ideal is 3 times the quotient ideal (the A3 norm
    # maps to 3); scaling the quotient datum by 5 shrinks the quotient ideal
    # to 5 times itself (5 is odd), so the image escapes it.  The verdict
    # agrees with the image lattice built by map_image
    G = symmetric3()
    rec = subgroup_lattice(G)[-1]
    alpha = GroupRingElement(G, {0: F(1), 1: F(2)})
    d = subgroup_datum(rec, alpha, GroupRingElement.one(G), 3)
    tower = quotient_group(G, [0, 3, 4])
    Q = tower.quotient
    small = quotient_data([d], tower)
    scaled = [small[0]._replace(alpha=small[0].alpha.scale(5))]
    report = quotient_check(tower, [d], scaled)
    assert not report.compatible and not report.contained
    M = [[int(tower.project(g) == q) for g in G.elements] for q in Q.elements]
    image = map_image(nc_ideal(G, [d]).lattice, M, group_labels(Q))
    assert compare(image, nc_ideal(Q, scaled).lattice) == "incomparable"
    assert compare(image, nc_ideal(Q, small).lattice) in ("equal", "subset")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_abelian_group_ideals_are_always_two_sided(data):
    G = cyclic_group(6)
    records = subgroup_lattice(G)
    rec = records[data.draw(st.integers(0, len(records) - 1))]
    coeff = st.integers(-4, 4)
    pick = st.sampled_from(rec.elements)
    alpha = GroupRingElement(
        G, {g: F(c) for g, c in
            data.draw(st.dictionaries(pick, coeff, max_size=3)).items()})
    beta = GroupRingElement(
        G, {g: F(c) for g, c in
            data.draw(st.dictionaries(pick, coeff, max_size=3)).items()})
    d = subgroup_datum(rec, alpha, beta, 3)
    I = nc_ideal(G, [d])
    assert two_sided_check(I).passed
