# The four natural maps between group rings of a tower of abelian groups
# (quotient, inclusion, fixed-point, corestriction), their matrices on the
# standard bases, the induced-matrix determinant identity, and executable
# containment checks for the three functoriality propositions.
#
# A TowerDatum holds G = Gal(L/F), the quotient Q = Gal(K/F) and the
# projection on elements; the kernel N = Gal(L/K) is recovered from it.
#
# The fixed-point map is determined by cosets: lambda(zN) = (1 - e) + z e
# with e the averaging idempotent of N.  It is a unital ring homomorphism
# (cross terms vanish because e is central), and the result is independent
# of the section because z e only depends on the coset zN.

from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import CyclotomicNumber
from .groupring import (
    GroupRingElement,
    det_over_group_ring,
    map_elements,
    psi_eval,
)
from .lattice import (
    compare,
    contains_vector,
    element_vector,
    group_labels,
    map_image,
    scale_by,
)


class TowerDatum(NamedTuple):
    big: object               # G
    quotient: object          # Q
    project: object           # callable G-element -> Q-element

    @property
    def kernel(self):
        q_id = self.quotient.identity
        return [g for g in self.big.elements if self.project(g) == q_id]

    def validate(self):
        G, Q, p = self.big, self.quotient, self.project
        assert G.order % Q.order == 0
        images = {p(g) for g in G.elements}
        assert len(images) == Q.order, "projection not surjective"
        for a in G.elements[: min(8, G.order)]:
            for b in G.elements[: min(8, G.order)]:
                assert p(G.op(a, b)) == Q.op(p(a), p(b)), "not a homomorphism"
        assert len(self.kernel) * Q.order == G.order
        return self


def cyclotomic_tower(m_big, m_small):
    # (Z/m_big)^* -> (Z/m_small)^* by reduction; m_small | m_big
    from .abelian import unit_group

    assert m_big % m_small == 0
    return TowerDatum(unit_group(m_big), unit_group(m_small),
                      lambda a: a % m_small).validate()


# --- quotient map pi ---

def apply_quotient(tower, x):
    return map_elements(x, tower.quotient, tower.project)


def quotient_matrix(tower):
    return _matrix_of(lambda x: apply_quotient(tower, x),
                      tower.big, tower.quotient)


def _matrix_of(f, src, dst):
    # matrix of a linear map f: Q[src] -> Q[dst] on the element bases
    cols = [element_vector(dst, f(GroupRingElement.basis(src, g)))
            for g in src.elements]
    return [list(row) for row in zip(*cols)]


# --- inclusion map phi ---

def apply_inclusion(x, group, embed):
    return map_elements(x, group, embed)


def induced_det_both_routes(subgroup, group, embed, M):
    # the two sides of phi(Det_{Q[H]} M) = Det_{Q[G]} (phi entrywise M):
    # the left side goes through H-characters, the right through
    # G-characters, so agreement exercises restriction-compatibility of the
    # whole determinant machinery
    # det_over_group_ring raises ValueError on a non-square M
    lhs = apply_inclusion(det_over_group_ring(M), group, embed)
    induced = [[apply_inclusion(x, group, embed) for x in row] for row in M]
    rhs = det_over_group_ring(induced)
    return lhs, rhs


# --- fixed-point map lambda ---

def kernel_idempotent(tower):
    ker = tower.kernel
    return GroupRingElement(
        tower.big, {g: Fraction(1, len(ker)) for g in ker})


def coset_section(tower):
    # canonical section Q -> G: the preimage with the smallest index (the
    # elements are in index order, so the first preimage written last wins)
    return {tower.project(g): g for g in reversed(tower.big.elements)}


def apply_fixed_point(tower, x):
    # lambda(sum a_q q) = (sum a_q)(1 - e) + (sum a_q z_q) e
    e = kernel_idempotent(tower)
    z = map_elements(x, tower.big, coset_section(tower).__getitem__)
    return (GroupRingElement.one(tower.big) - e).scale(x.augmentation()) + z * e


def fixed_point_matrix(tower):
    return _matrix_of(lambda x: apply_fixed_point(tower, x),
                      tower.quotient, tower.big)


# --- corestriction iota ---

def apply_corestriction(x, subgroup, group, embed):
    # iota(g) = [G:H] g for g in H, 0 otherwise
    index = group.order // subgroup.order
    image = {embed(h): h for h in subgroup.elements}
    out = [0] * subgroup.order
    for g, a in zip(x.group.elements, x.nums):
        if a and g in image:
            out[subgroup.index(image[g])] = index * a
    return GroupRingElement.from_numerators(subgroup, out, x.den)


def corestriction_matrix(subgroup, group, embed):
    return _matrix_of(lambda x: apply_corestriction(x, subgroup, group, embed),
                      group, subgroup)


def induced_character_sum(x, group, subgroup, embed, eta):
    # psi-evaluation of x at the induced character Ind eta: the sum of the
    # components of x at every chi restricting to eta on H
    return sum((psi_eval(x, chi) for chi in group.characters()
                if all(chi(embed(h)) == eta(h) for h in subgroup.elements)),
               CyclotomicNumber.zero())


# --- proposition checks ---

class ContainmentReport(NamedTuple):
    name: str
    passed: bool
    witness: object   # violating generator vector, or None


def _containment(name, image_ideal, target_ideal):
    verdict = compare(image_ideal, target_ideal)
    if verdict in ("equal", "subset"):
        return ContainmentReport(name, True, None)
    witness = next(v for v in image_ideal.vectors()
                   if not contains_vector(target_ideal, v))
    return ContainmentReport(name, False, witness)


def check_quotient_containment(tower, ideal_big, ideal_small):
    # pi(J_L) is contained in J_K
    img = map_image(ideal_big, quotient_matrix(tower),
                    group_labels(tower.quotient))
    return _containment("quotient:pi(J) in J'", img, ideal_small)


def check_fixed_point_containment(tower, ideal_small, ideal_big):
    # lambda(J_K) lands in (1-e)Q[G] + e J_L; since the first summand is a
    # full subspace, this is equivalent to e * lambda(J_K) inside e * J_L
    e = kernel_idempotent(tower)
    lam = map_image(ideal_small, fixed_point_matrix(tower),
                    group_labels(tower.big))
    lhs = scale_by(lam, tower.big, e)
    rhs = scale_by(ideal_big, tower.big, e)
    return _containment("fixed-point:e lambda(J) in e J'", lhs, rhs)


def check_corestriction_containment(subgroup, group, embed, ideal_big, ideal_sub):
    # iota(J over G) is contained in J over H
    img = map_image(ideal_big, corestriction_matrix(subgroup, group, embed),
                    group_labels(subgroup))
    return _containment("corestriction:iota(J) in J'", img, ideal_sub)
