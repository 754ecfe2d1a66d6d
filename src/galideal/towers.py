# The four natural maps between group rings of a tower of abelian groups
# (quotient, inclusion, fixed-point, corestriction), the induced-matrix
# determinant identity, and executable containment checks for the three
# functoriality propositions.
#
# A TowerDatum holds G = Gal(L/F), the quotient Q = Gal(K/F) and the
# projection on elements; the kernel N = Gal(L/K) is recovered from it.
#
# The fixed-point map is determined by cosets: lambda(zN) = (1 - e) + z e
# with e the averaging idempotent of N.  It is a unital ring homomorphism
# (cross terms vanish because e is central, for any normal N), and z e
# spreads 1/|N| over the coset zN, so no section is needed: lambda(sum a_q q)
# has (a_p(g) - [g in N] sum a_q) / |N| + [g = 1] sum a_q at g.
#
# The containment checks map Z[1/2]-module generators x of the source ideal
# and test each image against the target, a module, which is exact:
#   - pi is a surjective ring map: pi(J) is generated by the pi(x);
#   - e lambda(q) = z_q e for q in Q: e lambda(J) is generated by the
#     e lambda(x), and e J' is a G-module;
#   - iota is only Z[H]-linear: iota(J) is generated over H by the iota(t x),
#     t over coset representatives of G/H.

from fractions import Fraction
from typing import NamedTuple

from .abelian import left_cosets, unit_group
from .cyclotomic import CyclotomicNumber
from .groupring import (
    GroupRingElement,
    det_over_group_ring,
    generating_set,
    map_elements,
    psi_eval,
)
from .lattice import contains_element, element_vector, scale_by


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
        if G.order % Q.order:
            raise ValueError("order %d does not divide %d"
                             % (Q.order, G.order))
        if len({p(g) for g in G.elements}) != Q.order:
            raise ValueError("projection not surjective")
        # the g with p(g x) = p(g) p(x) for every x are closed under
        # products, so a generating set decides it; a surjective
        # homomorphism has a kernel of order |G| / |Q|
        if p(G.identity) != Q.identity or any(
                p(G.op(g, x)) != Q.op(p(g), p(x))
                for g in generating_set(G) for x in G.elements):
            raise ValueError("projection not a homomorphism")
        return self


def cyclotomic_tower(m_big, m_small):
    # (Z/m_big)^* -> (Z/m_small)^* by reduction; m_small | m_big makes it a
    # surjective homomorphism, so it needs no validate()
    if m_big % m_small:
        raise ValueError("modulus %d does not divide %d" % (m_small, m_big))
    return TowerDatum(unit_group(m_big), unit_group(m_small),
                      lambda a: a % m_small)


# --- quotient map pi ---

def _source(x, group):
    # pi, lambda and iota read x's numerators in group's element order
    if x.group != group:
        raise ValueError("an element of %r given to a map out of %r"
                         % (x.group, group))


def apply_quotient(tower, x):
    _source(x, tower.big)
    return map_elements(x, tower.quotient, tower.project)


# --- inclusion map phi ---

def induced_det_both_routes(subgroup, group, embed, M):
    # the two sides of phi(Det_{Q[H]} M) = Det_{Q[G]} (phi entrywise M):
    # the left side goes through H-characters, the right through
    # G-characters, so agreement exercises restriction-compatibility of the
    # whole determinant machinery
    # det_over_group_ring raises ValueError on a non-square M
    lhs = map_elements(det_over_group_ring(M), group, embed)
    induced = [[map_elements(x, group, embed) for x in row] for row in M]
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
    # the header's closed form, one pass over G: numerators over |N| den
    _source(x, tower.quotient)
    big, Q = tower.big, tower.quotient
    s, n = sum(x.nums), big.order // Q.order
    out = [x.nums[Q.index(q)] - s * (q == Q.identity)
           for q in map(tower.project, big.elements)]
    out[big.index(big.identity)] += n * s
    return GroupRingElement.from_numerators(big, out, n * x.den)


# --- corestriction iota ---

def apply_corestriction(x, subgroup, group, embed):
    # iota(g) = [G:H] g for g in H, 0 otherwise
    _source(x, group)
    index = group.order // subgroup.order
    image = {embed(h): h for h in subgroup.elements}
    out = [0] * subgroup.order
    for g, a in zip(x.group.elements, x.nums):
        if a and g in image:
            out[subgroup.index(image[g])] = index * a
    return GroupRingElement.from_numerators(subgroup, out, x.den)


def induced_character_sum(x, group, subgroup, embed, eta):
    # psi-evaluation of x at the induced character Ind eta: the sum of the
    # components of x at every chi restricting to eta on H
    return sum((psi_eval(x, chi) for chi in group.characters()
                if all(chi(embed(h)) == eta(h) for h in subgroup.elements)),
               CyclotomicNumber.zero())


# --- proposition checks ---

class ContainmentReport(NamedTuple):
    passed: bool
    witness: object   # image vector of the first failing generator, or None


def _containment(images, target):
    # the first image outside the target ideal is the witness
    for y in images:
        if not contains_element(target, y.group, y):
            return ContainmentReport(False, element_vector(y.group, y))
    return ContainmentReport(True, None)


def check_quotient_containment(tower, gens_big, ideal_small):
    # pi(J_L) is contained in J_K; gens_big generate J_L
    return _containment((apply_quotient(tower, x) for x in gens_big),
                        ideal_small)


def check_fixed_point_containment(tower, gens_small, ideal_big):
    # lambda(J_K) lands in (1-e)Q[G] + e J_L; since the first summand is a
    # full subspace, this is equivalent to e * lambda(J_K) inside e * J_L;
    # gens_small generate J_K
    e = kernel_idempotent(tower)
    return _containment((e * apply_fixed_point(tower, x) for x in gens_small),
                        scale_by(ideal_big, tower.big, e))


def check_corestriction_containment(subgroup, group, embed, gens, ideal_sub):
    # iota(J over G) is contained in J over H; gens generate J over G
    sub = [embed(h) for h in subgroup.elements]
    reps = left_cosets(group.elements, group.op, sub)[0]
    return _containment((
        apply_corestriction(GroupRingElement.basis(group, t) * x,
                            subgroup, group, embed)
        for x in gens for t in reps), ideal_sub)
