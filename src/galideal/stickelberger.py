# Stickelberger elements at s = r <= 0, their half versions on an index-2
# subgroup, and the base-change element tying the two together through the
# imaginary quadratic subfield.
#
# Orientation convention, fixed project-wide: theta = sum_sigma zeta_S(r,
# sigma^{-1}) sigma.  The tau-flipped variant is reachable via .tau().
#
# theta has two independent construction routes, required to agree and kept
# as separate code paths on purpose:
#   (i)  Hurwitz/Bernoulli partial zetas over the ramified places, times the
#        Euler factor (1 - p^{-r} sigma_p^{-1}) of each p in S not dividing
#        m, removed in Q[G]: no character and no L-value is involved.  It
#        runs on integers: one integer polynomial in the class gives every
#        numerator over one denominator, and p^{-r} is an integer.  This is
#        the package's one Hurwitz evaluation of partial zeta values;
#   (ii) assembly of chi -> L_S(r, conj(chi)), one L-value per Galois orbit.

from .abelian import squares_subgroup, unit_group
from .cyclotomic import prime_divisors
from .dirichlet import (PlaceSet, horner, hurwitz_polynomial, is_prime,
                        l_value, l_value_exponents)
from .groupring import (GroupRingElement, assemble_orbits, lambda_assemble,
                        map_elements)


def ramified_places(m):
    return PlaceSet(prime_divisors(m))


def stickelberger(m, places, r=0):
    # theta = sum over residues a of zeta_S(r, sigma_a^{-1}) sigma_a, built
    # as theta_ram * prod over p in S, p not | m of (1 - p^{-r} sigma_p^{-1})
    if r > 0:
        raise ValueError("need r <= 0, got r = %d" % r)
    if not places.covers_modulus(m):
        raise ValueError("place set %r does not cover the modulus %d"
                         % (places, m))
    g = unit_group(m)
    elems, phi = g.elements, g.order
    # zeta(r, b/m) = Q(b) / den over the ramified places; nums holds the
    # numerators in the order of elems.  One Hurwitz value per pair {a, -a}:
    # B_n(1 - x) = (-1)^n B_n(x) gives zeta(r, -b) = (-1)^(1-r) zeta(r, b),
    # and each Euler factor below keeps that parity.  The units are
    # symmetric about m/2, so -elems[i] is elems[phi-1-i]; for m <= 2 the
    # pair is the one class a = -a
    coeffs, den = hurwitz_polynomial(r, m)
    sign = (-1) ** (1 - r)
    nums = [0] * phi
    for i in range((phi + 1) // 2):
        value = horner(coeffs, pow(elems[i], -1, m) or m)
        nums[phi - 1 - i] = sign * value
        nums[i] = value  # last, as phi - 1 - i is i for m <= 2
    for p in places.primes:
        if m % p:
            # zeta_{S u p}(r, b) = zeta_S(r, b) - p^{-r} zeta_S(r, b p^{-1})
            q = p ** -r
            nums = [x - q * nums[g.index(a * p % m)]
                    for x, a in zip(nums, elems)]
    return GroupRingElement.from_numerators(g, nums, den)


def stickelberger_by_characters(m, places, r=0):
    # independent route: the element whose chi-component is L_S(r, conj(chi)),
    # one L-value per Galois orbit of characters, as its exponent accumulator
    return assemble_orbits(unit_group(m), lambda chi: l_value_exponents(
        r, chi.conjugate(), places))


def complex_conjugation(m):
    return (-1) % m


def half_stickelberger(m):
    # theta-tilde = sum over sigma in H of zeta_S(0, sigma^{-1}) sigma, S the
    # primes dividing m, an element of Q[H] for H the squares in (Z/m)^*; H
    # must have index 2 and omit complex conjugation
    subgroup = squares_subgroup(m)
    g = unit_group(m)
    if 2 * subgroup.order != g.order:
        raise ValueError("subgroup index is %d, need 2"
                         % (g.order // subgroup.order))
    if complex_conjugation(m) in subgroup:
        raise ValueError("complex conjugation lies in the subgroup")
    theta = stickelberger(m, ramified_places(m), 0)
    return GroupRingElement(subgroup, {a: theta.coefficient(a)
                                       for a in subgroup.elements})


def include_subgroup(x, big_group):
    # Q[H] -> Q[G] along the inclusion of residues
    return map_elements(x, big_group, lambda a: a % big_group.modulus)


def quadratic_character(group):
    # the Legendre symbol of (Z/ell)^*, ell an odd prime: the group is
    # cyclic with coordinates Z/(ell - 1), and the tuple ((ell - 1)/2,)
    # sends its generator to -1
    return group.character(group.order // 2)


def even_extension(group, eta):
    # the even character psi of (Z/ell)^* restricting to eta on the squares
    # H, for ell = 3 (mod 4), where G = H x {+-1}.  The generator x of G is
    # no square, so -x is one and psi(x) = psi(-x) = eta(-x) = zeta_k^j for
    # k = |H|; psi therefore has the tuple (2j,), and 2j < 2k = ell - 1
    x = group.abelian_coordinates()[2][(1,)]
    return group.character(2 * eta.exponent(-x % group.modulus))


def require_imagquad_prime(ell):
    # the imaginary quadratic subfield is cut out by the quadratic character,
    # which is odd exactly when ell = 3 mod 4
    if ell % 4 != 3 or ell <= 3 or not is_prime(ell):
        raise ValueError("--ell: need a prime ell = 3 (mod 4), ell > 3; "
                         "got %d" % ell)


def base_change_element(ell):
    # B = sum over even psi of L_S(0, rho psi)^{-1} e_{psi|_H}, an element of
    # Q[H] for H the squares in (Z/ell)^*; rho is the quadratic character
    # (cutting out the imaginary quadratic subfield when ell = 3 mod 4).
    # Satisfies tau(B)^{-1} = 2 theta-tilde.
    require_imagquad_prime(ell)
    g = unit_group(ell)
    h = squares_subgroup(ell)
    places = PlaceSet([ell])
    rho = quadratic_character(g)
    return lambda_assemble(h, lambda eta: l_value(
        0, rho * even_extension(g, eta), places).inverse())
