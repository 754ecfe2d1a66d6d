# The group ring Q[G] of a finite abelian (and, for the plain ring
# operations, arbitrary finite) group, plus the character calculus:
#
#   psi_eval(x, chi)     Sigma c_g chi(g), the chi-component of x
#   lambda_assemble(...) the inverse of psi: given one value per character,
#                        the unique element with those components; raises if
#                        the values are not Galois-equivariant (detected as
#                        non-rational assembled coefficients)
#   det_over_group_ring  determinant via character-wise evaluation
#
# psi_eval and lambda_assemble read a character through its exponents
# (chi(g) = zeta_N^k): each sum is one integer accumulator reduced once
# (cyclotomic.RootSums), never a chain of cyclotomic products.
#
# Coefficients are Fractions.  Cyclotomic values live only as character
# components; a rational CyclotomicNumber given as a coefficient is stored as
# its Fraction, and an irrational one is refused.

from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import CyclotomicNumber, RootSums, root_sum

_ZERO = Fraction(0)


def _coerce(value):
    # a rational CyclotomicNumber becomes its Fraction; as_fraction raises
    # ValueError on an irrational one
    if isinstance(value, CyclotomicNumber):
        return value.as_fraction()
    return Fraction(value)


class GroupRingElement:
    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        clean = {}
        for g, c in coeffs.items():
            c = _coerce(c)
            if c != 0:
                clean[g] = c
        self.group = group
        self.coeffs = clean

    # --- constructors ---

    @staticmethod
    def zero(group):
        return GroupRingElement(group, {})

    @staticmethod
    def one(group):
        return GroupRingElement(group, {group.identity: 1})

    @staticmethod
    def basis(group, g):
        assert g in group._index if hasattr(group, "_index") else True
        return GroupRingElement(group, {g: 1})

    # --- basic access ---

    def coefficient(self, g):
        return self.coeffs.get(g, _ZERO)

    def is_zero(self):
        return not self.coeffs

    def augmentation(self):
        return sum(self.coeffs.values(), _ZERO)

    def _check(self, other):
        if self.group != other.group:
            raise ValueError("group mismatch: %r vs %r" % (self.group, other.group))

    # --- ring operations ---

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return GroupRingElement(self.group, out)

    def __neg__(self):
        return GroupRingElement(self.group, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = _coerce(scalar)
        return GroupRingElement(
            self.group, {g: scalar * c for g, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement):
            return self.scale(other)
        self._check(other)
        op = self.group.op
        out = {}
        for g, a in self.coeffs.items():
            for h, b in other.coeffs.items():
                k = op(g, h)
                v = a * b
                out[k] = out[k] + v if k in out else v
        return GroupRingElement(self.group, out)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __pow__(self, e):
        assert e >= 0
        result = GroupRingElement.one(self.group)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def tau(self):
        # the involution g -> g^-1, extended linearly
        inv = self.group.inv
        return GroupRingElement(
            self.group, {inv(g): c for g, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group == other.group and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("GroupRingElement is not hashable")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        label = self.group.label
        parts = ["(%s)%s" % (c, label(g))
                 for g, c in sorted(self.coeffs.items(), key=lambda t: self.group.index(t[0]))]
        return " + ".join(parts)


def psi_eval(x, chi):
    # the chi-component: Sigma_g c_g chi(g), a cyclotomic number, as c_g
    # rotated by the exponent of chi(g)
    return root_sum(chi.root_order,
                    [(chi.exponent(g), c) for g, c in x.coeffs.items()])


def lambda_assemble(group, h):
    # Inverse of psi_eval: builds the unique x with psi_eval(x, chi) = h(chi)
    # for every character chi.  h: callable on characters, or dict keyed by
    # them.  Raises ValueError when the assembled coefficients fail to be
    # rational, which is exactly failure of Galois equivariance of h.
    chars = group.characters()
    if isinstance(h, dict):
        values = [h[chi] for chi in chars]
    else:
        values = [h(chi) for chi in chars]
    # every character of the group takes values in mu_N, N its exponent
    sums = RootSums(chars[0].root_order, values)
    n = Fraction(1, group.order)
    coeffs = {}
    for g in group.elements:
        ginv = group.inv(g)
        total = sums([chi.exponent(ginv) for chi in chars])
        if not total.is_rational():
            raise ValueError(
                "character values are not Galois-equivariant: coefficient at %s "
                "came out irrational" % group.label(g))
        coeffs[g] = n * total.as_fraction()
    return GroupRingElement(group, coeffs)


def character_components(x):
    # dict: character -> psi_eval(x, character)
    return {chi: psi_eval(x, chi) for chi in x.group.characters()}


def invert_unit(x):
    # inverse in Q[G] via 1/psi on every character; ZeroDivisionError if some
    # component vanishes (x not a unit)
    comps = character_components(x)
    for chi, v in comps.items():
        if v.is_zero():
            raise ZeroDivisionError(
                "not a unit: character component %d vanishes" % chi.index)
    return lambda_assemble(x.group, {chi: v.inverse() for chi, v in comps.items()})


def _field_det(M):
    # determinant of a square matrix of CyclotomicNumbers, Gaussian elimination
    n = len(M)
    M = [row[:] for row in M]
    det = CyclotomicNumber.one()
    for c in range(n):
        piv = None
        for r in range(c, n):
            if not M[r][c].is_zero():
                piv = r
                break
        if piv is None:
            return CyclotomicNumber.zero()
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c]
        inv = M[c][c].inverse()
        for r in range(c + 1, n):
            if not M[r][c].is_zero():
                f = M[r][c] * inv
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return det


def det_over_group_ring(M):
    # determinant of a square matrix over Q[G], computed one character at a
    # time and reassembled; exact, and multiplicative by construction
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("non-square matrix")
    group = M[0][0].group
    values = {}
    for chi in group.characters():
        values[chi] = _field_det([[psi_eval(x, chi) for x in row] for row in M])
    return lambda_assemble(group, values)


def map_elements(x, target_group, f):
    # push x forward along g -> f(g); a ring homomorphism of group rings
    # whenever f is one of groups
    out = {}
    for g, c in x.coeffs.items():
        k = f(g)
        out[k] = out[k] + c if k in out else c
    return GroupRingElement(target_group, out)


class EmbeddingSignature(NamedTuple):
    r1: int          # real embeddings
    r2: int          # conjugate pairs of complex embeddings
    r: int           # twist, a non-positive integer


def y_rank(sig):
    # rank of the twisted plus-part: r2 when the twist is odd, r1 + r2 when
    # even (r = 0 counts as even)
    assert sig.r1 >= 0 and sig.r2 >= 0 and sig.r <= 0
    if sig.r % 2 != 0:
        return sig.r2
    return sig.r1 + sig.r2
