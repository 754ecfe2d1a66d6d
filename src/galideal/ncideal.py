# Left ideals in a (possibly non-commutative) group algebra built from
# per-subgroup annihilator data.  A datum pairs a component over a
# subgroup's abelianization with an integral annihilator there; its
# generator is the commutator-subgroup norm times any lift of their
# product, and the norm factor makes the generator independent of the lift.
# When the data is conjugation-covariant the resulting left ideal is
# two-sided, and pushing it through a quotient map of groups lands inside
# the quotient-level ideal built from the pushed data.

from typing import NamedTuple

from .brauer import SubgroupRecord, conjugate_set, record_index
from .groupring import GroupRingElement, map_elements
from .lattice import (contains_element, element_vector, from_generators,
                      ideal_elements)
from .padic import valuation


class IntegralityError(ValueError):
    # the component-times-annihilator product fails to be integral at ell;
    # carries (label, valuation) of the worst coefficient
    pass


class AnnihilatorDatum(NamedTuple):
    record: object            # SubgroupRecord of the ambient group
    alpha: GroupRingElement   # over record.ab: the subgroup component
    beta: GroupRingElement    # over record.ab, ell-integral annihilator
    ell: int


def subgroup_datum(record, alpha, beta, ell):
    # build a datum from elements of the ambient group algebra supported
    # inside the subgroup, pushing both onto the abelianization
    return AnnihilatorDatum(record, record.push(alpha), record.push(beta), ell)


def _valuations(x, ell):
    # (label, ell-valuation) of each nonzero coefficient of x, in index order
    vden = valuation(x.den, ell)
    return [(x.group.label(g), valuation(a, ell) - vden)
            for g, a in zip(x.group.elements, x.nums) if a]


def datum_integrality(d):
    # (ok, worst valuation, witness label); the invariant under test is
    # that every coefficient of alpha*beta has non-negative ell-valuation
    if not (d.ell % 2 == 1 and d.ell > 2):
        raise ValueError("datum ell %r is not odd and above 2" % (d.ell,))
    for label, v in _valuations(d.beta, d.ell):
        if v < 0:
            return False, v, label
    worst, witness = 0, ""
    for label, v in _valuations(d.alpha * d.beta, d.ell):
        if v < worst:
            worst, witness = v, label
    return worst >= 0, worst, witness


def lift_z(d, chooser=None):
    # any preimage in the subgroup's algebra of alpha*beta under the
    # abelianization; the default places each coefficient on the
    # smallest-label element of its coset.  A chooser that leaves the coset
    # and non-integral products are surfaced as errors.
    ok, worst, witness = datum_integrality(d)
    if not ok:
        raise IntegralityError(
            "component-annihilator product is not %d-integral at %s "
            "(valuation %d)" % (d.ell, witness, worst))
    rec = d.record
    G = rec.group
    if chooser is None:
        chooser = lambda coset: min(coset, key=G.label)
    product = d.alpha * d.beta
    def lift(q):
        coset = sorted(rec.cosets[q])
        rep = chooser(coset)
        if rep not in rec.cosets[q]:
            raise ValueError("chooser picked %r, outside coset %d = %r"
                             % (rep, q, coset))
        return rep
    return map_elements(product, G, lift)


def norm_element(record):
    # the sum over the commutator subgroup, inside the ambient algebra
    G = record.group
    return GroupRingElement(G, {h: 1 for h in record.commutator})


def datum_generator(d, chooser=None):
    return norm_element(d.record) * lift_z(d, chooser)


class NCIdeal(NamedTuple):
    group: object
    generators: tuple     # the defining elements, one per datum
    lattice: object       # FractionalIdeal: the left span


def nc_ideal(G, data, chooser=None):
    # the left ideal generated by norm-times-lift for each datum
    for d in data:
        if d.record.group is not G:
            raise ValueError("datum lives over a different group: %r, "
                             "not %r" % (d.record.group, G))
    gens = tuple(datum_generator(d, chooser) for d in data)
    return NCIdeal(G, gens, from_generators(G, gens))


class TwoSidedReport(NamedTuple):
    passed: bool
    witness: tuple        # (conjugator label, generator index) or ()


def two_sided_check(I):
    # a left ideal is two-sided iff every conjugate of every generator
    # stays inside it
    G = I.group
    for t, x in enumerate(I.generators):
        for w in G.elements:
            conj = GroupRingElement.basis(G, w) * x * GroupRingElement.basis(G, G.inv(w))
            if not contains_element(I.lattice, G, conj):
                return TwoSidedReport(False, (G.label(w), t))
    return TwoSidedReport(True, ())


def conjugate_datum(d, target_record, w):
    # move a datum to the conjugate subgroup w H w^-1
    G = d.record.group
    return _push(d, target_record, lambda h: G.conjugate(w, h))


def _push(d, target_record, f):
    # the datum carried along the map of abelianizations induced by the
    # group map f
    images = d.record.induced(target_record, f)

    def move(x):
        return map_elements(x, target_record.ab, images.__getitem__)

    return AnnihilatorDatum(target_record, move(d.alpha), move(d.beta), d.ell)


def covariant_data(records, base_data):
    # extend data to the full conjugation orbit of each datum's subgroup
    out = []
    for d in base_data:
        G = d.record.group
        seen = set()
        for w in G.elements:
            moved = conjugate_set(G, d.record.elements, w)
            if moved in seen:
                continue
            seen.add(moved)
            target = records[record_index(records, moved)]
            out.append(conjugate_datum(d, target, w))
    return out


# ---------------------------------------------------------------------------
# quotient behaviour

def push_datum(d, record_small, proj):
    return _push(d, record_small, proj.__getitem__)


def quotient_data(data, Q, proj):
    # the pushed-forward data over the quotient group, one datum per
    # original datum, over the image subgroup
    out = []
    cache = {}
    for d in data:
        jset = tuple(sorted({proj[h] for h in d.record.elements}))
        if jset not in cache:
            cache[jset] = SubgroupRecord(Q, jset)
        out.append(push_datum(d, cache[jset], proj))
    return out


class QuotientReport(NamedTuple):
    compatible: bool
    contained: bool
    witness: tuple

    @property
    def passed(self):
        return self.compatible and self.contained


def quotient_check(G, Q, proj, data, data_small):
    # 1) every datum's pushforward must appear (as an exact product match)
    #    in the quotient-level data; 2) the image of the ideal must land
    #    inside the quotient-level ideal.  proj is a ring map and the small
    #    ideal a Z[1/2]-module, so 2) holds iff the image of each column of
    #    the big ideal's lattice is in it; the witness is the first failing
    #    column's image
    compatible = True
    witness = ()
    for t, d in enumerate(data):
        jset = tuple(sorted({proj[h] for h in d.record.elements}))
        hit = False
        for d2 in data_small:
            if d2.record.elements != jset or d2.ell != d.ell:
                continue
            images = d.record.induced(d2.record, proj.__getitem__)
            pushed = map_elements(d.alpha * d.beta, d2.record.ab,
                                  images.__getitem__)
            if pushed == d2.alpha * d2.beta:
                hit = True
                break
        if not hit:
            compatible = False
            witness = ("incompatible datum", t)
            break
    I_big = nc_ideal(G, data)
    I_small = nc_ideal(Q, data_small)
    contained = True
    for x in ideal_elements(I_big.lattice, G):
        y = map_elements(x, Q, proj.__getitem__)
        if not contains_element(I_small.lattice, Q, y):
            contained = False
            if not witness:
                witness = ("image vector escapes",
                           tuple(element_vector(Q, y)))
            break
    return QuotientReport(compatible, contained, witness)
