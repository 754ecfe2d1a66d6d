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
from .lattice import contains_element, from_generators
from .padic import valuation
from .towers import check_quotient_containment


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


def lift_z(d):
    # a preimage in the subgroup's algebra of alpha*beta under the
    # abelianization, each coefficient placed on the smallest-label element
    # of its coset; a non-integral product is surfaced as an error
    ok, worst, witness = datum_integrality(d)
    if not ok:
        raise IntegralityError(
            "component-annihilator product is not %d-integral at %s "
            "(valuation %d)" % (d.ell, witness, worst))
    rec = d.record
    G = rec.group
    reps = [min(coset, key=G.label) for coset in rec.cosets]
    return map_elements(d.alpha * d.beta, G, reps.__getitem__)


def norm_element(record):
    # the sum over the commutator subgroup, inside the ambient algebra
    G = record.group
    return GroupRingElement(G, {h: 1 for h in record.commutator})


def datum_generator(d):
    return norm_element(d.record) * lift_z(d)


class NCIdeal(NamedTuple):
    group: object
    generators: tuple     # the defining elements, one per datum
    lattice: object       # FractionalIdeal: the left span


def _generators(G, data):
    # norm-times-lift for each datum, all of which must lie over G
    for d in data:
        if d.record.group is not G:
            raise ValueError("datum lives over a different group: %r, "
                             "not %r" % (d.record.group, G))
    return tuple(datum_generator(d) for d in data)


def nc_ideal(G, data):
    # the left ideal generated by norm-times-lift for each datum
    gens = _generators(G, data)
    return NCIdeal(G, gens, from_generators(G, gens))


class TwoSidedReport(NamedTuple):
    passed: bool
    witness: tuple        # (conjugator label, generator index) or ()


def two_sided_check(I):
    # a left ideal is two-sided iff every conjugate w x w^-1 of every
    # generator x stays inside it.  It is a left ideal, so w x w^-1 lies in
    # it exactly when x w^-1 does: each test is one right translation
    G = I.group
    for t, x in enumerate(I.generators):
        for w in G.elements:
            w_inv = G.inv(w)
            moved = map_elements(x, G, lambda g: G.op(g, w_inv))
            if not contains_element(I.lattice, G, moved):
                return TwoSidedReport(False, (G.label(w), t))
    return TwoSidedReport(True, ())


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
            out.append(_push(d, target, lambda h: G.conjugate(w, h)))
    return out


# ---------------------------------------------------------------------------
# quotient behaviour

def quotient_data(data, tower):
    # the pushed-forward data over the quotient group, one datum per
    # original datum, over the image subgroup
    out = []
    cache = {}
    for d in data:
        jset = tuple(sorted({tower.project(h) for h in d.record.elements}))
        if jset not in cache:
            cache[jset] = SubgroupRecord(tower.quotient, jset)
        out.append(_push(d, cache[jset], tower.project))
    return out


class QuotientReport(NamedTuple):
    compatible: bool
    contained: bool
    witness: tuple

    @property
    def passed(self):
        return self.compatible and self.contained


def quotient_check(tower, data, data_small):
    # 1) every datum's pushforward must appear (as an exact product match)
    #    in the quotient-level data; 2) the image of the ideal must land
    #    inside the quotient-level ideal, checked on the big ideal's
    #    generators; the witness is the first failing generator's image
    compatible = True
    witness = ()
    for t, d in enumerate(data):
        jset = tuple(sorted({tower.project(h) for h in d.record.elements}))
        for d2 in data_small:
            if d2.record.elements == jset and d2.ell == d.ell:
                pushed = _push(d, d2.record, tower.project)
                if pushed.alpha * pushed.beta == d2.alpha * d2.beta:
                    break
        else:
            compatible = False
            witness = ("incompatible datum", t)
            break
    report = check_quotient_containment(
        tower, _generators(tower.big, data),
        nc_ideal(tower.quotient, data_small).lattice)
    if not report.passed and not witness:
        witness = ("image vector escapes", tuple(report.witness))
    return QuotientReport(compatible, report.passed, witness)
