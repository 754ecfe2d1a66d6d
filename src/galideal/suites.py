# Named check suites: each one runs a family of exact identities or
# containments and reports per-instance pass/fail with a witness.  The
# CLI `check` subcommand and the acceptance tests both drive these, so a
# suite is the single source of truth for what its checks mean.

import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .abelian import FiniteAbelianGroup, squares_subgroup, unit_group
from .brauer import (SUBGROUP_ORDER_BUDGET, alternating4, bgstar,
                     component_images, conjugation_consistency, dihedral4,
                     duality_certificate, from_group, nonabelian_J,
                     quaternion8, quotient_group, quotient_naturality,
                     subgroup_lattice, symmetric3)
from .cycloideal import (CyclotomicLevel, ideal_J_full, ideal_J_imagquad,
                         ideal_J_real, plus_tower)
from .cyclotomic import CyclotomicNumber
from .dirichlet import generalized_bernoulli, is_prime, l_value
from .groupring import (EmbeddingSignature, GroupRingElement, invert_unit,
                        map_elements, psi_eval, y_rank)
from .lattice import ideal_elements, unit_ideal
from .ncideal import (covariant_data, nc_ideal, quotient_check,
                      quotient_data, subgroup_datum, two_sided_check)
from .padic import annihilator_integrality, torsion_annihilator
from .stickelberger import (base_change_element, complex_conjugation,
                            even_extension, half_stickelberger,
                            include_subgroup, quadratic_character,
                            ramified_places, stickelberger,
                            stickelberger_by_characters)
from .towers import (TowerDatum, apply_corestriction, apply_fixed_point,
                     apply_quotient, check_corestriction_containment,
                     check_fixed_point_containment, coset_section,
                     cyclotomic_tower, induced_character_sum,
                     induced_det_both_routes)

F = Fraction


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str


def theta(m, r=0):
    return stickelberger(m, ramified_places(m), r)


def random_element(rng, group, top, bottom):
    # coefficients randint(-top, top) / randint(1, bottom), drawn in element
    # order by the randrange calls of randint, over lcm(1, ..., bottom)
    den = lcm(*range(1, bottom + 1))
    return GroupRingElement.from_numerators(group, [
        rng.randrange(-top, top + 1) * (den // rng.randrange(1, bottom + 1))
        for _ in group.elements], den)


# ---------------------------------------------------------------------------
# 1. (1 - c) theta-tilde = theta

def half_stickelberger_suite():
    out = []
    for ell in (7, 11, 19, 23):
        for n in (0, 1):
            m = ell ** (n + 1)
            g = unit_group(m)
            ht = include_subgroup(half_stickelberger(m), g)
            c = GroupRingElement.basis(g, complex_conjugation(m))
            ok = ht - c * ht == theta(m, 0)
            out.append(CheckResult(
                "half-stickelberger", "one-minus-c:m=%d" % m, ok,
                "phi(m)=%d" % g.order))
    return out


# ---------------------------------------------------------------------------
# 2. L_S(0, rho psi) = 2 psi|_H(tau theta-tilde) for every even psi

def lvalue_identity_suite():
    out = []
    for ell in (7, 11):
        g = unit_group(ell)
        h = squares_subgroup(ell)
        rho = quadratic_character(g)
        tt = half_stickelberger(ell).tau()
        bad = None
        for eta in h.characters():
            psi = even_extension(g, eta)
            if l_value(0, rho * psi, ramified_places(ell)) != \
                    2 * psi_eval(tt, eta):
                bad = eta.index
                break
        out.append(CheckResult(
            "lvalue-identity", "pairing:ell=%d" % ell, bad is None,
            "all %d even characters" % h.order if bad is None
            else "mismatch at character %s" % (bad,)))
    return out


# ---------------------------------------------------------------------------
# 3. tau(B)^{-1} = 2 theta-tilde

def base_change_suite():
    out = []
    for ell in (7, 11):
        b = base_change_element(ell)
        ok = invert_unit(b.tau()) == half_stickelberger(ell).scale(2)
        out.append(CheckResult("base-change", "tau-inverse:ell=%d" % ell,
                               ok, ""))
    return out


# ---------------------------------------------------------------------------
# 4. quotient functoriality of the minus ideals across levels, by the
#    distribution relation pi(theta_n(r)) = theta_(n-1)(r) along the
#    ell-tower, S = {infty, ell} at both levels.  J_n = Z[1/2][G_n] theta_n
#    and pi is a surjective ring map, so the relation gives
#    pi(J_n) = Z[1/2][G_(n-1)] pi(theta_n) = J_(n-1), an equality of ideals
#    that needs neither lattice built

def functoriality_suite(ells=(3, 5), levels=(1,)):
    out = []
    for ell in ells:
        for n in levels:
            big, small = ell ** (n + 1), ell ** n
            tow = cyclotomic_tower(big, small)
            for r in (0, -1, -2):
                image = apply_quotient(tow, theta(big, r))
                target = theta(small, r)
                passed = image == target
                # the first residue where the two sides differ
                detail = "" if passed else next(
                    "at residue %d: pi(theta_%d) has %s, theta_%d has %s"
                    % (a, n, image.coefficient(a), n - 1, target.coefficient(a))
                    for a in target.group.elements
                    if image.coefficient(a) != target.coefficient(a))
                out.append(CheckResult(
                    "functoriality",
                    "pi-minus:ell=%d,level=%d->%d,r=%d" % (ell, n, n - 1, r),
                    passed, detail))
    return out


# ---------------------------------------------------------------------------
# 5. determinant identity for induced matrices

def induced_det_suite(seed=2026):
    cases = [
        ("1<C2", FiniteAbelianGroup(()), FiniteAbelianGroup((2,)),
         lambda _: (0,)),
        ("C2<C4", FiniteAbelianGroup((2,)), FiniteAbelianGroup((4,)),
         lambda h: (2 * h[0] % 4,)),
        ("C3<C6", FiniteAbelianGroup((3,)), FiniteAbelianGroup((6,)),
         lambda h: (2 * h[0] % 6,)),
        ("C2<C2xC2", FiniteAbelianGroup((2,)), FiniteAbelianGroup((2, 2)),
         lambda h: (h[0], 0)),
    ]
    rng = random.Random(seed)
    out = []
    for name, H, G, embed in cases:
        bad = None
        for i in range(100):
            n = rng.choice([1, 2])
            M = [[random_element(rng, H, 3, 4) for _ in range(n)]
                 for _ in range(n)]
            lhs, rhs = induced_det_both_routes(H, G, embed, M)
            if lhs != rhs:
                bad = i
                break
        out.append(CheckResult(
            "induced-det", "det:%s" % name, bad is None,
            "100 random matrices" if bad is None
            else "mismatch at matrix %d" % bad))
    return out


# ---------------------------------------------------------------------------
# 6. fixed-point map and corestriction

def _suite_towers():
    C2 = FiniteAbelianGroup((2,))
    C4 = FiniteAbelianGroup((4,))
    C3 = FiniteAbelianGroup((3,))
    C6 = FiniteAbelianGroup((6,))
    return [
        ("C4/C2", TowerDatum(C4, C2, lambda e: (e[0] % 2,)).validate()),
        ("C6/C3", TowerDatum(C6, C3, lambda e: (e[0] % 3,)).validate()),
        ("Z7/plus", plus_tower(7)),
    ]


def fixed_point_suite(seed=2026):
    rng = random.Random(seed)
    out = []
    for name, t in _suite_towers():
        Q = t.quotient
        one_ok = apply_fixed_point(t, GroupRingElement.one(Q)) == \
            GroupRingElement.one(t.big)
        hom_ok = True
        for _ in range(25):
            x = random_element(rng, Q, 4, 3)
            y = random_element(rng, Q, 4, 3)
            if apply_fixed_point(t, x * y) != \
                    apply_fixed_point(t, x) * apply_fixed_point(t, y):
                hom_ok = False
                break
        out.append(CheckResult("fixed-point", "lambda-ring-hom:%s" % name,
                               one_ok and hom_ok, "25 random pairs"))

        # character description: chi-component is chi(section(q)) when chi
        # kills the kernel, and 1 otherwise
        char_ok = True
        sec = coset_section(t)
        ker = t.kernel
        for q in Q.elements:
            lam = apply_fixed_point(t, GroupRingElement.basis(Q, q))
            for chi in t.big.characters():
                got = psi_eval(lam, chi)
                if all(chi(k) == CyclotomicNumber.one() for k in ker):
                    want = chi(sec[q])
                else:
                    want = CyclotomicNumber.one()
                if got != want:
                    char_ok = False
        out.append(CheckResult("fixed-point",
                               "lambda-character-description:%s" % name,
                               char_ok, ""))

    # corestriction duality against induced characters
    C2 = FiniteAbelianGroup((2,))
    C4 = FiniteAbelianGroup((4,))
    cases = [
        ("C2<C4", C2, C4, lambda h: (2 * h[0] % 4,)),
        ("H7<Z7", squares_subgroup(7), unit_group(7), lambda a: a),
        ("C2<C2xC4", C2, FiniteAbelianGroup((2, 4)),
         lambda h: (0, 2 * h[0] % 4)),
    ]
    for name, H, G, embed in cases:
        x = random_element(rng, G, 5, 4)
        iota = apply_corestriction(x, H, G, embed)
        ok = all(psi_eval(iota, eta) ==
                 induced_character_sum(x, G, H, embed, eta)
                 for eta in H.characters())
        out.append(CheckResult("fixed-point", "iota-duality:%s" % name,
                               ok, "all characters of H"))

    # lambda containment (plus tower) and iota containment (imaginary
    # quadratic base) on the cyclotomic ideals; both read J at ell = 7
    full = {ell: ideal_J_full(CyclotomicLevel(ell, 0))
            for ell in (3, 5, 7, 11)}
    for ell in (3, 5, 7):
        lev = CyclotomicLevel(ell, 0)
        tow = plus_tower(ell)
        rep = check_fixed_point_containment(
            tow, ideal_elements(ideal_J_real(lev), tow.quotient), full[ell])
        out.append(CheckResult("fixed-point",
                               "lambda-containment:ell=%d" % ell,
                               rep.passed,
                               "" if rep.witness is None
                               else "witness %s" % (rep.witness,)))
    for ell in (7, 11):
        lev = CyclotomicLevel(ell, 0)
        rep = check_corestriction_containment(
            squares_subgroup(ell), unit_group(ell), lambda a: a,
            ideal_elements(full[ell], lev.group), ideal_J_imagquad(lev))
        out.append(CheckResult("fixed-point",
                               "iota-containment:ell=%d" % ell,
                               rep.passed,
                               "" if rep.witness is None
                               else "witness %s" % (rep.witness,)))
    return out


# ---------------------------------------------------------------------------
# 7. the component map out of the class space

def brauer_suite():
    out = []
    maps = {}
    for name, make in [("S3", symmetric3), ("D4", dihedral4),
                       ("Q8", quaternion8), ("A4", alternating4)]:
        bmap = maps[name] = bgstar(make())
        rank = bmap.rank
        out.append(CheckResult(
            "brauer", "injective:%s" % name, rank == bmap.space.dimension,
            "rank %d = %d classes" % (rank, bmap.space.dimension)))
        duality = duality_certificate(bmap)
        out.append(CheckResult(
            "brauer", "duality-certified:%s" % name, duality.passed,
            "%d traces" % duality.checked if duality.passed
            else "witness %s" % (duality.witness,)))
    for name, bmap, normal in [
            ("S3/A3", maps["S3"], [0, 3, 4]),
            ("D4/center", maps["D4"], maps["D4"].group.center)]:
        comps = {k: unit_ideal(rec.ab) for k, rec in enumerate(bmap.records)}
        tower = quotient_group(bmap.group, normal)
        rep = quotient_naturality(tower, comps, bmap)
        out.append(CheckResult(
            "brauer", "quotient-square:%s" % name,
            rep.square_commutes, ""))
        out.append(CheckResult(
            "brauer", "quotient-containment:%s" % name,
            rep.contained,
            "" if rep.contained else "witness %s" % (rep.witness,)))
    return out


# ---------------------------------------------------------------------------
# 8. abelian reduction of the class-space preimage

def abelian_reduction_suite(ells=(3, 5)):
    out = []
    for ell in ells:
        lev = CyclotomicLevel(ell, 0)
        G = from_group(lev.group)
        bmap = bgstar(G)
        J = ideal_J_full(lev)
        comps = component_images(bmap, J)
        consistent, _ = conjugation_consistency(bmap, comps)
        equal = nonabelian_J(bmap, comps) == J
        out.append(CheckResult(
            "abelian-reduction", "preimage-equals-direct:ell=%d" % ell,
            consistent and equal,
            "%d subgroup components" % len(comps)))
    return out


# ---------------------------------------------------------------------------
# 9. annihilator integrality

def integrality_suite(ells=(3, 5, 7)):
    out = []
    for ell in ells:
        for m in (ell, ell * ell):
            for r in (-1, -2):
                ok, worst, witness = annihilator_integrality(
                    m, ell, r, theta(m, r))
                out.append(CheckResult(
                    "integrality",
                    "annihilator:m=%d,ell=%d,r=%d" % (m, ell, r), ok,
                    "min valuation %d" % worst if ok
                    else "valuation %d at %s" % (worst, witness)))
    # the worked case: (sigma_2 - 4) theta(-1) = -(sigma_1 + sigma_2)/4
    g = unit_group(3)
    twist = GroupRingElement.basis(g, 2) - GroupRingElement.one(g).scale(4)
    expected = GroupRingElement(g, {1: F(-1, 4), 2: F(-1, 4)})
    out.append(CheckResult(
        "integrality", "worked-case:m=3", twist * theta(3, -1) == expected,
        "(s2 - 4) theta(-1) = -(s1 + s2)/4"))
    return out


# ---------------------------------------------------------------------------
# 10. non-commutative ideals

def nc_ideal_suite():
    out = []
    G = symmetric3()
    records = subgroup_lattice(G)
    rec = records[1]
    alpha = GroupRingElement(G, {0: F(1), 2: F(1)})
    base = subgroup_datum(rec, alpha, GroupRingElement.one(G), 3)

    control = two_sided_check(nc_ideal(G, [base]))
    out.append(CheckResult(
        "nc-ideal", "control-fails-two-sided:S3", not control.passed,
        "witness %s" % (control.witness,) if not control.passed
        else "control unexpectedly two-sided"))

    covariant = two_sided_check(nc_ideal(G, covariant_data(records, [base])))
    out.append(CheckResult(
        "nc-ideal", "covariant-two-sided:S3", covariant.passed,
        "" if covariant.passed else "witness %s" % (covariant.witness,)))

    full = records[-1]
    d = subgroup_datum(full, GroupRingElement(G, {0: F(1), 1: F(2)}),
                       GroupRingElement.one(G), 3)
    tower = quotient_group(G, [0, 3, 4])
    rep = quotient_check(tower, [d], quotient_data([d], tower))
    out.append(CheckResult(
        "nc-ideal", "quotient:S3/A3", rep.passed,
        "" if rep.passed else "witness %s" % (rep.witness,)))

    lev9 = CyclotomicLevel(3, 1)
    G9 = from_group(lev9.group)
    move = lambda x: map_elements(x, G9, lev9.group.index)
    rec9 = subgroup_lattice(G9)[-1]
    ann = torsion_annihilator(9, 3, -1)
    data9 = [subgroup_datum(rec9, move(theta(9, -1)), move(b), 3)
             for b in ann.generators]
    normal = [lev9.group.index(a) for a in (1, 4, 7)]
    tower9 = quotient_group(G9, normal)
    rep9 = quotient_check(tower9, data9, quotient_data(data9, tower9))
    out.append(CheckResult(
        "nc-ideal", "quotient:C9->C3-stickelberger", rep9.passed,
        "%d data" % len(data9) if rep9.passed
        else "witness %s" % (rep9.witness,)))
    return out


# ---------------------------------------------------------------------------
# 11. oracle cross-checks

def oracles_suite(max_modulus=30):
    out = []
    bad = None
    count = 0
    for m in range(1, max_modulus + 1):
        s = ramified_places(m)
        for r in (0, -1, -2, -3):
            count += 1
            if stickelberger(m, s, r) != stickelberger_by_characters(m, s, r):
                bad = (m, r)
                break
        if bad:
            break
    out.append(CheckResult(
        "oracles", "theta-dual-routes:m<=%d" % max_modulus, bad is None,
        "%d elements, both routes" % count if bad is None
        else "mismatch at %s" % (bad,)))

    out.append(CheckResult(
        "oracles", "zeta(-1)", theta(1, -1).coefficient(0) == F(-1, 12),
        "-1/12"))
    chi = quadratic_character(unit_group(3))
    out.append(CheckResult(
        "oracles", "B_{1,chi_-3}",
        generalized_bernoulli(1, chi) == CyclotomicNumber.from_rational(F(-1, 3)),
        "-1/3"))
    g = unit_group(7)
    expect = GroupRingElement(g, {1: F(5, 14), 2: F(-1, 14), 3: F(-3, 14),
                                  4: F(3, 14), 5: F(1, 14), 6: F(-5, 14)})
    out.append(CheckResult(
        "oracles", "theta-hurwitz:m=7", theta(7, 0) == expect,
        "[5/14, -1/14, -3/14, 3/14, 1/14, -5/14]"))
    return out


# ---------------------------------------------------------------------------
# 12. the rank table

def rank_suite():
    table = [
        ("Q(zeta5)", 0, 2, {0: 2, -1: 2, -2: 2, -3: 2}),
        ("Q(zeta7)", 0, 3, {0: 3, -1: 3, -2: 3, -3: 3}),
        ("Q(zeta7)+", 3, 0, {0: 3, -1: 0, -2: 3, -3: 0}),
    ]
    out = []
    for name, r1, r2, expect in table:
        ok = all(y_rank(EmbeddingSignature(r1, r2, r)) == expect[r]
                 for r in (0, -1, -2, -3))
        out.append(CheckResult("rank", "y-rank:%s" % name, ok,
                               "r in {0,-1,-2,-3}"))
    return out


# ---------------------------------------------------------------------------
# registry

SUITES = {
    "half-stickelberger": half_stickelberger_suite,
    "lvalue-identity": lvalue_identity_suite,
    "base-change": base_change_suite,
    "functoriality": functoriality_suite,
    "induced-det": induced_det_suite,
    "fixed-point": fixed_point_suite,
    "brauer": brauer_suite,
    "abelian-reduction": abelian_reduction_suite,
    "integrality": integrality_suite,
    "nc-ideal": nc_ideal_suite,
    "oracles": oracles_suite,
    "rank": rank_suite,
}

# alternate public names for suites
SUITE_ALIASES = {
    "annihilator": "nc-ideal",
}

# which keyword parameters each suite accepts from the outside, each with
# the rule its values must satisfy: (predicate, what it asks for, how a
# refusal names the value given)
_GOT = "got %d".__mod__
_ANY = (lambda v: True, "an integer", _GOT)
_ODD_PRIME = (lambda v: v > 2 and is_prime(v), "an odd prime", _GOT)


def _at_least(k):
    return (lambda v: v >= k, "an integer >= %d" % k, _GOT)


def _odd_prime_with(size, what, limit):
    # an odd prime ell with size(ell) <= limit, size tested before primality;
    # an ell past the limit is refused with `what` at that ell
    return (lambda v: size(v) <= limit and v > 2 and is_prime(v),
            "an odd prime with %s <= %d" % (what, limit),
            lambda v: "and this input predicts " + what.replace("ell", str(v))
            if size(v) > limit else _GOT(v))


# the largest modulus ell^2 the integrality suite builds: theta and two
# annihilator products at each modulus, a cost growing as ell^2, 0.5 s at
# the limit ell = 313 (cold, 2-core shared VM)
INTEGRALITY_MAX_MODULUS = 313 ** 2

SUITE_PARAMS = {
    "half-stickelberger": {},
    "lvalue-identity": {},
    "base-change": {},
    "functoriality": {"ells": _ODD_PRIME, "levels": _at_least(1)},
    "induced-det": {"seed": _ANY},
    "fixed-point": {"seed": _ANY},
    "brauer": {},
    "abelian-reduction": {"ells": _odd_prime_with(
        lambda v: v - 1, "group order ell - 1", SUBGROUP_ORDER_BUDGET)},
    "integrality": {"ells": _odd_prime_with(
        lambda v: v * v, "modulus ell^2", INTEGRALITY_MAX_MODULUS)},
    "nc-ideal": {},
    "oracles": {"max_modulus": _at_least(1)},
    "rank": {},
}

# the command-line flag that carries each parameter
PARAM_FLAGS = {"ells": "--ell", "levels": "--levels", "seed": "--seed",
               "max_modulus": "--max-modulus"}


# the largest modulus ell^(level+1) the functoriality suite builds: its
# cost is linear in the modulus, 1.3-1.8 s and 122 MB of peak RSS at the
# limit, one cold process each on 2 cores of a shared VM
FUNCTORIALITY_MAX_MODULUS = 3 ** 12


def _check_functoriality_budget(kwargs):
    # refuses the largest (ell, level) pair given or defaulted if its
    # modulus is above the limit, naming --ell when that is given and too
    # large at level 1, else --levels when that is given.  The power is
    # compared without being built, since --levels may be huge
    ell = max(kwargs.get("ells", (3, 5)))   # the suite's defaults
    exp = max(kwargs.get("levels", (1,))) + 1
    limit = FUNCTORIALITY_MAX_MODULUS
    if exp < limit.bit_length() and ell ** exp <= limit:
        return
    flag = ("--levels" if "levels" in kwargs
            and not ("ells" in kwargs and ell * ell > limit) else "--ell")
    raise ValueError("%s: suite 'functoriality' builds moduli ell^(level+1) "
                     "up to %d, and this input predicts %d^%d"
                     % (flag, limit, ell, exp))


def check_params(name, **params):
    # the canonical suite name and its parameters from `params` (None means
    # not given); raises ValueError, before any of the suite's work starts,
    # on an unknown suite, then on the first parameter in the order given
    # that the suite does not take, naming the suite as given, then on the
    # first value it cannot take, each time naming the flag, and last on a
    # functoriality input above its size budget.  The list of names offered
    # includes the CLI's "all" (check --suite all)
    canonical = SUITE_ALIASES.get(name, name)
    if canonical not in SUITES:
        raise ValueError("--suite: unknown suite %r (have: all, %s)"
                         % (name, ", ".join(sorted(set(SUITES)
                                                   | set(SUITE_ALIASES)))))
    rules = SUITE_PARAMS[canonical]
    kwargs = {k: v for k, v in params.items() if v is not None}
    for key in kwargs:
        if key not in rules:
            raise ValueError("%s: suite %r does not accept this flag"
                             % (PARAM_FLAGS.get(key, key), name))
    for key, value in kwargs.items():
        ok, want, got = rules[key]
        for v in value if isinstance(value, tuple) else (value,):
            try:
                good = ok(v)
            except ValueError as e:
                raise ValueError("%s: %s" % (PARAM_FLAGS[key], e))
            if not good:
                raise ValueError("%s: suite %r needs %s, %s"
                                 % (PARAM_FLAGS[key], canonical, want, got(v)))
    if canonical == "functoriality":
        _check_functoriality_budget(kwargs)
    return canonical, kwargs


def run_suite(name, **params):
    name, kwargs = check_params(name, **params)
    return SUITES[name](**kwargs)


def run_all():
    out = []
    for name in SUITES:
        out.extend(run_suite(name))
    return out
