# The inputs and the work of the check suites: the random group-ring
# elements are the ones a dict of Fractions gave, draw for draw, the brauer
# suite builds each component map once, the fixed-point suite builds each
# tower's parts and each full ideal once, and the integrality, functoriality
# and nc-ideal quotient verdicts build no lattice they do not read.

import random
import time
from fractions import Fraction

import pytest

from galideal import (brauer, cycloideal, lattice, ncideal, padic, suites,
                      towers)
from galideal.cli import main
from galideal.abelian import FiniteAbelianGroup, squares_subgroup, unit_group
from galideal.groupring import GroupRingElement
from galideal.suites import random_element, run_suite


def _fraction_dict_element(rng, group, top, bottom):
    # the reference construction: one Fraction per element, numerator drawn
    # before denominator, in element order, by randint, which random_element
    # replaces with the randrange calls randint makes
    return GroupRingElement(group, {
        g: Fraction(rng.randint(-top, top), rng.randint(1, bottom))
        for g in group.elements})


@pytest.mark.parametrize("seed", [0, 1, 2026, 999999])
def test_random_element_matches_fraction_dict(seed):
    # the groups and ranges of induced-det (3, 4) and fixed-point (4, 3 and
    # 5, 4); both generators must also end in the same state
    groups = [FiniteAbelianGroup(()), FiniteAbelianGroup((2,)),
              FiniteAbelianGroup((3,)), FiniteAbelianGroup((2, 4)),
              squares_subgroup(7), unit_group(7)]
    for top, bottom in [(3, 4), (4, 3), (5, 4)]:
        ours, ref = random.Random(seed), random.Random(seed)
        for group in groups:
            for _ in range(5):
                assert random_element(ours, group, top, bottom) == \
                    _fraction_dict_element(ref, group, top, bottom)
        assert ours.getstate() == ref.getstate()


def test_brauer_suite_builds_each_map_once(monkeypatch):
    # S3, D4, Q8 and A4, then the quotients S3/A3 and D4/center: the big
    # maps of the quotient checks are the ones the suite built first
    orders = []
    real = brauer.bgstar

    def counting(G):
        orders.append(G.order)
        return real(G)

    monkeypatch.setattr(brauer, "bgstar", counting)
    monkeypatch.setattr(suites, "bgstar", counting)
    results = run_suite("brauer")
    assert orders == [6, 8, 8, 12, 2, 4]
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("injective:S3", True, "rank 3 = 3 classes"),
        ("duality-certified:S3", True, "36 traces"),
        ("injective:D4", True, "rank 5 = 5 classes"),
        ("duality-certified:D4", True, "135 traces"),
        ("injective:Q8", True, "rank 5 = 5 classes"),
        ("duality-certified:Q8", True, "95 traces"),
        ("injective:A4", True, "rank 4 = 4 classes"),
        ("duality-certified:A4", True, "104 traces"),
        ("quotient-square:S3/A3", True, ""),
        ("quotient-containment:S3/A3", True, ""),
        ("quotient-square:D4/center", True, ""),
        ("quotient-containment:D4/center", True, ""),
    ]


def _counting(monkeypatch, module, name):
    # replace module.name by a wrapper that records its first argument
    calls, real = [], getattr(module, name)

    def counting(first, *args):
        calls.append(first)
        return real(first, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_integrality_verdicts_build_no_annihilator_lattice(monkeypatch):
    # annihilator_integrality and the nc-ideal suite read only the
    # annihilator's generators, so neither canonicalizes its ideal
    calls = _counting(monkeypatch, padic, "canonicalize")
    cases = [(m, ell, r) for ell in (3, 5, 7) for m in (ell, ell * ell)
             for r in (-1, -2)]
    assert len(cases) == 12
    for m, ell, r in cases:
        ok, worst, _ = padic.annihilator_integrality(
            m, ell, r, suites.theta(m, r))
        assert ok and worst >= 0, (m, ell, r)
    assert all(r.passed for r in suites.nc_ideal_suite())
    assert calls == []


def test_fixed_point_suite_builds_each_towers_parts_once(monkeypatch):
    # one kernel idempotent per lambda-containment check (the plus towers at
    # ell = 3, 5, 7); lambda itself, on the 242 elements the suite maps,
    # takes no product and builds no idempotent and no section
    inside = []
    real = towers.apply_fixed_point

    def traced(tower, x):
        inside.append(tower)
        try:
            return real(tower, x)
        finally:
            inside.pop()

    def watch(owner, name):
        # (whether lambda is running, first argument) for each call
        calls, wrapped = [], getattr(owner, name)

        def recording(first, *args):
            calls.append((bool(inside), first))
            return wrapped(first, *args)

        monkeypatch.setattr(owner, name, recording)
        return calls

    monkeypatch.setattr(towers, "apply_fixed_point", traced)
    monkeypatch.setattr(suites, "apply_fixed_point", traced)
    idempotents = watch(towers, "kernel_idempotent")
    sections = watch(towers, "coset_section")
    products = watch(GroupRingElement, "__mul__")
    assert all(r.passed for r in suites.fixed_point_suite())
    assert [within for within, _ in idempotents] == [False] * 3
    assert len({id(t) for _, t in idempotents}) == 3
    assert sections == []
    assert products and not any(within for within, _ in products)


def test_fixed_point_suite_builds_each_full_ideal_once(monkeypatch):
    # the lambda and iota containments share J at ell = 7
    calls = _counting(monkeypatch, suites, "ideal_J_full")
    assert all(r.passed for r in suites.fixed_point_suite())
    assert sorted(level.modulus for level in calls) == [3, 5, 7, 11]


def test_functoriality_suite_builds_no_lattice(monkeypatch, capsys):
    # the distribution relation compares two elements, so neither J_n nor
    # J_(n-1) is built: every canonical form goes through saturated_columns
    calls = [_counting(monkeypatch, lattice, "saturated_columns"),
             _counting(monkeypatch, cycloideal, "saturated_columns"),
             _counting(monkeypatch, lattice, "canonicalize")]
    assert main(["check", "--suite", "functoriality"]) == 0
    assert main(["check", "--suite", "functoriality", "--ell", "3",
                 "--levels", "2"]) == 0
    capsys.readouterr()
    assert calls == [[], [], []]


@pytest.mark.parametrize("levels", [7, 9])
def test_functoriality_suite_at_depth(levels):
    # m = 3^8 and 3^10, linear work in m: 0.02 s and 0.19 s on 2 cores of a
    # shared VM, against more than 120 s at level 7 for the lattice route;
    # the budget leaves room for a line tracer
    start = time.perf_counter()
    results = run_suite("functoriality", ells=(3,), levels=(levels,))
    assert time.perf_counter() - start < 10
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("pi-minus:ell=3,level=%d->%d,r=%d" % (levels, levels - 1, r), True,
         "") for r in (0, -1, -2)]


def test_quotient_check_builds_no_lattice_over_the_big_group(monkeypatch):
    # the big ideal is read only through its generators; the two S3
    # lattices are the two-sided checks', then one per quotient group
    calls = _counting(monkeypatch, ncideal, "from_generators")
    checked = _counting(monkeypatch, suites, "quotient_check")
    assert all(r.passed for r in suites.nc_ideal_suite())
    assert len(checked) == 2
    assert [G.order for G in calls[:2]] == [6, 6]
    assert len(calls) == 4
    assert all(G is t.quotient for G, t in zip(calls[2:], checked))
