import argparse
import contextlib
import inspect
import io
import json
import re
import signal
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from galideal import brauer, ncideal, suites
from galideal.abelian import squares_subgroup, unit_group
from galideal.brauer import (cyclic_group, product_cyclic, symmetric3,
                             to_cayley_text)
from galideal.cli import _FLAGS, _HELP, main, parse_argv
from galideal.cycloideal import full_ideal_parts
from galideal.groupring import EmbeddingSignature, GroupRingElement
from galideal.lattice import canonicalize, zero_ideal
from galideal.serialize import lattice_payload, parse_lattice
from galideal.suites import (SUITE_ALIASES, SUITE_PARAMS, SUITES,
                             integrality_suite, run_suite)

from conftest import run_python

COVARIANT_S3 = """{
  "schema-version": 1,
  "kind": "annihilator-data",
  "ell": 3,
  "data": [
    {"subgroup": ["e", "(12)"], "alpha": {"e": "1", "(12)": "1"},
     "beta": {"e": "1"}},
    {"subgroup": ["e", "(13)"], "alpha": {"e": "1", "(13)": "1"},
     "beta": {"e": "1"}},
    {"subgroup": ["e", "(23)"], "alpha": {"e": "1", "(23)": "1"},
     "beta": {"e": "1"}}
  ]
}
"""

SINGLE_S3 = """{
  "schema-version": 1,
  "kind": "annihilator-data",
  "ell": 3,
  "data": [
    {"subgroup": ["e", "(12)"], "alpha": {"e": "1", "(12)": "1"},
     "beta": {"e": "1"}}
  ]
}
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def test_stickelberger_worked_example(capsys):
    code, report = run_json(
        capsys, ["stickelberger", "--modulus", "7", "--s", "infty,7",
                 "--r", "0"])
    assert code == 0
    assert report["element"] == {"s1": "5/14", "s2": "-1/14", "s3": "-3/14",
                                 "s4": "3/14", "s5": "1/14", "s6": "-5/14"}
    assert report["inputs"] == {"modulus": 7, "places": "infty,7", "r": 0}


def test_stickelberger_defaults_to_ramified_places(capsys):
    code, report = run_json(capsys, ["stickelberger", "--modulus", "12"])
    assert code == 0
    assert report["inputs"]["places"] == "infty,2,3"


def test_stickelberger_extra_places_budget(capsys):
    # phi(420) = 96 with an extra prime: Euler factors applied in Q[G], so
    # no L-value is computed (this took 31 s by characters)
    started = time.perf_counter()
    code, report = run_json(capsys, ["stickelberger", "--modulus", "420",
                                     "--s", "infty,2,3,5,7,11"])
    assert time.perf_counter() - started < 2.0
    assert code == 0
    assert len(report["element"]) == 96


def test_places_checked_under_optimize_flag():
    # the prime check must not be an assert, which python -O strips
    proc = run_python("-O", "-m", "galideal.cli", "stickelberger", "--modulus",
                      "7", "--s", "infty,7,9")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --s: not a prime: 9\n"


def test_lvalue_zeta_minus_one(capsys):
    code, report = run_json(
        capsys, ["lvalue", "--modulus", "1", "--char", "0", "--r", "-1",
                 "--s", "infty"])
    assert code == 0
    assert report["value"] == "-1/12"


def test_lvalue_irrational_value_uses_coordinates(capsys):
    # odd character mod 5: L(0, chi) is a cyclotomic irrationality
    code, report = run_json(
        capsys, ["lvalue", "--modulus", "5", "--char", "1", "--r", "0"])
    assert code == 0
    assert set(report["value"]) == {"root-of-unity-order", "coordinates"}


def test_output_is_byte_deterministic(capsys):
    argv = ["check", "--suite", "rank"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert "timing-ms" not in first


def test_check_every_suite_is_reachable(capsys):
    for name in sorted(SUITES) + sorted(SUITE_ALIASES):
        if name in ("brauer", "oracles", "induced-det", "integrality"):
            continue  # reachable but slow; covered by the acceptance run
        code, report = run_json(capsys, ["check", "--suite", name])
        assert code == 0, name
        assert report["passed"] is True, name
        assert report["failures"] == 0, name


def test_check_narrowing_flags(capsys):
    code, report = run_json(
        capsys, ["check", "--suite", "functoriality", "--ell", "3",
                 "--levels", "1"])
    assert code == 0
    assert report["checks"] == 3  # three twists at one (ell, level) pair
    assert all(r["name"].startswith("pi-minus:ell=3,level=1->0")
               for r in report["results"])


def test_check_rejects_narrowing_without_suite(capsys):
    code, out, err = run(capsys, ["check", "--ell", "3"])
    assert code == 2
    assert "specific --suite" in err


def test_check_rejects_wrong_parameter_for_suite(capsys):
    code, out, err = run(capsys, ["check", "--suite", "rank", "--ell", "3"])
    assert code == 2
    assert "does not accept" in err
    assert err.startswith("error: --ell: ")
    code, out, err = run(capsys, ["check", "--suite", "annihilator",
                                  "--seed", "3"])
    assert code == 2
    assert err.startswith("error: --seed: ")


@pytest.mark.parametrize("argv, flag", [
    (["--suite", "functoriality", "--levels", "0"], "--levels"),
    (["--suite", "half-stickelberger", "--ell", "4"], "--ell"),
    (["--suite", "base-change", "--ell", "5"], "--ell"),
    (["--suite", "integrality", "--r", "0"], "--r"),
])
def test_check_rejects_bad_parameter_values(capsys, argv, flag):
    # a value the suite cannot take is a usage error (exit 2), never a
    # failed check (exit 1) or a traceback
    code, out, err = run(capsys, ["check"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + flag + ": ")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_params_match_signatures(name):
    # check_params rejects every parameter SUITE_PARAMS does not list, so a
    # parameter missing there could never reach the suite
    params = inspect.signature(SUITES[name]).parameters
    assert set(SUITE_PARAMS[name]) == set(params)


def test_run_suite_rejects_parameter_the_suite_does_not_take():
    # the one validation serves the library as well as the command line:
    # it names the first parameter given that the suite does not take, by
    # its flag, and the suite as it was given
    with pytest.raises(ValueError, match="^--ell: suite 'annihilator' does "
                                         "not accept this flag$"):
        run_suite("annihilator", ells=(3,), count=2, seed=None)
    # a keyword that is no flag at all is named as given
    with pytest.raises(ValueError, match="^foo: suite 'rank' does not "
                                         "accept this flag$"):
        run_suite("rank", foo=1)


def test_check_unknown_suite(capsys):
    code, out, err = run(capsys, ["check", "--suite", "nosuch"])
    assert code == 2
    assert "unknown suite" in err


def test_unknown_suite_is_refused_by_check_params(capsys):
    # one refusal: the library's error is the CLI's stderr line
    names = "all, " + ", ".join(sorted(set(SUITES) | set(SUITE_ALIASES)))
    message = "--suite: unknown suite 'nosuch' (have: %s)" % names
    with pytest.raises(ValueError) as refused:
        run_suite("nosuch", ells=(3,))
    assert str(refused.value) == message
    code, out, err = run(capsys, ["check", "--suite", "nosuch", "--ell", "3"])
    assert (code, out, err) == (2, "", "error: %s\n" % message)


# Negative controls: one input perturbed through a function the suite
# already calls, so the suite must report FAIL with its witness, and
# `check --suite` must exit 1.  `also` names the other checks that read the
# perturbed input and fail with it.

def _check_fails(capsys, suite, name, detail, also=()):
    result = {r.name: r for r in run_suite(suite)}[name]
    assert (result.passed, result.detail) == (False, detail)
    code, out, err = run(capsys, ["check", "--suite", suite])
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert (report["passed"], report["failures"]) == (False, 1 + len(also))
    assert {"suite": suite, "name": name, "passed": False,
            "detail": detail} in report["results"]
    assert sorted(r["name"] for r in report["results"]
                  if not r["passed"]) == sorted((name, *also))


def test_oracles_suite_reports_a_shifted_coefficient(capsys, monkeypatch):
    real = suites.stickelberger_by_characters

    def shifted(m, places, r=0):
        x = real(m, places, r)
        if (m, r) == (7, -1):
            x = x + GroupRingElement.basis(x.group, 3)
        return x

    monkeypatch.setattr(suites, "stickelberger_by_characters", shifted)
    _check_fails(capsys, "oracles", "theta-dual-routes:m<=30",
                 "mismatch at (7, -1)")


def test_induced_det_suite_reports_unequal_sides(capsys, monkeypatch):
    real = suites.induced_det_both_routes

    def lopsided(subgroup, group, embed, M):
        lhs, rhs = real(subgroup, group, embed, M)
        if group.order == 6 and len(M) == 2:
            rhs = rhs + GroupRingElement.one(group)
        return lhs, rhs

    monkeypatch.setattr(suites, "induced_det_both_routes", lopsided)
    # matrix 0 of the C3 < C6 case is 1 x 1, matrix 1 the first 2 x 2
    _check_fails(capsys, "induced-det", "det:C3<C6", "mismatch at matrix 1")


def test_lvalue_identity_suite_reports_a_shifted_value(capsys, monkeypatch):
    real = suites.l_value
    g, h = unit_group(7), squares_subgroup(7)
    # rho psi for the even psi extending character 1 of the squares mod 7
    eta = h.characters()[1]
    target = (suites.quadratic_character(g)
              * suites.even_extension(g, eta)).tuple

    def shifted(r, chi, places):
        x = real(r, chi, places)
        if chi.modulus == 7 and chi.tuple == target:
            x = x + 1
        return x

    monkeypatch.setattr(suites, "l_value", shifted)
    _check_fails(capsys, "lvalue-identity", "pairing:ell=7",
                 "mismatch at character %d" % eta.index)


def test_fixed_point_suite_reports_a_broken_product(capsys, monkeypatch):
    real = suites.apply_fixed_point
    previous = [None]

    def perturbed(tower, x):
        y = real(tower, x)
        if tower.big.order == 4:  # only C4/C2
            # each run maps 1 and then x y of the first random pair; the
            # character check maps 1 and then a basis element, kept as is
            if (previous[0] == GroupRingElement.one(tower.quotient)
                    and sum(1 for a in x.nums if a) > 1):
                y = y + GroupRingElement.one(tower.big)
            previous[0] = x
        return y

    monkeypatch.setattr(suites, "apply_fixed_point", perturbed)
    # the check carries no witness, only its fixed detail
    _check_fails(capsys, "fixed-point", "lambda-ring-hom:C4/C2",
                 "25 random pairs")


def test_fixed_point_suite_reports_a_wrong_character_value(capsys,
                                                          monkeypatch):
    real = suites.psi_eval

    def shifted(x, chi):
        v = real(x, chi)
        # only C4/C2, one character at the image of 1; the iota-duality
        # checks evaluate on groups of order 2 and 3
        if (x.group.order == 4 and chi.index == 1
                and x == GroupRingElement.one(x.group)):
            v = v + 1
        return v

    monkeypatch.setattr(suites, "psi_eval", shifted)
    _check_fails(capsys, "fixed-point", "lambda-character-description:C4/C2",
                 "")


def test_nc_ideal_suite_reports_an_incompatible_datum(capsys, monkeypatch):
    real = suites.quotient_data

    def scaled(data, tower):
        small = real(data, tower)
        if len(data) == 1:  # only S3/A3; the C9 -> C3 case has 7 data
            small[0] = small[0]._replace(alpha=small[0].alpha.scale(5))
        return small

    monkeypatch.setattr(suites, "quotient_data", scaled)
    _check_fails(capsys, "nc-ideal", "quotient:S3/A3",
                 "witness ('incompatible datum', 0)")


def test_abelian_reduction_suite_reports_a_wrong_preimage(capsys,
                                                         monkeypatch):
    real = suites.nonabelian_J

    def emptied(bmap, components):
        J = real(bmap, components)
        return zero_ideal(J.labels) if bmap.group.order == 4 else J

    monkeypatch.setattr(suites, "nonabelian_J", emptied)
    # the check carries no witness, only its fixed detail
    _check_fails(capsys, "abelian-reduction", "preimage-equals-direct:ell=5",
                 "3 subgroup components")


def test_functoriality_suite_reports_a_shrunken_ideal(capsys, monkeypatch):
    real = suites.ideal_J_minus

    def tripled(level, r, places):
        J = real(level, r, places)
        if (level.ell, r) == (5, -1):
            J = canonicalize(J.labels, J.denominator,
                             [[3 * x for x in col] for col in J.columns])
        return J

    monkeypatch.setattr(suites, "ideal_J_minus", tripled)
    # the witness is the image pi(theta) of the level-1 element, not in 3 J
    _check_fails(capsys, "functoriality", "pi-minus:ell=5,level=1->0,r=-1",
                 "witness [Fraction(-1, 60), Fraction(11, 60), "
                 "Fraction(11, 60), Fraction(-1, 60)]")


def test_integrality_suite_reports_a_divided_theta(capsys, monkeypatch):
    real = suites.theta

    def divided(m, r=0):
        x = real(m, r)
        return x.scale(Fraction(1, 5)) if (m, r) == (25, -2) else x

    monkeypatch.setattr(suites, "theta", divided)
    # generator 0 is 5^v itself, and 5^v theta / 5 has valuation -1
    _check_fails(capsys, "integrality", "annihilator:m=25,ell=5,r=-2",
                 "valuation -1 at 0")


def test_half_stickelberger_suite_reports_a_shifted_theta(capsys,
                                                          monkeypatch):
    real = suites.theta

    def shifted(m, r=0):
        x = real(m, r)
        return x + GroupRingElement.basis(x.group, 2) if m == 11 else x

    monkeypatch.setattr(suites, "theta", shifted)
    # the check carries no witness, only its fixed detail
    _check_fails(capsys, "half-stickelberger", "one-minus-c:m=11",
                 "phi(m)=10")


def test_base_change_suite_reports_a_doubled_inverse(capsys, monkeypatch):
    real = suites.invert_unit

    def doubled(x):
        y = real(x)
        return y.scale(2) if y.group.modulus == 11 else y

    monkeypatch.setattr(suites, "invert_unit", doubled)
    # the check carries no witness and an empty detail
    _check_fails(capsys, "base-change", "tau-inverse:ell=11", "")


def test_rank_suite_reports_a_shifted_rank(capsys, monkeypatch):
    real = suites.y_rank

    def shifted(sig):
        k = real(sig)
        return k + 1 if sig == EmbeddingSignature(3, 0, -1) else k

    monkeypatch.setattr(suites, "y_rank", shifted)
    # the check carries no witness, only its fixed detail
    _check_fails(capsys, "rank", "y-rank:Q(zeta7)+", "r in {0,-1,-2,-3}")


def test_fixed_point_suite_reports_a_missing_plus_summand(capsys,
                                                         monkeypatch):
    real = suites.ideal_J_full

    def minus_only(level, units=None):
        J = real(level, units)
        return full_ideal_parts(level)[1] if level.modulus == 5 else J

    monkeypatch.setattr(suites, "ideal_J_full", minus_only)
    # the witness is the image (s1 + s4)/2 of the quotient's identity, which
    # the Stickelberger span alone misses
    _check_fails(capsys, "fixed-point", "lambda-containment:ell=5",
                 "witness [Fraction(1, 2), Fraction(0, 1), Fraction(0, 1), "
                 "Fraction(1, 2)]")


def test_fixed_point_suite_reports_a_shrunken_imagquad_ideal(capsys,
                                                             monkeypatch):
    real = suites.ideal_J_imagquad

    def tripled(level, units=None):
        J = real(level, units)
        if level.modulus == 7:
            J = canonicalize(J.labels, J.denominator,
                             [[3 * x for x in col] for col in J.columns])
        return J

    monkeypatch.setattr(suites, "ideal_J_imagquad", tripled)
    # the witness is a corestricted generator of J, not in 3 J(imagquad)
    _check_fails(capsys, "fixed-point", "iota-containment:ell=7",
                 "witness [Fraction(2, 7), Fraction(8, 7), Fraction(4, 7)]")


def test_integrality_suite_reports_a_negated_worked_case(capsys,
                                                         monkeypatch):
    real = suites.theta

    def negated(m, r=0):
        x = real(m, r)
        return x.scale(-1) if (m, r) == (3, -1) else x

    monkeypatch.setattr(suites, "theta", negated)
    # the sign leaves every valuation, so the annihilator checks still pass;
    # the worked case carries no witness, only its fixed detail
    _check_fails(capsys, "integrality", "worked-case:m=3",
                 "(s2 - 4) theta(-1) = -(s1 + s2)/4")


def test_oracles_suite_reports_a_wrong_quadratic_character(capsys,
                                                           monkeypatch):
    # the trivial character mod 3 in place of chi_-3
    monkeypatch.setattr(suites, "quadratic_character",
                        lambda group: group.character(0))
    # the check carries no witness, only its fixed detail
    _check_fails(capsys, "oracles", "B_{1,chi_-3}", "-1/3")


def test_brauer_suite_reports_an_uncertified_component(capsys, monkeypatch):
    real = suites.duality_certificate

    def corrupted(bmap):
        if bmap.group.order == 6:  # only S3
            bad = [row[:] for row in bmap.matrix]
            bad[0][0] += 1
            bmap = bmap._replace(matrix=bad)
        return real(bmap)

    monkeypatch.setattr(suites, "duality_certificate", corrupted)
    # subgroup 0, character 0, at the class of e
    _check_fails(capsys, "brauer", "duality-certified:S3",
                 "witness (0, 0, 'e')")


def test_brauer_suite_reports_a_rank_deficient_map(capsys, monkeypatch):
    real = suites.bgstar

    def duplicated(G):
        bmap = real(G)
        if G.order == 6:  # only S3: the 3-cycle class's column becomes a
            # copy of the transpositions'
            bmap = bmap._replace(matrix=[row[:2] + row[1:2]
                                         for row in bmap.matrix])
        return bmap

    monkeypatch.setattr(suites, "bgstar", duplicated)
    # the certificate and the S3/A3 square read the same matrix
    _check_fails(capsys, "brauer", "injective:S3", "rank 2 = 3 classes",
                 also=("duality-certified:S3", "quotient-square:S3/A3",
                       "quotient-containment:S3/A3"))


def test_brauer_suite_reports_a_square_that_does_not_commute(capsys,
                                                              monkeypatch):
    real = brauer.class_quotient_matrix

    def swapped(tower):
        M = real(tower)
        if tower.big.order == 6:  # only S3/A3: each class goes to the
            # other coset of A3
            M = M[::-1]
        return M

    monkeypatch.setattr(brauer, "class_quotient_matrix", swapped)
    # the check carries no witness; containment is refused with the square
    _check_fails(capsys, "brauer", "quotient-square:S3/A3", "",
                 also=("quotient-containment:S3/A3",))


@pytest.mark.parametrize("order, name", [
    (4, "iota-duality:C2<C4"), (6, "iota-duality:H7<Z7"),
    (8, "iota-duality:C2<C2xC4")])
def test_fixed_point_suite_reports_a_shifted_induced_character(
        capsys, monkeypatch, order, name):
    real = suites.induced_character_sum

    def shifted(x, G, H, embed, eta):
        value = real(x, G, H, embed, eta)
        return value + 1 if G.order == order else value

    monkeypatch.setattr(suites, "induced_character_sum", shifted)
    # the check carries no witness, only its fixed detail
    _check_fails(capsys, "fixed-point", name, "all characters of H")


def test_nc_ideal_suite_reports_a_two_sided_control(capsys, monkeypatch):
    # a two-sidedness check that passes every ideal passes the one-datum
    # control too
    real = suites.two_sided_check
    monkeypatch.setattr(suites, "two_sided_check",
                        lambda I: real(I)._replace(passed=True, witness=()))
    _check_fails(capsys, "nc-ideal", "control-fails-two-sided:S3",
                 "control unexpectedly two-sided")


def test_nc_ideal_suite_reports_data_left_uncompleted(capsys, monkeypatch):
    # without the conjugate data the covariant ideal is the control's: the
    # conjugate by (23) of its generator leaves it
    monkeypatch.setattr(suites, "covariant_data",
                        lambda records, data: list(data))
    _check_fails(capsys, "nc-ideal", "covariant-two-sided:S3",
                 "witness ('(23)', 0)")


def test_nc_ideal_suite_reports_an_escaping_image(capsys, monkeypatch):
    real = ncideal.nc_ideal

    def tripled(G, data):
        I = real(G, data)
        if G.order == 2 and len(data) == 7:  # the C9 -> C3 quotient level
            J = I.lattice
            I = I._replace(lattice=canonicalize(
                J.labels, J.denominator,
                [[3 * x for x in col] for col in J.columns]))
        return I

    monkeypatch.setattr(ncideal, "nc_ideal", tripled)
    # the data stay compatible, so the witness is the first generator's
    # image, outside 3 J over the quotient
    _check_fails(capsys, "nc-ideal", "quotient:C9->C3-stickelberger",
                 "witness ('image vector escapes', "
                 "(Fraction(-1, 4), Fraction(-1, 4)))")


@pytest.mark.parametrize("m, r, name, detail", [
    (1, -1, "zeta(-1)", "-1/12"),
    (7, 0, "theta-hurwitz:m=7", "[5/14, -1/14, -3/14, 3/14, 1/14, -5/14]")])
def test_oracles_suite_reports_a_shifted_theta(capsys, monkeypatch, m, r,
                                               name, detail):
    real = suites.theta

    def shifted(m_, r_=0):
        x = real(m_, r_)
        return x + GroupRingElement.one(x.group) if (m_, r_) == (m, r) else x

    monkeypatch.setattr(suites, "theta", shifted)
    # theta-dual-routes calls stickelberger itself, so only this check
    # reads the shifted value; it carries no witness, only its fixed detail
    _check_fails(capsys, "oracles", name, detail)


def test_ideal_minus_lattice(capsys):
    code, report = run_json(
        capsys, ["ideal", "--ell", "3", "--part", "minus", "--r", "-1"])
    assert code == 0
    assert report["lattice"] == {"ambient": ["s1", "s2"],
                                 "denominator": 3,
                                 "columns": [[1, 1]]}


def test_ideal_part_flag_validation(capsys):
    code, out, err = run(capsys, ["ideal", "--ell", "3", "--part", "top"])
    assert code == 2 and "--part" in err
    code, out, err = run(capsys, ["ideal", "--ell", "4"])
    assert code == 2 and "--ell" in err
    code, out, err = run(capsys, ["ideal", "--ell", "3", "--part", "full",
                                  "--r", "-1"])
    assert code == 2 and "--r" in err
    # the imaginary quadratic part needs ell = 3 mod 4, ell > 3
    code, out, err = run(capsys, ["ideal", "--ell", "5", "--part", "imagquad"])
    assert code == 2 and out == ""
    assert err.startswith("error: --ell: ") and "3 (mod 4)" in err


def test_composite_ell_is_refused_at_once(capsys):
    # primality is decided before any search for a primitive root
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(10)
    try:
        code, out, err = run(capsys, ["ideal", "--ell", "1000001"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert err == "error: --ell: 1000001 is not an odd prime\n"


def test_ideal_units_fixture(capsys, tmp_path):
    # the plus quotient of conductor 7 has three cosets s1+, s2+, s3+
    fixture = tmp_path / "units.json"
    fixture.write_text(
        '{"schema-version": 1, "kind": "units", "lattice": '
        '{"ambient": ["s1+", "s2+", "s3+"], "denominator": 1, '
        '"columns": [[1, 0, 0], [0, 2, 0], [0, 0, 2]]}}')
    code, report = run_json(
        capsys, ["ideal", "--ell", "7", "--part", "plus",
                 "--units", str(fixture)])
    assert code == 0
    assert report["inputs"]["units"] == str(fixture)
    plus = '"ambient": ["s1+", "s2+", "s3+"], "denominator": 1'
    cases = [
        ('"ambient": ["s1", "s2", "s3"], "denominator": 1, '
         '"columns": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]', "lattice.ambient"),
        ('"ambient": 5, "denominator": 1, "columns": []', "lattice.ambient"),
        ('"ambient": ["s1+", "s2+", "s3+"], "denominator": true, '
         '"columns": [[1, 0, 0]]', "denominator"),
        # a float entry is refused, never truncated to an integer
        (plus + ', "columns": [[1, 0, 0], [0, 2.7, 0], [0, 0, 2]]',
         "column 1"),
        (plus + ', "columns": [[1, 0, 0], [0, 2, 0], [0, 0, "x"]]',
         "column 2"),
        (plus + ', "columns": 5', "lattice.columns"),
        (plus + ', "columns": [[1, 0, 0], 7]', "column 1"),
    ]
    bad = tmp_path / "bad.json"
    for body, needle in cases:
        bad.write_text('{"schema-version": 1, "kind": "units", '
                       '"lattice": {%s}}' % body)
        code, out, err = run(capsys, ["ideal", "--ell", "7", "--part", "plus",
                                      "--units", str(bad)])
        assert code == 2, body
        assert out == ""
        assert err.startswith("error: ") and needle in err, (needle, err)


@pytest.mark.parametrize("argv", [
    ["--ell", "5", "--level", "2", "--part", "minus"],
    ["--ell", "11", "--level", "1", "--part", "minus"],
    ["--ell", "61", "--part", "minus", "--r", "-1"],
    ["--ell", "3", "--level", "4", "--part", "minus"],
])
def test_ideal_large_minus_parts_finish(capsys, argv):
    # sizes (phi = 100, 110, 60, 162) whose canonical form once took minutes
    started = time.perf_counter()
    code, report = run_json(capsys, ["ideal"] + argv)
    assert time.perf_counter() - started < 5.0
    assert code == 0
    # the printed lattice is already canonical: canonicalizing it again
    # reproduces it
    assert lattice_payload(parse_lattice(report["lattice"])) == report["lattice"]


def test_certified_brauer_maps_finish(capsys):
    # S4 (order 24) once took a minute to certify, when each induced
    # representation was a dense matrix of cyclotomic numbers
    s4 = Path(__file__).parent / "golden" / "s4.txt"
    started = time.perf_counter()
    code, report = run_json(capsys, ["brauer-map", "--cayley", str(s4),
                                     "--certify"])
    assert time.perf_counter() - started < 3.0
    assert code == 0
    assert report["duality"]["passed"] and report["duality"]["checked"] == 420
    started = time.perf_counter()
    code, report = run_json(capsys, ["check", "--suite", "brauer"])
    assert time.perf_counter() - started < 0.5
    assert code == 0 and report["passed"] and report["checks"] == 12


def test_oracles_to_modulus_60_finish(capsys):
    # every character sum is one integer accumulator reduced once; with a
    # cyclotomic product per term this suite took 41-49 s
    started = time.perf_counter()
    code, report = run_json(capsys, ["check", "--suite", "oracles",
                                     "--max-modulus", "60"])
    assert time.perf_counter() - started < 5.0
    assert code == 0 and report["passed"]


def test_integrality_suite_finishes():
    # the torsion annihilator at m = 49 closes 43 generators under 42
    # translates; as Fraction vectors and group-ring products this took
    # 1.2-1.4 s in-process
    started = time.perf_counter()
    results = integrality_suite()
    assert time.perf_counter() - started < 1.0
    assert all(r.passed for r in results)


def test_brauer_map_builtin(capsys):
    code, report = run_json(capsys, ["brauer-map", "--group", "S3",
                                     "--certify"])
    assert code == 0
    assert report["rank"] == 3
    assert report["injective"] is True
    assert report["class-labels"] == ["e", "(23)", "(123)"]
    assert report["duality"] == {"passed": True, "checked": 36,
                                 "witness": None}


def test_brauer_map_cayley_file(capsys, tmp_path):
    path = tmp_path / "s3.txt"
    path.write_text(to_cayley_text(symmetric3()))
    code, report = run_json(capsys, ["brauer-map", "--cayley", str(path)])
    assert code == 0
    assert report["rank"] == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("e a\na a\n")
    code, out, err = run(capsys, ["brauer-map", "--cayley", str(bad)])
    assert code == 2
    assert "--cayley" in err


@pytest.mark.parametrize("text, message", [
    ("2\n0 1\n1\n", "row 1 has 1 entries, expected 2"),
    ("2\n0 1\n1 2\n", "row 1: entry 2 is outside 0..1"),
    ("0\n", "order 0; the order must be at least 1"),
    ("-3\n", "order -3; the order must be at least 1"),
    ("2\n0 1\n1 0\na b\nc d\n",
     "2 lines after the table rows; only one, the labels, may follow them"),
    ("2\n0 1\n1 0\na a\n", "duplicate label 'a'"),
    ("2\n0 1\n1 0\na b c\n", "3 labels for 2 elements"),
    ("two\n0 1\n1 0\n", "order 'two' is not an integer"),
    ("2\n0 1\n1 x\n", "row 1: entry 'x' is not an integer"),
], ids=["short-row", "entry-out-of-range", "order-0", "order-negative",
        "extra-lines", "duplicate-labels", "label-count", "order-not-integer",
        "entry-not-integer"])
def test_malformed_cayley_table(capsys, tmp_path, text, message):
    # checked in-process and under python -O, which strips asserts
    path = tmp_path / "table.txt"
    path.write_text(text)
    expected = (2, "", "error: --cayley: %s\n" % message)
    assert run(capsys, ["brauer-map", "--cayley", str(path)]) == expected
    proc = run_python("-O", "-m", "galideal.cli", "brauer-map", "--cayley",
                      str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_cayley_order_budget(capsys, tmp_path):
    # a valid table above the subgroup budget is refused before any
    # subgroup is enumerated, also under python -O
    path = tmp_path / "c33.txt"
    path.write_text(to_cayley_text(cyclic_group(33)))
    data = tmp_path / "data.json"
    data.write_text(COVARIANT_S3)
    expected = (2, "", "error: --cayley: order budget exceeded: 33 > 32\n")
    assert run(capsys, ["brauer-map", "--cayley", str(path)]) == expected
    assert run(capsys, ["nc-ideal", "--cayley", str(path),
                        "--data", str(data)]) == expected
    proc = run_python("-O", "-m", "galideal.cli", "brauer-map", "--cayley",
                      str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("what, argv", [
    ("--cayley file", ["brauer-map", "--cayley", "{path}"]),
    ("fixture file", ["nc-ideal", "--group", "S3", "--data", "{path}"]),
    ("fixture file", ["ideal", "--ell", "7", "--units", "{path}"]),
], ids=["cayley", "data", "units"])
def test_non_utf8_input_file(capsys, tmp_path, what, argv):
    path = tmp_path / "input"
    path.write_bytes(b"2\n0 1\n1 0\n\xff\xfe\n")
    code, out, err = run(capsys, [a.format(path=path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: %s %r is not UTF-8 text: " % (what, str(path)))
    assert err.count("\n") == 1


_SMALL_GROUPS = [cyclic_group(n) for n in range(1, 7)] + [
    product_cyclic(2, 2), symmetric3()]
_TOKENS = st.one_of(st.integers(-2, 7).map(str),
                    st.sampled_from(["x", "1.5", "+1", "0x1", "--", ""]))


@st.composite
def cayley_texts(draw):
    # (text, valid): a random table of order <= 6, or a valid one with its
    # elements renumbered and then 0-3 token or line mutations
    if draw(st.booleans()):
        n = draw(st.integers(-1, 6))
        entries = st.integers(0, max(n - 1, 0)).map(str)
        rows = [[str(n)]] + [draw(st.lists(entries, min_size=n, max_size=n))
                             for _ in range(n)]
        if draw(st.booleans()):
            rows.append(draw(st.lists(st.sampled_from("abcde"), max_size=7)))
        return "\n".join(" ".join(r) for r in rows) + "\n", False
    G = draw(st.sampled_from(_SMALL_GROUPS))
    sigma = draw(st.permutations(range(G.order)))
    table = [[None] * G.order for _ in range(G.order)]
    for a in G.elements:
        for b in G.elements:
            table[sigma[a]][sigma[b]] = str(sigma[G.op(a, b)])
    labels = [None] * G.order
    for a in G.elements:
        labels[sigma[a]] = G.label(a)
    rows = [[str(G.order)]] + table + [labels]
    mutations = draw(st.integers(0, 3))
    for _ in range(mutations):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["token", "drop-token", "drop-line",
                                     "copy-line"]))
        if kind == "drop-line":
            del rows[i]
        elif kind == "copy-line":
            rows.insert(i, list(rows[i]))
        elif rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            if kind == "token":
                rows[i][j] = draw(_TOKENS)
            else:
                del rows[i][j]
        if not rows:
            break
    return "\n".join(" ".join(r) for r in rows) + "\n", mutations == 0


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cayley_texts())
def test_cayley_certify_fuzz(capsys, tmp_path, case):
    # any table text: exit 0 or 1 with a JSON report, or exit 2 with an
    # error line naming --cayley; never a traceback
    text, valid = case
    path = tmp_path / "table.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["brauer-map", "--cayley", str(path),
                                  "--certify"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert re.fullmatch(r"error: --cayley: \S[^\n]*\n", err)
    else:
        assert err == ""
        report = json.loads(out)
        assert (code == 0) == (report["injective"]
                               and report["duality"]["passed"])
    if valid:
        assert code == 0


def test_brauer_map_needs_exactly_one_source(capsys):
    code, out, err = run(capsys, ["brauer-map"])
    assert code == 2 and "exactly one" in err
    code, out, err = run(capsys, ["brauer-map", "--group", "S3",
                                  "--cayley", "x"])
    assert code == 2 and "exactly one" in err
    code, out, err = run(capsys, ["brauer-map", "--group", "S99"])
    assert code == 2 and "unknown group" in err


def test_nc_ideal_covariant_passes(capsys, tmp_path):
    path = tmp_path / "data.json"
    path.write_text(COVARIANT_S3)
    code, report = run_json(capsys, ["nc-ideal", "--group", "S3",
                                     "--data", str(path)])
    assert code == 0
    assert report["two-sided"] == {"passed": True, "witness": None}
    assert len(report["generators"]) == 3


def test_nc_ideal_control_fails_with_exit_1(capsys, tmp_path):
    path = tmp_path / "data.json"
    path.write_text(SINGLE_S3)
    code, report = run_json(capsys, ["nc-ideal", "--group", "S3",
                                     "--data", str(path)])
    assert code == 1
    assert report["two-sided"]["passed"] is False
    assert report["two-sided"]["witness"] == ["(23)", 0]


def test_nc_ideal_fixture_diagnostics(capsys, tmp_path):
    cases = [
        ('{"schema-version": 1, "kind": "annihilator-data", "ell": 3, '
         '"data": [{"subgroup": ["e", "(123)"], "alpha": {"e": "1"}, '
         '"beta": {"e": "1"}}]}', "data[0].subgroup"),
        ('{"schema-version": 1, "kind": "annihilator-data", "ell": 3, '
         '"data": [{"subgroup": ["e", "(12)"], "alpha": {"zz": "1"}, '
         '"beta": {"e": "1"}}]}', "data[0].alpha"),
        ('{"schema-version": 1, "kind": "annihilator-data", "ell": 3, '
         '"data": [{"subgroup": ["e", "(12)"], "alpha": {"(123)": "1"}, '
         '"beta": {"e": "1"}}]}',
         "error: field 'data[0].alpha': element (123) lies outside the "
         "subgroup"),
        ('{"schema-version": 1, "kind": "annihilator-data", "ell": 3, '
         '"data": [{"subgroup": ["e", "(12)"], "alpha": {"e": "1"}, '
         '"beta": {"(13)": "1"}}]}', "field 'data[0].beta'"),
        ('{"schema-version": 1, "kind": "annihilator-data", "ell": 3, '
         '"data": []}', "'data'"),
        ('{"schema-version": 1, "kind": "annihilator-data", '
         '"data": [1]}', "'ell'"),
        ('{"schema-version": 1, "kind": "units", "ell": 3, "data": []}',
         "'kind'"),
        ('{"kind": "annihilator-data"}', "schema-version"),
        (SINGLE_S3.replace('"e": "1", "(12)"', '"e": 0.5, "(12)"'),
         "error: field 'data[0].alpha[e]' must be a fraction string"),
    ] + [(COVARIANT_S3.replace('"ell": 3', '"ell": ' + ell),
          "field 'ell' must be an odd prime") for ell in ("4", "2", "true")]
    for text, needle in cases:
        path = tmp_path / "f.json"
        path.write_text(text)
        code, out, err = run(capsys, ["nc-ideal", "--group", "S3",
                                      "--data", str(path)])
        assert code == 2, text
        assert needle in err, (needle, err)


def test_nc_ideal_rejects_non_integral_datum(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(
        '{"schema-version": 1, "kind": "annihilator-data", "ell": 3, '
        '"data": [{"subgroup": ["e", "(12)"], "alpha": {"e": "1/3"}, '
        '"beta": {"e": "1"}}]}')
    code, out, err = run(capsys, ["nc-ideal", "--group", "S3",
                                  "--data", str(path)])
    assert code == 2
    assert "not 3-integral" in err


GOLDEN = Path(__file__).parent / "golden"
_FIXTURE_COMMANDS = {
    "annihilator-s3.json": ["nc-ideal", "--group", "S3", "--data"],
    "units-49.json": ["ideal", "--ell", "7", "--level", "1", "--part",
                      "plus", "--units"],
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
    | st.floats() | st.text(max_size=6)
    | st.sampled_from(["e", "(12)", "(123)", "s1+", "1/3", "-2", "1/0",
                       "units", "annihilator-data", 0, 1, 2, 3,
                       1000000000000000003, 2 ** 89 - 1]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6)


def _nodes(tree, path=()):
    # (path, node) for every node of a parsed JSON tree, the root first
    yield path, tree
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def malformed_fixtures(draw):
    # (fixture name, text): a golden fixture with one node replaced by a
    # random JSON value, or one key dropped from or added to an object
    name = draw(st.sampled_from(sorted(_FIXTURE_COMMANDS)))
    tree = json.loads((GOLDEN / name).read_text())
    nodes = list(_nodes(tree))
    objects = [node for _, node in nodes if isinstance(node, dict)]
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        path, _ = draw(st.sampled_from(nodes))
        value = draw(_JSON_VALUES)
        if not path:
            tree = value
        else:
            parent = tree
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
    else:
        node = draw(st.sampled_from(objects))
        if action == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            key = draw(st.text(max_size=8) | st.sampled_from(
                ["ell", "kind", "lattice", "data", "subgroup", "alpha",
                 "columns", "denominator", "ambient"]))
            node[key] = draw(_JSON_VALUES)
    return name, json.dumps(tree)


def _raise_timeout(signum, frame):
    raise TimeoutError("the command ran past 10 s")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=malformed_fixtures())
@example(case=("annihilator-s3.json", COVARIANT_S3.replace(
    '["e", "(12)"]', '[["e"]]')))
@example(case=("annihilator-s3.json", COVARIANT_S3.replace(
    '"ell": 3', '"ell": 1000000000000000003')))
def test_malformed_fixture_fuzz(capsys, tmp_path, case):
    # any fixture one mutation away from a good one: exit 0 or 1 with a
    # JSON report, or exit 2 with one error line; never a traceback, and
    # never an open-ended run
    name, text = case
    path = tmp_path / name
    path.write_text(text)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(10)
    try:
        code, out, err = run(capsys, _FIXTURE_COMMANDS[name] + [str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert re.fullmatch(r"error: \S[^\n]*\n", err)
    else:
        assert err == ""
        json.loads(out)


@pytest.mark.parametrize("argv, flag", [
    (["stickelberger", "--modulus", "7", "--s", "infty,7,%d" % (2 ** 89 - 1)],
     "--s"),
    (["check", "--suite", "functoriality", "--ell", str(2 ** 89 - 1)],
     "--ell"),
])
def test_prime_past_the_test_bound_is_refused(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: cannot decide" % flag)
    assert "3317044064679887385961981" in err


def test_usage_errors_exit_2(capsys):
    code, out, err = run(capsys, ["stickelberger"])
    assert code == 2 and "--modulus is required" in err
    code, out, err = run(capsys, ["stickelberger", "--modulus", "6",
                                  "--s", "infty"])
    assert code == 2 and "every prime dividing" in err
    code, out, err = run(capsys, ["stickelberger", "--modulus", "7",
                                  "--s", "infty,x"])
    assert code == 2 and "--s" in err
    code, out, err = run(capsys, ["stickelberger", "--modulus", "7",
                                  "--r", "1"])
    assert code == 2 and "non-positive" in err
    code, out, err = run(capsys, ["ideal", "--ell", "3", "--part", "minus",
                                  "--r", "1"])
    assert code == 2
    assert err == "error: --r must be a non-positive integer\n"
    code, out, err = run(capsys, ["lvalue", "--modulus", "5", "--char", "7"])
    assert code == 2 and "--char" in err
    code, out, err = run(capsys, [])
    assert code == 2


_BIG_PRIME = 2 ** 89 - 1  # above PRIME_TEST_BOUND, no prime factor <= 41


@pytest.mark.parametrize("argv, message", [
    (["stickelberger", "--modulus", "0"],
     "--modulus must be a positive integer"),
    (["lvalue", "--modulus", "0", "--char", "0"],
     "--modulus must be a positive integer"),
    (["lvalue", "--modulus", "7", "--char", "0", "--r", "1"],
     "--r must be a non-positive integer"),
    (["ideal", "--ell", "7", "--level", "-1"],
     "--level must be a non-negative integer"),
    (["ideal", "--ell", "7", "--part", "minus", "--units", "{units}"],
     "--units only applies to parts built from the real half"),
    (["brauer-map", "--cayley", "{missing}"], "cannot read --cayley file: "),
    (["nc-ideal", "--group", "S3", "--data", "{missing}"],
     "cannot read fixture file: "),
    (["nc-ideal", "--group", "S3", "--data", "{big_ell}"],
     "field 'ell': cannot decide whether %d is prime" % _BIG_PRIME),
    (["nc-ideal", "--group", "S3", "--data", "{scalar_datum}"],
     "field 'data[0]' must be an object"),
    (["ideal", "--ell", "7", "--level", "1", "--part", "plus", "--units",
      "{scalar_lattice}"], "field 'lattice' must be an object"),
], ids=["stickelberger-modulus", "lvalue-modulus", "lvalue-r", "ideal-level",
        "minus-units", "cayley-unreadable", "data-unreadable", "data-big-ell",
        "data-scalar-datum", "units-scalar-lattice"])
def test_refusal_is_one_error_line(capsys, tmp_path, argv, message):
    units = json.loads((GOLDEN / "units-49.json").read_text())
    files = {
        "units": GOLDEN / "units-49.json",
        "missing": tmp_path / "missing.json",
        "big_ell": COVARIANT_S3.replace('"ell": 3', '"ell": %d' % _BIG_PRIME),
        "scalar_datum": COVARIANT_S3.replace(
            '"data": [', '"data": [1, ', 1),
        "scalar_lattice": json.dumps(dict(units, lattice=1)),
    }
    for key in ("big_ell", "scalar_datum", "scalar_lattice"):
        path = tmp_path / (key + ".json")
        path.write_text(files[key])
        files[key] = path
    code, out, err = run(capsys, [a.format(**files) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1  # one line, no traceback


def test_brauer_map_uncertified_exits_1(capsys, monkeypatch):
    table = brauer._monomial_table

    def moved_identity(G, rec):
        # the identity swaps two cosets of the trivial subgroup
        mats = table(G, rec)
        perm = mats[G.identity][0]
        if len(perm) > 1:
            perm[0], perm[1] = perm[1], perm[0]
        return mats

    monkeypatch.setattr(brauer, "_monomial_table", moved_identity)
    code, report = run_json(capsys, ["brauer-map", "--group", "S3",
                                     "--certify"])
    assert code == 1
    assert report["injective"] is True
    assert report["duality"] == {"passed": False, "checked": 0,
                                 "witness": [0, 0, "identity"]}


def test_unknown_flag_exits_2(capsys):
    # neither --family nor --config is a flag: one error line naming it,
    # exit 2, never a SystemExit
    for argv, flag in ((["stickelberger", "--modulus", "7", "--frobnicate"],
                        "--frobnicate"),
                       (["ideal", "--family", "cyclotomic", "--ell", "3"],
                        "--family"),
                       (["--config", "f", "check"], "--config")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and flag in err, argv
        assert err.count("\n") == 1, argv


def build_parser():
    # the argparse parser `main` used before it read argv against the flag
    # table itself; kept as the reference the differential test compares
    # parse_argv with
    top = argparse.ArgumentParser(
        prog="galideal",
        description="exact fractional Galois ideal computations")
    subs = top.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, flags in _FLAGS.items():
        sub = subs.add_parser(name, help=_HELP[name])
        for key, kind in flags.items():
            if kind is bool:
                sub.add_argument("--" + key, action="store_true",
                                 default=None)
            else:
                sub.add_argument("--" + key, type=kind, default=None)
    return top


def reference_parse(argv):
    # (exit code, vars) of the argparse reference: code None when it parsed
    # a subcommand; 2 also when it parsed none, which `main` refused
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit as e:
            return e.code, None
    return (None, args) if args["subcommand"] is not None else (2, None)


_NAMES = sorted({key for flags in _FLAGS.values() for key in flags} | {"help"})
_VALUES = st.one_of(st.integers(-20, 20).map(str), st.sampled_from(
    ["-1.5", "infty,7", "infty", "x", "S3", "rank", "", " 5", "+2"]))
_NOISE = st.one_of(_VALUES, st.sampled_from(
    list(_FLAGS) + ["nosuch", "stick", "-h", "--help", "--", "-", "-x", "",
                    "-hh", "--=1", "-1, 2", "word"]))


@st.composite
def _flag(draw, names):
    # a flag of `names` or a prefix of one, alone, with a value, or "=value"
    name = draw(st.sampled_from(names))
    flag = "--" + name[:draw(st.integers(1, len(name)))]
    value = draw(_VALUES)
    return draw(st.sampled_from([[flag], [flag, value],
                                 ["%s=%s" % (flag, value)]]))


@st.composite
def argvs(draw):
    # mostly a subcommand and its own flags, with flags of other
    # subcommands and noise tokens (help, "--", stray words) mixed in
    command = draw(st.sampled_from(list(_FLAGS)))
    own = sorted(_FLAGS[command]) + ["help"]
    parts = draw(st.lists(st.one_of(_flag(own), _flag(own), _flag(_NAMES),
                                    _NOISE.map(lambda t: [t])), max_size=5))
    head = draw(st.sampled_from([[command], [command], [], [draw(_NOISE)]]))
    return head + [token for part in parts for token in part]


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_parse_matches_argparse_reference(capsys, argv):
    # where argparse parsed, the same namespace; where it exited 2, one
    # error line and exit 2; where it printed help, exit 0
    code, expected = reference_parse(argv)
    if code is None:
        assert vars(parse_argv(argv)) == expected
        return
    got = main(argv)
    out, err = capsys.readouterr()
    assert got == code, (argv, out, err)
    if code == 2:
        assert out == "" and err.startswith("error: "), (argv, err)
    else:
        assert out.startswith("usage: galideal") and err == "", argv


@pytest.mark.parametrize("argv, expected", [
    (["stickelberger", "--mod", "7", "--r", "-1"],
     {"modulus": 7, "s": None, "r": -1}),
    (["stickelberger", "--modulus=7", "--s=infty,7", "--modulus", "9"],
     {"modulus": 9, "s": "infty,7", "r": None}),
    (["brauer-map", "--cert", "--group", "S3"],
     {"group": "S3", "cayley": None, "certify": True}),
    (["check", "--max", "-1", "--su", "oracles"],
     {"suite": "oracles", "ell": None, "levels": None, "r": None,
      "seed": None, "count": None, "max_modulus": -1}),
])
def test_flag_grammar(argv, expected):
    # --flag VALUE, --flag=VALUE, unique prefixes, the last of a repeated
    # flag and negative numbers as values
    assert vars(parse_argv(argv)) == dict(expected, subcommand=argv[0])


@pytest.mark.parametrize("argv, message", [
    ([], "error: no subcommand given"),
    (["theta"], "error: unknown subcommand 'theta'"),
    (["check", "--s", "rank"], "error: ambiguous flag --s: could be "
                               "--suite, --seed"),
    (["stickelberger", "--modulus"], "error: --modulus needs a value"),
    (["stickelberger", "--modulus", "--r", "0"],
     "error: --modulus needs a value"),
    (["stickelberger", "--modulus", "7", "12"], "error: stray token '12'"),
    (["stickelberger", "--modulus", "--", "7"],
     "error: --modulus needs a value"),
    (["lvalue", "--char", "1/2"], "error: --char: '1/2' is not an integer"),
    (["brauer-map", "--certify=yes"],
     "error: --certify takes no value, got 'yes'"),
])
def test_usage_error_names_the_token(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("argv, command", [
    (["-h"], None), (["--he"], None), (["check", "-h"], "check"),
    (["-x", "lvalue", "--help", "--frob"], "lvalue")])
def test_help_prints_to_stdout_and_exits_0(capsys, argv, command):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: galideal")
    for name in _FLAGS[command] if command else _FLAGS:
        assert name in out


def test_cli_import_loads_no_argparse():
    # building argparse's parser tree cost 3-4 ms of every CLI call; the
    # package must not pull it (or gettext, its locale lookup) back in
    proc = run_python(
        "-c", "import sys, galideal.cli; "
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
