# Command-line surface.  Every subcommand prints one deterministic JSON
# report to stdout (canonical key order, exact fraction strings, no
# floats).  Exit codes: 0 = success and all requested checks pass, 1 = a
# check failed, 2 = usage error or malformed input (the diagnostic names
# the offending flag/field).

import re
import sys
from types import SimpleNamespace

from .abelian import unit_group
from .brauer import (BUILTIN_GROUPS, bgstar, check_order_budget,
                     duality_certificate, from_cayley_text, record_index,
                     subgroup_lattice)
from .cycloideal import (CyclotomicLevel, ideal_J_full, ideal_J_imagquad,
                         ideal_J_minus, ideal_J_real, plus_quotient)
from .dirichlet import PlaceSet, is_prime, l_value
from .lattice import group_labels
from .ncideal import (AnnihilatorDatum, IntegralityError, nc_ideal,
                      two_sided_check)
from .serialize import (FixtureError, element_payload, fraction_str,
                        lattice_payload, load_fixture, parse_element,
                        parse_lattice, to_json)
from .stickelberger import ramified_places, stickelberger
from .suites import SUITES, check_params, run_all


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# flag table

_FLAGS = {
    "stickelberger": {"modulus": int, "s": str, "r": int},
    "lvalue": {"modulus": int, "char": int, "r": int, "s": str},
    "ideal": {"ell": int, "level": int, "r": int, "part": str,
              "units": str},
    "brauer-map": {"group": str, "cayley": str, "certify": bool},
    "nc-ideal": {"group": str, "cayley": str, "data": str},
    "check": {"suite": str, "ell": int, "levels": int, "seed": int,
              "max-modulus": int},
}

_HELP = {
    "stickelberger": "Stickelberger element of conductor m at s = r",
    "lvalue": "one Dirichlet L-value L_S(r, chi) as an exact number",
    "ideal": "a cyclotomic fractional ideal as an integer lattice",
    "brauer-map": "component map out of the conjugacy-class space",
    "nc-ideal": "two-sided ideal from annihilator data over a finite group",
    "check": "run a named check suite (or all of them)",
}


def _dest(key):
    return key.replace("-", "_")


_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _read(token, names):
    # How argparse reads one token against the flag names `names` (help
    # among them): None for a value, else (name, the text after "=" or
    # None), with name None for an unknown flag.  A unique prefix names its
    # flag; "-h" may repeat ("-hh"); a negative number is a value.
    if token[:1] != "-" or token == "-":
        return None
    if token.startswith("--"):
        head, eq, tail = token[2:].partition("=")
        hits = [head] if head in names else [n for n in names
                                              if n.startswith(head)]
        if len(hits) > 1:
            raise UsageError("ambiguous flag %s: could be --%s"
                             % (token, ", --".join(hits)))
        if hits:
            return hits[0], tail if eq else None
    elif token[1] == "h":
        tail = token[3:] if token[2:3] == "=" else token[2:] or None
        return "help", None if tail and not tail.strip("h") else tail
    if _NUMBER.match(token) or " " in token:
        return None
    return None, None


def _help(command=None):
    if command is None:
        rows = ["  %-14s %s" % (name, _HELP[name]) for name in _FLAGS]
        return ("usage: galideal SUBCOMMAND [--flag VALUE | --flag=VALUE] ..."
                " [--help]\n\n" + "\n".join(rows) + "\n")
    flags = " ".join("[--%s]" % key if kind is bool else "[--%s %s]"
                     % (key, kind.__name__.upper())
                     for key, kind in _FLAGS[command].items())
    return "usage: galideal %s %s [--help]\n\n%s\n" % (command, flags,
                                                      _HELP[command])


def parse_argv(argv):
    # argv -> a namespace of `subcommand` and each of its flags (None when
    # not given; a repeated flag keeps its last value), or the help text.
    # Reads what argparse read: "--flag VALUE", "--flag=VALUE" and unique
    # prefixes.  An ambiguous flag is refused before anything is read; an
    # unknown flag or stray token only at the end, so a later --help wins.
    args, flags, names, stray = None, {}, ["help"], []
    cut = argv.index("--") if "--" in argv else len(argv)
    i = 0
    while i < len(argv):
        token, i = argv[i], i + 1
        read = _read(token, names) if i <= cut else False
        if read is None and args is None:
            if token not in _FLAGS:
                raise UsageError(stray[0] if stray else "unknown subcommand "
                                 "%r (have: %s)" % (token, ", ".join(_FLAGS)))
            flags, names = _FLAGS[token], [*_FLAGS[token], "help"]
            args = SimpleNamespace(subcommand=token,
                                   **{_dest(key): None for key in flags})
            for later in argv[i:cut]:
                _read(later, names)
        elif not read:
            stray.append("stray token %r" % token)
        elif read[0] is None:
            stray.append("%s is not a flag of %s" % (
                token, args.subcommand if args else "galideal"))
        else:
            name, value = read
            kind = flags.get(name, bool)
            if kind is bool and value is not None:
                raise UsageError("--%s takes no value, got %r" % (name, value))
            if name == "help":
                return _help(args and args.subcommand)
            if kind is bool:
                value = True
            elif value is None:
                if i == cut or _read(argv[i], names) is not None:
                    raise UsageError("--%s needs a value" % name)
                value, i = argv[i], i + 1
            try:
                setattr(args, _dest(name), kind(value))
            except ValueError:
                raise UsageError("--%s: %r is not an integer" % (name, value))
    if stray or args is None:
        raise UsageError(stray[0] if stray else "no subcommand given "
                         "(have: %s)" % ", ".join(_FLAGS))
    return args


def read_text(path, what):
    # the whole file as UTF-8 text; a file that cannot be read or decoded is
    # a usage error naming `what`
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (what, e))
    except UnicodeDecodeError as e:
        raise UsageError("%s %r is not UTF-8 text: %s" % (what, path, e))


def require(args, *keys):
    for key in keys:
        if getattr(args, _dest(key)) is None:
            raise UsageError("--%s is required" % key)


# ---------------------------------------------------------------------------
# shared pieces

def parse_places(text):
    # "infty,7" -> PlaceSet([7]); the infinite place is always implied
    primes = []
    for token in text.split(","):
        token = token.strip()
        if not token or token == "infty":
            continue
        if not token.isdigit():
            raise UsageError("--s: %r is not 'infty' or a prime" % token)
        primes.append(int(token))
    try:
        return PlaceSet(primes)
    except ValueError as e:
        raise UsageError("--s: %s" % e)


def places_text(places):
    return ",".join(["infty"] + [str(p) for p in sorted(places.primes)])


def cyclotomic_payload(v):
    if v.is_rational():
        return fraction_str(v.nums[0], v.den)
    return {"root-of-unity-order": v.order,
            "coordinates": [fraction_str(a, v.den) for a in v.nums]}


def load_group(args):
    if (args.group is None) == (args.cayley is None):
        raise UsageError("give exactly one of --group or --cayley")
    if args.group is not None:
        if args.group not in BUILTIN_GROUPS:
            raise UsageError("--group: unknown group %r (have: %s)"
                             % (args.group, ", ".join(sorted(BUILTIN_GROUPS))))
        return BUILTIN_GROUPS[args.group](), {"group": args.group}
    text = read_text(args.cayley, "--cayley file")
    try:
        G = from_cayley_text(text)
        check_order_budget(G)
    except ValueError as e:
        raise FixtureError("--cayley: %s" % e)
    return G, {"cayley": args.cayley}


def read_fixture(path, kind):
    return load_fixture(read_text(path, "fixture file"), kind)


# ---------------------------------------------------------------------------
# subcommands

def cmd_stickelberger(args):
    require(args, "modulus")
    m = args.modulus
    if m < 1:
        raise UsageError("--modulus must be a positive integer")
    places = ramified_places(m) if args.s is None else parse_places(args.s)
    r = 0 if args.r is None else args.r
    if r > 0:
        raise UsageError("--r must be a non-positive integer")
    if not places.covers_modulus(m):
        raise UsageError("--s must contain every prime dividing the modulus")
    report = {
        "command": "stickelberger",
        "inputs": {"modulus": m, "places": places_text(places), "r": r},
        "element": element_payload(stickelberger(m, places, r)),
    }
    return report, 0


def cmd_lvalue(args):
    require(args, "modulus", "char")
    m = args.modulus
    if m < 1:
        raise UsageError("--modulus must be a positive integer")
    g = unit_group(m)
    if not 0 <= args.char < g.order:
        raise UsageError("--char must lie in [0, %d) for modulus %d"
                         % (g.order, m))
    chi = g.character(args.char)
    r = 0 if args.r is None else args.r
    if r > 0:
        raise UsageError("--r must be a non-positive integer")
    places = ramified_places(m) if args.s is None else parse_places(args.s)
    value = l_value(r, chi, places)
    report = {
        "command": "lvalue",
        "inputs": {"modulus": m, "char": args.char, "r": r,
                   "places": places_text(places)},
        "value": cyclotomic_payload(value),
    }
    return report, 0


def cmd_ideal(args):
    require(args, "ell")
    part = args.part or "full"
    if part not in ("full", "minus", "plus", "imagquad"):
        raise UsageError("--part must be full, minus, plus, or imagquad")
    level_n = args.level or 0
    if level_n < 0:
        raise UsageError("--level must be a non-negative integer")
    try:
        lev = CyclotomicLevel(args.ell, level_n)
    except ValueError as e:
        raise UsageError("--ell: %s" % e)
    r = 0 if args.r is None else args.r
    if part != "minus" and args.r is not None:
        raise UsageError("--r only applies to --part minus")
    if r > 0:
        raise UsageError("--r must be a non-positive integer")
    units = None
    if args.units is not None:
        if part not in ("full", "plus", "imagquad"):
            raise UsageError("--units only applies to parts built from "
                             "the real half (full, plus, imagquad)")
        fixture = read_fixture(args.units, "units")
        if "lattice" not in fixture:
            raise FixtureError("fixture is missing the 'lattice' field")
        units = parse_lattice(fixture["lattice"], "lattice")
        want = group_labels(plus_quotient(lev.modulus))
        if units.labels != want:
            raise FixtureError("field 'lattice.ambient': expected the "
                               "plus-quotient labels %r" % (list(want),))
    try:
        if part == "minus":
            ideal = ideal_J_minus(lev, r)
        elif part == "plus":
            ideal = ideal_J_real(lev, units)
        elif part == "imagquad":
            ideal = ideal_J_imagquad(lev, units)
        else:
            ideal = ideal_J_full(lev, units)
    except ValueError as e:
        raise UsageError(str(e))
    inputs = {"family": "cyclotomic", "ell": args.ell, "level": level_n,
              "part": part}
    if part == "minus":
        inputs["r"] = r
    if args.units is not None:
        inputs["units"] = args.units
    report = {
        "command": "ideal",
        "inputs": inputs,
        "lattice": lattice_payload(ideal),
    }
    return report, 0


def cmd_brauer_map(args):
    G, echo = load_group(args)
    bmap = bgstar(G)
    rank = bmap.rank
    injective = rank == bmap.space.dimension
    report = {
        "command": "brauer-map",
        "inputs": dict(echo, certify=bool(args.certify)),
        "order": G.order,
        "class-labels": list(bmap.space.labels),
        "row-labels": list(bmap.long_labels()),
        "matrix": [list(row) for row in bmap.matrix],
        "rank": rank,
        "injective": injective,
    }
    code = 0 if injective else 1
    if args.certify:
        cert = duality_certificate(bmap)
        report["duality"] = {
            "passed": cert.passed,
            "checked": cert.checked,
            "witness": list(cert.witness) if cert.witness else None,
        }
        if not cert.passed:
            code = 1
    return report, code


def _parse_data_fixture(G, fixture):
    if "ell" not in fixture:
        raise FixtureError("fixture is missing the 'ell' field")
    ell = fixture["ell"]
    try:
        prime = type(ell) is int and ell != 2 and is_prime(ell)
    except ValueError as e:
        raise FixtureError("field 'ell': %s" % e)
    if not prime:
        raise FixtureError("field 'ell' must be an odd prime, got %r"
                           % (ell,))
    entries = fixture.get("data")
    if not isinstance(entries, list) or not entries:
        raise FixtureError("field 'data' must be a non-empty list")
    records = subgroup_lattice(G)
    by_label = {G.label(g): g for g in G.elements}
    data = []
    for i, entry in enumerate(entries):
        field = "data[%d]" % i
        if not isinstance(entry, dict):
            raise FixtureError("field %r must be an object" % field)
        labels = entry.get("subgroup")
        if not isinstance(labels, list):
            raise FixtureError("field '%s.subgroup' must be a list of "
                               "element labels" % field)
        members = []
        for lab in labels:
            if type(lab) is not str or lab not in by_label:
                raise FixtureError("field '%s.subgroup': unknown element "
                                   "label %r" % (field, lab))
            members.append(by_label[lab])
        try:
            rec = records[record_index(records, members)]
        except KeyError:
            raise FixtureError("field '%s.subgroup': not a subgroup of the "
                               "given group" % field)
        if "alpha" not in entry or "beta" not in entry:
            raise FixtureError("field %r needs 'alpha' and 'beta'" % field)
        pushed = []
        for part in ("alpha", "beta"):
            name = "%s.%s" % (field, part)
            x = parse_element(G, entry[part], name)
            try:
                pushed.append(rec.push(x))
            except ValueError as e:
                raise FixtureError("field '%s': %s" % (name, e))
        data.append(AnnihilatorDatum(rec, *pushed, ell))
    return ell, data


def cmd_nc_ideal(args):
    require(args, "data")
    G, echo = load_group(args)
    fixture = read_fixture(args.data, "annihilator-data")
    ell, data = _parse_data_fixture(G, fixture)
    try:
        ideal = nc_ideal(G, data)
    except IntegralityError as e:
        raise FixtureError("field 'data': %s" % e)
    verdict = two_sided_check(ideal)
    report = {
        "command": "nc-ideal",
        "inputs": dict(echo, data=args.data, ell=ell),
        "generators": [element_payload(x) for x in ideal.generators],
        "lattice": lattice_payload(ideal.lattice),
        "two-sided": {
            "passed": verdict.passed,
            "witness": list(verdict.witness) if verdict.witness else None,
        },
    }
    return report, 0 if verdict.passed else 1


def cmd_check(args):
    suite = args.suite or "all"
    params = {
        "ells": (args.ell,) if args.ell is not None else None,
        "levels": (args.levels,) if args.levels is not None else None,
        "seed": args.seed,
        "max_modulus": args.max_modulus,
    }
    if suite == "all":
        if any(v is not None for v in params.values()):
            raise UsageError("suite narrowing flags need a specific --suite")
        results = run_all()
    else:
        try:
            name, kwargs = check_params(suite, **params)
        except ValueError as e:
            raise UsageError(str(e))
        results = SUITES[name](**kwargs)
    inputs = {key: getattr(args, _dest(key)) for key in _FLAGS["check"]
              if getattr(args, _dest(key)) is not None}
    inputs["suite"] = suite
    failures = [r for r in results if not r.passed]
    report = {
        "command": "check",
        "inputs": inputs,
        "results": [{"suite": r.suite, "name": r.name,
                     "passed": r.passed, "detail": r.detail}
                    for r in results],
        "checks": len(results),
        "failures": len(failures),
        "passed": not failures,
    }
    return report, 0 if not failures else 1


_COMMANDS = {
    "stickelberger": cmd_stickelberger,
    "lvalue": cmd_lvalue,
    "ideal": cmd_ideal,
    "brauer-map": cmd_brauer_map,
    "nc-ideal": cmd_nc_ideal,
    "check": cmd_check,
}


def main(argv=None):
    try:
        args = parse_argv(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):
            sys.stdout.write(args)
            return 0
        report, code = _COMMANDS[args.subcommand](args)
    except (UsageError, FixtureError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.write(to_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
