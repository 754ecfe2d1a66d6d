# Exact arithmetic for fractional Galois ideals over cyclotomic fields
# and small finite groups: Stickelberger elements, Dirichlet L-values at
# non-positive integers, group-ring lattices in Hermite form, functorial
# transfer maps, Brauer-induction components, and two-sided annihilator
# ideals.  Everything is computed over Q (fractions and roots of unity);
# no floating point is used anywhere.

__version__ = "0.1.0"

from .abelian import FiniteAbelianGroup, squares_subgroup, unit_group
from .brauer import (BUILTIN_GROUPS, FiniteGroup, bgstar, component_images,
                     duality_certificate, from_cayley_text, from_group,
                     nonabelian_J, subgroup_lattice, to_cayley_text)
from .cycloideal import (CyclotomicLevel, ideal_J_full, ideal_J_imagquad,
                         ideal_J_minus, ideal_J_real)
from .cyclotomic import CyclotomicNumber
from .dirichlet import PlaceSet, generalized_bernoulli, l_value
from .groupring import GroupRingElement
from .lattice import FractionalIdeal, canonicalize
from .ncideal import nc_ideal, subgroup_datum, two_sided_check
from .padic import torsion_annihilator
from .stickelberger import (base_change_element, half_stickelberger,
                            ramified_places, stickelberger)
from .suites import SUITES, run_all, run_suite

__all__ = [
    "BUILTIN_GROUPS",
    "CyclotomicLevel",
    "CyclotomicNumber",
    "FiniteAbelianGroup",
    "FiniteGroup",
    "FractionalIdeal",
    "GroupRingElement",
    "PlaceSet",
    "SUITES",
    "base_change_element",
    "bgstar",
    "canonicalize",
    "component_images",
    "duality_certificate",
    "from_cayley_text",
    "from_group",
    "generalized_bernoulli",
    "half_stickelberger",
    "ideal_J_full",
    "ideal_J_imagquad",
    "ideal_J_minus",
    "ideal_J_real",
    "l_value",
    "nc_ideal",
    "nonabelian_J",
    "ramified_places",
    "run_all",
    "run_suite",
    "squares_subgroup",
    "stickelberger",
    "subgroup_datum",
    "subgroup_lattice",
    "to_cayley_text",
    "torsion_annihilator",
    "two_sided_check",
    "unit_group",
]
