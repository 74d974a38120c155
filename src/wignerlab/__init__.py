"""Exact engine for Wigner representations of convex operational theories.

Everything is computed over exact rationals: state spaces (polytopes
and balls), observables, compatibility, Wigner representation families,
positivity/faithfulness, lifted and transported symmetries, and the
covariant-uniqueness solver with machine-checkable certificates.
"""

from .exact import (
    Feasible,
    Infeasible,
    LinearProgram,
    Matrix,
    QQ,
    lp_feasible,
    rank,
    solve_affine,
    verify_certificate,
)
from .geometry import (
    AffineFunctional,
    AffineMap,
    Ball,
    ExtremalValue,
    Polytope,
    affine_basis,
    contains,
    dimension,
    extremal_range,
    map_into,
)
from .theory import (
    Channel,
    Compatible,
    Distribution,
    Incompatible,
    Observable,
    Theory,
    are_compatible,
    are_complementary,
    find_channel,
    is_surjective,
    jointly_info_complete,
    measure,
    validate,
)
from .wigner import (
    SignedGrid,
    WignerRep,
    check_marginals,
    construct_family,
    degenerate_rep,
    evaluate,
    faithful_choice_possible,
    faithful_member,
    is_faithful,
    is_positive,
    isomorphism,
    perturb,
    positive_member,
)
from .symmetry import (
    LiftedMap,
    PhasePointMap,
    ProductGroupElement,
    enumerate_lifted_symmetries,
    find_permutation_channels,
    find_symmetry_for_channel,
    find_transported_channel,
    induced_action,
    is_g_symmetric,
    is_symmetry,
    lift,
    solve_covariant,
)
from . import catalog

__version__ = "0.1.0"
