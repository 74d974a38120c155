"""Exact engine for Wigner representations of convex operational theories.

Everything is computed over exact rationals: state spaces (polytopes
and balls), observables, compatibility, Wigner representation families,
positivity/faithfulness, lifted and transported symmetries, and the
covariant-uniqueness solver with machine-checkable certificates.

Importing the package loads none of its modules (PEP 562): a public name
loads its defining module when it is first used, and is read from that
module on every access, so ``wignerlab.lp_feasible`` is always
``exact.lp_feasible``.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it contributes
_EXPORTS = {
    "exact": (
        "Feasible", "Infeasible", "LinearProgram", "Matrix", "QQ",
        "lp_feasible", "rank", "solve_affine", "verify_certificate",
    ),
    "geometry": (
        "AffineFunctional", "AffineMap", "Ball", "ExtremalValue", "Polytope",
        "affine_basis", "contains", "dimension", "extremal_range", "map_into",
    ),
    "theory": (
        "Channel", "Compatible", "Distribution", "Incompatible", "Observable",
        "Theory", "are_compatible", "are_complementary", "find_channel",
        "is_surjective", "jointly_info_complete", "measure", "validate",
    ),
    "wigner": (
        "SignedGrid", "WignerRep", "check_marginals", "construct_family",
        "degenerate_rep", "evaluate", "faithful_choice_possible",
        "faithful_member", "is_faithful", "is_positive", "isomorphism",
        "perturb", "positive_member",
    ),
    "symmetry": (
        "LiftedMap", "PhasePointMap", "ProductGroupElement",
        "enumerate_lifted_symmetries", "find_permutation_channels",
        "find_symmetry_for_channel", "find_transported_channel",
        "induced_action", "is_g_symmetric", "is_symmetry", "lift",
        "solve_covariant",
    ),
}
# public name -> full name of its defining module
_ORIGIN = {
    name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names
}
_SUBMODULES = (
    "catalog", "cli", "errors", "exact", "geometry", "plot", "report",
    "symmetry", "theory", "theoryfile", "wigner",
)

__all__ = sorted(_ORIGIN) + list(_SUBMODULES)


def __getattr__(name):
    origin = _ORIGIN.get(name)
    if origin is not None:
        # sys.modules first: code that calls ``wignerlab.<name>`` in a loop
        # then pays a dict lookup per access, not an import_module call
        return getattr(sys.modules.get(origin) or import_module(origin), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
