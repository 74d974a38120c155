"""The integer program constructors against the former Fraction rows.

Each constructor of ``wignerlab.programs`` must build the program that
the engine built from ``Fraction`` rows before (``reference_kernels``),
as ``LinearProgram ==`` compares it: the same rows, in the same order,
in the same integer form.  So the simplex pivots the same, and every
witness and certificate is the one it was.
"""

import itertools
import random

import reference_kernels as ref
from helpers import generalized_boxworld, random_theory
from wignerlab import catalog, programs, theory, wigner
from wignerlab.exact import LinearProgram
from wignerlab.geometry import Polytope
from wignerlab.symmetry import product_group_generators


def _theories():
    """Every polytope theory of the catalog, a generalized boxworld, and
    the random polygon theories of ``tests/helpers.py``."""
    out = [(name, catalog.load(name)) for name in catalog.CATALOG_NAMES]
    out = [(name, e.theory, e.representations) for name, e in out
           if isinstance(e.theory.state_space, Polytope)]
    out.append(("box23", generalized_boxworld(2, 3), {}))
    rng = random.Random(2718)
    for k in range(40):
        t = random_theory(rng, max_points=5)
        out.append((f"random{k}", t, {"degenerate": wigner.degenerate_rep(
            t.obs_a, t.obs_b, t.state_space)}))
    return out


THEORIES = _theories()


def test_compatibility_marginal_and_surjectivity_programs_are_the_fraction_ones():
    for _, t, _ in THEORIES:
        a, b, space = t.obs_a, t.obs_b, t.state_space
        assert programs.compatibility(a, b, space) == ref.compatibility_program(a, b, space)
        marginal = ref.marginal_equalities(a, b)
        assert programs.marginal_program(a, b) == LinearProgram(
            len(marginal[0][0]), marginal, ())
        for f in a.effects + b.effects:
            assert programs.surjectivity(f, space) == ref.surjectivity_program(f, space)


def test_channel_programs_are_the_fraction_ones():
    """The channel LP of every generator's permutation equations, and of
    the transport equations of every phase table of a small grid (the
    first 24 otherwise), fixed or free, feasible or not."""
    count = 0
    for _, t, reps in THEORIES:
        a, b, space = t.obs_a, t.obs_b, t.state_space
        systems = [programs.permutation_equations(a, b, g.perm_a, g.perm_b)
                   for g in product_group_generators(a.n_outcomes, b.n_outcomes)]
        for rep in reps.values():
            n = rep.shape[0] * rep.shape[1]
            for table in itertools.islice(itertools.permutations(range(n)), 24):
                systems.append(programs.transport_equations(rep, table))
        for equations in systems:
            lp = programs.channel_program(space, space,
                                          programs.channel_system(space, space, equations))
            assert lp == ref.channel_program(space, space, equations)
            count += 1
    assert count > 500


def test_the_engine_decides_on_the_constructors_programs():
    """``are_compatible``, ``surjectivity_details`` and ``find_channel``
    answer with the constructors' programs."""
    for _, t, _ in THEORIES[:12]:
        a, b, space = t.obs_a, t.obs_b, t.state_space
        assert theory.are_compatible(a, b, space).program == ref.compatibility_program(
            a, b, space)
        for f, (_, lp, _) in zip(a.effects, theory.surjectivity_details(a, space)):
            assert lp == ref.surjectivity_program(f, space)
        for g in product_group_generators(a.n_outcomes, b.n_outcomes):
            equations = programs.permutation_equations(a, b, g.perm_a, g.perm_b)
            result = theory.find_channel(space, space, equations)
            if isinstance(result, theory.ChannelInfeasible):
                assert result.program == ref.channel_program(space, space, equations)
