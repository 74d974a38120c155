"""Input guards of exact algebra, observables, Wigner grids and
phase-point maps: each malformed argument raises ``ValueError`` with the
message that names it, and each unmet precondition ``PreconditionError``."""

from fractions import Fraction as F

import pytest

from wignerlab.errors import PreconditionError
from wignerlab.exact import Matrix, solve_affine
from wignerlab.geometry import AffineFunctional, Ball, Polytope
from wignerlab.symmetry import PhasePointMap, ProductGroupElement
from wignerlab.theory import Distribution, Observable
from wignerlab.wigner import (
    SignedGrid, WignerRep, construct_family, isomorphism, positive_member,
)

X2 = AffineFunctional((1, 0), 0)
X3 = AffineFunctional((1, 0, 0), 0)
Y2 = AffineFunctional((0, 1), 0)
ONE2 = AffineFunctional.one(2)
M2 = Matrix.identity(2)
SQUARE = Polytope([(0, 0), (0, 1), (1, 0), (1, 1)])
OBS_A = Observable("A", (0, 1), (X2, ONE2 - X2))
OBS_B = Observable("B", (0, 1), (Y2, ONE2 - Y2))
W0 = construct_family(OBS_A, OBS_B, SQUARE, {})

GUARDS = {
    "solve_affine heights": (lambda: solve_affine([[1, 0], [0, 1]], [1]),
                             "A and b have different heights"),
    "from_rows ragged": (lambda: Matrix.from_rows([[1, 2], [3]]), "ragged rows"),
    "from_rows cols": (lambda: Matrix.from_rows([[1, 2]], cols=3),
                       "explicit column count disagrees with rows"),
    "matvec": (lambda: M2.matvec([1, 2, 3]), "dimension mismatch"),
    "matmul": (lambda: M2.matmul(Matrix.identity(3)), "dimension mismatch"),
    "observable outcomes": (lambda: Observable("A", (), ()),
                            "an observable needs at least one outcome"),
    "observable effects": (lambda: Observable("A", (0, 1), (X2,)),
                           "one effect per outcome required"),
    "observable dims": (lambda: Observable("A", (0, 1), (X2, X3)),
                        "effects live on different ambient spaces"),
    "distribution sign": (lambda: Distribution((F(3, 2), F(-1, 2))), "negative probability"),
    "distribution sum": (lambda: Distribution((F(1, 2), F(1, 3))),
                         "probabilities must sum to one"),
    "phase map compose": (lambda: PhasePointMap.identity((2, 2)).compose(
        PhasePointMap.identity((2, 3))), "shape mismatch"),
    "phase map inverse": (lambda: PhasePointMap((2, 2), (0, 0, 1, 2)).inverse(),
                          "only permutations are invertible"),
    "product element": (lambda: ProductGroupElement((0, 0), (0, 1)),
                        "both components must be permutations"),
    "signed grid empty": (lambda: SignedGrid(()), "empty grid"),
    "signed grid ragged": (lambda: SignedGrid(((F(1, 2), F(1, 2)), (0,))), "ragged grid"),
    "wigner shape": (lambda: WignerRep(SQUARE, OBS_A, OBS_B, W0.grid[:1]),
                     "grid shape must be |A| x |B|"),
    "wigner dims": (lambda: WignerRep(SQUARE, OBS_A, OBS_B, ((X3, X3), (X3, X3))),
                    "grid functionals have the wrong dimension"),
}

PRECONDITIONS = {
    "positive member on a ball": (lambda: positive_member(OBS_A, OBS_B, Ball((0, 0), 1)),
                                  "positive-member search needs a polytope"),
    "isomorphism across spaces": (
        lambda: isomorphism(W0, construct_family(OBS_A, OBS_B, Polytope.hull_of(
            [(0, 0), (0, 1), (1, 0)]), {})),
        "representations live on different state spaces"),
}


@pytest.mark.parametrize("label", sorted(GUARDS))
def test_guard_raises_its_message(label):
    call, message = GUARDS[label]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("label", sorted(PRECONDITIONS))
def test_precondition_raises_its_message(label):
    call, message = PRECONDITIONS[label]
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == message


def test_empty_matrices_keep_their_columns():
    """No rows: ``from_rows`` gives 0 columns unless told, and
    ``solve_affine`` of an empty ``Matrix`` is every point of Q^cols."""
    assert Matrix.from_rows([]).cols == 0
    sol = solve_affine(Matrix.from_rows([], cols=2), [])
    assert sol.particular == (0, 0) and sol.nullspace == ((1, 0), (0, 1))
