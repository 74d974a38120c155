"""Input guards of exact algebra, observables and phase-point maps: each
malformed argument raises ``ValueError`` with the message that names it."""

from fractions import Fraction as F

import pytest

from wignerlab.exact import Matrix, solve_affine
from wignerlab.geometry import AffineFunctional
from wignerlab.symmetry import PhasePointMap, ProductGroupElement
from wignerlab.theory import Distribution, Observable

X2 = AffineFunctional((1, 0), 0)
X3 = AffineFunctional((1, 0, 0), 0)
M2 = Matrix.identity(2)

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
}


@pytest.mark.parametrize("label", sorted(GUARDS))
def test_guard_raises_its_message(label):
    call, message = GUARDS[label]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_empty_matrices_keep_their_columns():
    """No rows: ``from_rows`` gives 0 columns unless told, and
    ``solve_affine`` of an empty ``Matrix`` is every point of Q^cols."""
    assert Matrix.from_rows([]).cols == 0
    sol = solve_affine(Matrix.from_rows([], cols=2), [])
    assert sol.particular == (0, 0) and sol.nullspace == ((1, 0), (0, 1))
