"""Row reduction, kernels and solves over prime and extension fields."""

import random

import pytest

from joubert2.errors import DomainError
from joubert2.ffield import make_field
from joubert2.gflinalg import Solver, kernel, rref_vals

FIELDS = [make_field(5, 1), make_field(2, 2)]  # GF(5), GF(4)


def _matrix(field, rows, cols, rng):
    return [[rng.randrange(field.order) for _ in range(cols)]
            for _ in range(rows)]


def _apply(field, matrix, vec):
    return [field.combine(row, vec) for row in matrix]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", range(6))
def test_kernel_vectors_are_annihilated(field, seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    m = _matrix(field, rows, cols, rng)
    if seed % 2:  # append a combination of the rows: the rank stays put
        coeffs = [rng.randrange(field.order) for _ in range(rows)]
        m.append(_apply(field, list(zip(*m)), coeffs))
    basis = kernel(m, field)
    for v in basis:
        assert _apply(field, m, v) == [0] * len(m)
    assert len(basis) == cols - len(rref_vals(m, field))
    assert len(rref_vals(basis, field)) == len(basis)  # independent


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", range(6))
def test_solver_inverts_matrix(field, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = _matrix(field, n, n, rng)
    while len(rref_vals(m, field)) < n:
        m = _matrix(field, n, n, rng)
    solver = Solver(m, field)
    for _ in range(5):
        x = [rng.randrange(field.order) for _ in range(n)]
        assert solver.solve(_apply(field, m, x)) == x


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solver_rejects_singular_and_nonsquare(field):
    with pytest.raises(DomainError):
        Solver([[1, 2], [2, field.mul_val(2, 2)]], field)  # row 2 = 2 * row 1
    with pytest.raises(DomainError):
        Solver([[1, 0, 0], [0, 1, 0]], field)
