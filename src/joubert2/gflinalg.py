"""Small dense linear algebra over a FieldDesc.

Entries are packed field values; over a prime field GF(p) they are the
residues 0..p-1 themselves.  One Gauss-Jordan routine, `rref`, serves the
canonical row-span form, kernels and repeated solves.  Everything here works
on tiny matrices (dimension <= a few dozen), so plain row reduction in
Python lists is fast enough; no numpy needed.
"""

from __future__ import annotations

from .errors import DomainError


def rref(rows: list[list[int]], field) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of a copy of `rows` over `field`.

    Returns (all rows, pivot columns): row i is the pivot row of column
    pivots[i], and the rows after the last pivot are zero.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv_val(m[r][c])
        m[r] = [field.mul_val(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [field.sub_val(x, field.mul_val(f, y))
                        for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rref_vals(rows: list[list[int]], field) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form with zero rows dropped.

    The result is a canonical form for the row span, usable as a dict key;
    its length is the rank.
    """
    m, pivots = rref(rows, field)
    return tuple(tuple(row) for row in m[:len(pivots)])


def kernel(matrix: list[list[int]], field) -> list[list[int]]:
    """Basis of the right kernel of `matrix` (list of column vectors)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    m, pivots = rref(matrix, field)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg_val(m[r][fc])
        basis.append(vec)
    return basis


class Solver:
    """Repeated solves against one fixed invertible square matrix."""

    def __init__(self, matrix: list[list[int]], field):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise DomainError("Solver needs a square matrix")
        aug = [list(row) + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(matrix)]
        m, pivots = rref(aug, field)
        if pivots != list(range(n)):
            raise DomainError("Solver needs an invertible matrix")
        self.field = field
        self.inverse = [row[n:] for row in m]

    def solve(self, rhs: list[int]) -> list[int]:
        return [self.field.combine(row, rhs) for row in self.inverse]
