"""Small dense linear algebra mod p and over packed finite-field values.

Everything here works on tiny matrices (dimension <= a few dozen), so plain
row reduction in Python lists is fast enough; no numpy needed.
"""

from __future__ import annotations

from .errors import DomainError


def _rref_fp(matrix: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Row-reduce a copy of `matrix` mod p; returns (rref, pivot_columns)."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_fp(matrix: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel of `matrix` mod p (list of column vectors)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    rref, pivots = _rref_fp(matrix, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(vec)
    return basis


class FpSolver:
    """Repeated solves against one fixed invertible square matrix mod p."""

    def __init__(self, matrix: list[list[int]], p: int):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise DomainError("FpSolver needs a square matrix")
        aug = [row[:] + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(matrix)]
        rref, pivots = _rref_fp(aug, p)
        if pivots != list(range(n)):
            raise DomainError("FpSolver needs an invertible matrix")
        self.p = p
        self.n = n
        self.inverse = [row[n:] for row in rref]

    def solve(self, rhs: list[int]) -> list[int]:
        p = self.p
        return [sum(a * b for a, b in zip(row, rhs)) % p for row in self.inverse]


def rref_vals(rows: list[list[int]], field) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over a FieldDesc, zero rows dropped.

    The result is a canonical form for the row span, usable as a dict key.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
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
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r] if any(row))
