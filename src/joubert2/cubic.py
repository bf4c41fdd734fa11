"""The trace cubic surface in characteristic 2.

Inside L = F_{q^6} the trace-zero hyperplane L_0 contains the constants
(Tr(1) = 6 = 0), so y -> Tr(y^3) descends to the 4-dimensional quotient
L_0 / K.  Its projectivization is a cubic surface in P^3 over K: the points
are classes [y] with Tr(y) = Tr(y^3) = 0, the non-generator points form the
line of F_{q^3}-classes, and the rest are witnesses for trace-constrained
generators.

Counting runs over two independent routes at every q: the explicit cubic
form C(v) = sum c_ij v_i^2 v_j over K, evaluated on all of P^3(K) with a
product table of K, and `jsearch`'s L_0 sweep, the vector count of
generators y in L_0 with Tr(y^3) = 0, which is q(q-1) per generator point
since each class has exactly that many affine representatives.  The form's
line of F_{q^3}-classes, and its smoothness, come from linear algebra over
K, and its count must have the Weil shape of a smooth cubic surface.  The
form's arithmetic is `ffield`'s scalar products and traces and `gflinalg`;
the sweep's is `fastscan`'s `Gf2Scan.cube`, a `Tower` product, and the
scan's trace, at the Gram points of Tr(y^3) over F_2 and at the audited
y, with xor span tables in between, and its own carry-less audit, so the
two routes share no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsearch
from .errors import require
from .ffield import ExtDesc, make_ext
from .gflinalg import kernel, rref_vals
from .jsearch import _require_pow2, _require_vector_q


@dataclass(frozen=True)
class QuotientFrame:
    """Coordinates for P(L_0 / K): basis[0] = 1 spans the collapsed constant
    direction; basis[1..4] give the four projective coordinates, and v in
    K^4 stands for the class of y = sum v_i b_i."""

    ext: ExtDesc
    basis: tuple[int, ...]


@dataclass(frozen=True)
class SurfaceCensus:
    q: int
    total: int
    on_line: int
    generator_points: int
    manin_floor: int
    affine_zero_count: int  # |{y in L_0 : Tr(y^3) = 0}|: generators + q^3
    generator_count: int  # generators y in L_0, by the L_0 sweep


def build_frame(q: int, budget: int | None = None) -> QuotientFrame:
    """Deterministic K-basis (1, b_1..b_4) of L_0: greedy sweep in value
    order keeping K-linearly independent trace-zero elements."""
    k = _require_pow2(q)
    ext = make_ext(2, k, 6, limit=budget)
    big = ext.big
    rows = []  # K-coordinates of the basis over the power basis of L/K
    basis = []
    v = 1
    while len(basis) < 5 and v < big.order:
        if ext.trace_val(v) == 0:
            cand = rows + [list(ext.rel_coordinates(v))]
            if len(rref_vals(cand, big)) == len(cand):
                rows = cand
                basis.append(v)
        v += 1
    require(len(basis) == 5, "trace-zero subspace has unexpected dimension")
    # Tr(1) = 0 in characteristic 2, degree 6
    require(basis[0] == 1, "trace-zero basis does not start with 1")
    frame = QuotientFrame(ext, tuple(basis))
    for b in basis:
        require(ext.trace_val(b) == 0, "basis element has nonzero trace")
    # K-span of the basis is all of L_0, a hyperplane of L
    require(len(rref_vals(rows, big)) == 5, "basis does not span L_0")
    return frame


def _form_coefficients(frame: QuotientFrame) -> list[list[int]]:
    """K-indices of c_ij = Tr(b_i^2 b_j), i, j = 1..4: in characteristic 2,
    y^3 = (sum v_i^2 b_i^2)(sum v_j b_j) for y = sum v_i b_i, and Tr is
    K-linear, so C(v) = sum c_ij v_i^2 v_j = Tr(y^3)."""
    ext = frame.ext
    big = ext.big
    b = frame.basis[1:]
    return [[ext.k_index(ext.trace_val(big.mul_val(big.mul_val(bi, bi), bj)))
             for bj in b] for bi in b]


def _k_products(ext: ExtDesc) -> np.ndarray:
    """K's product table on digit indices, flat: entry (a << k) | b is the
    index of a * b, from q^2 scalar products in the big field."""
    big = ext.big
    k_vals = ext.k_elements()
    return np.array([ext.k_index(big.mul_val(a, b))
                     for a in k_vals for b in k_vals], dtype=np.uint64)


def _form_values(coeffs, mul: np.ndarray, k: int, v) -> np.ndarray:
    """C at the points whose K-index coordinates are the four uint64
    arrays v, as K-indices; K-addition is xor on digit indices."""
    acc = np.zeros_like(v[0])
    squares = [mul[(x << k) | x] for x in v]
    for i in range(4):
        for j in range(4):
            acc ^= mul[(coeffs[i][j] << k) | mul[(squares[i] << k) | v[j]]]
    return acc


def _is_smooth(frame: QuotientFrame) -> bool:
    """Whether C = 0 has no singular point over the algebraic closure of K.
    In characteristic 2, dC/dv_l = sum_i c_il v_i^2, and Euler's formula
    C = sum_l v_l dC/dv_l puts every common zero of the partials on C.
    Squaring is a bijection, so a singular point is a nonzero kernel vector
    (v_i^2) of the 4x4 matrix (c_il) over K, and det(c_il) != 0 is
    smoothness: expanded along the first row, with no signs in
    characteristic 2 and no inversion."""
    ext = frame.ext
    k_vals, mul = ext.k_elements(), ext.big.mul_val

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = 0
        for j, a in enumerate(rows[0]):
            if a:
                acc ^= mul(a, det([r[:j] + r[j + 1:] for r in rows[1:]]))
        return acc

    return det([[k_vals[c] for c in row]
                for row in _form_coefficients(frame)]) != 0


def _subfield_kernel(frame: QuotientFrame, d: int) -> list[list[int]]:
    """K-basis of the v in K^4 whose y = sum v_i b_i lies in F_{q^d}: the
    kernel of
    v -> sum v_i (b_i^(q^d) - b_i), a K-linear map into L."""
    ext = frame.ext
    big = ext.big
    cols = [ext.rel_coordinates(big.sub_val(ext.frob_iter_val(b, d), b))
            for b in frame.basis[1:]]
    return kernel([list(row) for row in zip(*cols)], big)


def _form_total(frame: QuotientFrame) -> int:
    """Zeros of the cubic form C in P^3(K), evaluated with small-field
    gathers, after checking by linear algebra over K that the F_{q^3}-line
    has q + 1 points, all zeros of C, and that no nonzero class lies in
    F_{q^2}.  Every other zero is then a generator point."""
    ext = frame.ext
    q = ext.q
    k = ext.base_deg
    coeffs = _form_coefficients(frame)
    mul = _k_products(ext)
    line = _subfield_kernel(frame, 3)
    require(len(line) == 2, "F_{q^3}-classes do not form a line")
    require(not _subfield_kernel(frame, 2), "a nonzero class lies in F_{q^2}")
    u, w = ([ext.k_index(x) for x in vec] for vec in line)
    points = [u] + [[w[i] ^ int(mul[(lam << k) | u[i]]) for i in range(4)]
                    for lam in range(q)]
    on_line = [np.array(col, dtype=np.uint64) for col in zip(*points)]
    require(not _form_values(coeffs, mul, k, on_line).any(),
            "cubic form does not vanish on the F_{q^3}-line")

    # one representative per point of P^3(K), its first nonzero coordinate
    # 1: zeros, the leading 1, then the free coordinates as base-q digits
    # of one index, least significant first
    total = 0
    for lead in range(4):
        free = 3 - lead
        idx = np.arange(q**free, dtype=np.uint64)
        v = ([np.zeros_like(idx)] * lead + [np.ones_like(idx)]
             + [(idx >> (k * j)) & (q - 1) for j in range(free)])
        total += idx.size - int(np.count_nonzero(
            _form_values(coeffs, mul, k, v)))
    return total


def surface_census(q: int, budget: int | None = None,
                   threads: int = 1) -> SurfaceCensus:
    """Count the surface's K-points and classify them.

    The surface must be smooth (`_is_smooth`).  The cubic form gives the
    total N and places the q + 1 points of the F_{q^3}-line by linear
    algebra, so every other point is a generator point.  A smooth cubic
    surface has N = q^2 + t q + 1 with t, the trace of Frobenius on its
    Picard group, in [-2, 7] (Manin, Cubic Forms; Swinnerton-Dyer, 1967),
    which implies the Manin floor q^2 - 7q + 1.  The L_0 sweep's generator
    count, the second route, must then be q^2 - q per generator point at
    every q.
    """
    _require_vector_q(q)
    frame = build_frame(q, budget)
    require(_is_smooth(frame), "the trace cubic surface is singular")
    total = _form_total(frame)
    t, rest = divmod(total - q * q - 1, q)
    require(rest == 0, "q does not divide N - 1 for the surface count N")
    require(-2 <= t <= 7, "the surface count N = q^2 + t q + 1 has t "
            "outside [-2, 7]")
    on_line = q + 1
    generator_points = total - on_line
    manin_floor = q * q - 7 * q + 1

    # the L_0 sweep, which also requires the q^3 elements of F_{q^3} in S
    count = jsearch.count_joubert_generators(q, budget=budget,
                                             threads=threads).count
    require(generator_points * (q * q - q) == count,
            "class count and element count disagree")
    return SurfaceCensus(q=q, total=total, on_line=on_line,
                         generator_points=generator_points,
                         manin_floor=manin_floor,
                         affine_zero_count=count + q**3,
                         generator_count=count)
