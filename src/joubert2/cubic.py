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
line of F_{q^3}-classes comes from linear algebra over K.  Below q = 16 a
third route, the scalar projective route with per-point classification,
must agree with both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsearch
from .errors import DomainError, require
from .ffield import ExtDesc, _unpack, make_ext
from .gflinalg import kernel, rref_vals
from .jsearch import _require_pow2, _require_vector_q

# the smallest q at which the scalar projective route no longer runs: from
# here on the cubic form and the L_0 sweep are the census's two routes
_PROJECTIVE_STOP = 16


@dataclass(frozen=True)
class QuotientFrame:
    """Coordinates for P(L_0 / K): basis[0] = 1 spans the collapsed constant
    direction; basis[1..4] give the four projective coordinates."""

    ext: ExtDesc
    basis: tuple[int, ...]

    def lift(self, coords) -> int:
        """Trace-zero element with the given coordinates against basis[1..4]
        and zero constant component."""
        if len(coords) != 4:
            raise DomainError(f"need 4 coordinates, got {len(coords)}")
        return self.ext.big.combine(coords, self.basis[1:])


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


def _projective_reps(q: int):
    """Normalized representatives of P^3(F_q): first nonzero coordinate 1.

    Yields 4-tuples of K-indices (0..q-1), to be mapped through k_elements.
    """
    for lead in range(4):
        free = 3 - lead
        for rest in range(q**free):
            yield tuple([0] * lead + [1] + _unpack(rest, q, free))


def _form_coefficients(frame: QuotientFrame) -> list[list[int]]:
    """K-indices of c_ij = Tr(b_i^2 b_j), i, j = 1..4: in characteristic 2,
    y^3 = (sum v_i^2 b_i^2)(sum v_j b_j) for y = lift(v), and Tr is K-linear,
    so C(v) = sum c_ij v_i^2 v_j = Tr(lift(v)^3)."""
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


def _subfield_kernel(frame: QuotientFrame, d: int) -> list[list[int]]:
    """K-basis of the v in K^4 whose lift lies in F_{q^d}: the kernel of
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

    # normal form of _projective_reps: zeros, the leading 1, then the free
    # coordinates as base-q digits of one index, least significant first
    total = 0
    for lead in range(4):
        free = 3 - lead
        idx = np.arange(q**free, dtype=np.uint64)
        v = ([np.zeros_like(idx)] * lead + [np.ones_like(idx)]
             + [(idx >> (k * j)) & (q - 1) for j in range(free)])
        total += idx.size - int(np.count_nonzero(
            _form_values(coeffs, mul, k, v)))
    return total


def _projective_total(frame: QuotientFrame) -> int:
    """The scalar projective route: lift every point of P^3(K), test
    Tr(y^3) = 0, and classify each zero on or off the F_{q^3}-line."""
    ext = frame.ext
    big = ext.big
    k_vals = ext.k_elements()
    q = ext.q

    on_line = 0
    generator_points = 0
    for idx_coords in _projective_reps(q):
        y = frame.lift([k_vals[i] for i in idx_coords])
        require(ext.trace_val(y) == 0, "lifted point has nonzero trace")
        y3 = big.mul_val(big.mul_val(y, y), y)
        if ext.trace_val(y3) != 0:
            continue
        if ext.frob_iter_val(y, 3) == y:
            # non-generator class; must be the F_{q^3} line, never F_{q^2}
            require(ext.frob_iter_val(y, 2) != y or y == 0,
                    "non-generator class lies in F_{q^2}")
            require(y != 0, "zero lift of a projective point")
            on_line += 1
        else:
            # must be a full generator: n = 6 leaves only d in {2, 3}
            require(ext.frob_iter_val(y, 2) != y, "generator class in F_{q^2}")
            generator_points += 1
    require(on_line == q + 1, "line does not have q + 1 points")
    return on_line + generator_points


def surface_census(q: int, budget: int | None = None,
                   threads: int = 1) -> SurfaceCensus:
    """Count the surface's K-points and classify them.

    The cubic form gives the total and places the q + 1 points of the
    F_{q^3}-line by linear algebra, so every other point is a generator
    point.  Below q = 16 the scalar projective route counts and classifies
    every point again, and the form must agree with it.  The count must
    meet the Manin floor, and the L_0 sweep's generator count must be
    q^2 - q per generator point.
    """
    _require_vector_q(q)
    frame = build_frame(q, budget)
    form_total = _form_total(frame)
    total = (_projective_total(frame) if q < _PROJECTIVE_STOP
             else form_total)
    on_line = q + 1
    generator_points = total - on_line
    manin_floor = q * q - 7 * q + 1
    require(total >= manin_floor, "surface count is below the Manin floor")

    # the L_0 sweep, which also requires the q^3 elements of F_{q^3} in S
    count = jsearch.count_joubert_generators(q, budget=budget,
                                             threads=threads).count
    require(generator_points * (q * q - q) == count,
            "class count and element count disagree")
    require(form_total == total, "cubic form and projective route disagree")
    return SurfaceCensus(q=q, total=total, on_line=on_line,
                         generator_points=generator_points,
                         manin_floor=manin_floor,
                         affine_zero_count=count + q**3,
                         generator_count=count)
