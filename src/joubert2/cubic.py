"""The trace cubic surface in characteristic 2.

Inside L = F_{q^6} the trace-zero hyperplane L_0 contains the constants
(Tr(1) = 6 = 0), so y -> Tr(y^3) descends to the 4-dimensional quotient
L_0 / K.  Its projectivization is a cubic surface in P^3 over K: the points
are classes [y] with Tr(y) = Tr(y^3) = 0, the non-generator points form the
line of F_{q^3}-classes, and the rest are witnesses for trace-constrained
generators.

Counting runs over two independent routes: the scalar projective route
with per-point classification, and `jsearch`'s L_0 sweep, the vector count
of generators y in L_0 with Tr(y^3) = 0, which is q(q-1) per generator
point since each class has exactly that many affine representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import jsearch
from .errors import DomainError, require
from .ffield import ExtDesc, _unpack, make_ext
from .gflinalg import rref_vals
from .jsearch import _require_pow2, _require_vector_q


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


def surface_census(q: int, budget: int | None = None,
                   threads: int = 1) -> SurfaceCensus:
    """Count the surface's K-points by both routes and classify them.

    Checks the structural claims as it goes: every point is either on the
    F_{q^3}-line or a generator class, the line has exactly q+1 points, the
    count meets the Manin floor, and the L_0 sweep's generator count is
    q^2 - q per generator point.
    """
    _require_vector_q(q)
    frame = build_frame(q, budget)
    ext = frame.ext
    big = ext.big
    k_vals = ext.k_elements()

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
    total = on_line + generator_points
    require(on_line == q + 1, "line does not have q + 1 points")
    manin_floor = q * q - 7 * q + 1
    require(total >= manin_floor, "surface count is below the Manin floor")

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
