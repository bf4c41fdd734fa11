"""Fixed-plane obstruction for a product of two elementary abelian groups
acting on coordinate blocks.

G = (Z/pZ)^m x (Z/pZ)^m sits inside the symmetric group on n = 2p^m indices
through the regular action of each factor on its own block.  Over a field E
of characteristic 2 containing the p-th roots of unity, E^n splits into 2p^m
character eigenlines; complete reducibility (|G| odd, char 2) forces every
G-invariant 2-plane to be a sum of two character lines, which the structured
enumeration lists and a brute-force subspace sweep can double-check.

The obstruction itself: the sum of p-th powers over any character line is
p^m = 1 in E, so no invariant plane lies inside the variety cut out by the
first p power sums.  Containment is decided by scanning all of P^1(E), which
is complete because a nonzero binary form of degree <= p cannot vanish at
|E| + 1 > p projective points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gflinalg
from .errors import CheckFailed, DomainError, require
from .ffield import (FieldDesc, _pack, _unpack, check_budget, make_field,
                     require_odd_prime)

REDUCTION_NOTE = (
    "containment in the power-sum variety is tested over the finite field "
    "E = GF(2^d) instead of an algebraic closure: restricted to a plane, "
    "each power-sum equation is a homogeneous binary form of degree <= p, "
    "and a nonzero such form has at most p projective roots, so vanishing "
    "on all |E|+1 > p points of P^1(E) forces the zero form; the scan over "
    "E^2 is therefore a sound and complete containment test")


@dataclass(frozen=True)
class GroupG:
    """Two commuting blocks of translations, as permutations of 0..n-1."""

    p: int
    m: int
    n: int
    gens: tuple[tuple[int, ...], ...]  # 2m permutations, block-major

    @property
    def block_size(self) -> int:
        return self.p**self.m


@dataclass(frozen=True)
class CharLine:
    """Eigenline of the block action: character values in one block, zeros
    in the other."""

    block: int  # 1 or 2
    chi: tuple[int, ...]  # m exponents of the character
    vector: tuple[int, ...]  # n packed E-values


@dataclass(frozen=True)
class InvPlane:
    """G-invariant 2-plane, held by its reduced row-echelon basis."""

    basis: tuple[tuple[int, ...], tuple[int, ...]]
    origin: str  # line-pair | mixed | trivial-isotypic | brute-force


@dataclass(frozen=True)
class PlaneWitness:
    """Proof that one plane escapes the variety: a member vector and the
    index of the power-sum equation it violates."""

    plane: InvPlane
    coeffs: tuple[int, int]  # combination of the two basis rows
    vector: tuple[int, ...]
    equation: int


@dataclass(frozen=True)
class PowerSumVariety:
    """Vectors whose first p power sums all vanish."""

    field: FieldDesc
    p: int

    def violation(self, vec) -> int | None:
        """Least k in 1..p with sum_j vec_j^k != 0, or None if a member."""
        f = self.field
        for k in range(1, self.p + 1):
            acc = 0
            for v in vec:
                acc = f.add_val(acc, f.pow_val(v, k))
            if acc != 0:
                return k
        return None


def build_group(p: int, m: int, budget: int | None = None) -> GroupG:
    """Translation generators for each block, mixed-radix index order."""
    require_odd_prime(p)
    if m < 1:
        raise DomainError(f"m = {m} must be positive")
    check_budget("p^m", p**m, budget)
    size = p**m
    n = 2 * size
    gens = []
    for block in (0, 1):
        off = block * size
        for j in range(m):
            perm = list(range(n))
            for local in range(size):
                digits = _unpack(local, p, m)
                digits[j] = (digits[j] + 1) % p
                perm[off + local] = off + _pack(digits, p)
            gens.append(tuple(perm))
    g = GroupG(p=p, m=m, n=n, gens=tuple(gens))
    _validate_group(g)
    return g


def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _validate_group(g: GroupG) -> None:
    identity = tuple(range(g.n))
    for perm in g.gens:
        cur = perm
        for _ in range(g.p - 1):
            cur = _compose(cur, perm)
        require(cur == identity, "generator order is not p")
        # blocks are preserved
        require(all((i < g.block_size) == (perm[i] < g.block_size)
                    for i in range(g.n)), "generator mixes the blocks")
    for a in g.gens:
        for b in g.gens:
            require(_compose(a, b) == _compose(b, a),
                    "generators must commute")
    # regular action: each block is a single orbit of its m translations
    for off in (0, g.block_size):
        seen = {off}
        frontier = [off]
        while frontier:
            x = frontier.pop()
            for perm in g.gens:
                y = perm[x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        require(len(seen) == g.block_size, "block is not one orbit")


def choose_char_field(p: int, budget: int | None = None) -> FieldDesc:
    """Minimal GF(2^d) containing the p-th roots of unity.

    Any such field automatically has more than p elements, which the plane
    containment test needs; checked anyway.
    """
    require_odd_prime(p)
    d = 1
    while (2**d - 1) % p:
        d += 1
    field = make_field(2, d, limit=budget)
    require(field.order > p, "field does not exceed p")
    return field


def find_order_p(field: FieldDesc, p: int) -> int:
    """Least packed value of multiplicative order exactly p."""
    if (field.order - 1) % p:
        raise DomainError(f"no elements of order {p} in {field!r}")
    for v in range(2, field.order):
        if field.pow_val(v, p) == 1:
            return v
    raise CheckFailed("order-p element must exist")  # unreachable


def apply_perm(perm, vec):
    """Pullback action: coordinate i of the result reads coordinate perm(i)."""
    return tuple(vec[perm[i]] for i in range(len(perm)))


def eigen_decomposition(g: GroupG, field: FieldDesc) -> list[CharLine]:
    """All 2p^m character eigenlines of E^n; verified G-stable with the
    stated character, and jointly of full rank n."""
    if (field.order - 1) % g.p:
        raise DomainError(
            f"{field!r} has no p-th roots of unity for p = {g.p}")
    omega = find_order_p(field, g.p)
    size = g.block_size
    lines = []
    for block in (1, 2):
        off = (block - 1) * size
        for a_idx in range(size):
            a = tuple(_unpack(a_idx, g.p, g.m))
            vec = [0] * g.n
            for i in range(size):
                b = _unpack(i, g.p, g.m)
                e = sum(x * y for x, y in zip(a, b)) % g.p
                vec[off + i] = field.pow_val(omega, e)
            line = CharLine(block=block, chi=a, vector=tuple(vec))
            _verify_line(g, field, line, omega)
            lines.append(line)
    rank = len(gflinalg.rref_vals([list(l.vector) for l in lines], field))
    require(rank == g.n, "eigenlines must span the whole space")
    return lines


def _verify_line(g: GroupG, field: FieldDesc, line: CharLine,
                 omega: int) -> None:
    for gi, perm in enumerate(g.gens):
        gen_block = 1 if gi < g.m else 2
        j = gi % g.m
        eig = field.pow_val(omega, line.chi[j]) if gen_block == line.block else 1
        moved = apply_perm(perm, line.vector)
        expect = tuple(field.mul_val(eig, v) for v in line.vector)
        require(moved == expect, "line is not an eigenvector of the generator")


def eigenline_powersum(line: CharLine, field: FieldDesc, p: int) -> int:
    """Sum of p-th powers of the line's coordinates; 1 for every character
    line, since each block entry is a p-th root of unity and p^m is odd."""
    acc = 0
    for v in line.vector:
        acc = field.add_val(acc, field.pow_val(v, p))
    return acc


def block_indicators(g: GroupG) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two fixed vectors spanning the trivial isotypic plane."""
    size = g.block_size
    u1 = tuple([1] * size + [0] * size)
    u2 = tuple([0] * size + [1] * size)
    return u1, u2


def _span_contains(rref, vec, field: FieldDesc) -> bool:
    rem = list(vec)
    for row in rref:
        pivot = next(i for i, x in enumerate(row) if x)
        c = rem[pivot]
        if c:
            rem = [field.sub_val(x, field.mul_val(c, y))
                   for x, y in zip(rem, row)]
    return not any(rem)


def _plane(field: FieldDesc, v, w, origin: str) -> InvPlane:
    rows = gflinalg.rref_vals([list(v), list(w)], field)
    if len(rows) != 2:
        raise DomainError("plane basis vectors are dependent")
    return InvPlane(basis=(rows[0], rows[1]), origin=origin)


def _verify_invariant(g: GroupG, field: FieldDesc, plane: InvPlane) -> None:
    for perm in g.gens:
        for row in plane.basis:
            require(_span_contains(plane.basis, apply_perm(perm, row), field),
                    "plane is not G-stable")


def invariant_planes(g: GroupG, field: FieldDesc) -> list[InvPlane]:
    """The complete list of G-invariant 2-planes.

    Complete reducibility in odd order and characteristic 2 means every
    invariant plane splits into character lines; distinct-character pairs,
    a nontrivial line plus any line of the trivial isotypic plane, and the
    trivial isotypic plane itself exhaust the possibilities.  Every entry
    is re-verified G-stable; the brute-force oracle guards completeness.
    """
    lines = eigen_decomposition(g, field)
    nontrivial = [l for l in lines if any(l.chi)]
    require(len(nontrivial) == 2 * g.block_size - 2,
            "nontrivial line count is not 2p^m - 2")
    u1, u2 = block_indicators(g)
    planes = []
    for i in range(len(nontrivial)):
        for j in range(i + 1, len(nontrivial)):
            planes.append(_plane(field, nontrivial[i].vector,
                                 nontrivial[j].vector, "line-pair"))
    # lines inside the trivial isotypic: u1 + c*u2 for c in E, and u2 itself
    iso_lines = [tuple(field.add_val(a, field.mul_val(c, b))
                       for a, b in zip(u1, u2)) for c in range(field.order)]
    iso_lines.append(u2)
    for l in nontrivial:
        for iso in iso_lines:
            planes.append(_plane(field, l.vector, iso, "mixed"))
    planes.append(_plane(field, u1, u2, "trivial-isotypic"))
    for plane in planes:
        _verify_invariant(g, field, plane)
    require(len({p.basis for p in planes}) == len(planes), "duplicate planes")
    return planes


def no_plane_in_x(g: GroupG, field: FieldDesc):
    """(all_excluded, witnesses, reduction note): for every invariant plane,
    a member vector violating one of the first p power sums."""
    if field.order <= g.p:
        raise DomainError(
            f"|E| = {field.order} must exceed p = {g.p} for a complete scan")
    variety = PowerSumVariety(field=field, p=g.p)
    planes = invariant_planes(g, field)
    witnesses = []
    all_excluded = True
    for plane in planes:
        wit = _exclude_plane(plane, variety, field)
        if wit is None:
            all_excluded = False
        else:
            witnesses.append(wit)
    return all_excluded, witnesses, REDUCTION_NOTE


def _exclude_plane(plane: InvPlane, variety: PowerSumVariety,
                   field: FieldDesc) -> PlaneWitness | None:
    r0, r1 = plane.basis
    for lam in range(field.order):
        for mu in range(field.order):
            if lam == 0 and mu == 0:
                continue
            vec = tuple(field.add_val(field.mul_val(lam, a),
                                      field.mul_val(mu, b))
                        for a, b in zip(r0, r1))
            k = variety.violation(vec)
            if k is not None:
                return PlaneWitness(plane=plane, coeffs=(lam, mu),
                                    vector=vec, equation=k)
    return None


def count_2planes(n: int, q: int) -> int:
    """Gaussian binomial [n choose 2]_q, the number of 2-dim subspaces."""
    num = (q**n - 1) * (q ** (n - 1) - 1)
    den = (q**2 - 1) * (q - 1)
    require(num % den == 0, "Gaussian binomial is not an integer")
    return num // den


def brute_force_oracle(g: GroupG, field: FieldDesc,
                       budget: int | None = None):
    """Sweep every 2-dim subspace of E^n: returns (no invariant plane lies
    in the variety, the list of invariant planes found).

    Enumerates canonical reduced bases directly: pivot columns j1 < j2, free
    entries right of the pivots, each pivot pair swept as whole digit
    arrays in slices of at most _SLICE assignments.  Independent of the
    structured enumeration.
    """
    total = count_2planes(g.n, field.order)
    check_budget("2-plane count", total, budget)
    # xor is the subtraction only in characteristic 2, and the product
    # indices c q + x of uint8 digits stay below 256 only for q <= 16
    require(field.p == 2 and field.order <= 16,
            "the sweep needs GF(2^d) with d <= 4")
    variety = PowerSumVariety(field=field, p=g.p)
    q = field.order
    n = g.n
    mul = _product_table(field)
    found = []
    excluded = True
    seen = 0
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            size = q ** (2 * n - j1 - j2 - 3)  # q^(free entries)
            for lo in range(0, size, _SLICE):
                row1, row2 = _pivot_rows(n, q, j1, j2, lo,
                                         min(lo + _SLICE, size))
                seen += row1.shape[1]
                mask = _invariant_mask(g, mul, row1, row2, j1, j2)
                for k in np.flatnonzero(mask):
                    plane = InvPlane(basis=(tuple(row1[:, k].tolist()),
                                            tuple(row2[:, k].tolist())),
                                     origin="brute-force")
                    found.append(plane)
                    if _exclude_plane(plane, variety, field) is None:
                        excluded = False
    require(seen == total, "sweep count differs from the subspace count")
    return excluded, found


#: Most assignments of one pivot pair that the sweep holds at once.
_SLICE = 2**12


def _product_table(field: FieldDesc) -> np.ndarray:
    """The q x q products of `field` by mul_val, as uint8 digits."""
    q = field.order
    return np.array([[field.mul_val(c, x) for x in range(q)]
                     for c in range(q)], dtype=np.uint8)


def _pivot_rows(n: int, q: int, j1: int, j2: int, lo: int, hi: int):
    """Reduced bases with pivots j1 < j2 for the assignments lo..hi-1 of the
    free entries, as two (n, hi - lo) uint8 digit arrays: digit k of an
    assignment fills the k-th free entry, those of the first row first."""
    free = ([(0, c) for c in range(j1 + 1, n) if c != j2]
            + [(1, c) for c in range(j2 + 1, n)])
    rows = np.zeros((2, n, hi - lo), dtype=np.uint8)
    rows[0, j1] = rows[1, j2] = 1
    assign = np.arange(lo, hi)
    for k, (r, c) in enumerate(free):
        rows[r, c] = assign // q**k % q
    return rows[0], rows[1]


def _invariant_mask(g: GroupG, mul: np.ndarray, row1, row2, j1: int,
                    j2: int) -> np.ndarray:
    """For each column of the digit arrays row1, row2 (pivots j1 < j2),
    whether the span of its two rows is G-stable: each moved row must be
    c1 row1 + c2 row2 for c1, c2 its entries at the pivots, and the
    residual of that is an xor in characteristic 2.  mul.take reads the
    flattened q x q table, so entry c q + x is c x."""
    q = len(mul)
    ok = np.ones(row1.shape[1], dtype=bool)
    for perm in g.gens:
        for row in (row1, row2):
            moved = row[list(perm)]
            ok &= ~(moved ^ mul.take(moved[j1] * q + row1)
                    ^ mul.take(moved[j2] * q + row2)).any(axis=0)
    return ok
