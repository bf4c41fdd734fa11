"""Point census of the additive cover u^q - u = x^(2q+1) + x^(q+2) over the
sextic extension of F_q, for q a power of 2.

The right side factors as x * x^q * (x^q + x), so with y = x^q + x the fiber
over x is nonempty exactly when the relative trace of y^3 vanishes (the
trace of y itself vanishes automatically).  Solvable fibers therefore sit
over trace-qualifying elements y; fibers with y in the cubic subextension
are counted as bad, and the rest give degree-6 generators whose first and
third elementary symmetric functions are zero.  Comparing the affine count
against the Weil interval and the worst-case bad count shows good fibers
must exist once q is large enough.

The vector census sweeps the q^5 x of a complement W of F_q = ker(x^q + x)
and scales its counts by q: x -> x^q + x is q-to-1 onto L_0 = ker Tr
(additive Hilbert 90; Lidl & Niederreiter, Finite Fields, Thm. 2.25).  It
takes Tr(y^3) through the big field's quadratic tower and requires it, at
every x of W, to equal the right side's trace, an F_2-quadratic form Q
that shares no table with the tower (_trace_form, QuadraticForm).

That check is the vector route of the trace identity
Tr((x^q + x)^3) = Tr(x^(2q+1) + x^(q+2)) on all of F_{q^6}, as both sides
are unchanged by x -> x + c for c in F_q.  Its second route, sharing no
arithmetic with it, is trace_identity_check's scalar certificate.

The counts' second route is the trace cubic surface: counts_from_surface
turns |S| and the generator count into the curve's three counts, and the
curve check takes them from `cubic`'s explicit cubic form at every q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TableError, require
from .fastscan import (CHUNK, WINDOW, ChunkMap, ClmulOps, ExtScan,
                       LinearMap, SubfieldTests, Workspace, _sample, _span,
                       run_chunked)
from .ffield import ExtDesc, make_ext
from .gflinalg import kernel, rref
from .jsearch import _Bits, _ext_scan, _require_pow2, _require_vector_q


@dataclass(frozen=True)
class CurveCensus:
    """Affine and smooth point counts with their structural split."""

    q: int
    n_affine: int
    n_smooth: int
    genus: int
    weil_low: int
    weil_high: int
    good_points: int  # fiber points whose y generates the sextic extension
    bad_points: int  # fiber points with y in the cubic subextension


def genus_of(q: int) -> int:
    """Genus q(q-1) of the smooth model.

    The covering equation has right-side degree d = 2q + 1 prime to the
    characteristic, so the genus is (q - 1)(d - 1) / 2.
    """
    _require_pow2(q)
    d = 2 * q + 1
    require(math.gcd(d, q) == 1, "2q + 1 is not prime to q")
    return (q - 1) * (d - 1) // 2


def weil_window(q: int) -> tuple[int, int]:
    """Allowed range for the smooth point count over the field of q^6
    elements: q^6 + 1 with slack 2 * genus * q^3."""
    slack = 2 * genus_of(q) * q**3
    return q**6 + 1 - slack, q**6 + 1 + slack


def bound_inequality(q: int) -> bool:
    """Whether the Weil lower bound alone forces a good fiber point:
    q^6 + 1 - 2q(q-1)q^3 > 1 + q^5.

    The right side is the smooth point at infinity plus the largest
    possible number of bad fiber points.
    """
    lo, _ = weil_window(q)
    return lo > 1 + q**5


def counts_from_surface(q: int, zeros: int,
                        generators: int) -> tuple[int, int, int]:
    """(n_affine, good_points, bad_points) from the trace cubic surface:
    zeros = |S|, S = {y in L_0 : Tr(y^3) = 0}, of which generators y
    generate the sextic extension and the other q^3 make up F_{q^3}.

    x -> y = x^q + x is q-to-1 onto L_0, and the fiber over x has q points
    exactly when y lies in S, so every y of S gives q^2 affine points: good
    for a generator, bad for an element of F_{q^3}.
    """
    return q * q * zeros, q * q * generators, q * q * q**3


class QuadraticForm:
    """An F_2-quadratic form Q on the aligned ranges of run_chunked, from
    its Gram matrix on the index bits: gram[i, i] = Q(e_i) and
    gram[i, j] = B(e_i, e_j) for i != j, where the polar form
    B(a, b) = Q(a + b) + Q(a) + Q(b) is bilinear and symmetric.

    Q(a + b) = Q(a) + Q(b) + B(a, b) splits a range with no product.  Its
    values are h + i, with h = lo and the offset i = r + s + t cut into t
    (index bits below 6), s (bits 6 to 11) and r (the bits above), so
        Q(h + i) = [Q(h) + B(h, r + s) + Q(r + s)] + [Q(s + t) + Q(s)]
                   + [B(h, t) + B(r, t)].
    The three brackets are r x s, s x t and r x t tables.  Q(r + s),
    Q(s + t) + Q(s) and B(r, t) are cached; B(h, .) is the xor of h's Gram
    rows.  A range costs one broadcast xor of the r x s and s x t tables and
    one of the r x t table.
    """

    def __init__(self, gram: np.ndarray, order: int):
        self.gram = gram
        self._rows = gram.tolist()
        self.size = min(order, CHUNK)
        c = (self.size - 1).bit_length()
        a, b = min(c, WINDOW // 2), min(c, WINDOW)
        self._cuts = a, b, c
        st = self._qspan(range(b)).reshape(-1, 1 << a)
        self._st = st ^ st[:, :1]
        self._rs = self._qspan(range(a, c)).reshape(-1, 1 << (b - a))
        rt = self._qspan([*range(a), *range(b, c)]).reshape(-1, 1 << a)
        self._rt = rt ^ rt[:, :1] ^ rt[:1]

    def _qspan(self, bits) -> np.ndarray:
        """Q on the span of the index bits `bits`, indexed like _span:
        Q(v + e_j) = Q(v) + Q(e_j) + B(v, e_j)."""
        t = np.zeros(1, dtype=np.uint32)
        for n, j in enumerate(bits):
            t = np.concatenate([t, t ^ self.gram[j, j]
                                ^ _span(self.gram[j, bits[:n]])])
        return t

    def scalar(self, v: int) -> int:
        """Q(v) on one plain int: the xor of the Gram entries (i, j), i <= j,
        over v's set bits."""
        bits = [i for i in range(v.bit_length()) if v >> i & 1]
        acc = 0
        for n, i in enumerate(bits):
            row = self._rows[i]
            for j in bits[n:]:
                acc ^= row[j]
        return acc

    def __call__(self, lo: int, hi: int, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """Q(v) for v in [lo, hi), a whole aligned range."""
        n = hi - lo
        require(lo % CHUNK == 0 and n == self.size,
                "range is not aligned to the form's tables")
        a, b, c = self._cuts
        # B(h, e_j) for the offset bits j; h = lo has no bit below c
        bh = np.bitwise_xor.reduce(
            self.gram[[i for i in range(c, lo.bit_length()) if lo >> i & 1],
                      :c], axis=0)
        rs = self._rs ^ _span(bh[a:b])
        rs ^= (np.uint32(self.scalar(lo)) ^ _span(bh[b:c]))[:, None]
        rt = self._rt ^ _span(bh[:a])
        if out is None:
            out = np.empty(n, dtype=np.uint32)
        grid = out.reshape(*rs.shape, -1)
        np.bitwise_xor(rs[:, :, None], self._st, out=grid)
        grid ^= rt[:, None, :]
        return out


class _CensusTables:
    """The census's parts in tower coordinates, on aligned chunks: index bit
    j stands for x = basis.images[j], the j-th basis vector of a complement
    W of F_q = ker(x^q + x); y = x^q + x on W, its subfield tests and the
    form of the cross-check."""

    def __init__(self, scan: ExtScan):
        self.view = view = scan.tower
        m, k, gf2 = scan.ops.m, scan.ext.base_deg, _Bits
        fx = [(1 << j) ^ img for j, img in enumerate(view.frob.images)]
        ker = kernel([[v >> i & 1 for v in fx] for i in range(m)], gf2)
        require(len(ker) == k, "ker(x^q + x) is not F_q")
        # W: the index bits that are not pivots of the kernel's RREF
        pivots = rref(ker, gf2)[1]
        w = [j for j in range(m) if j not in pivots]
        y = [fx[j] for j in w]
        rank = len(rref([[v >> i & 1 for i in range(m)] for v in y], gf2)[1])
        require(len(y) == rank == 5 * k and not any(
            view.trace_hi.scalar(v >> view.tower.h) for v in y),
            "x^q + x does not map W one to one into L_0")
        self.order = order = 1 << len(w)
        self.basis = LinearMap(view.tower.from_tower.images[j] for j in w)
        self.y = ChunkMap(LinearMap(y), order)
        self.tests = SubfieldTests(view, y, order)
        self.form = _trace_form(scan, self.basis)


_census_tables = functools.lru_cache(maxsize=None)(_CensusTables)


def _trace_form(scan: ExtScan, basis: LinearMap) -> QuadraticForm:
    """Q(x) = Tr(x R(x)) with R(x) = (x^q + x^(q^5))^2, on the index whose
    bit j stands for basis.images[j].  Tr(x^(q+2)) = Tr(x^(2q^5+1)), its
    image under x -> x^(q^5), so Q(x) = Tr(x^(2q+1) + x^(q+2)); R is
    F_2-linear, so Q is an F_2-quadratic form, as for the curves
    y^q - y = x R(x) of van der Geer and van der Vlugt (Compositio Math.
    84, 1992).

    The Gram matrix comes from the basis images through the canonical
    Frobenius, square and trace maps and `ClmulOps` products, never from
    the Tower's log/exp tables.  Q is checked against Tr(x R(x)), taken
    directly, on the seeded sample; a mismatch raises TableError.
    """
    big = scan.ext.big
    mul, n = ClmulOps(big).mul, len(basis.images)

    def r_map(x):
        fx = f5 = scan.frob(x)
        for _ in range(4):
            f5 = scan.frob(f5)
        return scan.ops.square(fx ^ f5)

    e = np.array(basis.images, dtype=np.uint32)
    prod = mul(e[:, None], r_map(e))  # e_i R(e_j)
    # B(e_i, e_j) = Tr(e_i R(e_j) + e_j R(e_i)), and Q(e_i) on the diagonal
    gram = scan.trace((prod ^ prod.T).ravel()).reshape(n, n)
    np.fill_diagonal(gram, scan.trace(prod.diagonal().copy()))
    form = QuadraticForm(gram, 1 << n)
    idx, _ = _sample(n)
    x = basis(idx)
    direct = scan.trace(mul(x, r_map(x)))
    if [form.scalar(v) for v in idx.tolist()] != direct.tolist():
        raise TableError(f"quadratic form of GF(2^{big.m}) disagrees with "
                         "Tr(x R(x))")
    return form


def _require_swept_frobenius(tables: _CensusTables, ext: ExtDesc) -> None:
    """The swept y = x^q + x against the scalar Frobenius on every basis
    vector of W, so on the whole F_2-linear map.  The cross-check cannot see
    an error d in F_q here: with Tr(y) = 0, Tr((y + d)^3) = Tr(y^3)."""
    to_big = tables.view.tower.from_tower.scalar
    require(all(to_big(tables.y.at(1 << j)) == ext.frob_val(x) ^ x
                for j, x in enumerate(tables.basis.images)),
            "swept x -> x^q differs from the scalar Frobenius")


def curve_census(q: int, budget: int | None = None,
                 threads: int = 1) -> CurveCensus:
    """Full fiber census over the sextic extension of F_q.

    Every solvable fiber is classified: y = x^q + x either generates the
    degree-6 extension (good) or lies in the cubic subextension (bad); the
    quadratic subextension is impossible for trace-qualifying y, which the
    scan checks rather than assumes.  The sweep of W meets each y of L_0
    once, so every count is scaled by q.
    """
    k = _require_vector_q(q)
    scan = _ext_scan(2, k, 6, budget)
    tables = _census_tables(scan)
    _require_swept_frobenius(tables, scan.ext)
    tower, trace_hi = tables.view.tower, tables.view.trace_hi
    ws = Workspace()

    def tally(lo: int, hi: int) -> tuple[int, int, int]:
        n = hi - lo
        y = tables.y(lo, hi, out=ws.get("y", n))
        # Tr(y^3) from the w-half of y^3, by the logs of y
        t = trace_hi(tower.cube_hi(tower.logs(y), out=y), out=y)
        # equal as values, since Tr(x^(3q)) = Tr(x^3): a cross-check by the
        # form Q, which shares no table with the tower
        require(np.array_equal(t, tables.form(lo, hi, out=ws.get("form", n))),
                "solvability differs from the trace identity")
        solvable, in_cubic = tables.tests.split(t, lo, hi, ws)
        return (int(np.count_nonzero(solvable)),
                int(np.count_nonzero(in_cubic)),
                int(np.count_nonzero(solvable & ~in_cubic)))

    parts = run_chunked(tables.order, tally, threads=threads)
    # split requires every y of F_{q^3} solvable: these are the bad y
    require(sum(p[1] for p in parts) == q**3,
            "F_{q^3} does not have q^3 elements in L_0")
    solvable_x, bad_x, good_x = (q * sum(p[i] for p in parts)
                                 for i in range(3))
    require(good_x + bad_x == solvable_x,
            "good and bad fibers do not cover the solvable ones")

    n_affine = q * solvable_x
    lo, hi = weil_window(q)
    n_smooth = n_affine + 1
    require(n_affine % q == 0, "affine count is not divisible by q")
    require(lo <= n_smooth <= hi, "smooth count escapes the Weil interval")
    return CurveCensus(q=q, n_affine=n_affine, n_smooth=n_smooth,
                       genus=genus_of(q), weil_low=lo, weil_high=hi,
                       good_points=q * good_x, bad_points=q * bad_x)


def _right_side_val(ext: ExtDesc, v: int) -> int:
    """x^(2q+1) + x^(q+2) at v as x^(2q) x + x^q x^2, by scalar products
    on plain ints."""
    mul, vq = ext.big.mul_val, ext.frob_val(v)
    return mul(mul(vq, vq), v) ^ mul(vq, mul(v, v))


def trace_identity_check(q: int, budget: int | None = None) -> int:
    """Confirm Tr((x^q + x)^3) = Tr(x^(2q+1) + x^(q+2)) on all of F_{q^6}
    by polarization, in scalar ffield arithmetic; returns q^6, the points
    covered.  Squaring and x -> x^q are additive, so each bit of the
    difference of the sides is an F_2-quadratic form on the m = 6k index
    bits, zero everywhere iff zero at every e_i and e_i + e_j: the m(m + 1)/2
    values (1 << i) | (1 << j), i <= j."""
    k = _require_vector_q(q)
    ext = make_ext(2, k, 6, limit=budget)
    mul, m = ext.big.mul_val, ext.big.m
    for v in (1 << i | 1 << j for i in range(m) for j in range(i, m)):
        y = ext.frob_val(v) ^ v
        d = mul(y, mul(y, y)) ^ _right_side_val(ext, v)
        require(ext.trace_val(d) == 0,
                "Tr identity fails at a polarization point")
    return q**6
