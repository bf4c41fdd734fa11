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

The census counts with no sweep.  Tr(x^(2q+1) + x^(q+2)) is the K-valued
F_2-quadratic form Q(x) = Tr(x R(x)), R(x) = (x^q + x^(q^5))^2, on
L = F_{q^6} over K = F_q, so #{Q = 0} = (1/q) sum over the q F_2-functionals
s on K of sum_x (-1)^s(Q(x)), and each inner sum is 0 or +-2^((6k + w)/2)
by the radical dimension w and the Arf invariant of the binary form s o Q
(Lidl & Niederreiter, Finite Fields, 6.2; van der Geer & van der Vlugt,
Compositio Math. 84, 1992).  Its Gram matrix comes from `ClmulOps` products
and the scan's Frobenius and trace maps, and the rest is F_2 linear algebra
on ints: no Tower, sweep or scalar `ffield` product.

The counts' second route is the trace cubic surface: counts_from_surface
turns |S| and the generator count into the curve's three counts, and the
curve check takes them from `cubic`'s explicit cubic form at every q.  The
trace identity Tr((x^q + x)^3) = Tr(x^(2q+1) + x^(q+2)) that ties the two
together is trace_identity_check's polarization certificate, run once in
scalar `ffield` arithmetic and once in `ClmulOps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TableError, require
from .fastscan import ClmulOps, ExtScan, _form_values, _sample
from .ffield import make_ext
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


def _r_map(scan: ExtScan, x: np.ndarray) -> np.ndarray:
    """R(x) = (x^q + x^(q^5))^2, element-wise, by the scan's maps."""
    fx = f5 = scan.frob(x)
    for _ in range(4):
        f5 = scan.frob(f5)
    return scan.ops.square(fx ^ f5)


def _trace_gram(scan: ExtScan) -> np.ndarray:
    """The Gram matrix of Q(x) = Tr(x R(x)), R(x) = (x^q + x^(q^5))^2, on
    the m = 6k unit vectors e_i: B(e_i, e_j) = Tr(e_i R(e_j) + e_j R(e_i))
    off the diagonal, Q(e_i) on it.  Q(x) = Tr(x^(2q+1) + x^(q+2)), since
    Tr(x^(q+2)) = Tr(x^(2q^5+1)), and R is F_2-linear, as for the curves
    y^q - y = x R(x) of van der Geer and van der Vlugt.  From `ClmulOps`
    products and the scan's maps; Q is checked against Tr(x R(x)), taken
    directly, on the seeded sample, and a mismatch raises TableError."""
    big = scan.ext.big
    mul, m = ClmulOps(big).mul, big.m
    e = np.uint64(1) << np.arange(m, dtype=np.uint64)
    prod = mul(e[:, None], _r_map(scan, e))  # e_i R(e_j)
    gram = scan.trace((prod ^ prod.T ^ np.diag(prod.diagonal())).ravel()
                      ).reshape(m, m)
    x, _ = _sample(m)
    bits = x[:, None] >> np.arange(m, dtype=np.uint64) & np.uint64(1)
    if not np.array_equal(_form_values(gram, bits),
                          scan.trace(mul(x, _r_map(scan, x)))):
        raise TableError(f"quadratic form of GF(2^{m}) disagrees with "
                         "Tr(x R(x))")
    return gram


def _character_sum(rows: list[int], diag: list[int]) -> int:
    """sum over x in F_2^n of (-1)^Q(x), for the binary quadratic form Q
    with polar form B(e_i, e_j) = bit j of rows[i] and Q(e_i) = diag[i].

    A symplectic reduction splits F_2^n into planes with B(u, v) = 1, each
    summing to 2 (-1)^(Q(u) Q(v)), and the w lines of the radical of B,
    each summing to 2 if Q is 0 there and to 0 if not.  So the sum is 0 or
    (-1)^Arf 2^((n + w)/2), with Arf the sum of Q(u) Q(v) over the planes.
    """
    n = len(rows)
    low, top = (1 << n) - 1, 2 * n
    # a vector: its index bits, its B-image above bit n and its Q at bit
    # 2n, so that u + v is u ^ v with B(u, v) xored into the Q bit
    vecs = [1 << i | r << n | d << top
            for i, (r, d) in enumerate(zip(rows, diag))]

    def polar(u: int, v: int) -> int:
        return (u >> n & v & low).bit_count() & 1

    planes = lines = arf = 0
    while vecs:
        u = vecs.pop()
        v = next((w for w in vecs if polar(u, w)), None)
        if v is None:  # u is in the radical
            if u >> top:
                return 0
            lines += 1
            continue
        vecs.remove(v)
        planes += 1
        arf ^= u >> top & v >> top
        for i, w in enumerate(vecs):  # made orthogonal to u and v
            if polar(w, v):
                w ^= u ^ polar(w, u) << top
            if polar(w, u):
                w ^= v ^ polar(w, v) << top
            vecs[i] = w
    return (-1) ** arf << (planes + lines)


def _subfield_preimage(scan: ExtScan, d: int) -> list[list[int]]:
    """A GF(2)-basis of {x : x^q + x in F_{q^d}}, the kernel of
    x -> y^(q^d) + y with y = x^q + x, as 0/1 rows over the index bits."""
    e = np.uint64(1) << np.arange(scan.ops.m, dtype=np.uint64)
    y = yd = scan.frob(e) ^ e
    for _ in range(d):
        yd = scan.frob(yd)
    images = (yd ^ y).tolist()
    return kernel([[v >> i & 1 for v in images] for i in range(e.size)],
                  _Bits)


def curve_census(q: int, budget: int | None = None,
                 threads: int = 1) -> CurveCensus:
    """Full fiber census over the sextic extension of F_q, with no sweep:
    x has q fiber points when Q(x) = 0, and q #{Q = 0} comes from the
    character sums of the binary forms s o Q, whose total q must divide.
    K-values are read through the k pivot bits of Tr's image over GF(2).

    The x with y = x^q + x in F_{q^3} must span dimension 4k with the Gram
    matrix zero on it: all are solvable, the q^5 bad points.  The x with y
    in F_{q^2} must span dimension 2k, the preimage of F_q, inside the
    former: the quadratic subextension is checked, not assumed, and every
    other solvable x is good.  `threads` is accepted and unused."""
    k = _require_vector_q(q)
    scan = _ext_scan(2, k, 6, budget)
    gram, m = _trace_gram(scan), 6 * k
    pivots = rref([[v >> i & 1 for i in range(m)]
                   for v in scan._trace.images], _Bits)[1]
    require(len(pivots) == k, "the trace's image is not k-dimensional")
    masks = np.array([sum(1 << p for t, p in enumerate(pivots) if s >> t & 1)
                      for s in range(1, q)], dtype=np.uint64)
    # bits[s, i, j]: s(B(e_i, e_j)) off the diagonal, s(Q(e_i)) on it
    bits = np.bitwise_count(gram & masks[:, None, None]) & 1
    diag = np.diagonal(bits, axis1=1, axis2=2)
    weights = np.uint64(1) << np.arange(m, dtype=np.uint64)
    rows = (bits * weights).sum(axis=2) ^ diag * weights
    total = q**6 + sum(_character_sum(r, d)
                       for r, d in zip(rows.tolist(), diag.tolist()))
    require(total % q == 0, "q does not divide the character sums of Q")
    n_affine = q * (total // q)

    cubic = np.array(_subfield_preimage(scan, 3), dtype=np.uint64)
    require(len(cubic) == 4 * k,
            "{x : x^q + x in F_{q^3}} does not have dimension 4k")
    i, j = np.triu_indices(len(cubic), 1)
    require(not _form_values(gram, np.vstack([cubic, cubic[i] ^ cubic[j]]))
            .any(), "Q does not vanish where x^q + x lies in F_{q^3}")
    require(len(_subfield_preimage(scan, 2)) == 2 * k,
            "{x : x^q + x in F_{q^2}} does not have dimension 2k")
    bad = q * q**4

    lo, hi = weil_window(q)
    require(lo <= n_affine + 1 <= hi, "smooth count escapes the Weil interval")
    return CurveCensus(q=q, n_affine=n_affine, n_smooth=n_affine + 1,
                       genus=genus_of(q), weil_low=lo, weil_high=hi,
                       good_points=n_affine - bad, bad_points=bad)


def _right_side(mul, frob, v):
    """x^(2q+1) + x^(q+2) at v as x^(2q) x + x^q x^2, by the products mul
    and the Frobenius frob: on one int in ffield, or on an array."""
    vq = frob(v)
    return mul(mul(vq, vq), v) ^ mul(vq, mul(v, v))


def trace_identity_check(q: int, budget: int | None = None) -> int:
    """Confirm Tr((x^q + x)^3) = Tr(x^(2q+1) + x^(q+2)) on all of F_{q^6}
    by polarization; returns q^6, the points covered.  Squaring and
    x -> x^q are additive, so each bit of the difference of the sides is an
    F_2-quadratic form on the m = 6k index bits, zero everywhere iff zero
    at every e_i and e_i + e_j: the m(m + 1)/2 values (1 << i) | (1 << j),
    i <= j.  They are evaluated twice, by routes that share no arithmetic:
    one by one in scalar ffield arithmetic, then as one array by `ClmulOps`
    products and the scan's Frobenius and trace maps."""
    k = _require_vector_q(q)
    ext = make_ext(2, k, 6, limit=budget)
    mul, m = ext.big.mul_val, ext.big.m
    points = [1 << i | 1 << j for i in range(m) for j in range(i, m)]
    for v in points:
        y = ext.frob_val(v) ^ v
        d = mul(y, mul(y, y)) ^ _right_side(mul, ext.frob_val, v)
        require(ext.trace_val(d) == 0,
                "Tr identity fails at a polarization point")
    scan, mul = _ext_scan(2, k, 6, budget), ClmulOps(ext.big).mul
    v = np.array(points, dtype=np.uint64)
    d = _right_side(mul, scan.frob, v)
    y = scan.frob(v) ^ v
    require(not scan.trace(d ^ mul(y, mul(y, y))).any(),
            "Tr identity fails at a polarization point in ClmulOps")
    return q**6
