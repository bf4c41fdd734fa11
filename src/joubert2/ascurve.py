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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require
from .fastscan import (ChunkMap, ExtScan, SubfieldTests, Workspace,
                       run_chunked)
from .ffield import ExtDesc, FElt, make_ext, rel_frobenius, rel_trace
from .jsearch import _ext_scan, _require_pow2, _require_vector_q


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


def fiber_size(c: FElt, ext: ExtDesc) -> int:
    """Number of u with u^q - u = c: q when the relative trace of c
    vanishes, 0 otherwise."""
    if c.field is not ext.big:
        raise DomainError("fiber argument lives in the wrong field")
    return ext.q if rel_trace(c, ext).val == 0 else 0


def rhs_value(x: FElt, ext: ExtDesc) -> FElt:
    """The covering map's right side at x, in factored form."""
    xq = rel_frobenius(x, ext)
    return x * xq * (xq + x)


class _CensusTables:
    """The census's linear parts in tower coordinates, on aligned chunks:
    x -> x^q = F(x), and the subfield tests of y = x^q + x."""

    def __init__(self, scan: ExtScan):
        self.view = view = scan.tower
        order = scan.ext.big.order
        y = [(1 << j) ^ img for j, img in enumerate(view.frob.images)]
        self.frob = ChunkMap(view.frob, order)
        self.tests = SubfieldTests(view, y, order)


_census_tables = functools.lru_cache(maxsize=None)(_CensusTables)


def curve_census(q: int, budget: int | None = None,
                 threads: int = 1) -> CurveCensus:
    """Full fiber census over the sextic extension of F_q.

    Every solvable fiber is classified: y = x^q + x either generates the
    degree-6 extension (good) or lies in the cubic subextension (bad); the
    quadratic subextension is impossible for trace-qualifying y, which the
    scan checks rather than assumes.
    """
    k = _require_vector_q(q)
    tables = _census_tables(_ext_scan(2, k, 6, budget))
    tower, trace_hi = tables.view.tower, tables.view.trace_hi
    ws = Workspace()

    def tally(lo: int, hi: int) -> tuple[int, int, int]:
        # x runs through tower coordinates; the tower map is a bijection,
        # and only counts leave the chunk
        n = hi - lo
        x = ws.arange("x", lo, hi)
        xq = tables.frob(lo, hi, out=ws.get("xq", n))
        # c = x * x^q by its halves, then y = x^q + x and y's three logs
        c0, c1 = tower.product(tower.add_logs(xq, tower.logs(x)))
        ly = tower.logs(np.bitwise_xor(x, xq, out=xq))
        # Tr(y^3) and Tr(c y), each from the w-half of the product; y
        # itself is spent
        t = trace_hi(tower.cube_hi(ly, out=x), out=xq)
        # equal as values, since Tr(x^(3q)) = Tr(x^3): a cross-check
        require(np.array_equal(t, trace_hi(tower.mul_hi(c0, c1, ly, out=x),
                                           out=x)),
                "solvability differs from the trace identity")
        solvable, in_cubic = tables.tests.split(t, lo, hi, ws)
        good = solvable & ~in_cubic
        return (int(np.count_nonzero(solvable)),
                int(np.count_nonzero(solvable & in_cubic)),
                int(np.count_nonzero(good)))

    parts = run_chunked(q**6, tally, threads=threads)
    solvable_x = sum(p[0] for p in parts)
    bad_x = sum(p[1] for p in parts)
    good_x = sum(p[2] for p in parts)
    require(good_x + bad_x == solvable_x,
            "good and bad fibers do not cover the solvable ones")

    n_affine = q * solvable_x
    lo, hi = weil_window(q)
    n_smooth = n_affine + 1
    require(n_affine % q == 0, "affine count is not divisible by q")
    require(lo <= n_smooth <= hi, "smooth count escapes the Weil interval")
    census = CurveCensus(q=q, n_affine=n_affine, n_smooth=n_smooth,
                         genus=genus_of(q), weil_low=lo, weil_high=hi,
                         good_points=q * good_x, bad_points=q * bad_x)
    require(census.bad_points <= q**5, "more than q^5 bad points")
    return census


def scalar_counts(q: int, budget: int | None = None) -> tuple[int, int]:
    """(n_affine, bad_points) by scalar arithmetic, point by point: the
    fiber over x has fiber_size(rhs_value(x)) points, bad when
    y = x^q + x is fixed by the third power of the relative Frobenius.  It
    shares no table with the vector census."""
    k = _require_pow2(q)
    ext = make_ext(2, k, 6, limit=budget)
    n_affine = bad = 0
    for xv in range(ext.big.order):
        size = fiber_size(rhs_value(FElt(ext.big, xv), ext), ext)
        yv = ext.big.add_val(ext.frob_val(xv), xv)
        n_affine += size
        if size and ext.frob_iter_val(yv, 3) == yv:
            bad += size
    return n_affine, bad


def trace_identity_check(q: int, budget: int | None = None,
                         threads: int = 1) -> int:
    """Exhaustively confirm Tr((x^q + x)^3) = Tr(x^(2q+1) + x^(q+2)); the
    right side is evaluated from the raw monomials, not the factored form.
    Returns the number of points checked."""
    k = _require_vector_q(q)
    scan = _ext_scan(2, k, 6, budget)

    ws = Workspace()

    def check(lo: int, hi: int) -> int:
        n = hi - lo
        x = ws.arange("x", lo, hi)
        y = scan.frob(x, out=ws.get("y", n))
        y ^= x
        lhs = scan.trace(scan.ops.cube(y, out=y), out=y)
        r = scan.power(x, 2 * q + 1, out=ws.get("r", n))
        r ^= scan.power(x, q + 2, out=ws.get("r2", n))
        require(np.array_equal(lhs, scan.trace(r, out=r)), "Tr identity fails")
        return n

    return sum(run_chunked(q**6, check, threads=threads))
