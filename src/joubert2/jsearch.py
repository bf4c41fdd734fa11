"""Exhaustive searches: trace-constrained generators of F_{q^6}/F_q, the
sextic polynomials they realize, and degree-5 analogues in any
characteristic.

Search order is always ascending packed value, so witnesses are reproducible;
chunked scans merge their parts in chunk order, which keeps results
independent of thread count.  First-witness searches are scalar walks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DomainError, TableError, require
from .ffield import (ExtDesc, FElt, FieldDesc, _pack, check_budget, make_ext,
                     make_field, prime_divisors)
from .fastscan import (CHUNK, MAX_DEGREE, ChunkForm, ExtScan, LinearMap,
                       SubfieldTests, Workspace, _form_values, run_chunked)
from .fpoly import UPoly, compress_poly, is_irreducible, min_poly
from .gflinalg import kernel, rref_vals
from .sigma import is_joubert, joubert_mask


@dataclass
class SearchReport:
    """Outcome of one search or enumeration over F_{q^n}."""

    q: int
    n: int
    found: FElt | None = None
    found_min_poly: UPoly | None = None
    count: int | None = None
    scanned: int = 0


def _split_prime_power(q: int) -> tuple[int, int]:
    primes = prime_divisors(q) if q >= 2 else []
    if len(primes) != 1:
        raise DomainError(f"q = {q} is not a prime power")
    p, k = primes[0], 1
    while p**k < q:
        k += 1
    return p, k


def _require_pow2(q: int) -> int:
    p, k = _split_prime_power(q)
    if p != 2:
        raise DomainError(f"q = {q} must be a power of 2")
    return k


def _vector_q(q: int) -> bool:
    """Whether the vector kernels take GF(q^6): q = 2^k, 6k <= MAX_DEGREE."""
    p, k = _split_prime_power(q)
    return p == 2 and 6 * k <= MAX_DEGREE


def _require_vector_q(q: int) -> int:
    k = _require_pow2(q)
    if not _vector_q(q):
        raise DomainError(f"q = {q} needs GF(2^{6 * k}); the vector kernels "
                          f"take degree at most {MAX_DEGREE}")
    return k


def _ext_scan(p: int, base_deg: int, n: int,
              limit: int | None = None) -> ExtScan:
    """Vector kernels for make_ext(p, base_deg, n, limit), built once per
    extension whatever the limit."""
    return _scan_of(make_ext(p, base_deg, n, limit))


_scan_of = functools.lru_cache(maxsize=None)(ExtScan)


def _verify_joubert_witness(y: FElt, ext: ExtDesc) -> UPoly:
    # re-derive everything the report claims about the witness
    mp = min_poly(y, ext)
    require(mp.degree == ext.n, f"minimal polynomial of {y!r} has degree "
            f"{mp.degree}, not {ext.n}")
    require(mp.coeff(ext.n - 1) == 0 and mp.coeff(ext.n - 3) == 0,
            f"minimal polynomial of {y!r} has a nonzero t^{ext.n - 1} or "
            f"t^{ext.n - 3} coefficient")
    require(is_irreducible(compress_poly(mp, ext)),
            f"minimal polynomial of {y!r} is reducible over GF({ext.q})")
    return mp


def _first_generator(q: int, n: int, budget: int | None) -> SearchReport:
    """First y (in value order) generating F_{q^n}/F_q with s_1 = s_3 = 0.

    The pair Tr(y) = Tr(y^3) = 0 only rejects: Tr(y) = s_1, and by Newton's
    identity Tr(y^3) = s_1^3 - 3 s_1 s_2 + 3 s_3, which vanishes whenever
    s_1 = s_3 = 0 in every characteristic (in characteristic 3 it is Tr(y)^3
    and rejects nothing more).  Acceptance goes through `is_joubert`.
    """
    p, k = _split_prime_power(q)
    ext = make_ext(p, k, n, limit=budget)
    big = ext.big
    report = SearchReport(q=q, n=n)
    for v in range(big.order):
        report.scanned = v + 1
        if (ext.trace_val(v) == 0
                and ext.trace_val(big.mul_val(v, big.mul_val(v, v))) == 0
                and is_joubert(big.element(v), ext)):
            report.found = big.element(v)
            report.found_min_poly = _verify_joubert_witness(report.found, ext)
            break
    return report


def find_joubert_generator(q: int, budget: int | None = None) -> SearchReport:
    """First y (in value order) generating F_{q^6}/F_q with s_1 = s_3 = 0,
    characteristic 2 only.  The witnesses sit at values 2, 6, 258, 410 and
    326 for q = 2, 4, 8, 16 and 64."""
    _require_pow2(q)
    return _first_generator(q, 6, budget)


class _Bits:
    """GF(2) on the ints 0 and 1 for `gflinalg`, so that the kernel of the
    trace, like every vector table, needs no scalar `ffield` backend."""

    inv_val = neg_val = staticmethod(int)
    mul_val, sub_val = staticmethod(int.__and__), staticmethod(int.__xor__)


class _L0Tables:
    """L_0 = ker Tr on an F_2-basis from the trace's kernel over GF(2), not
    the K-basis of `cubic`: index bit j stands for basis[j], packed by
    `canonical`, with subfield `tests` composed from the scan's Frobenius.

    In characteristic 2, y^3 = y y^2 with y -> y^2 F_2-linear, so Tr(y^3)
    is a K-valued F_2-quadratic form on the index bits, swept by `form`.
    Its Gram matrix is Tr(y^3), by `Gf2Scan.cube` and the scan's trace, at
    the 5k(5k + 1)/2 points e_i and e_i + e_j: Q(e_i) on the diagonal, and
    B(e_i, e_j) = Q(e_i + e_j) + Q(e_i) + Q(e_j) off it."""

    def __init__(self, scan: ExtScan):
        trace, m, gf2 = scan._trace, scan.ops.m, _Bits
        basis = [sum(bit << j for j, bit in enumerate(vec)) for vec in kernel(
            [[img >> i & 1 for img in trace.images] for i in range(m)], gf2)]
        require(len(basis) == 5 * scan.ext.base_deg,
                f"ker Tr has {len(basis)} basis elements, not 5k")
        require(all(trace.scalar(b) == 0 for b in basis),
                "a basis element of ker Tr has nonzero trace")
        require(len(rref_vals([[b >> i & 1 for i in range(m)] for b in basis],
                              gf2)) == len(basis),
                "the basis of ker Tr is dependent over F_2")
        self.canonical = LinearMap(basis)
        self.order = order = 1 << len(basis)
        self.tests = SubfieldTests(scan._frob, basis, order)
        i, j = np.triu_indices(len(basis))
        unit = np.uint64(1) << np.arange(len(basis), dtype=np.uint64)
        t = scan.trace(scan.ops.cube(self.canonical(unit[i] | unit[j])))
        gram = np.zeros((len(basis),) * 2, dtype=np.uint32)
        gram[i, j] = t
        diag = gram.diagonal().copy()
        gram[i, j] ^= np.where(i == j, 0, diag[i] ^ diag[j])
        self.form = ChunkForm(gram, order)


_l0_tables = functools.lru_cache(maxsize=None)(_L0Tables)


def _spread(count: int, n: int) -> np.ndarray:
    """Up to n of the ranks 0, ..., count - 1, evenly spread."""
    return np.linspace(0, count - 1, min(n, count)).astype(np.intp)


def count_joubert_generators(q: int, budget: int | None = None,
                             threads: int = 1) -> SearchReport:
    """Exact number of Joubert generators of F_{q^6}/F_q (characteristic 2).

    Every one has s_1 = Tr(y) = 0, so the count sweeps the q^5 elements of
    L_0 = ker Tr, which `scanned` reports, and keeps the y with
    Tr(y^3) = s_3 = 0 outside F_{q^3}, of which there must be q^3.
    Tr(y^3) is read from its Gram matrix by the tables' `ChunkForm`, two
    xors per chunk.  Up to 32 kept and 32 rejected y per chunk (2 above
    q = 16), 1,024 in all at q = 16, are audited: Tr(y^3) by `Gf2Scan.cube`
    and the scan's trace, the Gram's own route, must equal the Gram's value
    at each (TableError if not), the batched `sigma.joubert_mask`
    re-verifies each, and the scalar `is_joubert` must share its verdict on
    the first sampled y of each kind (kept, in F_{q^3}, Tr(y^3) != 0) in
    every chunk.
    """
    k = _require_vector_q(q)
    scan = _ext_scan(2, k, 6, budget)
    tables = _l0_tables(scan)
    # 32 kept and 32 rejected y per chunk for the audit, 1,024 in all at
    # q = 16, and 2 of each above, so that both rejected kinds show
    quota = 32 if tables.order <= 16 * CHUNK else 2
    ws = Workspace()

    def tally(lo: int, hi: int) -> tuple[int, int, dict[int, str]]:
        solvable, in_cubic = tables.tests.split(
            tables.form(lo, hi, out=ws.get("t", hi - lo)), lo, hi, ws)
        # one index list a chunk, the y with Tr(y^3) = 0, which split
        # requires to hold F_{q^3}; the r-th y with Tr(y^3) != 0 is then
        # r plus the number of those up to it
        zero = np.flatnonzero(solvable)
        at_cubic = in_cubic[zero]
        kept, cubic = zero[~at_cubic], zero[at_cubic]

        def tag(idx: np.ndarray, kind: str) -> dict[int, str]:
            return dict.fromkeys((idx + lo).tolist(), kind)
        # the rejected: up to half from F_{q^3}, the rest with Tr(y^3) != 0
        picked = tag(cubic[_spread(cubic.size, quota // 2)], "cubic")
        rank = _spread(hi - lo - zero.size, quota - len(picked))
        trace = rank + np.searchsorted(zero - np.arange(zero.size), rank,
                                       "right")
        return (kept.size, cubic.size,
                {**tag(kept[_spread(kept.size, quota)], "kept"), **picked,
                 **tag(trace, "trace")})

    parts = run_chunked(tables.order, tally, threads=threads)
    require(sum(part[1] for part in parts) == q**3,
            "F_{q^3} does not have q^3 elements in L_0")
    # the audit, in chunk order and outside the worker threads: the kernel
    # on every sampled y, the scalar is_joubert on one y of each kind
    ext, samples = scan.ext, [part[2] for part in parts]
    index = [i for sample in samples for i in sample]
    audited = np.array(index, dtype=np.uint64)
    bits = audited[:, None] >> np.arange(5 * k, dtype=np.uint64) & np.uint64(1)
    vals = tables.canonical(audited)
    if not np.array_equal(scan.trace(scan.ops.cube(vals)),
                          _form_values(tables.form.gram, bits)):
        raise TableError("the Gram matrix of Tr(y^3) disagrees with "
                         "Gf2Scan.cube at an audited y")
    vals = vals.tolist()
    val = dict(zip(index, vals))
    verdict = dict(zip(index, joubert_mask(vals, ext).tolist()))
    for sample in samples:
        first = {}
        for i, kind in sample.items():
            first.setdefault(kind, i)
        for i in first.values():
            require(is_joubert(ext.big.element(val[i]), ext) == verdict[i],
                    f"audit kernel disagrees with is_joubert on element "
                    f"{val[i]}")
    for sample in samples:
        for i, kind in sample.items():
            require(verdict[i] == (kind == "kept"), "is_joubert disagrees on "
                    f"{'kept' if kind == 'kept' else 'rejected'} element "
                    f"{val[i]}")
    return SearchReport(q=q, n=6, count=sum(part[0] for part in parts),
                        scanned=tables.order)


def _sieve(field: FieldDesc, top: int, exps: tuple[int, ...],
           divisors) -> bytearray:
    """Marks, among the monic f = t^top + sum x_i t^exps[i] over `field`
    (indexed by the packed (x_0, x_1, ...) in ascending order), those that
    some monic g in `divisors` (coefficient lists) divides.

    Every g must have a degree e < len(exps), and the last e exponents
    must be e - 1, ..., 0.  Then t^j mod g = t^j for them, so f = 0 mod g
    is e linear equations that fix the last e coordinates from the others,
    and g crosses out q^(len(exps) - e) polynomials.
    """
    q = field.order
    add, mul, sub = field.add_val, field.mul_val, field.sub_val
    marks = bytearray(q ** len(exps))
    for g in divisors:
        e = len(g) - 1
        free = len(exps) - e
        npw = [[field.neg_val(1)] + [0] * (e - 1)]  # -t^j mod g
        for _ in range(top):
            cur = npw[-1]  # times t, then t^e replaced by t^e - g
            npw.append([sub(x, mul(cur[-1], y))
                        for x, y in zip([0] + cur[:-1], g)])
        # (packed free coordinates but the last, the fixed part they give)
        rows = [(0, npw[top])]
        for j in exps[:free - 1]:
            steps = [[mul(x, y) for y in npw[j]] for x in range(q)]
            rows = [(off * q + x, [add(u, v) for u, v in zip(res, step)])
                    for off, res in rows for x, step in enumerate(steps)]
        # the last free coordinate: the offsets of its q polynomials depend
        # only on the fixed part so far, which takes at most q^e values
        steps = [[mul(x, y) for y in npw[exps[free - 1]]] for x in range(q)]
        memo = {}
        for off, res in rows:
            key = tuple(res)
            if key not in memo:
                memo[key] = [_pack([add(u, v) for u, v in zip(res, step)], q)
                             + x * q**e for x, step in enumerate(steps)]
            base = off * q ** (e + 1)
            for i in memo[key]:
                marks[base + i] = 1
    return marks


def enumerate_joubert_polys(q: int, budget: int | None = None) -> list[UPoly]:
    """All irreducible monic sextics t^6 + a t^4 + b t^2 + c t + d over F_q,
    ordered by ascending (a, b, c, d) packed-value tuples.

    A reducible sextic has a monic irreducible factor of degree at most 3,
    so the sextics are sieved by every monic linear, and by the quadratics
    and cubics with no root, which the same sieve finds by the linears and
    which must number (q^2 - q)/2 and (q^3 - q)/3 (Gauss).
    """
    p, k = _split_prime_power(q)
    check_budget("q^4", q**4, budget)
    field = make_field(p, k)
    linears = [[r, 1] for r in range(q)]
    divisors = list(linears)
    for e in (2, 3):
        marks = _sieve(field, e, tuple(range(e - 1, -1, -1)), linears)
        found = [[*x[::-1], 1] for x, m in zip(product(range(q), repeat=e),
                                              marks) if not m]
        require(e * len(found) == q**e - q,
                f"{len(found)} irreducibles of degree {e}, not (q^{e}-q)/{e}")
        divisors += found
    marks = _sieve(field, 6, (4, 2, 1, 0), divisors)
    return [UPoly(field, [d, c, b, 0, a, 0, 1])
            for (a, b, c, d), m in zip(product(range(q), repeat=4), marks)
            if not m]


def hermite_search(q: int, budget: int | None = None) -> SearchReport:
    """First generator of F_{q^5}/F_q with s_1 = s_3 = 0, any characteristic."""
    return _first_generator(q, 5, budget)
