"""Vectorized characteristic-2 kernels for exhaustive scans.

Canonical packed GF(2^m) values (m <= 32) go in as unsigned integer numpy
arrays and come out as uint32 arrays.  Every kernel is a short sequence of
table gathers:

- F_2-linear maps (squaring, the relative Frobenius, the relative
  trace, the reduction of a wide product) take one 4096-entry
  uint32 table per 12-bit window of the input: one gather for m <= 12, two
  for m = 18 and 24.
- Products have one kernel, for every even m <= 32: a quadratic tower
  over GF(2^(m/2)), the composite-field method (C. Paar, PhD thesis,
  1994; Lidl & Niederreiter ch. 9), in `Tower`.  One window map puts each
  operand into tower coordinates a0 + a1 w with w^2 = w + c; a Karatsuba
  step takes 3 subfield log/exp products, the multiply by the constant c
  riding in the log sum; one window map brings the result back.  Odd m
  has no such tower and is rejected.  The shift-and-xor loop is kept as
  the reference every table is derived from and checked against.
- A scan that only counts can stay in tower coordinates throughout:
  `ExtScan.tower`, built on first use, composes the relative Frobenius
  and the trace with the maps of the scan's own tower, and `Tower` takes a
  cube's w-half from the logs of the halves, with no map in or out.
- On the aligned ranges of `run_chunked` a linear map costs no gather at
  all: lo is a multiple of CHUNK, so L(lo + i) = L(lo) xor L(i), and L on
  [0, CHUNK) is a broadcast xor of its tables on the low WINDOW bits of i
  and on the rest (`ChunkMap`).  A sweep of a subspace such as
  L_0 = ker Tr indexes it by basis images this way, with its subfield
  tests on the same index (`SubfieldTests`).

Independence: every table comes from the field's modulus alone, through the
shift-and-xor reference and set-up steps on plain ints, so the vector layer
builds nothing in the scalar `ffield` backends and the test suite can
cross-validate the two layers element by element.  Each product table is
verified when it is built, and a failure raises TableError: exp over one
period is a permutation of the units and g^N = 1; the tower map composed
with its inverse is the identity; the table product agrees with
shift-and-xor on a fixed seeded sample; the tower view's maps agree with
the canonical ones, and its cube kernel with shift-and-xor, on that
sample.

Kernels write into `out=` when it is given and keep their scratch arrays in
per-thread buffers, so a chunked scan allocates its arrays once per worker
thread instead of once per chunk.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, TableError, require
from .ffield import ExtDesc, FieldDesc, _pack, prime_divisors

#: Elements per run_chunked range in the exhaustive scans.
CHUNK = 1 << 16

#: Largest m of a GF(2^m) the kernels take: packed values fit in uint32.
MAX_DEGREE = 32

#: Input bits per linear-map window: one 4096-entry table each.
WINDOW = 12
_WINDOW_MASK = (1 << WINDOW) - 1


class Workspace(threading.local):
    """Named scratch arrays, one set per thread.  Each array holds CHUNK
    elements and is reused by every later request, so a chunked scan
    allocates once per worker thread; a longer request gets a new array
    that is not kept."""

    def __init__(self):
        self._bufs = {}

    def get(self, name: str, n: int, dtype=np.uint32) -> np.ndarray:
        if n > CHUNK:
            return np.empty(n, dtype=dtype)
        buf = self._bufs.get(name)
        if buf is None or buf.dtype != dtype:
            buf = self._bufs[name] = np.empty(CHUNK, dtype=dtype)
        return buf[:n]

    def arange(self, name: str, lo: int, hi: int) -> np.ndarray:
        """The uint32 values lo, ..., hi - 1 in the named array."""
        if hi - lo > CHUNK:
            return np.arange(lo, hi, dtype=np.uint32)
        base = self._bufs.get("_iota")
        if base is None:
            base = self._bufs["_iota"] = np.arange(CHUNK, dtype=np.uint32)
        return np.add(base[:hi - lo], lo, out=self.get(name, hi - lo))


# kernel-internal scratch; callers' arrays never live here
_SCRATCH = Workspace()


def _span(images) -> np.ndarray:
    """All 2^k xor-combinations of k images, by doubling: entry i is the xor
    of images[j] over the set bits j of i."""
    t = np.zeros(1, dtype=np.uint32)
    for img in images:
        t = np.concatenate([t, t ^ np.uint32(img)])
    return t


def _sliced(kernel, out, *args):
    """kernel(*args, out) over CHUNK-element slices, so that no scratch
    array outgrows CHUNK whatever the input length."""
    n = args[0].size
    if n <= CHUNK:
        return kernel(*args, out)
    if out is None:
        out = np.empty(n, dtype=np.uint32)
    for lo in range(0, n, CHUNK):
        kernel(*(x[lo:lo + CHUNK] for x in args), out[lo:lo + CHUNK])
    return out


class LinearMap:
    """The F_2-linear map sending input bit j to images[j] (below 2^32),
    applied as one table gather per 12-bit window of the input.  The tables
    are built on the first array call: a map only read by `scalar` or
    through a ChunkMap keeps none."""

    def __init__(self, images):
        self.images = tuple(int(x) for x in images)

    @functools.cached_property
    def tables(self) -> list[np.ndarray]:
        return [_span(self.images[lo:lo + WINDOW])
                for lo in range(0, max(1, len(self.images)), WINDOW)]

    def scalar(self, v: int) -> int:
        """The map on one plain int."""
        acc = 0
        for img in self.images:
            if v & 1:
                acc ^= img
            v >>= 1
        return acc

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        return _sliced(self._apply, out, v)

    def _apply(self, v, out):
        n = v.size
        if out is None:
            out = np.empty(n, dtype=np.uint32)
        last = len(self.tables) - 1
        # every window index first, so that out may be v itself
        idx = [_SCRATCH.get(f"win{c}", n, np.intp) for c in range(last + 1)]
        if last == 0:
            np.copyto(idx[0], v)
        else:
            np.bitwise_and(v, _WINDOW_MASK, out=idx[0])
        for c in range(1, last + 1):
            np.right_shift(v, WINDOW * c, out=idx[c])
            if c < last:
                np.bitwise_and(idx[c], _WINDOW_MASK, out=idx[c])
        np.take(self.tables[0], idx[0], out=out, mode="wrap")
        if last:
            tmp = _SCRATCH.get("wtmp", n)
            for c in range(1, last + 1):
                np.take(self.tables[c], idx[c], out=tmp, mode="wrap")
                np.bitwise_xor(out, tmp, out=out)
        return out


class ChunkMap:
    """An F_2-linear map L on the aligned ranges of run_chunked.

    A range starts at a multiple lo of CHUNK, so each of its values is
    lo + i = lo xor i with i < CHUNK, and L(lo + i) = L(lo) xor L(i).  L on
    [0, CHUNK) is kept as its tables on the low WINDOW bits of i and on the
    bits above: a range of whole rows of the low table, or of part of one,
    costs one broadcast xor (or comparison) of the two, with L(lo) folded
    into the high one, and no gather.
    """

    def __init__(self, lm: LinearMap, order: int):
        self.map = lm
        self.size = min(order, CHUNK)
        # L on [0, 2^b) is the span of its first b images, in order
        bits = (self.size - 1).bit_length()
        cut = min(bits, WINDOW)
        self.low, self.high = (_span(lm.images[i:j])
                               for i, j in ((0, cut), (cut, bits)))

    def _apply(self, op, lo: int, hi: int, out) -> np.ndarray:
        n = hi - lo
        cols = min(n, self.low.size)
        require(lo % CHUNK == 0 and 0 < n <= self.size and n % cols == 0,
                "range is not aligned to the chunk table")
        high = self.high[:n // cols, None] ^ np.uint32(self.map.scalar(lo))
        return op(high, self.low[:cols], out=None if out is None else
                  out.reshape(-1, cols)).reshape(n)

    def __call__(self, lo: int, hi: int, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """L(v) for v in [lo, hi)."""
        return self._apply(np.bitwise_xor, lo, hi, out)

    def zeros(self, lo: int, hi: int, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Whether L(v) = 0, for v in [lo, hi): the two tables agree."""
        return self._apply(np.equal, lo, hi, out)

    def at(self, v: int) -> int:
        """L(v) as a sweep reads it: L at the start of v's aligned range,
        xor the two tables at v's offset in the range."""
        i = v % self.size
        cols = self.low.size
        return (self.map.scalar(v - i) ^ int(self.high[i // cols])
                ^ int(self.low[i % cols]))


# -- set-up arithmetic on plain ints: shift-and-xor with reduction by the
# full modulus f (its t^m bit included)


def _mulmod(a: int, b: int, f: int, m: int) -> int:
    r = 0
    top = 1 << m
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= f
    return r


def _powmod(a: int, e: int, f: int, m: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _mulmod(r, a, f, m)
        a = _mulmod(a, a, f, m)
        e >>= 1
    return r


def _has_order(x: int, n: int, f: int, m: int) -> bool:
    return (_powmod(x, n, f, m) == 1
            and all(_powmod(x, n // r, f, m) != 1 for r in prime_divisors(n)))


def _invert(images: list[int]) -> list[int]:
    """Images of the inverse of the invertible map bit j -> images[j]."""
    rows = {}  # pivot bit -> (vector, combination of inputs giving it)
    for j, img in enumerate(images):
        vec, comb = img, 1 << j
        while vec:
            top = vec.bit_length() - 1
            if top not in rows:
                rows[top] = (vec, comb)
                break
            vec ^= rows[top][0]
            comb ^= rows[top][1]
        else:
            raise TableError("tower basis is not linearly independent")
    inv = [0] * len(images)
    for bit in range(len(images)):  # lower pivots are unit vectors by now
        vec, comb = rows[bit]
        low = vec ^ (1 << bit)
        while low:
            lsb = low & -low
            comb ^= inv[lsb.bit_length() - 1]
            low ^= lsb
        inv[bit] = comb
    return inv


def _exp_walk(times: np.ndarray, n: int) -> np.ndarray:
    """g^0, ..., g^n from the table `times` of x -> g*x, by doubling: with
    T the table of x -> g^k x, the next k powers are T[powers], and T[T] is
    the table of x -> g^(2k) x."""
    powers = np.ones(1, dtype=np.intp)
    t = times.astype(np.intp)
    while powers.size <= n:
        powers = np.concatenate([powers, t[powers]])
        t = t[t]
    return powers[:n + 1]


def _log_exp(times: np.ndarray, h: int, terms: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) of GF(2^h) to the base g, on the coordinates that the
    table `times` of x -> g*x is written in, for sums of up to `terms`
    logs.  The exp walk is verified to run once through every unit and
    back to 1.

    With N = 2^h - 1 and Z = terms * N: log[0] = Z, and exp[k] = g^(k mod N)
    for k < Z and 0 from Z to terms * Z.  So exp[log a + log b + ...] is the
    product for any `terms` factors, constants included: a sum of nonzero
    logs stays below Z, and one zero factor lands it in the zero tail.
    """
    n = (1 << h) - 1
    powers = _exp_walk(times, n)
    units = powers[:n]
    if powers[n] != 1 or not np.array_equal(np.sort(units),
                                            np.arange(1, n + 1)):
        raise TableError(f"exp table of GF(2^{h}) is not one cycle of the "
                         "units")
    log = np.empty(n + 1, dtype=np.intp)
    log[units] = np.arange(n)
    log[0] = zero = terms * n
    exp = np.zeros(terms * zero + 1, dtype=np.uint32)
    exp[:zero] = np.resize(units, zero)
    return log, exp


def _sample(m: int) -> tuple[np.ndarray, np.ndarray]:
    """A fixed pair of 256-value samples of GF(2^m), spread by Fibonacci
    hashing, with the edge values first; importing numpy.random would cost
    more than a whole table build."""
    k = np.arange(256, dtype=np.uint64)
    drop = np.uint64(64 - m)
    a = k * np.uint64(0x9E3779B97F4A7C15) >> drop
    b = k * np.uint64(0xC2B2AE3D27D4EB4F) >> drop
    top = (1 << m) - 1
    a[:3], b[:3] = (0, top, 1), (top, top, 0)
    return a, b


class Tower:
    """GF(2^m), m = 2h, as K[w] / (w^2 + w + c) over K = GF(2^h): the
    composite-field method (C. Paar, PhD thesis, 1994; Lidl & Niederreiter
    ch. 9).  Tower coordinates pack a0 + a1 w as a0 | a1 << h, each a_i
    over the basis gamma^0..gamma^(h-1) of K for a primitive gamma.

    K's log/exp tables take sums of up to three logs and one constant's,
    so a product, c times a product, and a cube's monomials are one exp
    gather each.  Built from the packed modulus f alone; the tower map and
    its inverse are verified to invert each other.
    """

    def __init__(self, f: int, m: int):
        h = m // 2
        if m != 2 * h or h < 1:
            raise DomainError(f"GF(2^{m}) has no quadratic tower")

        def mul(a, b):
            return _mulmod(a, b, f, m)

        def frob(x):  # x -> x^(2^h), generating Gal(GF(2^m)/K)
            for _ in range(h):
                x = mul(x, x)
            return x

        # a primitive element of K: a norm z^(2^h+1)
        n = (1 << h) - 1
        gamma = next(y for y in (mul(z, frob(z)) for z in range(2, 1 << m))
                     if _has_order(y, n, f, m))
        # w = t / (t + t^(2^h)) has w + w^(2^h) = 1, so w^2 = w + c for its
        # norm c = w^(2^h+1) in K; t + t^(2^h) is a nonzero element of K
        s = 2 ^ frob(2)
        w = mul(2, _powmod(s, n - 1, f, m))
        c = mul(w, frob(w))
        gpow = [1]
        for _ in range(h):
            gpow.append(mul(gpow[-1], gamma))
        self.from_tower = LinearMap(gpow[:h] + [mul(x, w) for x in gpow[:h]])
        self.to_tower = LinearMap(_invert(list(self.from_tower.images)))
        to_tower = self.to_tower.scalar
        gamma_h, c_coord = to_tower(gpow[h]), to_tower(c)
        if (gamma_h | c_coord) >> h or not c_coord:
            raise TableError(f"tower of GF(2^{m}) over GF(2^{h}) is not "
                             "closed")
        # the subfield times-gamma map on K's coordinates
        times = _span([1 << (i + 1) for i in range(h - 1)] + [gamma_h])
        self.log, self.exp = _log_exp(times, h, 4)
        self.h, self.mask = h, (1 << h) - 1
        self.c_log = int(self.log[c_coord])
        # log(1 + c); 1 + c = 0, and its log Z, when c = 1, as odd h allows
        self.c1_log = int(self.log[c_coord ^ 1])
        for lo in range(0, m, WINDOW):
            v = np.arange(1 << min(WINDOW, m - lo), dtype=np.uint32) << lo
            if not (np.array_equal(self.from_tower(self.to_tower(v)), v)
                    and np.array_equal(self.to_tower(self.from_tower(v)),
                                       v)):
                raise TableError(f"tower map of GF(2^{m}) does not invert")

    def _halves(self, x):
        """x0, x1 and x0 + x1 of tower coordinates x = x0 | x1 << h, in
        turn, as log-table indices in one reused array."""
        idx = _SCRATCH.get("p_idx", x.size, np.intp)
        hi = _SCRATCH.get("p_u", x.size)
        np.right_shift(x, self.h, out=hi)
        yield np.bitwise_and(x, self.mask, out=idx)
        np.copyto(idx, hi)
        yield idx
        hi ^= x
        yield np.bitwise_and(hi, self.mask, out=idx)

    def logs(self, x):
        """log x0, log x1 and log(x0 + x1) of tower coordinates x, in the
        product's three scratch sums."""
        out = [_SCRATCH.get(f"p_sum{i}", x.size, np.intp) for i in range(3)]
        for i, idx in enumerate(self._halves(x)):
            np.take(self.log, idx, out=out[i], mode="wrap")
        return out

    def add_logs(self, x, sums):
        """sums[i] += the i-th log of `logs(x)`, one log array at a time."""
        lb = _SCRATCH.get("p_lb", x.size, np.intp)
        for i, idx in enumerate(self._halves(x)):
            np.add(sums[i], np.take(self.log, idx, out=lb, mode="wrap"),
                   out=sums[i])
        return sums

    def product(self, sums):
        """Halves r0, r1 of the product from `sums`, the summed logs of both
        factors' x0, x1 and x0 + x1 (sums[1] gains log c): with p0 = x0 y0,
        p1 = x1 y1 and p2 = (x0 + x1)(y0 + y1), r0 = p0 + c p1 and
        r1 = p2 + p0.  The halves land in the product's scratch operands
        p_ta and p_tb."""
        n = sums[0].size
        np.add(sums[1], self.c_log, out=sums[1])
        r0 = np.take(self.exp, sums[1], out=_SCRATCH.get("p_ta", n),
                     mode="wrap")
        r1 = np.take(self.exp, sums[2], out=_SCRATCH.get("p_tb", n),
                     mode="wrap")
        p0 = np.take(self.exp, sums[0], out=_SCRATCH.get("p_u", n),
                     mode="wrap")
        r0 ^= p0
        r1 ^= p0
        return r0, r1

    def cube_hi(self, ly, out):
        """r1 = y0 y1 (y0 + y1) + (1 + c) y1^3 of y^3 = r0 + r1 w, from y's
        logs `ly`; r0 = y0^3 + c y1^2 (y0 + y1) is not needed for a
        trace."""
        idx = _SCRATCH.get("p_idx", out.size, np.intp)
        np.add(ly[0], ly[1], out=idx)
        np.add(idx, ly[2], out=idx)
        np.take(self.exp, idx, out=out, mode="wrap")
        np.multiply(ly[1], 3, out=idx)
        np.add(idx, self.c1_log, out=idx)
        return np.bitwise_xor(out, np.take(
            self.exp, idx, out=_SCRATCH.get("p_u", out.size), mode="wrap"),
            out=out)


class Gf2Scan:
    """Element-wise field arithmetic on arrays over one GF(2^m), m even and
    at most MAX_DEGREE, every product taken through the field's `Tower`."""

    def __init__(self, field: FieldDesc):
        if field.p != 2:
            raise DomainError("vector kernels are characteristic-2 only")
        if field.m > MAX_DEGREE:
            raise DomainError(f"packed degree {field.m} exceeds uint32 "
                              "headroom")
        self.field = field
        self.m = m = field.m
        f = _pack(field.modulus, 2)
        # t^(m+j) mod f for the high bits of a carry-less product
        hi = []
        cur = f ^ (1 << m)
        for _ in range(m - 1):
            hi.append(cur)
            cur <<= 1
            if cur >> m & 1:
                cur ^= f
        self._red = LinearMap(hi)
        self._low_mask = np.uint64((1 << m) - 1)
        # (t^j)^2 = t^(2j), reduced
        wide = np.array([1 << 2 * j for j in range(m)], dtype=np.uint64)
        self._sqr = LinearMap(self.reduce_wide(wide).tolist())
        self._tower = Tower(f, m)
        to_tower = self._tower.to_tower.scalar
        self._sqr_to_tower = LinearMap(to_tower(x) for x in self._sqr.images)
        self._verify_product()

    def _verify_product(self) -> None:
        a, b = _sample(self.m)
        ref = self._loop_mul(a, b)
        cube = self._loop_mul(a, self._loop_mul(a, a))
        if not (np.array_equal(self._tower_mul(a, b, None), ref)
                and np.array_equal(self._cube(a, None), cube)):
            raise TableError(f"table product of GF(2^{self.m}) disagrees "
                             "with shift-and-xor")

    # -- the product kernel and its shift-and-xor reference

    def _tower_mul(self, a, b, out, b_map=None):
        """a * b through tower coordinates; b enters through b_map (default
        the tower map), so that cube can pass the map of a's square."""
        n = a.size
        if out is None:
            out = np.empty(n, dtype=np.uint32)
        s, tower = _SCRATCH, self._tower
        ta = tower.to_tower(a, out=s.get("p_ta", n))
        tb = (b_map or tower.to_tower)(b, out=s.get("p_tb", n))
        r0, r1 = tower.product(tower.add_logs(tb, tower.logs(ta)))
        r1 <<= tower.h
        r1 |= r0
        return tower.from_tower(r1, out=out)

    def _loop_mul(self, a, b, out=None):
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        acc = np.zeros(np.broadcast(a, b).shape, dtype=np.uint64)
        one = np.uint64(1)
        for k in range(self.m):
            ks = np.uint64(k)
            mask = np.uint64(0) - ((b >> ks) & one)
            acc ^= (a << ks) & mask
        return self.reduce_wide(acc, out)

    # -- public kernels

    def reduce_wide(self, wide: np.ndarray, out: np.ndarray | None = None
                    ) -> np.ndarray:
        """Reduce a (2m-1)-bit carry-less product (uint64) to the canonical
        value."""
        high = self._red(wide >> np.uint64(self.m))
        low = (wide & self._low_mask).astype(np.uint32)
        return np.bitwise_xor(low, high, out=out)

    def mul(self, a: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
        return _sliced(self._tower_mul, out, a, b)

    def square(self, a: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        return self._sqr(a, out=out)

    def cube(self, a: np.ndarray, out: np.ndarray | None = None
             ) -> np.ndarray:
        return _sliced(self._cube, out, a)

    def _cube(self, a, out):
        return self._tower_mul(a, a, out, b_map=self._sqr_to_tower)


class ExtScan:
    """Gf2Scan plus relative Frobenius / trace maps for one extension."""

    def __init__(self, ext: ExtDesc):
        self.ext = ext
        self.ops = Gf2Scan(ext.big)
        # images of the basis t^j under x -> x^(q^i): x^q by squarings in
        # the shift-and-xor reference, so that they stay independent of the
        # square and product tables, then x^(q^i) by its map
        images = [np.array([1 << j for j in range(ext.big.m)],
                           dtype=np.uint64)]
        cur = images[0]
        for _ in range(ext.base_deg):
            cur = self.ops._loop_mul(cur, cur)
        self._frob = LinearMap(cur.tolist())
        for _ in range(1, ext.n):
            images.append(self._frob(images[-1]))
        self._trace = LinearMap(np.bitwise_xor.reduce(images).tolist())

    @functools.cached_property
    def tower(self) -> TowerView:
        """The big field in tower coordinates, built on first use."""
        return TowerView(self)

    def frob(self, v: np.ndarray, out: np.ndarray | None = None
             ) -> np.ndarray:
        """The relative Frobenius x -> x^q, element-wise."""
        return self._frob(v, out=out)

    def trace(self, v: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        return self._trace(v, out=out)

    def power(self, v: np.ndarray, e: int,
              out: np.ndarray | None = None) -> np.ndarray:
        """Element-wise v**e by square and multiply."""
        if e < 0:
            raise DomainError("negative exponent in vector power")
        return _sliced(lambda x, o: self._power(x, e, o), out, v)

    def _power(self, v, e, out):
        base = _SCRATCH.get("pw_base", v.size)
        np.copyto(base, v)  # before out is written: out may be v
        acc = np.empty(v.size, dtype=np.uint32) if out is None else out
        acc.fill(1)
        while e:
            if e & 1:
                self.ops.mul(acc, base, out=acc)
            e >>= 1
            if e:
                self.ops.square(base, out=base)
        return acc


def _in_tower(tower: Tower, lm: LinearMap, tower_out: bool = True
              ) -> LinearMap:
    """lm on tower coordinates: images of the tower basis, mapped back to
    tower coordinates when tower_out."""
    back = tower.to_tower.scalar if tower_out else int
    return LinearMap(back(lm.scalar(x)) for x in tower.from_tower.images)


class TowerView:
    """An extension's big field in tower coordinates (see Tower), with the
    relative Frobenius x -> x^q and the relative trace composed into them
    from basis images.  The trace of r0 + r1 w is Tr_K(r1) for r0, r1 in
    K = GF(q^3), since w + w^(q^3) = 1 and Tr_{L/K}(r0) = 2 r0 = 0:
    `trace_hi` maps r1 alone.  Both maps and Tower's cube kernel are
    checked on the seeded sample against the canonical maps and the
    shift-and-xor product; a mismatch raises TableError.
    """

    def __init__(self, scan: "ExtScan"):
        ops = scan.ops
        self.tower = tower = ops._tower
        h = tower.h
        self.frob = _in_tower(tower, scan._frob)
        trace = _in_tower(tower, scan._trace, tower_out=False)
        if any(trace.images[:h]):
            raise TableError("trace of the tower's subfield is not zero")
        self.trace_hi = LinearMap(trace.images[h:])
        self._verify(scan)

    def _verify(self, scan: "ExtScan") -> None:
        tower, loop = self.tower, scan.ops._loop_mul
        to, h, n = tower.to_tower, tower.h, 256
        a, b = _sample(scan.ops.m)
        ta, tb = to(a), to(b)
        ok = np.array_equal(self.frob(ta), to(scan.frob(a)))
        ok &= np.array_equal(self.trace_hi(ta >> h), scan.trace(a))
        ok &= np.array_equal(
            tower.cube_hi(tower.logs(tb), np.empty(n, dtype=np.uint32)),
            to(loop(b, loop(b, b))) >> h)
        if not ok:
            raise TableError(f"tower view of GF(2^{scan.ops.m}) disagrees "
                             "with the canonical maps")


class SubfieldTests:
    """ChunkMaps of (F^3 + 1) y and (F^2 + 1) y, zero on F_{q^3} and F_{q^2},
    for a sweep whose index bit j stands for y = images[j] in a tower
    view's coordinates, composed from basis images of the view's F."""

    def __init__(self, view: TowerView, images, order: int):
        f = view.frob.scalar
        f2 = [f(f(v)) for v in images]
        self.cubic, self.quadratic = (
            ChunkMap(LinearMap(u ^ v for u, v in zip(fi, images)), order)
            for fi in ([f(u) for u in f2], f2))

    def split(self, t, lo: int, hi: int, ws: Workspace
              ) -> tuple[np.ndarray, np.ndarray]:
        """Whether t = Tr(y^3) is 0 and whether y is in F_{q^3}, on [lo, hi),
        in arrays of ws.  All of F_{q^3} must pass, and none of F_{q^2}
        outside it: with Tr(y) = 0, as in every sweep, that is F_q."""
        n = hi - lo
        solvable = np.equal(t, 0, out=ws.get("solvable", n, bool))
        in_cubic = self.cubic.zeros(lo, hi, out=ws.get("cubic", n, bool))
        in_quadratic = self.quadratic.zeros(
            lo, hi, out=ws.get("quadratic", n, bool))
        require(not np.any(in_cubic & ~solvable),
                "an element of F_{q^3} has Tr(y^3) != 0")
        require(not np.any(solvable & in_quadratic & ~in_cubic),
                "a y with Tr(y^3) = 0 lies in F_{q^2} outside F_{q^3}")
        return solvable, in_cubic


def run_chunked(total: int, fn, chunk: int = CHUNK, threads: int = 1) -> list:
    """fn(lo, hi) over [0, total) split into ranges; results in range order.

    Thread count never changes the output: results are collected by chunk
    index, and fn must be pure.  At most one worker per range and per CPU
    this process may use is started, whatever `threads` asks for.
    """
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, len(ranges), cpus)
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))
