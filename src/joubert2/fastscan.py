"""Vectorized characteristic-2 kernels for exhaustive scans.

Canonical packed GF(2^m) values (m <= 32) go in as unsigned integer numpy
arrays.  Two kinds of kernel cover every scan:

- F_2-linear maps (squaring, the relative Frobenius, the relative
  trace) take one 4096-entry uint32 table per 12-bit window of the input,
  and return uint32: one gather for m <= 12, two for m = 18 and 24.
- Products are `ClmulOps`, shift-and-xor on uint64 arrays, the one
  product kernel of characteristic 2.  `Gf2Scan` is a `ClmulOps` with the
  square as a window map and the cube as a product by it.
- On the aligned ranges of `run_chunked` a linear map costs no gather at
  all: lo is a multiple of CHUNK, so L(lo + i) = L(lo) xor L(i), and L on
  [0, CHUNK) is a broadcast xor of its tables on the low WINDOW bits of i
  and on the rest (`ChunkMap`).  An F_2-quadratic form costs one xor more:
  Q(lo + i) = Q(lo) xor Q(i) xor B(lo, i), with Q on [0, CHUNK) one table
  and B(lo, .) a ChunkMap (`ChunkForm`, from the Gram matrix that
  `_form_values` evaluates).  The sweep of L_0 = ker Tr reads Tr(y^3) so,
  a form whose Gram matrix `Gf2Scan.cube` and the trace give at a few
  points, with its subfield tests on the same index (`SubfieldTests`).

Independence: every table comes from the field's modulus alone, through
`ClmulOps` and set-up steps on plain ints, so the vector layer builds
nothing in the scalar `ffield` backends and the test suite can
cross-validate the two layers element by element.  Each `Gf2Scan` checks
its products against the scalar shift-and-xor `_mulmod` on a fixed seeded
sample, and its square table against its products, when it is built, and
a failure raises TableError.

`ClmulOps` takes any GF(2^m) with m + 1 <= 64.  Each `ExtScan` keeps its
own `Gf2Scan`; the audits of the sweeps build their own instances.

Linear maps write into `out=` when it is given and keep their scratch
arrays in per-thread buffers, so a chunked scan allocates its arrays once
per worker thread instead of once per chunk.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, TableError, require
from .ffield import ExtDesc, FieldDesc, _pack

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
        # CHUNK-element slices, so that no scratch array outgrows CHUNK
        n = v.size
        if n <= CHUNK:
            return self._apply(v, out)
        if out is None:
            out = np.empty(n, dtype=np.uint32)
        for lo in range(0, n, CHUNK):
            self._apply(v[lo:lo + CHUNK], out[lo:lo + CHUNK])
        return out

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

    def _apply(self, op, lo: int, hi: int, out, fold: int = 0
               ) -> np.ndarray:
        n = hi - lo
        cols = min(n, self.low.size)
        require(lo % CHUNK == 0 and 0 < n <= self.size and n % cols == 0,
                "range is not aligned to the chunk table")
        high = self.high[:n // cols, None] ^ np.uint32(
            self.map.scalar(lo) ^ fold)
        return op(high, self.low[:cols], out=None if out is None else
                  out.reshape(-1, cols)).reshape(n)

    def __call__(self, lo: int, hi: int, out: np.ndarray | None = None,
                 fold: int = 0) -> np.ndarray:
        """L(v) xor fold for v in [lo, hi)."""
        return self._apply(np.bitwise_xor, lo, hi, out, fold)

    def zeros(self, lo: int, hi: int, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Whether L(v) = 0, for v in [lo, hi): the two tables agree."""
        return self._apply(np.equal, lo, hi, out)


def _form_values(gram: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The F_2-quadratic form Q of the Gram matrix gram, B(e_i, e_j) above
    the diagonal and Q(e_i) on it, at the points whose index bits are the
    0/1 rows of bits: the xor of gram[i, j] over their set bits i <= j, one
    row i at a time."""
    out, upper = 0, np.triu(gram)
    for i, row in enumerate(upper):
        out ^= bits[:, i] * np.bitwise_xor.reduce(bits * row, axis=1)
    return out


class ChunkForm:
    """An F_2-quadratic form Q on the aligned ranges of run_chunked, from
    its Gram matrix (the `_form_values` convention; the upper triangle is
    read).

    lo + i = lo xor i on disjoint bits, so Q(lo + i) = Q(lo) xor Q(i) xor
    B(lo, i).  Q on [0, CHUNK) is one table, built by doubling; B(lo, .) is
    linear, a `ChunkMap` with Q(lo) folded into its high table, so a range
    costs one broadcast xor and one xor, and no gather.
    """

    def __init__(self, gram: np.ndarray, order: int):
        self.gram = upper = np.triu(np.asarray(gram, dtype=np.uint32))
        self.size = min(order, CHUNK)
        bits = (self.size - 1).bit_length()
        # Q(x xor e_j) = Q(x) xor Q(e_j) xor B(x, e_j) for x < 2^j
        table = np.zeros(1, dtype=np.uint32)
        for j in range(bits):
            table = np.concatenate(
                [table, table ^ _span(upper[:j, j]) ^ upper[j, j]])
        self.table = table
        # per range: Q(lo), and B(lo, e_i) for the bits i below CHUNK, read
        # at rows i and the set bits of lo above them
        starts = np.arange(0, order, CHUNK, dtype=np.uint64)
        lo_bits = starts[:, None] >> np.arange(len(upper), dtype=np.uint64)
        lo_bits &= np.uint64(1)
        self._at_lo = _form_values(upper, lo_bits).tolist()
        self._polar = np.bitwise_xor.reduce(
            lo_bits[:, None, :] * upper[None, :bits, :], axis=2).tolist()

    def __call__(self, lo: int, hi: int, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """Q(v) for v in [lo, hi)."""
        c = lo // CHUNK
        polar = ChunkMap(LinearMap(self._polar[c]), self.size)
        out = polar(lo, hi, out=out, fold=self._at_lo[c])
        return np.bitwise_xor(out, self.table[:hi - lo], out=out)


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


class ClmulOps:
    """Whole-array GF(2^m) arithmetic on uint64 arrays of packed values,
    shaped like `ffield.TableOps`: shift-and-xor products with the
    reduction by the packed modulus f interleaved, from the top bit of b
    down (r <- r t mod f, then r ^= a), so that no value exceeds m + 1 bits.
    No table or `LinearMap`: every table is built from its products, and
    it audits the sweeps built on them."""

    def __init__(self, field: FieldDesc):
        if field.p != 2 or field.m + 1 > 64:
            raise DomainError(f"carry-less products need p = 2 and m + 1 <= "
                              f"64, got GF({field.p}^{field.m})")
        self.m, self.f = field.m, np.uint64(_pack(field.modulus, 2))

    def mul(self, a, b):
        a, b = np.asarray(a, np.uint64), np.asarray(b, np.uint64)
        shape = np.broadcast(a, b).shape
        # one scratch array t, so that a product allocates two arrays
        r, t = np.zeros(shape, np.uint64), np.empty(shape, np.uint64)
        m, one = np.uint64(self.m), np.uint64(1)
        for j in range(self.m - 1, -1, -1):
            r <<= one
            r ^= np.multiply(np.right_shift(r, m, out=t), self.f, out=t)
            np.right_shift(b, np.uint64(j), out=t)
            r ^= np.multiply(np.bitwise_and(t, one, out=t), a, out=t)
        return r

    def sub(self, a, b):
        return a ^ b

    def neg(self, a):
        return a


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


class Gf2Scan(ClmulOps):
    """`ClmulOps` on one GF(2^m), m at most MAX_DEGREE, with the square as
    a window `LinearMap` built from its products on the basis, and the cube
    as a product by it.  The build checks the products against the scalar
    `_mulmod` on the `_sample` pairs, and the square table against the
    products."""

    def __init__(self, field: FieldDesc):
        if field.p != 2:
            raise DomainError("vector kernels are characteristic-2 only")
        if field.m > MAX_DEGREE:
            raise DomainError(f"packed degree {field.m} exceeds uint32 "
                              "headroom")
        super().__init__(field)
        m, f = self.m, _pack(field.modulus, 2)
        basis = np.uint64(1) << np.arange(m, dtype=np.uint64)
        self._sqr = LinearMap(self.mul(basis, basis).tolist())
        a, b = _sample(m)
        if not (self.mul(a, b).tolist()
                == [_mulmod(x, y, f, m) for x, y in zip(a.tolist(),
                                                         b.tolist())]
                and np.array_equal(self._sqr(a), self.mul(a, a))):
            raise TableError(f"products of GF(2^{m}) disagree with the "
                             "scalar shift-and-xor")

    def square(self, a: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        return self._sqr(a, out=out)

    def cube(self, a: np.ndarray) -> np.ndarray:
        return self.mul(a, self._sqr(a))


class ExtScan:
    """Gf2Scan plus relative Frobenius / trace maps for one extension."""

    def __init__(self, ext: ExtDesc):
        self.ext = ext
        self.ops = Gf2Scan(ext.big)
        # images of the basis t^j under x -> x^(q^i): x^q by squaring
        # products, then x^(q^i) by its map
        images = [np.array([1 << j for j in range(ext.big.m)],
                           dtype=np.uint64)]
        cur = images[0]
        for _ in range(ext.base_deg):
            cur = self.ops.mul(cur, cur)
        self._frob = LinearMap(cur.tolist())
        for _ in range(1, ext.n):
            images.append(self._frob(images[-1]))
        self._trace = LinearMap(np.bitwise_xor.reduce(images).tolist())

    def frob(self, v: np.ndarray, out: np.ndarray | None = None
             ) -> np.ndarray:
        """The relative Frobenius x -> x^q, element-wise."""
        return self._frob(v, out=out)

    def trace(self, v: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        return self._trace(v, out=out)


class SubfieldTests:
    """ChunkMaps of (F^3 + 1) y and (F^2 + 1) y, zero on F_{q^3} and F_{q^2},
    for a sweep whose index bit j stands for y = images[j], composed from
    the basis images under the relative Frobenius F, the map `frob`."""

    def __init__(self, frob: LinearMap, images, order: int):
        f = frob.scalar
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
