"""Vectorized characteristic-2 kernels for exhaustive scans.

Canonical packed GF(2^m) values (m <= 32) go in as unsigned integer numpy
arrays and come out as uint32 arrays.  Every kernel is a short sequence of
table gathers:

- F_2-linear maps (squaring, the relative Frobenius and its powers, the
  relative trace, the reduction of a wide product, the index -> L_0 map of
  the surface census) take one 4096-entry uint32 table per 12-bit window
  of the input: one gather for m <= 12, two for m = 18 and 24.
- Products have one kernel per regime of m:
  - m <= 14: exp[log a + log b], with log[0] = 2N (N = 2^m - 1), so that
    a zero operand lands in the zero tail of exp and needs no branch;
  - even m <= 28: a quadratic tower over GF(2^(m/2)), the composite-field
    method (C. Paar, PhD thesis, 1994; Lidl & Niederreiter ch. 9).  One
    window map puts each operand into tower coordinates a0 + a1 w with
    w^2 = w + c; a Karatsuba step takes 3 subfield log/exp products, the
    multiply by the constant c riding in the log sum; one window map
    brings the result back;
  - odd m > 14, and m = 30, 32: the shift-and-xor loop.  It is also the
    reference every table is derived from.

Independence: every table comes from the field's modulus alone, through the
shift-and-xor reference and set-up steps on plain ints, so the vector layer
builds nothing in the scalar `ffield` backends and the test suite can
cross-validate the two layers element by element.  Each product table is
verified when it is built, and a failure raises TableError: exp over one
period is a permutation of the units and g^N = 1; the tower map composed
with its inverse is the identity; the table product agrees with
shift-and-xor on a fixed seeded sample.

Kernels write into `out=` when it is given and keep their scratch arrays in
per-thread buffers, so a chunked scan allocates its arrays once per worker
thread instead of once per chunk.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, TableError
from .ffield import ExtDesc, FieldDesc, _pack, prime_divisors

#: Elements per run_chunked range in the exhaustive scans.
CHUNK = 1 << 16

#: Input bits per linear-map window: one 4096-entry table each.
WINDOW = 12
_WINDOW_MASK = (1 << WINDOW) - 1

#: Largest degree whose product is one log/exp gather; a tower's subfield
#: degree is capped the same.
_LOG_MAX = 14


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
    applied as one table gather per 12-bit window of the input."""

    def __init__(self, images):
        self.images = tuple(int(x) for x in images)
        self.tables = [_span(self.images[lo:lo + WINDOW])
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


def _log_exp(times: np.ndarray, h: int, c: int = 1
             ) -> tuple[np.ndarray, np.ndarray, int]:
    """(log, exp, log c) of GF(2^h) to the base g, on the coordinates that
    the table `times` of x -> g*x is written in.  The exp walk is verified
    to run once through every unit and back to 1.

    With N = 2^h - 1 and Z = 2N + log c: log[0] = Z, and exp[k] = g^(k mod N)
    for k < Z and 0 from Z on.  So exp[log a + log b] = a*b and
    exp[log a + log b + log c] = c*a*b for any a, b: a zero operand lands
    in the zero tail.
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
    shift = int(log[c])
    log[0] = zero = 2 * n + shift
    exp = np.zeros(2 * zero + shift + 1, dtype=np.uint32)
    exp[:zero] = np.resize(units, zero)
    return log, exp, shift


class Gf2Scan:
    """Element-wise field arithmetic on arrays over one GF(2^m)."""

    def __init__(self, field: FieldDesc):
        if field.p != 2:
            raise DomainError("vector kernels are characteristic-2 only")
        if field.m > 32:
            raise DomainError(f"packed degree {field.m} exceeds uint32 "
                              "headroom")
        self.field = field
        self.m = m = field.m
        self._f = f = _pack(field.modulus, 2)
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
        if m <= _LOG_MAX:
            self.regime = "log"
            self._product = self._log_mul
            self._build_log()
        elif m % 2 == 0 and m // 2 <= _LOG_MAX:
            self.regime = "tower"
            self._product = self._tower_mul
            self._build_tower()
        else:
            self.regime = "loop"
            self._product = self._loop_mul
        if self.regime != "loop":
            self._verify_product()

    # -- tables

    def _build_log(self) -> None:
        m, f = self.m, self._f
        n = (1 << m) - 1
        g = next(x for x in range(1, n + 1) if _has_order(x, n, f, m))
        times = _span([_mulmod(g, 1 << j, f, m) for j in range(m)])
        self._log, self._exp, _ = _log_exp(times, m)

    def _build_tower(self) -> None:
        m, f = self.m, self._f
        h = m // 2

        def mul(a, b):
            return _mulmod(a, b, f, m)

        def frob(x):  # x -> x^(2^h), generating Gal(GF(2^m)/GF(2^h))
            for _ in range(h):
                x = mul(x, x)
            return x

        # a primitive element of the subfield K = GF(2^h): a norm z^(2^h+1)
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
        # tower coordinates a0 | a1 << h of a0 + a1 w, a_i over the basis
        # gamma^0..gamma^(h-1) of K
        self._from_tower = LinearMap(gpow[:h] + [mul(x, w) for x in gpow[:h]])
        self._to_tower = LinearMap(_invert(list(self._from_tower.images)))
        to_tower = self._to_tower.scalar
        gamma_h, c_coord = to_tower(gpow[h]), to_tower(c)
        if (gamma_h | c_coord) >> h:
            raise TableError(f"tower of GF(2^{m}) over GF(2^{h}) is not "
                             "closed")
        # the subfield times-gamma map on K's coordinates
        times = _span([1 << (i + 1) for i in range(h - 1)] + [gamma_h])
        self._log, self._exp, self._c_log = _log_exp(times, h, c_coord)
        self._h = h
        self._sqr_to_tower = LinearMap(to_tower(x) for x in self._sqr.images)
        for lo in range(0, m, WINDOW):
            v = np.arange(1 << min(WINDOW, m - lo), dtype=np.uint32) << lo
            if not (np.array_equal(self._from_tower(self._to_tower(v)), v)
                    and np.array_equal(self._to_tower(self._from_tower(v)),
                                       v)):
                raise TableError(f"tower map of GF(2^{m}) does not invert")

    def _verify_product(self) -> None:
        # a fixed sample spread by Fibonacci hashing, plus the edge values;
        # importing numpy.random would cost more than the whole build
        k = np.arange(256, dtype=np.uint64)
        drop = np.uint64(64 - self.m)
        a = k * np.uint64(0x9E3779B97F4A7C15) >> drop
        b = k * np.uint64(0xC2B2AE3D27D4EB4F) >> drop
        top = (1 << self.m) - 1
        a[:3], b[:3] = (0, top, 1), (top, top, 0)
        ref = self._loop_mul(a, b)
        cube = self._loop_mul(a, self._loop_mul(a, a))
        if not (np.array_equal(self._product(a, b, None), ref)
                and np.array_equal(self._cube(a, None), cube)):
            raise TableError(f"table product of GF(2^{self.m}) disagrees "
                             "with shift-and-xor")

    # -- product kernels, one per regime

    def _log_mul(self, a, b, out):
        n = a.size
        if out is None:
            out = np.empty(n, dtype=np.uint32)
        idx = _SCRATCH.get("p_idx", n, np.intp)
        la = _SCRATCH.get("p_sum0", n, np.intp)
        lb = _SCRATCH.get("p_lb", n, np.intp)
        np.copyto(idx, a)
        np.take(self._log, idx, out=la, mode="wrap")
        np.copyto(idx, b)
        np.take(self._log, idx, out=lb, mode="wrap")
        np.add(la, lb, out=la)
        return np.take(self._exp, la, out=out, mode="wrap")

    def _tower_mul(self, a, b, out, b_map=None):
        """a * b through tower coordinates; b enters through b_map (default
        the tower map), so that cube can pass the map of a's square."""
        n = a.size
        if out is None:
            out = np.empty(n, dtype=np.uint32)
        s = _SCRATCH
        ta = self._to_tower(a, out=s.get("p_ta", n))
        tb = (b_map or self._to_tower)(b, out=s.get("p_tb", n))
        # log x0 + log y0, log x1 + log y1, log(x0 + x1) + log(y0 + y1)
        sums = [s.get(f"p_sum{i}", n, np.intp) for i in range(3)]
        for i, idx in enumerate(self._halves(ta)):
            np.take(self._log, idx, out=sums[i], mode="wrap")
        lb = s.get("p_lb", n, np.intp)
        for i, idx in enumerate(self._halves(tb)):
            np.take(self._log, idx, out=lb, mode="wrap")
            np.add(sums[i], lb, out=sums[i])
        np.add(sums[1], self._c_log, out=sums[1])
        # with p0 = x0 y0, p1 = x1 y1 and p2 = (x0 + x1)(y0 + y1) the
        # product is r0 + r1 w, r0 = p0 + c p1 and r1 = p2 + p0
        p0 = np.take(self._exp, sums[0], out=ta, mode="wrap")
        r0 = np.take(self._exp, sums[1], out=tb, mode="wrap")
        r0 ^= p0
        r1 = np.take(self._exp, sums[2], out=s.get("p_u", n), mode="wrap")
        r1 ^= p0
        r1 <<= self._h
        r1 |= r0
        return self._from_tower(r1, out=out)

    def _halves(self, x):
        """x0, x1 and x0 + x1 of tower coordinates x = x0 | x1 << h, in
        turn, as log-table indices in one reused array."""
        n, h = x.size, self._h
        idx = _SCRATCH.get("p_idx", n, np.intp)
        hi = _SCRATCH.get("p_u", n)
        np.right_shift(x, h, out=hi)
        yield np.bitwise_and(x, (1 << h) - 1, out=idx)
        np.copyto(idx, hi)
        yield idx
        hi ^= x
        yield np.bitwise_and(hi, (1 << h) - 1, out=idx)

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
        return _sliced(self._product, out, a, b)

    def square(self, a: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        return self._sqr(a, out=out)

    def cube(self, a: np.ndarray, out: np.ndarray | None = None
             ) -> np.ndarray:
        return _sliced(self._cube, out, a)

    def _cube(self, a, out):
        if self.regime == "tower":
            return self._tower_mul(a, a, out, b_map=self._sqr_to_tower)
        sq = self._sqr(a, out=_SCRATCH.get("c_sq", a.size))
        return self._product(a, sq, out)


class ExtScan:
    """Gf2Scan plus relative Frobenius / trace tables for one extension."""

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
        frob = LinearMap(cur.tolist())
        for _ in range(1, ext.n):
            images.append(frob(images[-1]))
        self._frob = [None] + [LinearMap(img.tolist()) for img in images[1:]]
        self._trace = LinearMap(np.bitwise_xor.reduce(images).tolist())

    def frob(self, v: np.ndarray, i: int = 1,
             out: np.ndarray | None = None) -> np.ndarray:
        i %= self.ext.n
        if i == 0:
            if out is None:
                return v
            np.copyto(out, v)
            return out
        return self._frob[i](v, out=out)

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


def run_chunked(total: int, fn, chunk: int = CHUNK, threads: int = 1) -> list:
    """fn(lo, hi) over [0, total) split into ranges; results in range order.

    Thread count never changes the output: results are collected by chunk
    index, and fn must be pure.
    """
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    if threads <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))
