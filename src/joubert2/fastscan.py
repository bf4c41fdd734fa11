"""Vectorized characteristic-2 kernels for exhaustive scans.

Packed GF(2^m) values ride in uint64 numpy arrays (m <= 32, so a carry-less
product needs at most 2m-1 <= 63 bits).  Multiplication is a shift-and-xor
loop plus byte-chunk reduction tables; every F_2-linear map (squaring, the
relative Frobenius and its powers, the relative trace) becomes a set of
256-entry gather tables, one per input byte.

Every table is derived from the field's modulus alone, through the
kernels' own reduction and squaring, so the vector layer builds nothing in
the scalar `ffield` backends; the test suite cross-validates the two
layers element by element.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError
from .ffield import ExtDesc, FieldDesc, _pack

_BYTE = np.uint64(0xFF)

#: Elements per run_chunked range in the exhaustive scans.
CHUNK = 1 << 16


def _linear_tables(images: list[int]) -> list[np.ndarray]:
    """Gather tables for the F_2-linear map sending basis bit j to images[j].

    Table ci maps byte ci of the input to the xor of the images of its set
    bits; applying the map is one gather per byte plus xors.
    """
    tables = []
    for ci in range(max(1, (len(images) + 7) // 8)):
        t = np.zeros(256, dtype=np.uint64)
        for b in range(1, 256):
            low = b & -b
            j = 8 * ci + low.bit_length() - 1
            img = images[j] if j < len(images) else 0
            t[b] = t[b ^ low] ^ np.uint64(img)
        tables.append(t)
    return tables


def _apply_tables(tables: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    acc = tables[0][v & _BYTE]
    for ci in range(1, len(tables)):
        acc = acc ^ tables[ci][(v >> np.uint64(8 * ci)) & _BYTE]
    return acc


class Gf2Scan:
    """Element-wise field arithmetic on uint64 arrays over one GF(2^m)."""

    def __init__(self, field: FieldDesc):
        if field.p != 2:
            raise DomainError("vector kernels are characteristic-2 only")
        if field.m > 32:
            raise DomainError(f"packed degree {field.m} exceeds uint64 headroom")
        self.field = field
        self.m = field.m
        # t^(m+j) mod modulus for the high bits of a carry-less product
        hi = []
        cur = _pack(field.modulus, 2) ^ (1 << field.m)  # t^m mod f
        for _ in range(field.m - 1):
            hi.append(cur)
            cur <<= 1
            if cur >> field.m & 1:
                cur = (cur & ((1 << field.m) - 1)) ^ hi[0]
        self._red = _linear_tables(hi)
        self._low_mask = np.uint64((1 << field.m) - 1)
        # (t^j)^2 = t^(2j), reduced
        wide = np.array([1 << 2 * j for j in range(field.m)], dtype=np.uint64)
        self._sqr = _linear_tables(self.reduce_wide(wide).tolist())

    def reduce_wide(self, wide: np.ndarray) -> np.ndarray:
        """Reduce a (2m-1)-bit carry-less product to the canonical value."""
        return (wide & self._low_mask) ^ _apply_tables(
            self._red, wide >> np.uint64(self.m))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        acc = np.zeros(np.broadcast(a, b).shape, dtype=np.uint64)
        one = np.uint64(1)
        for k in range(self.m):
            ks = np.uint64(k)
            mask = np.uint64(0) - ((b >> ks) & one)
            acc ^= (a << ks) & mask
        return self.reduce_wide(acc)

    def square(self, a: np.ndarray) -> np.ndarray:
        return _apply_tables(self._sqr, a)

    def cube(self, a: np.ndarray) -> np.ndarray:
        return self.mul(a, self.square(a))


class ExtScan:
    """Gf2Scan plus relative Frobenius / trace tables for one extension."""

    def __init__(self, ext: ExtDesc):
        self.ext = ext
        self.ops = Gf2Scan(ext.big)
        # images of the basis t^j under x -> x^(q^i), squared by the product
        # kernel so that the square tables stay a second, independent route
        images = [np.array([1 << j for j in range(ext.big.m)],
                           dtype=np.uint64)]
        for _ in range(1, ext.n):
            cur = images[-1]
            for _ in range(ext.base_deg):
                cur = self.ops.mul(cur, cur)
            images.append(cur)
        self._frob = [None] + [_linear_tables(img.tolist())
                               for img in images[1:]]
        self._trace = _linear_tables(
            np.bitwise_xor.reduce(images).tolist())

    def frob(self, v: np.ndarray, i: int = 1) -> np.ndarray:
        i %= self.ext.n
        if i == 0:
            return v
        return _apply_tables(self._frob[i], v)

    def trace(self, v: np.ndarray) -> np.ndarray:
        return _apply_tables(self._trace, v)

    def power(self, v: np.ndarray, e: int) -> np.ndarray:
        """Element-wise v**e by square and multiply."""
        if e < 0:
            raise DomainError("negative exponent in vector power")
        out = np.full_like(v, np.uint64(1))
        base = v
        while e:
            if e & 1:
                out = self.ops.mul(out, base)
            base = self.ops.square(base)
            e >>= 1
        return out


def span_vals(basis: list[int]) -> np.ndarray:
    """All 2^k xor-combinations of the basis values, in digit order: entry i
    is the xor of basis[j] over the set bits j of i."""
    arr = np.zeros(1, dtype=np.uint64)
    for b in basis:
        arr = np.concatenate([arr, arr ^ np.uint64(b)])
    return arr


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
