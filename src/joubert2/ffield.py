"""Exact arithmetic in GF(p^m), subfield tests, relative Frobenius and trace.

Elements are encoded as integers: the element with coefficient vector
(c_0, ..., c_{m-1}) over GF(p) -- c_i the coefficient of t^i modulo the
field's modulus polynomial -- is packed as sum(c_i * p**i).  Each field
has one arithmetic backend, fixed by its order:

- prime fields GF(p): residues mod p;
- GF(p^m) with m > 1 and at most _TABLE_MAX elements, any p: log/antilog
  tables for products, inverses and powers, and Zech logarithms for sums
  in odd characteristic (Lidl & Niederreiter, *Finite Fields*, ch. 9),
  built with the field; `TableOps` runs the same tables on whole numpy
  arrays;
- larger fields: carry-less products of machine integers for p = 2, digit
  vectors reduced by the modulus for odd p.

The canonical modulus of GF(p^m) is the least monic irreducible of degree m;
each candidate is tested by is_irreducible_over GF(p), the one
irreducibility test of the package, which works on coefficient lists over
any field.

A relative extension L/K is never represented by materializing K: K is the
fixed set of the relative Frobenius x -> x^q inside the one big field L.
The relative Frobenius and the relative trace are F_p-linear (Lidl &
Niederreiter, ch. 2), so each is a lookup per block of input digits, the
blocks summed by add_val: one block for fields of at most _TABLE_MAX
elements, blocks of at most _BLOCK_MAX entries above.  The two tables are
spanned, on first use, from the images of the basis t^j by the
square-and-multiply route, and checked against that route when built; the
i-th Frobenius iterate applies the Frobenius map i times.
"""

from __future__ import annotations

import functools
import random
from array import array
from typing import Iterator

import numpy as np

from .errors import (BudgetError, CheckFailed, DomainError, TableError,
                     require)
from . import gflinalg

#: Default cap on field order for construction and exhaustive scans.
DEFAULT_LIMIT = 2**28

#: Non-prime fields of at most this order get log/Zech tables.
_TABLE_MAX = 2**14

#: Entries per block table of a linear map on a field above _TABLE_MAX.
_BLOCK_MAX = 2**12


def check_budget(what: str, needed: int, budget: int | None) -> None:
    """Raise BudgetError if `needed` elements exceed the budget; None means
    DEFAULT_LIMIT."""
    cap = DEFAULT_LIMIT if budget is None else budget
    if needed > cap:
        raise BudgetError(what, needed, cap)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise DomainError(f"p = {p} must be an odd prime")


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# GF(2) polynomials as packed integers, for products in GF(2^m) above the
# table cap.


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _mod2(a: int, f: int) -> int:
    fl = f.bit_length()
    al = a.bit_length()
    while al >= fl:
        a ^= f << (al - fl)
        al = a.bit_length()
    return a


def _mulmod(field: FieldDesc, a, b, f) -> list[int]:
    """a * b mod the monic f, as deg f coefficients, low first; a, b and f
    are lists of packed values of `field`."""
    add, mul, sub = field.add_val, field.mul_val, field.sub_val
    d = len(f) - 1
    prod = [0] * max(len(a) + len(b) - 1, d)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = add(prod[i + j], mul(x, y))
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for i in range(d):
                prod[k - d + i] = sub(prod[k - d + i], mul(c, f[i]))
    return prod[:d]


def _strip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic(field: FieldDesc, a: list[int]) -> list[int]:
    inv = field.inv_val(a[-1])
    return [field.mul_val(inv, c) for c in a]


def _frobenius_matrix(field: FieldDesc, f: list[int]) -> list[list[int]]:
    """Columns t^(jQ) mod f, j < d, of monic f of degree d >= 2 over
    `field` (of order Q); t^Q comes by square-and-multiply."""
    d = len(f) - 1
    tq, base, e = [1], [0, 1] + [0] * (d - 2), field.order
    while e:
        if e & 1:
            tq = _mulmod(field, tq, base, f)
        e >>= 1
        if e:
            base = _mulmod(field, base, base, f)
    cols = [[1] + [0] * (d - 1)]
    for _ in range(d - 1):
        cols.append(_mulmod(field, cols[-1], tq, f))
    return cols


def is_irreducible_over(field: FieldDesc, coeffs) -> bool:
    """Whether f = sum(coeffs[i] t^i), coefficients packed values of
    `field` (of order Q), is irreducible over `field` (Rabin, 1980).

    f of degree d >= 2 is irreducible iff t^(Q^d) = t mod f and
    gcd(t^(Q^(d/r)) - t, f) = 1 for every prime r | d.  The powers come
    from the Frobenius matrix, whose column j is t^(jQ) mod f: since the
    coefficients lie in the field, g(t)^Q = g(t^Q) = sum g_j t^(jQ), so
    each further power is one matrix-vector product, which adds up only the
    columns of the nonzero coefficients (Petr-Berlekamp; Berlekamp, 1967).
    """
    f = _strip(list(coeffs))
    d = len(f) - 1
    if d <= 1:
        return d == 1
    f = _monic(field, f)
    t = [0, 1] + [0] * (d - 2)
    cols = _frobenius_matrix(field, f)
    add, mul = field.add_val, field.mul_val
    cur = t
    for i in range(1, d + 1):
        nxt = [0] * d
        for c, col in zip(cur, cols):
            if c == 1:
                nxt = [add(x, y) for x, y in zip(nxt, col)]
            elif c:
                nxt = [add(x, mul(c, y)) for x, y in zip(nxt, col)]
        cur = nxt  # t^(Q^i) mod f
        if d % i == 0 and is_prime(d // i):
            # gcd(t^(Q^i) - t, f) by Euclid, each divisor made monic
            a, b = _strip([field.sub_val(x, y) for x, y in zip(cur, t)]), f
            while a:
                a = _monic(field, a)
                a, b = _strip(_mulmod(field, b, [1], a)), a
            if len(b) > 1:
                return False
    return cur == t


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over GF(p).

    Coefficient tuples (c_{m-1}, ..., c_0) are compared left to right, which
    is the same as comparing the packed integers sum(c_i * p**i).  Each
    candidate not divisible by t goes through is_irreducible_over GF(p).
    """
    if m == 1:
        return (0, 1)
    for packed in range(p**m):
        if packed % p == 0:
            continue  # divisible by t
        digits = _unpack(packed, p, m) + [1]
        if is_irreducible_over(_build_field(p, 1), digits):
            return tuple(digits)
    raise CheckFailed("no irreducible polynomial found")  # unreachable


def _unpack(val: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(val % p)
        val //= p
    return out


def _pack(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


# ---------------------------------------------------------------------------


class FieldDesc:
    """A concrete finite field GF(p^m) with its canonical modulus.

    Immutable after construction; all element operations are pure.  Obtain
    instances through :func:`make_field`, which picks the backend subclass
    for the field's order and shares one object per (p, m).
    """

    __slots__ = ("p", "m", "modulus", "order")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p**m

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.m == 1 else f"GF({self.p}^{self.m})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, FieldDesc)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    # -- value-level arithmetic (packed ints) --
    # Each backend defines add_val, sub_val, neg_val and mul_val; powers and
    # inverses default to square-and-multiply over mul_val.

    def pow_val(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv_val(a)
            e = -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_val(result, base)
            e >>= 1
            if e:
                base = self.mul_val(base, base)
        return result

    def inv_val(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        return self.pow_val(a, self.order - 2)

    def combine(self, coeffs, vals) -> int:
        """The linear combination sum(c * v) of packed values."""
        acc = 0
        for c, v in zip(coeffs, vals):
            if c:
                acc = self.add_val(acc, self.mul_val(c, v))
        return acc

    def build_tables(self) -> None:
        """A no-op: the table backend builds its tables in its constructor."""

    def linear_map(self, images):
        """The F_p-linear map sending the basis t^j to images[j], as a
        callable on packed values: one lookup in a table over the whole
        field up to _TABLE_MAX elements, else one lookup per block of
        digits (at most _BLOCK_MAX entries a table), summed by add_val."""
        width = self.m
        if self.order > _TABLE_MAX:
            width = 1
            while self.p ** (width + 1) <= _BLOCK_MAX:
                width += 1
        tables = [_span(self, images[lo:lo + width])
                  for lo in range(0, self.m, width)]
        if len(tables) == 1:
            return tables[0].__getitem__
        first, rest = tables[0], tables[1:]
        size = self.p**width
        add = self.add_val

        def apply(v: int) -> int:
            v, d = divmod(v, size)
            acc = first[d]
            for t in rest:
                v, d = divmod(v, size)
                acc = add(acc, t[d])
            return acc
        return apply

    # -- element constructors --

    def element(self, val: int) -> "FElt":
        if not 0 <= val < self.order:
            raise DomainError(f"value {val} out of range for {self!r}")
        return FElt(self, val)

    def from_int(self, c: int) -> "FElt":
        return FElt(self, c % self.p)

    @property
    def zero(self) -> "FElt":
        return FElt(self, 0)

    @property
    def one(self) -> "FElt":
        return FElt(self, 1)

    @property
    def gen(self) -> "FElt":
        """The class of t, a generator of the field over its prime field."""
        if self.m == 1:
            raise DomainError("prime field has no modulus root")
        return FElt(self, self.p)


def _span(field: FieldDesc, images) -> array:
    """Table of the F_p-linear map with the given basis images over every
    packed value of len(images) digits: entry sum(c_j p^j) holds
    sum(c_j images[j]).  A compact array, like the log tables, grown in
    place through a numpy view of it: the block of entries with c_j = c is
    the block for c - 1 plus images[j], an xor of packed values for p = 2;
    for odd p the blocks are sums mod p of digit rows, packed once at the
    end."""
    code = next(c for c in "HIQ" if field.order <= 1 << 8 * array(c).itemsize)
    p, size = field.p, field.p ** len(images)
    out = array(code, [0]) * size
    table = np.frombuffer(out, dtype=code)  # filled in place
    if p == 2:
        for j, img in enumerate(images):
            np.bitwise_xor(table[:1 << j], img, out=table[1 << j:2 << j])
    else:
        # digit i of every entry in row i; a sum of two digits fits the type
        digits = np.zeros((field.m, size), dtype=np.min_scalar_type(2 * p))
        block = 1
        for img in images:
            step = np.array(_unpack(img, p, field.m), dtype=digits.dtype)
            for c in range(1, p):
                new = digits[:, c * block:(c + 1) * block]
                np.add(digits[:, (c - 1) * block:c * block], step[:, None],
                       out=new)
                np.remainder(new, p, out=new)
            block *= p
        for row in digits[::-1]:  # Horner, top digit first
            table *= p
            table += row
    return out


class _PrimeField(FieldDesc):
    """GF(p): residues mod p."""

    __slots__ = ()

    def add_val(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub_val(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg_val(self, a: int) -> int:
        return -a % self.p

    def mul_val(self, a: int, b: int) -> int:
        return a * b % self.p


def _log_tables(p: int, m: int, modulus: tuple[int, ...]):
    """(exp, log, zech) for GF(p^m), m > 1, to the base g, the least
    primitive element by packed value.  With N = p^m - 1:

    - exp[k] = g^(k mod N) for k < 2N and 0 from 2N on (length 4N + 1);
    - log[a] = log_g(a) in [0, N), and log[0] = 2N;
    - zech[k] = log_g(1 + g^k), period N and stored twice, so that any
      index in [-2N, 2N) wraps; where 1 + g^k = 0 it is log[0] = 2N.

    So a log plus a log or a zech entry stays inside exp, and reads 0
    there when either term is the 2N of a zero.  Primitivity is tested by
    the over-cap backend; the powers of g come from walking x -> g*x, a map
    computed for all x at once on digit vectors.
    """
    q = p**m
    n = q - 1
    # int32 holds every intermediate below: p <= 127 here, so < 2p^2 + p
    weights = p ** np.arange(m, dtype=np.int32)
    digits = np.arange(q, dtype=np.int32)[:, None] // weights % p
    tail = np.array([(-c) % p for c in modulus[:m]], dtype=np.int32)

    def times_t(d):  # t*x mod modulus, row by row
        up = np.roll(d, 1, axis=1)
        top = up[:, :1].copy()
        up[:, 0] = 0
        return up + top * tail

    slow = _over_cap(p)(p, m, modulus)
    g = next(g for g in range(p, q)  # values below p lie in GF(p)
             if all(slow.pow_val(g, n // r) != 1 for r in prime_divisors(n)))
    acc = np.zeros_like(digits)
    for c in reversed(_strip(_unpack(g, p, m))):  # Horner, top digit first
        acc = (times_t(acc) + c * digits) % p
    times_g = (acc @ weights).tolist()
    powers = [1]
    for _ in range(n - 1):
        powers.append(times_g[powers[-1]])
    if len(set(powers)) != n:
        raise TableError(f"exp table of GF({p}^{m}) is not one cycle of the "
                         "units")
    exp = np.zeros(4 * n + 1, dtype=np.uint16)
    exp[:n] = exp[n:2 * n] = powers
    log = np.empty(q, dtype=np.uint16)
    log[exp[:n]] = np.arange(n)
    log[0] = 2 * n
    # 1 + x raises digit 0 of x by one, mod p
    one_plus = exp[:n] + 1 - p * (exp[:n] % p == p - 1)
    zech = np.tile(log[one_plus], 2)
    return tuple(array("H", t.tobytes()) for t in (exp, log, zech))


class _TableField(FieldDesc):
    """GF(p^m), m > 1, of order at most _TABLE_MAX: each operation is one or
    two lookups in the tables of _log_tables; a sum is
    g^(la + zech[lb - la]) for la, lb the logs of its terms.  The tables
    are built by the constructor.
    """

    __slots__ = ("_exp", "_log", "_zech", "_log_neg1")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        super().__init__(p, m, modulus)
        self._exp, self._log, self._zech = _log_tables(p, m, modulus)
        self._log_neg1 = self._log[p - 1]

    def add_val(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def sub_val(self, a: int, b: int) -> int:
        lnb = self._log[b] + self._log_neg1  # log of -b
        if not a:
            return self._exp[lnb]
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[lnb - la]]

    def neg_val(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_neg1]

    def mul_val(self, a: int, b: int) -> int:
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv_val(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        return self._exp[self.order - 1 - self._log[a]]

    def pow_val(self, a: int, e: int) -> int:
        if a:
            return self._exp[self._log[a] * e % (self.order - 1)]
        if e < 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        return 0 if e else 1


class TableOps:
    """Whole-array arithmetic on the packed values of one table field, from
    its own log/exp/Zech tables: a product is exp[log a + log b], a sum
    g^(la + zech[lb - la]) with zero terms taken apart, a difference the
    sum with exp[log b + log(-1)]; in characteristic 2 sums and
    differences are xors.  Verified against add_val, sub_val and mul_val on
    a seeded sample when built."""

    def __init__(self, field: FieldDesc):
        if not isinstance(field, _TableField):
            raise DomainError(f"{field!r} has no log tables")
        self.field = field
        self.exp, self.log, self.zech = (
            np.asarray(t).astype(np.int32)
            for t in (field._exp, field._log, field._zech))
        rng = random.Random(2014)
        pairs = [(0, 0), (0, 1), (1, 0), (1, field.neg_val(1))] + [
            (rng.randrange(field.order), rng.randrange(field.order))
            for _ in range(252)]
        a, b = (np.array(x) for x in zip(*pairs))
        for name in ("add", "sub", "mul"):
            ref = getattr(field, name + "_val")
            if getattr(self, name)(a, b).tolist() != [ref(x, y)
                                                      for x, y in pairs]:
                raise TableError(f"batched {name} of {field!r} disagrees "
                                 f"with {name}_val")

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def neg(self, a):
        if self.field.p == 2:
            return a
        return self.exp[self.log[a] + self.field._log_neg1]

    def add(self, a, b):
        if self.field.p == 2:
            return a ^ b
        la, lb = self.log[a], self.log[b]
        s = self.exp[la + self.zech[(lb - la) % (self.field.order - 1)]]
        return np.where(a == 0, b, np.where(b == 0, a, s))

    def sub(self, a, b):
        return self.add(a, self.neg(b))


class _Char2:
    """Sums in characteristic 2: xor of packed values."""

    __slots__ = ()

    def add_val(self, a: int, b: int) -> int:
        return a ^ b

    sub_val = add_val

    def neg_val(self, a: int) -> int:
        return a


class _Char2TableField(_Char2, _TableField):
    """GF(2^m) of order at most _TABLE_MAX: table products, xor sums."""

    __slots__ = ()


class _ClmulField(_Char2, FieldDesc):
    """GF(2^m) above the table cap: carry-less products of packed ints."""

    __slots__ = ("_mod_int",)

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        super().__init__(p, m, modulus)
        self._mod_int = _pack(modulus, 2)

    def mul_val(self, a: int, b: int) -> int:
        return _mod2(_clmul(a, b), self._mod_int)

    def inv_val(self, a: int) -> int:
        """Extended Euclid on GF(2)[t] as packed ints: s a = u and
        w a = v mod the modulus throughout, and the remainder u reaches 1
        since the modulus is irreducible."""
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        u, v, s, w = a, self._mod_int, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, s, w, j = v, u, w, s, -j
            u ^= v << j
            s ^= w << j
        return s


class _DigitField(FieldDesc):
    """GF(p^m), odd p, above the table cap: digit vectors over GF(p)."""

    __slots__ = ("_red_rows",)

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        super().__init__(p, m, modulus)
        # digits of t^(m+j) mod modulus, for reducing products
        rows = []
        cur = [(-c) % p for c in modulus[:m]]  # t^m mod f
        rows.append(cur[:])
        for _ in range(m - 2):
            cur = [0] + cur
            if cur[m]:
                c = cur[m]
                cur = [(x + c * r) % p for x, r in zip(cur[:m], rows[0])]
            else:
                cur = cur[:m]
            rows.append(cur[:])
        self._red_rows = rows

    def add_val(self, a: int, b: int) -> int:
        p = self.p
        return _pack([(x + y) % p for x, y in
                      zip(_unpack(a, p, self.m), _unpack(b, p, self.m))], p)

    def sub_val(self, a: int, b: int) -> int:
        p = self.p
        return _pack([(x - y) % p for x, y in
                      zip(_unpack(a, p, self.m), _unpack(b, p, self.m))], p)

    def neg_val(self, a: int) -> int:
        p = self.p
        return _pack([(-x) % p for x in _unpack(a, p, self.m)], p)

    def mul_val(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        db = _unpack(b, p, m)
        for i, x in enumerate(_unpack(a, p, m)):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        acc = prod[:m]
        for j in range(m - 2, -1, -1):
            c = prod[m + j]
            if c:
                row = self._red_rows[j]
                acc = [(x + c * r) % p for x, r in zip(acc, row)]
        return _pack(acc, p)


def _over_cap(p: int) -> type[FieldDesc]:
    """The backend of GF(p^m) above the table cap."""
    return _ClmulField if p == 2 else _DigitField


class FElt:
    """Element of a FieldDesc; thin wrapper over the packed integer value."""

    __slots__ = ("field", "val")

    def __init__(self, field: FieldDesc, val: int):
        self.field = field
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_unpack(self.val, self.field.p, self.field.m))

    def __repr__(self) -> str:
        return f"{self.field!r}[{self.val}]"

    def __bool__(self) -> bool:
        return self.val != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FElt):
            return self.field == other.field and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.m, self.val))

    def _coerce(self, other) -> "FElt":
        if isinstance(other, FElt):
            if other.field != self.field:
                raise DomainError(
                    f"mixed fields: {self.field!r} and {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElt(self.field, self.field.add_val(self.val, other.val))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElt(self.field, self.field.sub_val(self.val, other.val))

    def __neg__(self):
        return FElt(self.field, self.field.neg_val(self.val))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElt(self.field, self.field.mul_val(self.val, other.val))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return FElt(self.field, self.field.pow_val(self.val, e))


@functools.lru_cache(maxsize=None)
def _build_field(p: int, m: int) -> FieldDesc:
    if m == 1:
        backend = _PrimeField
    elif p**m <= _TABLE_MAX:
        backend = _Char2TableField if p == 2 else _TableField
    else:
        backend = _over_cap(p)
    return backend(p, m, canonical_modulus(p, m))


def make_field(p: int, m: int, limit: int | None = None) -> FieldDesc:
    """Canonical FieldDesc for GF(p^m), cached per (p, m): every call returns
    the same object unless threads first build the field at the same time.
    Those threads each get their own equal object, and the last one built
    stays cached for later calls."""
    if not is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    if m < 1:
        raise DomainError(f"m = {m} must be positive")
    check_budget("field order", p**m, limit)
    return _build_field(p, m)


def iter_elements(field: FieldDesc, start: int = 0,
                  stop: int | None = None) -> Iterator[FElt]:
    """All field elements in canonical (packed-integer) order.

    The [start, stop) form, 0 <= start <= stop <= order, yields a sub-range,
    so scans can be split into disjoint chunks and processed independently.
    """
    if stop is None:
        stop = field.order
    if not 0 <= start <= stop <= field.order:
        raise DomainError(f"range [{start}, {stop}) is not inside "
                          f"[0, {field.order})")
    return (FElt(field, v) for v in range(start, stop))


# ---------------------------------------------------------------------------
# Relative extensions


class ExtDesc:
    """A relative extension L/K inside one big field.

    L = GF(p^(base_deg * n)) is `big`; K = GF(q) with q = p^base_deg is the
    fixed set of the relative Frobenius x -> x^q.  K is addressed only
    through that characterization, never built as its own FieldDesc.
    """

    def __init__(self, big: FieldDesc, base_deg: int):
        if big.m % base_deg != 0:
            raise DomainError(
                f"base degree {base_deg} does not divide [{big!r}:prime] = {big.m}")
        self.big = big
        self.base_deg = base_deg
        self.n = big.m // base_deg
        self.q = big.p**base_deg
        self._subfields: dict[int, list[int]] = {}

    def __repr__(self) -> str:
        return f"Ext({self.big!r}/GF({self.q}), n={self.n})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, ExtDesc) and self.big == other.big
                and self.base_deg == other.base_deg)

    def __hash__(self) -> int:
        return hash((self.big, self.base_deg))

    # -- Frobenius and trace on packed values --
    # Two F_p-linear table maps, each built on first use; the iterates of
    # the Frobenius are repeated applications of its map.

    @functools.cached_property
    def _frob(self):
        return self._build_linear("frob")

    @functools.cached_property
    def _trace(self):
        return self._build_linear("trace")

    def frob_val(self, v: int) -> int:
        return self._frob(v)

    def frob_iter_val(self, v: int, i: int) -> int:
        frob = self._frob
        for _ in range(i % self.n):
            v = frob(v)
        return v

    def trace_val(self, v: int) -> int:
        return self._trace(v)

    def whole_table(self, key: str) -> array:
        """The verified map `key` ("frob" or "trace") as its one table over
        the whole field, entry v the image of v; only a big field of at
        most _TABLE_MAX elements has one."""
        if self.big.order > _TABLE_MAX:
            raise DomainError(f"{self!r} has no whole-field {key} table")
        return (self._frob if key == "frob" else self._trace).__self__

    def _trace_by_powers(self, v: int) -> int:
        acc = 0
        cur = v
        big = self.big
        for _ in range(self.n):
            acc = big.add_val(acc, cur)
            cur = big.pow_val(cur, self.q)
        return acc

    def _build_linear(self, key: str):
        """The map `key` ("frob" or "trace") spanned from its basis images by
        square-and-multiply, verified against that route on 0, 1, the top
        value and a fixed seeded sample; the Frobenius must also fix every
        basis image after n applications, since x^(q^n) = x."""
        big = self.big
        if key == "trace":
            ref = self._trace_by_powers
        else:
            ref = functools.partial(big.pow_val, e=self.q)
        images = [ref(big.p**j) for j in range(big.m)]
        f = big.linear_map(images)
        rng = random.Random(2014)
        sample = [0, 1, big.order - 1] + [rng.randrange(big.order)
                                          for _ in range(16)]
        bad = [v for v in sample if f(v) != ref(v)]
        if key == "frob":
            for img in images:
                w = img
                for _ in range(self.n):
                    w = f(w)
                if w != img:
                    bad.append(img)
        if bad:
            raise TableError(f"{key!r} table of {self!r} disagrees with "
                             f"square-and-multiply at value {bad[0]}")
        return f

    # -- structure of K inside L --

    def subfield_vals(self, d: int) -> list[int]:
        """Packed values of the intermediate field GF(q^d), ordered by value."""
        if self.n % d != 0:
            raise DomainError(f"d = {d} does not divide n = {self.n}")
        if d not in self._subfields:
            big = self.big
            p, m = big.p, big.m
            # kernel of the F_p-linear map v -> v^(q^d) - v
            rows = []
            for j in range(m):
                img = big.sub_val(self.frob_iter_val(p**j, d), p**j)
                rows.append(_unpack(img, p, m))
            # columns of the matrix are images of basis vectors
            matrix = [[rows[j][i] for j in range(m)] for i in range(m)]
            basis = [_pack(b, p)
                     for b in gflinalg.kernel(matrix, make_field(p, 1))]
            vals = sorted(big.combine(_unpack(combo, p, len(basis)), basis)
                          for combo in range(p**len(basis)))
            require(len(vals) == self.q**d, "subfield size is not q^d")
            self._subfields[d] = vals
        return self._subfields[d]

    @functools.cached_property
    def kappa_val(self) -> int:
        """Canonical generator of K over the prime field: the least root in K
        of the canonical modulus of GF(p^base_deg).  1 for prime K."""
        if self.base_deg == 1:
            return 1
        big = self.big
        digits = canonical_modulus(big.p, self.base_deg)
        root = None
        for v in self.subfield_vals(1):
            powers = [big.pow_val(v, i) for i in range(len(digits))]
            if big.combine(digits, powers) == 0:
                root = v
                break
        require(root is not None, "canonical modulus has no root in K")
        return root

    @functools.cached_property
    def kappa_powers(self) -> tuple[int, ...]:
        """Power basis (1, kappa, ..., kappa^(base_deg-1)) of K over the
        prime field."""
        powers = [1]
        for _ in range(self.base_deg - 1):
            powers.append(self.big.mul_val(powers[-1], self.kappa_val))
        return tuple(powers)

    @functools.cached_property
    def _k_elements(self) -> list[int]:
        big = self.big
        out = [big.combine(_unpack(idx, big.p, self.base_deg),
                           self.kappa_powers) for idx in range(self.q)]
        require(len(set(out)) == self.q, "K-digit map is not one to one")
        return out

    @functools.cached_property
    def _k_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self._k_elements)}

    def k_elements(self) -> list[int]:
        """K's packed values in digit order: index sum(c_i p^i) maps to
        sum(c_i kappa^i)."""
        return self._k_elements

    def k_index(self, v: int) -> int:
        """Inverse of k_elements(): digit index of a K-value."""
        idx = self._k_index.get(v)
        if idx is None:
            raise DomainError(f"value {v} is not in the base field of {self!r}")
        return idx

    def k_coordinates(self, v: int) -> tuple[int, ...]:
        """Digits of a K-value over the kappa power basis."""
        return tuple(_unpack(self.k_index(v), self.big.p, self.base_deg))

    @functools.cached_property
    def _rel_solver(self) -> gflinalg.Solver:
        big = self.big
        p, m, n = big.p, big.m, self.n
        gpows = [1]
        for _ in range(n - 1):
            gpows.append(big.mul_val(gpows[-1], big.p))
        cols = []
        for i in range(n):
            for kp in self.kappa_powers:
                cols.append(_unpack(big.mul_val(gpows[i], kp), p, m))
        matrix = [[cols[j][i] for j in range(m)] for i in range(m)]
        return gflinalg.Solver(matrix, make_field(p, 1))

    def rel_coordinates(self, v: int) -> tuple[int, ...]:
        """Coordinates (as K-values) of v over the power basis {g^i} of L/K,
        g the class of t."""
        big = self.big
        sol = self._rel_solver.solve(_unpack(v, big.p, big.m))
        k = self.base_deg
        return tuple(big.combine(sol[i * k:(i + 1) * k], self.kappa_powers)
                     for i in range(self.n))


@functools.lru_cache(maxsize=None)
def _build_ext(p: int, base_deg: int, n: int) -> ExtDesc:
    return ExtDesc(_build_field(p, base_deg * n), base_deg)


def make_ext(p: int, base_deg: int, n: int, limit: int | None = None) -> ExtDesc:
    """Extension GF(q^n)/GF(q) with q = p^base_deg, inside GF(p^(base_deg*n))."""
    make_field(p, base_deg * n, limit=limit)  # validates p, size budget
    return _build_ext(p, base_deg, n)


def _check_member(y: FElt, ext: ExtDesc) -> None:
    if y.field != ext.big:
        raise DomainError(f"{y!r} does not live in {ext.big!r}")


def rel_frobenius(y: FElt, ext: ExtDesc) -> FElt:
    """y^q for q the base field order; n applications give back y."""
    _check_member(y, ext)
    return FElt(ext.big, ext.frob_val(y.val))


def rel_trace(y: FElt, ext: ExtDesc) -> FElt:
    """Trace of y down to K: the sum of the n relative conjugates of y."""
    _check_member(y, ext)
    return FElt(ext.big, ext.trace_val(y.val))


def in_subfield(y: FElt, ext: ExtDesc, d: int) -> bool:
    """True iff y lies in the intermediate field GF(q^d), i.e. y^(q^d) = y."""
    _check_member(y, ext)
    if ext.n % d != 0:
        raise DomainError(f"d = {d} does not divide n = {ext.n}")
    return ext.frob_iter_val(y.val, d) == y.val
