"""Exact arithmetic in GF(p^m), subfield tests, relative Frobenius and trace.

Elements are encoded as integers: the element with coefficient vector
(c_0, ..., c_{m-1}) over GF(p) -- c_i the coefficient of t^i modulo the
field's modulus polynomial -- is packed as sum(c_i * p**i).  For p = 2 this
is plain bit packing and arithmetic runs on machine integers (carry-less
multiply, shift reduction); other characteristics use digit vectors.

A relative extension L/K is never represented by materializing K: K is the
fixed set of the relative Frobenius x -> x^q inside the one big field L.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .errors import BudgetError, DomainError
from . import gflinalg

#: Default cap on field order for construction and exhaustive scans.
DEFAULT_LIMIT = 2**28

# Multiplication tables are only built for fields at most this large.
_MUL_TABLE_MAX = 512


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
# Polynomials over the prime field: GF(2) polynomials are packed integers,
# odd characteristic uses digit lists.  Element products and the GF(2)
# modulus search share them.


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


def _gcd2(a: int, b: int) -> int:
    while b:
        a, b = b, _mod2(a, b)
    return a


def _irreducible_gf2(f: int, deg: int) -> bool:
    # Frobenius criterion: t^(2^deg) = t mod f, and t^(2^(deg/r)) - t coprime
    # to f for every prime r | deg.
    cur = _mod2(2, f)
    pows = {}
    for i in range(1, deg + 1):
        cur = _mod2(_clmul(cur, cur), f)
        pows[i] = cur
    if pows[deg] != _mod2(2, f):
        return False
    for r in prime_divisors(deg):
        if _gcd2(pows[deg // r] ^ _mod2(2, f), f) != 1:
            return False
    return True


def _polymul_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over GF(p).

    Coefficient tuples (c_{m-1}, ..., c_0) are compared left to right, which
    is the same as comparing the packed integers sum(c_i * p**i).  GF(2)
    candidates are tested as packed ints, odd-p ones by fpoly over GF(p).
    """
    if m == 1:
        return (0, 1)
    if p != 2:
        from .fpoly import UPoly, is_irreducible  # fpoly imports this module
        prime = make_field(p, 1)
    for packed in range(p**m):
        if packed % p == 0:
            continue  # divisible by t
        digits = _unpack(packed, p, m) + [1]
        if p == 2:
            ok = _irreducible_gf2(packed | (1 << m), m)
        else:
            ok = is_irreducible(UPoly(prime, digits))
        if ok:
            return tuple(digits)
    raise AssertionError("no irreducible polynomial found")  # unreachable


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
    instances through :func:`make_field` so equal parameters share one object.
    """

    __slots__ = ("p", "m", "modulus", "order", "_mod_int", "_red_rows",
                 "_mul_table", "_zero", "_one")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p**m
        self._mod_int = _pack(modulus, p) if p == 2 else None
        if p != 2 and m > 1:
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
        else:
            self._red_rows = None
        self._mul_table = None
        self._zero = None
        self._one = None

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.m == 1 else f"GF({self.p}^{self.m})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldDesc)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    # -- value-level arithmetic (packed ints) --

    def add_val(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        return _pack([(x + y) % p for x, y in
                      zip(_unpack(a, p, self.m), _unpack(b, p, self.m))], p)

    def sub_val(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        p = self.p
        return _pack([(x - y) % p for x, y in
                      zip(_unpack(a, p, self.m), _unpack(b, p, self.m))], p)

    def neg_val(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        return _pack([(-x) % p for x in _unpack(a, p, self.m)], p)

    def mul_val(self, a: int, b: int) -> int:
        table = self._mul_table
        if table is not None:
            return table[a * self.order + b]
        if self.p == 2:
            return _mod2(_clmul(a, b), self._mod_int)
        if self.m == 1:
            return (a * b) % self.p
        p, m = self.p, self.m
        prod = _polymul_p(_unpack(a, p, m), _unpack(b, p, m), p)
        prod += [0] * (2 * m - 1 - len(prod))
        acc = prod[:m]
        for j in range(m - 2, -1, -1):
            c = prod[m + j]
            if c:
                row = self._red_rows[j]
                acc = [(x + c * r) % p for x, r in zip(acc, row)]
        return _pack(acc, p)

    def pow_val(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv_val(a)
            e = -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_val(result, base)
            base = self.mul_val(base, base)
            e >>= 1
        return result

    def inv_val(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        return self.pow_val(a, self.order - 2)

    def div_val(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError(f"division by zero in {self!r}")
        return self.mul_val(a, self.inv_val(b))

    def combine(self, coeffs, vals) -> int:
        """The linear combination sum(c * v) of packed values."""
        acc = 0
        for c, v in zip(coeffs, vals):
            if c:
                acc = self.add_val(acc, self.mul_val(c, v))
        return acc

    def build_tables(self) -> None:
        """Precompute the full multiplication table (small fields only)."""
        if self._mul_table is not None or self.order > _MUL_TABLE_MAX:
            return
        n = self.order
        table = [0] * (n * n)
        for a in range(n):
            base = a * n
            for b in range(a, n):
                v = self.mul_val(a, b)
                table[base + b] = v
                table[b * n + a] = v
        self._mul_table = table

    # -- element constructors --

    def element(self, val: int) -> "FElt":
        if not 0 <= val < self.order:
            raise DomainError(f"value {val} out of range for {self!r}")
        return FElt(self, val)

    def from_int(self, c: int) -> "FElt":
        return FElt(self, c % self.p)

    @property
    def zero(self) -> "FElt":
        if self._zero is None:
            self._zero = FElt(self, 0)
        return self._zero

    @property
    def one(self) -> "FElt":
        if self._one is None:
            self._one = FElt(self, 1)
        return self._one

    @property
    def gen(self) -> "FElt":
        """The class of t, a generator of the field over its prime field."""
        if self.m == 1:
            raise DomainError("prime field has no modulus root")
        return FElt(self, self.p)


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

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElt(self.field, self.field.sub_val(other.val, self.val))

    def __neg__(self):
        return FElt(self.field, self.field.neg_val(self.val))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElt(self.field, self.field.mul_val(self.val, other.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElt(self.field, self.field.div_val(self.val, other.val))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElt(self.field, self.field.div_val(other.val, self.val))

    def __pow__(self, e: int):
        return FElt(self.field, self.field.pow_val(self.val, e))

    def inv(self) -> "FElt":
        return FElt(self.field, self.field.inv_val(self.val))


@functools.lru_cache(maxsize=None)
def _build_field(p: int, m: int) -> FieldDesc:
    return FieldDesc(p, m, canonical_modulus(p, m))


def make_field(p: int, m: int, limit: int | None = None) -> FieldDesc:
    """Canonical FieldDesc for GF(p^m); same (p, m) yields the same object."""
    if not is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    if m < 1:
        raise DomainError(f"m = {m} must be positive")
    check_budget("field order", p**m, limit)
    return _build_field(p, m)


def iter_elements(field: FieldDesc, start: int = 0,
                  stop: int | None = None) -> Iterator[FElt]:
    """All field elements in canonical (packed-integer) order.

    The [start, stop) form yields a sub-range, so scans can be split into
    disjoint chunks and processed independently.
    """
    if stop is None:
        stop = field.order
    for v in range(start, stop):
        yield FElt(field, v)


# ---------------------------------------------------------------------------
# Relative extensions


class ExtDesc:
    """A relative extension L/K inside one big field.

    L = GF(p^(base_deg * n)) is `big`; K = GF(q) with q = p^base_deg is the
    fixed set of the relative Frobenius x -> x^q.  K is addressed only
    through that characterization, never built as its own FieldDesc.
    """

    __slots__ = ("big", "base_deg", "n", "q", "_cache")

    def __init__(self, big: FieldDesc, base_deg: int, n: int | None = None):
        if big.m % base_deg != 0:
            raise DomainError(
                f"base degree {base_deg} does not divide [{big!r}:prime] = {big.m}")
        derived = big.m // base_deg
        if n is not None and n != derived:
            raise DomainError(f"relative degree {n} != {big.m}/{base_deg}")
        self.big = big
        self.base_deg = base_deg
        self.n = derived
        self.q = big.p**base_deg
        self._cache = {}

    def __repr__(self) -> str:
        return f"Ext({self.big!r}/GF({self.q}), n={self.n})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtDesc) and self.big == other.big
                and self.base_deg == other.base_deg)

    def __hash__(self) -> int:
        return hash((self.big, self.base_deg))

    # -- Frobenius and trace on packed values --

    def frob_val(self, v: int) -> int:
        return self.big.pow_val(v, self.q)

    def frob_iter_val(self, v: int, i: int) -> int:
        for _ in range(i % self.n):
            v = self.frob_val(v)
        return v

    def trace_val(self, v: int) -> int:
        acc = 0
        cur = v
        big = self.big
        for _ in range(self.n):
            acc = big.add_val(acc, cur)
            cur = self.frob_val(cur)
        return acc

    # -- structure of K inside L --

    def subfield_vals(self, d: int) -> list[int]:
        """Packed values of the intermediate field GF(q^d), ordered by value."""
        if self.n % d != 0:
            raise DomainError(f"d = {d} does not divide n = {self.n}")
        key = ("subfield", d)
        if key not in self._cache:
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
            assert len(vals) == self.q**d
            self._cache[key] = vals
        return self._cache[key]

    @property
    def kappa_val(self) -> int:
        """Canonical generator of K over the prime field: the least root in K
        of the canonical modulus of GF(p^base_deg).  1 for prime K."""
        if "kappa" not in self._cache:
            if self.base_deg == 1:
                self._cache["kappa"] = 1
            else:
                big = self.big
                digits = canonical_modulus(big.p, self.base_deg)
                root = None
                for v in self.subfield_vals(1):
                    powers = [big.pow_val(v, i) for i in range(len(digits))]
                    if big.combine(digits, powers) == 0:
                        root = v
                        break
                assert root is not None
                self._cache["kappa"] = root
        return self._cache["kappa"]

    @property
    def kappa_powers(self) -> tuple[int, ...]:
        """Power basis (1, kappa, ..., kappa^(base_deg-1)) of K over the
        prime field."""
        if "kappa_powers" not in self._cache:
            powers = [1]
            for _ in range(self.base_deg - 1):
                powers.append(self.big.mul_val(powers[-1], self.kappa_val))
            self._cache["kappa_powers"] = tuple(powers)
        return self._cache["kappa_powers"]

    def k_elements(self) -> list[int]:
        """K's packed values in digit order: index sum(c_i p^i) maps to
        sum(c_i kappa^i)."""
        if "k_elements" not in self._cache:
            big = self.big
            out = [big.combine(_unpack(idx, big.p, self.base_deg),
                               self.kappa_powers) for idx in range(self.q)]
            assert len(set(out)) == self.q
            self._cache["k_elements"] = out
        return self._cache["k_elements"]

    def k_index(self, v: int) -> int:
        """Inverse of k_elements(): digit index of a K-value."""
        if "k_index" not in self._cache:
            self._cache["k_index"] = {v: i for i, v in enumerate(self.k_elements())}
        idx = self._cache["k_index"].get(v)
        if idx is None:
            raise DomainError(f"value {v} is not in the base field of {self!r}")
        return idx

    def k_coordinates(self, v: int) -> tuple[int, ...]:
        """Digits of a K-value over the kappa power basis."""
        return tuple(_unpack(self.k_index(v), self.big.p, self.base_deg))

    def rel_coordinates(self, v: int) -> tuple[int, ...]:
        """Coordinates (as K-values) of v over the power basis {g^i} of L/K,
        g the class of t."""
        if "rel_solver" not in self._cache:
            big = self.big
            p, m, n = big.p, big.m, self.n
            kappas = self.kappa_powers
            gpows = [1]
            for _ in range(n - 1):
                gpows.append(big.mul_val(gpows[-1], big.p))
            cols = []
            for i in range(n):
                for kp in kappas:
                    cols.append(_unpack(big.mul_val(gpows[i], kp), p, m))
            matrix = [[cols[j][i] for j in range(m)] for i in range(m)]
            self._cache["rel_solver"] = gflinalg.Solver(matrix,
                                                        make_field(p, 1))
        big = self.big
        sol = self._cache["rel_solver"].solve(_unpack(v, big.p, big.m))
        k = self.base_deg
        return tuple(big.combine(sol[i * k:(i + 1) * k], self.kappa_powers)
                     for i in range(self.n))


@functools.lru_cache(maxsize=None)
def _build_ext(p: int, base_deg: int, n: int) -> ExtDesc:
    return ExtDesc(_build_field(p, base_deg * n), base_deg, n)


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
