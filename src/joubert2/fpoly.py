"""Univariate polynomials over a finite field: arithmetic, irreducibility,
minimal and characteristic polynomials of extension elements, text I/O.

Coefficients are stored as packed field values, lowest degree first, with no
trailing zeros (the zero polynomial has an empty coefficient tuple).  A
polynomial "over K" for a relative extension L/K is an ordinary polynomial
over L whose coefficients happen to lie in the Frobenius-fixed subfield;
arithmetic never leaves that subfield, so no separate type is needed.
"""

from __future__ import annotations

import re

from .errors import CheckFailed, DomainError, require
from .ffield import (ExtDesc, FElt, FieldDesc, _pack, _unpack,
                     is_irreducible_over, make_field)


class UPoly:
    """Immutable univariate polynomial; coeffs are packed values, low first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDesc, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not 0 <= c < field.order:
                raise DomainError(f"coefficient {c} out of range for {field!r}")
        self.field = field
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __repr__(self) -> str:
        return f"UPoly({self.field!r}, {format_poly(self)!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, UPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def _check(self, other: "UPoly") -> None:
        if self.field != other.field:
            raise DomainError(
                f"mixed coefficient fields: {self.field!r}, {other.field!r}")

    def __add__(self, other: "UPoly") -> "UPoly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add_val(out[i], c)
        return UPoly(f, out)

    def __sub__(self, other: "UPoly") -> "UPoly":
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(f, [f.sub_val(self.coeff(i), other.coeff(i))
                         for i in range(n)])

    def __neg__(self) -> "UPoly":
        f = self.field
        return UPoly(f, [f.neg_val(c) for c in self.coeffs])

    def __mul__(self, other: "UPoly") -> "UPoly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly(f, [])
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add_val(out[i + j], f.mul_val(ai, bj))
        return UPoly(f, out)

    def __divmod__(self, other: "UPoly"):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return UPoly(f, []), self
        inv_lead = f.inv_val(other.coeffs[-1])
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if c:
                c = f.mul_val(c, inv_lead)
                quo[k] = c
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] = f.sub_val(rem[k + i], f.mul_val(c, oc))
        return UPoly(f, quo), UPoly(f, rem)

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "UPoly":
        if e < 0:
            raise DomainError("negative polynomial power")
        result = UPoly(self.field, [1])
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def evaluate(self, x: FElt) -> FElt:
        if x.field != self.field:
            raise DomainError("evaluation point lives in a different field")
        return FElt(self.field, self.eval_val(x.val))

    def eval_val(self, xval: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add_val(f.mul_val(acc, xval), c)
        return acc


def poly_from_roots(field: FieldDesc, root_vals) -> UPoly:
    """Monic polynomial with the given packed values as roots.

    Multiplies by each t - r in place on one coefficient list, from the
    top coefficient down: c_i <- c_(i-1) - r c_i."""
    sub, mul = field.sub_val, field.mul_val
    c = [1]
    for r in root_vals:
        c.append(c[-1])
        for i in range(len(c) - 2, 0, -1):
            c[i] = sub(c[i - 1], mul(r, c[i]))
        c[0] = field.neg_val(mul(r, c[0]))
    return UPoly(field, c)


def is_irreducible(poly: UPoly) -> bool:
    """Irreducibility over the coefficient field, by
    ffield.is_irreducible_over."""
    return is_irreducible_over(poly.field, poly.coeffs)


def conjugates(y: FElt, ext: ExtDesc) -> list[int]:
    """Packed values of the distinct relative conjugates y, y^q, y^(q^2), ...

    The length is the degree of y over the base field and divides ext.n.
    The walk stops after ext.n steps: an orbit that has not closed by then
    means a faulty Frobenius, and raises CheckFailed.
    """
    if y.field != ext.big:
        raise DomainError(f"{y!r} does not live in {ext.big!r}")
    orbit = [y.val]
    cur = ext.frob_val(y.val)
    while cur != y.val:
        if len(orbit) == ext.n:
            raise CheckFailed(f"Frobenius orbit of {y!r} does not close "
                              f"within {ext.n} steps")
        orbit.append(cur)
        cur = ext.frob_val(cur)
    require(ext.n % len(orbit) == 0,
            "orbit length does not divide the extension degree")
    return orbit


def min_poly(y: FElt, ext: ExtDesc) -> UPoly:
    """Minimal polynomial of y over the base field of the extension.

    Monic, coefficients in the base field, degree = [K(y) : K].
    """
    orbit = conjugates(y, ext)
    poly = poly_from_roots(ext.big, orbit)
    require(all(ext.frob_val(c) == c for c in poly.coeffs),
            "minimal polynomial left the base field")
    return poly


def char_poly(y: FElt, ext: ExtDesc) -> UPoly:
    """Characteristic polynomial of y over the base field: the product of
    (t - y^(q^i)) over all i < n, i.e. min_poly to the power n/deg."""
    mp = min_poly(y, ext)
    return mp if mp.degree == ext.n else mp ** (ext.n // mp.degree)


def char_poly_det(y: FElt, ext: ExtDesc) -> UPoly:
    """Characteristic polynomial computed a second way, as det(t*I - M) for
    M the multiplication-by-y matrix over the base field.

    Hessenberg reduction over K (Cohen, *A Course in Computational Algebraic
    Number Theory*, GTM 138, Alg. 2.2.9): for each column j, a row and
    column swap brings a nonzero entry below the diagonal to (j + 1, j),
    and similarity transforms (row i minus u row j + 1, then column j + 1
    plus u column i) clear the entries below it, with one inversion per
    column; a column already zero there is left as it is.  The
    characteristic polynomials p_k of the leading k x k blocks of the
    Hessenberg matrix H then satisfy
    p_(k+1) = (t - h_kk) p_k - sum_(i<k) h_ik (prod_(i<j<=k) h_(j,j-1)) p_i.
    Field operations only, with no polynomial division: it serves as an
    independent check of char_poly, since it uses neither conjugates nor
    Frobenius.
    """
    if y.field != ext.big:
        raise DomainError(f"{y!r} does not live in {ext.big!r}")
    big = ext.big
    add, sub, mul = big.add_val, big.sub_val, big.mul_val
    n = ext.n
    g = big.gen.val if big.m > 1 else 1
    cols = []
    pw = 1
    for _ in range(n):
        cols.append(ext.rel_coordinates(mul(y.val, pw)))
        pw = mul(pw, g)
    h = [list(row) for row in zip(*cols)]  # M: column j holds y g^j
    for j in range(n - 2):
        r = next((i for i in range(j + 1, n) if h[i][j]), None)
        if r is None:
            continue
        if r != j + 1:
            h[r], h[j + 1] = h[j + 1], h[r]
            for row in h:
                row[r], row[j + 1] = row[j + 1], row[r]
        inv = big.inv_val(h[j + 1][j])
        for i in range(j + 2, n):
            u = mul(h[i][j], inv)
            if u:
                h[i] = [sub(a, mul(u, b)) for a, b in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = add(row[j + 1], mul(u, row[i]))
    polys = [[1]]  # p_k, coefficients low first
    for k in range(n):
        p = [0] + polys[k]
        for d, c in enumerate(polys[k]):
            p[d] = sub(p[d], mul(h[k][k], c))
        prod = 1
        for i in range(k - 1, -1, -1):
            prod = mul(prod, h[i + 1][i])
            if not prod:
                break
            c = mul(h[i][k], prod)
            for d, pc in enumerate(polys[i]):
                p[d] = sub(p[d], mul(c, pc))
        polys.append(p)
    return UPoly(big, polys[n])


def compress_poly(poly: UPoly, ext: ExtDesc) -> UPoly:
    """A polynomial over ext.big whose coefficients lie in the base
    subfield, as one over standalone GF(q): each coefficient goes to its
    digits over kappa, the in-L root of the modulus of GF(q), so the map
    is a field isomorphism from the subfield."""
    if poly.field != ext.big:
        raise DomainError(f"{poly.field!r} is not the big field of {ext!r}")
    small = make_field(ext.big.p, ext.base_deg)
    return UPoly(small, [ext.k_index(c) for c in poly.coeffs])


# ---------------------------------------------------------------------------
# Text form: "t^6+t^4+t^2+t+1", "t^6+t^2+t+[0,1]", "2*t^2+t+2".
# Coefficients print as a bare digit when they lie in the prime field, and
# as a bracketed digit vector over the base-field generator otherwise.


def _format_coeff(val: int, field: FieldDesc, ext: ExtDesc | None) -> str:
    if val < field.p:
        return str(val)
    if ext is not None:
        return "[" + ",".join(str(d) for d in ext.k_coordinates(val)) + "]"
    return "[" + ",".join(str(d) for d in _unpack(val, field.p, field.m)) + "]"


def format_poly(poly: UPoly, ext: ExtDesc | None = None) -> str:
    """Render with highest-degree term first; inverse of parse_poly."""
    if poly.is_zero():
        return "0"
    parts = []
    for k in range(poly.degree, -1, -1):
        c = poly.coeff(k)
        if not c:
            continue
        mono = "t" if k == 1 else (f"t^{k}" if k > 1 else "")
        if not mono:
            parts.append(_format_coeff(c, poly.field, ext))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{_format_coeff(c, poly.field, ext)}*{mono}")
    return "+".join(parts)


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+|\[[0-9,\s]*\])\*?)?(?P<mono>t(?:\^(?P<exp>\d+))?)?$")


def _parse_coeff(text: str, field: FieldDesc, ext: ExtDesc | None) -> int:
    if text.startswith("["):
        parts = text[1:-1].split(",") if text != "[]" else []
        if not all(parts):
            raise DomainError(f"empty digit in coefficient {text!r}")
        digits = [int(d) for d in parts]
        if any(not 0 <= d < field.p for d in digits):
            raise DomainError(f"digit out of range in coefficient {text!r}")
        if ext is not None:
            if len(digits) > ext.base_deg:
                raise DomainError(f"too many digits in coefficient {text!r}")
            return ext.k_elements()[_pack(digits, field.p)]
        if len(digits) > field.m:
            raise DomainError(f"too many digits in coefficient {text!r}")
        return _pack(digits, field.p)
    c = int(text)
    if c >= field.p:
        raise DomainError(f"bare coefficient {c} exceeds characteristic")
    return c


def parse_poly(text: str, field: FieldDesc, ext: ExtDesc | None = None) -> UPoly:
    """Parse the text form produced by format_poly."""
    squashed = text.replace(" ", "")
    if not squashed:
        raise DomainError("empty polynomial text")
    if squashed == "0":
        return UPoly(field, [])
    coeffs: dict[int, int] = {}
    for term in squashed.split("+"):
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("mono") is None):
            raise DomainError(f"cannot parse polynomial term {term!r}")
        cstr = m.group("coeff")
        cval = 1 if cstr is None else _parse_coeff(cstr, field, ext)
        if m.group("mono") is None:
            k = 0
        elif m.group("exp") is None:
            k = 1
        else:
            k = int(m.group("exp"))
        coeffs[k] = field.add_val(coeffs.get(k, 0), cval)
    out = [0] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return UPoly(field, out)
