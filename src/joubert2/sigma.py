"""Elementary symmetric functions of an element's conjugates, and the
generator predicates built from them.

For y in L with extension degree n over K, the profile (s_1, ..., s_n) is
read off the characteristic polynomial: char(t) = t^n - s_1 t^(n-1) + ...
+ (-1)^n s_n, so s_i = (-1)^i * coeff(t^(n-i)).  An element is a "Joubert
generator" when it generates L over K and s_1 = s_3 = 0; its minimal
polynomial then has zero coefficients in the two relevant positions.

`sigma_profiles` takes the profiles of many elements of a field of at most
2^14 elements at once, on one numpy array per coefficient; `sigma_profile`
is the scalar route for one element of any field.  `joubert_mask` is the
batched twin of `is_joubert` for characteristic-2 fields up to GF(2^63).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require
from .fastscan import ClmulOps
from .ffield import ExtDesc, FElt, TableOps, prime_divisors
from .fpoly import char_poly, conjugates, min_poly


@dataclass(frozen=True)
class SigmaProfile:
    """Symmetric-function profile of one element; values live in the base
    field, packed as big-field values."""

    ext: ExtDesc
    sigmas: tuple[int, ...]

    def sigma(self, i: int) -> int:
        """s_i as a packed value, 1-indexed; s_0 = 1 by convention."""
        if i == 0:
            return 1
        if not 1 <= i <= len(self.sigmas):
            raise DomainError(f"sigma index {i} out of range 1..{len(self.sigmas)}")
        return self.sigmas[i - 1]


def sigma_profile(y: FElt, ext: ExtDesc) -> SigmaProfile:
    """Profile of y's n conjugates (counted with multiplicity if y lies in a
    proper intermediate field)."""
    cp = char_poly(y, ext)
    big = ext.big
    n = ext.n
    sig = []
    for i in range(1, n + 1):
        c = cp.coeff(n - i)
        sig.append(big.neg_val(c) if i % 2 else c)
    require(all(ext.frob_val(s) == s for s in sig),
            "sigma left the base field")
    return SigmaProfile(ext, tuple(sig))


def _poly_from_roots(ops: TableOps | ClmulOps, roots) -> np.ndarray:
    """fpoly.poly_from_roots on one array per coefficient: the coefficient
    arrays, low first, of the product of t - r over the root arrays, as the
    rows of one array.  Each root takes one broadcast product over the
    stacked coefficients: c'_0 = -r c_0, c'_i = c_{i-1} - r c_i, and the
    leading 1 moves up."""
    c = np.ones_like(roots[0])[None]
    for r in roots:
        rc = ops.mul(r, c)
        c = np.concatenate([ops.neg(rc[:1]), ops.sub(c[:-1], rc[1:]),
                            c[-1:]])
    return c


def sigma_profiles(vals, ext: ExtDesc, ops: TableOps) -> np.ndarray:
    """Profiles of many elements of a big field of at most 2^14 elements:
    row i - 1 of the (n, len(vals)) result holds s_i of every value.  The
    n conjugates (with multiplicity) are gathers in the verified Frobenius
    table, and the characteristic polynomial is their product in ops,
    the big field's `TableOps`."""
    frob = np.asarray(ext.whole_table("frob"))
    roots = [np.asarray(vals, dtype=np.intp)]
    for _ in range(ext.n - 1):
        roots.append(frob[roots[-1]])
    c = _poly_from_roots(ops, roots)
    n = ext.n
    sig = np.array([ops.neg(c[n - i]) if i % 2 else c[n - i]
                    for i in range(1, n + 1)])
    require(np.array_equal(frob[sig], sig), "sigma left the base field")
    return sig


def is_generator(y: FElt, ext: ExtDesc) -> bool:
    """True iff y generates the big field over the base field, i.e. no
    proper power q^d with d < n fixes y."""
    return len(conjugates(y, ext)) == ext.n


def is_joubert(y: FElt, ext: ExtDesc) -> bool:
    """Generator of the extension whose profile has s_1 = s_3 = 0.

    A generator's minimal polynomial t^n + a_{n-1} t^(n-1) + ... + a_0 is
    its characteristic polynomial, with s_i = (-1)^i a_{n-i}, so the test
    reads a_{n-1} = a_{n-3} = 0 off that one polynomial.
    """
    if ext.n < 3:
        raise DomainError(f"need extension degree >= 3, got {ext.n}")
    if not is_generator(y, ext):
        return False
    mp = min_poly(y, ext)
    return mp.coeff(ext.n - 1) == 0 and mp.coeff(ext.n - 3) == 0


#: The carry-less ops of each characteristic-2 big field, built once
_clmul_ops = functools.lru_cache(maxsize=None)(ClmulOps)


def joubert_mask(vals, ext: ExtDesc) -> np.ndarray:
    """`is_joubert` of many packed values of a characteristic-2 big field
    with m + 1 <= 64, as one bool array, on `fastscan.ClmulOps` products.
    x -> x^q is F_2-linear: the images of the bits t^j, by k squarings of
    one array in each call, give the n conjugates y^(q^i) as xors of images
    over y's set bits (y^(q^n) = y required).  Then the generator test
    y^(q^(n/r)) != y for each prime r dividing n, and a_{n-1} = a_{n-3} = 0
    in the product of the t - y^(q^i)."""
    n = ext.n
    if n < 3:
        raise DomainError(f"need extension degree >= 3, got {n}")
    ops = _clmul_ops(ext.big)
    bits = np.arange(ops.m, dtype=np.uint64)
    img = np.uint64(1) << bits
    for _ in range(ext.base_deg):
        img = ops.mul(img, img)
    roots = [np.asarray(vals, dtype=np.uint64)]
    for _ in range(n):
        x = roots[-1][:, None] >> bits & np.uint64(1)
        roots.append(np.bitwise_xor.reduce(x * img, axis=1))
    require(np.array_equal(roots.pop(), roots[0]),
            "an audited y is not fixed by x -> x^(q^n)")
    c = _poly_from_roots(ops, roots)
    mask = (c[n - 1] == 0) & (c[n - 3] == 0)
    for r in prime_divisors(n):
        mask &= roots[n // r] != roots[0]
    return mask


def power_traces(y: FElt, ext: ExtDesc, kmax: int) -> list[int]:
    """[Tr(y), Tr(y^2), ..., Tr(y^kmax)] as packed base-field values."""
    if y.field != ext.big:
        raise DomainError(f"{y!r} does not live in {ext.big!r}")
    big = ext.big
    out = []
    cur = y.val
    for _ in range(kmax):
        out.append(ext.trace_val(cur))
        cur = big.mul_val(cur, y.val)
    return out
