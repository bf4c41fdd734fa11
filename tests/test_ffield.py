import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from joubert2 import (
    BudgetError,
    DomainError,
    canonical_modulus,
    in_subfield,
    iter_elements,
    make_ext,
    make_field,
    rel_frobenius,
    rel_trace,
)
from joubert2 import ffield
from joubert2.ffield import TableOps, _pack, _unpack
from joubert2.fpoly import UPoly

F64 = make_field(2, 6)
F9 = make_field(3, 2)
F49 = make_field(7, 2)


def _elt(field):
    return st.integers(0, field.order - 1).map(field.element)


def _pow_mod(a, e, modulus):
    """a^e mod modulus by square-and-multiply on UPoly, the reference for
    pow_val."""
    result, base = UPoly(a.field, [1]) % modulus, a % modulus
    while e:
        if e & 1:
            result = result * base % modulus
        base = base * base % modulus
        e >>= 1
    return result


# -- canonical modulus ------------------------------------------------------


def test_canonical_moduli_pinned():
    assert canonical_modulus(2, 1) == (0, 1)
    assert canonical_modulus(2, 2) == (1, 1, 1)
    assert canonical_modulus(2, 3) == (1, 1, 0, 1)
    assert canonical_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert canonical_modulus(2, 6) == (1, 1, 0, 0, 0, 0, 1)
    assert canonical_modulus(3, 1) == (0, 1)
    assert canonical_modulus(3, 2) == (1, 0, 1)
    assert canonical_modulus(7, 2) == (1, 0, 1)
    # the odd-p fields the verify-all registry builds
    assert canonical_modulus(3, 4) == (2, 1, 0, 0, 1)
    assert canonical_modulus(3, 5) == (1, 2, 0, 0, 0, 1)
    assert canonical_modulus(3, 10) == (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1)
    assert canonical_modulus(5, 2) == (2, 0, 1)
    assert canonical_modulus(5, 4) == (2, 0, 0, 0, 1)
    assert canonical_modulus(5, 5) == (1, 4, 0, 0, 0, 1)
    assert canonical_modulus(5, 6) == (2, 1, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_canonical_degree2_is_least_rootless(p):
    # independent check: the canonical quadratic has no root in GF(p), and
    # every lexicographically smaller monic quadratic has one
    mod = canonical_modulus(p, 2)
    packed = mod[0] + mod[1] * p

    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % p == 0 for x in range(p))

    assert not has_root(mod[0], mod[1])
    for smaller in range(packed):
        assert has_root(smaller % p, smaller // p)


def test_modulus_root_satisfies_modulus():
    g = F64.gen
    assert g**6 == g + 1  # t^6 + t + 1 = 0
    h = F9.gen
    assert h * h == -F9.one  # t^2 + 1 = 0


# -- field axioms -----------------------------------------------------------


@given(a=_elt(F64), b=_elt(F64), c=_elt(F64))
def test_gf64_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(a=_elt(F9), b=_elt(F9), c=_elt(F9))
def test_gf9_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == -(b - a)


@given(a=_elt(F49))
def test_gf49_inverse_and_order(a):
    if a.val:
        assert a * a**-1 == F49.one
        assert a**48 == F49.one
    assert a**49 == a


@pytest.mark.parametrize("field", [F64, F9, F49])
def test_multiplicative_group_is_cyclic_size(field):
    # every nonzero element's order divides order-1; at least one attains it
    n = field.order - 1
    orders = set()
    for e in iter_elements(field):
        if not e.val:
            continue
        o = 1
        cur = e
        while cur != field.one:
            cur = cur * e
            o += 1
        orders.add(o)
        assert n % o == 0
    assert n in orders


def test_int_mixing():
    g = F64.gen
    assert g + 1 == 1 + g
    assert g * 0 == F64.zero
    assert F9.from_int(5) == F9.from_int(2)


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(DomainError):
        F64.gen + F9.gen
    with pytest.raises(DomainError):
        F64.element(64)


def test_construction_guards():
    with pytest.raises(DomainError):
        make_field(4, 2)
    with pytest.raises(DomainError):
        make_field(2, 0)
    with pytest.raises(BudgetError) as exc:
        make_field(2, 29)
    assert (exc.value.needed, exc.value.budget) == (2**29, 2**28)
    make_field(2, 29, limit=2**29)  # explicit limit lifts the cap


def test_make_field_is_canonicalized():
    assert make_field(2, 6) is F64


@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_digit_index_round_trip(p, m, data):
    idx = data.draw(st.integers(0, p**m - 1))
    digits = _unpack(idx, p, m)
    assert len(digits) == m
    assert _pack(digits, p) == idx


@pytest.mark.parametrize("field", [F64, F9, F49], ids=repr)
@given(data=st.data())
@settings(max_examples=30)
def test_combine_is_sum_of_products(field, data):
    vals = data.draw(st.lists(_elt(field), max_size=5))
    coeffs = data.draw(st.lists(_elt(field), min_size=len(vals),
                                max_size=len(vals)))
    expect = field.zero
    for c, v in zip(coeffs, vals):
        expect = expect + c * v
    assert field.combine([c.val for c in coeffs],
                         [v.val for v in vals]) == expect.val


# -- table backend ------------------------------------------------------------

# every non-prime field of order <= 2^14 that the verify-all registry builds
TABLED = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 10), (2, 12), (3, 5),
          (5, 4), (5, 5), (5, 6), (7, 2)]


@pytest.mark.parametrize("p,m", TABLED)
def test_tables_match_polynomial_route(p, m):
    # the independent route: UPoly arithmetic over GF(p), reduced mod the
    # canonical modulus; every pair for order <= 243, else 2000 seeded pairs
    field = make_field(p, m)
    q = field.order
    prime = make_field(p, 1)
    modulus = UPoly(prime, field.modulus)

    def poly(v):
        return UPoly(prime, _unpack(v, p, m))

    def val(f):
        return _pack(f.coeffs, p)

    if q <= 243:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        fa, fb = poly(a), poly(b)
        assert field.mul_val(a, b) == val((fa * fb) % modulus)
        assert field.add_val(a, b) == val(fa + fb)
        assert field.sub_val(a, b) == val(fa - fb)
    # one exponent per element, negative ones included
    for a, e in dict(pairs).items():
        fa = poly(a)
        e -= q // 2
        assert field.neg_val(a) == val(-fa)
        if a:
            assert val((fa * poly(field.inv_val(a))) % modulus) == 1
            assert field.pow_val(a, e) == val(_pow_mod(fa, e % (q - 1),
                                                       modulus))


@pytest.mark.parametrize("p,m", [(2, 6), (3, 2), (5, 4), (7, 2), (5, 1),
                                 (2, 15), (3, 10)])
def test_zero_and_negation_edge_cases(p, m):
    # tabled and prime fields exhaustively (Zech sentinels included), the
    # over-cap backends on their first 200 values
    field = make_field(p, m)
    q = field.order
    for a in range(q if q <= ffield._TABLE_MAX else 200):
        na = field.neg_val(a)
        assert field.add_val(a, na) == field.add_val(na, a) == 0
        assert field.sub_val(a, a) == 0
        assert field.add_val(a, 0) == field.add_val(0, a) == a
        assert field.sub_val(a, 0) == a
        assert field.sub_val(0, a) == na
        assert field.mul_val(a, 0) == field.mul_val(0, a) == 0
        assert field.pow_val(a, 0) == 1
        if a:
            assert field.pow_val(a, -1) == field.inv_val(a)
            assert field.mul_val(field.pow_val(a, -3),
                                 field.pow_val(a, 3)) == 1
            assert field.pow_val(a, -(q - 1)) == 1
    assert field.neg_val(0) == 0
    assert field.pow_val(0, 0) == 1
    assert field.pow_val(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        field.inv_val(0)
    with pytest.raises(ZeroDivisionError):
        field.pow_val(0, -1)


@pytest.mark.parametrize("m", [15, 18, 24])
def test_clmul_inverse_matches_the_power_route(m):
    # extended Euclid against a^(2^m - 2) by square-and-multiply
    field = make_field(2, m)
    assert type(field) is ffield._ClmulField
    rng = random.Random(m)
    for a in [rng.randrange(1, field.order) for _ in range(2000)]:
        assert field.inv_val(a) == ffield.FieldDesc.pow_val(
            field, a, field.order - 2)
    with pytest.raises(ZeroDivisionError):
        field.inv_val(0)


@pytest.mark.parametrize("workers", [2, 4])
def test_first_use_from_threads(workers):
    # a fresh GF(5^6): threads that all start with arithmetic see exactly
    # the single-thread results
    fresh = ffield._build_field.__wrapped__
    rng = random.Random(workers)
    pairs = [(rng.randrange(5**6), rng.randrange(5**6)) for _ in range(2000)]

    def work(field):
        return [(field.mul_val(a, b), field.add_val(a, b),
                 field.sub_val(a, b), field.neg_val(a)) for a, b in pairs]

    expect = work(fresh(5, 6))
    field = fresh(5, 6)
    start = threading.Barrier(workers)
    results = [None] * workers

    def run(i):
        start.wait(timeout=30)
        results[i] = work(field)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [expect] * workers


_OPS = {"add_val": (3, 5), "sub_val": (3, 5), "neg_val": (3,),
        "mul_val": (3, 5), "inv_val": (3,), "pow_val": (3, 7)}
_BACKENDS = (ffield._PrimeField, ffield._Char2TableField, ffield._TableField,
             ffield._ClmulField, ffield._DigitField)


@pytest.mark.parametrize("p,m", [(2, 6), (5, 4)])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_any_first_operation_builds_tables(p, m, op):
    # the constructor builds the tables, so whichever operation comes first
    # finds them in place, keeps them and agrees with the over-cap backend
    # on the same modulus, which has no tables
    field = ffield._build_field.__wrapped__(p, m)
    slots = ffield._TableField.__slots__
    tables = [getattr(field, name) for name in slots]
    plain = (ffield._ClmulField if p == 2 else ffield._DigitField)(
        p, m, field.modulus)
    assert getattr(field, op)(*_OPS[op]) == getattr(plain, op)(*_OPS[op])
    assert type(field) is (ffield._Char2TableField if p == 2
                           else ffield._TableField)
    assert all(getattr(field, name) is t for name, t in zip(slots, tables))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 3), (2, 6), (3, 2),
                                 (5, 4), (2, 18), (3, 10)])
def test_make_field_results_keep_their_type(p, m):
    # no backend swaps its class or hooks attribute reads, either of which
    # would keep CPython from specializing the slot reads
    field = make_field(p, m)
    backend = type(field)
    assert backend in _BACKENDS
    for op, args in _OPS.items():
        getattr(field, op)(*(min(a, field.order - 1) for a in args))
        assert type(field) is backend, op
    for backend in _BACKENDS:
        assert not any("__getattr__" in vars(c) for c in backend.__mro__)


# -- enumeration ------------------------------------------------------------


def test_iter_elements_complete_and_splittable():
    full = [e.val for e in iter_elements(F64)]
    assert full == list(range(64))
    chunked = [e.val for e in iter_elements(F64, 0, 20)]
    chunked += [e.val for e in iter_elements(F64, 20, 64)]
    assert chunked == full
    assert list(iter_elements(F64, 64, 64)) == []
    # a range outside [0, order] is refused before anything is yielded
    for start, stop in [(2, 6), (-1, 2), (3, 2)]:
        with pytest.raises(DomainError):
            iter_elements(make_field(2, 2), start, stop)


# -- relative extensions ----------------------------------------------------

E64_4 = make_ext(2, 2, 3)  # GF(64)/GF(4)
E64_2 = make_ext(2, 1, 6)  # GF(64)/GF(2)


def test_ext_guards():
    with pytest.raises(DomainError):
        make_ext(2, 4, 3, limit=2**28).subfield_vals(2)  # 2 does not divide 3
    with pytest.raises(DomainError):
        in_subfield(F64.gen, E64_4, 2)  # 2 does not divide n = 3


@given(a=_elt(F64), b=_elt(F64))
def test_frobenius_is_field_automorphism(a, b):
    fa, fb = rel_frobenius(a, E64_4), rel_frobenius(b, E64_4)
    assert rel_frobenius(a + b, E64_4) == fa + fb
    assert rel_frobenius(a * b, E64_4) == fa * fb


@given(a=_elt(F64))
def test_frobenius_order_n(a, ):
    cur = a
    for _ in range(E64_4.n):
        cur = rel_frobenius(cur, E64_4)
    assert cur == a


@given(a=_elt(F64), b=_elt(F64))
def test_trace_additive_frobenius_invariant(a, b):
    assert rel_trace(a + b, E64_4) == rel_trace(a, E64_4) + rel_trace(b, E64_4)
    assert rel_trace(rel_frobenius(a, E64_4), E64_4) == rel_trace(a, E64_4)


def test_trace_lands_in_base_field_exhaustive():
    for e in iter_elements(F64):
        assert in_subfield(rel_trace(e, E64_4), E64_4, 1)
        assert in_subfield(rel_trace(e, E64_2), E64_2, 1)


def test_trace_surjective_onto_base():
    images = {rel_trace(e, E64_4).val for e in iter_elements(F64)}
    assert images == set(E64_4.subfield_vals(1))


def test_trace_gf4_over_gf2():
    # the two elements outside GF(2) have absolute trace 1
    ext = make_ext(2, 1, 2)
    f4 = ext.big
    g = f4.gen
    assert rel_trace(g, ext) == f4.one
    assert rel_trace(g + 1, ext) == f4.one
    assert rel_trace(f4.zero, ext) == f4.zero
    assert rel_trace(f4.one, ext) == f4.zero


@pytest.mark.parametrize("k", [3, 4])
def test_trace_tables_match_square_and_multiply(k):
    # GF(2^18) and GF(2^24) are above the table cap: their relative trace
    # is a lookup per input byte in tables spanned from the basis traces
    ext = make_ext(2, k, 6)
    assert isinstance(ext.big, ffield._ClmulField)
    rng = random.Random(k)
    vals = [0, ext.big.order - 1] + [rng.randrange(ext.big.order)
                                     for _ in range(1998)]
    assert ([ext.trace_val(v) for v in vals]
            == [ext._trace_by_powers(v) for v in vals])


def _square_and_multiply_maps(ext, v):
    """[v^(q^i) for i = 0..n] and the trace, by pow_val alone."""
    big = ext.big
    iterates = [v]
    for _ in range(ext.n):
        iterates.append(big.pow_val(iterates[-1], ext.q))
    trace = 0
    for w in iterates[:ext.n]:
        trace = big.add_val(trace, w)
    return iterates, trace


def _assert_tables_agree(ext, vals):
    for v in vals:
        iterates, trace = _square_and_multiply_maps(ext, v)
        assert ext.frob_val(v) == iterates[1]
        assert [ext.frob_iter_val(v, i) for i in range(ext.n + 1)] == iterates
        assert ext.trace_val(v) == trace


@pytest.mark.parametrize("p,k,n", [(5, 1, 4), (2, 1, 12), (5, 1, 6)])
def test_linear_tables_match_square_and_multiply_everywhere(p, k, n):
    # one-block tables over fields of at most 2^14 elements
    ext = make_ext(p, k, n)
    assert ext.big.order <= ffield._TABLE_MAX
    _assert_tables_agree(ext, range(ext.big.order))


@pytest.mark.parametrize("p,k,n,backend", [
    (2, 3, 6, ffield._ClmulField), (2, 4, 6, ffield._ClmulField),
    (3, 2, 5, ffield._DigitField)])
def test_linear_tables_match_square_and_multiply_sampled(p, k, n, backend):
    # block tables of at most 4096 entries, summed by add_val
    ext = make_ext(p, k, n)
    assert type(ext.big) is backend
    rng = random.Random(f"{p},{k},{n}")
    _assert_tables_agree(ext, [rng.randrange(ext.big.order)
                               for _ in range(200)])


@pytest.mark.parametrize("p,m,base_deg", [(5, 4, 1), (2, 24, 4), (3, 10, 2)])
@pytest.mark.parametrize("key", [1, 2, "trace"])
def test_planted_basis_image_fails_table_build(monkeypatch, p, m, base_deg,
                                               key):
    big = make_field(p, m)
    real = type(big).pow_val

    def planted(self, a, e):  # wrong only at t, so one basis image is off
        out = real(self, a, e)
        return (out + 1) % self.order if a == p else out

    monkeypatch.setattr(type(big), "pow_val", planted)
    ext = ffield.ExtDesc(big, base_deg)  # no map built yet
    first_use = {1: ext.frob_val, 2: lambda v: ext.frob_iter_val(v, 2),
                 "trace": ext.trace_val}[key]
    with pytest.raises(ffield.TableError):
        first_use(p)


# (p, m, block width) of every table that verify-all spans: one block over
# the whole field up to 2^14 elements, blocks of at most 4096 entries above
REGISTRY_SPANS = [(2, 5, 5), (2, 6, 6), (2, 10, 10), (2, 12, 12), (2, 15, 3),
                  (2, 15, 12), (2, 18, 6), (2, 18, 12), (2, 24, 12),
                  (3, 5, 5), (3, 10, 3), (3, 10, 7), (5, 4, 4), (5, 5, 5),
                  (5, 6, 6), (7, 2, 2)]


@pytest.mark.parametrize("p,m,width", REGISTRY_SPANS)
def test_span_matches_the_scalar_table(p, m, width):
    # the reference: each block of entries is the block before it plus the
    # basis image, entry by entry through add_val
    field = make_field(p, m)
    rng = random.Random(f"{p},{m},{width}")
    images = [rng.randrange(field.order) for _ in range(width)]
    table = [0]
    for img in images:
        size = len(table)
        for _ in range(p - 1):
            table += [field.add_val(x, img) for x in table[-size:]]
    span = ffield._span(field, images)
    assert span.typecode == ("H" if field.order <= 1 << 16 else "I")
    assert span.tolist() == table


@pytest.mark.parametrize("p,m,base_deg", [(2, 6, 1), (5, 4, 1), (2, 24, 4),
                                          (3, 10, 2)])
@pytest.mark.parametrize("key", ["frob", "trace"])
@pytest.mark.parametrize("at", [0, -1])
def test_perturbed_basis_image_fails_table_build(monkeypatch, p, m, base_deg,
                                                 key, at):
    # the images come right from square-and-multiply; one of them is
    # changed on its way into the table, so only the table is wrong
    big = make_field(p, m)
    real = type(big).linear_map

    def planted(self, images):
        images = list(images)
        images[at] = self.add_val(images[at], 1)
        return real(self, images)

    monkeypatch.setattr(type(big), "linear_map", planted)
    ext = ffield.ExtDesc(big, base_deg)  # no map built yet
    with pytest.raises(ffield.TableError, match=f"{key!r} table"):
        ext._build_linear(key)


def test_subfield_lattice_sizes():
    for d, size in [(1, 2), (2, 4), (3, 8), (6, 64)]:
        vals = E64_2.subfield_vals(d)
        assert len(vals) == size
        assert len(set(vals)) == size
        for v in vals:
            assert in_subfield(F64.element(v), E64_2, d)
    # counts agree with the fixed-point characterization
    for d in (1, 2, 3):
        fixed = sum(in_subfield(e, E64_2, d) for e in iter_elements(F64))
        assert fixed == 2**d


def test_subfields_are_multiplicatively_closed():
    vals = set(E64_4.subfield_vals(1))
    for a in vals:
        for b in vals:
            assert F64.mul_val(a, b) in vals
            assert F64.add_val(a, b) in vals


def test_kappa_generates_base_field():
    kap = F64.element(E64_4.kappa_val)
    assert kap * kap + kap + 1 == F64.zero  # root of t^2 + t + 1
    assert set(E64_4.k_elements()) == set(E64_4.subfield_vals(1))
    # digit order: index 0 -> 0, index 1 -> 1, index 2 -> kappa
    assert E64_4.k_elements()[0] == 0
    assert E64_4.k_elements()[1] == 1
    assert E64_4.k_elements()[2] == E64_4.kappa_val


def test_k_index_round_trip():
    for i, v in enumerate(E64_4.k_elements()):
        assert E64_4.k_index(v) == i
    with pytest.raises(DomainError):
        E64_4.k_index(F64.gen.val)  # g is not in GF(4)


@given(v=st.integers(0, 63))
@settings(max_examples=64)
def test_rel_coordinates_round_trip(v):
    coords = E64_4.rel_coordinates(v)
    assert len(coords) == E64_4.n
    base = set(E64_4.subfield_vals(1))
    assert all(c in base for c in coords)
    acc = F64.zero
    gp = F64.one
    for c in coords:
        acc = acc + F64.element(c) * gp
        gp = gp * F64.gen
    assert acc.val == v


def test_odd_characteristic_extension():
    ext = make_ext(5, 1, 4)
    big = ext.big
    assert big.order == 625
    for e in [big.gen, big.gen**7, big.from_int(3)]:
        assert in_subfield(rel_trace(e, ext), ext, 1)
    assert len(ext.subfield_vals(2)) == 25


# -- whole-array arithmetic and whole-field tables ---------------------------


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4), (7, 2)])
def test_table_ops_match_scalar_arithmetic(p, m):
    field = make_field(p, m)
    ops = TableOps(field)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(field.order),
                                             np.arange(field.order)))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert ops.add(a, b).tolist() == [field.add_val(x, y) for x, y in pairs]
    assert ops.sub(a, b).tolist() == [field.sub_val(x, y) for x, y in pairs]
    assert ops.mul(a, b).tolist() == [field.mul_val(x, y) for x, y in pairs]
    assert ops.neg(a).tolist() == [field.neg_val(x) for x in a.tolist()]


def test_table_ops_reject_a_sum_without_zero_terms(monkeypatch):
    def planted(self, a, b):  # g^(la + zech[lb - la]) even where a or b is 0
        la, lb = self.log[a], self.log[b]
        return self.exp[la + self.zech[(lb - la) % (self.field.order - 1)]]

    monkeypatch.setattr(TableOps, "add", planted)
    with pytest.raises(ffield.TableError, match="batched add"):
        TableOps(make_field(5, 4))


def test_whole_table_is_the_scalar_map():
    ext = make_ext(5, 1, 4)
    frob, trace = ext.whole_table("frob"), ext.whole_table("trace")
    assert [frob[v] for v in range(625)] == [ext.frob_val(v)
                                             for v in range(625)]
    assert [trace[v] for v in range(625)] == [ext.trace_val(v)
                                              for v in range(625)]
    # only fields of at most 2^14 elements have tables over the whole field
    with pytest.raises(DomainError):
        make_ext(2, 4, 6).whole_table("frob")
    with pytest.raises(DomainError):
        TableOps(make_field(2, 20))
