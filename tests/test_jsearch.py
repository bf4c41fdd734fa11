import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from joubert2 import (BudgetError, DomainError, checks, ffield, jsearch,
                      make_ext, make_field, sigma)
from joubert2.ascurve import curve_census, trace_identity_check
from joubert2.cubic import surface_census
from joubert2.errors import CheckFailed
from joubert2.fastscan import CHUNK, Workspace
from joubert2.fpoly import (
    UPoly,
    compress_poly,
    format_poly,
    is_irreducible,
)
from joubert2.jsearch import (
    count_joubert_generators,
    enumerate_joubert_polys,
    find_joubert_generator,
    hermite_search,
)
from joubert2.sigma import is_joubert, sigma_profile

ROOT = Path(__file__).resolve().parent.parent


def test_find_q2_pinned_witness():
    r = find_joubert_generator(2)
    assert r.found is not None
    assert r.found.val == 2  # the modulus root itself, first in value order
    assert format_poly(r.found_min_poly) == "t^6+t+1"


@pytest.mark.parametrize("q", [2, 4, 8])
def test_find_witness_exists_and_verifies(q):
    r = find_joubert_generator(q)
    assert r.found is not None
    ext = make_ext(2, q.bit_length() - 1, 6)
    assert is_joubert(r.found, ext)
    prof = sigma_profile(r.found, ext)
    assert prof.sigma(1) == 0 and prof.sigma(3) == 0
    mp = r.found_min_poly
    assert mp.degree == 6 and mp.coeff(5) == 0 and mp.coeff(3) == 0


def test_find_witness_is_minimal():
    # nothing below the witness qualifies, so the Tr(y) = Tr(y^3) = 0
    # prefilter skipped no generator
    for q in (4, 8, 16):
        a = find_joubert_generator(q)
        ext = make_ext(2, q.bit_length() - 1, 6)
        for v in range(a.found.val):
            assert not is_joubert(ext.big.element(v), ext), (q, v)


@pytest.mark.parametrize("calls", [1, 2])
def test_find_stops_at_the_witness(calls):
    # the walk ends at the q = 8 witness (value 258); a repeat call runs on
    # the extension's cached tables and must stop at the same place
    reports = [find_joubert_generator(8) for _ in range(calls)]
    assert [(r.scanned, r.found.val) for r in reports] == [(259, 258)] * calls


def test_find_rejects_bad_q():
    with pytest.raises(DomainError):
        find_joubert_generator(3)
    with pytest.raises(DomainError):
        find_joubert_generator(6)
    with pytest.raises(BudgetError):
        find_joubert_generator(16, budget=1000)


def test_enumerate_q2_exact():
    polys = enumerate_joubert_polys(2)
    assert sorted(format_poly(p) for p in polys) == [
        "t^6+t+1", "t^6+t^4+t^2+t+1"]


def test_enumerate_invariants():
    for q in (2, 3, 4):
        for p in enumerate_joubert_polys(q):
            assert p.is_monic() and p.degree == 6
            assert p.coeff(5) == 0 and p.coeff(3) == 0
            assert is_irreducible(p)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_sieve_equals_the_rabin_filter(q):
    field = make_field(*jsearch._split_prime_power(q))
    rabin = [f for f in (UPoly(field, [d, c, b, 0, a, 0, 1])
                         for a, b, c, d in product(range(q), repeat=4))
             if is_irreducible(f)]
    assert enumerate_joubert_polys(q) == rabin


def test_enumerate_q16_matches_the_root_side_count():
    # 57600 Joubert generators of GF(2^24)/GF(16), six per sextic
    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        assert json.load(fh)["scan"]["16"] == 57600
    polys = enumerate_joubert_polys(16)
    assert len(polys) == 9600
    assert 6 * len(polys) == count_joubert_generators(16).count == 57600


def test_sieve_requires_gauss_counts(monkeypatch):
    # a root marking that skips the root 0 keeps t^2 and t^3 + t^2 (and
    # more) among the "irreducible" quadratics and cubics
    real = jsearch._sieve

    def planted(field, top, exps, divisors):
        if top < 6:
            divisors = divisors[1:]
        return real(field, top, exps, divisors)

    monkeypatch.setattr(jsearch, "_sieve", planted)
    with pytest.raises(CheckFailed, match="irreducibles of degree 2"):
        enumerate_joubert_polys(3)


def test_enum_check_fails_on_a_planted_non_monic_sextic(monkeypatch):
    # t times the last GF(8) sextic: still degree 6 with zero t^5 and t^3
    # terms, and still irreducible, so Rabin's re-test passes it; only the
    # monic claim can catch it
    real = jsearch.enumerate_joubert_polys

    def planted(q, budget=None):
        polys = real(q, budget=budget)
        last = polys[-1]
        shifted = [last.field.mul_val(2, c) for c in last.coeffs]
        return polys[:-1] + [UPoly(last.field, shifted)]

    monkeypatch.setattr(jsearch, "enumerate_joubert_polys", planted)
    result = checks.check_generator_enum(8)
    assert result.outcome == "fail"
    assert result.witness == {"error": "not a monic sextic"}


def _fixes_t(poly):
    # Rabin's test without its gcd condition: only t^(Q^d) = t mod f
    t = UPoly(poly.field, [0, 1])
    cur, e = UPoly(poly.field, [1]), poly.field.order ** poly.degree
    base = t % poly
    while e:
        if e & 1:
            cur = cur * base % poly
        base = base * base % poly
        e >>= 1
    return poly.degree > 0 and cur == t % poly


# Plants for `joubert-enum`: each takes a setattr (monkeypatch.setattr) and
# breaks one route.

def _cubicless_sieve(patch):
    # the sieve without its cubic divisors also lists the products of two
    # irreducible cubics
    real = jsearch._sieve

    def planted(field, top, exps, divisors):
        return real(field, top, exps, [g for g in divisors if len(g) < 4])

    patch(jsearch, "_sieve", planted)


def _gcdless_retest(patch):
    patch(checks, "is_irreducible", _fixes_t)


def _corrupt_frobenius_entry(patch):
    # the t coefficient of t^Q mod f, off by 1, in every Frobenius matrix
    # that Rabin's test builds: the re-test then rejects every sextic at
    # q = 3 and 4 (the constant coefficient off by 1 instead only admits
    # reducible sextics, which a re-test of the sieve's list cannot meet)
    real = ffield._frobenius_matrix

    def planted(field, f):
        cols = real(field, f)
        cols[1][1] = field.add_val(cols[1][1], 1)
        return cols

    patch(ffield, "_frobenius_matrix", planted)


def _squarefreeless_berlekamp(patch):
    # the rank test alone also admits the powers of one irreducible: t^6
    # at every odd q, and (t^2 + 1)^3 = t^6 + 1 at q = 3
    patch(checks, "_squarefree", lambda f: True)


def _dropped_candidate(patch):
    real = jsearch.enumerate_joubert_polys

    def planted(q, budget=None):
        polys = real(q, budget=budget)
        del polys[len(polys) // 2]
        return polys

    patch(jsearch, "enumerate_joubert_polys", planted)


ENUM_PLANTS = {
    "cubicless-sieve": (_cubicless_sieve,),
    "cubicless-sieve+gcdless-retest": (_cubicless_sieve, _gcdless_retest),
    "frobenius-entry": (_corrupt_frobenius_entry,),
    "squarefreeless-berlekamp": (_squarefreeless_berlekamp,),
    "dropped-candidate": (_dropped_candidate,),
}

BERLEKAMP = "sextic list disagrees with Berlekamp's criterion"

# (plant, q) -> the error that the check reports
ENUM_PLANT_ERRORS = {
    **{("cubicless-sieve", q): "sextic is reducible" for q in (3, 4, 5, 8)},
    # in characteristic 2 the squares of the irreducible cubics also have
    # zero t^5 and t^3 terms, and they are not squarefree, so the gcd-less
    # re-test still rejects them; at odd q only Berlekamp's list sees the
    # products of two distinct cubics
    **{("cubicless-sieve+gcdless-retest", q): (
        "sextic is reducible" if q % 2 == 0 else BERLEKAMP)
       for q in (4, 8, 3, 5)},
    **{("frobenius-entry", q): "sextic is reducible" for q in (3, 4)},
    **{("squarefreeless-berlekamp", q): BERLEKAMP for q in (3, 5)},
    ("dropped-candidate", 3): BERLEKAMP,
    ("dropped-candidate", 8): "generator count is not a multiple of q^2 - q",
}


def _plant(patch, name):
    for plant in ENUM_PLANTS[name]:
        plant(patch)


@pytest.mark.parametrize("q", [4, 8, 3, 5])
def test_enum_check_fails_on_a_gcdless_irreducibility_test(monkeypatch, q):
    # the gcd-less Rabin test in the re-test of a sieve without its cubic
    # divisors
    name = "cubicless-sieve+gcdless-retest"
    _plant(monkeypatch.setattr, name)
    result = checks.check_generator_enum(q)
    assert result.outcome == "fail"
    assert result.witness == {"error": ENUM_PLANT_ERRORS[name, q]}


SINGLE_PLANTS = [key for key in ENUM_PLANT_ERRORS if "+" not in key[0]]


@pytest.mark.parametrize("name,q", SINGLE_PLANTS,
                         ids=[f"{n}-{q}" for n, q in SINGLE_PLANTS])
def test_enum_check_fails_on_a_plant(monkeypatch, name, q):
    _plant(monkeypatch.setattr, name)
    result = checks.check_generator_enum(q)
    assert result.outcome == "fail"
    assert result.witness == {"error": ENUM_PLANT_ERRORS[name, q]}


def test_enum_plants_fail_under_optimize():
    # every plant in the one `python -O` run of test_planted at each q,
    # after an unplanted pass, with the same errors
    from test_planted import assert_plants_fail_under_optimize
    assert_plants_fail_under_optimize("check_generator_enum")


@pytest.mark.parametrize("q,count", [(3, 12), (5, 100)])
def test_enum_check_runs_berlekamp_for_odd_q(q, count):
    result = checks.check_generator_enum(q)
    assert result.outcome == "pass"
    assert result.witness["count"] == count
    assert result.witness["routes"] == ["sieve", "rabin", "berlekamp"]


def test_berlekamp_agrees_with_rabin():
    # every monic polynomial of degree 2-4 over GF(2), GF(3) and GF(4)
    for p, k in ((2, 1), (3, 1), (2, 2)):
        field = make_field(p, k)
        for d in (2, 3, 4):
            for low in product(range(field.order), repeat=d):
                f = UPoly(field, list(low) + [1])
                assert checks._berlekamp_irreducible(f) == is_irreducible(f)


@pytest.mark.parametrize("route", ["is_irreducible", "_berlekamp_irreducible"])
def test_named_polynomials_fail_when_one_criterion_errs(monkeypatch, route):
    # a criterion that calls every polynomial irreducible meets the other's
    # verdict on the reducible t^6 + t + b over GF(8)
    monkeypatch.setattr(checks, route, lambda f: True)
    result = checks.check_named_polynomials()
    assert result.outcome == "fail"
    assert result.witness == {
        "error": "Rabin's and Berlekamp's criteria disagree"}


def test_split_prime_power():
    # p by trial division up to sqrt(q): a prime near 2^31 takes ms
    assert jsearch._split_prime_power(2**31 - 1) == (2**31 - 1, 1)
    assert jsearch._split_prime_power(3**13) == (3, 13)
    for q in (1, 12, 2 * 3**13):
        with pytest.raises(DomainError):
            jsearch._split_prime_power(q)


def test_enumerate_q4_contains_named_shapes():
    shapes = {format_poly(p) for p in enumerate_joubert_polys(4)}
    # t^6+t^2+t+alpha for both alpha outside the prime field
    assert "t^6+t^2+t+[0,1]" in shapes
    assert "t^6+t^2+t+[1,1]" in shapes


def test_enumerate_deterministic_order():
    a = enumerate_joubert_polys(4)
    b = enumerate_joubert_polys(4)
    assert a == b


def test_q8_linear_shift_shape_exists():
    # t^6+t+beta is irreducible for some beta outside the prime field
    f8 = make_field(2, 3)
    betas = [b for b in range(2, 8)
             if is_irreducible(UPoly(f8, [b, 1, 0, 0, 0, 0, 1]))]
    assert betas
    shapes = {format_poly(p) for p in enumerate_joubert_polys(8)}
    for b in betas:
        coeff = "[" + ",".join(str((b >> i) & 1) for i in range(3)) + "]"
        assert f"t^6+t+{coeff}" in shapes


def test_count_matches_root_multiplicity():
    # every irreducible sextic has six roots, all generators, so the witness
    # count is six per polynomial
    c2 = count_joubert_generators(2)
    assert c2.count == 12 == 6 * len(enumerate_joubert_polys(2))
    c4 = count_joubert_generators(4)
    assert c4.count == 144 == 6 * len(enumerate_joubert_polys(4))


def test_count_thread_independent(monkeypatch):
    # L_0 is a single chunk up to q = 8; at q = 16 it splits into 16: the
    # same report and the same audited values at 1 and 2 threads
    real, audited = jsearch.joubert_mask, []

    def spy(vals, ext):
        audited.append(vals)
        return real(vals, ext)

    monkeypatch.setattr(jsearch, "joubert_mask", spy)
    for q in (4, 8, 16):
        audited.clear()
        assert (count_joubert_generators(q, threads=1)
                == count_joubert_generators(q, threads=2))
        assert len(audited) == 2 and audited[0] == audited[1]


def test_audit_picks_match_a_three_pass_reference(monkeypatch):
    # q = 16, 16 chunks: the audited values against picks made from one
    # flatnonzero per kind and chunk, over the kept, F_{q^3} and
    # Tr(y^3) != 0 masks
    real, audited = jsearch.joubert_mask, []

    def spy(vals, ext):
        audited.append(vals)
        return real(vals, ext)

    monkeypatch.setattr(jsearch, "joubert_mask", spy)
    count_joubert_generators(16)
    tables = jsearch._l0_tables(jsearch._ext_scan(2, 4, 6))

    def spread(mask, lo, n, kind):
        idx = np.flatnonzero(mask)
        pick = np.linspace(0, idx.size - 1, min(n, idx.size)).astype(np.intp)
        return dict.fromkeys((idx[pick] + lo).tolist(), kind)

    index = []
    for lo in range(0, tables.order, CHUNK):
        hi = min(lo + CHUNK, tables.order)
        solvable, in_cubic = tables.tests.split(tables.form(lo, hi), lo, hi,
                                                Workspace())
        kept = solvable & ~in_cubic
        cubic = spread(in_cubic, lo, 16, "cubic")
        index += {**spread(kept, lo, 32, "kept"), **cubic,
                  **spread(~(kept | in_cubic), lo, 32 - len(cubic), "trace")}
    assert len(index) == 1024
    assert audited == [
        tables.canonical(np.array(index, dtype=np.uint64)).tolist()]


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_polar_form_is_the_tower_trace_of_the_cube(q):
    # at every index of L_0: the swept form against Tr(y^3) by
    # Gf2Scan.cube and the scan's trace
    scan = jsearch._ext_scan(2, q.bit_length() - 1, 6)
    tables = jsearch._l0_tables(scan)
    for lo in range(0, tables.order, CHUNK):
        hi = min(lo + CHUNK, tables.order)
        y = tables.canonical(np.arange(lo, hi, dtype=np.uint32))
        want = scan.trace(scan.ops.cube(y))
        assert np.array_equal(tables.form(lo, hi), want)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_l0_gram_matches_a_shift_and_xor_gram(q):
    # the Gram matrix the sweep reads, by Gf2Scan.cube, against one taken
    # by scalar ffield products and traces at the same points e_i and
    # e_i + e_j, polarized the same way
    scan = jsearch._ext_scan(2, q.bit_length() - 1, 6, 2**30)
    tables = jsearch._l0_tables(scan)
    basis = np.array(tables.canonical.images, dtype=np.uint64)
    i, j = np.triu_indices(basis.size)
    ext = scan.ext
    mul = ext.big.mul_val
    t = np.array([ext.trace_val(mul(y, mul(y, y))) for y in np.where(
        i == j, basis[i], basis[i] ^ basis[j]).tolist()], dtype=np.uint32)
    diag = t[i == j]
    want = np.zeros((basis.size,) * 2, dtype=np.uint32)
    want[i, j] = np.where(i == j, t, t ^ diag[i] ^ diag[j])
    assert np.array_equal(tables.form.gram, want)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_count_checks_the_gram_against_the_tower(monkeypatch, q):
    # bit 3 of the modulus that the scan's products reduce by, flipped
    # after the Gram was built: the audited y's cubes leave the field, and
    # the check of the Gram against Gf2Scan.cube raises
    scan = jsearch._ext_scan(2, q.bit_length() - 1, 6)
    jsearch._l0_tables(scan)
    monkeypatch.setattr(scan.ops, "f", scan.ops.f ^ np.uint64(8))
    with pytest.raises(jsearch.TableError, match="disagrees with "
                       "Gf2Scan.cube at an audited y"):
        count_joubert_generators(q)


def test_count_sweeps_the_trace_kernel():
    # q^5 elements swept, and the count is a scalar is_joubert walk over
    # the whole of GF(4^6)
    ext = make_ext(2, 2, 6)
    walk = sum(is_joubert(ext.big.element(v), ext)
               for v in range(ext.big.order))
    report = count_joubert_generators(4)
    assert (report.count, report.scanned) == (walk, 4**5) == (144, 1024)
    assert count_joubert_generators(2).scanned == 32


@pytest.mark.parametrize("plant", ["short", "dependent", "nonzero-trace"])
def test_planted_trace_kernel_basis_fails(monkeypatch, plant):
    real = jsearch.kernel
    scan = jsearch.ExtScan(make_ext(2, 2, 6))
    odd = next(j for j, img in enumerate(scan._trace.images) if img)

    def planted(matrix, field):
        basis = real(matrix, field)
        if plant == "short":
            return basis[1:]
        if plant == "dependent":
            basis[-1] = [a ^ b for a, b in zip(basis[0], basis[1])]
        else:
            basis[-1] = [int(j == odd) for j in range(len(basis[-1]))]
        return basis

    monkeypatch.setattr(jsearch, "kernel", planted)
    with pytest.raises(CheckFailed):
        jsearch._L0Tables(scan)


@pytest.mark.parametrize("plant", ["never", "on-the-cubic-subfield",
                                   "every-generator"])
def test_count_fails_on_a_planted_is_joubert(monkeypatch, plant):
    # the scalar audit samples the kept y, the F_{q^3} ones and those with
    # Tr(y^3) != 0: a wrong is_joubert on any of the three fails the count
    real, gen = jsearch.is_joubert, sigma.is_generator
    wrong = {"never": lambda y, ext: False,
             "on-the-cubic-subfield": lambda y, ext: (
                 real(y, ext) or ext.frob_iter_val(y.val, 3) == y.val),
             "every-generator": lambda y, ext: gen(y, ext)}[plant]
    monkeypatch.setattr(jsearch, "is_joubert", wrong)
    with pytest.raises(CheckFailed, match="element"):
        count_joubert_generators(8)


@pytest.mark.parametrize("modulus", [0b1001001, 0b1011011])
def test_count_fails_on_an_audit_kernel_in_another_field(monkeypatch,
                                                         modulus):
    # another irreducible sextic: the kernel's conjugates still close up,
    # and only the scalar is_joubert can tell that it judges other elements
    ops = sigma._clmul_ops(make_ext(2, 1, 6).big)
    monkeypatch.setattr(ops, "f", np.uint64(modulus))
    with pytest.raises(CheckFailed, match="audit kernel disagrees with "
                       "is_joubert on element 2"):
        count_joubert_generators(2)


def test_count_reverifies_at_least_1024_at_q16(monkeypatch):
    # the kernel re-verifies at least 1,024 sampled y in one call, with both
    # outcomes; the scalar is_joubert meets every kind in every chunk
    real_mask, real = jsearch.joubert_mask, jsearch.is_joubert
    masks, scalar = [], []

    def mask(vals, ext):
        masks.append(real_mask(vals, ext))
        return masks[-1]

    def counting(y, ext):
        scalar.append(y.val)
        return real(y, ext)

    monkeypatch.setattr(jsearch, "joubert_mask", mask)
    monkeypatch.setattr(jsearch, "is_joubert", counting)
    assert count_joubert_generators(16).count == 57600
    assert len(masks) == 1 and masks[0].size >= 1024
    assert masks[0].any() and not masks[0].all()
    # each scalar y's chunk, from its index in the sweep of L_0
    scan = jsearch._ext_scan(2, 4, 6)
    tables, ext, big = jsearch._l0_tables(scan), scan.ext, scan.ext.big
    swept = tables.canonical(np.arange(tables.order, dtype=np.uint32))
    order = np.argsort(swept)
    chunks = order[np.searchsorted(swept, scalar, sorter=order)] // CHUNK

    def kind(v):
        if real(big.element(v), ext):
            return "kept"
        if ext.frob_iter_val(v, 3) == v:
            return "cubic"
        assert ext.trace_val(big.mul_val(v, big.mul_val(v, v))) != 0
        return "trace"

    assert {(int(c), kind(v)) for c, v in zip(chunks, scalar)} == {
        (c, k) for c in range(16**5 // CHUNK)
        for k in ("kept", "cubic", "trace")}


def test_witness_min_poly_is_enumerated():
    ext = make_ext(2, 2, 6)
    r = find_joubert_generator(4)
    small = compress_poly(r.found_min_poly, ext)
    polys = enumerate_joubert_polys(4)
    assert small in polys
    # back through the digit order of K: the same polynomial over the big field
    table = ext.k_elements()
    assert UPoly(ext.big, [table[c] for c in small.coeffs]) == r.found_min_poly


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_hermite_witness_every_characteristic(q):
    r = hermite_search(q)
    assert r.found is not None
    assert r.n == 5
    mp = r.found_min_poly
    assert mp.degree == 5 and mp.coeff(4) == 0 and mp.coeff(2) == 0
    p = 2 if q in (2, 4, 8) else (3 if q in (3, 9) else 5)
    ext = make_ext(p, {2: 1, 3: 1, 4: 2, 5: 1, 8: 3, 9: 2}[q], 5)
    assert is_joubert(r.found, ext)
    # nothing below the witness qualifies (canonical order pins the result,
    # and the trace prefilter skipped no generator)
    for v in range(r.found.val):
        assert not is_joubert(ext.big.element(v), ext)


def test_budget_errors_carry_parameters():
    with pytest.raises(BudgetError) as exc:
        enumerate_joubert_polys(16, budget=1000)
    assert exc.value.needed == 16**4
    assert exc.value.budget == 1000


@pytest.mark.parametrize("scan, order", [
    (find_joubert_generator, 64),
    (count_joubert_generators, 64),
    (hermite_search, 32),
    (curve_census, 64),
    (trace_identity_check, 64),
    (surface_census, 64),
], ids=["find", "count", "hermite", "curve", "trace-identity", "surface"])
def test_scans_are_capped_by_field_order(scan, order):
    # at q = 2 each scan runs over a field of `order` elements, and the
    # field-order cap of make_field is the one budget check it meets
    with pytest.raises(BudgetError) as exc:
        scan(2, budget=order - 1)
    assert (exc.value.parameter, exc.value.needed) == ("field order", order)
    scan(2, budget=order)
