import itertools
import random

import numpy as np
import pytest

from joubert2 import (BudgetError, checks, cubic, fastscan, iter_elements,
                      jsearch, make_field, sigma)
from joubert2.cubic import build_frame, surface_census
from joubert2.errors import CheckFailed
from joubert2.ffield import DEFAULT_LIMIT
from joubert2.jsearch import _ext_scan, _l0_tables, count_joubert_generators


@pytest.mark.parametrize("q,basis", [(2, (1, 2, 4, 8, 16)),
                                     (4, (1, 2, 4, 16, 32)),
                                     (8, (1, 2, 4, 16, 32)),
                                     (16, (1, 14, 18, 38, 70))])
def test_frame_bases_pinned(q, basis):
    assert build_frame(q).basis == basis


def test_frame_honours_budget():
    # GF(2^30) is above the default cap, so only a granted budget builds it
    with pytest.raises(BudgetError) as exc:
        build_frame(32)
    assert exc.value.budget == DEFAULT_LIMIT
    with pytest.raises(BudgetError) as exc:
        surface_census(32, budget=2**29)
    assert (exc.value.needed, exc.value.budget) == (2**30, 2**29)
    fr = build_frame(32, budget=2**30)
    assert len(fr.basis) == 5 and fr.basis[0] == 1
    for b in fr.basis:
        assert fr.ext.trace_val(b) == 0


@pytest.mark.parametrize("q", [2, 4, 8])
def test_frame_invariants(q):
    fr = build_frame(q)
    assert fr.basis[0] == 1
    assert len(fr.basis) == 5
    for b in fr.basis:
        assert fr.ext.trace_val(b) == 0
    assert fr.ext.big.combine((0, 0, 0, 0), fr.basis[1:]) == 0


def test_lift_lands_in_trace_zero_exhaustive_q4():
    fr = build_frame(4)
    kv = fr.ext.k_elements()
    for idx in range(4**4):
        r = idx
        coords = []
        for _ in range(4):
            coords.append(kv[r % 4])
            r //= 4
        y = fr.ext.big.combine(coords, fr.basis[1:])
        assert fr.ext.trace_val(y) == 0


@pytest.mark.parametrize("q", [2, 4])
def test_trace_cube_class_invariance(q):
    # Tr((lam*y + mu)^3) = lam^3 * Tr(y^3) on the trace-zero space: the
    # predicate descends to the projective quotient
    scan = _ext_scan(2, q.bit_length() - 1, 6)
    ext = scan.ext
    big = ext.big
    k_vals = ext.k_elements()
    l0 = _l0_tables(scan).canonical  # the L_0 sweep's basis, packed
    for y in l0(np.arange(q**5)).tolist():
        y3 = big.mul_val(big.mul_val(y, y), y)
        t = ext.trace_val(y3)
        for lam in k_vals[1:]:
            for mu in k_vals:
                z = big.add_val(big.mul_val(lam, y), mu)
                z3 = big.mul_val(big.mul_val(z, z), z)
                assert ext.trace_val(z3) == big.mul_val(big.pow_val(lam, 3), t)


def test_census_q2_pinned():
    c = surface_census(2)
    assert (c.total, c.on_line, c.generator_points) == (9, 3, 6)
    assert c.affine_zero_count == 20
    assert c.manin_floor == -9


def test_census_q2_independent_class_oracle():
    # re-derive the count from scratch: group qualifying field elements into
    # projective classes y ~ lam*y + mu by brute force
    f64 = make_field(2, 6)
    fr = build_frame(2)
    ext = fr.ext
    qual = []
    for e in iter_elements(f64):
        if e.val in (0, 1):
            continue
        y3 = f64.mul_val(f64.mul_val(e.val, e.val), e.val)
        if ext.trace_val(e.val) == 0 and ext.trace_val(y3) == 0:
            qual.append(e.val)
    assert len(qual) == 18  # |S| minus the constants
    classes = set()
    for y in qual:
        classes.add(frozenset({y, y ^ 1}))  # lam = 1; mu in {0, 1}
    assert len(classes) == 9
    on_line = sum(1 for cl in classes
                  if all(ext.frob_iter_val(y, 3) == y for y in cl))
    assert on_line == 3


@pytest.mark.parametrize("q,total", [(2, 9), (4, 17), (8, 81), (16, 257)])
def test_census_totals(q, total):
    # totals frozen after two independent routes agreed on each value
    c = surface_census(q)
    assert c.total == total
    assert c.generator_count == {2: 12, 4: 144, 8: 4032, 16: 57600}[q]
    assert c.on_line == q + 1
    assert c.total == c.on_line + c.generator_points
    assert c.total >= c.manin_floor
    assert c.affine_zero_count == total * (q * q - q) + q
    # a smooth surface; observed, not proved here: N = q^2 + t q + 1 with
    # t = 2 for odd k and t = 0 for even k (q = 2^k)
    assert cubic._is_smooth(build_frame(q))
    assert total == q * q + {2: 2, 4: 0, 8: 2, 16: 0}[q] * q + 1


def test_census_matches_generator_count():
    # each surface point away from the line collects q(q-1) field witnesses
    for q in (2, 4):
        c = surface_census(q)
        count = count_joubert_generators(q).count
        assert count == c.generator_points * (q * q - q)


def test_census_requires_the_element_count(monkeypatch):
    # the library call alone, as the scan workload and census_tables.py
    # make it, fails on a generator count off by q^2 - q
    real = jsearch.count_joubert_generators

    def planted(q, **kw):
        rep = real(q, **kw)
        rep.count += q * q - q
        return rep

    monkeypatch.setattr(jsearch, "count_joubert_generators", planted)
    with pytest.raises(CheckFailed,
                       match="^class count and element count disagree$"):
        surface_census(4)


def test_surface_check_sweeps_once(monkeypatch):
    # the count's L_0 sweep is the check's only vector pass: one chunked
    # scan over the q^5 elements of L_0, and no Gf2Scan cube inside it; the
    # audit cubes its y once, after the sweep
    real_run, real_cube = fastscan.run_chunked, fastscan.Gf2Scan.cube
    totals, cubes, inside = [], [], []

    def run_chunked(total, *args, **kw):
        totals.append(total)
        inside.append(total)
        try:
            return real_run(total, *args, **kw)
        finally:
            inside.pop()

    def cube(self, *args, **kw):
        cubes.append(bool(inside))
        return real_cube(self, *args, **kw)

    for module in (fastscan, jsearch, cubic, checks):
        if getattr(module, "run_chunked", None) is real_run:
            monkeypatch.setattr(module, "run_chunked", run_chunked)
    monkeypatch.setattr(fastscan.Gf2Scan, "cube", cube)
    assert checks.check_surface(4).outcome == "pass"
    assert totals == [4**5]
    assert cubes and not any(cubes)


def _form_at(frame, coords) -> list[int]:
    # C at each point of coords (tuples of four K-indices), as K-indices
    ext = frame.ext
    v = [np.array(col, dtype=np.uint64) for col in zip(*coords)]
    return cubic._form_values(cubic._form_coefficients(frame),
                              cubic._k_products(ext), ext.base_deg,
                              v).tolist()


def _trace_of_cube(frame, coords) -> int:
    # the scalar oracle k_index(Tr(y^3)) on GF(q^6), y = sum v_i b_i
    ext = frame.ext
    big = ext.big
    k_vals = ext.k_elements()
    y = big.combine([k_vals[i] for i in coords], frame.basis[1:])
    return ext.k_index(ext.trace_val(big.mul_val(big.mul_val(y, y), y)))


@pytest.mark.parametrize("q", [2, 4, 8])
def test_form_is_the_trace_of_the_cube_exhaustive(q):
    fr = build_frame(q)
    coords = list(itertools.product(range(q), repeat=4))
    assert _form_at(fr, coords) == [_trace_of_cube(fr, c) for c in coords]


def test_form_is_the_trace_of_the_cube_sampled_q16():
    fr = build_frame(16)
    rng = random.Random(2014)
    coords = [tuple(rng.randrange(16) for _ in range(4)) for _ in range(500)]
    assert _form_at(fr, coords) == [_trace_of_cube(fr, c) for c in coords]


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_subfield_kernels(q):
    # the F_{q^3}-classes form a line of q + 1 points; no nonzero class
    # lies in F_{q^2}
    fr = build_frame(q)
    assert len(cubic._subfield_kernel(fr, 3)) == 2
    assert cubic._subfield_kernel(fr, 2) == []


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_surface_check_runs_two_routes_once(monkeypatch, q):
    # at every q the check counts by the cubic form once and by the L_0
    # sweep once
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(module, name, wrapped)

    spy(cubic, "_form_total")
    spy(jsearch, "count_joubert_generators")
    assert checks.check_surface(q).outcome == "pass"
    assert sorted(calls) == ["_form_total", "count_joubert_generators"]


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_form_total_is_checked_by_the_sweep(monkeypatch, q):
    # a form total q points high, still of the Weil shape q^2 + t q + 1 with
    # t in [-2, 7], is caught by the L_0 sweep's element count
    real = cubic._form_total
    monkeypatch.setattr(cubic, "_form_total", lambda frame: real(frame) + q)
    with pytest.raises(CheckFailed,
                       match="^class count and element count disagree$"):
        surface_census(q)


@pytest.mark.parametrize("q", [2, 4])
def test_singular_form_fails(monkeypatch, q):
    # all c_ij = 0 in one row: (c_il) has a nonzero kernel
    real = cubic._form_coefficients

    def singular(frame):
        coeffs = real(frame)
        coeffs[2] = [0] * 4
        return coeffs

    monkeypatch.setattr(cubic, "_form_coefficients", singular)
    assert not cubic._is_smooth(build_frame(q))
    with pytest.raises(CheckFailed,
                       match="^the trace cubic surface is singular$"):
        surface_census(q)


def test_surface_count_outside_the_weil_shape_fails(monkeypatch):
    # N = q^2 + 8q + 1 at q = 4 is 1 mod q, but t = 8 > 7
    monkeypatch.setattr(cubic, "_form_total", lambda frame: 16 + 32 + 1)
    with pytest.raises(CheckFailed, match=r"has t outside \[-2, 7\]$"):
        surface_census(4)


def test_census_thread_independent():
    a = surface_census(4, threads=1)
    b = surface_census(4, threads=3)
    assert a == b


def test_census_budget():
    with pytest.raises(BudgetError) as exc:
        surface_census(16, budget=1000)
    assert (exc.value.needed, exc.value.budget) == (16**6, 1000)


def test_manin_floor_binding_at_16():
    c = surface_census(16)
    assert c.manin_floor == 145
    assert c.total >= 145
    assert c.generator_points >= 1


# Plants for the surface check: each takes a setattr (monkeypatch.setattr)
# and breaks one route, and maps each q it breaks to the error the check
# must report.


def _flipped_product_modulus_bit(patch):
    # bit 3 of the modulus that the scan's own products reduce by, after
    # its build check, with the L_0 tables rebuilt under it: the cubes at
    # the Gram points leave the field, the swept form is no longer
    # Tr(y^3), and F_{q^3} leaves its zeros at every q (a flip of bit 0, 1
    # or 2 leaves q = 2 passing)
    for q in (2, 4, 8, 16):
        ops = _ext_scan(2, q.bit_length() - 1, 6).ops
        patch(ops, "f", ops.f ^ np.uint64(8))
    patch(jsearch, "_l0_tables", jsearch._L0Tables)


def _flipped_gram_entry(patch):
    # 1 in K xored into B(e_0, e_1) of the built Gram matrix: the swept
    # form gains x_0 x_1, which is nonzero on part of F_{q^3}
    for q in (2, 4, 8, 16):
        tables = _l0_tables(_ext_scan(2, q.bit_length() - 1, 6))
        gram = tables.form.gram.copy()
        gram[0, 1] ^= 1
        patch(tables, "form", fastscan.ChunkForm(gram, tables.order))


def _flipped_audit_modulus_bit(patch):
    # bit 1 of the modulus that the count's audit kernel reduces by: its
    # squarings leave the big field, and an audited y does not come back to
    # itself after the six conjugates (the sweep and the form still agree)
    for q in (2, 4, 8):
        ops = sigma._clmul_ops(_ext_scan(2, q.bit_length() - 1, 6).ext.big)
        patch(ops, "f", ops.f ^ np.uint64(2))


def _form_total_plus_one(patch):
    # the form's total one point high: N - 1 is then 0 mod q no more
    real = cubic._form_total
    patch(cubic, "_form_total", lambda frame: real(frame) + 1)


def _flipped_form_coefficient(patch):
    # bit 0 of c_24: C gains v_2^2 v_4, which moves the form's total at every
    # q from 2 to 32 (by 2, 12, -8, 16, -32); the form no longer vanishes on
    # the F_{q^3}-line, except at q = 4, where its total no longer matches
    # the sweep's count
    real = cubic._form_coefficients

    def flipped(frame):
        coeffs = real(frame)
        coeffs[1][3] ^= 1
        return coeffs

    patch(cubic, "_form_coefficients", flipped)


def _flipped_k_product(patch):
    # bit 0 of K's product 1 * 1 in the form's table, which then reads 0:
    # every product of 1 with 1 the form takes goes wrong, the square of a
    # coordinate 1 among them, so C no longer vanishes on the F_{q^3}-line,
    # except at q = 2, where its total no longer matches the sweep's count
    real = cubic._k_products

    def flipped(ext):
        mul = real(ext)
        mul[(1 << ext.base_deg) | 1] ^= 1
        return mul

    patch(cubic, "_k_products", flipped)


_OFF_LINE = "cubic form does not vanish on the F_{q^3}-line"
_CUBIC_ZERO = "an element of F_{q^3} has Tr(y^3) != 0"

SURFACE_PLANTS = {
    "sweep-product-modulus-bit": (
        _flipped_product_modulus_bit,
        dict.fromkeys((2, 4, 8, 16), _CUBIC_ZERO)),
    "sweep-gram-entry": (
        _flipped_gram_entry, dict.fromkeys((2, 4, 8, 16), _CUBIC_ZERO)),
    "audit-kernel-modulus-bit": (
        _flipped_audit_modulus_bit,
        dict.fromkeys((2, 4, 8), "an audited y is not fixed by x -> x^(q^n)")),
    "cubic-form-coefficient": (
        _flipped_form_coefficient,
        {2: _OFF_LINE, 4: "class count and element count disagree",
         8: _OFF_LINE, 16: _OFF_LINE}),
    "cubic-form-k-product": (
        _flipped_k_product,
        {2: "class count and element count disagree", 4: _OFF_LINE,
         8: _OFF_LINE, 16: _OFF_LINE}),
    "form-total-plus-one": (
        _form_total_plus_one, dict.fromkeys(
            (2, 4, 8, 16), "q does not divide N - 1 for the surface count N")),
}


@pytest.mark.parametrize("name", SURFACE_PLANTS)
def test_surface_check_fails_on_a_plant(monkeypatch, name):
    plant, errors = SURFACE_PLANTS[name]
    plant(monkeypatch.setattr)
    for q, error in errors.items():
        result = checks.check_surface(q)
        assert result.outcome == "fail", q
        assert result.witness == {"error": error}


def test_form_plant_fails_at_16(monkeypatch):
    # at q = 16 the form is paired with the L_0 sweep alone
    plant, _ = SURFACE_PLANTS["cubic-form-coefficient"]
    plant(monkeypatch.setattr)
    result = checks.check_surface(16)
    assert result.outcome == "fail"
    assert result.witness == {"error": _OFF_LINE}


def test_surface_plants_fail_under_optimize():
    # every plant in the one `python -O` run of test_planted at each q it
    # lists, after an unplanted pass, with the same errors
    from test_planted import assert_plants_fail_under_optimize
    assert_plants_fail_under_optimize("check_surface")
