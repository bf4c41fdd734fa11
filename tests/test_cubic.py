import itertools
import random

import numpy as np
import pytest

from joubert2 import (BudgetError, DomainError, checks, cubic, fastscan,
                      iter_elements, jsearch, make_field, sigma)
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
    assert fr.lift((0, 0, 0, 0)) == 0


def test_lift_lands_in_trace_zero_exhaustive_q4():
    fr = build_frame(4)
    kv = fr.ext.k_elements()
    for idx in range(4**4):
        r = idx
        coords = []
        for _ in range(4):
            coords.append(kv[r % 4])
            r //= 4
        assert fr.ext.trace_val(fr.lift(coords)) == 0


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
    # scan over the q^5 elements of L_0, and no Gf2Scan cube
    real_run, real_cube = fastscan.run_chunked, fastscan.Gf2Scan.cube
    totals, cubes = [], []

    def run_chunked(total, *args, **kw):
        totals.append(total)
        return real_run(total, *args, **kw)

    def cube(self, *args, **kw):
        cubes.append(self)
        return real_cube(self, *args, **kw)

    for module in (fastscan, jsearch, cubic, checks):
        if getattr(module, "run_chunked", None) is real_run:
            monkeypatch.setattr(module, "run_chunked", run_chunked)
    monkeypatch.setattr(fastscan.Gf2Scan, "cube", cube)
    assert checks.check_surface(4).outcome == "pass"
    assert totals == [4**5]
    assert cubes == []


def _form_at(frame, coords) -> list[int]:
    # C at each point of coords (tuples of four K-indices), as K-indices
    ext = frame.ext
    v = [np.array(col, dtype=np.uint64) for col in zip(*coords)]
    return cubic._form_values(cubic._form_coefficients(frame),
                              cubic._k_products(ext), ext.base_deg,
                              v).tolist()


def _trace_of_cube(frame, coords) -> int:
    # the scalar oracle k_index(Tr(lift(v)^3)) on GF(q^6)
    ext = frame.ext
    big = ext.big
    k_vals = ext.k_elements()
    y = frame.lift([k_vals[i] for i in coords])
    return ext.k_index(ext.trace_val(big.mul_val(big.mul_val(y, y), y)))


@pytest.mark.parametrize("q", [2, 4])
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


def test_projective_route_stops_at_16(monkeypatch):
    # check_surface(8) iterates the scalar route's points once; at q = 16
    # the cubic form and the L_0 sweep are the only routes
    real = cubic._projective_reps
    calls = []

    def spy(q):
        calls.append(q)
        yield from real(q)

    monkeypatch.setattr(cubic, "_projective_reps", spy)
    assert checks.check_surface(16).outcome == "pass"
    assert calls == []
    assert checks.check_surface(8).outcome == "pass"
    assert calls == [8]


def test_form_total_is_checked_by_the_sweep_at_16(monkeypatch):
    # with no projective route, a form total one point high is caught by
    # the L_0 sweep's element count
    real = cubic._form_total
    monkeypatch.setattr(cubic, "_form_total", lambda frame: real(frame) + 1)
    with pytest.raises(CheckFailed,
                       match="^class count and element count disagree$"):
        surface_census(16)


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


def test_frame_lift_validates_arity():
    fr = build_frame(2)
    with pytest.raises(DomainError):
        fr.lift((1, 0, 0))


# Plants for the surface check, one per route: each takes a setattr
# (monkeypatch.setattr) and breaks that route for q = 2, 4 and 8, and maps
# each q to the error the check must report.

# the first representative of a generator point, whose lift y has
# Tr(y^3) = 0 outside F_{q^3}
_FIRST_GENERATOR_REP = {2: (1, 0, 0, 0), 4: (1, 1, 0, 0), 8: (1, 4, 0, 0)}


def _repeated_generator_rep(patch):
    # the projective route meets that representative twice, so it counts
    # one generator point too many
    reps = cubic._projective_reps

    def twice(q):
        for rep in reps(q):
            yield from [rep] * (1 + (rep == _FIRST_GENERATOR_REP[q]))

    patch(cubic, "_projective_reps", twice)


def _first_swept_exp_entry(q: int) -> tuple[fastscan.Tower, int]:
    # the exp entry at 3 log y1 + log(1 + c) of the first swept y outside
    # F_{q^3}, the tower's subfield, so y1 != 0 (entries 12, 189 and 803 at
    # q = 2, 4 and 8): the sweep's cube_hi reads it for every swept y with
    # that y1, and it holds a unit, not the zero tail
    tables = _l0_tables(_ext_scan(2, q.bit_length() - 1, 6))
    tower = tables.view.tower
    log_y1 = tower.logs(tables.sweep(0, tables.sweep.size))[1]
    zero = int(tower.log[0])  # the log of 0, above every unit's log
    return tower, 3 * int(log_y1[np.argmax(log_y1 < zero)]) + tower.c1_log


def _flipped_exp_entry(patch):
    # bit 0 of that entry, after the tower view's sample check: Tr(y^3)
    # changes by Tr_K(1) = 1 for every swept y that reads it, which moves
    # the count; the scalar audit meets one of them at q = 2 and 4, and at
    # q = 8 only the projective route's count disagrees
    for q in (2, 4, 8):
        tower, entry = _first_swept_exp_entry(q)
        exp = tower.exp.copy()
        exp[entry] ^= 1
        patch(tower, "exp", exp)


def _flipped_audit_modulus_bit(patch):
    # bit 1 of the modulus that the count's audit kernel reduces by: its
    # squarings leave the big field, and an audited y does not come back to
    # itself after the six conjugates (the sweep and the projective route
    # still agree)
    for q in (2, 4, 8):
        ops = sigma._clmul_ops(_ext_scan(2, q.bit_length() - 1, 6).ext.big)
        patch(ops, "f", ops.f ^ np.uint64(2))


def _flipped_form_coefficient(patch):
    # bit 0 of c_24: C gains v_2^2 v_4, which moves the form's total at every
    # q from 2 to 32 (by 2, 12, -8, 16, -32); the form no longer vanishes on
    # the F_{q^3}-line, except at q = 4, where only the projective route
    # disagrees
    real = cubic._form_coefficients

    def flipped(frame):
        coeffs = real(frame)
        coeffs[1][3] ^= 1
        return coeffs

    patch(cubic, "_form_coefficients", flipped)


_OFF_LINE = "cubic form does not vanish on the F_{q^3}-line"

SURFACE_PLANTS = {
    "projective-repeated-rep": (
        _repeated_generator_rep,
        dict.fromkeys((2, 4, 8), "class count and element count disagree")),
    "sweep-tower-exp-entry": (
        _flipped_exp_entry,
        {2: "is_joubert disagrees on kept element 20",
         4: "is_joubert disagrees on kept element 2",
         8: "class count and element count disagree"}),
    "audit-kernel-modulus-bit": (
        _flipped_audit_modulus_bit,
        dict.fromkeys((2, 4, 8), "an audited y is not fixed by x -> x^(q^n)")),
    "cubic-form-coefficient": (
        _flipped_form_coefficient,
        {2: _OFF_LINE, 4: "cubic form and projective route disagree",
         8: _OFF_LINE}),
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
    # every plant in the one `python -O` run of test_planted at q = 2, 4, 8,
    # after an unplanted pass, with the same errors
    from test_planted import assert_plants_fail_under_optimize
    assert_plants_fail_under_optimize("check_surface")
