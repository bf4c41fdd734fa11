import numpy as np
import pytest

from joubert2 import (BudgetError, DomainError, checks, cubic, fastscan,
                      iter_elements, jsearch, make_field)
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


SURFACE_PLANTS = {
    "projective-repeated-rep": (
        _repeated_generator_rep,
        dict.fromkeys((2, 4, 8), "class count and element count disagree")),
    "sweep-tower-exp-entry": (
        _flipped_exp_entry,
        {2: "is_joubert disagrees on kept element 20",
         4: "is_joubert disagrees on kept element 2",
         8: "class count and element count disagree"}),
}


@pytest.mark.parametrize("name", SURFACE_PLANTS)
def test_surface_check_fails_on_a_plant(monkeypatch, name):
    plant, errors = SURFACE_PLANTS[name]
    plant(monkeypatch.setattr)
    for q, error in errors.items():
        result = checks.check_surface(q)
        assert result.outcome == "fail", q
        assert result.witness == {"error": error}


def test_surface_plants_fail_under_optimize():
    # every plant in the one `python -O` run of test_planted at q = 2, 4, 8,
    # after an unplanted pass, with the same errors
    from test_planted import assert_plants_fail_under_optimize
    assert_plants_fail_under_optimize("check_surface")
