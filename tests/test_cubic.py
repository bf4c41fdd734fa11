import numpy as np
import pytest

from joubert2 import BudgetError, DomainError, iter_elements, make_field
from joubert2.cubic import (
    _l0_basis_vals,
    build_frame,
    surface_census,
)
from joubert2.fastscan import LinearMap
from joubert2.ffield import DEFAULT_LIMIT
from joubert2.jsearch import count_joubert_generators


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
    fr = build_frame(q)
    ext = fr.ext
    big = ext.big
    k_vals = ext.k_elements()
    l0 = LinearMap(_l0_basis_vals(fr))
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


def test_census_thread_independent():
    a = surface_census(4, threads=1)
    b = surface_census(4, threads=3)
    assert (a.total, a.on_line, a.affine_zero_count) == (
        b.total, b.on_line, b.affine_zero_count)


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
