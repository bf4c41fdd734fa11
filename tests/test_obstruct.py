"""Invariant-plane obstruction: eigen-decomposition, power sums, plane
enumeration, and the brute-force subspace sweep."""


import numpy as np
import pytest

from joubert2 import checks, obstruct
from joubert2.errors import BudgetError, CheckFailed, DomainError
from joubert2.ffield import DEFAULT_LIMIT, make_field
from joubert2.obstruct import (PowerSumVariety, apply_perm, block_indicators,
                               brute_force_oracle, build_group,
                               choose_char_field, count_2planes,
                               eigen_decomposition, eigenline_powersum,
                               find_order_p, invariant_planes, no_plane_in_x)

PARAMS = [(3, 1), (5, 1), (7, 1), (3, 2)]

def _setup(p, m):
    g = build_group(p, m)
    return g, choose_char_field(p)


class TestGroup:
    def test_generator_counts_and_sizes(self):
        for p, m in PARAMS:
            g = build_group(p, m)
            assert g.n == 2 * p**m
            assert len(g.gens) == 2 * m
            assert g.block_size == p**m

    def test_generators_are_permutations(self):
        g = build_group(3, 2)
        for perm in g.gens:
            assert sorted(perm) == list(range(g.n))

    def test_blocks_never_mix(self):
        g = build_group(5, 1)
        for perm in g.gens:
            assert all(perm[i] < 5 for i in range(5))
            assert all(perm[i] >= 5 for i in range(5, 10))

    def test_rejects_non_odd_prime(self):
        for p in (2, 4, 6, 9, 15):
            with pytest.raises(DomainError):
                build_group(p, 1)

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            build_group(3, 0)

    def test_budget_guard(self):
        with pytest.raises(BudgetError) as exc:
            build_group(3, 20, budget=10**6)
        assert (exc.value.needed, exc.value.budget) == (3**20, 10**6)

    def test_pullback_is_compatible_with_composition(self):
        g = build_group(3, 2)
        vec = tuple(range(g.n))
        for a in g.gens:
            for b in g.gens:
                ab = obstruct._compose(a, b)
                assert apply_perm(ab, vec) == apply_perm(
                    b, apply_perm(a, vec))


class TestCharField:
    def test_minimal_fields(self):
        # d is the multiplicative order of 2 mod p
        assert choose_char_field(3).order == 4
        assert choose_char_field(5).order == 16
        assert choose_char_field(7).order == 8
        assert choose_char_field(11).order == 1024

    def test_contains_pth_roots(self):
        for p in (3, 5, 7, 11, 13):
            E = choose_char_field(p)
            assert (E.order - 1) % p == 0
            assert E.order > p

    def test_rejects_two_and_composites(self):
        for p in (2, 6, 8):
            with pytest.raises(DomainError):
                choose_char_field(p)

    def test_order_p_element(self):
        E = make_field(2, 2)
        w = find_order_p(E, 3)
        assert w == 2
        assert E.pow_val(w, 3) == 1 and w != 1
        E16 = make_field(2, 4)
        w5 = find_order_p(E16, 5)
        assert E16.pow_val(w5, 5) == 1
        # minimality in packed-value order
        assert all(E16.pow_val(v, 5) != 1 for v in range(2, w5))

    def test_no_order_p_element(self):
        with pytest.raises(DomainError):
            find_order_p(make_field(2, 3), 3)  # 7 not divisible by 3


class TestEigenLines:
    def test_line_count_and_support(self):
        for p, m in PARAMS:
            g, E = _setup(p, m)
            lines = eigen_decomposition(g, E)
            assert len(lines) == g.n
            for line in lines:
                lo = (line.block - 1) * g.block_size
                hi = lo + g.block_size
                assert all(v != 0 for v in line.vector[lo:hi])
                assert all(v == 0 for i, v in enumerate(line.vector)
                           if not lo <= i < hi)

    def test_trivial_character_gives_indicator(self):
        g, E = _setup(3, 1)
        lines = eigen_decomposition(g, E)
        u1, u2 = block_indicators(g)
        flat = [l for l in lines if not any(l.chi)]
        assert len(flat) == 2
        assert {l.vector for l in flat} == {u1, u2}

    def test_characters_are_distinct(self):
        g, E = _setup(3, 2)
        lines = eigen_decomposition(g, E)
        assert len({(l.block, l.chi) for l in lines}) == len(lines)

    def test_powersum_is_one_everywhere(self):
        for p, m in PARAMS:
            g, E = _setup(p, m)
            for line in eigen_decomposition(g, E):
                assert eigenline_powersum(line, E, p) == 1

    def test_powersum_matches_raw_arithmetic(self):
        g, E = _setup(5, 1)
        line = eigen_decomposition(g, E)[3]
        acc = 0
        for v in line.vector:
            term = 1
            for _ in range(5):
                term = E.mul_val(term, v)
            acc ^= term  # char 2: addition is xor of packed values
        assert acc == eigenline_powersum(line, E, 5)

    def test_field_without_roots_rejected(self):
        g = build_group(3, 1)
        with pytest.raises(DomainError):
            eigen_decomposition(g, make_field(2, 3))


class TestInvariantPlanes:
    def test_counts_against_closed_formula(self):
        expected = {}
        for p, m in PARAMS:
            g, E = _setup(p, m)
            k = 2 * p**m - 2
            expected[(p, m)] = k * (k - 1) // 2 + k * (E.order + 1) + 1
            assert len(invariant_planes(g, E)) == expected[(p, m)]
        assert expected == {(3, 1): 27, (5, 1): 165, (7, 1): 175,
                            (3, 2): 201}

    def test_bases_are_canonical_and_distinct(self):
        from joubert2.gflinalg import rref_vals
        g, E = _setup(3, 1)
        planes = invariant_planes(g, E)
        assert len({pl.basis for pl in planes}) == len(planes)
        for pl in planes:
            assert rref_vals([list(r) for r in pl.basis], E) == pl.basis

    def test_stability_under_every_generator(self):
        g, E = _setup(3, 2)
        for pl in invariant_planes(g, E)[:40]:
            for perm in g.gens:
                for row in pl.basis:
                    assert obstruct._span_contains(
                        pl.basis, apply_perm(perm, row), E)

    def test_non_invariant_plane_detected(self):
        g, E = _setup(3, 1)
        e0 = (1, 0, 0, 0, 0, 0)
        e1 = (0, 1, 0, 0, 0, 0)
        pl = obstruct._plane(E, e0, e1, "test")
        with pytest.raises(CheckFailed, match="not G-stable"):
            obstruct._verify_invariant(g, E, pl)


class TestExclusion:
    def test_no_plane_in_variety_all_params(self):
        for p, m in PARAMS:
            g, E = _setup(p, m)
            ok, wits, note = no_plane_in_x(g, E)
            assert ok
            assert len(wits) == len(invariant_planes(g, E))
            assert "degree <= p" in note

    def test_witnesses_replay(self):
        g, E = _setup(3, 1)
        _, wits, _ = no_plane_in_x(g, E)
        for w in wits:
            lam, mu = w.coeffs
            r0, r1 = w.plane.basis
            vec = tuple(E.add_val(E.mul_val(lam, a), E.mul_val(mu, b))
                        for a, b in zip(r0, r1))
            assert vec == w.vector
            acc = 0
            for v in vec:
                acc = E.add_val(acc, E.pow_val(v, w.equation))
            assert acc != 0
            assert 1 <= w.equation <= 3

    def test_variety_membership_helper(self):
        E = make_field(2, 2)
        X = PowerSumVariety(field=E, p=3)
        assert X.violation((0,) * 6) is None
        assert X.violation((1,) * 6) is None  # n even, char 2
        assert X.violation((1, 0, 0, 0, 0, 0)) == 1

    def test_small_field_guard(self):
        g = build_group(3, 1)
        with pytest.raises(DomainError):
            no_plane_in_x(g, make_field(2, 1))

    def test_all_ones_shifts_stay_inside(self):
        # the line through (1,...,1) can be added to any variety member
        g, E = _setup(3, 1)
        X = PowerSumVariety(field=E, p=3)
        members = []
        for code in range(E.order**g.n):
            vec = []
            c = code
            for _ in range(g.n):
                vec.append(c % E.order)
                c //= E.order
            if X.violation(tuple(vec)) is None:
                members.append(tuple(vec))
        assert (1,) * g.n in members
        assert len(members) > 1
        for v in members:
            for lam in range(E.order):
                for mu in range(E.order):
                    shifted = tuple(
                        E.add_val(E.mul_val(lam, a), mu) for a in v)
                    assert X.violation(shifted) is None


class TestBruteForce:
    def test_subspace_count_small_oracle(self):
        # every 2-dim subspace of GF(2)^3, counted by span dedup
        E = make_field(2, 1)
        spans = set()
        vecs = [tuple((c >> i) & 1 for i in range(3)) for c in range(1, 8)]
        for a in vecs:
            for b in vecs:
                if a == b:
                    continue
                span = frozenset(
                    tuple(x ^ y for x, y in zip(
                        tuple(s * ai for ai in a),
                        tuple(t * bi for bi in b)))
                    for s in range(2) for t in range(2))
                if len(span) == 4:
                    spans.add(span)
        assert len(spans) == count_2planes(3, 2) == 7

    def test_gaussian_binomial_values(self):
        assert count_2planes(6, 4) == 93093
        assert count_2planes(2, 4) == 1
        assert count_2planes(4, 2) == 35

    def test_matches_structured_enumeration(self):
        g, E = _setup(3, 1)
        excluded, found = brute_force_oracle(g, E)
        assert excluded
        assert len(found) == 27
        structured = {pl.basis for pl in invariant_planes(g, E)}
        assert {pl.basis for pl in found} == structured

    def test_budget_guard(self):
        g = build_group(5, 1)
        with pytest.raises(BudgetError) as exc:
            brute_force_oracle(g, choose_char_field(5))
        assert exc.value.needed == count_2planes(10, 16)
        assert exc.value.budget == DEFAULT_LIMIT

    def test_invariance_filter_agrees_with_generic_check(self):
        # the sweep's vector mask, one column per plane: it accepts every
        # structured plane and rejects the plane (e1, e2)
        g, E = _setup(3, 1)
        mul = obstruct._product_table(E)
        hits = 0
        for pl in invariant_planes(g, E):
            r0, r1 = pl.basis
            j1 = next(i for i, x in enumerate(r0) if x)
            j2 = next(i for i, x in enumerate(r1) if x)
            rows = np.array(pl.basis, dtype=np.uint8)[:, :, None]
            assert obstruct._invariant_mask(
                g, mul, rows[0], rows[1], j1, j2).tolist() == [True]
            hits += 1
        assert hits == 27
        e = np.eye(g.n, dtype=np.uint8)[:, :, None]
        assert obstruct._invariant_mask(
            g, mul, e[0], e[1], 0, 1).tolist() == [False]

    def test_pivot_rows_fill_the_free_entries_in_order(self):
        # assignment a puts its base-q digits into the free entries, those
        # of the first row first, in column order
        # pivots (1, 3) of GF(4)^6 leave 3 + 2 free entries
        row1, row2 = obstruct._pivot_rows(6, 4, 1, 3, 0, 4**5)
        a = 4**5 - 1 - 2 * 4**3  # digits 3 3 3 1 3, low first
        assert row1[:, a].tolist() == [0, 1, 3, 0, 3, 3]
        assert row2[:, a].tolist() == [0, 0, 0, 1, 1, 3]
        assert obstruct._pivot_rows(6, 4, 1, 3, 5, 9)[0].shape == (6, 4)

    def test_sweep_needs_characteristic_2(self):
        g = build_group(3, 1)
        with pytest.raises(CheckFailed, match="GF"):
            brute_force_oracle(g, make_field(3, 2))


# Plants for the brute-force sweep: each takes a setattr
# (monkeypatch.setattr) and breaks one part of it.

def _corrupt_product_entry(patch):
    # the product 2 * 3 = 1 in GF(4), read as 0
    real = obstruct._product_table

    def planted(field):
        table = real(field)
        table[2, 3] ^= 1
        return table

    patch(obstruct, "_product_table", planted)


def _skipped_assignment(patch):
    # pivot pair (0, 1) stops one assignment short
    real = obstruct._pivot_rows

    def planted(n, q, j1, j2, lo, hi):
        row1, row2 = real(n, q, j1, j2, lo, hi)
        if (j1, j2) == (0, 1) and hi == q ** (2 * n - 4):
            return row1[:, :-1], row2[:, :-1]
        return row1, row2

    patch(obstruct, "_pivot_rows", planted)


BRUTE_PLANTS = {
    "product-table-entry": (
        _corrupt_product_entry,
        "brute-force planes differ from the structured list"),
    "skipped-assignment": (
        _skipped_assignment, "sweep count differs from the subspace count"),
}


@pytest.mark.parametrize("name", BRUTE_PLANTS)
def test_brute_check_fails_on_a_plant(monkeypatch, name):
    plant, error = BRUTE_PLANTS[name]
    plant(monkeypatch.setattr)
    result = checks.check_obstruction_brute(3, 1)
    assert result.outcome == "fail"
    assert result.witness == {"error": error}


def test_brute_plants_fail_under_optimize():
    # every plant in the one `python -O` run of test_planted at
    # (p, m) = (3, 1), after an unplanted pass, with the same errors
    from test_planted import assert_plants_fail_under_optimize
    assert_plants_fail_under_optimize("check_obstruction_brute")
