"""Fiber census of the additive cover: counts, Weil interval, bound
inequality, and the links back to generator search and the surface scan."""

import math
from itertools import product

import numpy as np
import pytest

from joubert2 import ascurve, checks, fastscan
from joubert2.ascurve import (bound_inequality, curve_census, fiber_size,
                              genus_of, rhs_value, scalar_counts,
                              trace_identity_check, weil_window)
from joubert2.cubic import surface_census
from joubert2.errors import BudgetError, CheckFailed, DomainError
from joubert2.ffield import (FElt, make_ext, make_field, rel_frobenius,
                             rel_trace)
from joubert2.jsearch import count_joubert_generators, enumerate_joubert_polys

PINNED = {
    2: dict(n_affine=80, n_smooth=81, genus=2, weil_low=33, weil_high=97,
            good_points=48, bad_points=32),
    4: dict(n_affine=3328, n_smooth=3329, genus=12, weil_low=2561,
            weil_high=5633, good_points=2304, bad_points=1024),
    8: dict(n_affine=290816, n_smooth=290817, genus=56, weil_low=204801,
            weil_high=319489, good_points=258048, bad_points=32768),
    16: dict(n_affine=15794176, n_smooth=15794177, genus=240,
             weil_low=14811137, weil_high=18743297, good_points=14745600,
             bad_points=1048576),
}


class TestCensus:
    def test_pinned_counts(self):
        for q, want in PINNED.items():
            c = curve_census(q)
            for key, val in want.items():
                assert getattr(c, key) == val, (q, key)

    def test_structural_invariants(self):
        for q in (2, 4, 8):
            c = curve_census(q)
            assert c.n_affine % q == 0
            assert c.n_smooth == c.n_affine + 1
            assert c.weil_low <= c.n_smooth <= c.weil_high
            assert c.good_points + c.bad_points == c.n_affine
            assert c.bad_points <= q**5
            assert c.good_points >= 1

    def test_bad_points_fill_their_bound(self):
        # the y-preimage of the cubic subextension has full size q^4 here
        for q in (2, 4, 8):
            assert curve_census(q).bad_points == q**5

    def test_direct_double_loop_q2(self):
        ext = make_ext(2, 1, 6)
        f = ext.big
        count = 0
        for xv, uv in product(range(64), repeat=2):
            xq = f.pow_val(xv, 2)
            rhs = f.mul_val(f.mul_val(xv, xq), f.add_val(xq, xv))
            if f.add_val(f.pow_val(uv, 2), uv) == rhs:
                count += 1
        assert count == 80 == curve_census(2).n_affine

    def test_thread_count_never_changes_results(self):
        # q = 16: the sweep of W has 16 chunks (one at q = 8)
        a = curve_census(16, threads=1)
        b = curve_census(16, threads=3)
        for key in ("n_affine", "n_smooth", "good_points", "bad_points"):
            assert getattr(a, key) == getattr(b, key)

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_census_sweeps_a_complement_of_the_base_field(self, monkeypatch,
                                                          q):
        # one run_chunked call over the q^5 x of W, not the q^6 of L
        totals = []
        real = ascurve.run_chunked

        def spy(total, fn, **kwargs):
            totals.append(total)
            return real(total, fn, **kwargs)

        monkeypatch.setattr(ascurve, "run_chunked", spy)
        assert curve_census(q).bad_points == q**5
        assert totals == [q**5]

    def test_budget_and_domain_guards(self):
        with pytest.raises(BudgetError) as exc:
            curve_census(16, budget=10**6)
        assert (exc.value.needed, exc.value.budget) == (16**6, 10**6)
        for q in (3, 6, 7):
            with pytest.raises(DomainError):
                curve_census(q)


class TestTowerCensus:
    def test_tower_path_runs_at_small_q(self, monkeypatch):
        calls = []
        real = fastscan.Tower.cube_hi

        def spy(self, *args, **kwargs):
            calls.append(self.h)
            return real(self, *args, **kwargs)

        for q, k in ((2, 1), (4, 2)):
            scan = ascurve._ext_scan(2, k, 6)
            scan.tower  # built and sample-checked
            monkeypatch.setattr(fastscan.Tower, "cube_hi", spy)
            calls.clear()
            c = curve_census(q)
            assert (c.n_affine, c.bad_points) == (PINNED[q]["n_affine"],
                                                  PINNED[q]["bad_points"])
            assert calls == [3 * k]  # one chunk, in K = GF(2^(3k))

    def test_dropped_cube_term_fails_the_trace_identity(self, monkeypatch):
        # (1 + c) y1^3 planted away from the w-half of y^3, after the tower
        # view's own sample check: the in-scan cross-check must see it
        tower = ascurve._ext_scan(2, 3, 6).tower.tower
        monkeypatch.setattr(tower, "c1_log", int(tower.log[0]))
        with pytest.raises(CheckFailed,
                           match="solvability differs from the trace"):
            curve_census(8)
        result = checks.check_curve(8)
        assert result.outcome == "fail"
        assert result.witness == {
            "error": "solvability differs from the trace identity"}

    @pytest.mark.parametrize("bit", [0, 17])
    def test_flipped_frobenius_bit_fails(self, monkeypatch, bit):
        # one bit of one composed tower-Frobenius image: the view's sample
        # check raises when the view is built, and the census fails when
        # the flip bypasses that check
        real = fastscan._in_tower
        hit = []

        def planted(tower, lm, tower_out=True):
            out = real(tower, lm, tower_out)
            if hit or not tower_out:  # x -> x^q, not the trace
                return out
            hit.append(lm)
            images = list(out.images)
            images[5] ^= 1 << bit
            return fastscan.LinearMap(images)

        monkeypatch.setattr(fastscan, "_in_tower", planted)
        scan = fastscan.ExtScan(make_ext(2, 3, 6))
        with pytest.raises(fastscan.TableError, match="tower view"):
            scan.tower
        assert hit == [scan._frob]
        monkeypatch.undo()
        tables = ascurve._census_tables(ascurve._ext_scan(2, 3, 6))
        images = list(tables.y.map.images)
        images[5] ^= 1 << bit
        monkeypatch.setattr(tables, "y", fastscan.ChunkMap(
            fastscan.LinearMap(images), 8**5))
        with pytest.raises(CheckFailed):
            curve_census(8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_planted_frobenius_kernel_fails(self, monkeypatch, k):
        # a kernel of x^q + x one vector short of F_q
        real = ascurve.kernel
        monkeypatch.setattr(ascurve, "kernel",
                            lambda matrix, field: real(matrix, field)[1:])
        with pytest.raises(CheckFailed, match=r"ker\(x\^q \+ x\) is not F_q"):
            ascurve._CensusTables(ascurve._ext_scan(2, k, 6))

    def test_swept_map_is_one_to_one_onto_trace_zero(self):
        # y = x^q + x on W against the canonical maps: 2^15 distinct y of
        # trace 0 at q = 8, that is all of L_0
        scan = ascurve._ext_scan(2, 3, 6)
        tables = ascurve._census_tables(scan)
        x = tables.basis(np.arange(tables.order, dtype=np.uint32))
        y = scan.frob(x) ^ x
        assert np.array_equal(scan.ops._tower.to_tower(y),
                              tables.y(0, tables.order))
        assert np.unique(y).size == tables.order == 8**5
        assert not np.any(scan.trace(y))

    def test_scalar_route_matches_the_census(self):
        for q in (2, 4):
            c = curve_census(q)
            assert scalar_counts(q) == (c.n_affine, c.bad_points)

    def test_curve_check_fails_on_a_planted_fiber_size(self, monkeypatch):
        # the scalar route of check_curve shares no table with the census
        monkeypatch.setattr(ascurve, "fiber_size", lambda c, ext: ext.q)
        for q in (2, 4):
            result = checks.check_curve(q)
            assert result.outcome == "fail"
            assert result.witness == {
                "error": "scalar fiber count differs from the census"}


class TestTraceForm:
    @pytest.mark.parametrize("bits,total", [(6, 64), (14, 4096),
                                                (20, 4 * fastscan.CHUNK)])
    def test_form_matches_its_gram(self, bits, total):
        # a random symmetric Gram matrix: the chunk evaluation against the
        # scalar one, and the scalar one against the form's definition
        rng = np.random.default_rng(bits)
        gram = rng.integers(0, 2**24, size=(bits, bits), dtype=np.uint32)
        gram = np.triu(gram) ^ np.triu(gram, 1).T
        form = ascurve.QuadraticForm(gram, total)
        assert form.size == min(total, fastscan.CHUNK)
        for i in range(bits):
            assert form.scalar(1 << i) == gram[i, i]
            for j in range(i):
                assert form.scalar(1 << i | 1 << j) == (gram[i, i] ^ gram[j, j]
                                                        ^ gram[i, j])
        for lo in range(0, total, 3 * fastscan.CHUNK):
            got = form(lo, lo + form.size)
            offsets = rng.integers(0, form.size, size=300).tolist()
            assert [int(got[i]) for i in offsets] == [form.scalar(lo + i)
                                                      for i in offsets]
        with pytest.raises(CheckFailed, match="not aligned"):
            form(0, form.size // 2)

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_form_is_the_right_side_trace(self, q):
        # Q(x) = Tr(x^(2q+1) + x^(q+2)) by scalar ffield arithmetic: every x
        # of W at q = 2 and 4, 256 spread indices of its only chunk at q = 8
        # and of chunk 3 at q = 16
        scan = ascurve._ext_scan(2, q.bit_length() - 1, 6)
        tables = ascurve._census_tables(scan)
        lo = 3 * fastscan.CHUNK if q == 16 else 0
        size = tables.form.size
        got = tables.form(lo, lo + size)
        offsets = range(size) if q <= 4 else range(7, size, size // 256)
        for i in offsets:
            x = FElt(scan.ext.big, tables.basis.scalar(lo + i))
            want = rel_trace(x ** (2 * q + 1) + x ** (q + 2), scan.ext)
            assert int(got[i]) == want.val, (q, i)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gram_matches_scalar_products(self, k):
        # every entry, not only those the sample sees through Q: e_i R(e_j)
        # by the scalar shift-and-xor on plain ints, then traced
        scan = ascurve._ext_scan(2, k, 6)
        tables = ascurve._census_tables(scan)
        big = scan.ext.big
        f = sum(c << i for i, c in enumerate(big.modulus))
        e = tables.basis.images
        fx = f5 = scan.frob(np.array(e, dtype=np.uint32))
        for _ in range(4):
            f5 = scan.frob(f5)
        re = scan.ops.square(fx ^ f5).tolist()
        prod = np.array([[fastscan._mulmod(a, b, f, big.m) for b in re]
                         for a in e], dtype=np.uint32)
        n = len(e)
        want = scan.trace((prod ^ prod.T).ravel()).reshape(n, n)
        np.fill_diagonal(want, scan.trace(prod.diagonal().copy()))
        assert tables.form.gram.tolist() == want.tolist()

    def test_planted_gram_fails_its_build_check(self, monkeypatch):
        class Planted(ascurve.QuadraticForm):
            def __init__(self, gram, order):
                gram[2, 3] ^= 1
                gram[3, 2] ^= 1
                super().__init__(gram, order)

        monkeypatch.setattr(ascurve, "QuadraticForm", Planted)
        scan = ascurve._ext_scan(2, 2, 6)
        with pytest.raises(fastscan.TableError, match="quadratic form"):
            ascurve._trace_form(scan, scan.tower.tower.from_tower)

    def test_census_memory_stays_small(self, monkeypatch):
        # the arrays the census caches at q = 16 beyond the scan's own (the
        # tower view and maps, shared with the other sweeps), and its
        # Workspace names: no more than before the form replaced products
        scan = ascurve._ext_scan(2, 4, 6)
        assert _array_bytes(ascurve._census_tables(scan),
                            skip=scan) <= 128 * 1024
        names = set()
        get, arange = fastscan.Workspace.get, fastscan.Workspace.arange
        monkeypatch.setattr(fastscan.Workspace, "get", lambda ws, name, *a:
                            names.add(name) or get(ws, name, *a))
        monkeypatch.setattr(fastscan.Workspace, "arange", lambda ws, name, *a:
                            names.add(name) or arange(ws, name, *a))
        curve_census(8)
        assert names <= {"y", "form", "solvable", "cubic", "quadratic",
                         "p_idx", "p_u", "p_sum0", "p_sum1", "p_sum2", "p_lb",
                         "p_ta", "p_tb", "win0"}, names


def _array_bytes(root, skip) -> int:
    """Bytes of the numpy arrays reachable from root through instance
    attributes, lists, tuples and dicts, leaving out those reachable from
    skip."""
    seen = set()

    def walk(obj):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, dict):
            obj = obj.values()
        elif hasattr(obj, "__dict__"):
            obj = vars(obj).values()
        elif not isinstance(obj, (list, tuple)):
            return 0
        return sum(walk(o) for o in list(obj))

    walk(skip)
    return walk(root)


class TestFibers:
    def test_fiber_size_by_root_enumeration_q2(self):
        ext = make_ext(2, 1, 6)
        f = ext.big
        for cv in range(64):
            direct = sum(1 for uv in range(64)
                         if f.add_val(f.pow_val(uv, 2), uv) == cv)
            assert direct == fiber_size(FElt(f, cv), ext)

    def test_fiber_sizes_sum_to_field_size(self):
        for q, k in ((2, 1), (4, 2)):
            ext = make_ext(2, k, 6)
            total = sum(fiber_size(FElt(ext.big, cv), ext)
                        for cv in range(ext.big.order))
            assert total == q**6

    def test_fiber_size_values(self):
        ext = make_ext(2, 2, 6)
        sizes = {fiber_size(FElt(ext.big, cv), ext) for cv in range(200)}
        assert sizes == {0, 4}

    def test_wrong_field_rejected(self):
        ext = make_ext(2, 1, 6)
        with pytest.raises(DomainError):
            fiber_size(FElt(make_field(2, 2), 1), ext)

    def test_rhs_factored_vs_monomial(self):
        ext = make_ext(2, 1, 6)
        for xv in range(64):
            x = FElt(ext.big, xv)
            monomial = x**5 + x**4  # 2q+1 = 5, q+2 = 4 at q = 2
            assert rhs_value(x, ext) == monomial

    def test_rel_frobenius(self):
        ext = make_ext(2, 2, 6)
        x = FElt(ext.big, 7)
        assert rel_frobenius(x, ext) == x**4


class TestIdentityAndBounds:
    def test_trace_identity_exhaustive(self):
        for q in (2, 4, 8):
            assert trace_identity_check(q) == q**6

    def test_trace_identity_is_a_scalar_certificate(self, monkeypatch):
        # the difference of the sides is evaluated once at each e_i and
        # e_i + e_j, i < j, of the m = 6k index bits, and no vector kernel
        # runs: the census's Q check is the identity's other route
        def refuse(*args, **kwargs):
            raise AssertionError("the certificate called fastscan code")

        for cls in (fastscan.ExtScan, fastscan.Gf2Scan):
            for name, attr in list(vars(cls).items()):
                if callable(attr):
                    monkeypatch.setattr(cls, name, refuse)
        for module in (fastscan, ascurve):
            monkeypatch.setattr(module, "run_chunked", refuse)
            monkeypatch.setattr(module, "ExtScan", refuse)
        monkeypatch.setattr(ascurve, "_ext_scan", refuse)
        seen = []
        real = ascurve._right_side_val

        def spy(ext, v):
            seen.append(v)
            return real(ext, v)

        monkeypatch.setattr(ascurve, "_right_side_val", spy)
        for k, points in ((1, 21), (2, 78), (3, 171), (4, 300)):
            seen.clear()
            q, m = 2**k, 6 * k
            assert trace_identity_check(q) == q**6
            assert len(seen) == points == m * (m + 1) // 2
            assert set(seen) == {1 << i | 1 << j
                                 for i in range(m) for j in range(i, m)}

    def test_genus(self):
        assert [genus_of(q) for q in (2, 4, 8, 16)] == [2, 12, 56, 240]
        for q in (2, 4, 8, 16, 32):
            assert math.gcd(2 * q + 1, q) == 1
            assert genus_of(q) == q * (q - 1)

    def test_weil_window(self):
        assert weil_window(2) == (33, 97)
        for q in (2, 4, 8):
            lo, hi = weil_window(q)
            assert lo == q**6 + 1 - 2 * q * (q - 1) * q**3
            assert hi == q**6 + 1 + 2 * q * (q - 1) * q**3

    def test_bound_inequality_flips_at_four(self):
        assert not bound_inequality(2)
        assert bound_inequality(4)
        assert bound_inequality(8)
        assert bound_inequality(16)

    def test_q2_bound_is_exactly_tight(self):
        lo, _ = weil_window(2)
        assert lo == 1 + 2**5  # 33 on both sides: the inequality just fails

    def test_rejects_odd_characteristic(self):
        with pytest.raises(DomainError):
            bound_inequality(9)
        with pytest.raises(DomainError):
            genus_of(3)


class TestCrossModule:
    def test_good_points_count_generators(self):
        # y = x^q + x is q-to-1 onto the trace-zero hyperplane, and each
        # solvable x carries q fiber points
        for q in (2, 4):
            c = curve_census(q)
            assert c.good_points == q**2 * count_joubert_generators(q).count

    def test_good_points_count_polynomials(self):
        for q in (2, 4, 8):
            c = curve_census(q)
            polys = enumerate_joubert_polys(q)
            assert c.good_points == 6 * q**2 * len(polys)

    def test_affine_count_matches_surface_zero_count(self):
        for q in (2, 4):
            c = curve_census(q)
            s = surface_census(q)
            assert c.n_affine == q**2 * s.affine_zero_count


# Plants for the curve census: each takes a setattr (monkeypatch.setattr)
# and breaks one part of it for q = 2, 4 and 8.

def _first_read_exp_entry(q: int) -> tuple[fastscan.Tower, int]:
    # the exp entry at the log sum log y0 + log y1 + log(y0 + y1) of the
    # first index whose swept y = x^q + x has three nonzero halves (indices
    # 8, 32 and 128, entries 10, 38 and 670 at q = 2, 4 and 8): the census's
    # cube_hi reads it, and it holds a unit, not the zero tail
    tables = ascurve._census_tables(ascurve._ext_scan(2, q.bit_length() - 1,
                                                      6))
    tower = tables.view.tower
    y = tables.y(0, tables.y.size)
    sums = sum(tower.logs(y))
    zero = int(tower.log[0])  # the log of 0, above every sum of unit logs
    return tower, int(sums[np.argmax(sums < zero)])


def _flipped_exp_entry(patch):
    # bit 0 of a subfield exp entry that the census reads, in the table
    # that Gf2Scan's products and the tower view share, after the view's
    # sample check: Tr(y^3) changes by Tr(1) = 1 there, Q(x) does not
    for q in (2, 4, 8):
        tower, entry = _first_read_exp_entry(q)
        exp = tower.exp.copy()
        exp[entry] ^= 1
        patch(tower, "exp", exp)


def _flipped_gram_entry(patch):
    # G[0, 1] = G[1, 0] = B(e_0, e_1) off by 1, after the build check:
    # Q(x) changes by 1 wherever index bits 0 and 1 are both set
    for k in (1, 2, 3):
        tables = ascurve._census_tables(ascurve._ext_scan(2, k, 6))
        gram = tables.form.gram.copy()
        gram[0, 1] ^= 1
        gram[1, 0] ^= 1
        patch(tables, "form", ascurve.QuadraticForm(gram, 2 ** (5 * k)))


def _flipped_w_map_image(patch):
    # bit 0 of the swept y's image of W's first basis vector, after build:
    # y moves by 1, in F_q, which the cross-check cannot see, since
    # Tr((y + 1)^3) = Tr(y^3) when Tr(y) = 0
    for k in (1, 2, 3):
        tables = ascurve._census_tables(ascurve._ext_scan(2, k, 6))
        images = list(tables.y.map.images)
        images[0] ^= 1
        patch(tables, "y", fastscan.ChunkMap(fastscan.LinearMap(images),
                                             tables.order))


def _stray_cube_term(patch):
    # x^3 added to the certificate's right side: the difference of the
    # sides becomes Tr(x^3), still a quadratic form, nonzero at some e_i
    # or e_i + e_j
    real = ascurve._right_side_val

    def planted(ext, v):
        mul = ext.big.mul_val
        return real(ext, v) ^ mul(v, mul(v, v))

    patch(ascurve, "_right_side_val", planted)


CURVE_PLANTS = {
    "tower-exp-entry": (_flipped_exp_entry,
                        "solvability differs from the trace identity"),
    "qform-gram-entry": (_flipped_gram_entry,
                         "solvability differs from the trace identity"),
    "w-map-image": (_flipped_w_map_image,
                    "swept x -> x^q differs from the scalar Frobenius"),
    "certificate-cube-term": (_stray_cube_term,
                              "Tr identity fails at a polarization point"),
}


@pytest.mark.parametrize("name", CURVE_PLANTS)
def test_curve_checks_fail_on_a_plant(monkeypatch, name):
    plant, error = CURVE_PLANTS[name]
    plant(monkeypatch.setattr)
    for q in (2, 4, 8):
        result = checks.check_curve(q)
        assert result.outcome == "fail", q
        assert result.witness == {"error": error}


def test_curve_check_pins_the_q16_witness():
    result = checks.check_curve(16)
    assert result.outcome == "pass"
    assert result.witness == {
        "n_affine": 15794176, "n_smooth": 15794177, "genus": 240,
        "weil_window": [14811137, 18743297], "good_points": 14745600,
        "bad_points": 1048576, "bound_inequality": True,
        "trace_identity_points": 16777216}


def test_curve_plants_fail_under_optimize():
    # every plant in the one `python -O` run of test_planted at q = 2, 4, 8,
    # after an unplanted pass, with the same errors
    from test_planted import assert_plants_fail_under_optimize
    assert_plants_fail_under_optimize("check_curve")
