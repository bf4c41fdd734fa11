"""Fiber census of the additive cover: counts, Weil interval, bound
inequality, and the links back to generator search and the surface scan."""

import functools
import math
import operator
import tracemalloc
from itertools import product

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from joubert2 import ascurve, checks, cubic, fastscan, ffield, jsearch
from joubert2.ascurve import (bound_inequality, counts_from_surface,
                              curve_census, genus_of, trace_identity_check,
                              weil_window)
from joubert2.cubic import surface_census
from joubert2.errors import BudgetError, CheckFailed, DomainError
from joubert2.ffield import (FElt, in_subfield, make_ext, rel_frobenius,
                             rel_trace)
from joubert2.jsearch import count_joubert_generators, enumerate_joubert_polys
from test_cubic import _OFF_LINE, _flipped_form_coefficient

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
        # threads is accepted and unread: the census sweeps nothing
        a = curve_census(16, threads=1)
        b = curve_census(16, threads=3)
        for key in ("n_affine", "n_smooth", "good_points", "bad_points"):
            assert getattr(a, key) == getattr(b, key)

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_census_runs_no_sweep(self, monkeypatch, q):
        # with the scan built, the census calls no Gf2Scan product or cube,
        # no run_chunked and no scalar ffield product, Frobenius, trace or
        # K-index: its route is its own ClmulOps, the scan's maps and F_2
        # algebra
        scan = ascurve._ext_scan(2, q.bit_length() - 1, 6)

        def refuse(*args, **kwargs):
            raise AssertionError("the census left its route")

        for name in ("mul", "cube"):
            monkeypatch.setattr(fastscan.Gf2Scan, name, refuse)
        for module in (fastscan, jsearch):
            monkeypatch.setattr(module, "run_chunked", refuse)
        for cls in vars(ffield).values():
            if isinstance(cls, type) and "mul_val" in vars(cls):
                monkeypatch.setattr(cls, "mul_val", refuse)
        for name in ("frob_val", "trace_val", "k_index"):
            monkeypatch.setattr(ffield.ExtDesc, name, refuse)
        with pytest.raises(AssertionError):
            scan.ext.trace_val(1)
        c = curve_census(q)
        assert {key: getattr(c, key) for key in PINNED[q]} == PINNED[q]

    def test_budget_and_domain_guards(self):
        with pytest.raises(BudgetError) as exc:
            curve_census(16, budget=10**6)
        assert (exc.value.needed, exc.value.budget) == (16**6, 10**6)
        for q in (3, 6, 7):
            with pytest.raises(DomainError):
                curve_census(q)


class TestTowerCensus:
    """The census against the tower of subfields of F_{q^6} and against the
    census of L_0 that the generator count sweeps."""

    @pytest.mark.parametrize("q,k", [(2, 1), (4, 2), (16, 4)])
    def test_tower_cubes_once_per_gram_and_once_per_audit(self, monkeypatch,
                                                         q, k):
        # the L_0 sweep cubes through Gf2Scan.cube in GF(2^(6k)) once when
        # its Gram matrix is built and once for the audited y, never per
        # chunk (16 chunks at q = 16); its count gives the census's good
        # points
        calls = []
        real = fastscan.Gf2Scan.cube

        def spy(self, *args, **kwargs):
            calls.append(self.m)
            return real(self, *args, **kwargs)

        scan = ascurve._ext_scan(2, k, 6)  # built before the spy
        monkeypatch.setattr(fastscan.Gf2Scan, "cube", spy)
        tables = jsearch._L0Tables(scan)
        assert calls == [6 * k]
        monkeypatch.setattr(jsearch, "_l0_tables", lambda scan: tables)
        calls.clear()
        count = count_joubert_generators(q).count
        assert calls == [6 * k]
        assert curve_census(q).good_points == q * q * count

    @pytest.mark.parametrize("bit", [0, 17])
    def test_flipped_frobenius_bit_fails(self, monkeypatch, bit):
        # one bit of the canonical x -> x^q image that the census reads
        # makes the census fail
        scan = ascurve._ext_scan(2, 3, 6)
        images = list(scan._frob.images)
        images[5] ^= 1 << bit
        monkeypatch.setattr(scan, "_frob", fastscan.LinearMap(images))
        with pytest.raises(CheckFailed):
            curve_census(8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_planted_frobenius_kernel_fails(self, monkeypatch, k):
        # a kernel of x -> (x^q + x)^(q^3) + x^q + x one vector short
        real = ascurve.kernel
        monkeypatch.setattr(ascurve, "kernel",
                            lambda matrix, field: real(matrix, field)[1:])
        with pytest.raises(CheckFailed, match=r"does not have dimension 4k"):
            curve_census(2**k)

    def test_subfield_preimages_match_a_scalar_walk(self):
        # the spans of the census's kernels against every x of F_{q^6} by
        # the scalar Frobenius and subfield test, at q = 2 and 4
        for k in (1, 2):
            scan, q = ascurve._ext_scan(2, k, 6), 2**k
            ext = scan.ext
            for d, dim in ((3, 4 * k), (2, 2 * k)):
                basis = [sum(b << i for i, b in enumerate(row))
                         for row in ascurve._subfield_preimage(scan, d)]
                span = set(fastscan._span(basis).tolist())
                want = {x for x in range(ext.big.order) if in_subfield(
                    FElt(ext.big, ext.frob_val(x) ^ x), ext, d)}
                assert len(basis) == dim and span == want, (q, d)

    def test_form_counts_match_the_census(self):
        # the cubic form's N projective zeros give |S| = q + (q^2 - q) N
        # and (q^2 - q)(N - q - 1) generators, and so all three counts
        for q in (2, 4, 8, 16):
            c = curve_census(q)
            n = cubic._form_total(cubic.build_frame(q))
            assert counts_from_surface(
                q, q + (q * q - q) * n, (q * q - q) * (n - q - 1)) == (
                c.n_affine, c.good_points, c.bad_points), q

    def test_curve_check_counts_by_the_form_once(self, monkeypatch):
        # one form route at every q: no size fork selects another route
        calls = []
        real = cubic._form_total
        monkeypatch.setattr(cubic, "_form_total", lambda frame: (
            calls.append(frame.ext.q) or real(frame)))
        for q in (2, 4, 8, 16):
            assert checks.check_curve(q).outcome == "pass", q
        assert calls == [2, 4, 8, 16]


def _index_bits(x, m):
    return np.asarray(x, np.uint64)[:, None] >> np.arange(
        m, dtype=np.uint64) & np.uint64(1)


def _brute_character_sum(rows, diag):
    # sum of (-1)^Q(x) over all x, with Q(x) from its definition
    n, total = len(rows), 0
    for x in range(1 << n):
        bits = [i for i in range(n) if x >> i & 1]
        qx = sum(diag[i] for i in bits) + sum(
            rows[i] >> j & 1 for a, i in enumerate(bits) for j in bits[a + 1:])
        total += (-1) ** qx
    return total


@st.composite
def _binary_forms(draw):
    n = draw(st.integers(0, 10))
    pairs = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if pairs[i * n + j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


class TestTraceForm:
    @pytest.mark.parametrize("bits,total", [(6, 64), (14, 4096),
                                                (20, 4 * fastscan.CHUNK)])
    def test_form_matches_its_gram(self, bits, total):
        # a random symmetric Gram matrix: Q at 300 points below total, and
        # at every e_i and e_i + e_j, against the form's definition
        rng = np.random.default_rng(bits)
        gram = rng.integers(0, 2**24, size=(bits, bits), dtype=np.uint32)
        gram = np.triu(gram) ^ np.triu(gram, 1).T
        points = rng.integers(0, total, size=300).tolist()
        want = [functools.reduce(operator.xor, (
            int(gram[i, j]) for i in range(bits) for j in range(i, bits)
            if v >> i & v >> j & 1), 0) for v in points]
        got = fastscan._form_values(gram, _index_bits(points, bits))
        assert got.tolist() == want
        pairs = [1 << i | 1 << j for i in range(bits) for j in range(i, bits)]
        got = fastscan._form_values(gram, _index_bits(pairs, bits)).tolist()
        assert got == [gram[i, i] if i == j else gram[i, i] ^ gram[j, j]
                       ^ gram[i, j] for i in range(bits)
                       for j in range(i, bits)]

    @settings(max_examples=200, deadline=None)
    @given(_binary_forms())
    def test_character_sum_matches_brute_force(self, form):
        rows, diag = form
        assert ascurve._character_sum(rows, diag) == _brute_character_sum(
            rows, diag)

    def test_character_sum_reads_radical_and_arf(self):
        # a hyperbolic plane with Arf 1 (x_0^2 + x_0 x_1 + x_1^2), then with
        # a radical line where Q is 0 and where it is 1
        assert ascurve._character_sum([2, 1], [1, 1]) == -2
        assert ascurve._character_sum([2, 1, 0], [1, 1, 0]) == -4
        assert ascurve._character_sum([2, 1, 0], [1, 1, 1]) == 0

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_form_is_the_right_side_trace(self, q):
        # Q(x) = Tr(x^(2q+1) + x^(q+2)) by scalar ffield arithmetic: every x
        # at q = 2, 256 spread x at q = 4, 8 and 16
        scan = ascurve._ext_scan(2, q.bit_length() - 1, 6)
        big = scan.ext.big
        xs = range(big.order) if q == 2 else range(7, big.order,
                                                   big.order // 256)
        got = fastscan._form_values(ascurve._trace_gram(scan),
                                    _index_bits(list(xs), big.m))
        for x, val in zip(xs, got.tolist()):
            e = FElt(big, x)
            assert val == rel_trace(e ** (2 * q + 1) + e ** (q + 2),
                                    scan.ext).val, (q, x)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gram_matches_scalar_products(self, k):
        # every entry, not only those the sample sees through Q: e_i R(e_j)
        # by the scalar shift-and-xor on plain ints, then traced
        scan = ascurve._ext_scan(2, k, 6)
        big = scan.ext.big
        f = sum(c << i for i, c in enumerate(big.modulus))
        e = [1 << i for i in range(big.m)]
        re = ascurve._r_map(scan, np.array(e, dtype=np.uint32)).tolist()
        prod = np.array([[fastscan._mulmod(a, b, f, big.m) for b in re]
                         for a in e], dtype=np.uint32)
        n = len(e)
        want = scan.trace((prod ^ prod.T).ravel()).reshape(n, n)
        np.fill_diagonal(want, scan.trace(prod.diagonal().copy()))
        assert ascurve._trace_gram(scan).tolist() == want.tolist()

    def test_planted_gram_fails_its_build_check(self, monkeypatch):
        # e_2 R(e_3) in the Gram's broadcast product off by a t^b of nonzero
        # trace, so B(e_2, e_3) moves and the sampled Q sees it
        scan = ascurve._ext_scan(2, 2, 6)
        bit = next(b for b in range(12)
                   if scan.trace(np.array([1 << b], dtype=np.uint32))[0])

        class Planted(fastscan.ClmulOps):
            def mul(self, a, b):
                r = super().mul(a, b)
                if r.ndim == 2:
                    r[2, 3] ^= np.uint64(1 << bit)
                return r

        monkeypatch.setattr(ascurve, "ClmulOps", Planted)
        with pytest.raises(fastscan.TableError, match="quadratic form"):
            ascurve._trace_gram(scan)

    def test_census_memory_stays_small(self):
        # one warm census at q = 16 allocates at most 256 KB at its peak,
        # the size of one 2^16-element uint32 scratch array of a sweep
        curve_census(16)
        tracemalloc.start()
        try:
            curve_census(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024


class TestFibers:
    def test_fibers_follow_the_relative_trace_q2(self):
        # u^2 + u = c has 2 roots when the relative trace of c vanishes and
        # none otherwise (additive Hilbert 90), by root enumeration
        ext = make_ext(2, 1, 6)
        f = ext.big
        for cv in range(64):
            direct = sum(1 for uv in range(64)
                         if f.add_val(f.pow_val(uv, 2), uv) == cv)
            assert direct == (2 if rel_trace(FElt(f, cv), ext).val == 0
                              else 0)

    def test_rhs_factored_vs_monomial(self):
        # the certificate's monomial right side against x x^q (x^q + x)
        for k in (1, 2):
            ext = make_ext(2, k, 6)
            for xv in range(ext.big.order):
                x = FElt(ext.big, xv)
                xq = rel_frobenius(x, ext)
                assert ascurve._right_side(ext.big.mul_val, ext.frob_val,
                                           xv) == (x * xq * (xq + x)).val

    def test_rel_frobenius(self):
        ext = make_ext(2, 2, 6)
        x = FElt(ext.big, 7)
        assert rel_frobenius(x, ext) == x**4


class TestIdentityAndBounds:
    def test_trace_identity_exhaustive(self):
        for q in (2, 4, 8):
            assert trace_identity_check(q) == q**6

    def test_trace_identity_is_a_scalar_certificate(self, monkeypatch):
        # the difference of the sides is evaluated at each e_i and e_i + e_j,
        # i <= j, of the m = 6k index bits: first one by one with no vector
        # kernel, then, once ClmulOps is built, as one array with no scalar
        # ffield product, Frobenius or trace
        vector = []

        def guard(real, in_vector):
            def call(*args, **kwargs):
                if bool(vector) != in_vector:
                    raise AssertionError("a certificate left its arithmetic")
                return real(*args, **kwargs)
            return call

        scans = {k: ascurve._ext_scan(2, k, 6) for k in (1, 2, 3, 4)}
        for cls in (fastscan.ExtScan, fastscan.Gf2Scan):
            for name, attr in list(vars(cls).items()):
                if callable(attr):
                    monkeypatch.setattr(cls, name, guard(attr, True))
        for cls, name in ((fastscan.LinearMap, "__call__"),
                          (fastscan.ClmulOps, "mul")):
            monkeypatch.setattr(cls, name, guard(getattr(cls, name), True))
        for cls in vars(ffield).values():
            if isinstance(cls, type) and "mul_val" in vars(cls):
                monkeypatch.setattr(cls, "mul_val", guard(cls.mul_val, False))
        for name in ("frob_val", "trace_val"):
            monkeypatch.setattr(ffield.ExtDesc, name, guard(
                getattr(ffield.ExtDesc, name), False))
        real_ops = ascurve.ClmulOps
        monkeypatch.setattr(ascurve, "ClmulOps", lambda field: (
            vector.append(field) or real_ops(field)))
        seen = {False: [], True: []}
        real = ascurve._right_side

        def spy(mul, frob, v):
            seen[bool(vector)].append(v)
            return real(mul, frob, v)

        monkeypatch.setattr(ascurve, "_right_side", spy)
        for k, points in ((1, 21), (2, 78), (3, 171), (4, 300)):
            vector.clear()
            seen[False].clear()
            seen[True].clear()
            q, m = 2**k, 6 * k
            assert trace_identity_check(q) == q**6
            want = {1 << i | 1 << j for i in range(m) for j in range(i, m)}
            assert len(seen[False]) == points == len(want)
            assert set(seen[False]) == want
            (arr,) = seen[True]
            assert sorted(arr.tolist()) == sorted(want)
            assert vector == [scans[k].ext.big]

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


# Plants for the curve check: each takes a setattr (monkeypatch.setattr),
# breaks one part of it, and maps each q to the error it must report.

def _flipped_gram_entry(patch):
    # the element 1 of K xored into B(e_0, e_1) = B(e_1, e_0), after the
    # Gram's build check: Q(x) moves by x_0 x_1 for every functional s with
    # s(1) = 1
    real = ascurve._trace_gram

    def planted(scan):
        gram = real(scan)
        gram[0, 1] ^= 1
        gram[1, 0] ^= 1
        return gram

    patch(ascurve, "_trace_gram", planted)


def _flipped_frobenius_image(patch):
    # x^q of the index bit 1 off by 1, in the map the census reads for R
    # and for its subfield preimages (the scan's own tables are not rebuilt)
    for k in (1, 2, 3):
        scan = ascurve._ext_scan(2, k, 6)
        images = list(scan._frob.images)
        images[1] ^= 1
        patch(scan, "_frob", fastscan.LinearMap(images))


def _dropped_arf_sign(patch):
    # every character sum taken as +2^((n + w)/2): visible only where some
    # Arf invariant is 1, at q = 4 and 16 (2 of 3 and 10 of 15 functionals)
    # and not at q = 2 and 8, where every one is 0
    real = ascurve._character_sum
    patch(ascurve, "_character_sum", lambda rows, diag: abs(real(rows, diag)))


def _flipped_arf_sign(patch):
    # every character sum with the opposite sign, as from a wrong Arf bit
    real = ascurve._character_sum
    patch(ascurve, "_character_sum", lambda rows, diag: -real(rows, diag))


def _stray_cube_term(vector: bool):
    # x^3 added to one certificate's right side: the difference of the
    # sides becomes Tr(x^3), still a quadratic form, nonzero at some e_i
    # or e_i + e_j; the scalar certificate takes ints, the vector one arrays
    def plant(patch):
        real = ascurve._right_side

        def planted(mul, frob, v):
            out = real(mul, frob, v)
            if isinstance(v, np.ndarray) != vector:
                return out
            return out ^ mul(v, mul(v, v))

        patch(ascurve, "_right_side", planted)

    return plant


_QS = (2, 4, 8)
_COUNTS = "curve counts differ from the cubic form"

CURVE_PLANTS = {
    "arf-gram-entry": (
        _flipped_gram_entry,
        dict.fromkeys(_QS, "Q does not vanish where x^q + x lies in F_{q^3}")),
    "frobenius-image": (
        _flipped_frobenius_image,
        dict.fromkeys(_QS, "Q does not vanish where x^q + x lies in F_{q^3}")),
    "arf-sign": (_dropped_arf_sign, dict.fromkeys((4, 16), _COUNTS)),
    "arf-sign-flipped": (_flipped_arf_sign, dict.fromkeys(_QS, _COUNTS)),
    "certificate-cube-term": (
        _stray_cube_term(False),
        dict.fromkeys(_QS, "Tr identity fails at a polarization point")),
    "vector-certificate-cube-term": (
        _stray_cube_term(True),
        dict.fromkeys(_QS, "Tr identity fails at a polarization point in "
                      "ClmulOps")),
    # the count route: at q = 4 the form still vanishes on the line, and
    # only its total moves
    "cubic-form-coefficient": (
        _flipped_form_coefficient,
        {2: _OFF_LINE, 4: _COUNTS, 8: _OFF_LINE}),
}


@pytest.mark.parametrize("name", CURVE_PLANTS)
def test_curve_checks_fail_on_a_plant(monkeypatch, name):
    plant, errors = CURVE_PLANTS[name]
    plant(monkeypatch.setattr)
    for q, error in errors.items():
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
