"""Vector kernels against scalar arithmetic and the shift-and-xor reference:
the tower product at every even degree, the window maps, the build-time
table checks, and the Frobenius and trace tables of every registry
extension."""

from types import SimpleNamespace

import numpy as np
import pytest

from joubert2 import checks, fastscan, ffield, jsearch
from joubert2.ascurve import curve_census
from joubert2.errors import CheckFailed, DomainError
from joubert2.fastscan import (CHUNK, ChunkForm, ChunkMap, ClmulOps, ExtScan,
                               Gf2Scan, LinearMap)
from joubert2.ffield import make_ext, make_field
from joubert2.jsearch import count_joubert_generators


@pytest.mark.parametrize("m", [30, 32])
def test_mul_matches_scalar_at_wide_degrees(m):
    field = make_field(2, m, limit=2**m)
    ops = Gf2Scan(field)
    rng = np.random.default_rng(m)
    a = rng.integers(0, 2**m, size=1000, dtype=np.uint64)
    b = rng.integers(0, 2**m, size=1000, dtype=np.uint64)
    a[0] = b[0] = 2**m - 1  # the widest carry-less product
    got = ops.mul(a, b).tolist()
    assert got == [field.mul_val(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert ops.square(a).tolist() == [field.mul_val(x, x) for x in a.tolist()]


def test_mul_all_pairs_gf64():
    field = make_field(2, 6)
    ops = Gf2Scan(field)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(64), np.arange(64)))
    assert ops.mul(a, b).tolist() == [field.mul_val(x, y) for x, y
                                      in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("m,size", [
    (12, 2**16), (18, 2**16), (24, 2**16),
    (2, 500), (14, 500), (4, 500), (16, 500), (28, 500)])
def test_mul_seeded_pairs_match_scalar_and_reference(m, size):
    field = make_field(2, m, limit=2**m)
    ops = Gf2Scan(field)
    rng = np.random.default_rng(100 + m)
    a = rng.integers(0, 2**m, size=size, dtype=np.uint64)
    b = rng.integers(0, 2**m, size=size, dtype=np.uint64)
    top = 2**m - 1
    a[:4], b[:4] = (0, top, 0, top), (top, 0, 0, top)
    ref = ClmulOps(field).mul
    got = ops.mul(a, b)
    assert got.dtype == np.uint32
    assert np.array_equal(got, ref(a, b))
    assert got.tolist() == [field.mul_val(x, y) for x, y
                            in zip(a.tolist(), b.tolist())]
    assert np.array_equal(ops.cube(a), ref(a, ref(a, a)))


def test_long_inputs_in_place():
    # longer than one chunk of scratch, and written over the input
    scan = ExtScan(make_ext(2, 4, 6))
    ops, ref = scan.ops, ClmulOps(scan.ext.big).mul
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2**24, size=fastscan.CHUNK + 1000, dtype=np.uint32)
    b = rng.integers(0, 2**24, size=a.size, dtype=np.uint32)
    a2 = ref(a, a)
    for kernel, want in ((lambda x, out: ops.mul(x, b, out=out), ref(a, b)),
                         (ops.square, a2),
                         (ops.cube, ref(a, a2))):
        buf = a.copy()
        assert kernel(buf, out=buf) is buf
        assert np.array_equal(buf, want)


def test_window_map_with_partial_last_window():
    # 18 input bits: a full 12-bit window and a 6-bit one
    rng = np.random.default_rng(18)
    images = rng.integers(0, 2**18, size=18).tolist()
    lm = LinearMap(images)
    assert [t.size for t in lm.tables] == [4096, 64]
    v = np.concatenate([np.arange(64) << 12, (np.arange(64) << 12) | 0xFFF,
                        rng.integers(0, 2**18, size=4000)])

    def naive(x):
        acc = 0
        for j, img in enumerate(images):
            if x >> j & 1:
                acc ^= img
        return acc

    want = [naive(x) for x in v.tolist()]
    assert lm(v.astype(np.uint32)).tolist() == want
    assert lm(v.astype(np.uint64)).tolist() == want
    ext = make_ext(2, 3, 6)
    scan = ExtScan(ext)
    vals = v.tolist()
    assert scan.trace(v).tolist() == [ext.trace_val(x) for x in vals]
    assert scan.frob(v).tolist() == [ext.frob_val(x) for x in vals]
    assert scan.ops.square(v).tolist() == [ext.big.mul_val(x, x)
                                           for x in vals]


def test_corrupted_exp_entry_raises(monkeypatch):
    real = fastscan._exp_walk

    def corrupted(times, n):
        powers = real(times, n)
        powers[5] ^= 1
        return powers

    monkeypatch.setattr(fastscan, "_exp_walk", corrupted)
    for m in (12, 24):  # the subfield exp walks of GF(2^6) and GF(2^12)
        with pytest.raises(fastscan.TableError):
            Gf2Scan(make_field(2, m))


def test_exp_table_is_sized_for_the_product(monkeypatch):
    # a product sums two logs and log c: exp holds 9N + 1 entries (36,856
    # for K = GF(2^12)), and the sample's 0 operands read its zero tail,
    # so a tail that is not zero fails the build
    assert Gf2Scan(make_field(2, 24))._tower.exp.size == 9 * 4095 + 1
    real = fastscan._log_exp

    def corrupted(times, h, terms):
        log, exp = real(times, h, terms)
        exp[log[0]:] = 1
        return log, exp

    monkeypatch.setattr(fastscan, "_log_exp", corrupted)
    for m in (2, 12, 24):
        with pytest.raises(fastscan.TableError, match="disagrees"):
            Gf2Scan(make_field(2, m, limit=2**m))


def test_corrupted_tower_map_raises(monkeypatch):
    real = fastscan._invert

    def corrupted(images):
        inv = real(images)
        inv[3] ^= 1 << 20
        return inv

    monkeypatch.setattr(fastscan, "_invert", corrupted)
    with pytest.raises(fastscan.TableError):
        Gf2Scan(make_field(2, 24))


def test_flipped_reference_modulus_bit_raises(monkeypatch):
    # a reference reducing by the modulus with bit 1 flipped: the square
    # table it builds and the tower product it checks (set up by the scalar
    # _mulmod) disagree with it, so the build raises before any sweep
    class Flipped(ClmulOps):
        def __init__(self, field):
            super().__init__(field)
            self.f ^= np.uint64(2)

    monkeypatch.setattr(fastscan, "ClmulOps", Flipped)
    for m in (2, 12, 24):
        with pytest.raises(fastscan.TableError):
            Gf2Scan(make_field(2, m, limit=2**m))


def test_scans_independent_of_thread_count():
    count = [count_joubert_generators(8, threads=t) for t in (1, 2)]
    assert count[0] == count[1]
    assert count[0].count == 4032
    # the curve census takes threads and sweeps nothing
    assert curve_census(16, threads=1) == curve_census(16, threads=2)


def test_run_chunked_caps_its_workers(monkeypatch):
    # a pool that records its size and maps serially, so no thread starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(fastscan, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(fastscan.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    span = fastscan.run_chunked
    want = [(lo, lo + 10) for lo in range(0, 100, 10)]
    assert span(100, lambda lo, hi: (lo, hi), 10, 100000) == want
    assert span(100, lambda lo, hi: (lo, hi), 10, 2) == want
    assert span(20, lambda lo, hi: (lo, hi), 10, 8) == want[:2]
    assert span(100, lambda lo, hi: (lo, hi), 10, 1) == want
    monkeypatch.delattr(fastscan.os, "sched_getaffinity")
    monkeypatch.setattr(fastscan.os, "cpu_count", lambda: 4)
    assert span(100, lambda lo, hi: (lo, hi), 10, 100000) == want
    # CPUs, threads, ranges, CPUs from os.cpu_count; one thread runs inline
    assert sizes == [3, 2, 2, 4]


def test_degree_beyond_headroom_rejected():
    with pytest.raises(DomainError):
        Gf2Scan(make_field(2, 33, limit=2**33))


def test_clmul_ops_headroom():
    # m + 1 <= 64 bits: m = 63 agrees with the shift-and-xor reference on
    # plain ints, m = 64 and odd p are refused; stub fields, none built
    f63 = (1 << 63) | 0b11  # t^63 + t + 1
    ops = ClmulOps(SimpleNamespace(p=2, m=63, modulus=[1, 1] + [0] * 61 + [1]))
    a = [0, 1, (1 << 63) - 1, 0x5DEECE66D12345 << 7, 3 << 61]
    b = [(1 << 63) - 1, 7, (1 << 63) - 1, 0x2545F4914F6CDD1D >> 1, 1 << 62]
    assert ops.mul(a, b).tolist() == [fastscan._mulmod(x, y, f63, 63)
                                      for x, y in zip(a, b)]
    for p, m in ((2, 64), (3, 4)):
        with pytest.raises(DomainError):
            ClmulOps(SimpleNamespace(p=p, m=m, modulus=[1] * (m + 1)))


def test_odd_degrees_rejected():
    # no quadratic tower, hence no product kernel; 33 is past uint32 too
    for m in (1, 3, 15, 31, 33):
        with pytest.raises(DomainError):
            Gf2Scan(make_field(2, m, limit=2**m))


@pytest.mark.parametrize("where", ["at-one", "everywhere"])
def test_trace_square_fails_on_a_trace_off_by_one(monkeypatch, where):
    # bit 0 flipped at 1, which squaring fixes, or at every value: the
    # identity Tr(z^2) = Tr(z)^2 survives both, the scalar trace does not
    real = ExtScan.trace

    def planted(self, v, out=None):
        hit = v == 1 if where == "at-one" else np.ones(v.shape, dtype=bool)
        res = real(self, v, out=out)
        res[hit] ^= 1
        return res

    monkeypatch.setattr(ExtScan, "trace", planted)
    result = checks.check_trace_square()
    assert result.outcome == "fail"
    assert result.witness == {
        "error": "vector trace differs from the scalar trace"}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ext_tables_match_scalar(k):
    ext = make_ext(2, k, 6)
    scan = ExtScan(ext)
    rng = np.random.default_rng(k)
    v = rng.integers(0, ext.big.order, size=300, dtype=np.uint64)
    vals = v.tolist()
    assert scan.trace(v).tolist() == [ext.trace_val(x) for x in vals]
    cur = v
    for i in range(1, ext.n):
        cur = scan.frob(cur)
        assert cur.tolist() == [ext.frob_iter_val(x, i) for x in vals]
    assert scan.ops.square(v).tolist() == [ext.big.mul_val(x, x)
                                           for x in vals]


def test_vector_tables_need_no_scalar_arithmetic(monkeypatch):
    # the vector kernels of every registry scan are built from the modulus
    # alone: with the scalar table builds and the scalar products, sums and
    # powers of every backend made to raise, fresh kernels still build
    exts = [make_ext(2, k, 6) for k in (1, 2, 3, 4)]
    fields = [make_field(2, m) for m in (12, 18)]

    def boom(*args, **kwargs):
        raise AssertionError("scalar arithmetic in a vector table build")

    monkeypatch.setattr(ffield, "_log_tables", boom)
    monkeypatch.setattr(ffield.ExtDesc, "_build_linear", boom)
    for backend in (ffield.FieldDesc, ffield._Char2, ffield._PrimeField,
                    ffield._TableField, ffield._ClmulField,
                    ffield._DigitField):
        for name in ("mul_val", "add_val", "pow_val"):
            if name in vars(backend):
                monkeypatch.setattr(backend, name, boom)
    with pytest.raises(AssertionError):
        exts[0].big.mul_val(2, 2)
    for ext in exts:
        jsearch._l0_tables(ExtScan(ext))
    for field in fields:
        Gf2Scan(field)


@pytest.mark.parametrize("bits,total,whole_rows", [
    (18, 3 * CHUNK + 1000, False),  # a partial last chunk
    (20, 4 * CHUNK, True),
    (10, 1000, False),  # order below CHUNK: one short chunk
    (12, 4096, True)])
def test_chunk_map_matches_the_window_gather(bits, total, whole_rows):
    rng = np.random.default_rng(bits)
    # a 24-bit map of rank at most 6, so that each chunk holds many zeros
    basis = rng.integers(0, 2**24, size=6).tolist()
    masks = rng.integers(0, 64, size=bits).tolist()
    lm = LinearMap(LinearMap(basis).scalar(mk) for mk in masks)
    cm = ChunkMap(lm, total)
    starts = sorted({0, (total // CHUNK // 2) * CHUNK,
                     (total - 1) // CHUNK * CHUNK})
    # the last range is whole rows of the low table, or part of one
    assert ((total - starts[-1]) % cm.low.size == 0) == whole_rows
    for lo in starts:
        hi = min(lo + CHUNK, total)
        vals = np.arange(lo, hi, dtype=np.uint32)
        want = lm(vals)
        assert np.array_equal(cm.zeros(lo, hi), want == 0)
        assert np.array_equal(cm(lo, hi), want)
        got, offsets = cm(lo, hi), (0, 1, (hi - lo) // 2, hi - lo - 1)
        assert [int(got[i]) for i in offsets] == [int(want[i])
                                                  for i in offsets]
    with pytest.raises(CheckFailed, match="not aligned"):
        cm(starts[-1] + 1, total)
    with pytest.raises(CheckFailed, match="not aligned"):
        cm.zeros(0, CHUNK + 1)
    if total > 4097:  # more than one row, not whole rows
        with pytest.raises(CheckFailed, match="not aligned"):
            cm(0, 4097)


@pytest.mark.parametrize("bits,total", [
    (18, 3 * CHUNK + 1000),  # a partial last chunk
    (20, 4 * CHUNK),
    (10, 1000)])  # order below CHUNK: one short chunk
def test_chunk_form_matches_its_gram(bits, total):
    # a random Gram matrix, lower triangle included, which the form must
    # not read: every value of three chunks against the Gram's evaluator
    rng = np.random.default_rng(bits)
    gram = rng.integers(0, 2**24, size=(bits, bits), dtype=np.uint32)
    form = ChunkForm(gram, total)
    starts = sorted({0, (total // CHUNK // 2) * CHUNK,
                     (total - 1) // CHUNK * CHUNK})
    for lo in starts:
        hi = min(lo + CHUNK, total)
        index = np.arange(lo, hi, dtype=np.uint64)
        want = fastscan._form_values(
            np.triu(gram), index[:, None] >> np.arange(bits, dtype=np.uint64)
            & np.uint64(1))
        assert np.array_equal(form(lo, hi), want)
    with pytest.raises(CheckFailed, match="not aligned"):
        form(starts[-1] + 1, total)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_l0_tables_match_the_canonical_maps(k):
    # every index of the sweep is a distinct trace-zero element, and the
    # subfield tests find F_{q^3}, F_{q^2}
    scan = ExtScan(make_ext(2, k, 6))
    tables = jsearch._l0_tables(scan)
    assert tables.order == 2 ** (5 * k)
    vals = tables.canonical(np.arange(tables.order, dtype=np.uint32))
    assert np.unique(vals).size == tables.order
    assert not np.any(scan.trace(vals))
    for lo in range(0, tables.order, 5 * CHUNK):  # chunks 0, 5 and 10
        hi = min(lo + CHUNK, tables.order)
        v = vals[lo:hi]
        v2 = scan.frob(scan.frob(v))
        tests = tables.tests
        assert np.array_equal(tests.cubic.zeros(lo, hi), scan.frob(v2) == v)
        assert np.array_equal(tests.quadratic.zeros(lo, hi), v2 == v)


def test_l0_gram_of_gf2_30_matches_the_tower():
    # q = 32, over a tower on K = GF(2^15): the L_0 form of the Gram matrix
    # at 500 random indices of its 2^25 against Tr(y^3) by Gf2Scan.cube
    scan = ExtScan(make_ext(2, 5, 6, limit=2**30))
    assert scan.ops._tower.h == 15
    tables = jsearch._L0Tables(scan)
    rng = np.random.default_rng(30)
    index = rng.integers(0, tables.order, size=500, dtype=np.uint64)
    bits = index[:, None] >> np.arange(25, dtype=np.uint64) & np.uint64(1)
    assert np.array_equal(
        fastscan._form_values(tables.form.gram, bits),
        scan.trace(scan.ops.cube(tables.canonical(index))))
