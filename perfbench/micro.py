"""Layer micro-benchmarks on operands drawn from the workload seed.

Scalar operations report ns or us per call, vector kernels ns per element
of a 2^16-element array (one scan chunk).  Each figure is the median over
several repeats of a pass over the same seeded operands.  Fields are used
the way the workloads use them: GF(8) and GF(9) with their multiplication
tables built, as `enumerate_joubert_polys` builds them, the others without.
`span_cost` measures what one traced span adds to a call, from which the
traced run estimates the tracing overhead.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from joubert2 import fastscan, fpoly, jsearch, sigma
from joubert2.ffield import FElt, make_ext, make_field

from tracing import Tracer

_ARRAY = 1 << 16


def _per_call(fn, items, repeats: int = 5, min_s: float = 0.02) -> float:
    """Median seconds per call of fn(*item) over passes through items."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            for item in items:
                fn(*item)
        if time.perf_counter() - t0 >= min_s:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            for item in items:
                fn(*item)
        samples.append((time.perf_counter() - t0) / (loops * len(items)))
    return statistics.median(samples)


def scalar(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    fields = {"gf2_12": make_field(2, 12), "gf2_24": make_field(2, 24),
              "gf3_5": make_field(3, 5), "gf5_4": make_field(5, 4),
              "gf5_6": make_field(5, 6), "gf8": make_field(2, 3),
              "gf9": make_field(3, 2)}
    fields["gf8"].build_tables()
    fields["gf9"].build_tables()

    def pairs(f, n=256):
        return [(rng.randrange(f.order), rng.randrange(f.order))
                for _ in range(n)]

    def elts(ext, n):
        return [(FElt(ext.big, rng.randrange(ext.big.order)), ext)
                for _ in range(n)]

    out = {}
    for name in ("gf2_12", "gf2_24", "gf3_5", "gf5_4", "gf5_6", "gf9"):
        f = fields[name]
        out[f"ffield.mul_ns.{name}"] = _per_call(f.mul_val, pairs(f)) * 1e9
    for name in ("gf9", "gf5_4"):
        f = fields[name]
        out[f"ffield.add_ns.{name}"] = _per_call(f.add_val, pairs(f)) * 1e9
    e2_24 = make_ext(2, 4, 6)
    e5_6 = make_ext(5, 1, 6)
    vals = [(rng.randrange(e2_24.big.order),) for _ in range(128)]
    out["ffield.frob_ns.gf2_24"] = _per_call(e2_24.frob_val, vals) * 1e9
    out["ffield.trace_ns.gf2_24"] = _per_call(e2_24.trace_val, vals) * 1e9
    vals = [(rng.randrange(e5_6.big.order),) for _ in range(64)]
    out["ffield.trace_ns.gf5_6"] = _per_call(e5_6.trace_val, vals) * 1e9

    for name in ("gf8", "gf9"):
        f = fields[name]
        polys = [(fpoly.UPoly(f, [rng.randrange(f.order) for _ in range(3)]
                              + [0, rng.randrange(f.order), 0, 1]),)
                 for _ in range(16)]
        out[f"fpoly.is_irreducible_us.{name}"] = (
            _per_call(fpoly.is_irreducible, polys, repeats=3) * 1e6)
    e2_6 = make_ext(2, 1, 6)
    e5_4 = make_ext(5, 1, 4)
    out["fpoly.char_poly_us.gf2_6"] = (
        _per_call(fpoly.char_poly, elts(e2_6, 32)) * 1e6)
    out["fpoly.char_poly_det_us.gf2_6"] = (
        _per_call(fpoly.char_poly_det, elts(e2_6, 4), repeats=3) * 1e6)
    out["fpoly.min_poly_us.gf2_24"] = (
        _per_call(fpoly.min_poly, elts(e2_24, 16)) * 1e6)
    out["sigma.sigma_profile_us.gf5_4"] = (
        _per_call(sigma.sigma_profile, elts(e5_4, 16)) * 1e6)
    out["sigma.sigma_profile_us.gf2_24"] = (
        _per_call(sigma.sigma_profile, elts(e2_24, 16)) * 1e6)
    out["sigma.is_joubert_us.gf2_24"] = (
        _per_call(sigma.is_joubert, elts(e2_24, 16)) * 1e6)
    return out


def _kernel_ns(fn, *arrays, repeats: int = 7) -> float:
    """Median ns per element of one kernel call on 2^16-element arrays."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*arrays)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / _ARRAY * 1e9


def vector(seed: int) -> dict[str, float]:
    gen = np.random.default_rng(seed)

    def arr(m):
        return gen.integers(0, 1 << m, size=_ARRAY, dtype=np.uint64)

    ext = make_ext(2, 4, 6)
    scan = jsearch._ext_scan(2, 4, 6)
    a, b = arr(24), arr(24)
    out = {"fastscan.mul_ns_per_elt.m24": _kernel_ns(scan.ops.mul, a, b),
           "fastscan.square_ns_per_elt.m24": _kernel_ns(scan.ops.square, a),
           "fastscan.trace_ns_per_elt.m24": _kernel_ns(scan.trace, a),
           "fastscan.frob_ns_per_elt.m24": _kernel_ns(scan.frob, a)}
    for m in (12, 18):
        ops = fastscan.Gf2Scan(make_field(2, m))
        out[f"fastscan.mul_ns_per_elt.m{m}"] = _kernel_ns(ops.mul, arr(m),
                                                         arr(m))
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        fastscan.ExtScan(ext)
        builds.append(time.perf_counter() - t0)
    out["fastscan.extscan_build_s.m24"] = statistics.median(builds)
    out.update(chunked(scan, gen))
    return out


def chunked(scan, gen, threads: int = 2, chunks: int = 16) -> dict:
    """Load of run_chunked on a fixed kernel job at the scan workload's
    thread count: Tr(v^3) == 0 over `chunks` seeded 2^16-element chunks,
    the inner step of the surface census.  Each chunk call is a span."""
    vals = gen.integers(0, 1 << 24, size=chunks * _ARRAY, dtype=np.uint64)

    def tally(lo, hi):
        return int(np.count_nonzero(scan.trace(scan.ops.cube(vals[lo:hi]))
                                    == 0))

    tracer = Tracer()
    run = tracer.wrap_run_chunked(fastscan.run_chunked)
    run(len(vals), tally, chunk=_ARRAY, threads=threads)
    s = tracer.summary()
    return {"fastscan.run_chunked.busy_s":
            s["trace.fastscan.run_chunked.busy_s"],
            "fastscan.run_chunked.parallel_eff":
            s["trace.fastscan.run_chunked.parallel_eff"]}


def span_cost() -> dict[str, float]:
    """ns one span adds to a call: a traced no-op minus a plain one."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    calls = [()] * 256
    return {"trace.span_ns": (_per_call(traced, calls)
                              - _per_call(noop, calls)) * 1e9}
