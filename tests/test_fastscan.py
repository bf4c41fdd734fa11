"""Vector kernels against scalar arithmetic: at the edge of uint64 headroom,
and the Frobenius and trace tables of every registry extension."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from joubert2.errors import DomainError
from joubert2.fastscan import ExtScan, Gf2Scan
from joubert2.ffield import make_ext, make_field

ROOT = Path(__file__).resolve().parents[1]


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


def test_degree_beyond_headroom_rejected():
    with pytest.raises(DomainError):
        Gf2Scan(make_field(2, 33, limit=2**33))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ext_tables_match_scalar(k):
    ext = make_ext(2, k, 6)
    scan = ExtScan(ext)
    rng = np.random.default_rng(k)
    v = rng.integers(0, ext.big.order, size=300, dtype=np.uint64)
    vals = v.tolist()
    assert scan.trace(v).tolist() == [ext.trace_val(x) for x in vals]
    for i in range(1, ext.n):
        assert scan.frob(v, i).tolist() == [ext.frob_iter_val(x, i)
                                            for x in vals]
    assert scan.ops.square(v).tolist() == [ext.big.mul_val(x, x)
                                           for x in vals]


def test_registry_setup_builds_no_scalar_tables():
    # the benchmark's registry set-up builds every field, extension and
    # vector kernel; the vector tables must not build any scalar ones
    code = (
        "import workloads\n"
        "from joubert2.ffield import _TableField, _UnbuiltTableField\n"
        "from joubert2.ffield import make_field\n"
        "workloads.setup('registry', {})\n"
        "fields = [make_field(p, m) for p, m in workloads.REGISTRY_FIELDS]\n"
        "tabled = [f for f in fields if isinstance(f, _TableField)]\n"
        "print(len(tabled), [f for f in tabled\n"
        "                    if not isinstance(f, _UnbuiltTableField)])\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "12 []"
