"""Vector kernels against scalar arithmetic at the edge of uint64 headroom."""

import numpy as np
import pytest

from joubert2.errors import DomainError
from joubert2.fastscan import Gf2Scan
from joubert2.ffield import make_field


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
