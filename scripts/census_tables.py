"""Print the census tables behind the headline counts: qualifying sextics
per base field, surface classes, and curve fiber splits, with timings.
A q whose scan exceeds the budget gets a `skip` row.  Each curve row's
three counts are required to equal `counts_from_surface` of its surface
census: q^2 |S|, q^2 times the generator count, and q^5.

Usage:
    python scripts/census_tables.py --max-k 3 [--budget N]
"""

import argparse
import functools
import time

from joubert2.ascurve import (bound_inequality, counts_from_surface,
                              curve_census)
from joubert2.cli import (BUDGET_ENV, _int, _positive, _require_positive,
                          _resolve_budget)
from joubert2.cubic import surface_census
from joubert2.errors import BudgetError, require
from joubert2.jsearch import _require_vector_q, enumerate_joubert_polys


def _require_max_k(k: int) -> None:
    """k >= 1, and q = 2^k a q that the vector kernels take."""
    _require_positive(k)
    _require_vector_q(2**k)


def table(title: str, header: str, qs: list[int], row) -> None:
    """One table: row(q) gives the cells after q, timed."""
    print(f"\n{title}\n{'q':>4} {header} {'sec':>7}")
    for q in qs:
        t0 = time.perf_counter()
        try:
            cells = row(q)
        except BudgetError as e:
            print(f"{q:>4} skip: {e}")
            continue
        print(f"{q:>4} {cells} {time.perf_counter() - t0:>7.2f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-k", type=_int(_require_max_k), default=3,
                    help="largest exponent k for q = 2^k that the vector "
                         "kernels take (default 3)")
    ap.add_argument("--threads", type=_positive, default=1)
    ap.add_argument("--budget", type=_positive, default=None,
                    help="largest element count any single scan may touch "
                         f"(default: ${BUDGET_ENV} or 2^28)")
    args = ap.parse_args()
    budget, threads = _resolve_budget(ap, args), args.threads
    qs = [2**k for k in range(1, args.max_k + 1)]

    # one L_0 sweep per q: the surface census owns the generator count
    @functools.lru_cache(maxsize=None)
    def surface_of(q):
        return surface_census(q, budget=budget, threads=threads)

    def generators(q):
        polys = enumerate_joubert_polys(q, budget=budget)
        count = surface_of(q).generator_count
        require(count == 6 * len(polys), "generator count is not 6 per sextic")
        return f"{len(polys):>7} {count:>11}"

    def surface(q):
        c = surface_of(q)
        return (f"{c.total:>7} {c.on_line:>8} {c.generator_points:>10} "
                f"{c.manin_floor:>7}")

    def curve(q):
        c = curve_census(q, budget=budget)
        s = surface_of(q)
        require(counts_from_surface(q, s.affine_zero_count, s.generator_count)
                == (c.n_affine, c.good_points, c.bad_points),
                "curve counts differ from the surface census")
        window = f"[{c.weil_low}, {c.weil_high}]"
        return (f"{c.n_affine:>8} {c.good_points:>8} {c.bad_points:>8} "
                f"{window:>17} {str(bound_inequality(q)):>6}")

    table("qualifying sextics and generators",
          f"{'polys':>7} {'generators':>11}", qs, generators)
    table("surface classes (trace-zero projective quotient)",
          f"{'total':>7} {'on line':>8} {'generator':>10} {'floor':>7}",
          qs, surface)
    table("curve fibers (u^q - u = x^(2q+1) + x^(q+2))",
          f"{'affine':>8} {'good':>8} {'bad':>8} {'weil window':>17} "
          f"{'bound':>6}", qs, curve)


if __name__ == "__main__":
    main()
