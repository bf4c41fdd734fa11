"""Print the census tables behind the headline counts: qualifying sextics
per base field, surface classes, and curve fiber splits, with timings.

Usage:
    python scripts/census_tables.py --max-k 3
"""

import argparse
import time

from joubert2.ascurve import bound_inequality, curve_census
from joubert2.cubic import surface_census
from joubert2.errors import require
from joubert2.jsearch import (count_joubert_generators,
                              enumerate_joubert_polys)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-k", type=int, default=3,
                    help="largest exponent k for q = 2^k (default 3)")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    qs = [2**k for k in range(1, args.max_k + 1)]

    print("qualifying sextics and generators")
    print(f"{'q':>4} {'polys':>7} {'generators':>11} {'sec':>7}")
    for q in qs:
        t0 = time.perf_counter()
        polys = enumerate_joubert_polys(q)
        count = count_joubert_generators(q, threads=args.threads).count
        require(count == 6 * len(polys), "generator count is not 6 per sextic")
        print(f"{q:>4} {len(polys):>7} {count:>11} "
              f"{time.perf_counter() - t0:>7.2f}")

    print("\nsurface classes (trace-zero projective quotient)")
    print(f"{'q':>4} {'total':>7} {'on line':>8} {'generator':>10} "
          f"{'floor':>7} {'sec':>7}")
    for q in qs:
        t0 = time.perf_counter()
        c = surface_census(q, threads=args.threads)
        print(f"{q:>4} {c.total:>7} {c.on_line:>8} "
              f"{c.generator_points:>10} {c.manin_floor:>7} "
              f"{time.perf_counter() - t0:>7.2f}")

    print("\ncurve fibers (u^q - u = x^(2q+1) + x^(q+2))")
    print(f"{'q':>4} {'affine':>8} {'good':>8} {'bad':>8} "
          f"{'weil window':>17} {'bound':>6} {'sec':>7}")
    for q in qs:
        t0 = time.perf_counter()
        c = curve_census(q, threads=args.threads)
        window = f"[{c.weil_low}, {c.weil_high}]"
        print(f"{q:>4} {c.n_affine:>8} {c.good_points:>8} "
              f"{c.bad_points:>8} {window:>17} "
              f"{str(bound_inequality(q)):>6} "
              f"{time.perf_counter() - t0:>7.2f}")


if __name__ == "__main__":
    main()
