#!/usr/bin/env python3
"""Walk a line segment through the rank-two region of the monomial quartic.

Classifies u(t) along the segment, reports every crossing of the
tangential and edge sextics with the rank on either side, and prints the
per-segment secant-line census.  The defaults reproduce the published
crossing experiment: two rank changes (one per boundary surface) and two
surface crossings with no rank change.
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

from realrank2 import space_curve as sc


def interval(text: str) -> tuple[Fraction, Fraction]:
    lo, hi = (Fraction(v) for v in text.split(","))
    return lo, hi


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--interval", type=interval, default="0,1", help="t range, e.g. 0,1")
    parser.add_argument("--nsamples", type=int, default=21)
    cfg = parser.parse_args()
    print(f"curve:  monomial quartic (s^4 : s^3 t : s t^3 : t^4)")
    print(f"path:   u(t) = (84-74t : 13+59t : 62-19t : -38-10t), "
          f"t in [{cfg.interval[0]}, {cfg.interval[1]}]")
    start = time.perf_counter()
    report = sc.scan_path(sc.MONOMIAL_QUARTIC, sc.CROSSING_PATH, cfg.interval, cfg.nsamples)
    elapsed = time.perf_counter() - start

    print(f"\ntransitions ({len(report.transitions)}):")
    for tr in report.transitions:
        print(f"  t* = {tr.t_star:.17f}  {tr.kind:<15} rank {tr.rank_before} -> "
              f"{tr.rank_after}  (surface: {tr.surface})")

    print("\nsegment census (real secant lines / with two real curve points):")
    cuts = ([float(cfg.interval[0])] + [tr.t_star for tr in report.transitions]
            + [float(cfg.interval[1])])
    for lo, hi in zip(cuts, cuts[1:]):
        mid = Fraction((lo + hi) / 2).limit_denominator(10 ** 9)
        pc = sc.classify_point(sc.MONOMIAL_QUARTIC, [c0 + c1 * mid for c0, c1 in sc.CROSSING_PATH])
        rank = 2 if pc.label == sc.REAL_RANK_LE_2 else 3
        print(f"  ({lo:.6f}, {hi:.6f}): rank {rank}, "
              f"{pc.real_secants} real / {pc.two_real_point_secants} two-real-point")
    print(f"\n{len(report.samples)} samples classified in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
