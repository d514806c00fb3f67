#!/usr/bin/env python3
"""Dimensions and explicit bases of the quadrics cutting out the tangential
variety inside the secant variety of the degree-d Veronese.

Prints the dimension table (one row per number of variables n, one column
per degree d), then the explicit quadric basis for one chosen (n, d),
and finally spot-checks every basis element by exact evaluation at random
rational tangential points.
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction

from realrank2 import tableaux as tb
from realrank2.multipoly import evaluate, to_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=5)
    parser.add_argument("--dmax", type=int, default=10)
    parser.add_argument("--show-n", type=int, default=2)
    parser.add_argument("--show-d", type=int, default=5)
    parser.add_argument("--spot-checks", type=int, default=25)
    parser.add_argument("--seed", type=int, default=1729)
    cfg = parser.parse_args()
    degrees = range(4, cfg.dmax + 1)
    print("dim of the quadric space (rows n = 2.., columns d = 4..):")
    print("n\\d" + "".join(f"{d:>9}" for d in degrees))
    for n in range(2, cfg.nmax + 1):
        dims = [sum(tb.hook_length_dim(n, d, k) for k in range(4, d + 1, 2))
                for d in degrees]
        print(f"{n:<3}" + "".join(f"{v:>9}" for v in dims))

    n, d = cfg.show_n, cfg.show_d
    basis = tb.quadric_basis(n, d)
    print(f"\nbasis for n={n}, d={d} ({len(basis)} quadrics):")
    for g in basis:
        print(f"  {g.tableau.label()} = {to_text(g.polynomial)}")

    rng = random.Random(cfg.seed)
    names = basis[0].polynomial.variables
    failures = 0
    for _ in range(cfg.spot_checks):
        a = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        point = dict(zip(names, tb.tangential_point(a, b, d)))
        failures += sum(1 for g in basis if evaluate(g.polynomial, point) != 0)
    print(f"\nspot check: {cfg.spot_checks} random tangential points, "
          f"{len(basis) * cfg.spot_checks} exact evaluations, {failures} nonzero")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
