#!/usr/bin/env python3
"""Census of real-rank verdicts for random binary forms of one degree.

Samples forms from three families (random integer coordinates, sums of two
real d-th powers, sums of conjugate d-th powers), classifies each with the
Hankel/discriminant route, cross-checks the tensor-certificate route, and
prints the verdict histogram.  For d = 4 it also checks each stratum label
against the family drawn: a sum of two real fourth powers of Hankel rank two
is ++0, and a conjugate pair of Hankel rank two is cpx.  Every disagreement
is reported and makes the exit status 1; there should be none.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter
from fractions import Fraction

from realrank2 import binary_forms as bf
from realrank2 import certify as ce
from realrank2 import tensors as tn
from realrank2.tableaux import secant_point


# the quartic stratum of each family whose Hankel matrix has rank two
FAMILY_STRATA = {"real pair": bf.STRATUM_PSD_PAIR, "conjugate pair": bf.STRATUM_CONJ}


def conjugate_coords(d: int, alpha, beta) -> list[Fraction]:
    def cmul(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])
    coords = []
    for j in range(d + 1):
        left = (Fraction(1), Fraction(0))
        for _ in range(d - j):
            left = cmul(left, alpha)
        for _ in range(j):
            left = cmul(left, beta)
        coords.append(2 * left[0])
    return coords


def sample_form(cfg: argparse.Namespace, rng: random.Random) -> tuple[str, bf.BinaryForm]:
    family = ("integer", "real pair", "conjugate pair")[rng.randrange(3)]
    if family == "integer":
        coords = [Fraction(rng.randint(-cfg.bound, cfg.bound))
                  for _ in range(cfg.degree + 1)]
    elif family == "real pair":
        a = [Fraction(rng.randint(-cfg.bound, cfg.bound)) for _ in range(2)]
        b = [Fraction(rng.randint(-cfg.bound, cfg.bound)) for _ in range(2)]
        coords = secant_point(a, b, cfg.degree)
    else:
        alpha = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        beta = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        coords = conjugate_coords(cfg.degree, alpha, beta)
    return family, bf.BinaryForm(cfg.degree, coords)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=4)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--bound", type=int, default=9,
                        help="coefficients are drawn from [-bound, bound]")
    parser.add_argument("--seed", type=int, default=1729)
    cfg = parser.parse_args()
    rng = random.Random(cfg.seed)
    census: Counter[tuple[str, str]] = Counter()
    strata: Counter[str] = Counter()
    disagreements = 0
    for _ in range(cfg.samples):
        family, form = sample_form(cfg, rng)
        verdict = bf.classify_binary_form(form)
        census[(family, verdict.verdict.value)] += 1
        if verdict.strata is not None:
            strata[verdict.strata] += 1
        tensor_verdict = ce.certify_border_rank2(tn.sym_to_tensor(form)).verdict
        if tensor_verdict != verdict.verdict:
            disagreements += 1
            print(f"DISAGREEMENT on {form.coords}: "
                  f"{verdict.verdict.value} vs {tensor_verdict.value}")
        expected = FAMILY_STRATA.get(family) if cfg.degree == 4 and verdict.hankel_rank == 2 else None
        if expected is not None and verdict.strata != expected:
            disagreements += 1
            print(f"DISAGREEMENT on {form.coords}: {family} labelled {verdict.strata}, not {expected}")

    print(f"degree {cfg.degree}, {cfg.samples} forms, seed {cfg.seed}\n")
    width = max(len(v) for _, v in census) if census else 10
    for family in ("integer", "real pair", "conjugate pair"):
        rows = sorted((v, n) for (f, v), n in census.items() if f == family)
        total = sum(n for _, n in rows)
        print(f"{family} ({total}):")
        for verdict, n in rows:
            print(f"  {verdict:<{width}} {n:>6}")
    if strata:
        print("quartic strata:", dict(sorted(strata.items())))
    print(f"\ndisagreements: {disagreements}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
