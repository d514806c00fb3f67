"""Seeded request streams for the realrank2 benchmark.

A workload is a fixed set of rounds, which a timed run sends again and
again.  The structure of a round (shapes, families, degrees, segment
strata, request order) never depends on the seed; the seed only draws the
numbers inside the inputs.  That keeps the cost of a round nearly the same
from seed to seed, so run-to-run spread measures the program and the
machine rather than the draw.

A job is a generator: it yields `Request`s and receives a `Response` for
each, so a later request can depend on an earlier answer (decompose only
after a rank-two verdict; classify points judged against their segment's
scan).  Every input file is written when the workload is built, which is
part of the benchmark's set-up time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Generator, Sequence

import numpy as np

import oracles as orc


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple[str, ...]
    oracle: Callable[[int, str], orc.Failure | None]


@dataclass(frozen=True)
class Response:
    status: int | None
    stdout: str
    failure: orc.Failure | None


Job = Callable[[], Generator[Request, Response, None]]


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _frac(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(vectors[0])
    for v in vectors[1:]:
        out = np.multiply.outer(out, np.asarray(v))
    return out


def _tangent(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> np.ndarray:
    """sum_m x_1 (x) .. y_m .. (x) x_d, the tensor `tangential_witness` builds."""
    return sum(_outer([ys[k] if k == m else xs[k] for k in range(len(xs))])
               for m in range(len(xs)))


def _shape_label(shape) -> str:
    return "x".join(map(str, shape))


class Workload:
    """Rounds of jobs over generated input files in `workdir`."""

    name = ""
    trace_rounds = 1
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, rounds: int):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.rounds = [self._build_round(r) for r in range(rounds)]

    def round(self, r: int) -> list[Job]:
        return self.rounds[r % len(self.rounds)]

    def jobs(self) -> list[Job]:
        """Every job of every round: one pass of a timed run."""
        return [job for jobs in self.rounds for job in jobs]

    def defect_probe(self) -> list[Job]:
        """Jobs run once, untimed, on inputs of a recorded defect."""
        return []

    def _build_round(self, r: int) -> list[Job]:
        raise NotImplementedError

    def warmup(self) -> list[Job]:
        """Jobs run once before timing: they fill lazy caches and imports."""
        raise NotImplementedError

    def fidelity(self) -> list[tuple[str, ...]]:
        """Cheap requests of every kind, replayed once as a subprocess."""
        raise NotImplementedError

    def inputs(self) -> list[tuple[str, ...]]:
        """Every request argv of every round, in order (used by tests)."""
        out = []
        for jobs in self.rounds:
            for job in jobs:
                gen = job()
                out.append(next(gen).argv)
                gen.close()
        return out


# ------------------------------------------------------------ tensor-float

FLOAT_SHAPES = ((2, 2, 2), (3, 3, 3), (2,) * 5, (4, 4, 4), (6, 6, 6), (4, 4, 4, 4), (2,) * 9)
FLOAT_FAMILIES = ("real", "conjugate", "tangential", "rank-one", "generic")
SCALE_EXPONENTS = tuple(range(-4, 5))
# ROADMAP item 4: real and conjugate pairs scaled by 10^-4 .. 10^-2 certify
# as the boundary.  They are certified once per run outside the timed passes
# (`TensorFloat.defect_probe`), so the timed passes hold no failing request.
DEFECT_EXPONENTS = (-4, -3, -2)
PAIR_EXPONENTS = tuple(k for k in SCALE_EXPONENTS if k not in DEFECT_EXPONENTS)
FLOAT_PAIR_SIGMA = 0.3


def _float_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two factors of one mode whose 2 x n matrix has smallest singular value
    >= FLOAT_PAIR_SIGMA: at scale 1 every pair family is then far from the
    hyperdeterminantal boundary, and only scaling moves it."""
    while True:
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        if np.linalg.svd(np.stack([u, v]), compute_uv=False)[-1] >= FLOAT_PAIR_SIGMA:
            return u, v


def _float_tensor(rng: np.random.Generator, family: str, shape) -> np.ndarray:
    if family == "rank-one":
        return _outer([rng.standard_normal(n) for n in shape])
    if family == "generic":
        return rng.standard_normal(shape)
    pairs = [_float_pair(rng, n) for n in shape]
    if family == "real":
        return _outer([u for u, _ in pairs]) + _outer([v for _, v in pairs])
    if family == "conjugate":
        return 2.0 * _outer([u + 1j * v for u, v in pairs]).real
    return _tangent([u for u, _ in pairs], [v for _, v in pairs])


def _float_job(name: str, path: str, tensor: np.ndarray, family: str, exponent: int) -> Job:
    def job():
        resp = yield Request(f"{name}/certify", ("certify", "--file", path),
                             orc.certify_float(family, exponent))
        if orc.verdict_of(resp) in orc.RANK_TWO_VERDICTS:
            yield Request(f"{name}/decompose", ("decompose", "--file", path),
                          orc.decompose_float(family, tensor))
    return job


class TensorFloat(Workload):
    """certify on float tensors, then decompose on rank-two verdicts.

    Every round holds each (shape, family) pair once, generic 2x2x2 excepted
    (a generic 2x2x2 tensor has border rank two), each scaled by 10^k with k
    rotating over the round, shape and family; real and conjugate pairs
    rotate over PAIR_EXPONENTS, the other families over SCALE_EXPONENTS.
    """

    name = "tensor-float"
    trace_rounds = 2
    expected_spans = ("cli.main", "certify.certify_border_rank2", "hyperdet.all_subhyperdets",
                      "tensors.numeric_rank", "decompose.decompose_rank2")

    def __init__(self, seed: int, workdir: Path, rounds: int = 2):
        self.rng = np.random.default_rng(seed)
        super().__init__(seed, workdir, rounds)

    def _job(self, r: int, si: int, shape, fi: int, family: str) -> Job:
        exponents = PAIR_EXPONENTS if family in ("real", "conjugate") else SCALE_EXPONENTS
        exponent = exponents[(r + si + fi) % len(exponents)]
        tensor = _float_tensor(self.rng, family, shape) * 10.0 ** exponent
        entries = [float(v) for v in tensor.ravel()]
        name = f"r{r}/{family}/{_shape_label(shape)}/1e{exponent:+d}"
        path = _write_json(self.workdir / f"float-r{r}-{si}-{fi}.json",
                           {"shape": list(shape), "entries": entries})
        return _float_job(name, path, np.array(entries).reshape(shape), family, exponent)

    def _build_round(self, r: int) -> list[Job]:
        return [self._job(r, si, shape, fi, family)
                for si, shape in enumerate(FLOAT_SHAPES)
                for fi, family in enumerate(FLOAT_FAMILIES)
                if not (family == "generic" and shape == (2, 2, 2))]

    def defect_probe(self) -> list[Job]:
        """certify once on a real and a conjugate pair of every shape at every
        exponent of DEFECT_EXPONENTS: the inputs of ROADMAP item 4."""
        rng = np.random.default_rng([self.seed, 2])
        jobs = []
        for si, shape in enumerate(FLOAT_SHAPES):
            for family in ("real", "conjugate"):
                base = _float_tensor(rng, family, shape)
                for exponent in DEFECT_EXPONENTS:
                    path = _write_json(self.workdir / f"probe-{si}-{family}{exponent}.json",
                                       {"shape": list(shape),
                                        "entries": [float(v) for v in (base * 10.0 ** exponent).ravel()]})
                    jobs.append(_single_job(f"probe/{family}/{_shape_label(shape)}/1e{exponent:+d}/certify",
                                            ("certify", "--file", path), orc.certify_float(family, exponent)))
        return jobs

    def warmup(self) -> list[Job]:
        rng = np.random.default_rng([self.seed, 1])
        jobs = []
        for si, shape in enumerate(FLOAT_SHAPES):
            tensor = _float_tensor(rng, "real", shape)
            path = _write_json(self.workdir / f"warmup-{si}.json",
                               {"shape": list(shape), "entries": [float(v) for v in tensor.ravel()]})
            jobs.append(_float_job(f"warmup/{_shape_label(shape)}", path, tensor, "real", 0))
        return jobs

    def fidelity(self) -> list[tuple[str, ...]]:
        first = self.workdir / "float-r0-0-0.json", self.workdir / "float-r0-1-1.json"
        generic = self.workdir / "float-r0-2-4.json"
        return [("certify", "--file", str(first[0])), ("decompose", "--file", str(first[0])),
                ("certify", "--file", str(first[1])), ("decompose", "--file", str(first[1])),
                ("certify", "--file", str(generic))]


# ------------------------------------------------------------- exact-forms

FORM_DEGREES = (3, 4, 5, 6)
FORM_FAMILIES = ("random", "real", "conjugate")
EXACT_SHAPES = ((2, 2, 2), (3, 3, 3), (2,) * 5, (4, 4, 4), (2,) * 7, (4, 4, 4, 4))
EXACT_FAMILIES = ("real", "conjugate", "tangential")
POLY_JOBS = (("quadrics", 2, 4), ("quadrics", 2, 5), ("quadrics", 2, 6), ("quadrics", 2, 7),
             ("quadrics", 2, 8), ("quadrics", 3, 4), ("quadrics", 3, 5),
             ("ideal", 3), ("ideal", 4), ("ideal", 5), ("ideal", 6), ("ideal", 7), ("ideal", 8))
# a round holds every polynomial job once, spread over BLOCKS_PER_ROUND blocks
# of forms and exact tensors, so all rounds cost the same
BLOCKS_PER_ROUND = 6


def _gauss_pow(z: tuple[int, int], k: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(k):
        out = (out[0] * z[0] - out[1] * z[1], out[0] * z[1] + out[1] * z[0])
    return out


def form_coords(rng: random.Random, family: str, d: int) -> list[int]:
    """Scaled coordinates x_0..x_d of a binary form from one of three families.

    real: (a.(s,t))^d + (b.(s,t))^d, the coordinates `secant_point` gives;
    conjugate: (alpha s + beta t)^d plus its complex conjugate.
    """
    if family == "random":
        return [rng.randint(-9, 9) for _ in range(d + 1)]
    if family == "real":
        a = [rng.randint(-5, 5) for _ in range(2)]
        b = [rng.randint(-5, 5) for _ in range(2)]
        return [a[0] ** (d - j) * a[1] ** j + b[0] ** (d - j) * b[1] ** j for j in range(d + 1)]
    alpha = (rng.randint(-4, 4), rng.randint(-4, 4))
    beta = (rng.randint(-4, 4), rng.randint(-4, 4))
    out = []
    for j in range(d + 1):
        p, q = _gauss_pow(alpha, d - j), _gauss_pow(beta, j)
        out.append(2 * (p[0] * q[0] - p[1] * q[1]))
    return out


def form_tensor_entries(coords: Sequence[int]) -> list[int]:
    """Row-major entries of the symmetric 2 x .. x 2 tensor of a binary form."""
    d = len(coords) - 1
    return [coords[sum(idx)] for idx in np.ndindex(*(2,) * d)]


def _independent(u: Sequence[int], v: Sequence[int]) -> bool:
    return any(u[i] * v[j] != u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def exact_tensor_entries(rng: random.Random, family: str, shape) -> list[int]:
    """A real, conjugate or tangential pair with small integer factors.

    In every mode the two factors are linearly independent and share a
    nonzero coordinate, so some sub-block hyperdeterminant is nonzero
    (real, conjugate) and no flattening drops to rank one: the exact
    certificate must return the family's verdict.
    """
    pairs = []
    for n in shape:
        while True:
            u = [rng.randint(-3, 3) for _ in range(n)]
            v = [rng.randint(-3, 3) for _ in range(n)]
            if _independent(u, v) and any(a * b for a, b in zip(u, v)):
                pairs.append((np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)))
                break
    if family == "real":
        t = _outer([u for u, _ in pairs]) + _outer([v for _, v in pairs])
    elif family == "conjugate":
        # integers far below 2^53, so complex128 products are exact
        t = 2 * np.rint(_outer([u + 1j * v for u, v in pairs]).real).astype(np.int64)
    else:
        t = _tangent([u for u, _ in pairs], [v for _, v in pairs])
    return [int(x) for x in t.ravel()]


def _form_job(name: str, d: int, coords: Sequence[int], path: str, family: str) -> Job:
    def job():
        resp = yield Request(f"{name}/binary-form",
                             ("binary-form", "--d", str(d), "--coords=" + ",".join(map(str, coords))),
                             orc.form_family(family))
        yield Request(f"{name}/certify", ("certify", "--file", path),
                      orc.form_tensor(family, orc.verdict_of(resp)))
    return job


def _single_job(name: str, argv: tuple[str, ...], oracle) -> Job:
    def job():
        yield Request(name, argv, oracle)
    return job


def _poly_job(tag: str, spec) -> Job:
    if spec[0] == "quadrics":
        _, n, d = spec
        return _single_job(f"{tag}/quadrics/{n}/{d}", ("quadrics", str(n), str(d)), orc.quadrics(n, d))
    _, d = spec
    return _single_job(f"{tag}/ideal/{d}", ("ideal", "--d", str(d)), orc.ideal(d))


class ExactForms(Workload):
    """Exact rational inputs: binary forms through both routes, exact integer
    tensors, and a small share of quadrics/ideal requests."""

    name = "exact-forms"
    trace_rounds = 1
    expected_spans = ("cli.main", "certify.certify_border_rank2", "certify.certify_symmetric",
                      "hyperdet.all_subhyperdets", "tensors.exact_matrix_rank",
                      "exactsolve.exact_rank", "decompose.decompose_rank2",
                      "binary_forms.classify_binary_form", "binary_forms.tau_sigma_ideal_report",
                      "tableaux.quadric_basis", "multipoly.det_bareiss")

    def __init__(self, seed: int, workdir: Path, rounds: int = 1):
        self.rng = random.Random(seed)
        super().__init__(seed, workdir, rounds)

    def _build_round(self, r: int) -> list[Job]:
        jobs = []
        for b in range(BLOCKS_PER_ROUND):
            tag = f"r{r}b{b}"
            for d in FORM_DEGREES:
                for family in FORM_FAMILIES:
                    coords = form_coords(self.rng, family, d)
                    path = _write_json(self.workdir / f"form-{tag}-{d}-{family}.json",
                                       {"shape": [2] * d, "entries": form_tensor_entries(coords)})
                    jobs.append(_form_job(f"{tag}/form/{family}/d{d}", d, coords, path, family))
            for si, shape in enumerate(EXACT_SHAPES):
                for family in EXACT_FAMILIES:
                    path = _write_json(self.workdir / f"exact-{tag}-{si}-{family}.json",
                                       {"shape": list(shape),
                                        "entries": exact_tensor_entries(self.rng, family, shape)})
                    jobs.append(_single_job(f"{tag}/exact/{family}/{_shape_label(shape)}/certify",
                                            ("certify", "--file", path), orc.exact_tensor(family)))
            jobs += [_poly_job(tag, spec) for spec in POLY_JOBS[b::BLOCKS_PER_ROUND]]
        return jobs

    def warmup(self) -> list[Job]:
        rng = random.Random(self.seed + 1)
        jobs = []
        for d in FORM_DEGREES:
            coords = form_coords(rng, "real", d)
            path = _write_json(self.workdir / f"warmup-form-{d}.json",
                               {"shape": [2] * d, "entries": form_tensor_entries(coords)})
            jobs.append(_form_job(f"warmup/form/d{d}", d, coords, path, "real"))
        for si, shape in enumerate(EXACT_SHAPES):
            path = _write_json(self.workdir / f"warmup-exact-{si}.json",
                               {"shape": list(shape), "entries": exact_tensor_entries(rng, "real", shape)})
            jobs.append(_single_job(f"warmup/exact/{_shape_label(shape)}", ("certify", "--file", path),
                                    orc.exact_tensor("real")))
        jobs += [_poly_job("warmup", ("quadrics", 2, 4)), _poly_job("warmup", ("ideal", 3))]
        return jobs

    def fidelity(self) -> list[tuple[str, ...]]:
        out = []
        for job in self.rounds[0][3:6] + self.rounds[0][12:13]:  # d = 4 forms, one exact tensor
            gen = job()
            out.append(next(gen).argv)
            if out[-1][0] == "binary-form":
                out.append(gen.send(Response(0, "", None)).argv)
            gen.close()
        return out + [("quadrics", "2", "5"), ("ideal", "--d", "4")]


# --------------------------------------------------------------- curve-scan

# the boundary sextics of the monomial quartic's real rank two region, over
# (w, x, y, z): tangential surface and edge surface
FIXTURE_SEXTICS = (
    {(0, 3, 3, 0): 16, (2, 0, 4, 0): -27, (1, 2, 2, 1): 6,
     (0, 4, 0, 2): -27, (2, 1, 1, 2): 48, (3, 0, 0, 3): -16},
    {(0, 3, 3, 0): 32, (2, 0, 4, 0): -27, (1, 2, 2, 1): -6,
     (0, 4, 0, 2): -27, (2, 1, 1, 2): 24, (3, 0, 0, 3): 4},
)
CROSSING_PATH = ((84, -74), (13, 59), (62, -19), (-38, -10))
CLASSIFY_PER_SCAN = 25  # 4 scans and 100 classify requests a round: p90 needs 100
POINT_MARGIN = 2e-3
# parts of the crossing path around one rank change each: the index of that
# change in T_STARS and the ranges of the part's ends, clear of every other t*
CROSSING_PARTS = ((0, (0.30, 0.40), (0.43, 0.50)), (3, (0.66, 0.79), (0.83, 0.98)))
# a prime denominator keeps every classify point's coordinates the same size,
# so the cost of exact elimination varies little from point to point
POINT_DENOMINATOR = 10007


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def fixture_roots(path) -> list[float]:
    """Real roots t of both boundary sextics along u(t) = c0 + c1 t.

    Float roots are precise enough here: they only sort segments into cost
    strata and keep classify points away from the boundary.
    """
    roots = []
    for sextic in FIXTURE_SEXTICS:
        total = [0] * 7
        for exps, coeff in sextic.items():
            term = [coeff]
            for (c0, c1), e in zip(path, exps):
                for _ in range(e):
                    term = _poly_mul(term, [c0, c1])
            for i, c in enumerate(term):
                total[i] += c
        while len(total) > 1 and total[-1] == 0:
            total.pop()
        if len(total) < 2:
            continue
        top = max(abs(c) for c in total)
        for z in np.roots([c / top for c in reversed(total)]):
            if abs(z.imag) <= 1e-9 * max(1.0, abs(z)):
                roots.append(float(z.real))
    return sorted(roots)


def _random_segment(rng: random.Random):
    """An integer segment with no boundary root near [0, 1]: its scan finds no
    transition and skips bisection."""
    while True:
        path = tuple((rng.randint(-100, 100), rng.randint(-100, 100)) for _ in range(4))
        if not any(-0.05 <= t <= 1.05 for t in fixture_roots(path)):
            return path


def _crossing_part(rng: random.Random, a_range, b_range):
    """(integer path, a, b): the crossing path from t = a to t = b as a path
    of its own, u(a + s (b - a)) times the common denominator of a and b.

    Random integer segments with one boundary root cost twice as much to
    scan when the root changes the rank (bisection) as when it does not, and
    which one it is cannot be told without classifying; on the crossing path
    the kind of every root is known, so the part's cost and answer are too.
    """
    q = POINT_DENOMINATOR
    pa = rng.randint(int(a_range[0] * q) + 1, int(a_range[1] * q))
    pb = rng.randint(int(b_range[0] * q) + 1, int(b_range[1] * q))
    path = tuple((q * c0 + pa * c1, (pb - pa) * c1) for c0, c1 in CROSSING_PATH)
    return path, Fraction(pa, q), Fraction(pb, q)


def _classify_points(rng: random.Random, path, avoid: Sequence[float],
                     margin: float = POINT_MARGIN) -> list[tuple[Fraction, str]]:
    out = []
    while len(out) < CLASSIFY_PER_SCAN:
        t = Fraction(rng.randint(1, POINT_DENOMINATOR - 1), POINT_DENOMINATOR)
        if any(abs(float(t) - a) < margin for a in avoid):
            continue
        u = [Fraction(c0) + c1 * t for c0, c1 in path]
        if all(c == 0 for c in u):
            continue
        out.append((t, ",".join(_frac(c) for c in u)))
    return out


def _classify_request(name: str, point: str, oracle) -> Request:
    return Request(name, ("curve-classify", "--curve", "monomial-quartic", "--point=" + point), oracle)


def _crossing_job(name: str, points) -> Job:
    def job():
        yield Request(f"{name}/scan", ("curve-scan", "--curve", "monomial-quartic", "--path", "crossing"),
                      orc.crossing_scan)
        for t, point in points:
            yield _classify_request(f"{name}/classify@{_frac(t)}", point, orc.crossing_classify(t))
    return job


def _segment_job(name: str, path_file: str, points) -> Job:
    def job():
        resp = yield Request(f"{name}/scan",
                             ("curve-scan", "--curve", "monomial-quartic", "--path", path_file),
                             orc.segment_scan)
        ranks = orc.segment_ranks(resp)
        for t, point in points:
            yield _classify_request(f"{name}/classify@{_frac(t)}", point, orc.segment_classify(t, ranks))
    return job


def _part_job(name: str, path_file: str, points, index: int, a: Fraction, b: Fraction) -> Job:
    def job():
        yield Request(f"{name}/scan", ("curve-scan", "--curve", "monomial-quartic", "--path", path_file),
                      orc.crossing_part_scan(index, a, b))
        for s, point in points:
            yield _classify_request(f"{name}/classify@{_frac(s)}", point,
                                    orc.crossing_classify(a + s * (b - a)))
    return job


class CurveScan(Workload):
    """curve-scan on the crossing path, on a random integer segment with no
    boundary root and on two parts of the crossing path around one rank
    change each, each scan followed by curve-classify at points on its path."""

    name = "curve-scan"
    trace_rounds = 1
    expected_spans = ("cli.main", "space_curve.scan_path", "space_curve.classify_point",
                      "space_curve.solve_secants", "space_curve.plucker_map", "multipoly.resultant",
                      "multipoly.det_bareiss", "unipoly.real_roots", "unipoly.poly_gcd")

    def __init__(self, seed: int, workdir: Path, rounds: int = 1):
        self.rng = random.Random(seed)
        super().__init__(seed, workdir, rounds)

    def _build_round(self, r: int) -> list[Job]:
        crossing_roots = fixture_roots(CROSSING_PATH)
        jobs = [_crossing_job(f"r{r}/crossing", _classify_points(self.rng, CROSSING_PATH, crossing_roots))]
        path = _random_segment(self.rng)
        path_file = _write_json(self.workdir / f"segment-r{r}.json",
                                {"coefficients": [list(row) for row in path]})
        jobs.append(_segment_job(f"r{r}/segment0", path_file,
                                 _classify_points(self.rng, path, fixture_roots(path))))
        for index, a_range, b_range in CROSSING_PARTS:
            path, a, b = _crossing_part(self.rng, a_range, b_range)
            path_file = _write_json(self.workdir / f"part-r{r}-{index}.json",
                                    {"coefficients": [list(row) for row in path]})
            avoid = [float((Fraction(t) - a) / (b - a)) for t in orc.T_STARS]
            points = _classify_points(self.rng, path, avoid, POINT_MARGIN / float(b - a))
            jobs.append(_part_job(f"r{r}/part{index}", path_file, points, index, a, b))
        return jobs

    def warmup(self) -> list[Job]:
        rng = random.Random(self.seed + 1)
        path = _random_segment(rng)
        path_file = _write_json(self.workdir / "warmup-segment.json",
                                {"coefficients": [list(row) for row in path]})
        return [_segment_job("warmup/segment0", path_file,
                             _classify_points(rng, path, fixture_roots(path))[:2])]

    def fidelity(self) -> list[tuple[str, ...]]:
        crossing, segment0 = self.rounds[0][0](), self.rounds[0][1]()
        out = []
        for gen in (crossing, segment0):
            scan = next(gen)
            out.append(gen.send(Response(None, "", None)).argv)
            gen.close()
        return out + [scan.argv]


WORKLOADS = {w.name: w for w in (TensorFloat, ExactForms, CurveScan)}
