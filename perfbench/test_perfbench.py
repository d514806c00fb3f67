"""Tests of the benchmark itself: inputs, oracles, metric names and tracing.

Run with `python -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles as orc
import run
import spans
import speed
import workloads
from workloads import WORKLOADS, Response

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

cli = run.import_cli()
from realrank2 import certify as ce  # noqa: E402  (importable once import_cli ran)
from realrank2 import decompose as dc  # noqa: E402
from realrank2 import space_curve as sc  # noqa: E402


def _snapshot(name: str, seed: int, workdir: Path):
    workload = WORKLOADS[name](seed, workdir, rounds=2)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argvs = [tuple(a.replace(str(workdir), "<dir>") for a in argv) for argv in workload.inputs()]
    return files, argvs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    first = _snapshot(name, 5, tmp_path / "a")
    assert first == _snapshot(name, 5, tmp_path / "b")
    assert first[0] != _snapshot(name, 6, tmp_path / "c")[0]


def _out(payload) -> str:
    return json.dumps(payload, indent=2)


def test_certify_oracles_reject_wrong_verdicts():
    real = orc.certify_float("real", 0)
    assert real(0, _out({"verdict": orc.REAL})) is None
    assert real(0, _out({"verdict": orc.COMPLEX})).known is None
    assert real(1, "") is not None
    assert orc.certify_float("conjugate", -3)(0, _out({"verdict": orc.BOUNDARY})).known == orc.SCALE_DEFECT
    # a wrong verdict at scale >= 1 is never the recorded scale defect
    assert orc.certify_float("real", 2)(0, _out({"verdict": orc.BOUNDARY})).known is None
    assert orc.exact_tensor("tangential")(0, _out({"verdict": orc.REAL})) is not None


def test_decompose_oracle_rejects_wrong_kind_and_residual():
    rng = np.random.default_rng(0)
    t = sum(np.multiply.outer(np.multiply.outer(rng.standard_normal(3), rng.standard_normal(3)),
                              rng.standard_normal(3)) for _ in range(2))
    payload = dc.decompose_rank2(t).to_json()
    oracle = orc.decompose_float("real", t)
    assert oracle(0, _out(payload)) is None
    assert orc.decompose_float("conjugate", t)(0, _out(payload)) is not None
    payload["terms"][0]["weight"] *= 1 + 1e-6
    assert "residual" in oracle(0, _out(payload)).reason


@pytest.mark.parametrize("family", ["real", "conjugate", "tangential"])
def test_reconstruct_matches_program_decompositions(family):
    rng = np.random.default_rng(1)
    vecs = [[rng.standard_normal(2) for _ in range(4)] for _ in range(2)]
    if family == "real":
        t = sum(np.multiply.outer(np.multiply.outer(np.multiply.outer(*v[:2]), v[2]), v[3]) for v in vecs)
    elif family == "conjugate":
        z = [a + 1j * b for a, b in zip(*vecs)]
        t = 2.0 * np.multiply.outer(np.multiply.outer(np.multiply.outer(z[0], z[1]), z[2]), z[3]).real
    else:
        t = ce.tangential_witness(*vecs)
    payload = dc.decompose_rank2(t).to_json()
    assert orc.decompose_float(family, t)(0, _out(payload)) is None


def test_form_and_polynomial_oracles_reject_wrong_answers():
    assert orc.form_family("real")(0, _out({"verdict": orc.COMPLEX})) is not None
    assert orc.form_family("conjugate")(0, _out({"verdict": orc.REAL})) is not None
    agree = orc.form_tensor("random", orc.EXCEEDS)
    assert agree(0, _out({"verdict": orc.EXCEEDS})) is None
    assert agree(0, _out({"verdict": orc.REAL})) is not None
    assert orc.quadrics(2, 5)(0, _out([{}] * 3)) is None
    assert orc.quadrics(2, 5)(0, _out([{}] * 2)) is not None
    good = {"minors_2x2": [""] * 9, "minors_3x3": [""] * 1, "tangential_generators": [{}] * 2}
    assert orc.ideal(4)(0, _out(good)) is None
    assert orc.ideal(4)(0, _out(dict(good, minors_3x3=[]))) is not None


def _transitions(t_stars=orc.T_STARS, kinds=orc.CROSSING_KINDS):
    return [{"t_star": t, "kind": k, "rank_before": a, "rank_after": b, "surface": None}
            for t, k, (a, b) in zip(t_stars, kinds, orc.CROSSING_RANKS)]


def test_curve_oracles_reject_wrong_answers():
    scan = {"samples": [{"label": "REAL_RANK_GE_3"}], "transitions": _transitions()}
    assert orc.crossing_scan(0, _out(scan)) is None
    shifted = dict(scan, transitions=_transitions((orc.T_STARS[0] + 1e-9,) + orc.T_STARS[1:]))
    assert orc.crossing_scan(0, _out(shifted)) is not None
    swapped = dict(scan, transitions=_transitions(kinds=orc.CROSSING_KINDS[::-1]))
    assert orc.crossing_scan(0, _out(swapped)) is not None

    two_real = {"label": "REAL_RANK_LE_2", "nonreal_count": 0,
                "solutions": [{"contact": "TWO_REAL_POINTS"}]}
    in_second = orc.crossing_classify(Fraction(45, 100))  # one real secant, one with two real points
    assert in_second(0, _out(two_real)) is None
    assert in_second(2, _out(two_real)) is not None
    assert orc.crossing_classify(Fraction(1, 10))(0, _out(two_real)) is not None

    assert orc.segment_scan(0, _out({"samples": [], "transitions": [{"t_star": 0.5, "kind": "UNLABELED"}]}))

    a, b = Fraction(35, 100), Fraction(45, 100)
    part = orc.crossing_part_scan(0, a, b)
    tr = {"t_star": float((Fraction(orc.T_STARS[0]) - a) / (b - a)), "kind": "TANGENTIAL",
          "rank_before": 3, "rank_after": 2}
    assert part(0, _out({"samples": [], "transitions": [tr]})) is None
    assert part(0, _out({"samples": [], "transitions": [dict(tr, t_star=tr["t_star"] + 1e-9)]})) is not None
    assert part(0, _out({"samples": [], "transitions": [dict(tr, kind="EDGE")]})) is not None
    assert part(0, _out({"samples": [], "transitions": [tr, tr]})) is not None
    resp = Response(0, _out({"samples": [{"label": "REAL_RANK_GE_3"}],
                             "transitions": [{"t_star": 0.5, "kind": "EDGE", "rank_after": 2}]}), None)
    ranks = orc.segment_ranks(resp)
    assert orc.segment_classify(Fraction(7, 10), ranks)(0, _out(two_real)) is None
    assert orc.segment_classify(Fraction(3, 10), ranks)(0, _out(two_real)) is not None
    assert orc.segment_classify(Fraction(3, 10), None)(2, _out(two_real)) is not None


def test_timed_passes_hold_no_defect_inputs_and_the_probe_holds_them_all(tmp_path):
    workload = WORKLOADS["tensor-float"](3, tmp_path)
    timed = [argv[-1] for argv in workload.inputs()]
    assert len(timed) == len(set(timed)) == 2 * (len(workloads.FLOAT_SHAPES) * 5 - 1)
    names = []
    for job in workload.jobs():
        gen = job()
        names.append(next(gen).name)
        gen.close()
    for family in ("real", "conjugate"):
        for k in workloads.DEFECT_EXPONENTS:
            assert not any(f"/{family}/" in n and f"/1e{k:+d}/" in n for n in names)
    probe = []
    for job in workload.defect_probe():
        gen = job()
        probe.append(next(gen).name)
        gen.close()
    assert len(probe) == len(workloads.FLOAT_SHAPES) * 2 * len(workloads.DEFECT_EXPONENTS)


def test_crossing_parts_hold_exactly_their_one_boundary_root():
    rng = random.Random(4)
    for index, a_range, b_range in workloads.CROSSING_PARTS:
        path, a, b = workloads._crossing_part(rng, a_range, b_range)
        assert all(isinstance(c, int) for row in path for c in row)
        roots = [t for t in workloads.fixture_roots(path) if 0 <= t <= 1]
        assert roots == pytest.approx([float((Fraction(orc.T_STARS[index]) - a) / (b - a))], abs=1e-9)


def test_typical_time_is_the_median_of_each_request():
    stats = run.Stats([3.0, 1.0, 5.0, 2.0, 4.0, 9.0], [], ["a", "b", "a", "b", "a", "b"])
    assert stats.typical() == [4.0, 2.0]


def test_speed_scales_by_the_reference_kernel_around_a_stretch(monkeypatch):
    times = iter([2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S])
    monkeypatch.setattr(speed, "reference", lambda: next(times))
    clock = speed.Speed()
    assert clock.scale(1.0) == pytest.approx(0.5)   # only the end is known
    assert clock.scale(1.0) == pytest.approx(1 / 3)  # mean of both ends: 3x slower


def test_printed_metric_names_match_benchmark_json():
    stats = run.Stats([0.01 * k for k in range(1, 21)], [], [f"q{k}" for k in range(1, 21)])
    e2e = run.end_to_end(stats, 1.0)
    assert [(k, m["unit"]) for k, m in e2e.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert [(n, u, b) for n, u, b in spans.PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert list(spans.layer_metrics([], 0.0)) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def test_self_time_subtracts_union_of_overlapping_children():
    parent = spans.Span(1, None, 0, "space_curve.scan_path", 0, 100, 1, None)
    a = spans.Span(2, 1, 0, "space_curve.classify_point", 10, 50, 2, None)
    b = spans.Span(3, 1, 0, "space_curve.classify_point", 30, 70, 3, None)
    late = spans.Span(4, 1, 0, "space_curve.classify_point", 90, 120, 2, None)
    assert spans.self_times([parent, a, b, late]) == {1: 100 - 60 - 10, 2: 40, 3: 40, 4: 30}


def test_tracer_patches_every_binding_and_restores():
    tracer = spans.Tracer()
    want = {"exactsolve.exact_rank": {"exactsolve", "tensors", "tableaux"},
            "multipoly.det_bareiss": {"multipoly", "hyperdet", "binary_forms"},
            "tableaux.quadric_basis": {"tableaux", "binary_forms"},
            "unipoly.real_roots": {"unipoly", "space_curve"},
            "unipoly.poly_gcd": {"unipoly", "space_curve"}}
    for name, modules in want.items():
        assert modules <= set(tracer.bindings[name]), name
    assert tracer.missing == []
    before = sc.classify_point
    with tracer.installed():
        assert sc.classify_point is not before
    assert sc.classify_point is before


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("tensors", "no_such_function", None),))
    assert spans.Tracer().missing == ["tensors.no_such_function"]


def test_traced_crossing_scan_and_4444_block_count():
    client = run.Client(cli)
    calls = []
    original = sc.classify_point

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    argv = ("curve-scan", "--curve", "monomial-quartic", "--path", "crossing")
    sc.classify_point = counting
    try:
        untraced = client.call(argv)
    finally:
        sc.classify_point = original
    tracer = spans.Tracer()
    with tracer.installed(), tracer.request(7):
        traced = client.call(argv)
        client.call(("hyperdet",))  # a usage error is still one traced cli.main call
    assert traced[0] == untraced[0] == 0 and traced[1] == untraced[1]
    by_id = {s.sid: s for s in tracer.spans}
    classify = [s for s in tracer.spans if s.name == "space_curve.classify_point"]
    assert len(classify) == len(calls) > 0
    assert all(s.request == 7 for s in classify)
    assert all(any(a.name == "space_curve.scan_path" for a in spans.ancestors(s, by_id)) for s in classify)
    assert spans.layer_metrics(tracer.spans, 0.0)["cli.requests"] == 2

    t = np.random.default_rng(2).standard_normal((4, 4, 4, 4))
    tracer = spans.Tracer()
    with tracer.installed():
        ce.certify_border_rank2(t)
    assert spans.layer_metrics(tracer.spans, 0.0)["hyperdet.blocks"] == 3456


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-forms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
