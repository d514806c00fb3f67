"""End-to-end command line behavior, run in-process through main()."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import realrank2
from realrank2 import certify as ce
from realrank2 import cli
from realrank2 import decompose as dc
from realrank2 import hyperdet as hd
from realrank2 import jsontext
from realrank2 import multipoly as mp
from realrank2 import space_curve as sc
from realrank2 import tableaux as tb
from realrank2 import tensors as tn
from realrank2.cli import main

TABLE_TEXT = "\n".join([
    "n\\d        4        5        6        7        8        9       10",
    "2          1        3        6       10       15       21       28",
    "3         15       60      153      315      570      945     1470",
    "4        105      540     1711     4270     9190    17850    32130",
    "5        490     3150    12145    36155    91395   205905   425425",
])

CONJ_ENTRIES = [2, 0, 0, -2, 0, -2, -2, 0]


@pytest.fixture
def conj_file(tmp_path):
    path = tmp_path / "conj.json"
    path.write_text(json.dumps({"shape": [2, 2, 2], "entries": CONJ_ENTRIES}))
    return str(path)


@pytest.fixture
def real_pair_file(tmp_path):
    u, v, w = np.array([1.0, 2.0]), np.array([1.0, -1.0]), np.array([2.0, 1.0])
    p, q, r = np.array([3.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 1.0])
    t = np.einsum("i,j,k->ijk", u, v, w) + np.einsum("i,j,k->ijk", p, q, r)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"shape": [2, 2, 2], "entries": list(t.ravel())}))
    return str(path)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_table1_text_golden(capsys):
    status, out, err = run_cli(capsys, "table1", "--format", "text")
    assert status == 0
    assert out == TABLE_TEXT + "\n"


def test_table1_csv_and_json_agree(capsys):
    status, csv_out, _ = run_cli(capsys, "table1", "--format", "csv")
    assert status == 0
    lines = csv_out.strip().split("\n")
    assert lines[0] == "n,4,5,6,7,8,9,10"
    status, json_out, _ = run_cli(capsys, "table1")
    payload = json.loads(json_out)
    for line in lines[1:]:
        n, *values = line.split(",")
        assert [int(v) for v in values] == payload["rows"][n]


def test_quadrics_text_golden(capsys):
    status, out, _ = run_cli(capsys, "quadrics", "2", "4", "--format", "text")
    assert status == 0
    assert out == "f_1111_2222 = 3*x2^2 - 4*x1*x3 + 1*x0*x4\n"


def test_quadrics_json_structure(capsys):
    status, out, _ = run_cli(capsys, "quadrics", "2", "5")
    payload = json.loads(out)
    assert [g["label"] for g in payload] == [
        "f_111111_2222", "f_111112_2222", "f_111122_2222"]
    assert all(set(g) == {"label", "text", "polynomial"} for g in payload)


def test_certify_conjugate_fixture(capsys, conj_file):
    status, out, _ = run_cli(capsys, "certify", "--file", conj_file)
    assert status == 0
    payload = json.loads(out)
    assert payload["verdict"] == "COMPLEX_RANK_TWO_REAL_RANK_HIGHER"
    assert payload["hyperdet"]["min_value"] == -64
    assert payload["max_flattening_rank"] == 2
    assert payload["tolerances"]["rank_tol"] == "exact"


def test_certify_symmetric_coordinates(capsys, tmp_path):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"n": 2, "d": 4, "coeffs": {"4,0": 1, "0,4": 1}}))
    status, out, _ = run_cli(capsys, "certify", "--file", str(path), "--symmetric")
    assert status == 0
    assert json.loads(out)["verdict"] == "REAL_BORDER_RANK_TWO_BOUNDARY"


@pytest.mark.parametrize("command", ["certify", "hyperdet"])
def test_omitted_exact_coordinates_print_as_written_out_zeros(capsys, tmp_path, command):
    """An exact file's omitted coordinates are the int 0, as if written out:
    both spellings print the same JSON and text bytes, with int values."""
    omitted = {"4,0": 1, "0,4": 1}
    spelled = {"4,0": 1, "3,1": 0, "2,2": 0, "1,3": 0, "0,4": 1}
    outs = []
    for coeffs in (omitted, spelled):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"n": 2, "d": 4, "coeffs": coeffs}))
        for fmt in ("json", "text"):
            status, out, _ = run_cli(capsys, command, "--symmetric", "--file", str(path), "--format", fmt)
            assert status == 0
            outs.append(out)
    assert outs[:2] == outs[2:]
    payload = json.loads(outs[0])
    rows = (payload["hyperdet"] if command == "certify" else payload)["values"]
    assert rows and all(type(row["value"]) is int for row in rows)


def test_hyperdet_text_golden(capsys, conj_file):
    status, out, _ = run_cli(capsys, "hyperdet", "--file", conj_file, "--format", "text")
    assert status == 0
    assert out == ("modes[1:(0,1),2:(0,1),3:(0,1)]: -64\n"
                   "signs: 0 positive, 0 zero, 1 negative (zero tolerance 0)\n")


def test_hyperdet_formats_block_lines_only_for_text(capsys, monkeypatch, tmp_path):
    """Under the default JSON output the per-block text lines are never
    built: `_fmt` runs at most once (the signs line), not once per block;
    under --format text it formats every block."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tn.tensor_to_json(_family_tensor("real", (2,) * 5, 3))))
    calls = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or fmt(v))
    status, out, _ = run_cli(capsys, "hyperdet", "--file", str(path))
    blocks = len(json.loads(out)["values"])
    assert status == 0 and blocks == 40
    assert len(calls) <= 1
    calls.clear()
    status, out, _ = run_cli(capsys, "hyperdet", "--file", str(path), "--format", "text")
    assert status == 0 and len(out.splitlines()) == blocks + 1
    assert len(calls) == blocks + 1


@pytest.mark.parametrize("argv", [("quadrics", "3", "4"), ("ideal", "--d", "5")])
def test_generator_polynomials_are_printed_once(capsys, monkeypatch, argv):
    """`multipoly.to_text` runs once per polynomial, for the payload's text,
    under the default JSON output and under --format text alike: the text
    lines reuse those texts and are built only for --format text."""
    calls = []
    to_text = mp.to_text
    monkeypatch.setattr(mp, "to_text", lambda p: calls.append(p) or to_text(p))
    status, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    if argv[0] == "quadrics":
        polys = len(payload)
    else:
        polys = sum(len(payload[k]) for k in ("minors_2x2", "minors_3x3", "tangential_generators"))
    assert status == 0 and polys > 1
    assert len(calls) == polys
    calls.clear()
    status, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert status == 0 and len(out.splitlines()) == polys + (3 if argv[0] == "ideal" else 0)
    assert len(calls) == polys


def test_decompose_real_pair_and_determinism(capsys, real_pair_file):
    status, first, _ = run_cli(capsys, "decompose", "--file", real_pair_file)
    assert status == 0
    payload = json.loads(first)
    assert payload["kind"] == "REAL_PAIR"
    assert payload["residual"] <= 1e-8
    status, second, _ = run_cli(capsys, "decompose", "--file", real_pair_file)
    assert first == second


def test_curve_classify_negative_verdict_exits_two(capsys):
    status, out, _ = run_cli(capsys, "curve-classify", "--curve", "monomial-quartic",
                             "--point", "84,13,62,-38", "--format", "text")
    assert status == 2
    assert out.startswith("label: REAL_RANK_GE_3\n")
    assert "real secants: 1 (0 with two real curve points, 2 nonreal)" in out


def test_curve_classify_positive_verdict_exits_zero(capsys):
    status, out, _ = run_cli(capsys, "curve-classify", "--curve", "monomial-quartic",
                             "--point", "47,85/2,105/2,-43")
    assert status == 0
    payload = json.loads(out)
    assert payload["label"] == "REAL_RANK_LE_2"
    assert payload["witness"]["contact"] == "TWO_REAL_POINTS"


def test_curve_scan_csv(capsys):
    status, out, _ = run_cli(capsys, "curve-scan", "--curve", "monomial-quartic",
                             "--path", "crossing", "--interval", "0,1/5",
                             "--nsamples", "3", "--format", "csv")
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,min_discriminant,real_secants,two_real_point_secants"
    assert len(lines) == 4
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.1, 0.2]


def test_curve_scan_without_real_secants_prints_valid_json(capsys, tmp_path):
    # this quintic has no real secant line through any sample: the minimum
    # discriminant is null in JSON and an empty field in CSV, never NaN
    curve, path = tmp_path / "quintic.json", tmp_path / "path.json"
    curve.write_text(json.dumps({"d": 5, "F": [[-2, -2, 2, -2, -3, -1], [3, 0, 3, 0, -2, 1],
                                               [-1, -3, -1, 3, -2, 3], [-1, 2, -2, -3, 0, -3]]}))
    path.write_text(json.dumps({"coefficients": [[2, 0], [2, 0], [1, 0], [-8, 1]]}))
    argv = ("curve-scan", "--curve", str(curve), "--path", str(path), "--nsamples", "3",
            "--interval=-0.01,0.01")

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    samples = json.loads(out, parse_constant=refuse)["samples"]
    assert [(s["real_secants"], s["min_discriminant"]) for s in samples] == [(0, None)] * 3
    status, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert status == 0
    assert out.split("\n")[1:] == ["-0.01,,0,0", "0.0,,0,0", "0.01,,0,0", ""]


def test_curve_scan_path_file(capsys, tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"coefficients": [[3, 0], [1, 0], [-2, 0], [5, 0]]}))
    status, out, _ = run_cli(capsys, "curve-scan", "--curve", "monomial-quartic",
                             "--path", str(path), "--nsamples", "3",
                             "--format", "text")
    assert status == 0
    assert "no transitions" in out


def test_binary_form_plain_coeffs(capsys):
    status, out, _ = run_cli(capsys, "binary-form", "--d", "4",
                             "--coords", "1,4,6,4,1", "--plain-coeffs")
    assert status == 0
    payload = json.loads(out)
    assert payload["verdict"] == "RANK_AT_MOST_ONE"
    assert payload["strata"] == "RANK_ONE"


def test_binary_form_conjugate_text(capsys):
    status, out, _ = run_cli(capsys, "binary-form", "--d", "4",
                             "--coords", "2,0,-2,0,2", "--format", "text")
    assert status == 0
    assert out.startswith("verdict: COMPLEX_RANK_TWO_REAL_RANK_HIGHER\n")
    assert "strata: cpx" in out


def test_binary_quartic_at_1e_minus_200_gets_the_label_of_its_unit_twin(capsys):
    """x = 1e-200 * (1, 0, 1, 0, 1) underflows D0 and D1 to 0, so its
    certificate reads the boundary, while 1, 0, 1, 0, 1, a sum of two real
    fourth powers, has real rank two.  The label is read off the Hankel
    matrix, prescaled by a power of two, and is the twin's ++0."""
    argv = ["binary-form", "--d", "4", "--coords", "1e-200,0,1e-200,0,1e-200"]
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    assert out == ('{\n  "hankel_rank": 2,\n  "d_values": [\n    0.0,\n    0.0\n  ],\n'
                   '  "verdict": "REAL_BORDER_RANK_TWO_BOUNDARY",\n  "strata": "++0"\n}\n')
    status, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert status == 0
    assert out == ("verdict: REAL_BORDER_RANK_TWO_BOUNDARY\nhankel rank: 2\n"
                   "discriminants: D0=0 D1=0\nstrata: ++0\n")
    status, out, _ = run_cli(capsys, "binary-form", "--d", "4", "--coords", "1,0,1,0,1", "--format", "text")
    assert status == 0
    assert out == "verdict: REAL_RANK_TWO\nhankel rank: 2\ndiscriminants: D0=4 D1=4\nstrata: ++0\n"


def test_ideal_generators_labels(capsys):
    status, out, _ = run_cli(capsys, "ideal", "--d", "4")
    payload = json.loads(out)
    assert [g["label"] for g in payload["tangential_generators"]] == ["det_H", "Q"]
    assert len(payload["minors_2x2"]) == 9
    assert len(payload["minors_3x3"]) == 1


@pytest.mark.parametrize("argv, digest", [
    (("quadrics", "3", "4"), "59e8bafd2724dcd8cadea03fdcd88839a11b5da90abda944064358f389f12777"),
    (("ideal", "--d", "5"), "d0cfc01149c94365e2d0f4dc49acb4fb945cc5aabd6ec3fd9a97f24556fe973c"),
    (("ideal", "--d", "3"), "a880e5d0a7f3fbf8e7bd90f107c9e4872fdcb598fbc0d2074468c476644bb119"),
    (("ideal", "--d", "4"), "cdabcc76af1685ac746c411516b9a0515346030a344412a3cd64c204bb944dde"),
    (("ideal", "--d", "8"), "0b7723477eb5bb11d9c501a500d2d63bad60ac52d40662beee6d2ab2ad3e0b6b"),
    (("quadrics", "3", "5"), "35e9d758db84596cbd0ac38d1c772032bd6f2bd1ac19b625c26ec7eac165e39a"),
    (("quadrics", "3", "5", "--format", "text"),
     "c8687411e7919321cbdc13e07016e56a182efc751927c5444cdaabd1613d49cc"),
    (("quadrics", "2", "8"), "d7fb36a19183859fc02e9aaea9678a789c827c5c8d041546a92e4e780a3d2205"),
    (("quadrics", "2", "8", "--format", "text"),
     "5d98c5a56318180b8caa2823bc3414e45cf569a6dd09da064b70d97eb35eeb10"),
    (("ideal", "--d", "6"), "7e3ee549bdd3182fd7f388d46c4724bf902f5575b7aef10732fa128ceefdaa51"),
    (("ideal", "--d", "6", "--format", "text"),
     "27e210048c4817c3fb95224ad628ba868b53b98017da2e176e095854403b1e30"),
    (("ideal", "--d", "7"), "7ab86bd4946d94f3d60045b5f589e517da91ce343ec7a0ce91454744bc8e05a5"),
    (("ideal", "--d", "7", "--format", "text"),
     "33d6aa44fdc46e103bc8244e955c24133ccc6915cffc04e0b24b5eb7d11a1039"),
    # tails that repeat entries more often than the cases above do
    (("quadrics", "2", "12"), "9c94f629a535b5a7388175c474369d0f9d26e3d0ce19d771b0af09d883e9a149"),
    (("quadrics", "2", "12", "--format", "text"),
     "d9646c991c809a7f9b78181c3c736462bed5335c3d574e6e89ebb1cf40eb8673"),
    (("quadrics", "3", "6"), "78d4d132b92194f1930497fc3a384549d6685745b6685209d35f7b12eba2b7a7"),
    (("quadrics", "3", "6", "--format", "text"),
     "51bb14cd487e45e242f6200c97a89569142c6bfe92bf14ee5b83fb16ae56fc61"),
    (("ideal", "--d", "12"), "68a8f3e882cd1f2247b9cdc041a5eec9b119e90fbee182fedaa8af982cab64ce"),
    (("ideal", "--d", "12", "--format", "text"),
     "b47837333a9ccadc2042deac2b9a0f57119637cc8fae3cf6c56ca1d58463f1ad"),
])
def test_exact_generator_json_bytes(capsys, argv, digest):
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _sym_golden_payload(n: int, d: int, exact: bool) -> dict:
    """x_u = a^u - b^u / 2, a real pair, plus c^u for even d, with small
    integer vectors a, b, c; the float copy divides every coordinate by 3."""
    a, b, c = (1, 2, -1, 3)[:n], (2, -1, 1, 1)[:n], (1, 1, 2, -2)[:n]
    coeffs = {}
    for u in tn.multidegrees(n, d):
        x = math.prod(map(pow, a, u)) - Fraction(math.prod(map(pow, b, u)), 2)
        if d % 2 == 0:
            x += math.prod(map(pow, c, u))
        coeffs[",".join(map(str, u))] = str(x) if exact else float(x) / 3
    return {"n": n, "d": d, "coeffs": coeffs}


# sha256 of the stdout of `certify --symmetric`, JSON then --format text
SYM_CERTIFY_DIGESTS = {
    (3, 3, True): ("8b58d43ad113d704a2555cd4d7a29736fbe74b33a41ba93e5680a19fcbe1cbe3",
                    "a81c0ce73b3b7634af64bfcb6feb050184c3d95dd42ed90984b1150a0e152e61"),
    (3, 3, False): ("e0f60d91de5d4fc34ef8d5235411d389a3f2626aac4f63893460af989946a039",
                    "a13a3b83bf8e5fab17ecf5b6b011b17226ea218a67aa0e42cbcdc6795a1566f5"),
    (3, 4, True): ("776dc6f11c9825580f714ad806e8b75af12d10a4b24f5f813643526765108a22",
                    "ea8f15c98c021ec0e6af83034eec3b9cc62afada4aa5f58bb84f51fbd0ab3b43"),
    (3, 4, False): ("50f6b0bf2efa04960c0c6f47ad712797d191e48a8f89e596cf9d6a8e35ebfd94",
                    "b1ad3bc233e1a1fe5769f0091f2d8187e3c867377a6998564d052a9fce324044"),
    (3, 5, True): ("84c88dea337ce98321c256d7bff1d4f0a7355e1d82cee05064bce30ce44cf157",
                    "ba1247747ccdef7996f7227615f1ca1a9e77bcd417b3829db644790213202560"),
    (3, 5, False): ("124676b513ad4981f004165baf8a013903d62ec41fd5d973021d942563601770",
                    "631072f37a1f41e6bb9253cf7c8220f3358ce299a19746710a7295ace86dad8a"),
    (3, 6, True): ("1beee922637e113a8c70c2bd5937289679fd01eaee0536f8b087b605f74a471e",
                    "2d9b1402e61fdd10f8ebc46ee04382a91ac02740e715cf83e20d7b4b3605e341"),
    (3, 6, False): ("903847d01bce81390b8dc6370b8152d46ac4703a9f3596aa20b058a4a82bf9ea",
                    "631246a76dcb2620d7061eab03a7897d513b854d8d00b0977fd803f249a52615"),
    (3, 7, True): ("14c1662980c608e58905c143c010b4cd4fe9bf07d9a1c990f0124a5f295ce6e9",
                    "42512bba9de6f43bbdc0b2e3fda8ae739cbf48839f52678b1ac8cf64790c6bf5"),
    (3, 7, False): ("3baab2d8fdfc5476554500fbdea955c7a8d027bffecfc79e1a4b78f17b473cfc",
                    "acb4dcbffd662c8a0908c28c98ea4602e5d89046ae9d3ccd58cfeaadbb88a2b6"),
    (3, 8, True): ("4cc1e53059eabd7c116585bbf18bca147e8cf8e3bb22577548f8ac0d0d9d7eb5",
                    "aec0fddb4a39442497a5cae437dfa0ed362911bc9fb1070c70130b71c598f782"),
    (3, 8, False): ("760b7620aa85b94c4879d98b9111054fa221c7102b5306af5d08ce819f0c2d21",
                    "b7ea752408e5e9dbd9e94c15c4dd39b6b29505cc9606e9cfd110f84997c7a66c"),
    (4, 4, True): ("a6770425c017208647bdc4ebe8fc429e083f9aeec66afeb06a1912ad1db92b4c",
                    "3074a3dae2c4cc6d5c54851e94af50f68f6c4d29218cd824088d6a4c409e68a4"),
    (4, 4, False): ("1f47c54b11762461c47240fa3f86b9b0d0db2d39d7034049c4c54d792a636ccc",
                    "830bd802aabff68597bc90d781264a722ece3c0c1e02533d0f4d83ea665dad5a"),
    (4, 5, True): ("1b130ed367702198bb6c2ff766698fd6c5bb08cd69777fc39c26657be20bb57e",
                    "27c3be612b1167601bf4bbddc472ae4cba3dabc2e83293367efb5c3bd49b61ed"),
    (4, 5, False): ("4f64ce15788d64752fa0f65029aa88c8b56db4ebe14506f6648fb4025139bd1e",
                    "6463d568b19bf1438739efe7b2c93a73efcaf1a7e4ba1df1690293123000a0d4"),
    (4, 6, True): ("3d80b5109fe9374b303defa53d9c0b780ebfd25aaed41d47e7bb42b19b709bb3",
                    "dfa6b3fab7736e674056d046ad818c08af35cdf9a59913f8644660725a50216b"),
    (4, 6, False): ("5b7f6b7c1611841f9d6e271312bd020462ee022bf0779d78de30b67c1b6cae2a",
                    "1c810903cc3136f2017b1786d1c2cf3f2242e79c1157b8cece234bf1cebd748c"),
    (1, 5, True): ("b7f6371e0c9e5ce201d57d156a607e971ab665233dcfad1a9a159add7b468feb",
                    "9dce2215cfb0136687afd70574da6ab86643f35a170aa81eeba4ba09b07ac165"),
    (1, 5, False): ("a0de359530aa4692f6f1cb109e79e55d25a9db00c0b2dc5df98804a621538052",
                    "9dce2215cfb0136687afd70574da6ab86643f35a170aa81eeba4ba09b07ac165"),
    (3, 2, True): ("642997541e2b571db96c68cbd51fbcac2f7e7da409832b2f3537ca8658249253",
                    "a0a955e965cade7030b57f6d350e22be5247aaf1532754d4b71ddaaf601acf9c"),
    (3, 2, False): ("87c4864d806ff684943aa01cdb05b9d218d49b6fa6c7ea0813962ef95f92601b",
                    "a0a955e965cade7030b57f6d350e22be5247aaf1532754d4b71ddaaf601acf9c"),
}


@pytest.mark.parametrize("n, d, exact", list(SYM_CERTIFY_DIGESTS))
def test_symmetric_certificate_bytes(capsys, tmp_path, n, d, exact):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(_sym_golden_payload(n, d, exact)))
    digests = []
    for fmt in ("json", "text"):
        status, out, _ = run_cli(capsys, "certify", "--symmetric", "--file", str(path), "--format", fmt)
        assert status == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == SYM_CERTIFY_DIGESTS[n, d, exact]


# sha256 of the stdout of `binary-form` and `certify --symmetric`, JSON then
# --format text, on float forms of high degree with scaled coordinates
# 2, 1, .., 1, last: e1^60 + (e1+e2)^60, of real rank two, and e1^9999 +
# e2^9999 + (e1+e2)^9999, of border rank three.  Their Hankel matrices are
# ranked as they stand: weights up to 2^(d/2) would sink the end entries
# below the relative rank tolerance and give both rank one.
HIGH_DEGREE_FORM_DIGESTS = {
    (60, 1.0): {"binary-form": ("630edd0f4559cf0d1b0f2e1599cd9cede80d81330de65c789661f12698fb1a95",
                                "1087db8966becd426a1d26ddb28aeb5ff06d8d99fa2723525b94853ef3ab9a21"),
                "certify": ("4c972ae9cf2d8d3ed27b0a0a2406c679f97549c18c8a17e7fad64ceeefa4ee8d",
                            "33421a27db6a899e7fe0a7f95fbab978969b98fb9fb99c055acf8e733b8815f0")},
    (9999, 2.0): {"binary-form": ("df823075f3c0e611544157791b2545dac465a5ec705406cd8e7c23aa5cd3602d",
                                  "9aee7f5637dc4b217a4cfa8aba4c2658c55ce880402a8949ece37b4e72029017"),
                  "certify": ("22a30ff231940981410ccd4987384dcbe3defb875246e398d22f7811fbfaf31b",
                              "10caa13f0804f405ed516b8437b813026db371db4dd0ae3006e6e48aa11bfec3")},
}


@pytest.mark.parametrize("d, last", list(HIGH_DEGREE_FORM_DIGESTS))
def test_high_degree_float_binary_form_bytes(capsys, tmp_path, d, last):
    coords = [2.0] + [1.0] * (d - 1) + [last]
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 2, "d": d, "coeffs": {f"{d - i},{i}": v for i, v in enumerate(coords)}}))
    argvs = {"binary-form": ["binary-form", "--d", str(d), "--coords", ",".join(map(repr, coords))],
             "certify": ["certify", "--symmetric", "--file", str(path)]}
    for command, argv in argvs.items():
        digests = []
        for fmt in ("json", "text"):
            status, out, _ = run_cli(capsys, *argv, "--format", fmt)
            assert status == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(digests) == HIGH_DEGREE_FORM_DIGESTS[d, last][command]


def test_config_echo_on_stderr(capsys):
    """The echo holds the options the subcommand has, and only those."""
    _, _, err = run_cli(capsys, "table1")
    first = err.splitlines()[0]
    assert first.startswith("config: ")
    assert json.loads(first[len("config: "):]) == {"command": "table1", "format": "json"}
    _, _, err = run_cli(capsys, "curve-classify", "--curve", "monomial-quartic", "--point", "47,85/2,105/2,-43")
    resolved = json.loads(err.splitlines()[0][len("config: "):])
    assert resolved == {"command": "curve-classify", "curve": "monomial-quartic", "format": "json",
                        "point": "47,85/2,105/2,-43"}


def test_csv_rejected_outside_tabular_commands(capsys, conj_file):
    status, out, err = run_cli(capsys, "certify", "--file", conj_file,
                               "--format", "csv")
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: argument --format: invalid choice: 'csv' (choose from ")


def _read_recorder(values: dict) -> tuple[argparse.Namespace, set]:
    """A namespace holding `values`, and the set of names read from it."""
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return Recorder(**values), reads


# a small valid command line for each subcommand; {conj} is a 2x2x2 tensor file
MINIMAL_ARGV = {
    "certify": ["--file", "{conj}"],
    "decompose": ["--file", "{conj}"],
    "hyperdet": ["--file", "{conj}"],
    "quadrics": ["2", "5"],
    "binary-form": ["--d", "4", "--coords", "1,0,0,0,1"],
    "ideal": ["--d", "4"],
    "curve-classify": ["--curve", "monomial-quartic", "--point", "47,85/2,105/2,-43"],
    "curve-scan": ["--curve", "monomial-quartic", "--path", "crossing", "--nsamples", "2"],
    "table1": [],
}


def _subparsers() -> dict:
    [action] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_subcommand_offers_only_options_its_command_reads(conj_file, command):
    """An option the command never reads would change nothing and say
    nothing; `run` reads --format, the command every other option.  The
    csv choice is offered exactly where the command writes csv."""
    subparser = _subparsers()[command]
    offered = {a.dest for a in subparser._actions if a.dest != "help"}
    argv = [command] + [a.format(conj=conj_file) for a in MINIMAL_ARGV[command]]
    args, reads = _read_recorder(vars(cli.build_parser().parse_args(argv)))
    result = cli._COMMANDS[command](args)
    read = reads | {"format"}
    assert offered <= read, f"{command} offers {sorted(offered - read)} but never reads them"
    [format_action] = [a for a in subparser._actions if a.dest == "format"]
    assert ("csv" in format_action.choices) == (len(result) == 4)


@pytest.mark.parametrize("argv, error", [
    (["hyperdet", "--file", "{conj}", "--tol", "1e-3"], "error: unrecognized arguments: --tol 1e-3"),
    (["certify", "--file", "{conj}", "--seed", "5"], "error: unrecognized arguments: --seed 5"),
    (["binary-form", "--d", "4", "--coords", "1,0,0,0,1", "--seed", "1"], "error: unrecognized arguments: --seed 1"),
    (["quadrics", "2", "5", "--tol", "0.1"], "error: unrecognized arguments: --tol 0.1"),
    (["table1", "--seed", "1"], "error: unrecognized arguments: --seed 1"),
    (["decompose", "--file", "{conj}", "--seed", "5"], "error: unrecognized arguments: --seed 5"),
    (["curve-classify", "--curve", "monomial-quartic", "--point", "1,2,3,4", "--seed", "5"],
     "error: unrecognized arguments: --seed 5"),
    (["curve-scan", "--curve", "monomial-quartic", "--path", "crossing", "--seed", "5"],
     "error: unrecognized arguments: --seed 5"),
    (["curve-classify", "--curve", "monomial-quartic", "--point", "1,2,3,4", "--tol", "1e-3"],
     "error: unrecognized arguments: --tol 1e-3"),
    (["curve-scan", "--curve", "monomial-quartic", "--path", "crossing", "--tol", "1e-3"],
     "error: unrecognized arguments: --tol 1e-3"),
    (["certify", "--file", "{conj}", "--format", "csv"], "error: argument --format: invalid choice: 'csv'"),
])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, conj_file, argv, error):
    status, out, err = run_cli(capsys, *(a.format(conj=conj_file) for a in argv))
    assert (status, out) == (1, "")
    assert err.splitlines()[-1].startswith(error)


def test_unknown_flag_exits_one_not_two(capsys):
    status, _, err = run_cli(capsys, "table1", "--bogus")
    assert status == 1
    assert "error:" in err


def test_missing_file_reports_error(capsys):
    status, _, err = run_cli(capsys, "certify", "--file", "/nonexistent.json")
    assert status == 1
    assert err.splitlines()[-1].startswith("error:")


def test_bad_scan_arguments_exit_one(capsys):
    for argv in (
        ["curve-scan", "--curve", "monomial-quartic", "--path", "crossing",
         "--nsamples", "1"],
        ["curve-scan", "--curve", "monomial-quartic", "--path", "crossing",
         "--interval", "1"],
    ):
        status, _, err = run_cli(capsys, *argv)
        assert status == 1
        assert err.splitlines()[-1].startswith("error:")


@pytest.mark.parametrize("option, message", [("--nsamples=1", "need at least two samples"),
                                             ("--interval=1,0", "empty interval")])
def test_a_degenerate_scan_gets_a_typed_error(capsys, option, message):
    status, out, err = run_cli(capsys, "curve-scan", "--curve", "monomial-quartic", "--path", "crossing", option)
    assert (status, out) == (1, "")
    assert err.splitlines()[-1] == f"error: DegenerateScan: {message}"


QUARTIC_ROWS = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]


@pytest.mark.parametrize("argv, payload, message", [
    (["binary-form", "--d", "3", "--coords", ","], None, "error: no values in ','"),
    (["curve-scan", "--curve", "monomial-quartic", "--path"],
     {"coefficients": [[84, -74], [13, 59], [62, -19]]}, "error: path needs a 4 x 2 coefficient matrix"),
    (["curve-scan", "--curve", "monomial-quartic", "--path"],
     {"coefficients": [[84, -74], [13, 59], [62, -19], [-38, -10, 1]]},
     "error: path needs a 4 x 2 coefficient matrix"),
])
def test_no_coordinates_and_a_path_not_4_by_2_are_usage_errors(tmp_path, capsys, argv, payload, message):
    if payload is not None:
        path = tmp_path / "path.json"
        path.write_text(json.dumps(payload))
        argv = argv + [str(path)]
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (1, "")
    assert err.splitlines()[-1] == message


def test_curve_scan_labels_transitions_with_the_sextics_only_on_the_monomial_quartic(capsys, tmp_path):
    same, other = tmp_path / "same.json", tmp_path / "other.json"
    same.write_text(json.dumps({"d": 4, "F": QUARTIC_ROWS}))
    # s^2 t^2 in place of s t^3: another quartic spanning 3-space
    other.write_text(json.dumps({"d": 4, "F": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                                               [0, 0, 0, 0, 1]]}))
    scan = ("curve-scan", "--path", "crossing", "--nsamples", "5", "--curve")
    _, named, _ = run_cli(capsys, *scan, "monomial-quartic")
    assert {tr["surface"] for tr in json.loads(named)["transitions"]} == {"TANGENTIAL", "EDGE"}
    status, from_file, _ = run_cli(capsys, *scan, str(same))
    assert (status, from_file) == (0, named)
    # a nonzero multiple of F is the same curve and gets the same sextics;
    # with -3 F the secants' discriminants differ in their last digits
    for factor, same_bytes in ((2, True), (Fraction(1, 2), True), (-3, False)):
        multiple = tmp_path / "multiple.json"
        multiple.write_text(json.dumps({"d": 4, "F": [[str(factor * c) for c in row]
                                                      for row in QUARTIC_ROWS]}))
        status, out, _ = run_cli(capsys, *scan, str(multiple))
        assert status == 0
        if same_bytes:
            assert out == named
        else:
            assert json.loads(out)["transitions"] == json.loads(named)["transitions"]
    status, out, _ = run_cli(capsys, *scan, str(other))
    transitions = json.loads(out)["transitions"]
    assert status == 0 and transitions
    assert all(tr["kind"] == "UNLABELED" and tr["surface"] is None for tr in transitions)
    # the labels follow from the curve; there is no option to choose them
    status, out, err = run_cli(capsys, *scan, "monomial-quartic", "--fixtures", "none")
    assert (status, out) == (1, "")
    assert err.splitlines()[-1] == "error: unrecognized arguments: --fixtures none"


@pytest.mark.parametrize("argv, payload", [
    (["certify", "--file"], {"shape": [2, 2, 2], "entries": [1, 0, 0, 0, 0, 0, 0, float("inf")]}),
    (["certify", "--file"], {"shape": [2, 2, 2], "entries": [1, 0, 0, 0, 0, 0, 0, float("nan")]}),
    (["certify", "--symmetric", "--file"], {"n": 2, "d": 3, "coeffs": {"3,0": 1.0, "0,3": float("inf")}}),
    (["binary-form", "--d", "3", "--coords", "1e999,0,0,1"], None),
    (["curve-classify", "--curve", "monomial-quartic", "--point", "1,2,3,1e999"], None),
    (["curve-scan", "--path", "crossing", "--curve"],
     {"d": 4, "F": QUARTIC_ROWS[:3] + [[0, 0, 0, 0, float("inf")]]}),
    (["curve-scan", "--path", "crossing", "--curve"], {"d": float("nan"), "F": QUARTIC_ROWS}),
    (["curve-scan", "--curve", "monomial-quartic", "--path"],
     {"coefficients": [[84, -74], [13, 59], [62, float("nan")], [-38, -10]]}),
])
def test_non_finite_input_gets_no_verdict(tmp_path, capsys, argv, payload):
    if payload is not None:
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))  # inf and nan go out as Infinity / NaN
        argv = argv + [str(path)]
    status, out, err = run_cli(capsys, *argv)
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: NonFiniteEntry")


@pytest.mark.parametrize("argv, payload", [
    (["curve-scan", "--path", "crossing", "--curve"], {"d": 4.5, "F": QUARTIC_ROWS}),
    (["curve-scan", "--path", "crossing", "--curve"], {"d": True, "F": QUARTIC_ROWS}),
    (["curve-scan", "--path", "crossing", "--curve"],
     {"d": 4, "F": QUARTIC_ROWS[:3] + [[0, 0, 0, 0, True]]}),
    (["curve-scan", "--curve", "monomial-quartic", "--path"],
     {"coefficients": [[84, -74], [13, 59], [62, True], [-38, -10]]}),
    (["certify", "--file"], {"shape": [2, 2, 2], "entries": [True, 0, 0, 0, 0, 0, 0, 1]}),
    (["decompose", "--file"], {"shape": [2, 2, 2], "entries": [True, 0, 0, 0, 0, 0, 0, 1]}),
    (["certify", "--symmetric", "--file"], {"n": 2, "d": 3, "coeffs": {"3,0": True, "0,3": 1}}),
    (["certify", "--file"], {"shape": [True, 2, 2], "entries": [1, 0, 0, 1]}),
    (["certify", "--symmetric", "--file"], {"n": 2, "d": True, "coeffs": {"1,0": 1, "0,1": 2}}),
    (["certify", "--file"], {"shape": [2.5, 2, 2], "entries": [1, 0, 0, 1, 0, 0, 0, 1]}),
    (["decompose", "--file"], {"shape": [2, 2, 2.5], "entries": [1, 0, 0, 1, 0, 0, 0, 1]}),
    (["certify", "--symmetric", "--file"], {"n": 2, "d": 3.7, "coeffs": {"3,0": 1, "0,3": 1}}),
    (["certify", "--symmetric", "--file"], {"n": 2.5, "d": 3, "coeffs": {"3,0": 1, "0,3": 1}}),
    (["certify", "--file"], {"shape": [2, 2, 2], "entries": ["abc", 0, 0, 0, 0, 0, 0, 1]}),
    (["certify", "--file"], {"shape": [2, 2, 2], "entries": [[1], 0, 0, 0, 0, 0, 0, 1]}),
    (["certify", "--file"], {"shape": [2, 2, 2], "entries": [None, 0, 0, 0, 0, 0, 0, 1]}),
    (["certify", "--file"], {"shape": [2, 2, 2], "entries": 5}),
    (["certify", "--file"], [2, 2, 2]),
    (["certify", "--symmetric", "--file"], [2, 3]),
    (["certify", "--symmetric", "--file"], {"n": 2, "d": 3, "coeffs": {"a,b": 1}}),
    (["certify", "--symmetric", "--file"], {"n": 2, "d": 3, "coeffs": 5}),
    (["curve-scan", "--path", "crossing", "--curve"], {"d": 4, "F": 5}),
    (["curve-scan", "--path", "crossing", "--curve"], [4, QUARTIC_ROWS]),
    (["curve-scan", "--path", "crossing", "--curve"],
     {"d": 4, "F": QUARTIC_ROWS[:3] + [[0, 0, 0, 0, None]]}),
    (["curve-scan", "--curve", "monomial-quartic", "--path"], {"coefficients": 5}),
    # a path file is an object with "coefficients"; a bare list of rows is not read
    (["curve-scan", "--curve", "monomial-quartic", "--path"], [[84, -74], [13, 59], [62, 1], [-38, -10]]),
])
def test_malformed_tensor_curve_and_path_input_gets_no_verdict(tmp_path, capsys, argv, payload):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))  # True goes out as the JSON literal true
    status, out, err = run_cli(capsys, *argv, str(path))
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: MalformedEntry")


def test_shape_whose_entry_count_wraps_int64_gets_shape_mismatch(capsys, tmp_path):
    # 2^32 * 2^32 is 0 in int64 arithmetic, which matched the empty entry list
    path = tmp_path / "t.json"
    path.write_text('{"shape": [4294967296, 4294967296, 1], "entries": []}')
    status, out, err = run_cli(capsys, "certify", "--file", str(path))
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ShapeMismatch")


@pytest.mark.parametrize("command", ["certify", "hyperdet"])
@pytest.mark.parametrize("n, d", [(0, 3), (-1, 2), (2, -2), (0, -1)])
def test_symmetric_file_with_no_slots_or_a_negative_degree_gets_shape_mismatch(capsys, tmp_path, command, n, d):
    # n = 0 once recursed without end in multidegrees, and d < 0 reached math.comb
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"n": n, "d": d, "coeffs": {}}))
    status, out, err = run_cli(capsys, command, "--symmetric", "--file", str(path))
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: ShapeMismatch: need n >= 1 and d >= 0, got n={n}, d={d}"


@pytest.mark.parametrize("argv, message", [
    (("quadrics", "4", "10"), "the quadric basis for n=4, d=10 has more than 2000 generators"),
    (("quadrics", "6", "8"), "the quadric basis for n=6, d=8 has more than 2000 generators"),
    (("quadrics", "2", "66"), "the quadric basis for n=2, d=66 has more than 2000 generators"),
    (("quadrics", "2", "100000000"), "the quadric basis for n=2, d=100000000 has more than 2000 generators"),
    (("ideal", "--d", "400"), "the ideal for d=400 has 10745602 minors, more than 2000"),
    (("ideal", "--d", "60"), "the ideal for d=60 has 37642 minors, more than 2000"),
    (("ideal", "--d", "23"), "the ideal for d=23 has 2233 minors, more than 2000"),
])
def test_generator_sets_past_the_limit_are_refused_before_they_are_built(capsys, monkeypatch, argv, message):
    """A few bytes of argv cannot ask for unbounded work: past MAX_GENERATORS
    (2000; quadrics 4 6, the largest basis in use, has 1711) the count alone
    refuses the request."""
    monkeypatch.setattr(tb, "enumerate_tableaux", _unreachable)
    monkeypatch.setattr("realrank2.binary_forms.det_bareiss", _unreachable)
    start = time.perf_counter()
    status, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: TooManyGenerators: {message}"


def test_scan_past_the_sample_limit_is_refused_before_any_sample(capsys, monkeypatch):
    """Each sample costs about 1 ms, so --nsamples past MAX_SAMPLES (2000)
    is refused before a sample point is built."""
    limit = realrank2.space_curve.MAX_SAMPLES
    assert limit == 2000
    monkeypatch.setattr("realrank2.space_curve.as_fraction", _unreachable)
    monkeypatch.setattr("realrank2.space_curve.classify_point", _unreachable)
    status, out, err = run_cli(capsys, "curve-scan", "--curve", "monomial-quartic", "--path", "crossing",
                               "--nsamples", str(limit + 1))
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: TooManySamples: {limit + 1} samples, more than {limit}"


def test_symmetric_file_asking_for_too_many_coordinates_gets_no_verdict(capsys, tmp_path):
    path = tmp_path / "sym.json"
    path.write_text('{"n": 2, "d": 100000, "coeffs": {"100000,0": 1}}')
    assert path.stat().st_size == 48
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "certify", "--symmetric", "--file", str(path))
    assert time.perf_counter() - start < 2.0  # no multidegree is filled in
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: TooManyCoordinates")


@pytest.mark.parametrize("n, d, admitted", [(3, 8, True), (3, 9, False), (3, 11, False),
                                             (4, 6, True), (4, 7, False), (10, 4, True), (22, 3, False)])
def test_symmetric_tensor_too_large_to_expand_gets_no_verdict(capsys, tmp_path, monkeypatch, n, d, admitted):
    """`admitted` says whether the dense n^d array is within MAX_SYM_COORDS.
    certify reads catalecticants and never expands it, so each of these
    files gets a verdict in well under a second; one too large to expand
    gets no verdict from hyperdet, which does expand it."""
    keys = [",".join(str(d * (i == k)) for i in range(n)) for k in range(2)]
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"n": n, "d": d, "coeffs": {key: 1 for key in keys}}))
    if (n, d) == (3, 11):
        assert path.read_text() == '{"n": 3, "d": 11, "coeffs": {"11,0,0": 1, "0,11,0": 1}}'
        assert path.stat().st_size == 55
    monkeypatch.setattr(tn, "sym_to_tensor", _unreachable)
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "certify", "--symmetric", "--file", str(path))
    assert time.perf_counter() - start < 1.0  # nothing is expanded
    # e1^d + e2^d: the cubic discriminant is positive, every higher one zero
    assert status == 0 and json.loads(out)["verdict"] == ("REAL_RANK_TWO" if d == 3 else
                                                          "REAL_BORDER_RANK_TWO_BOUNDARY")
    if admitted:
        return
    monkeypatch.undo()
    monkeypatch.setattr(hd, "all_subhyperdets", _unreachable)
    status, out, err = run_cli(capsys, "hyperdet", "--symmetric", "--file", str(path))
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1] == (f"error: TooManyCoordinates: n={n}, d={d}: the dense tensor has "
                                    f"n^d = {n ** d} entries, more than 10000")


@pytest.mark.parametrize("n, d, quartics, rows, cols, labels", [
    (3, 139, 28359, 6, 9591, 9730), (4, 37, 46620, 10, 8436, 703), (6, 12, 30030, 21, 3003, 78),
    (3, 101, 14850, 6, 5050, 5151), (1, 245, 0, 1, 1, 30135)])
def test_symmetric_certificate_past_the_work_bound_gets_no_verdict(capsys, tmp_path, monkeypatch,
                                                                    n, d, quartics, rows, cols, labels):
    """Within MAX_SYM_COORDS coordinates, a file can still ask for more
    discriminant quartics, Cat(2, d-2) entries or flattening ranks (n = 1
    has one coordinate for every d) than MAX_SYMMETRIC_WORK (30000):
    refused before any catalecticant is built."""
    keys = [",".join(str(d * (i == k)) for i in range(n)) for k in range(min(n, 2))]
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"n": n, "d": d, "coeffs": {key: 1 for key in keys}}))
    monkeypatch.setattr(ce, "_catalecticant", _unreachable)
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "certify", "--symmetric", "--file", str(path))
    assert time.perf_counter() - start < 1.0
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1] == (f"error: TooManyCoordinates: n={n}, d={d}: {quartics} discriminant quartics, "
                                    f"{rows * cols} catalecticant entries ({rows} x {cols}) and {labels} "
                                    "flattening ranks; certification takes at most 30000 of each")


def test_symmetric_certificate_at_the_work_bound_gets_a_verdict(capsys, tmp_path):
    """n = 3, d = 100 has a 6 x 4950 Cat(2, d-2), just within the bound, and
    a binary form of degree 9999, the most coordinates a file may hold, a
    3 x 9998 Hankel matrix."""
    for n, d in ((3, 100), (2, 9999)):
        keys = [",".join(str(d * (i == k)) for i in range(n)) for k in range(2)]
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"n": n, "d": d, "coeffs": {key: 1 for key in keys}}))
        status, out, _ = run_cli(capsys, "certify", "--symmetric", "--file", str(path))
        assert status == 0 and json.loads(out)["verdict"] == "REAL_BORDER_RANK_TWO_BOUNDARY"


def _unreachable(*args, **kwargs):
    raise AssertionError("a refused input reached the computation")


@pytest.mark.parametrize("command", ["hyperdet", "decompose"])
@pytest.mark.parametrize("n, d", [(3, 9), (3, 11), (2, 14), (22, 3)])
def test_symmetric_tensor_too_large_to_expand_is_refused_by_every_command(
        capsys, tmp_path, monkeypatch, command, n, d):
    """hyperdet and decompose expand the dense n^d array, so they refuse it:
    the same message, exit 1 and nothing on stdout.  certify never expands,
    and gives the same file a verdict."""
    keys = [",".join(str(d * (i == k)) for i in range(n)) for k in range(2)]
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"n": n, "d": d, "coeffs": {key: 1 for key in keys}}))
    # a refusal that fails must not go on to sweep, certify or decompose the dense tensor
    monkeypatch.setattr(hd, "all_subhyperdets", _unreachable)
    monkeypatch.setattr(ce, "certify_symmetric", _unreachable)
    monkeypatch.setattr(dc, "_compress", _unreachable)
    start = time.perf_counter()
    status, out, err = run_cli(capsys, command, "--symmetric", "--file", str(path))
    assert time.perf_counter() - start < 1.0  # nothing is expanded
    assert status == 1
    assert out == ""
    message = f"error: TooManyCoordinates: n={n}, d={d}: the dense tensor has n^d = {n ** d} entries, more than 10000"
    assert err.splitlines()[-1] == message
    monkeypatch.undo()
    if n > 2:
        status, out, _ = run_cli(capsys, "certify", "--symmetric", "--file", str(path))
        assert status == 0 and json.loads(out)["verdict"] == ("REAL_RANK_TWO" if d == 3 else
                                                              "REAL_BORDER_RANK_TWO_BOUNDARY")


def test_symmetric_matrix_beyond_the_dense_limit_is_still_read(capsys, tmp_path):
    # d <= 2: n = 140 has 9870 coordinates and a 19600-entry matrix, which
    # is no larger than twice the coordinates and stays admitted
    n = 140
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"n": n, "d": 2, "coeffs": {",".join(str(2 * (i == k)) for i in range(n)): 1
                                                           for k in range(2)}}))
    status, out, _ = run_cli(capsys, "certify", "--symmetric", "--file", str(path))
    assert status == 0 and json.loads(out)["verdict"] == "REAL_RANK_TWO"
    status, _, err = run_cli(capsys, "hyperdet", "--symmetric", "--file", str(path))
    assert status == 1 and err.splitlines()[-1].startswith("error: ArityTooSmall")


@pytest.mark.parametrize("point, cause", [
    ("1e250,2,3,5", "complex exponentiation"),
    ("1e300,1,1,1", "complex exponentiation"),
    ("1e308,1,2,3", "integer division result too large for a float"),
    ("1,1e188,3,5", "a back-substitution value is not finite"),
    (f"7,{10 ** 200},6,8", "a back-substitution value is not finite"),
])
def test_far_out_query_point_reports_float_overflow(capsys, point, cause):
    """The secant system is exact, but its root finding runs in doubles: a
    point this far out overflows there and gets a typed error, not a verdict,
    with no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run_cli(capsys, "curve-classify", "--curve", "monomial-quartic", f"--point={point}")
    assert (status, out) == (1, "")
    assert "Warning" not in err
    assert err.splitlines()[-1] == ("error: FloatOverflow: the secant system at this point "
                                    f"overflows double precision ({cause})")


def test_repeated_main_calls_match_fresh_processes(capsys, conj_file):
    """One parser serves every main() call in a process: a usage error and
    --format text leave nothing behind for the calls after them."""
    src = str(Path(realrank2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (
        ["certify", "--file", conj_file, "--bogus"],
        ["certify", "--file", conj_file, "--format", "text"],
        ["decompose", "--file", conj_file],
        ["certify", "--file", conj_file],
    ):
        fresh = subprocess.run([sys.executable, "-m", "realrank2", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        status, out, err = run_cli(capsys, *argv)
        # stderr holds the resolved configuration, so an option left over shows there
        assert (status, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_library_prints_the_bytes_of_the_command(capsys, tmp_path):
    """classify_point and decompose_rank2 draw the elimination combinations
    and pencil rotations that curve-classify and decompose draw, so a caller
    of the library gets the command's stdout byte for byte: on the monomial
    quartic and two random integer curves, and on float tensors of each
    decomposition kind."""
    rng = random.Random(23)
    curves = [("monomial-quartic", sc.MONOMIAL_QUARTIC)]
    for d in (3, 5):
        rows = [[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(4)]
        path = tmp_path / f"curve{d}.json"
        path.write_text(json.dumps({"d": d, "F": rows}))
        curves.append((str(path), sc.CurveParam(d, rows)))
    for spec, curve in curves:
        for _ in range(3):
            u = [rng.randint(-20, 20) for _ in range(4)]
            status, out, _ = run_cli(capsys, "curve-classify", "--curve", spec, f"--point={','.join(map(str, u))}")
            assert status in (0, 2)
            assert out == jsontext.dumps(sc.classify_point(curve, u).to_json()) + "\n"

    gen = np.random.default_rng(23)
    tensors = [tn.outer([gen.standard_normal(n) for n in shape]) + tn.outer([gen.standard_normal(n) for n in shape])
               for shape in ((3, 3, 3), (2, 3, 4))]
    factors = [gen.standard_normal(2) + 1j * gen.standard_normal(2) for _ in range(3)]
    tensors.append(2.0 * tn.outer(factors).real)
    tensors.append(ce.tangential_witness([gen.standard_normal(2) for _ in range(3)],
                                         [gen.standard_normal(2) for _ in range(3)]))
    path = tmp_path / "t.json"
    for t in tensors:
        path.write_text(json.dumps(tn.tensor_to_json(t)))
        status, out, _ = run_cli(capsys, "decompose", "--file", str(path))
        assert status == 0
        assert out == jsontext.dumps(dc.decompose_rank2(t).to_json()) + "\n"


@pytest.mark.parametrize("argv", [["--help"], ["table1", "-h"], ["curve-scan", "--help"]])
def test_help_returns_status_zero_with_the_text_on_stdout(capsys, argv):
    """--help and -h end main with a status, not a SystemExit, so a caller
    that runs main many times goes on; the help text stays on stdout."""
    status, out, err = run_cli(capsys, *argv)
    assert (status, err) == (0, "")
    assert out.startswith(" ".join(["usage: realrank2", *argv[:-1]]))
    assert "-h, --help" in out


def test_help_of_a_fresh_process_is_the_in_process_help(capsys):
    src = str(Path(realrank2.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "realrank2", "--help"], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=60)
    status, out, err = run_cli(capsys, "--help")
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (status, out, err) == (0, out, "")


def _float_overflow_inputs(tmp_path) -> dict[str, list[str]]:
    files = {
        "tensor": {"shape": [2, 2, 2], "entries": [1e80] * 8},
        "cubic": {"n": 3, "d": 3, "coeffs": {"3,0,0": 1e120, "0,3,0": 1, "0,0,3": 1, "1,1,1": 1}},
        "quartic": {"n": 2, "d": 4, "coeffs": {"4,0": 1e200, "0,4": 1e200}},
    }
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    binary = ["binary-form", "--d", "4", "--coords", "1e200,0,0,0,1e200"]
    return {
        "certify": ["certify", "--file", str(tmp_path / "tensor.json")],
        "hyperdet": ["hyperdet", "--file", str(tmp_path / "tensor.json")],
        "decompose": ["decompose", "--file", str(tmp_path / "tensor.json")],
        "binary-form": binary,
        "binary-form-plain": binary + ["--plain-coeffs"],
        "certify-symmetric": ["certify", "--symmetric", "--file", str(tmp_path / "cubic.json")],
        "decompose-symmetric": ["decompose", "--symmetric", "--file", str(tmp_path / "quartic.json")],
    }


@pytest.mark.parametrize("case", ["certify", "hyperdet", "decompose", "binary-form", "binary-form-plain",
                                  "certify-symmetric", "decompose-symmetric"])
def test_a_zero_threshold_past_double_range_gets_a_typed_error(capsys, tmp_path, case):
    """Entries past about 1e77 overflow the float zero threshold
    1e-10 (1 + max|t|)^4: no verdict, and a package error, not Python's
    OverflowError."""
    status, out, err = run_cli(capsys, *_float_overflow_inputs(tmp_path)[case])
    assert (status, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: ZeroTolOverflow: the zero threshold (1 + max|t|)^4 "
                                           "overflows a double at max|t| = 1e+")
    assert issubclass(hd.ZeroTolOverflow, ArithmeticError)


@pytest.mark.parametrize("argv, error", [
    (["curve-classify", "--curve", "monomial-quartic", "--point", "1,2,3"], "DegenerateQuery"),
    (["curve-classify", "--curve", "monomial-quartic", "--point", "1,2,3,nan"], "MalformedEntry"),
    (["binary-form", "--d", "3", "--coords", "1,abc,0,1"], "MalformedEntry"),
    (["binary-form", "--d", "3", "--coords", "1/0,0,0,1"], "MalformedEntry"),
    (["quadrics", "0", "4"], "BadShape"),
    (["quadrics", "-2", "5"], "BadShape"),
])
def test_malformed_command_line_numbers_get_typed_errors(capsys, argv, error):
    status, out, err = run_cli(capsys, *argv)
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1].startswith(f"error: {error}:")


@pytest.mark.parametrize("tol", ["nan", "inf", "1e400", "-1", "1"])
@pytest.mark.parametrize("command", ["certify", "binary-form"])
def test_tolerance_outside_zero_to_one_is_a_usage_error(capsys, tmp_path, command, tol):
    """A tolerance of nan, inf or 1 or more makes every singular value count
    as zero, so it would decide the verdict; it gets none."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": [2, 2, 2], "entries": [1.0, 0, 0, 0, 0, 0, 0, 1]}))
    argv = {"certify": ["certify", "--file", str(path)],
            "binary-form": ["binary-form", "--d", "4", "--coords", "1.0,0,0,0,1"]}[command]
    status, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: argument --tol: must be a finite number in [0, 1), not {tol!r}"


def test_exact_and_float_mix_reads_as_floats_in_every_file(capsys, tmp_path):
    """One number rule: a "num/den" string next to a float reads as a float,
    in tensor files as in symmetric files."""
    payloads = {
        "mixed": {"shape": [2, 2, 2], "entries": ["1/2", 0, 0, 0, 0, 0, 0, 1.5]},
        "floats": {"shape": [2, 2, 2], "entries": [0.5, 0, 0, 0, 0, 0, 0, 1.5]},
        "sym_mixed": {"n": 2, "d": 3, "coeffs": {"3,0": "1/2", "0,3": 1.5}},
        "sym_floats": {"n": 2, "d": 3, "coeffs": {"3,0": 0.5, "0,3": 1.5}},
    }
    outs = {}
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        flag = ["--symmetric"] if name.startswith("sym") else []
        status, outs[name], _ = run_cli(capsys, "certify", *flag, "--file", str(path))
        assert status == 0
    assert outs["mixed"] == outs["floats"]
    assert outs["sym_mixed"] == outs["sym_floats"]
    assert json.loads(outs["mixed"])["verdict"] == "REAL_RANK_TWO"


def test_decompose_certifies_the_exact_tensor(capsys, tmp_path):
    """A float copy of 1/10^10 passes as a real pair within 1e-8; the exact
    tensor has border rank three, and decompose says so as certify does."""
    entries = [0] * 27
    entries[0], entries[13], entries[26] = 1, 1, "1/10000000000"
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"shape": [3, 3, 3], "entries": entries}))
    status, out, _ = run_cli(capsys, "certify", "--file", str(path))
    assert status == 0
    assert json.loads(out)["verdict"] == "BORDER_RANK_EXCEEDS_TWO"
    status, out, err = run_cli(capsys, "decompose", "--file", str(path))
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: NotRankTwo:")


# 2 Re((l + i eta m)^4) at eta = 7.5e-5: its dense 2 x 8 flattenings read
# rank one at 1e-8, its 3 x 3 Hankel matrix rank two
NEAR_RANK_ONE_QUARTIC = [0.7799013643587536, 0.6048047370044142, 0.4690192611408307,
                         0.3637191458883706, 0.28206008808247574]


def test_near_rank_one_quartic_decomposes_under_its_symmetric_certificate(capsys, tmp_path):
    """decompose --symmetric is gated by certify --symmetric's certificate,
    so the quartic both certify and binary-form read as a border-rank-two
    conjugate form decomposes as a conjugate pair."""
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"n": 2, "d": 4, "coeffs": {f"{4 - i},{i}": x
                                                           for i, x in enumerate(NEAR_RANK_ONE_QUARTIC)}}))
    status, out, _ = run_cli(capsys, "certify", "--symmetric", "--file", str(path))
    assert status == 0 and json.loads(out)["verdict"] == "REAL_BORDER_RANK_TWO_BOUNDARY"
    status, out, _ = run_cli(capsys, "binary-form", "--d", "4", "--coords", ",".join(map(repr, NEAR_RANK_ONE_QUARTIC)))
    assert status == 0 and json.loads(out)["strata"] == "cpx"
    status, out, _ = run_cli(capsys, "decompose", "--symmetric", "--file", str(path))
    assert status == 0
    payload = json.loads(out)
    assert payload["kind"] == "CONJUGATE_PAIR"
    assert payload["residual"] < 1e-12


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 2), (4, 0)])
@pytest.mark.parametrize("value", [1, 0.5])
def test_decompose_symmetric_below_order_three_is_refused(capsys, tmp_path, n, d, value):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"n": n, "d": d, "coeffs": {",".join(str(d * (i == k)) for i in range(n)): value
                                                           for k in range(n)}}))
    status, out, err = run_cli(capsys, "decompose", "--symmetric", "--file", str(path))
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1] == "error: ArityTooSmall: certification needs an order >= 3 tensor"


# ------------------------------------------------ float sub-block reports
# certify prints every sub-block hyperdeterminant of a float tensor: 3456 on
# 4^4 and 5376 on 2^9.  One seeded tensor per family, pinned by digest.

def _family_tensor(family: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "generic":
        return rng.standard_normal(shape)
    us = [rng.standard_normal(n) for n in shape]
    vs = [rng.standard_normal(n) for n in shape]
    if family == "rank-one":
        return tn.outer(us)
    if family == "real":
        return tn.outer(us) + tn.outer(vs)
    if family == "conjugate":
        return 2.0 * tn.outer([u + 1j * v for u, v in zip(us, vs)]).real
    return ce.tangential_witness(us, vs)


@pytest.mark.parametrize("family, shape, seed, verdict, digest", [
    ("real", (4,) * 4, 11, "REAL_RANK_TWO",
     "68920cf14e625fe9b5911ec120683eef64b27791672ef55b42326ec0cd734f4b"),
    ("conjugate", (4,) * 4, 12, "COMPLEX_RANK_TWO_REAL_RANK_HIGHER",
     "ce3b80323a91709631bdc0bf4502bf577d0974c36b65ea32bc5480c3c43b9af1"),
    ("tangential", (4,) * 4, 13, "REAL_BORDER_RANK_TWO_BOUNDARY",
     "9aec5a5fe8a644aad99e2bf7cce39a4a0f257a5f44752d03f86da8ec32cf06d1"),
    ("rank-one", (4,) * 4, 14, "RANK_AT_MOST_ONE",
     "7f9f923f076639d9c272f5b242f5d46e02fe430339b0bc68761e175d12e0ce82"),
    ("generic", (4,) * 4, 15, "BORDER_RANK_EXCEEDS_TWO",
     "bc97141b963a52184dd04eb9322dc4b776a24cfb27e4e51b06e6f5ec6483ad76"),
    ("real", (2,) * 9, 21, "REAL_RANK_TWO",
     "07d47f12655a87ec2e7d9dbc561a2e786d45c1ba4fc6c3500fbaac673270b6eb"),
    ("conjugate", (2,) * 9, 22, "COMPLEX_RANK_TWO_REAL_RANK_HIGHER",
     "ca29627f12bd2a90dd7267ac851d1d4d4e9832841cf39a63db29b7209a9a6d55"),
    ("tangential", (2,) * 9, 23, "REAL_BORDER_RANK_TWO_BOUNDARY",
     "c1178d03da3f8d6121687c0ca0aca862641eb903206e9a5ce0cfe42ec8743025"),
    ("rank-one", (2,) * 9, 24, "RANK_AT_MOST_ONE",
     "517ce4dfd0288487a8d32224488679717b77bf66d63b0af0e3f6fffee4d36e74"),
    ("generic", (2,) * 9, 25, "BORDER_RANK_EXCEEDS_TWO",
     "8707b46b72ca971497010a30ce665cf422d5c9eeaaefa99e4c969792a2a254e6"),
])
def test_float_certify_stdout_bytes(capsys, tmp_path, family, shape, seed, verdict, digest):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tn.tensor_to_json(_family_tensor(family, shape, seed))))
    status, out, _ = run_cli(capsys, "certify", "--file", str(path))
    assert status == 0
    report = json.loads(out)
    assert report["verdict"] == verdict
    assert len(report["hyperdet"]["values"]) == {(4,) * 4: 3456, (2,) * 9: 5376}[shape]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Entries near 1e77 overflow the quartic of some sub-blocks to inf, or to
# inf - inf = NaN.  A NaN compares false both ways, so it counts as zero;
# the minimum is the first value unless that is NaN, then the first least
# of the others.  Scale-free certification (ROADMAP item 1) replaces these.
OVERFLOW_ENTRIES = {
    "inf-nan-nan": [1.1e77, 1.1e77, -1.1e77, 1.1e77, 3e76, -1.1e77,
                    1.1e77, -2e76, -1.1e77, 3e76, 1.1e77, -1.1e77],
    "nan-inf-inf": [-2e76, 3e76, 3e76, -1.1e77, -1.1e77, 1.1e77,
                    1.1e77, 1.1e77, 1.1e77, -2e76, 3e76, -2e76],
}


@pytest.mark.parametrize("name, command, values, min_value, digest", [
    ("inf-nan-nan", "hyperdet", "inf nan nan", "inf",
     "8fb7bf7ac0084eeae51b71a22202d622e9f5a402a06be930afdcee3955a9fe09"),
    ("inf-nan-nan", "certify", "inf nan nan", "inf",
     "cc89f99a568ed1f9c18dddfeeae5b15fcf51527c0b2ca712a9999025133f5ec5"),
    ("nan-inf-inf", "hyperdet", "nan inf inf", "nan",
     "6e6701dbcb47763e609c2f8f075c5dae1c5b4bc48f269fc849167f9dc1066f2f"),
    ("nan-inf-inf", "certify", "nan inf inf", "nan",
     "fd41d88e6b3db12f7c35ff9a0af9aaa47687e1e563a5fb5fc8078dfeb0b7f7a1"),
])
def test_overflowing_subblock_report_bytes(capsys, tmp_path, name, command, values, min_value, digest):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": [2, 2, 3], "entries": OVERFLOW_ENTRIES[name]}))
    status, out, _ = run_cli(capsys, command, "--file", str(path))
    assert status == 0
    report = json.loads(out)
    report = report.get("hyperdet", report)
    assert [repr(v["value"]) for v in report["values"]] == values.split()
    assert repr(report["min_value"]) == min_value
    assert report["argmin"] == report["values"][0]["selector"]
    assert (report["num_positive"], report["num_zero"]) == ((1, 2) if values.startswith("inf") else (2, 1))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# An exact report whose value column mixes ints (a sub-block of integer
# entries) and "n/d" strings (sub-blocks with a fraction), as the hyperdet
# command prints it; min_value is an int.
EXACT_MIXED_HYPERDET = """\
{
  "values": [
    {
      "selector": "modes[1:(0,1),2:(0,1),3:(0,1)]",
      "value": -255
    },
    {
      "selector": "modes[1:(0,1),2:(0,1),3:(0,2)]",
      "value": "249/16"
    },
    {
      "selector": "modes[1:(0,1),2:(0,1),3:(1,2)]",
      "value": "160/9"
    }
  ],
  "min_value": -255,
  "argmin": "modes[1:(0,1),2:(0,1),3:(0,1)]",
  "num_positive": 2,
  "num_zero": 0,
  "num_negative": 1,
  "zero_tol": 0
}
"""


def test_exact_subblock_report_with_ints_and_fractions_bytes(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": [2, 2, 3],
                                "entries": [1, -2, "1/2", 3, 1, 0, 2, 0, "-2/3", -1, 5, "3/4"]}))
    status, out, _ = run_cli(capsys, "hyperdet", "--file", str(path))
    assert status == 0
    assert out == EXACT_MIXED_HYPERDET


# Sweep plans of shapes the benchmark never sends: a mode of size 1 (its
# blocks carry a fixed index 0), mixed sizes in and out of mode order, and
# an exact 2^6.  Pinned by the digest of the hyperdet command's JSON.
@pytest.mark.parametrize("family, shape, seed, blocks, digest", [
    ("real", (3, 1, 2, 2), 31, 3,
     "a1108018d4117f5fdef14343cbe5e5d3b649ab915f6e0ad4e4383adbe8025827"),
    ("generic", (2, 3, 4), 32, 18,
     "a91929fac5af8250189c08ec2ae317013b7fc1eac18a2f23b390cd76b136613f"),
    ("conjugate", (5, 2, 2, 3), 33, 165,
     "e5d7638abc1059d530897eab8d88e7ff5897cde347b29eab3551063d6e3a6a88"),
    ("exact", (2,) * 6, 34, 160,
     "a199a5723b2642f7f5d1f81938c953d9a557edf36bce4ad1f5d77f61c0cad966"),
])
def test_hyperdet_stdout_bytes_on_unbenchmarked_shapes(capsys, tmp_path, family, shape, seed, blocks, digest):
    if family == "exact":
        entries = np.random.default_rng(seed).integers(-9, 10, size=int(np.prod(shape))).tolist()
        t = tn.tensor(shape, entries)
    else:
        t = _family_tensor(family, shape, seed)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tn.tensor_to_json(t)))
    status, out, _ = run_cli(capsys, "hyperdet", "--file", str(path))
    assert status == 0
    assert len(json.loads(out)["values"]) == blocks
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Exact tensors on both sides of the int64 sweep's bound B = 24898 (the
# largest B with 24·B^4 <= 2^63 - 1), past 2^63, and of Fractions only.
# "tied-at-bound" repeats its mode-3 slices, so four blocks share the least
# value and two are zero.  Pinned by the digest of each command's stdout.
SWEEP_BOUND = 24898
B, B1 = SWEEP_BOUND, SWEEP_BOUND + 1
EXACT_SWEEP_TENSORS = {
    "at-bound": ([2, 2, 2], [B, B, B, B, B, -B, -B, B]),
    "past-bound": ([2, 2, 2], [B1, B1, B1, B1, B1, -B1, -B1, B1]),
    "past-2^63": ([2, 2, 2], [10**21, 3, -7 * 10**20, 10**21 + 1, 5, -10**21, 2 * 10**20 + 7, 10**21 - 3]),
    "tied-at-bound": ([2, 2, 4], [B, 5, B, 5, -3, B, -3, B, 7, -B, 7, -B, B, 11, B, 11]),
    "fraction": ([2, 2, 2], ["1/2", "-3/4", "2/3", "1/5", "-5/7", "3", "1/9", "-2"]),
}


@pytest.mark.parametrize("name, argv, digest", [
    ("at-bound", ("hyperdet",),
     "4d17dfad02b697c4bac93e9882387cfeeeda449d0d84c8fd9c7426c6cf06b665"),
    ("at-bound", ("hyperdet", "--format", "text"),
     "6351a68326616bb5a667f584b7733d28173f903c00b129865411dcab385f52ec"),
    ("at-bound", ("certify",),
     "8524af78f487b93f419c70ee8b2362e92fbb7dbfea8cd4078cba09542616262a"),
    ("past-bound", ("hyperdet",),
     "00265d14b3849d12ef6568403a9c2d3f05612c577df26bacb128403d50323134"),
    ("past-bound", ("hyperdet", "--format", "text"),
     "969020964eea0e95b343c8b75d9e7f35ce07e3ef0b9788cb80e6d699b2d37d0f"),
    ("past-bound", ("certify",),
     "1481a0f6f2cc8f534a90bf9a85d7b3e923f633513bbf81292f1633f4dbdef9ba"),
    ("past-2^63", ("hyperdet",),
     "88852ced4590809ad90a389f60a0fe83e8090690a407eca17b22c8a0e47c817e"),
    ("past-2^63", ("hyperdet", "--format", "text"),
     "ee0552dbe1a33ffee53f0fbf53bf0c999ab5ae927bfa628ad3c265caa93978e7"),
    ("past-2^63", ("certify",),
     "b816d0e84ed6f46115ef5d618692534f09f60bb46851434024e3ba6c9a0f0811"),
    ("tied-at-bound", ("hyperdet",),
     "39aecd6c753f87bc076b823602761ccbab351d6f6ad38c2117acb645a76831bc"),
    ("tied-at-bound", ("hyperdet", "--format", "text"),
     "a8483bf966fe44e8ef91fcc695f1b60889d8b07fd81bea05357a0e8cac2800a7"),
    ("tied-at-bound", ("certify",),
     "56ee9bfa8adfed3f48187dc1a89060dbbce3450338dce7c20e40ba9a5ae93ca0"),
    ("fraction", ("hyperdet",),
     "b53d092423f2969e9a0de05ee924bce3dcaa8d7266fa8e96db940ede647bc9e3"),
    ("fraction", ("hyperdet", "--format", "text"),
     "1996a0150b06d4cf5a06e4ee93c4e7b9c639f643cf972d1fe1c30a68f886f34c"),
    ("fraction", ("certify",),
     "1bc34b028311b12bfdf9bc422b1c28bc895628357cd3b439107be8aeaddc57e9"),
])
def test_exact_sweep_stdout_bytes_across_the_int64_bound(capsys, tmp_path, name, argv, digest):
    shape, entries = EXACT_SWEEP_TENSORS[name]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": shape, "entries": entries}))
    status, out, _ = run_cli(capsys, argv[0], "--file", str(path), *argv[1:])
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, dtype", [
    ("at-bound", np.int64), ("past-bound", object), ("past-2^63", object), ("fraction", object)])
def test_hyperdet_file_sweeps_python_ints_in_int64_and_fractions_unscaled(monkeypatch, capsys, tmp_path,
                                                                          name, dtype):
    shape, entries = EXACT_SWEEP_TENSORS[name]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": shape, "entries": entries}))
    want = tn.num_json(hd.hyperdet222(tn.tensor(shape, entries)))  # unscaled, in the entries' type
    seen, quartic = [], hd._quartic
    monkeypatch.setattr(hd, "_quartic", lambda *rows: seen.append(rows[0].dtype) or quartic(*rows))
    status, out, _ = run_cli(capsys, "hyperdet", "--file", str(path))
    assert status == 0 and seen == [np.dtype(dtype)]
    assert json.loads(out)["values"][0]["value"] == want


# Exact flattening ranks near the int64 Gram bound: a wide flattening (r < c)
# is ranked on its r x r Gram matrix, in int64 only when c * B^2 <= 2^63 - 1
# (B = max |entry|).  Both shapes below have 64-column single-mode
# flattenings, whose edge is B = isqrt((2^63 - 1) // 64); the 2^7's merged
# 4 x 32 flattenings stay in int64 past it.  Each tensor is B times a
# (1, -1)-power minus e_1 x ... x e_1, so the diagonal of every Gram matrix
# sits within 2B of c * B^2; "rank-3" adds a third term.  Pinned by the
# digest of `certify`'s stdout.
GRAM_BOUND_64 = 379625062


def _gram_edge(shape, b, third=False):
    signs = tn.outer([np.array([1, -1] * (n // 2), dtype=object) for n in shape])
    entries = (b * signs).ravel().tolist()
    entries[0] -= 1
    if third:  # plus e_2 x ... x e_2: merged flattenings of rank 3
        entries[-1] += 1
    return list(shape), entries


def _fraction_pair():
    # a real rank-two 2 x 2 x 4 with Fraction factors, written as "n/d"
    a = tn.outer([np.array([Fraction(1, 2), Fraction(-2, 3)], dtype=object),
                  np.array([Fraction(3, 5), 1], dtype=object),
                  np.array([1, Fraction(1, 7), Fraction(-5, 4), 2], dtype=object)])
    b = tn.outer([np.array([1, Fraction(1, 3)], dtype=object),
                  np.array([Fraction(-1, 2), Fraction(7, 9)], dtype=object),
                  np.array([Fraction(2, 11), 0, 1, Fraction(-3, 2)], dtype=object)])
    return [2, 2, 4], [str(v) for v in (a + b).ravel()]


GRAM_TENSORS = {
    "2^7-at-bound": _gram_edge((2,) * 7, GRAM_BOUND_64),
    "2^7-past-bound": _gram_edge((2,) * 7, GRAM_BOUND_64 + 1),
    "2^7-past-bound-rank-3": _gram_edge((2,) * 7, GRAM_BOUND_64 + 1, third=True),
    "4^4-at-bound": _gram_edge((4,) * 4, GRAM_BOUND_64),
    "4^4-at-bound-rank-3": _gram_edge((4,) * 4, GRAM_BOUND_64, third=True),
    "4^4-past-bound": _gram_edge((4,) * 4, GRAM_BOUND_64 + 1),
    "fraction-2x2x4": _fraction_pair(),
}


@pytest.mark.parametrize("name, digest", [
    ("2^7-at-bound",
     "74b82ed73c51d318cbd40058fc685b599d7b9257fa5fb8e717d402ff38deaebe"),
    ("2^7-past-bound",
     "02f57c143f1781bb545ad618a433bca91002f898a6e18034f413bc60408f0b7e"),
    ("2^7-past-bound-rank-3",
     "b569adbba300fabf7d8f8cdaa1644bd9d559113916d738bd37148e6f1e221b80"),
    ("4^4-at-bound",
     "62ef0b946bb67d1c9e35ee2d7b346502472dbf114d54fe4c1f81a045db41ee5b"),
    ("4^4-at-bound-rank-3",
     "9db998edbb1c1781f4ffe75ad6a0f189a53d5f7c6ee47d01fd49461a9a800323"),
    ("4^4-past-bound",
     "be1d37ad7a971d0143d41cc29404a73c8c8172c9dac0f9cfe98091f598d95edc"),
    ("fraction-2x2x4",
     "4e7954bd8ba92a3c637e95ee282cc5de2578350ae1dd7319df919935eadd6886"),
])
def test_exact_flattening_rank_stdout_bytes_across_the_gram_bound(capsys, tmp_path, name, digest):
    shape, entries = GRAM_TENSORS[name]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": shape, "entries": entries}))
    status, out, _ = run_cli(capsys, "certify", "--file", str(path))
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a degree-6 binary form has a 3 x 5 Hankel matrix, ranked on its Gram matrix
@pytest.mark.parametrize("coords, digest", [
    ("2,3,5,9,17,33,65",
     "1c151b334d5eb66e8f11283a672afb17ac2be236e27182e13bc4fc9ff36ed086"),
    ("1/2,-3,2/7,5,-1,4/3,9",
     "8ba7d0db1430b76d2e64ab1fea60ffcd0ec8d1b0288046c361dd34a965aa3985"),
])
def test_binary_form_degree_six_stdout_bytes(capsys, coords, digest):
    status, out, _ = run_cli(capsys, "binary-form", "--d", "6", "--coords=" + coords)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
