"""Pinned serialized output: the exact text of every to_json form, of
the certify, hyperdet and binary-form commands on exact input, of certify
on each certification branch (float and exact), and of the decompose
command on one float tensor per branch (and a sha256 census of
decompose over seeded tensors) and on symmetric forms, float and exact,
of curve-classify and curve-scan (and a
sha256 of the default crossing scan in JSON and CSV);
also the quintic alternative test's answers, float and exact.

The report objects are built by hand, so nothing here depends on LAPACK
except the decompose and curve goldens, which pin its float digits.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from realrank2 import binary_forms as bf
from realrank2 import certify as ce
from realrank2 import decompose as dc
from realrank2 import hyperdet as hd
from realrank2 import space_curve as sc
from realrank2 import tensors as tn
from realrank2.cli import main

EXACT_REPORT = hd.HyperdetReport([("a", Fraction(3, 4)), ("b", -2), ("c", Fraction(0))],
                                 -2, "b", 1, 1, 1, 0)
FLOAT_REPORT = hd.HyperdetReport([("x", 1.5), ("y", np.float64(-1e-20))],
                                 np.float64(-1e-20), "y", 1, 1, 0, 1.6000000000000003e-09)

EXACT_REPORT_JSON = (
    '{"values": [{"selector": "a", "value": "3/4"}, {"selector": "b", "value": -2}, '
    '{"selector": "c", "value": "0"}], "min_value": -2, "argmin": "b", '
    '"num_positive": 1, "num_zero": 1, "num_negative": 1, "zero_tol": 0}'
)
FLOAT_REPORT_JSON = (
    '{"values": [{"selector": "x", "value": 1.5}, {"selector": "y", "value": -1e-20}], '
    '"min_value": -1e-20, "argmin": "y", "num_positive": 1, "num_zero": 1, '
    '"num_negative": 0, "zero_tol": 1.6000000000000003e-09}'
)


def test_hyperdet_report_json():
    assert json.dumps(EXACT_REPORT.to_json()) == EXACT_REPORT_JSON
    assert json.dumps(FLOAT_REPORT.to_json()) == FLOAT_REPORT_JSON


def test_certificate_json_exact_and_float_tolerances():
    exact = ce.Certificate({"mode_1": 2, "mode_2": 2, "mode_3": 1}, 2, EXACT_REPORT,
                           ce.Verdict.REAL_RANK_TWO, {"rank_tol": "exact", "hyperdet_zero_tol": 0})
    assert json.dumps(exact.to_json()) == (
        '{"verdict": "REAL_RANK_TWO", "flattening_ranks": {"mode_1": 2, "mode_2": 2, "mode_3": 1}, '
        '"max_flattening_rank": 2, "hyperdet": ' + EXACT_REPORT_JSON + ', '
        '"tolerances": {"rank_tol": "exact", "hyperdet_zero_tol": 0}}'
    )
    floats = ce.Certificate({"matrix": 3}, 3, FLOAT_REPORT, ce.Verdict.BORDER_RANK_EXCEEDS_TWO,
                            {"rank_tol": 1e-8, "hyperdet_zero_tol": 1.6000000000000003e-09})
    assert json.dumps(floats.to_json()) == (
        '{"verdict": "BORDER_RANK_EXCEEDS_TWO", "flattening_ranks": {"matrix": 3}, '
        '"max_flattening_rank": 3, "hyperdet": ' + FLOAT_REPORT_JSON + ', '
        '"tolerances": {"rank_tol": 1e-08, "hyperdet_zero_tol": 1.6000000000000003e-09}}'
    )


def test_binary_form_verdict_json():
    verdict = bf.BinaryFormVerdict(2, [Fraction(-27, 4), 3, 0.5, np.int64(-1)],
                                   ce.Verdict.COMPLEX_RANK_TWO_REAL_RANK_HIGHER, None)
    assert json.dumps(verdict.to_json()) == (
        '{"hankel_rank": 2, "d_values": ["-27/4", 3, 0.5, -1], '
        '"verdict": "COMPLEX_RANK_TWO_REAL_RANK_HIGHER", "strata": null}'
    )


def test_tensor_to_json_entries():
    mixed = np.array([1, Fraction(1, 2), 0.25, np.int64(7), Fraction(-6, 2), -0.0],
                     dtype=object).reshape(3, 2)
    assert json.dumps(tn.tensor_to_json(mixed)) == (
        '{"shape": [3, 2], "entries": [1, "1/2", 0.25, 7, "-3", -0.0]}')
    floats = np.array([[1.0, -2.5], [1e-300, 3.0]])
    assert json.dumps(tn.tensor_to_json(floats)) == (
        '{"shape": [2, 2], "entries": [1.0, -2.5, 1e-300, 3.0]}')


def test_rank_one_term_json():
    real = dc.RankOneTerm(2.5, [np.array([0.6, 0.8]), np.array([1.0, 0.0])])
    assert json.dumps(real.to_json()) == '{"weight": 2.5, "factors": [[0.6, 0.8], [1.0, 0.0]]}'
    negative = dc.RankOneTerm(np.float64(-0.5), [np.array([0.6, 0.8])])
    assert json.dumps(negative.to_json()) == '{"weight": -0.5, "factors": [[0.6, 0.8]]}'
    conj = dc.RankOneTerm(complex(0.25, -1.5),
                          [np.array([0.6 + 0.8j, 0.0 - 1j]), np.array([1.0, 0.0])])
    assert json.dumps(conj.to_json()) == (
        '{"weight": {"re": 0.25, "im": -1.5}, '
        '"factors": [{"re": [0.6, 0.0], "im": [0.8, -1.0]}, [1.0, 0.0]]}')


def test_secant_solution_json():
    # curve points are read off the curve at the roots when printed: the
    # monomial quartic at (±i : 1) is (1, ∓i, ±i, 1) / 2, and no roots
    # give none
    conj = sc.SecantSolution((0.6, -0.8, 0.0), 0.64, sc.CONJUGATE_POINTS,
                             ((complex(0.0, 1.0), 1.0), (complex(0.0, -1.0), 1.0)),
                             sc.MONOMIAL_QUARTIC, 1e-15, None, 2)
    assert json.dumps(conj.to_json()) == (
        '{"abc": [0.6, -0.8, 0.0], "discriminant": 0.64, "contact": "CONJUGATE_POINTS", '
        '"roots": [[{"re": 0.0, "im": 1.0}, 1.0], [{"re": 0.0, "im": -1.0}, 1.0]], '
        '"curve_points": [[{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": -0.5}, {"re": 0.0, "im": 0.5}, '
        '{"re": 0.5, "im": 0.0}], [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 0.5}, '
        '{"re": 0.0, "im": -0.5}, {"re": 0.5, "im": 0.0}]], '
        '"residual": 1e-15, "line_norm": null, "multiplicity": 2}')
    real = sc.SecantSolution((0.6, -0.8, 0.0), 0.64, sc.TWO_REAL_POINTS, (), sc.MONOMIAL_QUARTIC, 0.0, 2.5, 1)
    assert json.dumps(real.to_json()) == (
        '{"abc": [0.6, -0.8, 0.0], "discriminant": 0.64, "contact": "TWO_REAL_POINTS", '
        '"roots": [], "curve_points": [], '
        '"residual": 0.0, "line_norm": 2.5, "multiplicity": 1}')


# ------------------------------------------------------------- CLI goldens

FRACTION_TENSOR = {"shape": [2, 2, 3],
                   "entries": ["1/2", 0, "-2/3", 0, "3/4", 1, 0, "5/6", 2, "-1/5", 0, "7/3"]}
# all entries even: exact certification must not divide out the common factor
EVEN_TENSOR = {"shape": [2, 2, 2], "entries": [2, 0, 0, 4, 0, 6, -2, 8]}

CERTIFY_JSON = """\
{
  "verdict": "BORDER_RANK_EXCEEDS_TWO",
  "flattening_ranks": {
    "mode_1": 2,
    "mode_2": 2,
    "mode_3": 3
  },
  "max_flattening_rank": 3,
  "hyperdet": {
    "values": [
      {
        "selector": "modes[1:(0,1),2:(0,1),3:(0,1)]",
        "value": -3240000
      },
      {
        "selector": "modes[1:(0,1),2:(0,1),3:(0,2)]",
        "value": 3470400
      },
      {
        "selector": "modes[1:(0,1),2:(0,1),3:(1,2)]",
        "value": -44640000
      }
    ],
    "min_value": -44640000,
    "argmin": "modes[1:(0,1),2:(0,1),3:(1,2)]",
    "num_positive": 1,
    "num_zero": 0,
    "num_negative": 2,
    "zero_tol": 0
  },
  "tolerances": {
    "rank_tol": "exact",
    "hyperdet_zero_tol": 0
  }
}
"""

CERTIFY_TEXT = """\
verdict: BORDER_RANK_EXCEEDS_TWO
flattening ranks: mode_1=2 mode_2=2 mode_3=3 (max 3)
hyperdet signs: 1 positive, 0 zero, 2 negative
min hyperdet: -44640000 at modes[1:(0,1),2:(0,1),3:(1,2)]
"""

CERTIFY_EVEN_JSON = """\
{
  "verdict": "COMPLEX_RANK_TWO_REAL_RANK_HIGHER",
  "flattening_ranks": {
    "mode_1": 2,
    "mode_2": 2,
    "mode_3": 2
  },
  "max_flattening_rank": 2,
  "hyperdet": {
    "values": [
      {
        "selector": "modes[1:(0,1),2:(0,1),3:(0,1)]",
        "value": -128
      }
    ],
    "min_value": -128,
    "argmin": "modes[1:(0,1),2:(0,1),3:(0,1)]",
    "num_positive": 0,
    "num_zero": 0,
    "num_negative": 1,
    "zero_tol": 0
  },
  "tolerances": {
    "rank_tol": "exact",
    "hyperdet_zero_tol": 0
  }
}
"""

HYPERDET_JSON = """\
{
  "values": [
    {
      "selector": "modes[1:(0,1),2:(0,1),3:(0,1)]",
      "value": "-1/4"
    },
    {
      "selector": "modes[1:(0,1),2:(0,1),3:(0,2)]",
      "value": "241/900"
    },
    {
      "selector": "modes[1:(0,1),2:(0,1),3:(1,2)]",
      "value": "-31/9"
    }
  ],
  "min_value": "-31/9",
  "argmin": "modes[1:(0,1),2:(0,1),3:(1,2)]",
  "num_positive": 1,
  "num_zero": 0,
  "num_negative": 2,
  "zero_tol": 0
}
"""

HYPERDET_TEXT = """\
modes[1:(0,1),2:(0,1),3:(0,1)]: -1/4
modes[1:(0,1),2:(0,1),3:(0,2)]: 241/900
modes[1:(0,1),2:(0,1),3:(1,2)]: -31/9
signs: 1 positive, 0 zero, 2 negative (zero tolerance 0)
"""

QUINTIC_TEXT = """\
verdict: BORDER_RANK_EXCEEDS_TWO
hankel rank: 3
discriminants: D0=-1/18 D1=25/27 D2=-88/63
strata: None
"""


@pytest.mark.parametrize("tensor, argv, expected", [
    (FRACTION_TENSOR, ["certify"], CERTIFY_JSON),
    (FRACTION_TENSOR, ["certify", "--format", "text"], CERTIFY_TEXT),
    (EVEN_TENSOR, ["certify"], CERTIFY_EVEN_JSON),
    (FRACTION_TENSOR, ["hyperdet"], HYPERDET_JSON),
    (FRACTION_TENSOR, ["hyperdet", "--format", "text"], HYPERDET_TEXT),
])
def test_tensor_cli_golden(tmp_path, capsys, tensor, argv, expected):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor))
    assert main(argv + ["--file", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_binary_form_cli_golden(capsys):
    argv = ["binary-form", "--d", "5", "--coords", "1,1/2,0,-1/3,2,3/7", "--format", "text"]
    assert main(argv) == 0
    assert capsys.readouterr().out == QUINTIC_TEXT


# ------------------------------------------------------ decompose goldens
# Float digits from the LAPACK that numpy links, one tensor per branch of
# decompose_rank2.  Each expected stdout is written compactly here and
# compared, byte for byte, with its indent-2 rendering (float repr round
# trips, so json.loads loses no digit).

def _outer(*vectors):
    return tn.outer([np.array(v, dtype=float) for v in vectors])


_CONJ_FACTORS = [np.array([1, 2j]), np.array([1 + 1j, 1]), np.array([2, 1 - 1j]), np.array([1j, 1]),
                 np.array([1, 1 + 2j])]

DECOMPOSE_GOLDENS = [
    pytest.param(  # three active modes: pencil, then _polish_real
        _outer([1, 2], [1, -1], [2, 1]) + _outer([3, 1], [0, 2], [1, 1]),
        '{"kind": "REAL_PAIR", "terms": [{"weight": 8.944271909999166, "factors": '
        '[[0.9486832980505135, 0.31622776601683855], [-2.7226360631291836e-16, -1.0], '
        '[-0.7071067811865475, -0.7071067811865475]]}, {"weight": 7.071067811865479, "factors": '
        '[[0.44721359549995765, 0.8944271909999161], [0.707106781186547, -0.7071067811865481], '
        '[0.8944271909999159, 0.447213595499958]]}], "residual": 4.75492555311956e-16}',
        id="real-pair"),
    pytest.param(
        np.array([2, 0, 0, -2, 0, -2, -2, 0], dtype=float).reshape(2, 2, 2),
        '{"kind": "CONJUGATE_PAIR", "terms": [{"weight": {"re": 2.828427124746189, '
        '"im": -2.7943241756659555e-17}, "factors": [{"re": [0.6103736615881361, '
        '0.35699298766151094], "im": [-0.3569929876615109, 0.6103736615881359]}, '
        '{"re": [-0.610373661588136, 0.3569929876615111], "im": [-0.35699298766151105, '
        '-0.6103736615881358]}, {"re": [-0.7071067811865477, -1.9727953282475124e-16], '
        '"im": [1.9727953282475126e-16, -0.7071067811865477]}]}], "residual": 2.4589952241193566e-16}',
        id="conjugate-pair"),
    pytest.param(  # four modes: the merged rest is compressed and split again
        ce.tangential_witness([np.array([1.0, 2.0]), np.array([1.0, -1.0]),
                               np.array([2.0, 1.0]), np.array([1.0, 1.0])],
                              [np.array([0.0, 1.0]), np.array([3.0, 1.0]),
                               np.array([1.0, 0.0]), np.array([1.0, -2.0])]),
        '{"kind": "TANGENTIAL", "terms": [{"weight": -12.999999999999991, "factors": '
        '[[0.44721359549995804, 0.8944271909999157], [-0.7071067811865477, 0.7071067811865475], '
        '[0.8944271909999159, 0.44721359549995804], [0.7071067811865471, 0.707106781186548]]}], '
        '"residual": 6.064238114361032e-16, "tangent_directions": [[1.7888543819998348, '
        '-0.8944271909999175], [14.142135623730942, 14.142135623730951], [-0.8944271909999147, '
        '1.7888543819998293], [-10.606601717798224, 10.606601717798211]]}',
        id="tangential"),
    pytest.param(  # the third mode has rank one: only two active modes
        _outer([1, 2], [1, -1], [2, 1]) + _outer([3, 1], [0, 2], [2, 1]),
        '{"kind": "REAL_PAIR", "terms": [{"weight": 11.441228056353696, "factors": '
        '[[0.995959313953112, 0.08980559531591699], [-0.22975292054736096, -0.9732489894677301], '
        '[-0.8944271909999157, -0.44721359549995787]]}, {"weight": 4.370160244488211, "factors": '
        '[[-0.089805595315917, 0.9959593139531122], [-0.9732489894677302, 0.229752920547361], '
        '[-0.8944271909999157, -0.44721359549995787]]}], "residual": 4.941220080268143e-16}',
        id="two-active-modes"),
    pytest.param(  # modes of sizes 2, 3 and 4: three flattening shapes
        _outer([1, 2], [1, -1, 2], [2, 1, 0, 1]) + _outer([3, 1], [0, 2, 1], [1, 1, -1, 2]),
        '{"kind": "REAL_PAIR", "terms": [{"weight": 18.708286933869708, '
        '"factors": [[0.9486832980505138, 0.316227766016838], [7.111096213659819e-18, '
        '-0.894427190999916, -0.4472135954999578], [-0.37796447300922725, '
        '-0.37796447300922725, 0.37796447300922725, -0.7559289460184545]]}, '
        '{"weight": 13.416407864998735, "factors": [[0.4472135954999579, 0.8944271909999159], '
        '[0.40824829046386296, -0.4082482904638627, 0.8164965809277261], [0.816496580927726, '
        '0.408248290463863, -4.371452216133507e-17, 0.4082482904638631]]}], '
        '"residual": 4.193212110039555e-16}',
        id="real-pair-2x3x4"),
    pytest.param(  # five modes: merged rest, split in three, conjugate polish on every mode
        np.real(tn.outer(_CONJ_FACTORS) + tn.outer([f.conj() for f in _CONJ_FACTORS])),
        '{"kind": "CONJUGATE_PAIR", "terms": [{"weight": {"re": 32.86335345030998, '
        '"im": -4.398719691904225e-15}, "factors": [{"re": [-0.44451308001521084, '
        '-0.09814523310666472], "im": [0.049072616553332414, -0.8890261600304227]}, '
        '{"re": [-0.7946544722917662, -0.4911234731884231], "im": [-0.1875924740850797, '
        '0.303530999103343]}, {"re": [0.7946544722917661, 0.49112347318842314], '
        '"im": [0.18759247408507984, -0.303530999103343]}, {"re": [-0.7018619656541892, '
        '0.08596383639669805], "im": [0.08596383639669788, 0.7018619656541886]}, '
        '{"re": [0.21462882776630185, 0.9091823043491488], "im": [-0.34727673829142336, '
        '0.08198091724118027]}]}], "residual": 6.416318589200705e-16}',
        id="conjugate-pair-2^5"),
    pytest.param(  # two-dimensional orthogonal complements per mode
        ce.tangential_witness([np.array([1.0, 2.0, 0.0]), np.array([1.0, -1.0, 1.0]),
                               np.array([2.0, 1.0, 1.0])],
                              [np.array([0.0, 1.0, 1.0]), np.array([3.0, 1.0, 0.0]),
                               np.array([1.0, 0.0, -2.0])]),
        '{"kind": "TANGENTIAL", "terms": [{"weight": 10.119288512538818, '
        '"factors": [[-0.4472135954999579, -0.8944271909999159, 1.1916280378588445e-16], '
        '[0.577350269189626, -0.5773502691896256, 0.577350269189626], [-0.8164965809277261, '
        '-0.40824829046386313, -0.40824829046386296]]}], "residual": 4.675371116019015e-16, '
        '"tangent_directions": [[1.6970562748477178, -0.8485281374238591, -4.242640687119282], '
        '[12.780193008453873, 9.128709291752763, -3.6514837167011094], [-3.8729833462074152, '
        '0.0, 7.745966692414834]]}',
        id="tangential-3x3x3"),
]


@pytest.mark.parametrize("tensor, expected", DECOMPOSE_GOLDENS)
def test_decompose_cli_golden(tmp_path, capsys, tensor, expected):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tn.tensor_to_json(tensor)))
    assert main(["decompose", "--file", str(path)]) == 0
    assert capsys.readouterr().out == json.dumps(json.loads(expected), indent=2) + "\n"


CENSUS_SHAPES = [(2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2), (2, 2, 2, 2, 2), (6, 6, 6)]


def _census_tensors() -> list[tuple[int, np.ndarray]]:
    """Three seeded tensors per shape and family (real pair, conjugate pair,
    tangent tensor), tensor i drawn from default_rng(i) and scaled by
    10^((i mod 9) - 4)."""
    out = []
    for shape in CENSUS_SHAPES:
        for family in ("real", "conjugate", "tangential"):
            for _ in range(3):
                index = len(out)
                rng = np.random.default_rng(index)
                if family == "real":
                    t = tn.outer([rng.standard_normal(n) for n in shape]) \
                        + tn.outer([rng.standard_normal(n) for n in shape])
                elif family == "conjugate":
                    fs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in shape]
                    t = np.real(tn.outer(fs) + tn.outer([f.conj() for f in fs]))
                else:
                    t = ce.tangential_witness([rng.standard_normal(n) for n in shape],
                                              [rng.standard_normal(n) for n in shape])
                out.append((index, t * 10.0 ** ((index % 9) - 4)))
    return out


def test_decompose_census_golden():
    """decompose_rank2(t).to_json() bytes of every census tensor,
    one line each (the error's name if it raises), pinned by sha256: every
    float operation of the decomposition feeds these digits, so any change
    to the order of its arithmetic or to the LAPACK routines it calls shows."""
    digest = hashlib.sha256()
    cases = _census_tensors()
    for index, t in cases:
        try:
            text = json.dumps(dc.decompose_rank2(t).to_json())
        except (dc.NotRankTwo, dc.IllConditioned) as exc:
            text = type(exc).__name__
        digest.update(text.encode() + b"\n")
    assert (len(cases), digest.hexdigest()) == \
        (63, "49fb02154810e9e23685e2bcd7f21c3903b8667c39d01afd454a4e6157da1881")


# `decompose --symmetric` on forms well away from rank one, one per (n, d,
# exactness): the JSON (compact here, compared with its indent-2 rendering)
# and the --format text bytes.

SYMMETRIC_DECOMPOSE_GOLDENS = [
    pytest.param(  # (x + 2y)^3 + (3x - y)^3 / 2
        {"n": 2, "d": 3, "coeffs": {"3,0": "29/2", "2,1": "-5/2", "1,2": "11/2", "0,3": "15/2"}},
        '{"kind": "REAL_PAIR", "terms": [{"weight": 15.811388300841903, "factors": [[0.9486832980505137, '
        '-0.316227766016838], [0.9486832980505138, -0.31622776601683794], [0.9486832980505139, '
        '-0.31622776601683805]]}, {"weight": 11.180339887498958, "factors": [[0.44721359549995804, '
        '0.8944271909999159], [0.447213595499958, 0.8944271909999157], [0.44721359549995765, '
        '0.8944271909999159]]}], "residual": 4.687953660937928e-16}',
        "kind: REAL_PAIR\nresidual: 4.6879536609379281e-16\nterm 0: weight 15.811388300841903\n"
        "term 1: weight 11.180339887498958\n",
        id="n2-exact-d3"),
    pytest.param(  # 2 Re((x + (1/2 + i) y)^5)
        {"n": 2, "d": 5, "coeffs": {"5,0": 2.0, "4,1": 1.0, "3,2": -1.5, "2,3": -2.75, "1,4": -0.875,
                                    "0,5": 2.5625}},
        '{"kind": "CONJUGATE_PAIR", "terms": [{"weight": {"re": 7.593749999999997, "im": 5.857974880901109e-16}, '
        '"factors": [{"re": [0.4537280319721015, -0.26157770770999894], "im": [0.4884417236960497, '
        '0.6979488938201264]}, {"re": [-0.5287754648002904, -0.6703938312086251], "im": [0.4060060988084802, '
        '-0.3257724153960505]}, {"re": [0.5287754648002904, 0.6703938312086256], "im": [-0.4060060988084802, '
        '0.32577241539604995]}, {"re": [-0.27705916101514494, 0.4678388435895505], "im": [-0.606368424097123, '
        '-0.5802433730637064]}, {"re": [0.5287754648002901, 0.6703938312086256], "im": [-0.4060060988084802, '
        '0.32577241539604984]}]}], "residual": 5.49605978738028e-16}',
        "kind: CONJUGATE_PAIR\nresidual: 5.4960597873802796e-16\n"
        "term 0: weight 7.5937499999999973 + 5.8579748809011088e-16j\n",
        id="n2-float-d5"),
    pytest.param(  # (x + 2z)^3 - 2 (x - y + z)^3
        {"n": 3, "d": 3, "coeffs": {"3,0,0": -1, "2,1,0": 2, "2,0,1": 0, "1,2,0": -2, "1,1,1": 2, "1,0,2": 2,
                                    "0,3,0": 2, "0,2,1": -2, "0,1,2": 2, "0,0,3": 6}},
        '{"kind": "REAL_PAIR", "terms": [{"weight": 11.180339887498947, "factors": [[0.44721359549995787, '
        '1.0967996644842005e-16, 0.8944271909999159], [0.44721359549995776, 3.036811830958581e-16, '
        '0.8944271909999161], [0.4472135954999578, 7.522031988041592e-17, 0.8944271909999159]]}, '
        '{"weight": 10.392304845413259, "factors": [[0.5773502691896258, -0.5773502691896258, '
        '0.5773502691896257], [0.5773502691896257, -0.5773502691896258, 0.5773502691896258], '
        '[-0.5773502691896256, 0.577350269189626, -0.5773502691896255]]}], "residual": 3.2146660570571333e-16}',
        "kind: REAL_PAIR\nresidual: 3.2146660570571333e-16\nterm 0: weight 11.180339887498947\n"
        "term 1: weight 10.392304845413259\n",
        id="n3-exact-d3"),
    pytest.param(  # l^2 m, l = x + y + z/2, m = 2y - z: a tangent tensor
        {"n": 3, "d": 3, "coeffs": {"3,0,0": 0.0, "2,1,0": 2.0, "2,0,1": -1.0, "1,2,0": 4.0, "1,1,1": 0.0,
                                    "1,0,2": -1.0, "0,3,0": 6.0, "0,2,1": 1.0, "0,1,2": -0.5, "0,0,3": -0.75}},
        '{"kind": "TANGENTIAL", "terms": [{"weight": 6.749999999999998, "factors": [[0.6666666666666667, '
        '0.6666666666666666, 0.33333333333333354], [-0.6666666666666667, -0.6666666666666666, '
        '-0.33333333333333354], [-0.6666666666666667, -0.6666666666666666, -0.33333333333333354]]}], '
        '"residual": 6.497232436534635e-16, "tangent_directions": [[-1.5000000000000002, 3.000000000000003, '
        '-3.0000000000000027], [1.4999999999999998, -3.0000000000000018, 3.0000000000000004], '
        '[1.4999999999999978, -2.999999999999999, 2.9999999999999996]]}',
        "kind: TANGENTIAL\nresidual: 6.4972324365346348e-16\nterm 0: weight 6.7499999999999982\n",
        id="n3-float-d3"),
    pytest.param(  # 3/2 (x + 2y - z)^4 - (x/2 - y + z)^4
        {"n": 3, "d": 4, "coeffs": {"4,0,0": 1.4375, "3,1,0": 3.125, "3,0,1": -1.625, "2,2,0": 5.75,
                                    "2,1,1": -2.75, "2,0,2": 1.25, "1,3,0": 12.5, "1,2,1": -6.5, "1,1,2": 3.5,
                                    "1,0,3": -2.0, "0,4,0": 23.0, "0,3,1": -11.0, "0,2,2": 5.0, "0,1,3": -2.0,
                                    "0,0,4": 0.5}},
        '{"kind": "REAL_PAIR", "terms": [{"weight": 53.999999999999986, "factors": [[0.4082482904638631, '
        '0.816496580927726, -0.4082482904638629], [-0.40824829046386313, -0.816496580927726, '
        '0.40824829046386296], [0.4082482904638632, 0.816496580927726, -0.4082482904638629], '
        '[-0.4082482904638632, -0.816496580927726, 0.40824829046386296]]}, {"weight": 5.062499999999984, '
        '"factors": [[-0.33333333333333387, 0.6666666666666662, -0.6666666666666667], [-0.3333333333333339, '
        '0.6666666666666664, -0.6666666666666666], [-0.3333333333333339, 0.6666666666666665, '
        '-0.6666666666666666], [0.33333333333333415, -0.6666666666666663, 0.6666666666666665]]}], '
        '"residual": 2.9505604053867286e-16}',
        "kind: REAL_PAIR\nresidual: 2.9505604053867286e-16\nterm 0: weight 53.999999999999986\n"
        "term 1: weight 5.062499999999984\n",
        id="n3-float-d4"),
]


@pytest.mark.parametrize("payload, expected_json, expected_text", SYMMETRIC_DECOMPOSE_GOLDENS)
def test_symmetric_decompose_cli_golden(tmp_path, capsys, payload, expected_json, expected_text):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(payload))
    assert main(["decompose", "--symmetric", "--file", str(path)]) == 0
    assert capsys.readouterr().out == json.dumps(json.loads(expected_json), indent=2) + "\n"
    assert main(["decompose", "--symmetric", "--file", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out == expected_text


# -------------------------------------------------- certify-path goldens
# One request per certification branch the goldens above do not reach:
# symmetric binary forms (Hankel rank and shifted discriminants), symmetric
# n = 3 (one sub-block per variable pair), linear and quadratic forms and a
# tensor that squeezes to a matrix (matrix rank only), float and exact.  No
# float digit here comes from LAPACK: only ranks and verdicts do.

CERTIFY_PATH_GOLDENS = [
    pytest.param(
        ["--symmetric"],
        {"n": 2, "d": 4, "coeffs": {"4,0": 2.1328125, "3,1": -0.3046875, "2,2": 2.1328125,
                                    "1,3": -2.7421875, "0,4": 4.9765625}},
        '{"verdict": "REAL_RANK_TWO", "flattening_ranks": {"hankel": 2}, "max_flattening_rank": 2, '
        '"hyperdet": {"values": [{"selector": "D0", "value": 93.21487641334534}, '
        '{"selector": "D1", "value": 64.73255306482315}], "min_value": 64.73255306482315, '
        '"argmin": "D1", "num_positive": 2, "num_zero": 0, "num_negative": 0, '
        '"zero_tol": 1.27586834365502e-07}, "tolerances": {"rank_tol": 1e-08, '
        '"hyperdet_zero_tol": 1.27586834365502e-07}}',
        id="symmetric-n2-float-d4"),
    pytest.param(
        ["--symmetric"],
        {"n": 2, "d": 5, "coeffs": {"5,0": "-95/3", "4,1": "97/6", "3,2": "-95/12", "2,3": "97/24",
                                    "1,4": "-95/48", "0,5": "97/96"}},
        '{"verdict": "REAL_RANK_TWO", "flattening_ranks": {"hankel": 2}, "max_flattening_rank": 2, '
        '"hyperdet": {"values": [{"selector": "D0", "value": "1024/9"}, {"selector": "D1", '
        '"value": "64/9"}, {"selector": "D2", "value": "4/9"}], "min_value": "4/9", "argmin": "D2", '
        '"num_positive": 3, "num_zero": 0, "num_negative": 0, "zero_tol": 0}, '
        '"tolerances": {"rank_tol": "exact", "hyperdet_zero_tol": 0}}',
        id="symmetric-n2-exact-d5"),
    pytest.param(
        ["--symmetric"],
        {"n": 3, "d": 3, "coeffs": {"3,0,0": 1, "2,1,0": 2, "2,0,1": 0, "1,2,0": 4, "1,1,1": 0,
                                    "1,0,2": 0, "0,3,0": "26/3", "0,2,1": "-1/3", "0,1,2": "1/6",
                                    "0,0,3": "-1/12"}},
        '{"verdict": "REAL_RANK_TWO", "flattening_ranks": {"mode_1": 2, "mode_2": 2, "mode_3": 2}, '
        '"max_flattening_rank": 2, "hyperdet": {"values": [{"selector": "pair(1,2)@0,0,0", '
        '"value": "4/9"}, {"selector": "pair(1,3)@0,0,0", "value": "1/144"}, '
        '{"selector": "pair(2,3)@0,0,0", "value": "4/9"}], "min_value": "1/144", '
        '"argmin": "pair(1,3)@0,0,0", "num_positive": 3, "num_zero": 0, "num_negative": 0, '
        '"zero_tol": 0}, "tolerances": {"rank_tol": "exact", "hyperdet_zero_tol": 0}}',
        id="symmetric-n3-exact-d3"),
    pytest.param(  # a conjugate pair: merged two-mode flattenings take part
        ["--symmetric"],
        {"n": 3, "d": 4, "coeffs": {"4,0,0": 2.0, "3,1,0": 1.0, "3,0,1": 4.0, "2,2,0": -1.5,
                                    "2,1,1": 0.0, "2,0,2": 6.0, "1,3,0": -2.75, "1,2,1": -5.0,
                                    "1,1,2": -5.0, "1,0,3": 4.0, "0,4,0": -0.875, "0,3,1": -5.0,
                                    "0,2,2": -12.5, "0,1,3": -20.0, "0,0,4": -14.0}},
        '{"verdict": "COMPLEX_RANK_TWO_REAL_RANK_HIGHER", "flattening_ranks": {"mode_1": 2, '
        '"mode_2": 2, "mode_3": 2, "mode_4": 2, "mode_1_2": 2, "mode_1_3": 2, "mode_1_4": 2, '
        '"mode_2_3": 2, "mode_2_4": 2, "mode_3_4": 2}, "max_flattening_rank": 2, "hyperdet": '
        '{"values": [{"selector": "pair(1,2)@1,0,0", "value": -64.0}, {"selector": '
        '"pair(1,2)@0,1,0", "value": -100.0}, {"selector": "pair(1,2)@0,0,1", "value": -1600.0}, '
        '{"selector": "pair(1,3)@1,0,0", "value": -64.0}, {"selector": "pair(1,3)@0,1,0", '
        '"value": -100.0}, {"selector": "pair(1,3)@0,0,1", "value": -1600.0}, {"selector": '
        '"pair(2,3)@1,0,0", "value": -729.0}, {"selector": "pair(2,3)@0,1,0", "value": -1139.0625}, '
        '{"selector": "pair(2,3)@0,0,1", "value": -18225.0}], "min_value": -18225.0, '
        '"argmin": "pair(2,3)@0,0,1", "num_positive": 0, "num_zero": 0, "num_negative": 9, '
        '"zero_tol": 1.94481e-05}, "tolerances": {"rank_tol": 1e-08, "hyperdet_zero_tol": 1.94481e-05}}',
        id="symmetric-n3-float-d4"),
    pytest.param(
        ["--symmetric"],
        {"n": 3, "d": 2, "coeffs": {"2,0,0": 1, "1,1,0": "1/2", "0,2,0": "1/4", "0,1,1": -1, "0,0,2": 4}},
        '{"verdict": "BORDER_RANK_EXCEEDS_TWO", "flattening_ranks": {"matrix": 3}, '
        '"max_flattening_rank": 3, "hyperdet": {"values": [], "min_value": null, "argmin": null, '
        '"num_positive": 0, "num_zero": 0, "num_negative": 0, "zero_tol": 0}, '
        '"tolerances": {"rank_tol": "exact", "hyperdet_zero_tol": 0}}',
        id="symmetric-exact-d2"),
    pytest.param(
        ["--symmetric"],
        {"n": 2, "d": 1, "coeffs": {"1,0": 0.5, "0,1": -3.0}},
        '{"verdict": "RANK_AT_MOST_ONE", "flattening_ranks": {"matrix": 1}, '
        '"max_flattening_rank": 1, "hyperdet": {"values": [], "min_value": null, "argmin": null, '
        '"num_positive": 0, "num_zero": 0, "num_negative": 0, "zero_tol": 1e-08}, '
        '"tolerances": {"rank_tol": 1e-08, "hyperdet_zero_tol": 1e-08}}',
        id="symmetric-float-d1"),
    pytest.param(
        [],
        {"shape": [1, 3, 1, 2], "entries": [1.0, 2.0, -0.5, 4.0, 0.25, 3.0]},
        '{"verdict": "REAL_RANK_TWO", "flattening_ranks": {"matrix": 2}, "max_flattening_rank": 2, '
        '"hyperdet": {"values": [], "min_value": null, "argmin": null, "num_positive": 0, '
        '"num_zero": 0, "num_negative": 0, "zero_tol": 1e-08}, '
        '"tolerances": {"rank_tol": 1e-08, "hyperdet_zero_tol": 1e-08}}',
        id="squeezed-float"),
    pytest.param(
        [],
        {"shape": [1, 3, 1, 2], "entries": [1, "2/3", "-1/2", 4, "1/4", 3]},
        '{"verdict": "REAL_RANK_TWO", "flattening_ranks": {"matrix": 2}, "max_flattening_rank": 2, '
        '"hyperdet": {"values": [], "min_value": null, "argmin": null, "num_positive": 0, '
        '"num_zero": 0, "num_negative": 0, "zero_tol": 0}, '
        '"tolerances": {"rank_tol": "exact", "hyperdet_zero_tol": 0}}',
        id="squeezed-exact"),
]


@pytest.mark.parametrize("argv, payload, expected", CERTIFY_PATH_GOLDENS)
def test_certify_path_cli_golden(tmp_path, capsys, argv, payload, expected):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(payload))
    assert main(["certify", *argv, "--file", str(path)]) == 0
    assert capsys.readouterr().out == json.dumps(json.loads(expected), indent=2) + "\n"


def test_float_binary_form_cli_golden(capsys):
    argv = ["binary-form", "--d", "4", "--coords", "2.1328125,-0.3046875,2.1328125,-2.7421875,4.9765625"]
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(
        {"hankel_rank": 2, "d_values": [93.21487641334534, 64.73255306482315],
         "verdict": "REAL_RANK_TWO", "strata": "++0"}, indent=2) + "\n"


# 2 Re((1, 2 + i/10)^5): the exact test sees its negative discriminant, the
# float test counts it as zero against the coefficient-scaled tolerance
QUINTIC_GOLDENS = [
    ([Fraction(-95, 3), Fraction(97, 6), Fraction(-95, 12), Fraction(97, 24),
      Fraction(-95, 48), Fraction(97, 96)], True),
    ([2, 0, -2, 0, 2, 0], False),
    ([2, 4, Fraction(399, 50), Fraction(397, 25), Fraction(157601, 5000), Fraction(31201, 500)], False),
    ([2.0, 4.0, 7.98, 15.88, 31.5202, 62.402], True),
    ([2.0, 4.0, 6.0, 4.0, -14.0, -76.0], False),
    ([1.974609375, -0.041015625, 1.693359375, -2.009765625, 3.755859375, -6.056640625], True),
    ([24.400000000000002, -7.9, 3.1, -0.1, 1.9000000000000001, 3.1], True),
    ([1.0, 0.0, -0.1, 0.0, 0.0, 0.0], False),
]


def test_quintic_alternative_test_golden():
    got = [bf.quintic_alternative_test(bf.BinaryForm(5, coords)) for coords, _ in QUINTIC_GOLDENS]
    assert [type(v) for v in got] == [bool] * len(got)
    assert got == [want for _, want in QUINTIC_GOLDENS]


# ----------------------------------------------------------- curve goldens
# Polished secant coordinates (a : b : c) and everything derived from them,
# to the last printed digit: the monomial quartic at a point with a real
# secant through two real curve points and at one without, a random
# quintic whose secant rows have 15 terms each, and a short scan with one
# edge crossing.

CURVE_FILES = {
    "quintic.json": {"d": 5, "F": [[-3, -2, -3, 1, 0, 3], [-2, 4, -4, -1, 4, 1],
                                   [-2, 4, -4, 4, 0, -3], [0, 4, 1, -2, 1, -1]]},
    "segment.json": {"coefficients": [[3, 1], [1, 0], [-2, 1], [5, -2]]},
}

CURVE_GOLDENS = [
    pytest.param(
        ["curve-classify", "--curve", "monomial-quartic", "--point", "47,85/2,105/2,-43"], 0,
        '{"label": "REAL_RANK_LE_2", "witness": {"abc": [0.6673579200873222, '
        '-0.7265666505591208, 0.1635062958788552], "discriminant": 0.09143021154911912, '
        '"contact": "TWO_REAL_POINTS", "roots": [[1.0, -0.7709063682904491], [1.0, '
        '-0.3178147342688062]], "curve_points": [[0.7200139762953458, -0.5550633595842106, '
        '-0.3298722832995674, 0.2543006439181477], [0.9525361432226687, -0.30273002123974596, '
        '-0.030577610681370805, 0.009718015213274873]], "residual": 5.551115123125783e-17, '
        '"line_norm": 0.4775576429309864, "multiplicity": 1}, '
        '"solutions": [{"abc": [0.6673579200873222, -0.7265666505591208, 0.1635062958788552], '
        '"discriminant": 0.09143021154911912, "contact": "TWO_REAL_POINTS", "roots": [[1.0, '
        '-0.7709063682904491], [1.0, -0.3178147342688062]], '
        '"curve_points": [[0.7200139762953458, -0.5550633595842106, -0.3298722832995674, '
        '0.2543006439181477], [0.9525361432226687, -0.30273002123974596, -0.030577610681370805, '
        '0.009718015213274873]], "residual": 5.551115123125783e-17, '
        '"line_norm": 0.4775576429309864, "multiplicity": 1}], "nonreal_count": 2}',
        id="quartic-le2"),
    pytest.param(
        ["curve-classify", "--curve", "monomial-quartic", "--point", "84,13,62,-38"], 2,
        '{"label": "REAL_RANK_GE_3", "witness": null, "solutions": [{"abc": [0.6202202800012745, '
        '-0.7084765447690666, 0.33673103478477506], "discriminant": -0.33345065222941317, '
        '"contact": "CONJUGATE_POINTS", "roots": [[1.0, {"re": -0.571149128473847, '
        '"im": -0.4655215896798477}], [{"re": 0.7751413898538482, "im": 0.6317878011923345}, '
        '-0.736832190810423]], "curve_points": [[{"re": 0.7474682494823649, "im": 0.0}, '
        '{"re": -0.4269158392537248, "im": -0.3479626077342435}, {"re": 0.13828646100062722, '
        '"im": -0.2651209333322414}, {"re": -0.20240171002247082, "im": 0.08704825685667032}], '
        '[{"re": 0.7474682494823649, "im": 6.577369416759368e-17}, {"re": -0.42691583925372484, '
        '"im": 0.34796260773424353}, {"re": 0.1382864610006272, "im": 0.26512093333224135}, '
        '{"re": -0.20240171002247076, "im": -0.08704825685667032}]], '
        '"residual": 5.929829676339737e-17, "line_norm": 0.35583634454431085, '
        '"multiplicity": 1}], "nonreal_count": 2}',
        id="quartic-ge3"),
    pytest.param(
        ["curve-classify", "--curve", "quintic.json", "--point", "8,8,7,1"], 0,
        '{"label": "REAL_RANK_LE_2", "witness": {"abc": [0.1888987614758133, '
        '-0.8834081297589845, 0.4288441840443181], "discriminant": 0.45637738279595713, '
        '"contact": "TWO_REAL_POINTS", "roots": [[0.24233864745246456, -1.0], [1.0, '
        '-0.5501651716359321]], "curve_points": [[0.7162921111060994, 0.010248909004671073, '
        '-0.6227746491957568, -0.31459864550007793], [0.37038351519774054, 0.584090552277917, '
        '0.7022967191222959, 0.1686226459272366]], "residual": 2.7716314165470854e-17, '
        '"line_norm": 15.163561507724106, "multiplicity": 1}, '
        '"solutions": [{"abc": [0.1888987614758133, -0.8834081297589845, 0.4288441840443181], '
        '"discriminant": 0.45637738279595713, "contact": "TWO_REAL_POINTS", '
        '"roots": [[0.24233864745246456, -1.0], [1.0, -0.5501651716359321]], '
        '"curve_points": [[0.7162921111060994, 0.010248909004671073, -0.6227746491957568, '
        '-0.31459864550007793], [0.37038351519774054, 0.584090552277917, 0.7022967191222959, '
        '0.1686226459272366]], "residual": 2.7716314165470854e-17, '
        '"line_norm": 15.163561507724106, "multiplicity": 1}, {"abc": [0.5605223217439282, '
        '-0.8028512145131302, -0.20308779919430958], "discriminant": 1.0999110515342445, '
        '"contact": "TWO_REAL_POINTS", "roots": [[0.6054406745705966, -1.0], [1.0, '
        '0.21936256482829813]], "curve_points": [[0.8917573864560908, -0.044601189931400206, '
        '0.01204051718405173, -0.45014944574401744], [0.8679183768299944, 0.3198035320354933, '
        '0.30972084681397233, -0.22026436186375478]], "residual": 1.9084185501446733e-17, '
        '"line_norm": 6.066692480189351, "multiplicity": 1}, {"abc": [0.5700945686587272, '
        '-0.2911568140530304, -0.7682576992235802], "discriminant": 1.8366904569999636, '
        '"contact": "TWO_REAL_POINTS", "roots": [[0.6925337167885426, -1.0], [1.0, '
        '0.9332563212213573]], "curve_points": [[0.8686814689722266, 0.06137281690215703, '
        '0.28718008152608254, -0.3989404511758886], [0.8082599209046388, -0.20970334459312312, '
        '0.11091111246932092, -0.5389240509167341]], "residual": 3.1761486516450147e-16, '
        '"line_norm": 2.8526618059796016, "multiplicity": 1}, {"abc": [0.5803525331481298, '
        '0.7509807557113417, 0.31499022495907897], "discriminant": -0.16724940443882508, '
        '"contact": "CONJUGATE_POINTS", "roots": [[1.0, {"re": 0.6470039439973122, '
        '"im": 0.3523387505324901}], [{"re": -0.8782220398272842, "im": -0.4782531220615334}, '
        '-0.7367202309390406]], "curve_points": [[{"re": 0.857737545153047, '
        '"im": 1.775348270578305e-17}, {"re": 0.17120255690188654, "im": -0.09802784365954743}, '
        '{"re": -0.032636393872896304, "im": -0.11182411437148328}, {"re": -0.45320358605015615, '
        '"im": -0.0800204526594668}], [{"re": 0.8577375451530468, "im": 5.346858520814733e-17}, '
        '{"re": 0.1712025569018865, "im": 0.09802784365954743}, {"re": -0.03263639387289635, '
        '"im": 0.11182411437148326}, {"re": -0.45320358605015615, "im": 0.0800204526594668}]], '
        '"residual": 2.401092099149902e-16, "line_norm": 2.434462428508773, "multiplicity": 1}], '
        '"nonreal_count": 2}',
        id="quintic-file"),
    pytest.param(
        ["curve-scan", "--curve", "monomial-quartic", "--path", "segment.json", "--nsamples", "3"], 0,
        '{"samples": [{"t": 0.0, "label": "REAL_RANK_GE_3", "real_secants": 1, '
        '"two_real_point_secants": 0, "min_discriminant": -1.8820270804764114}, {"t": 0.5, '
        '"label": "REAL_RANK_LE_2", "real_secants": 3, "two_real_point_secants": 2, '
        '"min_discriminant": -1.9753084903159361}, {"t": 1.0, "label": "REAL_RANK_LE_2", '
        '"real_secants": 3, "two_real_point_secants": 2, '
        '"min_discriminant": -1.98033556755355}], '
        '"transitions": [{"t_star": 0.26666227822076166, "kind": "EDGE", "rank_before": 3, '
        '"rank_after": 2, "surface": "EDGE"}]}',
        id="scan-segment"),
]


@pytest.mark.parametrize("argv, status, expected", CURVE_GOLDENS)
def test_curve_cli_golden(tmp_path, capsys, argv, status, expected):
    for name, payload in CURVE_FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    argv = [str(tmp_path / arg) if arg in CURVE_FILES else arg for arg in argv]
    assert main(argv) == status
    assert capsys.readouterr().out == json.dumps(json.loads(expected), indent=2) + "\n"


@pytest.mark.parametrize("fmt, digest", [
    ("json", "ddc3520f6c4d545cf956be11349e9a4d5628ad58d935915caaf0d77b9f8bf37e"),
    ("csv", "69c00692a1d645f531ddd62b43811013147f00345fd3fa01d796b62dfb4103d5"),
])
def test_default_crossing_scan_digest(capsys, fmt, digest):
    # the default 21-sample scan of the crossing path, all four boundary
    # roots, pinned by the sha256 of its stdout
    assert main(["curve-scan", "--curve", "monomial-quartic", "--path", "crossing", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
