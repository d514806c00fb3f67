"""Command line surface: one binary, nine subcommands, stable JSON output.

Input schemas (JSON files):

  Tensor           {"shape": [2, 2, 2], "entries": [2, 0, 0, -2, 0, -2, -2, 0]}
                   row-major entries; ints and "num/den" strings are exact,
                   and one float entry makes every entry a float
  SymTensorCoords  {"n": 2, "d": 4, "coeffs": {"4,0": 1, "3,1": "1/2", ...}}
                   multidegree keys; same scalar conventions as Tensor
  CurveParam       {"d": 4, "F": [[1,0,0,0,0], [0,1,0,0,0], [0,0,0,1,0],
                   [0,0,0,0,1]]} with each row listing the coefficients of
                   s^d, s^{d-1} t, ..., t^d
  PathSpec         {"coefficients": [[84, -74], [13, 59], [62, -19],
                   [-38, -10]]} with one (constant, slope) row per coordinate

Output: JSON by default (`--format text` for human-readable lines, `--format
csv` for curve-scan samples and table1 only).  Floats keep full double
precision (17 significant digits); exact rationals print as "num/den".
Each subcommand offers only the options it reads: --tol, the numerical rank
tolerance, on certify, decompose and binary-form; --seed on decompose,
curve-classify and curve-scan, whose output is deterministic for a fixed
--seed (--seed 0 draws entropy from the OS).
Every run echoes its resolved configuration on standard error.

Exit status: 0 on success; 2 when a yes/no query answers "no"
(curve-classify reporting REAL_RANK_GE_3); 1 on any error, with a message
on standard error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from . import binary_forms as bf
from . import certify as ce
from . import decompose as dc
from . import hyperdet as hd
from . import jsontext
from . import multipoly as mp
from . import space_curve as sc
from . import tableaux as tb
from . import tensors as tn

DEFAULT_SEED = 1729

TABLE1_N = range(2, 6)
TABLE1_D = range(4, 11)


class UsageError(ValueError):
    """Bad command line; reported on stderr with exit status 1."""


class _Exit(Exception):
    """argparse ended the run with status args[0] (--help printed its text)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # negative verdicts here, so route them through the common error path
    def error(self, message):
        raise UsageError(message)

    # and it ends --help with sys.exit, which would end a caller of main
    def exit(self, status=0, message=None):
        raise _Exit(status)


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if 0.0 <= value < 1.0:  # false for nan
        return value
    raise argparse.ArgumentTypeError(f"must be a finite number in [0, 1), not {text!r}")


def _parse_scalar_list(text: str) -> list:
    values = tn.read_scalars([tok for tok in text.split(",") if tok.strip()])
    if not values:
        raise UsageError(f"no values in {text!r}")
    return values


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_tensor(args):
    payload = _load_json(args.file)
    if args.symmetric:
        return tn.sym_from_json(payload)
    return tn.tensor_from_json(payload)


def _load_curve(spec: str) -> sc.CurveParam:
    if spec == "monomial-quartic":
        return sc.MONOMIAL_QUARTIC
    d, rows = tn.read_fields(_load_json(spec), "d", "F")
    return sc.CurveParam(tn.read_integer(d), rows)


def _load_path(spec: str):
    if spec == "crossing":
        return sc.CROSSING_PATH
    [rows] = tn.read_fields(_load_json(spec), "coefficients")
    rows = [tn.read_sequence(row) for row in tn.read_sequence(rows)]
    if len(rows) != 4 or any(len(r) != 2 for r in rows):
        raise UsageError("path needs a 4 x 2 coefficient matrix")
    return tuple(tuple(row) for row in rows)  # scan_path makes the entries exact


def _poly_json(label: str, poly: mp.Polynomial) -> dict:
    return {"label": label, "text": mp.to_text(poly), "polynomial": mp.to_json(poly)}


# ---------------------------------------------------------------- commands


def _cmd_certify(args):
    f = _load_tensor(args)
    cert = ce.certify_symmetric(f, args.tol) if args.symmetric else ce.certify_border_rank2(f, args.tol)
    ranks = " ".join(f"{k}={v}" for k, v in sorted(cert.flattening_ranks.items()))
    text = [
        f"verdict: {cert.verdict.value}",
        f"flattening ranks: {ranks} (max {cert.max_flattening_rank})",
        f"hyperdet signs: {cert.hyperdet_report.num_positive} positive, "
        f"{cert.hyperdet_report.num_zero} zero, {cert.hyperdet_report.num_negative} negative",
    ]
    if cert.hyperdet_report.argmin is not None:
        text.append(f"min hyperdet: {_fmt(cert.hyperdet_report.min_value)} at {cert.hyperdet_report.argmin}")
    return 0, cert.to_json(), text


def _cmd_decompose(args):
    dec = dc.decompose_rank2(_load_tensor(args), args.tol, seed=args.seed)
    text = [f"kind: {dec.kind.value}", f"residual: {_fmt(dec.residual)}"]
    for i, term in enumerate(dec.terms):
        text.append(f"term {i}: weight {_fmt(complex(term.weight).real)}"
                    + (f" + {_fmt(complex(term.weight).imag)}j" if isinstance(term.weight, complex) else ""))
    return 0, dec.to_json(), text


def _cmd_hyperdet(args):
    t = _load_tensor(args)
    if args.symmetric:
        t = tn.sym_to_tensor(t)
    report = hd.all_subhyperdets(t)
    # one line per sub-block: formatted only when `run` joins them for --format text
    text = itertools.chain(
        (f"{label}: {_fmt(value)}" for label, value in report.values),
        [f"signs: {report.num_positive} positive, {report.num_zero} zero, "
         f"{report.num_negative} negative (zero tolerance {_fmt(report.zero_tol)})"])
    return 0, report.to_json(), text


def _cmd_quadrics(args):
    basis = tb.quadric_basis(args.n, args.d)
    payload = [_poly_json(g.tableau.label(), g.polynomial) for g in basis]
    # the lines reuse the payload's texts and are built only for --format text
    text = (f"{g['label']} = {g['text']}" for g in payload)
    return 0, payload, text


def _cmd_binary_form(args):
    coords = _parse_scalar_list(args.coords)
    form = bf.from_plain_coeffs(args.d, coords) if args.plain_coeffs else bf.BinaryForm(args.d, coords)
    verdict = bf.classify_binary_form(form, args.tol)
    text = [
        f"verdict: {verdict.verdict.value}",
        f"hankel rank: {verdict.hankel_rank}",
        "discriminants: " + " ".join(f"D{i}={_fmt(v)}" for i, v in enumerate(verdict.d_values)),
        f"strata: {verdict.strata}",
    ]
    return 0, verdict.to_json(), text


def _cmd_ideal(args):
    report = bf.tau_sigma_ideal_report(args.d)
    payload = {
        "d": report.d,
        "minors_2x2": [mp.to_text(p) for p in report.minors_2x2],
        "minors_3x3": [mp.to_text(p) for p in report.minors_3x3],
        "tangential_generators": [_poly_json(label, p) for label, p in report.tangential_generators],
    }
    # the lines reuse the payload's texts and are built only for --format text
    text = itertools.chain(
        [f"curve (2x2 minors), {len(report.minors_2x2)} generators:"],
        (f"  {p}" for p in payload["minors_2x2"]),
        [f"secant variety (3x3 minors), {len(report.minors_3x3)} generators:"],
        (f"  {p}" for p in payload["minors_3x3"]),
        [f"tangential variety, {len(report.tangential_generators)} generators:"],
        (f"  {g['label']} = {g['text']}" for g in payload["tangential_generators"]))
    return 0, payload, text


def _cmd_curve_classify(args):
    curve = _load_curve(args.curve)
    point = _parse_scalar_list(args.point)
    pc = sc.classify_point(curve, point, seed=args.seed)
    text = [
        f"label: {pc.label}",
        f"real secants: {pc.real_secants} ({pc.two_real_point_secants} with two real curve points, "
        f"{pc.nonreal_count} nonreal)",
    ]
    if pc.witness is not None:
        text.append("witness (a:b:c): " + " ".join(_fmt(float(v)) for v in pc.witness.abc))
    status = 2 if pc.label == sc.REAL_RANK_GE_3 else 0
    return status, pc.to_json(), text


def _cmd_curve_scan(args):
    curve = _load_curve(args.curve)
    path = _load_path(args.path)
    interval = _parse_scalar_list(args.interval)
    if len(interval) != 2:
        raise UsageError("--interval needs two values, e.g. 0,1")
    report = sc.scan_path(curve, path, tuple(interval), args.nsamples, seed=args.seed)
    text = [f"samples: {len(report.samples)} on [{_fmt(interval[0])}, {_fmt(interval[1])}]"]
    for tr in report.transitions:
        text.append(f"t* = {_fmt(tr.t_star)}: {tr.kind} (rank {tr.rank_before} -> {tr.rank_after}"
                    + (f", surface {tr.surface}" if tr.surface else "") + ")")
    if not report.transitions:
        text.append("no transitions")
    return 0, report.to_json(), text, report.to_csv()


def _cmd_table1(args):
    rows = {n: [sum(tb.hook_length_dim(n, d, k) for k in range(4, d + 1, 2))
                for d in TABLE1_D] for n in TABLE1_N}
    payload = {"d": list(TABLE1_D), "rows": {str(n): rows[n] for n in TABLE1_N}}
    header = "n\\d" + "".join(f"{d:>9}" for d in TABLE1_D)
    text = [header] + [f"{n:<3}" + "".join(f"{v:>9}" for v in rows[n]) for n in TABLE1_N]
    csv_lines = ["n," + ",".join(str(d) for d in TABLE1_D)]
    csv_lines += [f"{n}," + ",".join(str(v) for v in rows[n]) for n in TABLE1_N]
    return 0, payload, text, "\n".join(csv_lines) + "\n"


_COMMANDS = {
    "certify": _cmd_certify,
    "decompose": _cmd_decompose,
    "hyperdet": _cmd_hyperdet,
    "quadrics": _cmd_quadrics,
    "binary-form": _cmd_binary_form,
    "ideal": _cmd_ideal,
    "curve-classify": _cmd_curve_classify,
    "curve-scan": _cmd_curve_scan,
    "table1": _cmd_table1,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    `main` call; parsing leaves no state in it."""
    parser = _Parser(prog="realrank2",
                     description="Real rank two certificates for tensors, binary forms and space curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *options):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("json", "text", "csv") if "csv" in options else ("json", "text"),
                       default="json", help="output format")
        if "tol" in options:
            p.add_argument("--tol", type=_tolerance, default=1e-8, help="numerical rank "
                           "tolerance, a finite number in [0, 1) (default 1e-8)")
        if "seed" in options:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help=f"PRNG seed (default {DEFAULT_SEED}; 0 requests entropy)")
        return p

    for name, summary, options in (
            ("certify", "certify real (border) rank <= 2 of a tensor JSON file", ("tol",)),
            ("decompose", "rank-two decomposition of a tensor JSON file", ("tol", "seed")),
            ("hyperdet", "all 2x2x2 sub-block hyperdeterminants", ())):
        p = command(name, summary, *options)
        p.add_argument("--file", required=True, help="Tensor (or SymTensorCoords) JSON file")
        p.add_argument("--symmetric", action="store_true", help="read SymTensorCoords instead of Tensor")

    p = command("quadrics", "basis of quadrics vanishing on the degree-d tangential variety")
    p.add_argument("n", type=int, help="number of variables")
    p.add_argument("d", type=int, help="degree of the forms")

    p = command("binary-form", "classify a binary form of degree d", "tol")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--coords", required=True,
                   help="comma-separated scaled coordinates x_0..x_d (rationals or floats)")
    p.add_argument("--plain-coeffs", action="store_true",
                   help="coordinates are plain coefficients c_i = binom(d,i) x_i")

    p = command("ideal", "generators of the curve/secant/tangential ideals for degree d")
    p.add_argument("--d", type=int, required=True)

    p = command("curve-classify", "real rank <= 2 test for a point and a rational space curve", "seed")
    p.add_argument("--curve", required=True, help="CurveParam JSON file, or 'monomial-quartic'")
    p.add_argument("--point", required=True, help="comma-separated coordinates w,x,y,z")

    p = command("curve-scan", "classify along a line segment and localize rank transitions", "seed", "csv")
    p.add_argument("--curve", required=True, help="CurveParam JSON file, or 'monomial-quartic'")
    p.add_argument("--path", required=True, help="PathSpec JSON file, or 'crossing'")
    p.add_argument("--interval", default="0,1", help="scan interval, e.g. 0,1")
    p.add_argument("--nsamples", type=int, default=21)

    command("table1", "dimensions of the tangential quadric spaces, n in 2..5, d in 4..10", "csv")
    return parser


def run(args) -> int:
    if getattr(args, "seed", None) == 0:
        args.seed = None
    print("config:", json.dumps(vars(args), sort_keys=True, default=str), file=sys.stderr)
    status, payload, text, *csv = _COMMANDS[args.command](args)
    if args.format == "json":
        print(jsontext.dumps(payload))
    elif args.format == "text":
        print("\n".join(text))
    else:
        sys.stdout.write(csv[0])
    return status


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except _Exit as exc:
        return exc.args[0]
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
