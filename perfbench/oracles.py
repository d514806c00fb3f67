"""Per-request oracles: each takes (exit status, stdout) and returns a Failure or None.

The references come from the paper and from the repository's acceptance
criteria (Table 1, the crossing-path transitions and segment counts), not
from the program under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

RANK_ONE = "RANK_AT_MOST_ONE"
REAL = "REAL_RANK_TWO"
BOUNDARY = "REAL_BORDER_RANK_TWO_BOUNDARY"
COMPLEX = "COMPLEX_RANK_TWO_REAL_RANK_HIGHER"
EXCEEDS = "BORDER_RANK_EXCEEDS_TWO"
RANK_TWO_VERDICTS = (REAL, COMPLEX, BOUNDARY)

FAMILY_VERDICT = {"real": REAL, "conjugate": COMPLEX, "tangential": BOUNDARY,
                  "rank-one": RANK_ONE, "generic": EXCEEDS}
FAMILY_KIND = {"real": "REAL_PAIR", "conjugate": "CONJUGATE_PAIR", "tangential": "TANGENTIAL"}
FORM_FORBIDDEN = {"random": (), "real": (COMPLEX, EXCEEDS), "conjugate": (REAL, EXCEEDS)}
DECOMPOSE_RESIDUAL = 1e-8

# ROADMAP item 4: the float zero test for hyperdeterminants is absolute, so a
# real or conjugate pair scaled below 1 certifies as the boundary.  These
# failures are counted; they do not make a run incorrect.
SCALE_DEFECT = "ROADMAP item 4 (float verdict depends on scale)"

# Table 1 of the paper: dim of the tangential quadric space, n = 2..5, d = 4..10
TABLE1 = {
    2: (1, 3, 6, 10, 15, 21, 28),
    3: (15, 60, 153, 315, 570, 945, 1470),
    4: (105, 540, 1711, 4270, 9190, 17850, 32130),
    5: (490, 3150, 12145, 36155, 91395, 205905, 425425),
}

# acceptance criterion 6: the crossing path of the monomial quartic
T_STARS = (0.41616468475415957221, 0.50734775284175190900,
           0.64786245578375696533, 0.81105706603104911043)
CROSSING_KINDS = ("TANGENTIAL", "NO_RANK_CHANGE", "NO_RANK_CHANGE", "EDGE")
CROSSING_RANKS = ((3, 2), (2, 2), (2, 2), (2, 3))
SEGMENT_REAL = (1, 1, 3, 3, 1)
SEGMENT_TWO_REAL = (0, 1, 3, 2, 0)
T_STAR_TOL = 1e-12
LABEL_RANK = {"REAL_RANK_LE_2": 2, "REAL_RANK_GE_3": 3}


@dataclass(frozen=True)
class Failure:
    reason: str
    known: str | None = None


def _payload(status, out: str, allowed=(0,)):
    """Parsed JSON output, or the Failure that prevents reading it."""
    if status not in allowed:
        return None, Failure(f"exit status {status}")
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, Failure(f"unparsable output: {exc}")


def verdict_of(resp) -> str | None:
    """The verdict a certify or binary-form response reported, if any."""
    if resp is None or resp.status != 0:
        return None
    try:
        return json.loads(resp.stdout).get("verdict")
    except (ValueError, AttributeError):
        return None


# ------------------------------------------------------------------ tensors

def certify_float(family: str, exponent: int):
    want = FAMILY_VERDICT[family]

    def oracle(status, out):
        payload, failure = _payload(status, out)
        if failure:
            return failure
        got = payload.get("verdict")
        if got == want:
            return None
        known = (SCALE_DEFECT if family in ("real", "conjugate") and exponent < 0 and got == BOUNDARY
                 else None)
        return Failure(f"verdict {got}, expected {want}", known)
    return oracle


def _vector(v) -> np.ndarray:
    if isinstance(v, dict):
        return np.asarray(v["re"]) + 1j * np.asarray(v["im"])
    return np.asarray(v, dtype=float)


def _weight(w):
    return complex(w["re"], w["im"]) if isinstance(w, dict) else float(w)


def _outer(vectors) -> np.ndarray:
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def reconstruct(payload: dict) -> np.ndarray:
    """The tensor a decompose response describes, rebuilt from its JSON."""
    kind = payload["kind"]
    terms = [(_weight(t["weight"]), [_vector(f) for f in t["factors"]]) for t in payload["terms"]]
    if kind == "CONJUGATE_PAIR":
        w, factors = terms[0]
        return 2.0 * (w * _outer(factors)).real
    if kind == "TANGENTIAL":
        gamma, xs = terms[0]
        ys = [_vector(y) for y in payload["tangent_directions"]]
        out = gamma * _outer(xs)
        for m, y in enumerate(ys):
            out = out + _outer([y if k == m else xs[k] for k in range(len(xs))])
        return out
    return sum(w * _outer(factors) for w, factors in terms)


def decompose_float(family: str, tensor: np.ndarray):
    want = FAMILY_KIND.get(family)

    def oracle(status, out):
        payload, failure = _payload(status, out)
        if failure:
            return failure
        if payload.get("kind") != want:
            return Failure(f"kind {payload.get('kind')}, expected {want}")
        try:
            rebuilt = reconstruct(payload)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return Failure(f"decomposition does not rebuild: {exc!r}")
        if rebuilt.shape != tensor.shape:
            return Failure(f"rebuilt shape {rebuilt.shape}, expected {tensor.shape}")
        residual = float(np.linalg.norm(tensor - rebuilt) / np.linalg.norm(tensor))
        if not residual <= DECOMPOSE_RESIDUAL:
            return Failure(f"relative residual {residual:.3e} > {DECOMPOSE_RESIDUAL}")
        return None
    return oracle


def exact_tensor(family: str):
    want = FAMILY_VERDICT[family]

    def oracle(status, out):
        payload, failure = _payload(status, out)
        if failure:
            return failure
        got = payload.get("verdict")
        return None if got == want else Failure(f"verdict {got}, expected {want}")
    return oracle


# -------------------------------------------------------------- binary forms

def form_family(family: str):
    """binary-form verdicts a form of this family can never get."""
    forbidden = FORM_FORBIDDEN[family]

    def oracle(status, out):
        payload, failure = _payload(status, out)
        if failure:
            return failure
        got = payload.get("verdict")
        return Failure(f"{family} form got {got}") if got in forbidden or got is None else None
    return oracle


def form_tensor(family: str, form_verdict: str | None):
    """certify on a form's expanded tensor agrees with the binary-form route."""
    by_family = form_family(family)

    def oracle(status, out):
        failure = by_family(status, out)
        if failure:
            return failure
        got = json.loads(out)["verdict"]
        if got != form_verdict:
            return Failure(f"tensor route {got}, binary-form route {form_verdict}")
        return None
    return oracle


def quadrics(n: int, d: int):
    want = TABLE1[n][d - 4]

    def oracle(status, out):
        payload, failure = _payload(status, out)
        if failure:
            return failure
        return None if len(payload) == want else Failure(f"{len(payload)} generators, Table 1 has {want}")
    return oracle


def ideal(d: int):
    """Hankel minor counts and the tangential generators of Table 1."""
    want = {"minors_2x2": 3 * comb(d - 1, 2), "minors_3x3": comb(d - 1, 3),
            "tangential_generators": {3: 1, 4: 2}.get(d) or TABLE1[2][d - 4]}

    def oracle(status, out):
        payload, failure = _payload(status, out)
        if failure:
            return failure
        got = {k: len(payload.get(k, ())) for k in want}
        return None if got == want else Failure(f"generator counts {got}, expected {want}")
    return oracle


# --------------------------------------------------------------- space curve

def crossing_scan(status, out):
    payload, failure = _payload(status, out)
    if failure:
        return failure
    trs = payload["transitions"]
    if len(trs) != len(T_STARS):
        return Failure(f"{len(trs)} transitions, expected {len(T_STARS)}")
    err = max(abs(tr["t_star"] - want) for tr, want in zip(trs, T_STARS))
    if not err <= T_STAR_TOL:
        return Failure(f"max |t* - reference| = {err:.2e}")
    if tuple(tr["kind"] for tr in trs) != CROSSING_KINDS:
        return Failure(f"kinds {[tr['kind'] for tr in trs]}")
    if tuple((tr["rank_before"], tr["rank_after"]) for tr in trs) != CROSSING_RANKS:
        return Failure("rank pairs differ from criterion 6")
    return None


def crossing_part_scan(index: int, a: Fraction, b: Fraction):
    """The crossing path from t = a to t = b holds only its t* number `index`,
    at s = (t* - a) / (b - a), with that t*'s kind and rank pair."""
    want = float((Fraction(T_STARS[index]) - a) / (b - a))

    def oracle(status, out):
        payload, failure = _payload(status, out)
        if failure:
            return failure
        trs = payload["transitions"]
        if len(trs) != 1:
            return Failure(f"{len(trs)} transitions, expected 1")
        tr = trs[0]
        if (tr["kind"], (tr["rank_before"], tr["rank_after"])) != (CROSSING_KINDS[index], CROSSING_RANKS[index]):
            return Failure(f"transition {tr['kind']} {tr['rank_before']}->{tr['rank_after']}, expected "
                           f"{CROSSING_KINDS[index]} {CROSSING_RANKS[index]}")
        err = abs(tr["t_star"] - want)
        if not err <= T_STAR_TOL:
            return Failure(f"|s* - reference| = {err:.2e}")
        return None
    return oracle


def _classify_payload(status, out):
    payload, failure = _payload(status, out, allowed=(0, 2))
    if failure:
        return None, failure
    want_status = 2 if payload.get("label") == "REAL_RANK_GE_3" else 0
    if status != want_status:
        return None, Failure(f"exit status {status} with label {payload.get('label')}")
    return payload, None


def crossing_classify(t: Fraction):
    region = sum(1 for ts in T_STARS if ts < t)

    def oracle(status, out):
        payload, failure = _classify_payload(status, out)
        if failure:
            return failure
        real = len(payload["solutions"])
        two_real = sum(1 for s in payload["solutions"] if s["contact"] == "TWO_REAL_POINTS")
        if (real, two_real) != (SEGMENT_REAL[region], SEGMENT_TWO_REAL[region]):
            return Failure(f"{real} real / {two_real} two-real secants, expected "
                           f"{SEGMENT_REAL[region]} / {SEGMENT_TWO_REAL[region]}")
        return None
    return oracle


def segment_scan(status, out):
    payload, failure = _payload(status, out)
    if failure:
        return failure
    unlabeled = [tr["t_star"] for tr in payload["transitions"] if tr["kind"] == "UNLABELED"]
    if unlabeled:
        return Failure(f"UNLABELED transitions at {unlabeled}")
    return None


def segment_ranks(resp):
    """(rank at t = 0, [(t*, rank after)]) from a scan response, or None."""
    if resp is None or resp.failure is not None or resp.status != 0:
        return None
    payload = json.loads(resp.stdout)
    first = payload["samples"][0]["label"]
    return LABEL_RANK[first], [(tr["t_star"], tr["rank_after"]) for tr in payload["transitions"]]


def segment_classify(t: Fraction, ranks):
    """curve-classify agrees with the rank its segment's scan shows at t."""
    def oracle(status, out):
        if ranks is None:
            return Failure("segment scan failed, no reference rank")
        payload, failure = _classify_payload(status, out)
        if failure:
            return failure
        rank = ranks[0]
        for t_star, after in ranks[1]:
            if t_star < t:
                rank = after
        got = LABEL_RANK.get(payload.get("label"))
        return None if got == rank else Failure(f"rank {got}, segment scan shows {rank}")
    return oracle
