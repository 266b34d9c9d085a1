"""Known-answer checks for one braidcalc CLI answer.

``check`` compares the exit code and the ``--format json`` document
with the answer the generator built into the request.  It returns
whether the answer was definite (``inconclusive`` from ``conj`` is not)
and raises :class:`WrongAnswer` on anything else.  The checks use only
the word helpers in ``workloads``, never braidcalc.
"""

from __future__ import annotations

import json

from workloads import cycle_type, exponent_sum, parse, permutation


class WrongAnswer(Exception):
    """The answer contradicts the request's known answer."""


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise WrongAnswer(why)


def check(kind: str, expect: dict, code: int, out: str, memo: dict) -> bool:
    """Check one answer; ``memo`` carries state across a run's requests.

    Returns whether the answer was definite.
    """

    _require(code == 0, f"exit code {code}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as err:
        raise WrongAnswer(f"output is not JSON: {err}") from err
    return _CHECKS[kind](expect, doc, memo)


def _eq(expect, doc, memo) -> bool:
    _require(doc["equal"] is expect["equal"], f"equal={doc['equal']}")
    return True


def _nf(expect, doc, memo) -> bool:
    """Δ^p F1..Fm must spell the word's permutation and exponent sum.

    Each factor must be a permutation braid: positive letters, no two
    strands crossing twice.  A word and its twin must give the same
    document, since normal forms are unique.
    """

    n, letters = parse(expect["word"])
    _require(doc["index"] == n, f"index {doc['index']}")
    factors = doc["factors"]
    half_twist = n * (n - 1) // 2
    total = doc["power"] * half_twist + sum(len(f) for f in factors)
    _require(total == exponent_sum(letters), "exponent sum differs")
    perm = list(range(1, n + 1))
    if doc["power"] % 2:
        perm.reverse()
    for f in factors:
        _require(all(1 <= g < n for g in f), f"factor {f} is not positive")
        fp = permutation(n, f)
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if fp[i] > fp[j]
        )
        _require(inversions == len(f), f"factor {f} is not a permutation braid")
        perm = [perm[q - 1] for q in fp]
    _require(tuple(perm) == permutation(n, letters), "permutation differs")
    first = memo.setdefault(("nf", expect["pair"]), doc)
    _require(first == doc, "twin words got different normal forms")
    return True


def _conj(expect, doc, memo) -> bool:
    if doc["verdict"] == "inconclusive":
        return False
    _require(doc["verdict"] == expect["verdict"], f"verdict {doc['verdict']}")
    return True


def _reduce(expect, doc, memo) -> bool:
    tower = doc["tower"]
    _require(tower["initial"] == expect["word"], "tower starts elsewhere")
    n0, w0 = parse(expect["word"])
    final = tower["steps"][-1]["result"] if tower["steps"] else tower["initial"]
    n, w = parse(final)
    _require((n, len(w)) <= (n0, len(w0)), f"search ended worse, at {final}")
    components = len(cycle_type(permutation(n, w)))
    _require(components == expect["components"], f"{final} changed the link")
    return True


def _replay(expect, doc, memo) -> bool:
    _require(doc["ok"] is True, f"step {doc['failed_step']} did not replay")
    _require(doc["constant"] is True, "fingerprint changed along the tower")
    for fp in doc["fingerprints"]:
        _require(fp == expect["fingerprint"], f"fingerprint {fp}")
    return True


def _verify_template(expect, doc, memo) -> bool:
    _require(doc["template"] == expect["template"], "wrong template")
    _require(doc["delta_b"] == expect["delta_b"], f"delta_b {doc['delta_b']}")
    _require(len(doc["samples"]) == expect["samples"], "sample count")
    _require(all(s["ok"] for s in doc["samples"]), "a sample failed")
    _require(doc["passed"] == expect["samples"], f"passed {doc['passed']}")
    return True


def alexander_coefficients(text: str) -> list[int]:
    """Coefficients, lowest exponent first, of braidcalc's polynomial text."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("-")
        head, t, power = body.partition("t")
        coeff = int(head.rstrip("*")) if head else 1
        exp = (int(power[1:]) if power else 1) if t else 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    top = max(coeffs)
    return [coeffs.get(e, 0) for e in range(top + 1)]


def _invariants(expect, doc, memo) -> bool:
    """Components and self-linking against the benchmark's own arithmetic.

    The polynomial must vanish at t = 1 for a link and be ±1 there for a
    knot, and must be symmetric up to sign.
    """

    _require(doc["components"] == expect["components"], "components")
    _require(doc["self_linking"] == expect["self_linking"], "self_linking")
    coeffs = alexander_coefficients(doc["alexander"])
    at_one = sum(coeffs)
    if expect["components"] == 1:
        _require(abs(at_one) == 1, f"knot with Δ(1) = {at_one}")
    else:
        _require(at_one == 0, f"link with Δ(1) = {at_one}")
    mirrored = coeffs[::-1]
    _require(
        mirrored == coeffs or mirrored == [-c for c in coeffs],
        "polynomial is not symmetric",
    )
    return True


_CHECKS = {
    "eq": _eq,
    "nf": _nf,
    "conj": _conj,
    "reduce": _reduce,
    "replay": _replay,
    "verify-template": _verify_template,
    "invariants": _invariants,
}
