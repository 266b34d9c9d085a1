"""Tests of the benchmark itself: its known-answer checks, its seeded
generation and its tracing wrappers.

Run from the repository root with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import random
import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

import braidcalc.cli as cli  # noqa: E402
import braidcalc.garside as garside  # noqa: E402
from braidcalc.words import parse_word  # noqa: E402


def answer(argv):
    code, out, _ = run.call(cli, list(argv))
    return code, out


def passes(request, code, out, memo=None):
    memo = {} if memo is None else memo
    return checks.check(request.kind, request.expect, code, out, memo)


def test_flipped_verdicts_fail():
    eq = workloads.Request("eq", ("eq", "3: 1 2 1", "3: 2 1 2"), {"equal": False})
    with pytest.raises(checks.WrongAnswer):
        passes(eq, *answer(eq.argv))
    u, v = workloads.BLIND_PAIR
    conj = workloads.Request("conj", ("conj", u, v), {"verdict": "conjugate"})
    with pytest.raises(checks.WrongAnswer):
        passes(conj, *answer(conj.argv))


def test_inconclusive_is_undecided_not_failed():
    request = workloads._conj(*workloads.BLIND_PAIR, False)
    code, out = answer(request.argv + ("--cap", "1"))
    assert json.loads(out)["verdict"] == "inconclusive"
    assert passes(request, code, out) is False


def test_tampered_tower_step_fails(tmp_path):
    word = workloads.obfuscate(random.Random(0), "2: 1 1 1", 2, 5)
    tower = tmp_path / "tower.json"
    reduce = workloads.Request(
        "reduce",
        ("reduce", word, "--out", str(tower)),
        {"word": word, "components": 1},
    )
    assert passes(reduce, *answer(reduce.argv))
    replay = workloads.Request(
        "replay",
        ("replay", str(tower)),
        {"fingerprint": "components=1 alexander=1 - t + t^2"},
    )
    assert passes(replay, *answer(replay.argv))

    doc = json.loads(tower.read_text())
    step = doc["steps"][0]
    n, letters = workloads.parse(step["result"])
    step["result"] = workloads.fmt(n, letters + (1, -1))
    tower.write_text(json.dumps(doc))
    with pytest.raises(checks.WrongAnswer):
        passes(replay, *answer(replay.argv))


def test_wrong_nf_factor_fails():
    word = "4: 1 -2 3 1 2 -3 2 1"
    request = workloads.Request("nf", ("nf", word), {"word": word, "pair": 0})
    code, out = answer(request.argv)
    assert passes(request, code, out)
    doc = json.loads(out)
    for k, factor in enumerate(doc["factors"]):
        doc["factors"][k] = factor[::-1]
        if doc["factors"][k] != factor:
            break
    else:
        pytest.fail("no factor to tamper with")
    with pytest.raises(checks.WrongAnswer):
        passes(request, code, json.dumps(doc))


def test_twins_must_agree():
    n, base = 4, (1, -2, 3, 1, 2, -3, 2, 1)
    twin = (1, -2, 1, 3, 2, -3, 2, 1)  # 3 1 -> 1 3, a commutation
    memo = {}
    for letters in (base, twin):
        word = workloads.fmt(n, letters)
        request = workloads.Request("nf", ("nf", word), {"word": word, "pair": 0})
        assert passes(request, *answer(request.argv), memo)
    other = workloads.fmt(n, (2, 2))
    request = workloads.Request("nf", ("nf", other), {"word": other, "pair": 0})
    with pytest.raises(checks.WrongAnswer):
        passes(request, *answer(request.argv), memo)


def test_wrong_alexander_string_fails():
    request = workloads.Request(
        "invariants",
        ("invariants", "2: 1 1 1"),
        {"components": 1, "self_linking": 1},
    )
    code, out = answer(request.argv)
    assert passes(request, code, out)
    doc = json.loads(out)
    for wrong in ("1 - 2*t + t^2", "1 - t + 2*t^2", "0"):
        doc["alexander"] = wrong
        with pytest.raises(checks.WrongAnswer):
            passes(request, code, json.dumps(doc))


def test_alexander_coefficients():
    parse = checks.alexander_coefficients
    assert parse("1 - 3*t + t^2") == [1, -3, 1]
    assert parse("2 - 13*t + 41*t^2 - t^4") == [2, -13, 41, 0, -1]
    assert parse("1") == [1]
    assert parse("0") == [0]


def test_nonzero_exit_fails():
    request = workloads.Request("eq", ("eq", "3: 1", "3: 1"), {"equal": True})
    code, out = answer(request.argv + ("--expect", "not-equal"))
    assert code == 1
    with pytest.raises(checks.WrongAnswer):
        passes(request, code, out)
    code, out = answer(("eq", "3: 1", "3: 7"))
    assert code == 2
    with pytest.raises(checks.WrongAnswer):
        passes(request, code, out)


def test_a_crash_counts_as_failed():
    def boom(argv):
        raise RuntimeError("boom")

    class FakeCli:
        main = staticmethod(boom)

    tally = run.Tally()
    request = workloads.Request("eq", ("eq", "3: 1", "3: 1"), {"equal": True})
    tally.run(FakeCli, request, list(request.argv))
    assert tally.failed == 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.pool_digest(workloads.pool(workload, 1, 2))
    assert first == workloads.pool_digest(workloads.pool(workload, 1, 2))
    assert first != workloads.pool_digest(workloads.pool(workload, 2, 2))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_small_pools_check_out(workload, seed, tmp_path):
    requests = workloads.pool(workload, seed, 1)
    tally = run.Tally()
    for request, argv in zip(requests, run.concrete(requests, str(tmp_path))):
        tally.run(cli, request, argv)
    assert tally.failed == 0, tally.first_failure


def test_wrappers_install_count_internal_calls_and_come_off():
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "braidcalc.garside.normal_form" in spans.installed_wrappers()
        assert "braidcalc.cli.normal_form" in spans.installed_wrappers()
        tracer.begin_request(0)
        u, v = workloads.BLIND_PAIR
        garside.conjugacy_test(parse_word(u), parse_word(v))
    finally:
        tracer.remove()
    assert spans.installed_wrappers() == []
    metrics = tracer.layer_metrics()
    # the summit-set walk calls normal_form through garside's globals
    assert metrics["garside.normal_form.calls"] > 2
    assert metrics["garside.conjugacy_test.nodes"] == 20
    assert metrics["garside.normal_forms_per_node"] > 0
    with pytest.raises(RuntimeError):
        tracer.install()
        try:
            run.require_untraced()
        finally:
            tracer.remove()
