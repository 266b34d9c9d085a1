"""Command line round trips and pinned text output."""

import argparse
import hashlib
import io
import json
import random
import time
from pathlib import Path

import pytest

from braidcalc import cli, words
from braidcalc.cli import _build_parser, main
from braidcalc.moves import dump_tower, load_tower, replay, tower_to_json
from braidcalc.templates import (
    TEMPLATE_DIR_ENV,
    builtin_templates,
    dump_template,
    make_cyclic,
    make_destabilize,
    template_to_json,
)
from braidcalc.words import BraidWord, conjugate, format_word, parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eq(capsys):
    code, out, _ = run(capsys, "eq", "3: 1 2 1", "3: 2 1 2")
    assert code == 0
    assert out.strip() == "equal"
    code, out, _ = run(capsys, "eq", "2: 1", "2: -1", "--expect", "not-equal")
    assert code == 0
    assert out.strip() == "not-equal"
    code, out, _ = run(capsys, "eq", "2: 1", "2: -1", "--expect", "equal")
    assert code == 1
    code, _, err = run(capsys, "eq", "2: 1", "3: 1")
    assert code == 2 and "error" in err


def test_eq_json(capsys):
    code, out, _ = run(
        capsys, "eq", "2: 1 -1", "2:", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"equal": True}


def test_conj(capsys):
    code, out, _ = run(
        capsys, "conj", "3: 1", "3: 2", "--expect", "conjugate"
    )
    assert code == 0
    assert out.startswith("conjugate nodes=")
    code, out, _ = run(capsys, "conj", "3: 1", "3: -1")
    assert code == 0
    assert out.startswith("not-conjugate")
    code, out, _ = run(
        capsys, "conj", "3: 1", "3: -1", "--expect", "conjugate"
    )
    assert code == 1


def test_conj_on_twelve_strands_is_bounded(capsys):
    # each summit-set element is conjugated by at most n - 1 simples, so
    # the cap bounds the work; a walk over all n! - 1 simples would list
    # 479,001,599 of them before storing the first element
    rng = random.Random("twelve-strands")

    def letter():
        return rng.choice((1, -1)) * rng.randint(1, 11)

    u = BraidWord(12, [letter() for _ in range(24)])
    v = conjugate(u, BraidWord(12, [letter() for _ in range(6)]))
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "conj", format_word(u), format_word(v), "--cap", "50"
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.split()[0] in ("conjugate", "inconclusive")
    assert elapsed < 5.0, f"{elapsed:.2f} s"


def test_conj_json_reports_nodes(capsys):
    code, out, _ = run(
        capsys, "conj", "3: 1 1 2", "3: 2 1 1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "conjugate"
    assert doc["nodes"] == 2


def test_nf_pinned(capsys):
    code, out, _ = run(capsys, "nf", "3: 1 2 1")
    assert code == 0
    assert out.strip() == "3: D^1"
    code, out2, _ = run(capsys, "nf", "3: 2 1 2")
    assert out2 == out
    code, out, _ = run(capsys, "nf", "3: 1 1", "--format", "json")
    doc = json.loads(out)
    assert doc == {"index": 3, "power": 0, "factors": [[1], [1]]}


def test_invariants_pinned(capsys):
    code, out, _ = run(capsys, "invariants", "2: 1 1 1")
    assert code == 0
    assert out.strip() == "components=1 alexander=1 - t + t^2 sl=1"
    code, out, _ = run(capsys, "invariants", "2: 1 1")
    assert out.strip() == "components=2 alexander=1 - t sl=0"
    code, out, _ = run(capsys, "invariants", "2: 1 1 1", "--format", "json")
    doc = json.loads(out)
    assert doc == {
        "components": 1,
        "alexander": "1 - t + t^2",
        "self_linking": 1,
    }


@pytest.mark.parametrize(
    "word, want",
    [
        # peels to one strand, an unknot, with no Burau matrix
        (
            "300: " + " ".join(map(str, range(1, 300))),
            "components=1 alexander=1 sl=-1",
        ),
        # one destabilization, then no generator: split, no Burau matrix
        ("3000: 1", "components=2999 alexander=0 sl=-2999"),
    ],
)
def test_invariants_on_many_strands_read_the_core(capsys, word, want):
    start = time.perf_counter()
    code, out, _ = run(capsys, "invariants", word)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.strip() == want
    assert elapsed < 2.0, f"{elapsed:.2f} s"


_DIGITS = "1" * 5000  # more digits than int() converts


@pytest.mark.parametrize(
    "argv, column",
    [
        (("nf", "3: 1 1 1 -2 4"), 13),
        (("nf", "3: \u00b2"), 4),
        (("nf", "3: \u0661"), 4),
        (("eq", "3: 1", "3: 1 \u00b3"), 6),
        (("nf", "3: " + _DIGITS), 4),
        (("nf", _DIGITS + ": 1"), 1),
        (("expand", "cyclic4", "--assign", "P=3: \u00b2"), 4),
    ],
    ids=[
        "late-letter",
        "superscript-letter",
        "arabic-indic-letter",
        "eq-superscript",
        "long-letter",
        "long-strand-count",
        "assign-superscript",
    ],
)
def test_parse_error_exit_2(capsys, argv, column):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert f"(line 1, column {column})" in err


def test_move(capsys):
    doc = json.dumps({"kind": "stabilize", "sign": 1})
    code, out, _ = run(capsys, "move", "2: 1 1 1", doc)
    assert code == 0
    assert parse_word(out.strip()) == BraidWord(3, (1, 1, 1, 2))
    doc = json.dumps({"kind": "destabilize", "sign": -1})
    code, _, err = run(capsys, "move", "2: 1 1 1", doc)
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "move", "2: 1", "{not json")
    assert code == 2


def test_replay_and_reduce_tower(tmp_path, capsys):
    out_path = tmp_path / "tower.json"
    code, out, _ = run(
        capsys, "reduce", "3: 1 -2", "--out", str(out_path)
    )
    assert code == 0
    assert out.strip() == "reduced n=3 len=2 -> n=1 len=0 nodes=3"
    tower = load_tower(str(out_path))
    assert replay(tower).ok
    assert tower.final == BraidWord(1, ())
    code, out, _ = run(capsys, "replay", str(out_path))
    assert code == 0
    assert out.startswith("replay ok")
    code, _, err = run(capsys, "replay", str(tmp_path / "missing.json"))
    assert code == 2
    # the second step's negative destabilization no longer applies
    doc = {
        "initial": "2: 1",
        "steps": [
            {"move": {"kind": "stabilize", "sign": 1}, "result": "3: 1 2"},
            {"move": {"kind": "destabilize", "sign": -1}, "result": "2: 1"},
        ],
    }
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", str(broken))
    assert (code, out, err) == (1, "replay failed at step 2\n", "")
    code, out, _ = run(capsys, "replay", str(broken), "--format", "json")
    payload = json.loads(out)
    assert code == 1
    assert (payload["ok"], payload["failed_step"]) == (False, 2)
    assert len(payload["fingerprints"]) == 2


def test_tower_and_template_files_take_one_document_and_one_write(
    tmp_path, capsys, monkeypatch
):
    built, writes = [], []

    def counted_tower_to_json(tower):
        built.append(tower)
        return tower_to_json(tower)

    class CountedFile(io.StringIO):
        def __init__(self, path):
            super().__init__()
            self.path = Path(path)

        def write(self, text):
            writes.append(self.path)
            return super().write(text)

        def close(self):
            self.path.write_text(self.getvalue(), encoding="utf-8")
            super().close()

    monkeypatch.setattr(cli, "tower_to_json", counted_tower_to_json)
    monkeypatch.setattr(
        words, "open", lambda path, *_, **__: CountedFile(path), raising=False
    )
    out_path = tmp_path / "tower.json"
    code, out, _ = run(
        capsys, "reduce", "3: 1 -2", "--out", str(out_path), "--format", "json"
    )
    assert code == 0 and len(built) == 1 and writes == [out_path]
    doc = json.loads(out)["tower"]
    assert out_path.read_text() == json.dumps(doc, indent=2) + "\n"
    # the module writers give the bytes json.dump gave, in one write each
    for dump, value, doc in (
        (dump_tower, built[0], tower_to_json(built[0])),
        (dump_template, make_cyclic(4), template_to_json(make_cyclic(4))),
    ):
        writes.clear()
        dump(value, out_path)
        assert writes == [out_path]
        assert out_path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_reduce_inline_tower(capsys):
    code, out, _ = run(capsys, "reduce", "3: 1 -2")
    assert code == 0
    doc_line, summary = out.strip().split("\n")
    doc = json.loads(doc_line)
    assert doc["initial"] == "3: 1 -2"
    assert summary == "reduced n=3 len=2 -> n=1 len=0 nodes=3"


def test_reduce_above_128_strands(capsys):
    code, out, err = run(
        capsys, "reduce", "200: 150 199", "--max-index", "300"
    )
    assert code == 0 and err == ""
    doc_line, summary = out.strip().split("\n")
    assert json.loads(doc_line)["steps"][0]["result"] == "199: 150"
    assert summary == "reduced n=200 len=2 -> n=199 len=1 nodes=15"


def test_expand_catalog_name(capsys):
    code, out, _ = run(
        capsys,
        "expand",
        "destabilize_pos",
        "--assign",
        "P=2: 1 1",
    )
    assert code == 0
    assert parse_word(out.strip()).index >= 2
    code, _, err = run(capsys, "expand", "no_such_template")
    assert code == 2
    code, out, err = run(capsys, "expand", "destabilize_pos", "--assign", "P")
    assert (code, out) == (2, "")
    assert err == "error: expected NAME=WORD, got 'P'\n"


def test_expand_file(tmp_path, capsys):
    path = tmp_path / "cyclic.json"
    dump_template(make_cyclic(4), str(path))
    assigns = []
    for i in range(1, 5):
        assigns += ["--assign", f"B{i}=2:"]
    code, out, _ = run(capsys, "expand", str(path), "--side", "plus", *assigns)
    assert code == 0
    word = parse_word(out.strip())
    assert word == BraidWord(4, (3, 2, 1) * 4)
    code, _, err = run(capsys, "expand", str(path), "--side", "plus")
    assert code == 1  # missing assignments


def test_verify_template_pinned(capsys):
    code, out, _ = run(
        capsys, "verify-template", "exchange_w1", "--seed", "0"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "template=exchange_w1 seed=0 samples=25"
    assert lines[1] == "25/25 pass delta_b=0"
    code, out, _ = run(
        capsys,
        "verify-template",
        "destabilize_pos",
        "--samples",
        "5",
        "--seed",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == 5 and doc["delta_b"] == 1
    assert all(s["ok"] for s in doc["samples"])


def test_verify_template_answers_are_pinned(capsys):
    # every catalog template at three seeds and three word lengths; the
    # 117 answers are pinned by one digest
    digest = hashlib.sha256()
    for name in sorted(t.name for t in builtin_templates()):
        for seed in range(3):
            for max_len in (0, 6, 9):
                code, out, err = run(
                    capsys, "verify-template", name, "--seed", str(seed),
                    "--max-len", str(max_len), "--format", "json",
                )
                digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == (
        "1dfc8d70b0ee29a6fe09736f4e2679867cad559b2c562523bf06a03d5ead1090"
    )


def test_verify_template_one_cable_block(tmp_path, capsys):
    # a block on one cable can only hold the empty word
    block = {"kind": "block", "id": "P", "span": 1}
    band = {"kind": "band", "pos": 1, "sign": 1}
    doc = {
        "name": "one_cable",
        "plus": {"n": 3, "weights": [2, 1], "entries": [block, band]},
        "minus": {
            "n": 3,
            "weights": [2, 1],
            "entries": [band, dict(block, pos=2)],
        },
    }
    path = tmp_path / "one_cable.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-template", str(path))
    assert (code, err) == (0, "")
    assert out.split("\n")[1] == "25/25 pass delta_b=0"


def test_verify_template_dir_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", str(tmp_path))
    code, _, err = run(capsys, "verify-template", "exchange_w1")
    assert code == 2
    dump_template(make_cyclic(3), str(tmp_path / "only.json"))
    code, out, _ = run(capsys, "verify-template", "cyclic3", "--samples", "4")
    assert code == 0
    assert "4/4 pass" in out


def test_verify_template_empty_dir_is_unset(tmp_path, capsys, monkeypatch):
    # an unrelated JSON file in the working directory is not a template
    (tmp_path / "junk.json").write_text(json.dumps({"unrelated": 1}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", "")
    code, out, err = run(capsys, "verify-template", "exchange_w1")
    assert (code, err) == (0, "")
    assert out.split("\n")[1] == "25/25 pass delta_b=0"


def test_verify_template_missing_dir_is_named(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "no-such-catalog"
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", str(missing))
    code, out, err = run(capsys, "verify-template", "exchange_w1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(missing) in err


def test_certify_pinned(capsys, tmp_path):
    code, out, _ = run(
        capsys, "certify", "destabilize_pos", "--min-last-count", "2"
    )
    assert code == 0
    assert out.strip() == "sigma_budget=1 required=2 certified=yes"
    code, out, _ = run(
        capsys, "certify", "destabilize_pos", "--min-last-count", "1"
    )
    assert code == 1
    assert out.strip() == "sigma_budget=1 required=1 certified=no"
    doc = {
        "n": 3,
        "weights": [1, 1, 1],
        "entries": [{"kind": "block", "id": "P", "span": 2, "pos": 2}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "certify", str(path), "--min-last-count", "1")
    assert code == 1 and "error" in err
    # a template file is read on the side asked for: the minus side's
    # block reaches the last of its two strands
    path = tmp_path / "template.json"
    dump_template(make_destabilize(1), path)
    code, out, _ = run(capsys, "certify", str(path), "--min-last-count", "2")
    assert (code, out) == (0, "sigma_budget=1 required=2 certified=yes\n")
    code, out, err = run(
        capsys, "certify", str(path), "--side", "minus", "--min-last-count", "2"
    )
    assert (code, out) == (1, "")
    assert err == "error: block 'P' spans strands 1..2 of 2\n"


def test_census_command(tmp_path, capsys):
    doc = {
        "V": [{"a": 1, "b": 2, "count": 4}],
        "Ea": 4,
        "Eb": 4,
        "Es": 0,
    }
    path = tmp_path / "census.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "census", str(path))
    assert code == 0
    assert "annulus_residual=0" in out
    assert "vertex_residual=0 a_residual=0 b_residual=0" in out
    doc["Es"] = 1
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "census", str(path))
    assert code == 1
    code, _, err = run(capsys, "census", str(tmp_path / "nope.json"))
    assert code == 2
    # with chi, a surface line; a V(1,0) row and an a >= 2 row, advisories
    doc = {
        "V": [{"a": 1, "b": 0, "count": 2}, {"a": 2, "b": 1, "count": 1}],
        "Ea": 4,
        "Eb": 2,
        "Es": 2,
        "chi": 0,
    }
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "census", str(path))
    assert code == 1
    assert out == (
        "annulus_residual=-1\n"
        "surface_residual=-1\n"
        "vertex_residual=-2 a_residual=0 b_residual=-3\n"
        "advisory: V(1,0) = 2, expected 0\n"
        "advisory: V(2,1) = 1, expected 0 for a >= 2\n"
    )


def test_reduce_rejects_bad_budget(capsys):
    with pytest.raises(SystemExit):
        main(["reduce"])
    capsys.readouterr()
    code, _, err = run(capsys, "reduce", "3: 1", "--max-index", "2")
    assert code == 2
    code, _, err = run(capsys, "reduce", "3: 1", "--node-budget", "0")
    assert code == 2 and err.startswith("error: caps must be positive")


def _edited(doc, *changes):
    # a copy of a JSON document with (path, key, value) changes applied
    doc = json.loads(json.dumps(doc))
    for path, key, value in changes:
        target = doc
        for step in path:
            target = target[step]
        target[key] = value
    return doc


# each a document that a loose decoder reads as a valid one: the
# destabilize_pos template, where "P=2: 1" expands to "3: 1 2", a
# consistent census, and a diagram whose block P has spans 2 and 3, each
# clear of the last strand; then a template without its plus side and a
# census row without b, each missing a field that the decoder reads
_TEMPLATE = template_to_json(make_destabilize(1))
_CENSUS = {"V": [{"a": 1, "b": 1, "count": 4}], "Ea": 4, "Eb": 2, "Es": 2}
_DOCUMENTS = {
    "{span-float}": _edited(_TEMPLATE, (("plus", "entries", 0), "span", 2.9)),
    "{sign-bool}": _edited(_TEMPLATE, (("plus", "entries", 1), "sign", True)),
    "{pos-string}": _edited(_TEMPLATE, (("plus", "entries", 1), "pos", "2")),
    "{post-string}": _edited(
        _TEMPLATE, (("minus",), "post_destabilization", "no")
    ),
    "{name-int}": _edited(_TEMPLATE, ((), "name", 5)),
    "{id-int}": _edited(
        _TEMPLATE,
        (("plus", "entries", 0), "id", 5),
        (("minus", "entries", 0), "id", 5),
    ),
    "{count-float}": _edited(_CENSUS, (("V", 0), "count", 4.9)),
    "{es-float}": _edited(_CENSUS, ((), "Es", 2.5)),
    "{chi-bool}": _edited(_CENSUS, ((), "chi", True)),
    "{es-negative}": _edited(_CENSUS, ((), "Es", -1)),
    "{span-zero}": _edited(_TEMPLATE, (("plus", "entries", 0), "span", 0)),
    "{slots-out}": _edited(_TEMPLATE, (("plus", "entries", 0), "pos", 3)),
    "{no-plus}": {k: v for k, v in _TEMPLATE.items() if k != "plus"},
    "{no-b}": {**_CENSUS, "V": [{"a": 1, "count": 4}]},
    "{kind-list}": _edited(_TEMPLATE, (("plus", "entries", 1), "kind", ["band"])),
    "{steps-object}": {"initial": "2: 1", "steps": {}},
    "{entries-object}": {
        "name": "empty",
        "plus": {"n": 2, "weights": [1, 1], "entries": {}},
        "minus": {"n": 2, "weights": [1, 1], "entries": []},
    },
    "{diagram-entries-object}": {"n": 2, "weights": [1, 1], "entries": {}},
    "{v-object}": {"V": {}, "Ea": 0, "Eb": 0, "Es": 0},
    "{two-spans}": {
        "n": 4,
        "weights": [1, 1, 1, 1],
        "entries": [
            {"kind": "block", "id": "P", "span": 2},
            {"kind": "block", "id": "P", "span": 3},
        ],
    },
}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-template", "{dir}"],
        ["expand", "{dir}"],
        ["expand", "{list}"],
        ["certify", "{list}", "--min-last-count", "1"],
        ["replay", "{list}"],
        ["census", "{list}"],
        ["move", "2: 1", "[]"],
        ["move", "2: 1", "5"],
        ["verify-template", "exchange_w1", "--samples", "0"],
        ["verify-template", "exchange_w1", "--max-len", "-1"],
        ["move", "3: 1 2", '{"kind": "stabilize", "sign": 3}'],
        ["move", "3: 1 2", '{"kind": "stabilize", "sign": true}'],
        ["move", "3: 1 2", '{"kind": "stabilize", "sign": "1"}'],
        ["move", "3: 1 2", '{"kind": "cyclic", "k": 1.5}'],
        ["move", "3: 1 2", '{"kind": "stabilize"}'],
        ["move", "2: 1", '{"kind": "twist"}'],
        ["move", "2: 1", '{"kind": ["stabilize"]}'],
        [
            "move",
            "3: 1 2 1 2",
            '{"kind": "flype3", "p": 1, "u": 1, "q": 1, "eps": 1.9}',
        ],
        ["replay", "{tower}"],
        ["conj", "3: 1 1 1 -2 -2 1 1 1 1 -2", "3: 1 1 1 -2 1 1 1 1 -2 -2",
         "--cap", "0"],
        ["conj", "3: 1", "3: 2", "--cap", "-5"],
        *[
            ["expand", name, "--assign", "P=2: 1"]
            for name in (
                "{span-float}",
                "{sign-bool}",
                "{pos-string}",
                "{post-string}",
                "{name-int}",
                "{id-int}",
                "{no-plus}",
                "{span-zero}",
                "{slots-out}",
                "{kind-list}",
            )
        ],
        *[["census", name] for name in ("{count-float}", "{es-float}",
                                         "{chi-bool}", "{no-b}",
                                         "{es-negative}")],
        ["reduce", "3: 1 -2", "--out", "{dir}"],
        ["move", "2: 1", "[" * 100_000],
        ["replay", "{deep}"],
        ["census", "{deep}"],
        ["expand", "{deep}"],
        ["{bad-catalog}", "expand", "cyclic4"],
        ["{bad-catalog}", "verify-template", "cyclic4"],
        ["{bad-catalog}", "certify", "cyclic4", "--min-last-count", "1"],
        ["certify", "{two-spans}", "--min-last-count", "2"],
        ["replay", "{steps-object}"],
        ["verify-template", "{entries-object}"],
        ["certify", "{diagram-entries-object}", "--min-last-count", "0"],
        ["census", "{v-object}"],
    ],
    ids=[
        "verify-template-dir",
        "expand-dir",
        "template-list",
        "diagram-list",
        "tower-list",
        "census-list",
        "move-list",
        "move-int",
        "samples-0",
        "max-len-negative",
        "move-sign-3",
        "move-sign-bool",
        "move-sign-string",
        "move-k-float",
        "move-no-sign",
        "move-kind-unknown",
        "move-kind-list",
        "move-eps-float",
        "tower-sign-bool",
        "conj-cap-0",
        "conj-cap-negative",
        "template-span-float",
        "template-sign-bool",
        "template-pos-string",
        "template-post-string",
        "template-name-int",
        "template-id-int",
        "template-no-plus",
        "template-span-zero",
        "template-slots-out-of-range",
        "template-kind-list",
        "census-count-float",
        "census-es-float",
        "census-chi-bool",
        "census-no-b",
        "census-es-negative",
        "reduce-out-dir",
        "move-deep",
        "tower-deep",
        "census-deep",
        "template-deep",
        "catalog-expand",
        "catalog-verify-template",
        "catalog-certify",
        "diagram-two-spans",
        "tower-steps-object",
        "template-entries-object",
        "diagram-entries-object",
        "census-v-object",
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    # {dir} is a directory where a file is expected; {list} is a JSON
    # file holding a list where an object is expected; {tower} is a
    # tower file whose one step would replay if its sign were decoded
    # loosely; {deep} nests arrays past the decoder's recursion limit;
    # the rest are the files of _DOCUMENTS.  A leading {bad-catalog}
    # points the catalog at a directory whose one template file has an
    # integer name, so naming any catalog entry must fail
    if argv[0] == "{bad-catalog}":
        catalog_dir = tmp_path / "catalog"
        catalog_dir.mkdir()
        (catalog_dir / "bad.json").write_text(json.dumps({"name": 5}))
        monkeypatch.setenv(TEMPLATE_DIR_ENV, str(catalog_dir))
        argv = argv[1:]
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    tower = tmp_path / "tower.json"
    step = {"move": {"kind": "stabilize", "sign": True}, "result": "3: 1 2"}
    tower.write_text(json.dumps({"initial": "2: 1", "steps": [step]}))
    files = {
        "{dir}": tmp_path,
        "{list}": listed,
        "{tower}": tower,
        "{deep}": deep,
    }
    for number, (name, doc) in enumerate(_DOCUMENTS.items()):
        files[name] = tmp_path / f"doc{number}.json"
        files[name].write_text(json.dumps(doc))
    two_spans = "{two-spans}" in argv
    argv = [str(files.get(a, a)) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: bad ")
    assert "Traceback" not in err
    if two_spans:
        assert err == (
            "error: bad diagram file: block 'P' appears with two spans\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "3: 3"],
        ["move", "3: 1", '{"kind": "conjugate", "by": "3: 3"}'],
        ["expand", "exchange_w1", "--assign", "P=2: 2", "--assign", "Q=2:"],
    ],
    ids=["word", "move-by", "assign"],
)
def test_out_of_range_letters_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "out of range" in err and "Traceback" not in err


def _interface(parser):
    # every subcommand's name and help, and every action's settings
    def actions(p):
        return [
            [
                a.option_strings,
                a.dest,
                a.nargs,
                repr(a.default),
                getattr(a.type, "__name__", repr(a.type)),
                None if a.choices is None else list(a.choices),
                a.required,
                a.help,
                a.metavar,
                type(a).__name__,
            ]
            for a in p._actions
        ]

    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return [[parser.prog, parser.description, actions(parser)]] + [
        [name, helps[name], p.prog, actions(p)]
        for name, p in sub.choices.items()
    ]


def test_interface_is_pinned():
    interface = _interface(_build_parser())
    assert [row[0] for row in interface[1:]] == [
        "eq",
        "conj",
        "nf",
        "invariants",
        "move",
        "replay",
        "expand",
        "verify-template",
        "certify",
        "census",
        "reduce",
    ]
    dump = json.dumps(interface)
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "c8ca3a7c3edcfcdbbb09a7e9fa2fa17c220b8158236b670f04da159c81461eaf"
    )


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_calls_share_no_state(capsys):
    # the parser is reused, so no option may leak into the next call
    code, _, err = run(capsys, "expand", "flype3_pos", "--assign", "P=2: 1")
    assert (code, err) == (1, "error: assignment misses blocks: ['Q', 'R']\n")
    code, _, err = run(capsys, "expand", "flype3_pos")
    assert (code, err) == (
        1,
        "error: assignment misses blocks: ['P', 'Q', 'R']\n",
    )
    code, _, _ = run(capsys, "eq", "2: 1", "2: -1", "--expect", "equal")
    assert code == 1
    code, out, _ = run(capsys, "eq", "2: 1", "2: -1")
    assert (code, out) == (0, "not-equal\n")
    run(capsys, "nf", "3: 1 2 1", "--format", "json")
    assert run(capsys, "nf", "3: 1 2 1") == (0, "3: D^1\n", "")
