"""Block-strand diagrams, template expansion, the catalog."""

import hashlib
import json
import random
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _templates_oracle as oracle
from braidcalc import invariants, moves, templates
from braidcalc.garside import is_trivial, words_equal
from braidcalc.invariants import Fingerprint, LaurentPoly, _closed, fingerprint
from braidcalc.moves import (
    Conjugate,
    CyclicShift,
    Destabilize,
    Stabilize,
    Tower,
    extend,
    replay,
    tower_to_json,
)
from braidcalc.templates import (
    Band,
    BlockOnLastStrand,
    BlockRef,
    BlockStrandDiagram,
    CoverageError,
    IndexMismatch,
    Template,
    WeightFlowError,
    band_expand,
    builtin_templates,
    catalog,
    cyclic_tower,
    diagram_from_json,
    diagram_to_json,
    dump_template,
    expand,
    gflype_tower,
    load_template,
    make_cyclic,
    make_destabilize,
    make_exchange,
    make_flype,
    make_gflype6,
    make_microflype,
    non_carry_certificate,
    sample_assignment,
    sigma_budget,
    template_from_json,
    template_to_json,
    verify_template,
)
from braidcalc.words import (
    BraidWord,
    concat,
    cyclic_key,
    free_reduce,
    permutation,
    rotate,
)

CATALOG_NAMES = [
    "cyclic4",
    "destabilize_neg",
    "destabilize_pos",
    "exchange_w1",
    "exchange_weighted",
    "flype3_neg",
    "flype3_pos",
    "gexchange6",
    "gflype6",
    "microflype_mm",
    "microflype_mp",
    "microflype_pm",
    "microflype_pp",
]


def test_band_expand():
    assert band_expand(1, 1, 1, 1, 2) == BraidWord(2, (1,))
    assert band_expand(2, 1, 1, 1, 3) == BraidWord(3, (2, 1))
    assert permutation(band_expand(2, 1, 1, 1, 3)) == (3, 1, 2)
    assert band_expand(1, 2, 1, 1, 3) == BraidWord(3, (1, 2))
    assert band_expand(2, 2, 1, -1, 4) == BraidWord(4, (-2, -1, -3, -2))
    with pytest.raises(ValueError):
        band_expand(2, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        band_expand(1, 1, 0, 1, 2)
    with pytest.raises(ValueError, match="sign must be"):
        band_expand(1, 1, 1, 2, 2)


def test_band_expand_inverse_pairs():
    # crossing forward then back is trivial in the group, not freely
    for a, b in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        n = a + b
        fwd = band_expand(a, b, 1, 1, n)
        back = band_expand(b, a, 1, -1, n)
        assert is_trivial(concat(fwd, back))


def test_diagram_validation():
    d = BlockStrandDiagram(3, (1, 1, 1), (BlockRef("P", 2, 1), Band(2, 1)))
    assert d.blocks == {"P": 2}
    with pytest.raises(ValueError):
        BlockStrandDiagram(3, (1, 1), (Band(1, 1),))
    with pytest.raises(ValueError):
        BlockStrandDiagram(3, (1, 0, 2), ())
    with pytest.raises(ValueError):
        BlockStrandDiagram(3, (1, 1, 1), (Band(3, 1),))
    with pytest.raises(ValueError):
        BlockStrandDiagram(3, (1, 1, 1), (Band(2, 2),))
    with pytest.raises(ValueError):
        BlockStrandDiagram(3, (1, 1, 1), (BlockRef("P", 3, 1),))
    with pytest.raises(ValueError):
        BlockStrandDiagram(3, (1, 1, 1), (BlockRef("P", 1, 1),))
    # an int walks as a block letter, a string not at all: neither is an entry
    for entry in (2, "band"):
        with pytest.raises(TypeError, match="not a diagram entry"):
            BlockStrandDiagram(3, (1, 1, 1), (entry,))
    # full-width blocks need the post-destabilization waiver
    BlockStrandDiagram(
        2, (1, 1), (BlockRef("P", 2, 1),), post_destabilization=True
    )


def test_diagram_rejects_two_spans_for_one_block():
    # each occurrence alone is valid; together they disagree on P's span
    entries = (BlockRef("P", 2), BlockRef("P", 3))
    with pytest.raises(ValueError, match="block 'P' appears with two spans"):
        BlockStrandDiagram(4, (1, 1, 1, 1), entries)
    d = BlockStrandDiagram(4, (1, 1, 1, 1), (BlockRef("P", 2),) * 2)
    assert d.blocks == {"P": 2}


def test_template_requires_matching_blocks():
    plus = BlockStrandDiagram(3, (1, 1, 1), (BlockRef("P", 2, 1), Band(2, 1)))
    minus = BlockStrandDiagram(3, (1, 1, 1), (BlockRef("Q", 2, 1),))
    with pytest.raises(ValueError):
        Template("bad", plus, minus)


def test_expand_destabilization_shapes():
    # the weight-1 destabilization seen after the move: a full-width
    # block with one trailing crossing against the bare block
    plus = BlockStrandDiagram(
        2, (1, 1), (BlockRef("P", 2, 1), Band(1, 1)), post_destabilization=True
    )
    single = BlockStrandDiagram(1, (1,), ())
    assert expand(plus, {"P": BraidWord(2, (1, 1))}) == BraidWord(2, (1, 1, 1))
    assert expand(plus, {"P": BraidWord(2, ())}) == BraidWord(2, (1,))
    assert expand(single, {}) == BraidWord(1, ())
    assert fingerprint(expand(plus, {"P": BraidWord(2, ())})) == fingerprint(
        expand(single, {})
    )


def test_expand_errors():
    d = BlockStrandDiagram(3, (1, 1, 1), (BlockRef("P", 2, 1), Band(2, 1)))
    with pytest.raises(CoverageError):
        expand(d, {})
    with pytest.raises(IndexMismatch):
        expand(d, {"P": BraidWord(3, (1,))})


def test_expand_weight_flow_error():
    # a block whose word reorders unequal cable weights is rejected
    d = BlockStrandDiagram(3, (2, 1), (BlockRef("P", 2, 1),))
    with pytest.raises(WeightFlowError):
        expand(d, {"P": BraidWord(2, (1,))})
    # an even power restores the entering weights
    word = expand(d, {"P": BraidWord(2, (1, 1))})
    assert word.index == 3


def test_expand_cables_block_letters():
    # one letter on a (2, 1) block becomes the two-cable band crossing
    d = BlockStrandDiagram(3, (2, 1), (BlockRef("P", 2, 1),))
    word = expand(d, {"P": BraidWord(2, (1, 1))})
    assert word == concat(
        band_expand(2, 1, 1, 1, 3), band_expand(1, 2, 1, 1, 3)
    )


def test_microflype_sides_agree():
    t = make_microflype(1, 1)
    full_twist = BraidWord(2, (1, 1))
    asg = {name: full_twist for name in t.blocks}
    assert fingerprint(expand(t.plus, asg)) == fingerprint(
        expand(t.minus, asg)
    )


def test_verify_template_reports():
    t = make_destabilize(1)
    rng = random.Random(5)
    samples = [sample_assignment(t, rng) for _ in range(25)]
    report = verify_template(t, samples)
    assert report.all_pass and report.passed == 25
    assert report.delta_b == 1
    assert report.summary() == "25/25 pass delta_b=1"
    with pytest.raises(ValueError):
        verify_template(t, [])


def test_verify_template_catches_bad_pairs():
    good = make_destabilize(1)
    bad_plus = BlockStrandDiagram(
        3,
        (1, 1, 1),
        (BlockRef("P", 2, 1), Band(2, 1), Band(2, 1)),
    )
    bad = Template("bad", bad_plus, good.minus)
    report = verify_template(bad, [{"P": BraidWord(2, ())}])
    assert not report.all_pass
    assert "versus" in report.samples[0].detail


def test_exchange_template_delta_zero():
    t = make_exchange()
    rng = random.Random(9)
    report = verify_template(t, [sample_assignment(t, rng) for _ in range(10)])
    assert report.all_pass and report.delta_b == 0


def test_flype_template_arithmetic():
    for w, k, wp, kp in [(1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 3, 2), (2, 3, 3, 2)]:
        t = make_flype(1, w, k, wp, kp)
        assert t.delta_b == wp - k
    with pytest.raises(ValueError):
        make_flype(1, 1, 2, 1, 1)


def test_sigma_budget():
    assert sigma_budget(make_destabilize(1).plus) == 1
    assert sigma_budget(make_exchange().plus) == 2
    with pytest.raises(BlockOnLastStrand):
        sigma_budget(
            BlockStrandDiagram(3, (1, 1, 1), (BlockRef("P", 2, 2),))
        )


def test_sigma_budget_bounds_expansions():
    t = make_exchange()
    rng = random.Random(3)
    budget = sigma_budget(t.plus)
    for _ in range(10):
        asg = sample_assignment(t, rng)
        word = expand(t.plus, asg)
        top = t.plus.index - 1
        assert sum(1 for g in word.letters if abs(g) == top) <= budget


def test_non_carry_certificate():
    d = make_exchange().plus  # budget 2
    assert non_carry_certificate(d, 3)
    assert not non_carry_certificate(d, 2)
    assert not non_carry_certificate(d, 1)


def test_full_twist_needs_two_top_letters():
    # the 3-strand full twist admits a spelling with exactly two top
    # letters; this checks that upper bound only, and criterion 7 in
    # test_acceptance.py proves that no spelling uses fewer
    delta2 = BraidWord(3, (1, 2, 1, 2, 1, 2))
    short = BraidWord(3, (1, 2, 1, 1, 2, 1))
    assert words_equal(short, delta2)
    assert sum(1 for g in short.letters if abs(g) == 2) == 2


def test_builtin_catalog_names():
    names = sorted(t.name for t in builtin_templates())
    assert names == CATALOG_NAMES
    shipped = sorted(t.name for t in catalog())
    assert shipped == CATALOG_NAMES


def test_catalog_content_is_pinned():
    # any change to what the constructors build changes this digest
    doc = json.dumps([template_to_json(t) for t in catalog()], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "67398d5f46559d0275fcbbc0cb276ad0b432dcfc13f3b69a54a15907cad34ebb"
    )


def test_catalog_directory_override(tmp_path, monkeypatch):
    t = make_destabilize(-1)
    dump_template(t, tmp_path / "only.json")
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", str(tmp_path))
    assert [entry.name for entry in catalog()] == [t.name]
    monkeypatch.delenv("BRAID_TEMPLATE_DIR")
    assert len(catalog()) == len(CATALOG_NAMES)
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", str(tmp_path))
    assert [entry.name for entry in catalog()] == [t.name]


def test_catalog_is_a_new_list_each_call(tmp_path, monkeypatch):
    monkeypatch.delenv("BRAID_TEMPLATE_DIR", raising=False)
    first = catalog()
    first.clear()
    second = catalog()
    assert second is not catalog()
    assert [t.name for t in second] == CATALOG_NAMES
    assert second == sorted(builtin_templates(), key=lambda t: t.name)
    # the environment is read on every call, after the catalog is built
    dump_template(make_cyclic(3), tmp_path / "only.json")
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", str(tmp_path))
    assert [t.name for t in catalog()] == ["cyclic3"]
    monkeypatch.delenv("BRAID_TEMPLATE_DIR")
    assert [t.name for t in catalog()] == CATALOG_NAMES


def test_an_empty_template_dir_is_unset(tmp_path, monkeypatch):
    # a file in the working directory that is no template
    (tmp_path / "junk.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", "")
    assert [t.name for t in catalog()] == CATALOG_NAMES
    # set, then emptied: read again and unset
    (tmp_path / "junk.json").unlink()
    dump_template(make_cyclic(3), tmp_path / "only.json")
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", str(tmp_path))
    assert [t.name for t in catalog()] == ["cyclic3"]
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", "")
    assert [t.name for t in catalog()] == CATALOG_NAMES


def test_a_missing_template_dir_is_named(tmp_path, monkeypatch):
    missing = tmp_path / "nowhere"
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", str(missing))
    with pytest.raises(NotADirectoryError, match="nowhere"):
        catalog()
    (tmp_path / "file.json").write_text("{}")
    monkeypatch.setenv("BRAID_TEMPLATE_DIR", str(tmp_path / "file.json"))
    with pytest.raises(NotADirectoryError, match="file.json"):
        catalog()


def test_diagram_json_round_trip():
    d = BlockStrandDiagram(
        4,
        (1, 2, 1),
        (BlockRef("R", 2, 2), Band(1, -1)),
    )
    data = json.loads(json.dumps(diagram_to_json(d)))
    assert diagram_from_json(data) == d
    # a block entry with no slot field defaults to slot 1
    bare = {
        "n": 3,
        "weights": [1, 1, 1],
        "entries": [
            {"kind": "block", "id": "P", "span": 2},
            {"kind": "band", "pos": 2, "sign": 1},
        ],
    }
    parsed = diagram_from_json(bare)
    assert parsed.entries[0] == BlockRef("P", 2, 1)
    # a list kind is refused by name, not by the table's TypeError
    for kind in ("what", ["band"]):
        with pytest.raises(ValueError, match="unknown entry kind"):
            diagram_from_json(
                {"n": 2, "weights": [1, 1], "entries": [{"kind": kind}]}
            )


def test_template_json_round_trip(tmp_path):
    t = make_flype(-1, 1, 1, 1, 1)
    data = json.loads(json.dumps(template_to_json(t)))
    assert template_from_json(data) == t
    path = tmp_path / "t.json"
    dump_template(t, path)
    assert load_template(path) == t


def test_cyclic_tower_walks_every_block_around():
    t = make_cyclic(4)
    asg = {
        "B1": BraidWord(2, (1,)),
        "B2": BraidWord(2, (-1,)),
        "B3": BraidWord(2, (1, 1)),
        "B4": BraidWord(2, ()),
    }
    x = expand(t.plus, asg)
    tower = cyclic_tower(4, asg)
    assert tower.initial == x
    assert tower.index_profile == (4, 5, 5, 5, 5, 4)
    report = replay(tower)
    assert report.ok and report.constant
    # the destabilization re-anchors, so the tower closes up on the
    # start word; the minus side is the same closure one block later
    assert free_reduce(tower.final) == free_reduce(x)
    seam = len(asg["B1"].letters) + 3
    assert expand(t.minus, asg) == rotate(x, seam)
    with pytest.raises(ValueError, match="at least 3 blocks"):
        make_cyclic(2)


def test_gflype_tower_profile():
    t = [entry for entry in catalog() if entry.name == "gflype6"][0]
    rng = random.Random(17)
    asg = sample_assignment(t, rng)
    tower = gflype_tower(asg)
    assert tower.index_profile == (6, 7, 7, 7, 6)
    report = replay(tower)
    assert report.ok and report.constant
    assert free_reduce(tower.final) == free_reduce(tower.initial)


def _outcome(fn, *args):
    # a result, or the class and message of the exception it raised
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


@st.composite
def diagrams(draw):
    # 2-5 slots of weight 1-3 and up to 8 entries, each kept only if the
    # diagram stays valid; the ids P, Q, R keep one span each
    weights = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    slots, index = len(weights), sum(weights)
    post = draw(st.booleans())
    spans = {name: draw(st.integers(1, slots)) for name in "PQR"}
    entries: list = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            pos = draw(st.integers(1, slots - 1))
            entry = Band(pos, draw(st.sampled_from((1, -1))))
        else:
            name = draw(st.sampled_from("PQR"))
            pos = draw(st.integers(1, slots - spans[name] + 1))
            entry = BlockRef(name, spans[name], pos)
        try:
            BlockStrandDiagram(index, weights, entries + [entry], post)
        except ValueError:
            continue
        entries.append(entry)
    return BlockStrandDiagram(index, weights, entries, post)


def _block_word(draw, span):
    choices = [g for g in range(1 - span, span) if g != 0]
    letters = []
    if choices:
        letters = draw(st.lists(st.sampled_from(choices), max_size=6))
    if draw(st.integers(0, 2)) == 0:
        # a word then its inverse leaves every cable where it entered
        letters = letters + [-g for g in reversed(letters)]
    return BraidWord(span, letters)


@st.composite
def assignments(draw, d):
    # per block a random word, no word, or a word on the wrong strand
    # count; an id the diagram lacks is ignored
    asg = {}
    for name, span in d.blocks.items():
        kind = draw(st.sampled_from(("word",) * 4 + ("missing", "index")))
        if kind == "word":
            asg[name] = _block_word(draw, span)
        elif kind == "index":
            wrong = [k for k in (span - 1, span + 1) if k >= 1]
            asg[name] = _block_word(draw, draw(st.sampled_from(wrong)))
    if draw(st.booleans()):
        asg["Z"] = BraidWord(2, (1,))
    return asg


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_expansion_matches_the_oracle(data):
    d = data.draw(diagrams())
    asg = data.draw(assignments(d))
    assert _outcome(expand, d, asg) == _outcome(oracle.expand, d, asg)
    assert _outcome(sigma_budget, d) == _outcome(oracle.sigma_budget, d)
    seed = data.draw(st.integers(0, 2**16))
    t = Template("t", d, d)
    assert sample_assignment(t, random.Random(seed), 4) == (
        oracle.sample_assignment(t, random.Random(seed), 4)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expansions_on_a_warm_step_table_match_the_oracle(data):
    # one diagram under 50 assignments in a row, so later expansions read
    # entries that earlier ones, failed ones included, left in its table
    d = data.draw(diagrams())
    for _ in range(50):
        asg = data.draw(assignments(d))
        assert _outcome(expand, d, asg) == _outcome(oracle.expand, d, asg)


def _step_keys(d, asg):
    # each (first strand, cable weights, letter) an expansion meets, from a
    # walk of its own; a block whose word does not fit is skipped
    keys = set()
    for entry, covered, base in d._steps:
        word = asg.get(entry.id) if isinstance(entry, BlockRef) else None
        if word is None or word.index != entry.span:
            continue
        cables = list(covered)
        for g, _, _ in templates._walk(cables, word.letters, base):
            keys.add((base, tuple(cables), g))
    return keys


def test_step_tables_are_filled_lazily_and_not_part_of_the_value():
    # building a diagram, even one with a million band letters, builds no
    # table
    wide = BlockStrandDiagram(2000, (1000, 1000), (Band(1, 1),))
    assert "_cable_steps" not in vars(wide)
    d = make_exchange(2).plus
    twin = BlockStrandDiagram(
        d.index, d.weights, d.entries, d.post_destabilization
    )
    assert "_cable_steps" not in vars(twin)
    # block Q enters on cables (1, 2): one letter leaves them swapped, an
    # entry the failed expansion leaves behind for the next one
    odd = {"P": BraidWord(2, (1,)), "Q": BraidWord(2, (-1,))}
    even = {"P": BraidWord(2, (1,)), "Q": BraidWord(2, (-1, -1))}
    mismatch = {"P": BraidWord(3, ()), "Q": even["Q"]}
    raised = []
    for asg in (odd, even, odd, {}, mismatch, even):
        outcome = _outcome(expand, twin, asg)
        assert outcome == _outcome(oracle.expand, d, asg)
        raised.append(outcome[0] if isinstance(outcome, tuple) else None)
    assert raised == [
        WeightFlowError, None, WeightFlowError, CoverageError, IndexMismatch,
        None,
    ]
    assert twin._cable_steps
    assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
    assert "_cable_steps" not in repr(twin)
    assert diagram_to_json(twin) == diagram_to_json(d)
    # one entry per key met, however often it is met
    rng = random.Random(3)
    for t in builtin_templates():
        met = [(t.plus, set()), (t.minus, set())]
        for _ in range(40):
            asg = sample_assignment(t, rng, 9)
            for side, keys in met:
                expand(side, asg)
                keys |= _step_keys(side, asg)
        for side, keys in met:
            table = vars(side).get("_cable_steps", {})
            assert set(table) == keys, t.name


def test_sampling_matches_the_oracle():
    templates = catalog() + [
        make_flype(1, 2, 3, 2, 1),
        make_destabilize(1, 2),
        make_exchange(2),
    ]
    for t in templates:
        for seed in range(20):
            mine, theirs = random.Random(seed), random.Random(seed)
            for _ in range(10):
                assert sample_assignment(t, mine) == (
                    oracle.sample_assignment(t, theirs)
                )


def test_sampler_tables_match_the_per_call_oracle():
    # same assignments from the same rng calls, in the same order
    for t in builtin_templates():
        for seed in range(5):
            for max_len in (0, 3, 6):
                mine, theirs = random.Random(seed), random.Random(seed)
                for _ in range(10):
                    assert sample_assignment(t, mine, max_len) == (
                        oracle.per_call_sample_assignment(t, theirs, max_len)
                    )
                assert mine.getstate() == theirs.getstate()


def test_sampler_tables_are_built_once_and_not_part_of_the_value():
    t = make_exchange(2)
    assert "_sampler" not in vars(t)
    sample_assignment(t, random.Random(0))
    table = vars(t)["_sampler"]
    sample_assignment(t, random.Random(1))
    assert vars(t)["_sampler"] is table
    twin = make_exchange(2)
    assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
    assert template_to_json(twin) == template_to_json(t)


def test_towers_match_the_oracle():
    cyclic, gflype = make_cyclic(4), make_gflype6()
    for seed in range(200):
        for t, tower, sign in (
            (cyclic, lambda a: cyclic_tower(4, a), 1),
            (gflype, gflype_tower, -1),
        ):
            asg = sample_assignment(t, random.Random(seed))
            mine = json.dumps(tower_to_json(tower(asg)))
            theirs = oracle._segment_tower(t.plus, asg, sign)
            assert mine == json.dumps(tower_to_json(theirs))


def _fresh_walk(d):
    # the walk the diagram stores, taken again with public band letters
    return tuple(
        (
            entry,
            tuple(covered),
            base,
            band_expand(*covered, base, entry.sign, d.index).letters
            if isinstance(entry, Band)
            else None,
        )
        for entry, covered, base in templates._walk(list(d.weights), d.entries)
    )


def test_stored_walk_matches_a_fresh_walk_on_the_catalog():
    for t in catalog() + [make_exchange(2), make_flype(1, 2, 3, 2, 1)]:
        for d in (t.plus, t.minus):
            assert d._walked == _fresh_walk(d), t.name


@settings(max_examples=300, deadline=None)
@given(diagrams())
def test_stored_walk_matches_a_fresh_walk(d):
    assert d._walked == _fresh_walk(d)


def test_stored_walk_is_not_part_of_the_value():
    d = make_gflype6().plus
    twin = BlockStrandDiagram(
        d.index, d.weights, d.entries, d.post_destabilization
    )
    object.__setattr__(twin, "_walked", ())
    assert twin == d and hash(twin) == hash(d)
    assert repr(twin) == repr(d) and "_walked" not in repr(d)
    assert diagram_to_json(twin) == diagram_to_json(d)
    assert "_walked" not in json.dumps(diagram_to_json(d))


def test_band_letters_wait_for_the_first_expansion():
    # a wide band has a million letters (about 35 ms and 45 MiB to
    # build); building the diagram must not build them
    def build():
        return BlockStrandDiagram(2000, (1000, 1000), (Band(1, 1),))

    assert min(timeit.repeat(build, number=1, repeat=3)) < 0.01
    assert "_walked" not in vars(build())
    # construction still checks every entry
    with pytest.raises(ValueError, match="band slot out of range"):
        BlockStrandDiagram(2000, (1000, 1000), (Band(2, 1),))
    # the first expansion builds the letters; later ones reuse them
    d = BlockStrandDiagram(4, (2, 2), (Band(1, 1),))
    assert "_walked" not in vars(d)
    assert expand(d, {}) == band_expand(2, 2, 1, 1, 4)
    walked = vars(d)["_walked"]
    assert expand(d, {}) == band_expand(2, 2, 1, 1, 4)
    assert vars(d)["_walked"] is walked


def _mixed():
    # two sides that close to different links on most assignments
    return Template(
        "mixed", make_microflype(1, 1).plus, make_microflype(-1, -1).minus
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 8))
def test_verify_template_matches_the_memo_free_oracle(seed, max_len):
    rng = random.Random(seed)
    for t in catalog() + [_mixed()]:
        samples = [sample_assignment(t, rng, max_len) for _ in range(6)]
        # a sample that misses its blocks fails without a fingerprint
        samples.insert(rng.randrange(len(samples)), {})
        assert verify_template(t, samples) == oracle.verify_template(t, samples)


def test_verify_template_fingerprints_each_core_once(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return fingerprint(w)

    monkeypatch.setattr(invariants, "fingerprint", counted)
    # both sides expand to the same word, so their keys agree and the
    # samples pass without a print
    t = Template("same", make_exchange(1).plus, make_exchange(1).plus)
    asg = {"P": BraidWord(2, (1, 1, 1)), "Q": BraidWord(2, (-1,))}
    assert verify_template(t, [asg, asg, asg]).all_pass
    assert calls == []
    # a destabilization's sides differ in strand count and cyclic key,
    # but their cores share a key: no print either
    destab = make_destabilize(-1)
    plus, minus = expand(destab.plus, asg), expand(destab.minus, asg)
    assert cyclic_key(plus) != cyclic_key(minus)
    assert _closed(plus)[0] == _closed(minus)[0]
    assert verify_template(destab, [asg, asg]).all_pass
    assert calls == []
    # the exchange's sides have two core keys: one print of each core,
    # within a call
    exchange = make_exchange(1)
    plus, minus = expand(exchange.plus, asg), expand(exchange.minus, asg)
    plus_key, plus_core = _closed(plus)
    minus_key, minus_core = _closed(minus)
    assert plus_key != minus_key
    assert verify_template(exchange, [asg, asg, asg]).all_pass
    assert calls == [plus_core, minus_core]
    # rotations, seam cancellations and single-letter destabilizations
    # share the print, within one call
    tower = extend(
        Tower(plus),
        CyclicShift(1),
        Conjugate(BraidWord(3, (2, -1))),
        Stabilize(1),
        Stabilize(-1),
        Destabilize(-1),
        CyclicShift(3),
    )
    assert len({_closed(w)[0] for w in tower.words}) == 1
    assert replay(tower).constant
    assert calls[2:] == [plus_core]
    replay(tower)
    assert len(calls) == 4


def _held(value):
    # what a module global holds, one container level down
    if isinstance(value, dict):
        return [*value, *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    return [value]


def test_fingerprint_memos_die_with_their_call():
    # a module-level memo would outlive its call and grow without bound
    t = make_exchange(1)
    rng = random.Random(1)
    verify_template(t, [sample_assignment(t, rng) for _ in range(5)])
    replay(cyclic_tower(4, sample_assignment(make_cyclic(4), rng)))
    for module in (invariants, templates, moves):
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), name
            assert not any(
                isinstance(x, (Fingerprint, LaurentPoly)) for x in _held(value)
            ), name
    # the built-in catalog is the one cache that outlives a call
    cached = [
        name
        for name, value in vars(templates).items()
        if isinstance(value, tuple)
        and any(isinstance(x, Template) for x in value)
    ]
    assert cached == ["_BUILTIN"]
