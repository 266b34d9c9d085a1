"""Command line front end.

One subcommand per workflow: word equality, conjugacy, normal forms,
link invariants, single moves, tower replay, template expansion and
verification, diagram budget certificates, census arithmetic, and the
reduction search.  Exit status 0 means the command ran and, where an
expectation was stated, it held; 1 is a domain verdict against the
expectation (or an inconsistent input object such as a failing census);
2 is a usage or parse error.  ``--format json`` switches every
subcommand to a machine readable document matching the module file
formats.

The subcommands are the rows of one table, ``_COMMANDS``: name, handler,
help and the ``add_argument`` calls of each.  The parser is built from
it on the first call of ``main`` and reused for the rest of the process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys

from . import census as census_mod
from . import invariants as inv_mod
from .explorer import SearchConfig, search_reduce
from .garside import (
    DEFAULT_NODE_CAP,
    Verdict,
    conjugacy_test,
    factor_word,
    normal_form,
    words_equal,
)
from .moves import (
    apply_move,
    load_tower,
    move_from_json,
    replay,
    tower_to_json,
)
from .templates import (
    BlockOnLastStrand,
    CoverageError,
    IndexMismatch,
    WeightFlowError,
    catalog,
    diagram_from_json,
    expand,
    load_template,
    non_carry_certificate,
    sample_assignment,
    sigma_budget,
    verify_template,
)
from .words import (
    BraidWord, WordFormatError, _dump_json, _json_text, _load_json, format_word,
    parse_word,
)

__all__ = ["main"]


class _Failure(Exception):
    """Domain failure: print the message, exit 1."""


class _Usage(Exception):
    """Input error outside argparse: print the message, exit 2."""


def _word(text: str) -> BraidWord:
    try:
        return parse_word(text)
    except WordFormatError as err:
        # the message already carries line and column
        raise _Usage(str(err)) from err


@contextlib.contextmanager
def _document(what: str):
    # reading, decoding or writing a document named from outside the
    # program: any failure is a usage error (JSONDecodeError is a
    # ValueError; nesting too deep to decode is a RecursionError)
    try:
        yield
    except (
        OSError,
        ValueError,
        KeyError,
        TypeError,
        AttributeError,
        RecursionError,
    ) as err:
        raise _Usage(f"bad {what}: {err}") from err


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(_json_text(payload))
    else:
        print(text)


def _cmd_eq(args) -> int:
    u, v = _word(args.word1), _word(args.word2)
    try:
        equal = words_equal(u, v)
    except ValueError as err:
        raise _Usage(str(err)) from err
    verdict = "equal" if equal else "not-equal"
    _emit(args, {"equal": equal}, verdict)
    if args.expect and args.expect != verdict:
        return 1
    return 0


def _cmd_conj(args) -> int:
    u, v = _word(args.word1), _word(args.word2)
    try:
        report = conjugacy_test(u, v, node_cap=args.cap)
    except ValueError as err:
        raise _Usage(str(err)) from err
    _emit(
        args,
        {"verdict": report.verdict.value, "nodes": report.nodes},
        f"{report.verdict.value} nodes={report.nodes}",
    )
    if args.expect and args.expect != report.verdict.value:
        return 1
    return 0


def _cmd_nf(args) -> int:
    nf = normal_form(_word(args.word))
    spelled = [list(factor_word(f)) for f in nf.factors]
    text = " | ".join([f"D^{nf.power}", *(" ".join(map(str, g)) for g in spelled)])
    payload = {"index": nf.index, "power": nf.power, "factors": spelled}
    _emit(args, payload, f"{nf.index}: {text}")
    return 0


def _cmd_invariants(args) -> int:
    w = _word(args.word)
    fp = inv_mod.fingerprint(w)
    sl = inv_mod.self_linking(w)
    payload = {
        "components": fp.components,
        "alexander": str(fp.alexander),
        "self_linking": sl,
    }
    _emit(args, payload, f"{fp} sl={sl}")
    return 0


def _cmd_move(args) -> int:
    w = _word(args.word)
    with _document("move document"):
        move = move_from_json(json.loads(args.move))
    try:
        result = apply_move(w, move)
    except ValueError as err:
        raise _Failure(str(err)) from err
    _emit(args, {"word": format_word(result)}, format_word(result))
    return 0


def _cmd_replay(args) -> int:
    with _document("tower file"):
        tower = load_tower(args.tower)
    report = replay(tower)
    payload = {
        "ok": report.ok,
        "failed_step": report.failed_step,
        "constant": report.constant,
        "fingerprints": [str(fp) for fp in report.fingerprints],
    }
    if report.ok:
        text = (
            f"replay ok steps={len(tower.steps)} constant="
            f"{'yes' if report.constant else 'no'}"
        )
    else:
        text = f"replay failed at step {report.failed_step}"
    _emit(args, payload, text)
    return 0 if report.ok and report.constant else 1


def _parse_assignment(pairs: list[str]) -> dict[str, BraidWord]:
    asg = {}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        if not sep or not name:
            raise _Usage(f"expected NAME=WORD, got {pair!r}")
        asg[name] = _word(text)
    return asg


def _template_arg(ref: str):
    # a path wins; otherwise the ref names a catalog entry
    with _document("template file"):
        if os.path.exists(ref):
            return load_template(ref)
        for template in catalog():
            if template.name == ref:
                return template
    raise _Usage(f"no template file or catalog entry named {ref!r}")


def _cmd_expand(args) -> int:
    template = _template_arg(args.template)
    diagram = template.plus if args.side == "plus" else template.minus
    asg = _parse_assignment(args.assign or [])
    try:
        word = expand(diagram, asg)
    except (CoverageError, IndexMismatch, WeightFlowError) as err:
        raise _Failure(str(err)) from err
    _emit(args, {"word": format_word(word)}, format_word(word))
    return 0


def _cmd_verify_template(args) -> int:
    template = _template_arg(args.template)
    if args.samples < 1:
        raise _Usage(f"bad --samples {args.samples}: need at least 1")
    if args.max_len < 0:
        raise _Usage(f"bad --max-len {args.max_len}: need at least 0")
    rng = random.Random(args.seed)
    samples = [
        sample_assignment(template, rng, args.max_len)
        for _ in range(args.samples)
    ]
    report = verify_template(template, samples)
    payload = {
        "template": report.template,
        "seed": args.seed,
        "delta_b": report.delta_b,
        "passed": report.passed,
        "samples": [
            {"number": s.number, "ok": s.ok, "detail": s.detail}
            for s in report.samples
        ],
    }
    text = (
        f"template={report.template} seed={args.seed}"
        f" samples={len(report.samples)}\n{report.summary()}"
    )
    _emit(args, payload, text)
    return 0 if report.all_pass else 1


def _cmd_certify(args) -> int:
    if os.path.exists(args.diagram):
        with _document("diagram file"):
            data = _load_json(args.diagram)
            if "plus" in data or "minus" in data:
                data = data[args.side]
            diagram = diagram_from_json(data)
    else:
        template = _template_arg(args.diagram)
        diagram = template.plus if args.side == "plus" else template.minus
    try:
        budget = sigma_budget(diagram)
    except BlockOnLastStrand as err:
        raise _Failure(str(err)) from err
    certified = non_carry_certificate(diagram, args.min_last_count)
    payload = {
        "sigma_budget": budget,
        "required": args.min_last_count,
        "certified": certified,
    }
    text = (
        f"sigma_budget={budget} required={args.min_last_count}"
        f" certified={'yes' if certified else 'no'}"
    )
    _emit(args, payload, text)
    return 0 if certified else 1


def _cmd_census(args) -> int:
    with _document("census file"):
        vc, ec, chi = census_mod.load_census(args.census)
    annulus = census_mod.euler_balance_annulus(vc, ec.es)
    surface = (
        None if chi is None else census_mod.euler_balance_surface(vc, chi)
    )
    edges = census_mod.edge_vertex_consistency(vc, ec)
    advisory = census_mod.minimal_complexity_advisory(vc)
    payload = {
        "annulus_residual": annulus,
        "surface_residual": surface,
        "vertex_residual": edges.vertex_residual,
        "a_residual": edges.a_residual,
        "b_residual": edges.b_residual,
        "advisory": list(advisory),
    }
    lines = [f"annulus_residual={annulus}"]
    if surface is not None:
        lines.append(f"surface_residual={surface}")
    lines.append(
        f"vertex_residual={edges.vertex_residual}"
        f" a_residual={edges.a_residual} b_residual={edges.b_residual}"
    )
    for note in advisory:
        lines.append(f"advisory: {note}")
    _emit(args, payload, "\n".join(lines))
    consistent = annulus == 0 and edges.ok and (surface in (None, 0))
    return 0 if consistent else 1


def _cmd_reduce(args) -> int:
    w = _word(args.word)
    try:
        cfg = SearchConfig(
            max_index=args.max_index,
            max_extra_stabilizations=args.max_extra_stabilizations,
            max_word_length=args.max_word_length,
            node_budget=args.node_budget,
        )
        outcome = search_reduce(w, cfg)
    except ValueError as err:
        raise _Usage(str(err)) from err
    summary = (
        f"reduced n={w.index} len={len(w.letters)} ->"
        f" n={outcome.reached.index} len={len(outcome.reached.letters)}"
        f" nodes={outcome.nodes}"
    )
    doc = tower_to_json(outcome.best)
    if args.out:
        with _document("--out path"):
            _dump_json(doc, args.out)
        text = summary
    else:
        text = json.dumps(doc) + "\n" + summary
    _emit(
        args,
        {"tower": doc, "summary": summary, "exhausted": outcome.exhausted},
        text,
    )
    return 0


_SIDE = {"choices": ("plus", "minus"), "default": "plus"}

# one row per subcommand: (name, handler, help, arguments); each
# argument is (flags, options), passed straight to add_argument
_COMMANDS = (
    ("eq", _cmd_eq, "braid word equality", (
        (("word1",), {}),
        (("word2",), {}),
        (("--expect",), {"choices": ("equal", "not-equal")}),
    )),
    ("conj", _cmd_conj, "conjugacy test", (
        (("word1",), {}),
        (("word2",), {}),
        (("--cap",), {"type": int, "default": DEFAULT_NODE_CAP}),
        (("--expect",), {"choices": tuple(v.value for v in Verdict)}),
    )),
    ("nf", _cmd_nf, "left normal form", ((("word",), {}),)),
    ("invariants", _cmd_invariants, "closure fingerprint", ((("word",), {}),)),
    ("move", _cmd_move, "apply one move", (
        (("word",), {}),
        (("move",), {"help": "move document as JSON"}),
    )),
    ("replay", _cmd_replay, "replay a tower file", ((("tower",), {}),)),
    ("expand", _cmd_expand, "expand a template side", (
        (("template",), {}),
        (("--side",), _SIDE),
        (("--assign",), {
            "action": "append",
            "metavar": "NAME=WORD",
            "help": "block assignment, repeatable",
        }),
    )),
    ("verify-template", _cmd_verify_template,
     "sample assignments and compare closure fingerprints", (
        (("template",), {}),
        (("--samples",), {"type": int, "default": 25}),
        (("--seed",), {"type": int, "default": 0}),
        (("--max-len",), {"type": int, "default": 6}),
    )),
    ("certify", _cmd_certify,
     "top generator budget certificate for a diagram", (
        (("diagram",), {"help": "diagram or template JSON file"}),
        (("--side",), _SIDE),
        (("--min-last-count",), {"type": int, "required": True}),
    )),
    ("census", _cmd_census, "census balance checks", ((("census",), {}),)),
    ("reduce", _cmd_reduce, "search for a reducing tower", (
        (("word",), {}),
        (("--node-budget",), {"type": int, "default": 50_000}),
        (("--max-extra-stabilizations",), {"type": int, "default": 2}),
        (("--max-index",), {"type": int, "default": 16}),
        (("--max-word-length",), {"type": int, "default": 64}),
        (("--out",), {"help": "write the tower file here"}),
    )),
)


@functools.cache  # once per process: parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser = argparse.ArgumentParser(
        prog="braid", description="braid word calculator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in _COMMANDS:
        p = sub.add_parser(name, parents=[shared], help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Usage as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _Failure as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
