"""Seeded request pools for the three braidcalc benchmark workloads.

A request is one ``braid`` command line plus the answer the generator
built it to have.  Known answers come from how each input was made (a
sound rewrite, a conjugation, a pinned base link), never from running
braidcalc on the same request.  The words are handled here with small
helpers of our own, so a defect in ``braidcalc.words`` cannot leak into
the known answers.

Each pool is a pure function of its seed and size; ``pool_digest``
hashes it so two runs can show they measured the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# Placeholder for the per-run scratch directory inside the checkout; the
# runner substitutes it, and it stays in the hashed form so the digest
# does not depend on where the checkout lives.
WORK = "{work}"


@dataclass(frozen=True)
class Request:
    """One CLI call: the subcommand's argv and the known answer."""

    kind: str
    argv: tuple[str, ...]
    expect: dict


# --- word helpers, independent of braidcalc ---------------------------


def fmt(n: int, letters) -> str:
    return f"{n}: " + " ".join(map(str, letters)) if letters else f"{n}:"


def parse(text: str) -> tuple[int, tuple[int, ...]]:
    head, _, tail = text.partition(":")
    return int(head), tuple(int(tok) for tok in tail.split())


def exponent_sum(letters) -> int:
    return sum(1 if g > 0 else -1 for g in letters)


def permutation(n: int, letters) -> tuple[int, ...]:
    """Entry ``s - 1`` is where the strand starting at ``s`` ends."""
    images = list(range(1, n + 1))
    for g in letters:
        i = abs(g) - 1
        images[i], images[i + 1] = images[i + 1], images[i]
    return tuple(images)


def cycle_type(perm) -> tuple[int, ...]:
    seen = [False] * len(perm)
    sizes = []
    for s in range(len(perm)):
        size = 0
        while not seen[s]:
            seen[s] = True
            size += 1
            s = perm[s] - 1
        if size:
            sizes.append(size)
    return tuple(sorted(sizes))


def free_reduce(letters) -> tuple[int, ...]:
    stack: list[int] = []
    for g in letters:
        if stack and stack[-1] == -g:
            stack.pop()
        else:
            stack.append(g)
    return tuple(stack)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-g for g in reversed(letters))


def random_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(
        rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)
    )


def equal_twin(
    rng: random.Random, letters, n: int, inserts: int = 2
) -> tuple[int, ...]:
    """A different spelling of the same braid, by sound rewrites only.

    Inserts ``inserts`` cancelling pairs ``g -g``, then tries one
    commutation ``a b -> b a`` (``||a| - |b|| >= 2``) or braid relation
    ``a b a -> b a b`` (same signs, adjacent generators) per letter.
    """

    w = list(letters)
    for _ in range(inserts):
        g = rng.choice((1, -1)) * rng.randint(1, n - 1)
        at = rng.randint(0, len(w))
        w[at:at] = [g, -g]
    for _ in range(len(w)):
        i = rng.randrange(len(w) - 1)
        a, b = w[i], w[i + 1]
        if abs(abs(a) - abs(b)) >= 2:
            w[i], w[i + 1] = b, a
        elif (
            i + 2 < len(w)
            and w[i + 2] == a
            and a * b > 0
            and abs(abs(a) - abs(b)) == 1
        ):
            w[i : i + 3] = [b, a, b]
    return tuple(w)


def grid(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` evenly spaced integers over ``[lo, hi]``, in seeded order.

    The lengths are the same for every seed and only the letters vary:
    a request's cost grows with the square of its length, and drawn
    lengths moved the pool's median latency by 7% between seeds.
    """

    step = (hi - lo) / max(count - 1, 1)
    values = [lo + round(step * j) for j in range(count)]
    rng.shuffle(values)
    return values


# --- word-problem ------------------------------------------------------


def word_problem(rng: random.Random, blocks: int) -> list[Request]:
    """``eq`` pairs (two thirds) and ``nf`` pairs (one third).

    A block is two equal ``eq`` pairs, two unequal ones and an ``nf`` of
    a word and of its twin.  n cycles through 4, 5 and 6; each (n, slot)
    cell takes its lengths from an even grid over 40..160.
    """

    units = blocks * 5
    per_cell = -(-units // 15)
    lengths = {
        (n, slot): grid(rng, 40, 160, per_cell)
        for n in (4, 5, 6)
        for slot in range(5)
    }
    out: list[Request] = []
    for u in range(units):
        n, slot = 4 + u % 3, u % 5
        base = random_word(rng, n, lengths[n, slot].pop())
        twin = equal_twin(rng, base, n)
        if slot < 2:
            out.append(_eq(n, base, twin, True))
        elif slot < 4:
            flip = rng.randrange(len(twin))
            wrong = twin[:flip] + (-twin[flip],) + twin[flip + 1 :]
            out.append(_eq(n, base, wrong, False))
        else:
            pair = len(out)
            for letters in (base, twin):
                out.append(
                    Request(
                        "nf",
                        ("nf", fmt(n, letters)),
                        {"word": fmt(n, letters), "pair": pair},
                    )
                )
    return out


def _eq(n, u, v, equal) -> Request:
    return Request("eq", ("eq", fmt(n, u), fmt(n, v)), {"equal": equal})


# --- conjugacy ---------------------------------------------------------

# The README's pair: equal fingerprints, separated only by the walk.
BLIND_PAIR = ("3: 1 1 1 -2 -2 1 1 1 1 -2", "3: 1 1 1 -2 1 1 1 1 -2 -2")

# (strand count, conjugate by construction), one pair each per block.
CONJ_STRATA = ((3, True), (4, True), (3, False), (4, False))
CORPUS_SEED = "conjugacy-corpus"


def conjugacy_corpus(blocks: int) -> list[tuple[int, tuple, tuple, bool]]:
    """The fixed pairs behind every ``conjugacy`` pool.

    Conjugate: ``V = X^-1 U X`` with ``X`` random of length 2..6.  Not
    conjugate: ``V`` shares ``U``'s length, exponent sum and permutation
    cycle type, so the tester's cheap exits do not fire, and is kept
    only when its closure fingerprint differs from ``U``'s, which
    certifies the verdict.

    The corpus does not depend on the seed.  The cost of one pair
    depends on its summit set and ranges over three orders of
    magnitude, so pools of freshly drawn pairs differ from seed to seed
    by far more than any bound worth gating on (see NOTES.md).
    """

    from braidcalc.invariants import fingerprint
    from braidcalc.words import BraidWord

    def fp(n, letters):
        return fingerprint(BraidWord(n, letters))

    rng = random.Random(CORPUS_SEED)
    corpus = []
    lengths = grid(rng, 10, 16, blocks * len(CONJ_STRATA))
    for k, length in enumerate(lengths):
        n, conjugate = CONJ_STRATA[k % len(CONJ_STRATA)]
        u = random_word(rng, n, length)
        if conjugate:
            x = random_word(rng, n, rng.randint(2, 6))
            v = free_reduce(inverse(x) + u + x)
        else:
            signature = (exponent_sum(u), cycle_type(permutation(n, u)))
            while True:
                v = random_word(rng, n, length)
                if (
                    exponent_sum(v),
                    cycle_type(permutation(n, v)),
                ) == signature and fp(n, v) != fp(n, u):
                    break
        corpus.append((n, u, v, conjugate))
    return corpus


def conjugacy(rng: random.Random, blocks: int) -> list[Request]:
    """``conj`` at the default cap on the corpus pairs, re-spelled.

    The seed re-spells both words of every pair by ``equal_twin``, so
    each seed sends different words for the same braids.  The README's
    fingerprint-blind pair opens every pool.
    """

    blind = (3, parse(BLIND_PAIR[0])[1], parse(BLIND_PAIR[1])[1], False)
    out = []
    for n, u, v, conjugate in [blind] + conjugacy_corpus(blocks):
        u, v = equal_twin(rng, u, n), equal_twin(rng, v, n)
        out.append(_conj(fmt(n, u), fmt(n, v), conjugate))
    return out


def _conj(u: str, v: str, conjugate: bool) -> Request:
    verdict = "conjugate" if conjugate else "not-conjugate"
    return Request("conj", ("conj", u, v), {"verdict": verdict})


# --- certificates ------------------------------------------------------

# Base closures with hand-pinned fingerprints (braidcalc's text form).
BASES = (
    ("2: 1", 1, "1"),
    ("2: 1 1 1", 1, "1 - t + t^2"),
    ("3: 1 -2 1 -2", 1, "1 - 3*t + t^2"),
    ("2: 1 1", 2, "1 - t"),
)

# Catalog entries and their strand-count change, plus minus minus.
CATALOG_DELTA_B = {
    "cyclic4": 0,
    "destabilize_neg": 1,
    "destabilize_pos": 1,
    "exchange_w1": 0,
    "exchange_weighted": 0,
    "flype3_neg": 0,
    "flype3_pos": 0,
    "gexchange6": 0,
    "gflype6": 0,
    "microflype_mm": 0,
    "microflype_mp": 0,
    "microflype_pm": 0,
    "microflype_pp": 0,
}


def obfuscate(
    rng: random.Random, text: str, stabilizations: int, conjugations: int
) -> str:
    """Stabilize, conjugate by single generators, then exchange once.

    Each step preserves the closure's link type, so the base's pinned
    fingerprint stays the known answer.  The exchange flips the two top
    letters when they are the only ones and have opposite signs.
    """

    n, w = parse(text)
    for _ in range(stabilizations):
        w = w + (rng.choice((1, -1)) * n,)
        n += 1
    for _ in range(conjugations):
        g = rng.choice((1, -1)) * rng.randint(1, n - 1)
        w = free_reduce((g,) + w + (-g,))
    top = [i for i, g in enumerate(w) if abs(g) == n - 1]
    if len(top) == 2 and w[top[0]] == -w[top[1]]:
        w = tuple(-g if i in top else g for i, g in enumerate(w))
    return fmt(n, w)


def certificates(rng: random.Random, blocks: int) -> list[Request]:
    """Round-robin of ``reduce``, ``replay``, ``verify-template`` and
    ``invariants``.

    ``replay`` reads the tower the preceding ``reduce`` wrote.  Bases
    and catalog entries are visited in turn, and each base meets every
    obfuscation of 1..3 stabilizations and 3..8 conjugations in turn;
    ``invariants`` words cycle n through 6..10, with lengths on an even
    grid over 30..80 for each n.  Half the requests (``reduce`` and
    ``replay``) are short, so the median sits between the two halves and
    moves with their mix: drawn obfuscation sizes moved it by 7-9%
    between seeds.
    """

    names = sorted(CATALOG_DELTA_B)
    lengths = {n: grid(rng, 30, 80, -(-blocks // 5)) for n in range(6, 11)}
    out: list[Request] = []
    for b in range(blocks):
        base, components, poly = BASES[b % len(BASES)]
        word = obfuscate(rng, base, 1 + b // 4 % 3, 3 + b // 12 % 6)
        tower = f"{WORK}/tower-{b}.json"
        out.append(
            Request(
                "reduce",
                ("reduce", word, "--out", tower),
                {"word": word, "components": components},
            )
        )
        out.append(
            Request(
                "replay",
                ("replay", tower),
                {"fingerprint": f"components={components} alexander={poly}"},
            )
        )
        name = names[b % len(names)]
        seed = rng.randrange(1_000_000)
        out.append(
            Request(
                "verify-template",
                ("verify-template", name, "--seed", str(seed)),
                {"template": name, "delta_b": CATALOG_DELTA_B[name], "samples": 25},
            )
        )
        n = 6 + b % 5
        letters = random_word(rng, n, lengths[n].pop())
        out.append(
            Request(
                "invariants",
                ("invariants", fmt(n, letters)),
                {
                    "components": len(cycle_type(permutation(n, letters))),
                    "self_linking": exponent_sum(letters) - n,
                },
            )
        )
    return out


WORKLOADS = {
    "word-problem": word_problem,
    "conjugacy": conjugacy,
    "certificates": certificates,
}


def pool(workload: str, seed: int, blocks: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), blocks)


def pool_digest(requests: list[Request]) -> str:
    doc = [[r.kind, list(r.argv), r.expect] for r in requests]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
