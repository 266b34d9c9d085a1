"""Independent word-problem oracle via handle reduction.

Used by the tests as a cross-check on the normal-form machinery; no
production code imports this.  A handle is a factor ``s_i^e u s_i^-e``
whose interior uses only generators of higher index.  Reducing the
leftmost-ending handle first guarantees the interior contains no
complete handle of its own, and iterated reduction always terminates
on a handle-free word, which represents the trivial braid only when
empty.  ``equal_twin`` supplies the equal side of such cross-checks: a
respelling of a word through sound rewrites only.
"""

from __future__ import annotations

from braidcalc.words import BraidWord


def _leftmost_handle(word: list[int]) -> tuple[int, int] | None:
    # nearest previous same-index letter; opposite sign and nothing
    # lower-indexed between them makes word[p..k] a handle
    last: dict[int, int] = {}
    for k, g in enumerate(word):
        i = abs(g)
        p = last.get(i)
        if p is not None and word[p] == -g:
            if all(abs(h) > i for h in word[p + 1 : k]):
                return p, k
        last[i] = k
    return None


def _reduce_once(word: list[int], p: int, k: int) -> list[int]:
    i = abs(word[p])
    e = 1 if word[p] > 0 else -1
    out = word[:p]
    for h in word[p + 1 : k]:
        if abs(h) == i + 1:
            d = 1 if h > 0 else -1
            out.extend([-e * (i + 1), d * i, e * (i + 1)])
        else:
            out.append(h)
    out.extend(word[k + 1 :])
    return out


def handle_free_form(letters) -> tuple[int, ...]:
    """Reduce handles until none remain; the result is handle-free."""
    word = list(letters)
    fuel = 10_000 + 200 * len(word) * len(word)
    while True:
        spot = _leftmost_handle(word)
        if spot is None:
            return tuple(word)
        fuel -= 1
        if fuel <= 0:
            raise RuntimeError(f"handle reduction did not settle: {letters}")
        word = _reduce_once(word, *spot)


def is_trivial_word(letters) -> bool:
    """True when the letters spell the identity braid."""
    return handle_free_form(letters) == ()


def equal_twin(rng, w, edits):
    """A different spelling of the same braid, by sound rewrites only."""
    letters = list(w.letters)
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0 and len(letters) <= 10:
            g = rng.choice((1, -1)) * rng.randint(1, w.index - 1)
            at = rng.randint(0, len(letters))
            letters[at:at] = [g, -g]
        elif op == 1:
            spots = [
                i
                for i in range(len(letters) - 1)
                if abs(abs(letters[i]) - abs(letters[i + 1])) >= 2
            ]
            if spots:
                i = rng.choice(spots)
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
        else:
            spots = [
                i
                for i in range(len(letters) - 2)
                if letters[i] == letters[i + 2]
                and letters[i] * letters[i + 1] > 0
                and abs(abs(letters[i]) - abs(letters[i + 1])) == 1
            ]
            if spots:
                i = rng.choice(spots)
                a, b = letters[i], letters[i + 1]
                letters[i : i + 3] = [b, a, b]
    return BraidWord(w.index, tuple(letters))
