"""The search's seam clean-up as it was before it read its moves off
:func:`braidcalc.words.cyclic_reduce`.

Kept unchanged as a reference for differential tests of
``braidcalc.explorer._normalize``: it strips one seam pair at a time,
with one ``conjugate`` call per pair, so it is quadratic in the number
of pairs.
"""

from __future__ import annotations

from braidcalc.moves import Conjugate, Move
from braidcalc.words import BraidWord, conjugate, free_reduce


def _normalize(word: BraidWord) -> tuple[BraidWord, tuple[Move, ...]]:
    # reduce a raw move result freely and around the seam, recording the
    # clean-up as replayable moves
    moves: list[Move] = []
    reduced = free_reduce(word)
    if reduced.letters != word.letters:
        moves.append(Conjugate(BraidWord(word.index, ())))
        word = reduced
    while word.letters and word.letters[0] == -word.letters[-1]:
        g = BraidWord(word.index, (-word.letters[0],))
        moves.append(Conjugate(g))
        word = conjugate(word, g)
    return word, tuple(moves)
