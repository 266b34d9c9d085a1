"""Word code as it was before later rewrites, kept as references.

The word-text reader as it was before ``parse_word`` matched tokens
with regular expressions: ``_tokens`` walks the text one character at a
time, ``_int_token`` tests the digits by hand, and ``_position`` skips
whitespace again to find a token's column.

``cyclic_key`` as it was before it compared only the rotations that
start at the least letter: it scans every rotation's bytes.

Both are kept unchanged for differential tests of
:mod:`braidcalc.words`.
"""

from __future__ import annotations

from braidcalc.words import BraidWord, WordFormatError, cyclic_reduce


def parse_word(text: str) -> BraidWord:
    """Parse ``"n: g1 g2 ... gk"`` into a word.

    The strand count comes before the colon; letters are whitespace
    separated signed integers and the list may be empty.  Raises
    :class:`WordFormatError` pointing at the offending token.
    """

    head, sep, tail = text.partition(":")
    if not sep:
        raise WordFormatError("missing ':' after strand count", 1, 1)
    index = _int_token(head.strip())
    if index is None or index < 1:
        raise WordFormatError(
            "strand count must be a positive integer", *_position(text, head, 0)
        )
    letters = []
    offset = len(head) + 1
    for token, start in _tokens(tail, offset):
        g = _int_token(token)
        if g is None:
            raise WordFormatError(
                f"bad letter {token[:20]!r}", *_position(text, token, start)
            )
        if g == 0 or abs(g) > index - 1:
            raise WordFormatError(
                f"letter {g} is out of range for {index} strands",
                *_position(text, token, start),
            )
        letters.append(g)
    return BraidWord(index, letters)


def _int_token(token: str) -> int | None:
    # a signed run of ASCII digits short enough for int(), else None
    body = token[1:] if token[:1] in "+-" else token
    if not (body.isascii() and body.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def _tokens(text: str, offset: int):
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace():
            j += 1
        yield text[i:j], offset + i
        i = j


def _position(text: str, token: str, start: int) -> tuple[int, int]:
    # recover line and column of the first non-space character of the token
    while start < len(text) and text[start].isspace():
        start += 1
    line = text.count("\n", 0, start) + 1
    last_break = text.rfind("\n", 0, start)
    return line, start - last_break


def cyclic_key(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """A key shared by rotations of the freely reduced cyclic word.

    The key is the strand count and the lexicographically least
    rotation of the cyclically reduced letters.  Words with one key are
    conjugate, so their closures are the same closed braid.
    """
    letters = cyclic_reduce(w).letters
    if not letters:
        return (w.index, ())
    # fixed-width biased big-endian bytes order like the letters and keep
    # the rotation scan in C at any strand count
    width = max(map(abs, letters)).bit_length() // 8 + 1
    bias = 1 << (8 * width - 1)
    enc = b"".join((g + bias).to_bytes(width, "big") for g in letters)
    k = min(
        range(len(letters)), key=lambda k: enc[k * width :] + enc[: k * width]
    )
    return (w.index, letters[k:] + letters[:k])
