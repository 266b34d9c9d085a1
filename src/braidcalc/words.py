"""Words in the Artin braid group and their letter-level algebra.

A braid word is an explicit strand count together with a sequence of
nonzero signed integers.  The letter ``g`` stands for the positive
crossing of strands ``|g|`` and ``|g| + 1`` when ``g > 0`` and for the
inverse crossing when ``g < 0``.  The leftmost letter acts first.  The
strand count is always carried explicitly; it is never inferred from
the letters, so ``2: 1`` and ``3: 1`` are different words.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, dataclass
from json.encoder import encode_basestring_ascii

__all__ = [
    "BraidWord",
    "WordFormatError",
    "parse_word",
    "format_word",
    "free_reduce",
    "inverse",
    "concat",
    "power",
    "rotate",
    "conjugate",
    "permutation",
    "cycle_type",
    "exponent_sum",
    "closure_components",
    "cyclic_reduce",
    "cyclic_key",
]

# \s is exactly what str.isspace() accepts, the set str.strip() removes
# and str.split() splits at
_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[+-]?[0-9]+")
_LETTERS = re.compile(r"[\s0-9+-]*")


class WordFormatError(ValueError):
    """Raised on malformed word text; carries the offending position.

    ``line`` and ``column`` are 1-based and point at the first character
    of the token that failed to parse.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``index`` strands.

    ``letters`` holds signed generator numbers; every entry ``g``
    satisfies ``1 <= |g| <= index - 1``.  Words are immutable values:
    two words compare equal exactly when strand counts and letter
    sequences agree.  Equality as group elements is a separate, more
    expensive question answered by :func:`braidcalc.garside.words_equal`.
    """

    index: int
    letters: tuple[int, ...]

    def __init__(self, index: int, letters=()):
        if index < 1:
            raise ValueError(f"strand count must be at least 1, got {index}")
        letters = tuple(letters)
        for g in letters:
            if g == 0 or abs(g) > index - 1:
                raise ValueError(
                    f"letter {g} is out of range for {index} strands"
                )
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


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
        start = len(head) - len(head.lstrip())
        raise WordFormatError(
            "strand count must be a positive integer", *_position(text, start)
        )
    # the letters in one pass: int() refuses a sign inside a token and a
    # number too long to convert, and the range is checked once
    if _LETTERS.fullmatch(tail):
        try:  # a tuple of a list is sized once, one of a map() resized
            letters = tuple(list(map(int, tail.split())))
        except ValueError:
            pass
        else:
            if not letters or (
                max(letters) < index and min(letters) > -index and 0 not in letters
            ):
                return _derived(index, letters)
    # else this loop finds the first bad token and names it
    letters = []
    for match in _TOKEN.finditer(text, len(head) + 1):
        token = match[0]
        g = _int_token(token)
        if g is None:
            message = f"bad letter {token[:20]!r}"
        elif g == 0 or abs(g) > index - 1:
            message = f"letter {g} is out of range for {index} strands"
        else:
            letters.append(g)
            continue
        raise WordFormatError(message, *_position(text, match.start()))
    return _derived(index, tuple(letters))


_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a bool", list: "a list"}


def _typed(value, name: str, kind: type):
    # the one check of a value in a JSON document: bool is no int and an
    # object no list
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _record_json(record) -> dict:
    # a record as a JSON object: its kind, then its fields in order, with
    # a word as word text
    data = {"kind": record.kind}
    for name, f in record.__dataclass_fields__.items():
        value = getattr(record, name)
        data[name] = format_word(value) if f.type == "BraidWord" else value
    return data


def _record_from_json(data: dict, kinds: dict, what: str):
    # the record of _record_json from the table of classes by kind: a word
    # field is word text, a str field a string, any other field an integer,
    # sign and eps +1 or -1; a field with a default may be missing.  Field
    # types are annotation strings, as the record modules postpone them
    kind = data.get("kind")
    # the str test keeps an unhashable kind, such as a list, off the table
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind: {kind!r}")
    values = []
    for name, f in kinds[kind].__dataclass_fields__.items():
        value = data[name] if f.default is MISSING else data.get(name, f.default)
        if f.type == "BraidWord":
            value = parse_word(value)
        else:
            _typed(value, name, str if f.type == "str" else int)
        if name in ("sign", "eps") and value not in (1, -1):
            raise ValueError(f"{name} must be +1 or -1, got {value!r}")
        values.append(value)
    return kinds[kind](*values)


def _load_json(path):
    # the one reader of documents: the JSON value in a UTF-8 file
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _json_text(value, pad: str = "\n") -> str:
    # the text of json.dumps(value, indent=2) with C-encoded strings; as
    # those escape every newline, pad indents what json.dumps writes
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if (kind is list or kind is tuple) and value:
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    # floats, empty containers and any other type
    return json.dumps(value, indent=2).replace("\n", pad)


def _dump_json(doc, path) -> None:
    # the file json.dump(doc, fh, indent=2) and a newline write, in one write
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc) + "\n")


def format_word(w: BraidWord) -> str:
    """Render a word as ``"n: g1 g2 ... gk"``; an empty word is ``"n:"``."""
    if not w.letters:
        return f"{w.index}:"
    return f"{w.index}: " + " ".join(str(g) for g in w.letters)


def _int_token(token: str) -> int | None:
    # a signed run of ASCII digits short enough for int(), else None
    if not _INT.fullmatch(token):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def _position(text: str, start: int) -> tuple[int, int]:
    # 1-based line and column of the character at index start
    line = text.count("\n", 0, start) + 1
    return line, start - text.rfind("\n", 0, start)


def _derived(index: int, letters: tuple[int, ...]) -> BraidWord:
    # a word whose letters come from a valid word on the same strand
    # count, built without BraidWord's per-letter range check
    w = object.__new__(BraidWord)
    object.__setattr__(w, "index", index)
    object.__setattr__(w, "letters", letters)
    return w


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for g in w.letters:
        if stack and stack[-1] == -g:
            stack.pop()
        else:
            stack.append(g)
    return _derived(w.index, tuple(stack))


def inverse(w: BraidWord) -> BraidWord:
    """The inverse word: letters reversed and negated."""
    return _derived(w.index, tuple(-g for g in reversed(w.letters)))


def concat(*words: BraidWord) -> BraidWord:
    """Concatenate words on a common strand count."""
    if not words:
        raise ValueError("concat needs at least one word")
    index = words[0].index
    letters: list[int] = []
    for w in words:
        if w.index != index:
            raise ValueError(
                f"strand counts differ: {index} versus {w.index}"
            )
        letters.extend(w.letters)
    return BraidWord(index, letters)


def power(w: BraidWord, k: int) -> BraidWord:
    """The word repeated ``k`` times; negative ``k`` repeats the inverse."""
    base = w if k >= 0 else inverse(w)
    return BraidWord(w.index, base.letters * abs(k))


def rotate(w: BraidWord, k: int) -> BraidWord:
    """Cyclic shift moving the first ``k`` letters to the end."""
    if not w.letters:
        return w
    k %= len(w.letters)
    return _derived(w.index, w.letters[k:] + w.letters[:k])


def conjugate(w: BraidWord, g: BraidWord) -> BraidWord:
    """The freely reduced conjugate ``g w g^-1``."""
    if w.index != g.index:
        raise ValueError(
            f"strand counts differ: {w.index} versus {g.index}"
        )
    return free_reduce(concat(g, w, inverse(g)))


def permutation(w: BraidWord) -> tuple[int, ...]:
    """Endpoint permutation of the word's strands.

    Entry ``s - 1`` is the position at which the strand starting at
    position ``s`` ends.  Each letter swaps the images of the two
    positions it crosses, in word order.
    """

    images = list(range(1, w.index + 1))
    for g in w.letters:
        i = abs(g) - 1
        images[i], images[i + 1] = images[i + 1], images[i]
    return tuple(images)


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation given as a tuple of images."""
    seen = [False] * len(perm)
    sizes = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        size = 0
        t = s
        while not seen[t]:
            seen[t] = True
            size += 1
            t = perm[t] - 1
        sizes.append(size)
    return tuple(sorted(sizes))


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; the algebraic crossing count."""
    return sum(1 if g > 0 else -1 for g in w.letters)


def closure_components(w: BraidWord) -> int:
    """Number of link components of the word's closure."""
    return len(cycle_type(permutation(w)))


def cyclic_reduce(w: BraidWord) -> BraidWord:
    """Freely reduce, then cancel inverse pairs across the seam."""
    return _derived(w.index, _cut_seam(free_reduce(w).letters))


def _cut_seam(letters: tuple[int, ...]) -> tuple[int, ...]:
    # cancel inverse pairs across the seam of freely reduced letters
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return letters[i : j + 1]


def cyclic_key(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """A key shared by rotations of the freely reduced cyclic word.

    The key is the strand count and the lexicographically least
    rotation of the cyclically reduced letters, which starts at their
    least letter.  Words with one key are conjugate, so their closures
    are the same closed braid.
    """
    return _least_rotation(cyclic_reduce(w))


def _least_rotation(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    # cyclic_key of a word that is already cyclically reduced
    letters = w.letters
    if not letters:
        return (w.index, ())
    least = min(letters)
    k = letters.index(least)
    if letters.count(least) > 1:
        # fixed-width biased big-endian bytes order like the letters and
        # keep the rotation scan in C at any strand count
        width = max(map(abs, letters)).bit_length() // 8 + 1
        bias = 1 << (8 * width - 1)
        enc = b"".join((g + bias).to_bytes(width, "big") for g in letters)
        starts = [i for i, g in enumerate(letters) if g == least]
        k = min(starts, key=lambda i: enc[i * width :] + enc[: i * width])
    return (w.index, letters[k:] + letters[:k])
