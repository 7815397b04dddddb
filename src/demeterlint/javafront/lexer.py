"""Tokenizer for the analyzed Java subset (pre-generics, pre-assert).

Tokens come out as parallel columns of kinds, texts and character offsets,
built in C with no Python frame per token.  One ``findall`` splits the text
into (skip, token) pairs, whitespace and comments then a token; the empty
match at the end of the text is the EOF token.  A token's offset is the
running sum of the pair lengths up to its own skip.  Its kind is looked up
by its text (keywords, operators) or else by its first character.  Only
number literals, tokens that start with a non-ASCII character and error
tokens are left without one; a loop over them, in text order, classifies
them or raises.  ``line_col`` decodes an offset where a position is shown.

Token texts are interned: the syntax trees of every unit live until the
analysis ends, and most of their names repeat, so each distinct text is
held once.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, chain, islice
from operator import itemgetter

from ..records import Struct
from .errors import ParseError

__all__ = ["Kind", "KEYWORDS", "Lexed", "line_col", "line_starts", "tokenize"]

KEYWORDS = frozenset(
    """
    abstract boolean break byte case catch char class const continue default
    do double else extends final finally float for goto if implements import
    instanceof int interface long native new package private protected public
    return short static super switch synchronized this throw throws transient
    try void volatile while true false null
    """.split()
)

# Longest first: of the alternatives that match, the regex takes the first.
_OPERATORS = [
    ">>>=",
    ">>>", ">>=", "<<=",
    "->", ">>", "<<", ">=", "<=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
    ":", ".", ",", ";", "(", ")", "{", "}", "[", "]", "@",
]


class Kind:
    """Token kinds; a literal's kind is the name of its type."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    LONG = "long"
    FLOAT = "float"
    DOUBLE = "double"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


class Lexed(Struct):
    """The tokens of one text as parallel columns, ending with EOF."""

    __slots__ = ("kinds", "texts", "offsets")

    def __init__(self, kinds: list[str], texts: list[str], offsets: list[int]) -> None:
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.texts)


# Two groups: what is skipped, then the token.  Token alternatives are in
# priority order; the first that matches wins.  {A}, {W} and {D} are the
# identifier-start, identifier-part and digit classes.  A regex class such
# as \w or \d differs from the str predicates that define them (\d misses
# '²', which str.isdigit admits), so the classes list their characters:
# ASCII, plus the non-ASCII ones of the text at hand.  A lone "/*", "'" or
# '"' and the catch-all last character are error tokens.
_PATTERN = r"""
 ((?:[ \t\r\n\f]+|//[^\n]*|/\*(?s:.)*?\*/)*)
 (/\*
 |[{A}][{W}]*
 |0[xX][{D}a-fA-F]*[lL]?
 |(?:[{D}]+(?:\.(?!\.)[{D}]*)?|\.[{D}]+)(?:[eE][+-]?[{D}]+)?[lLfFdD]?
 |'(?:[^'\\\n]|\\[^\n])*'
 |"(?:[^"\\\n]|\\[^\n])*"
 |{OPS}
 |(?s:.)
 |\Z)
"""

#: Kind by token text: keywords and operators.  An error token that starts
#: like a literal maps to None, to be classified with the numbers.
_KIND_BY_TEXT: dict[str, str | None] = {
    **dict.fromkeys(KEYWORDS, Kind.KEYWORD),
    **dict.fromkeys(_OPERATORS, Kind.PUNCT),
    "'": None,
    '"': None,
}
#: Kind by first character, for the texts the table above does not list.
_KIND_BY_START: dict[str, str] = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$", Kind.IDENT),
    "'": Kind.CHAR,
    '"': Kind.STRING,
}
_ERRORS = {
    "/*": "unterminated comment",
    "'": "unterminated character literal",
    '"': "unterminated string literal",
}
_SUFFIX_KINDS = {"l": Kind.LONG, "f": Kind.FLOAT, "d": Kind.DOUBLE}


@lru_cache(maxsize=64)
def _scanner(extra: str) -> re.Pattern:
    """The master pattern, with the non-ASCII characters ``extra`` classified."""

    def chars(test) -> str:
        return "".join(c for c in extra if test(c))

    return re.compile(
        _PATTERN.replace("{A}", "A-Za-z_$" + chars(str.isalpha))
        .replace("{W}", "A-Za-z0-9_$" + chars(str.isalnum))
        .replace("{D}", "0-9" + chars(str.isdigit))
        .replace("{OPS}", "|".join(map(re.escape, _OPERATORS))),
        re.VERBOSE,
    )


def tokenize(text: str, file_name: str) -> Lexed:
    """The tokens of ``text``, ending with one EOF token; raises ParseError."""
    extra = "" if text.isascii() else "".join(sorted(c for c in set(text) if not c.isascii()))
    pairs = _scanner(extra).findall(text)
    # The end of the text always yields an empty last pair; after a
    # trailing skip, the pair that holds the skip is the EOF token instead.
    if len(pairs) > 1 and not pairs[-2][1]:
        pairs.pop()
    texts = list(map(sys.intern, map(itemgetter(1), pairs)))
    offsets = list(islice(accumulate(map(len, chain.from_iterable(pairs))), 0, None, 2))
    # map stops at the shorter input, before the EOF token, which has no
    # first character.
    firsts = map(itemgetter(0), islice(texts, len(texts) - 1))
    kinds = list(map(_KIND_BY_TEXT.get, texts, map(_KIND_BY_START.get, firsts)))
    kinds.append(Kind.EOF)
    i = -1
    for _ in range(kinds.count(None)):
        i = kinds.index(None, i + 1)
        kinds[i] = _classify(texts[i], text, offsets[i], file_name)
    return Lexed(kinds, texts, offsets)


def _classify(token: str, text: str, offset: int, file_name: str) -> str:
    """The kind of a number literal or of a non-ASCII identifier; raises
    the ParseError that an error token stands for."""
    first = token[0]
    if first.isdigit() or first == ".":
        if token[:2] in ("0x", "0X"):
            return Kind.LONG if token[-1] in "lL" else Kind.INT
        is_float = "." in token or "e" in token or "E" in token
        kind = _SUFFIX_KINDS.get(token[-1].lower(), Kind.DOUBLE if is_float else Kind.INT)
        if kind is not Kind.LONG or not is_float:
            return kind
        message = "long suffix on a fractional literal"
    elif first.isalpha():
        return Kind.IDENT
    else:
        message = _ERRORS.get(token) or f"unexpected character {token!r}"
    raise ParseError(file_name, *line_col(line_starts(text), offset), message)


def line_starts(text: str) -> list[int]:
    """The offset of the first character of each line of ``text``."""
    starts = list(accumulate(map((1).__add__, map(len, text.split("\n"))), initial=0))
    starts.pop()  # one past the end of the text
    return starts


def line_col(starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``, given its text's line starts."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1
