"""Tokenizer for the analyzed Java subset (pre-generics, pre-assert).

One master regular expression scans the text; each match is one token, one
run of whitespace or one comment.  Lines are counted from the newlines in
whitespace and block comments, the only matches that can hold one, and a
column is the offset from the start of its line.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache

from ..records import Value
from .errors import ParseError

__all__ = ["Kind", "Token", "tokenize", "KEYWORDS"]

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


class Kind(Enum):
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


class Token(Value):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: Kind, text: str, line: int, col: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


# Alternatives in priority order; the first that matches at a position wins.
# {A}, {W} and {D} are the identifier-start, identifier-part and digit
# classes.  A regex class such as \w or \d differs from the str predicates
# that define them (\d misses '²', which str.isdigit admits), so the classes
# list their characters: ASCII, plus the non-ASCII ones of the text at hand.
_PATTERN = r"""
 (?P<space>[ \t\r\n\f]+)
|(?P<comment>//[^\n]*|/\*(?s:.)*?\*/)
|(?P<open_comment>/\*)
|(?P<word>[{A}][{W}]*)
|(?P<hex>0[xX][{D}a-fA-F]*)(?P<hex_suffix>[lL])?
|(?P<number>(?:[{D}]+(?P<point>\.(?!\.)[{D}]*)?|(?P<lead>\.)[{D}]+)(?P<exponent>[eE][+-]?[{D}]+)?)
   (?P<suffix>[lLfFdD])?
|(?P<char>'(?:[^'\\\n]|\\[^\n])*')
|(?P<open_char>')
|(?P<string>"(?:[^"\\\n]|\\[^\n])*")
|(?P<open_string>")
|(?P<punct>{OPS})
|(?P<bad>(?s:.))
"""

_SUFFIX_KINDS = {"l": Kind.LONG, "f": Kind.FLOAT, "d": Kind.DOUBLE}
_UNTERMINATED = {
    "open_comment": "unterminated comment",
    "open_char": "unterminated character literal",
    "open_string": "unterminated string literal",
}


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


def tokenize(text: str, file_name: str) -> list[Token]:
    """The tokens of ``text``, ending with one EOF token; raises ParseError."""
    extra = "" if text.isascii() else "".join(sorted(c for c in set(text) if not c.isascii()))
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    ident, keyword, punct = Kind.IDENT, Kind.KEYWORD, Kind.PUNCT
    for m in _scanner(extra).finditer(text):
        group = m.lastgroup
        if group == "word":
            word = m.group()
            kind = keyword if word in KEYWORDS else ident
            append(Token(kind, word, line, m.start() - line_start + 1))
        elif group == "punct":
            append(Token(punct, m.group(), line, m.start() - line_start + 1))
        elif group == "space" or group == "comment":
            newlines = m.group().count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + m.group().rindex("\n") + 1
        else:
            append(_literal(m, file_name, line, m.start() - line_start + 1))
    append(Token(Kind.EOF, "", line, len(text) - line_start + 1))
    return tokens


def _literal(m: re.Match, file_name: str, line: int, col: int) -> Token:
    """A number, char or string token, or the error the match stands for."""
    group = m.lastgroup
    text = m.group()
    if group == "number" or group == "hex_suffix" or group == "suffix":
        suffix = m.group("hex_suffix") or m.group("suffix")
        is_float = group != "hex_suffix" and (
            m.group("point") or m.group("lead") or m.group("exponent")
        )
        if suffix is None:
            return Token(Kind.DOUBLE if is_float else Kind.INT, text, line, col)
        kind = _SUFFIX_KINDS[suffix.lower()]
        if kind is Kind.LONG and is_float:
            raise ParseError(file_name, line, col, "long suffix on a fractional literal")
        return Token(kind, text, line, col)
    if group == "hex":
        return Token(Kind.INT, text, line, col)
    if group == "char":
        return Token(Kind.CHAR, text, line, col)
    if group == "string":
        return Token(Kind.STRING, text, line, col)
    if group in _UNTERMINATED:
        raise ParseError(file_name, line, col, _UNTERMINATED[group])
    raise ParseError(file_name, line, col, f"unexpected character {text!r}")
