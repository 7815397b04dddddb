"""Naive lexer oracle: the analyzed Java subset tokenized one character at a
time.

This is the original character-by-character tokenizer, kept deliberately
naive as the independent check for ``demeterlint.javafront.lexer``: it
advances through a closure, tries every operator with ``startswith`` and
classifies characters with ``str`` predicates.  A token is a plain
``(kind, text, line, col)`` tuple.  Only the token kinds and the error class
are shared with the engine.
"""

from demeterlint.javafront.errors import ParseError
from demeterlint.javafront.lexer import Kind

KEYWORDS = frozenset(
    """
    abstract boolean break byte case catch char class const continue default
    do double else extends final finally float for goto if implements import
    instanceof int interface long native new package private protected public
    return short static super switch synchronized this throw throws transient
    try void volatile while true false null
    """.split()
)

# Longest first so maximal munch falls out of a linear scan.
_OPERATORS = [
    ">>>=",
    ">>>", ">>=", "<<=",
    "->", ">>", "<<", ">=", "<=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
    ":", ".", ",", ";", "(", ")", "{", "}", "[", "]", "@",
]


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _is_ident_part(c: str) -> bool:
    return c.isalnum() or c in "_$"


def naive_tokenize(text: str, file_name: str) -> list[tuple]:
    tokens: list[tuple] = []
    i = 0
    n = len(text)
    line = 1
    col = 1

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n\f":
            advance(1)
            continue
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                while i < n and text[i] != "\n":
                    advance(1)
                continue
            if nxt == "*":
                start_line, start_col = line, col
                advance(2)
                while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                    advance(1)
                if i + 1 >= n:
                    raise ParseError(file_name, start_line, start_col, "unterminated comment")
                advance(2)
                continue
        if _is_ident_start(c):
            start = i
            start_line, start_col = line, col
            while i < n and _is_ident_part(text[i]):
                advance(1)
            word = text[start:i]
            kind = Kind.KEYWORD if word in KEYWORDS else Kind.IDENT
            tokens.append((kind, word, start_line, start_col))
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            tokens.append(_number(text, file_name, i, line, col))
            advance(len(tokens[-1][1]))
            continue
        if c == "'":
            tok = _char_literal(text, file_name, i, line, col)
            tokens.append(tok)
            advance(len(tok[1]))
            continue
        if c == '"':
            tok = _string_literal(text, file_name, i, line, col)
            tokens.append(tok)
            advance(len(tok[1]))
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append((Kind.PUNCT, op, line, col))
                advance(len(op))
                break
        else:
            raise ParseError(file_name, line, col, f"unexpected character {c!r}")
    tokens.append((Kind.EOF, "", line, col))
    return tokens


def _number(text: str, file_name: str, i: int, line: int, col: int) -> tuple:
    n = len(text)
    start = i
    is_float = False
    if text.startswith(("0x", "0X"), i):
        i += 2
        while i < n and (text[i].isdigit() or text[i] in "abcdefABCDEF"):
            i += 1
    else:
        while i < n and text[i].isdigit():
            i += 1
        if i < n and text[i] == "." and not text.startswith("..", i):
            is_float = True
            i += 1
            while i < n and text[i].isdigit():
                i += 1
        if i < n and text[i] in "eE":
            j = i + 1
            if j < n and text[j] in "+-":
                j += 1
            if j < n and text[j].isdigit():
                is_float = True
                i = j
                while i < n and text[i].isdigit():
                    i += 1
    if i < n and text[i] in "lL":
        if is_float:
            raise ParseError(file_name, line, col, "long suffix on a fractional literal")
        i += 1
        return (Kind.LONG, text[start:i], line, col)
    if i < n and text[i] in "fF":
        i += 1
        return (Kind.FLOAT, text[start:i], line, col)
    if i < n and text[i] in "dD":
        i += 1
        return (Kind.DOUBLE, text[start:i], line, col)
    if is_float:
        return (Kind.DOUBLE, text[start:i], line, col)
    return (Kind.INT, text[start:i], line, col)


def _char_literal(text: str, file_name: str, i: int, line: int, col: int) -> tuple:
    n = len(text)
    start = i
    i += 1
    while i < n and text[i] != "'":
        if text[i] == "\\":
            i += 1
        if i < n and text[i] == "\n":
            raise ParseError(file_name, line, col, "unterminated character literal")
        i += 1
    if i >= n:
        raise ParseError(file_name, line, col, "unterminated character literal")
    return (Kind.CHAR, text[start : i + 1], line, col)


def _string_literal(text: str, file_name: str, i: int, line: int, col: int) -> tuple:
    n = len(text)
    start = i
    i += 1
    while i < n and text[i] != '"':
        if text[i] == "\\":
            i += 1
        if i < n and text[i] == "\n":
            raise ParseError(file_name, line, col, "unterminated string literal")
        i += 1
    if i >= n:
        raise ParseError(file_name, line, col, "unterminated string literal")
    return (Kind.STRING, text[start : i + 1], line, col)
