"""The regex lexer against the naive oracle, and the parser on any text."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demeterlint.javafront import ParseError, SourceError, parse_unit
from demeterlint.javafront.lexer import line_col, line_starts, tokenize

from conftest import CORPUS
from naive_lexer import naive_tokenize
from randprog import random_program

#: Pieces of Java text, chosen to land on every token rule and its edges:
#: number forms and suffixes, escapes, unterminated literals and comments,
#: and non-ASCII letters, digits and numerals ('²' is a digit, 'Ⅻ' is not).
FRAGMENTS = [
    "class", "int", "instanceof", "x", "_a1", "$b", "e", "f", "L", "d",
    "0", "7", "0x", "0X1fL", "1.", ".5", "1..2", "1e", "1e+9", "2.5E-3f", "3L", "4d",
    "'a'", "'\\''", "'\\", "'", '"s"', '"\\"', '"', "\\",
    "//c", "/*", "*/", "/**/", "/", "*",
    ">>>=", ">>", "->", "++", "+=", "=", "==", "<", "&&", "|", "?", ":",
    ".", ",", ";", "(", ")", "{", "}", "[", "]", "@", "#",
    " ", "\t", "\r", "\n", "\f", "\x0b",
    "é", "ß", "一", "²", "Ⅻ", "٣", "①", " ", " ",
]

java_like = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)
any_text = st.one_of(st.text(), st.text(alphabet=st.sampled_from("".join(FRAGMENTS))), java_like)


def engine_tokenize(text: str, file_name: str) -> list[tuple]:
    """The engine's tokens as (kind, text, line, col), offsets decoded."""
    lexed = tokenize(text, file_name)
    starts = line_starts(text)
    return [
        (kind, token, *line_col(starts, offset))
        for kind, token, offset in zip(lexed.kinds, lexed.texts, lexed.offsets)
    ]


def _outcome(lex, text: str):
    try:
        return lex(text, "T.java")
    except ParseError as e:
        return ("error", e.line, e.col, e.message)


@settings(max_examples=300, deadline=None)
@given(any_text)
def test_tokenize_agrees_with_oracle(text):
    expected = _outcome(naive_tokenize, text)
    assert _outcome(engine_tokenize, text) == expected
    if isinstance(expected, list):
        assert len(tokenize(text, "T.java")) == len(expected)


#: The edges of the skip before each token and of the empty match that ends
#: the text: nothing or only skip; a text ending in a comment or a newline;
#: an unterminated comment after trailing whitespace; line ends and form
#: feeds inside lines; and tokens, errors included, right after a comment.
EDGES = [
    "", " ", " \t\n\f", "\n\n",
    "x //c", "x /**/", "x\n", "//c", "/**/", "x \n\t /*", " /*", "x /* a\nb",
    "a\r\nb\r\n c", "a\fb \f\r\nc\r",
    "/* a\nb\n*/x", "x /*\n*/ y\n/**/\nz", "// a\n/* b\n c */ 1",
    "/**/é", "//c\n\u00e9x", "/* a\n */²", "// c\n٣ ①",
    "/**/1.5L", "// c\n 1.5L", "/* a\nb */ 1.5L",
]


@pytest.mark.parametrize("text", EDGES)
def test_edges_agree_with_oracle(text):
    expected = _outcome(naive_tokenize, text)
    assert _outcome(engine_tokenize, text) == expected
    if isinstance(expected, list):
        assert len(tokenize(text, "T.java")) == len(expected)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_line_col_counts_newlines(data):
    text = data.draw(any_text)
    offset = data.draw(st.integers(0, len(text)))
    before = text[:offset]
    expected = (before.count("\n") + 1, len(before.split("\n")[-1]) + 1)
    assert line_col(line_starts(text), offset) == expected


def test_oracle_agreement_on_programs():
    texts = [p.read_text() for p in sorted(CORPUS.rglob("*.java"))]
    texts += [text for seed in range(20) for _, text in random_program(seed)]
    for text in texts:
        assert _outcome(engine_tokenize, text) == _outcome(naive_tokenize, text)


wrapped = st.one_of(
    any_text,
    java_like.map(lambda body: "class A { void m() { " + body + " } }"),
    java_like.map(lambda expr: "class A { int f = " + expr + "; }"),
)


@settings(max_examples=300, deadline=None)
@given(wrapped)
def test_parse_unit_returns_or_raises_source_error(text):
    try:
        parse_unit(text, "T.java")
    except SourceError:
        pass
