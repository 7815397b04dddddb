"""The regex lexer against the naive oracle, and the parser on any text."""

from hypothesis import given, settings
from hypothesis import strategies as st

from demeterlint.javafront import ParseError, SourceError, parse_unit
from demeterlint.javafront.lexer import tokenize

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


def _outcome(lex, text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(text, "T.java")]
    except ParseError as e:
        return ("error", e.line, e.col, e.message)


@settings(max_examples=300, deadline=None)
@given(any_text)
def test_tokenize_agrees_with_oracle(text):
    assert _outcome(tokenize, text) == _outcome(naive_tokenize, text)


def test_oracle_agreement_on_programs():
    texts = [p.read_text() for p in sorted(CORPUS.rglob("*.java"))]
    texts += [text for seed in range(20) for _, text in random_program(seed)]
    for text in texts:
        assert _outcome(tokenize, text) == _outcome(naive_tokenize, text)


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
