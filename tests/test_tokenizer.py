"""The shared tokenizer (``errors.tokenize``) against the plain one in the oracles,
on both languages: the same kinds, texts and offsets, token for token."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from heapquery import cypher_frontend, heap_model
from heapquery.errors import Token, tokenize

from . import oracles
from .printer import query_text
from .strategies import mutated_object_programs, object_programs, queries

# Pieces of query text the drawn queries never hold: markers, backticked names,
# open quotes and backticks, comments, and characters no token starts with.
_QUERY_PIECES = [
    "MATCH ", "(n", ":A", ")", "-[r:f*1..3]->", "{", "`$uid`", ": ", "$1", "@2", "[]3", "[]", "$", "@",
    "`a``b`", "`open", "'x'", '"y"', "'open", '"open', "'\\'", "'a\\\n'", "// note\n", "/", "1.5e3", "2e",
    "12", "..", "<>", "<=", "->", "<-", " ", "\n", "#", "!", "~", "é", "\\",
]
# The same for the object language, whose drawn programs hold no float, string or comment.
_PROGRAM_PIECES = [
    "class ", "A", " x", "_$1", " = ", "new ", "(", ")", "{", "}", ";", ",", ".", "12", "1.5", "1.", ".5",
    '"s"', '"a\\"b"', '"open', "/* POINT */", "/*POINT*/", "/* note */", "/*", "*/", "// note\n", "/", " ",
    "\n", "@", "#", "é",
]
_query_texts = st.one_of(
    queries().map(query_text),
    st.lists(st.sampled_from(_QUERY_PIECES), max_size=12).map("".join),
    st.text(max_size=40),
)
_program_texts = st.one_of(
    object_programs(),
    mutated_object_programs(),
    st.lists(st.sampled_from(_PROGRAM_PIECES), max_size=12).map("".join),
    st.text(max_size=40),
)


def assert_same_tokens(pattern, reference_pattern, text: str):
    tokens = tokenize(pattern, text)
    assert [tuple(tok) for tok in tokens] == [tuple(tok) for tok in oracles.tokenize(reference_pattern, text)]
    assert all(type(tok) is Token for tok in tokens)


class TestAgainstThePlainTokenizer:
    @settings(max_examples=300, deadline=None)
    @given(_program_texts)
    def test_object_language(self, text):
        assert_same_tokens(heap_model._TOKEN_RE, oracles.PROGRAM_TOKEN_RE, text)

    @settings(max_examples=300, deadline=None)
    @given(_query_texts)
    def test_query_language(self, text):
        assert_same_tokens(cypher_frontend._TOKEN_RE, cypher_frontend._TOKEN_RE, text)

    def test_open_comment_and_string_and_long_literal(self):
        text = 'class A { A() {} } A x = new A("open, 1' + "9" * 5000 + ", 2.5); /* open // x @"
        for cut in range(0, len(text), 7):
            assert_same_tokens(heap_model._TOKEN_RE, oracles.PROGRAM_TOKEN_RE, text[:cut] + '"' + text[cut:])

    def test_tokens_are_tokens(self):
        tok = tokenize(cypher_frontend._TOKEN_RE, "match")[0]
        assert (tok.kind, tok.text, tok.offset, tok.keyword()) == ("ident", "match", 0, "MATCH")
