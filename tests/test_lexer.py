import pytest
from hypothesis import example, given, settings, strategies as st

from minimz.ast import Span
from minimz.lexer import KEYWORDS, LexError, line_col, tokenize


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens if t.kind != "EOF"]


def test_data_mutable_tree():
    tokens = kinds_and_texts(tokenize("data mutable tree a"))
    assert tokens == [
        ("KW", "data"),
        ("KW", "mutable"),
        ("LIDENT", "tree"),
        ("LIDENT", "a"),
    ]


def test_empty_input():
    tokens = tokenize("")
    assert len(tokens) == 1 and tokens[0].kind == "EOF"


def test_permission_conjunction():
    tokens = kinds_and_texts(tokenize("t @ tree a * x @ a"))
    assert tokens == [
        ("LIDENT", "t"),
        ("OP", "@"),
        ("LIDENT", "tree"),
        ("LIDENT", "a"),
        ("OP", "*"),
        ("LIDENT", "x"),
        ("OP", "@"),
        ("LIDENT", "a"),
    ]


def test_keywords_are_closed_set():
    text = "data mutable alias abstract val perm consumes let in match with fun if then else true false"
    tokens = tokenize(text)
    assert all(t.kind == "KW" for t in tokens[:-1])


def test_line_comments_are_skipped():
    tokens = kinds_and_texts(tokenize("-- a comment\nval -- trailing\n"))
    assert tokens == [("KW", "val")]


def test_uident_vs_lident():
    tokens = kinds_and_texts(tokenize("Node left x'2"))
    assert tokens == [("UIDENT", "Node"), ("LIDENT", "left"), ("LIDENT", "x'2")]


def test_illegal_character_has_span():
    with pytest.raises(LexError) as exc:
        tokenize("val x ?")
    assert exc.value.span == Span(6, 1)


def test_unicode_identifier_rejected():
    with pytest.raises(LexError):
        tokenize("val café")


def test_spans_cover_source():
    text = "val size: [a] tree a -> int"
    for tok in tokenize(text)[:-1]:
        assert text[tok.span.start : tok.span.end] == tok.text


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
def test_tokenizer_totality(text):
    """tokenize never loops and emits at most one token per character."""
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert len(tokens) - 1 <= len(text)


def test_line_col():
    text = "ab\ncd\nef"
    assert line_col(text, 0) == (1, 1)
    assert line_col(text, 3) == (2, 1)
    assert line_col(text, 7) == (3, 2)


# -- the tokenizer against a character scanner ----------------------------

OPERATORS = ("->", "<-", "@", "*", "|", "=", "{", "}", "(", ")", "[", "]", ",", ";", ":", ".")


def scan(text: str):
    """What `tokenize` should give, read one character at a time: a list of
    (kind, text, start, length) ending in EOF, or ("error", message, start,
    length) for the first illegal character."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        j = i + 1
        if c.isascii() and c.isalpha():
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = "KW" if word in KEYWORDS else "UIDENT" if c.isupper() else "LIDENT"
        elif c in "0123456789":
            while j < n and text[j] in "0123456789":
                j += 1
            kind = "INT"
        elif text.startswith(("->", "<-"), i):
            j = i + 2
            kind = "OP"
        elif c in OPERATORS:
            kind = "OP"
        else:
            return ("error", f"illegal character {c!r}", i, 1)
        out.append((kind, text[i:j], i, j - i))
        i = j
    out.append(("EOF", "", n, 0))
    return out


def _word(first: str):
    rest = st.text(alphabet="aZ09_'", max_size=4)
    return st.tuples(st.sampled_from(first), rest).map("".join)


PIECES = st.one_of(
    _word("abxyz"),
    _word("ANZ"),
    st.sampled_from(sorted(KEYWORDS)),
    st.text(alphabet="0179", min_size=1, max_size=4),
    st.sampled_from(OPERATORS),
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\n\n"]),
    st.text(alphabet="ab1 -\t>?@é", max_size=8).map(lambda body: "--" + body),
    st.sampled_from(["?", "-", "!", "#", ">", "<", "é", "\x00", "\x0c", "\u2028"]),
)


@settings(max_examples=600)
@given(st.lists(PIECES, max_size=12).map("".join))
@example("val -- trailing")
@example("-- ab\n?")
@example("x --\n--y\n-- z")
def test_tokenize_agrees_with_a_character_scanner(text):
    try:
        got = [(t.kind, t.text, t.span.start, t.span.length) for t in tokenize(text)]
    except LexError as exc:
        got = ("error", exc.message, exc.span.start, exc.span.length)
    assert got == scan(text)
