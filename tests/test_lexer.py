from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from minimz.ast import Span
from minimz.lexer import KEYWORDS, LexError, blank_comments, cut, line_col, tokenize


def rows(tokens):
    """(kind, text, start, length) of each token, EOF included."""
    kinds, texts, starts = tokens.kinds, tokens.texts, tokens.starts
    assert len(kinds) == len(texts) == len(starts) == len(tokens)
    return list(zip(kinds, texts, starts, map(len, texts)))


def kinds_and_texts(tokens):
    return [(kind, text) for kind, text, _, _ in rows(tokens) if kind != "EOF"]


def test_data_mutable_tree():
    tokens = kinds_and_texts(tokenize("data mutable tree a"))
    assert tokens == [
        ("KW", "data"),
        ("KW", "mutable"),
        ("LIDENT", "tree"),
        ("LIDENT", "a"),
    ]


def test_empty_input():
    assert rows(tokenize("")) == [("EOF", "", 0, 0)]


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
    kinds = tokenize(text).kinds
    assert len(kinds) == 18 and all(kind == "KW" for kind in kinds[:-1])


def test_line_comments_are_skipped():
    tokens = kinds_and_texts(tokenize("-- a comment\nval -- trailing\n"))
    assert tokens == [("KW", "val")]


def test_a_comment_holding_non_ascii_text_is_skipped_and_keeps_later_offsets():
    """Offsets count code points, so a character of several bytes in a
    comment moves nothing after it."""
    text = "--\u539fpermission \u2200 caf\u00e9\nval x -- \u00e9\n"
    val, x = text.index("val"), text.index("x -")
    assert rows(tokenize(text)) == [
        ("KW", "val", val, 3),
        ("LIDENT", "x", x, 1),
        ("EOF", "", len(text), 0),
    ]
    assert (line_col(text, val), line_col(text, x)) == ((2, 1), (2, 5))


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
    for _, word, start, length in rows(tokenize(text))[:-1]:
        assert text[start : start + length] == word


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


def scanned(text: str):
    """`tokenize`'s answer in the form `scan` gives it."""
    try:
        return rows(tokenize(text))
    except LexError as exc:
        return ("error", exc.message, exc.span.start, exc.span.length)


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
@example("<--")  # `<-` then an illegal `-`: no comment starts inside `<-`
@example("<---")
@example("x<--y")
@example("->--x")
@example("a--b")
@example("?--")
@example("x --")
@example(" \t\r\n ")
def test_tokenize_agrees_with_a_character_scanner(text):
    assert scanned(text) == scan(text)


@settings(max_examples=30)
@given(st.lists(PIECES, min_size=1, max_size=12).map("".join))
def test_tokenize_agrees_with_a_character_scanner_on_long_texts(text):
    # Past a few tokens, `tokenize` gives kinds by another path.
    text = "\n".join([text] * 130)
    assert scanned(text) == scan(text)


def test_tokenize_agrees_with_a_character_scanner_on_every_short_string():
    texts = ["".join(t) for n in range(5) for t in product("<->aA1 \n?", repeat=n)]
    assert len(texts) == 1 + 9 + 9**2 + 9**3 + 9**4
    for text in texts:
        assert scanned(text) == scan(text), text


# -- the cut before each declaration against the tokenizer -----------------


def keyword_tokens(text: str):
    """The start and the text of each `data`, `alias`, `abstract` and `val`
    token of `text`, and the name it defines if it begins a definition (a
    `val` followed by a name, which may be a keyword, and `(`), else None;
    or None if it does not lex."""
    try:
        tokens = tokenize(text)
    except LexError:
        return None
    texts = tokens.texts
    keywords = ("data", "alias", "abstract", "val")
    return [
        (start, word, texts[k + 1] if word == "val" and texts[k + 1][:1].islower()
         and texts[k + 2 : k + 3] == ["("] else None)
        for k, (word, start) in enumerate(zip(texts, tokens.starts))
        if word in keywords
    ]


def agrees_with_the_tokenizer(text: str) -> bool:
    """Does `cut` find the declarations' keywords that `tokenize` gives, and
    the names of the definitions among them, on a text that lexes? Any
    answer is right for one that does not."""
    expected = keyword_tokens(text)
    return expected is None or list(zip(*cut(blank_comments(text)))) == expected


@settings(max_examples=600)
@given(st.lists(PIECES, max_size=12).map("".join))
@example("3val")
@example("x3val")
@example("x'val")
@example("intervals")
@example("valx")
@example("-- val")
@example("<--val")
@example("data\r\nval")
@example("val f -- (\n(x) = x")
@example("val data(")
@example("val f: (int)")
def test_the_cut_gives_the_declaration_keywords_of_every_text_that_lexes(text):
    assert agrees_with_the_tokenizer(text)


def test_the_cut_agrees_with_the_tokenizer_on_every_short_string():
    # Up to four pieces: keywords next to digits, names, primes, comments
    # and the characters that begin or end them.
    pieces = ["val", "data", "3", "x", "'", "_", "--", "<", "-", "\n", " ", "(", "V"]
    texts = ["".join(t) for n in range(1, 5) for t in product(pieces, repeat=n)]
    lexable = [text for text in texts if keyword_tokens(text) is not None]
    assert len(lexable) == 13_283
    assert [text for text in lexable if not agrees_with_the_tokenizer(text)] == []
