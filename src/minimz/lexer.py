"""Tokenizer for `.mz` source text.

Identifiers are ASCII: `[a-z][a-zA-Z0-9_']*` for values and type names,
`[A-Z][a-zA-Z0-9_']*` for data tags. Line comments start with `--`.
"""

from __future__ import annotations

import re

from .ast import Span

KEYWORDS = frozenset(
    [
        "data",
        "mutable",
        "alias",
        "abstract",
        "val",
        "perm",
        "consumes",
        "let",
        "in",
        "match",
        "with",
        "fun",
        "if",
        "then",
        "else",
        "true",
        "false",
    ]
)


class LexError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


class Token:
    """A token of kind KW, LIDENT, UIDENT, INT, OP or EOF, its text, and the
    offset at which the text starts; its span is made when asked for."""

    __slots__ = ("kind", "text", "start")

    def __init__(self, kind: str, text: str, start: int):
        self.kind = kind
        self.text = text
        self.start = start

    @property
    def span(self) -> Span:
        return Span(self.start, len(self.text))

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


# One match per token: the blanks and comments before it, then the token.
# Every position matches: after the blanks comes a token, an illegal
# character or the end of the input, so a comment is never given back to
# make a token of its tail.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r\n]+|--[^\n]*)*
      (?: ([a-z][a-zA-Z0-9_']*)         # 1: a keyword or a value or type name
        | (->|<-|[@*|={}()\[\],;:.])    # 2: an operator
        | ([A-Z][a-zA-Z0-9_']*)         # 3: a data tag
        | ([0-9]+)                      # 4: an integer
        | (.)                           # 5: an illegal character
        | \Z )
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group == 1:
            word = match.group(1)
            append(Token("KW" if word in KEYWORDS else "LIDENT", word, match.start(1)))
        elif group == 2:
            append(Token("OP", match.group(2), match.start(2)))
        elif group == 3:
            append(Token("UIDENT", match.group(3), match.start(3)))
        elif group == 4:
            append(Token("INT", match.group(4), match.start(4)))
        elif group == 5:
            raise LexError(f"illegal character {match.group(5)!r}", Span(match.start(5), 1))
    append(Token("EOF", "", len(text)))
    return tokens


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a byte offset."""
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    col = offset - last_nl if last_nl >= 0 else offset + 1
    return line, col
