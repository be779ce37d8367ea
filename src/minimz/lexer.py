"""Tokenizer for `.mz` source text.

Identifiers are ASCII: `[a-z][a-zA-Z0-9_']*` for values and type names,
`[A-Z][a-zA-Z0-9_']*` for data tags. Line comments start with `--`.

`tokenize` reads the text in one pass of one regular expression and
returns a `Tokens`: three parallel lists, the kind, the text and the start
offset of each token, that end in one EOF token. No object is made per
token; the parser reads the lists by index and makes a `Span` only where a
node or an error keeps one. `len(tokenize(text)) - 1` is the number of
tokens in the text.
"""

from __future__ import annotations

import re
from types import MappingProxyType

from .ast import Span

KEYWORDS = frozenset(
    "data mutable alias abstract val perm consumes let in match with fun if then else true false"
    .split()
)


class LexError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


class Tokens:
    """`kinds` (KW, LIDENT, UIDENT, INT, OP or EOF), `texts` and `starts`,
    one item per token. The last token is the EOF, whose text is empty and
    whose start is the length of the input."""

    __slots__ = ("kinds", "texts", "starts")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts

    def __len__(self) -> int:
        return len(self.kinds)


# One match per token: the blanks and comments before it, then the token.
# Every position matches: after the blanks comes a token, an illegal
# character or the end of the input, so a comment is never given back to
# make a token of its tail. The end of the input matches once more after
# a match that ends there: the last match is always an empty token at the
# end, and it may follow a match of blanks alone.
_TOKEN_RE = re.compile(
    r"""((?:[ \t\r\n]+|--[^\n]*)*)
      ( [a-z][a-zA-Z0-9_']*         # a keyword or a value or type name
      | ->|<-|[@*|={}()\[\],;:.]    # an operator
      | [A-Z][a-zA-Z0-9_']*         # a data tag
      | [0-9]+                      # an integer
      | .                           # an illegal character
      | \Z )
    """,
    re.VERBOSE,
)

# The kind of a token by its text (a keyword, an operator, the empty text
# of the end) or else by its first character; an illegal character has none.
_KINDS = MappingProxyType({
    "": "EOF",
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "LIDENT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "UIDENT"),
    **dict.fromkeys("0123456789", "INT"),
    **dict.fromkeys(["->", "<-", *"@*|={}()[],;:."], "OP"),
    **dict.fromkeys(KEYWORDS, "KW"),
})


def tokenize(text: str) -> Tokens:
    kinds: list[str | None] = []
    texts: list[str] = []
    starts: list[int] = []
    kind_of = _KINDS.get
    pos = 0
    for blanks, word in _TOKEN_RE.findall(text):
        pos += len(blanks)
        kinds.append(kind_of(word) or kind_of(word[0]))
        texts.append(word)
        starts.append(pos)
        pos += len(word)
    if None in kinds:
        i = kinds.index(None)
        raise LexError(f"illegal character {texts[i]!r}", Span(starts[i], 1))
    if len(kinds) > 1 and kinds[-2] == "EOF":  # blanks alone before the end
        del kinds[-1], texts[-1], starts[-1]
    return Tokens(kinds, texts, starts)  # type: ignore[arg-type]


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a byte offset."""
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    col = offset - last_nl if last_nl >= 0 else offset + 1
    return line, col
