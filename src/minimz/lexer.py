"""Tokenizer for `.mz` source text.

Identifiers are ASCII: `[a-z][a-zA-Z0-9_']*` for values and type names,
`[A-Z][a-zA-Z0-9_']*` for data tags. Line comments start with `--`.

`tokenize` makes no Python step per token. It blanks each comment to
spaces, then one C-level `re.split` cuts the text into gaps of blanks and
tokens in turn; the starts are the running sums of the parts' lengths,
and each distinct text is given its kind once. It returns a `Tokens`:
three parallel lists, the kind, the text and the start offset of each
token, that end in one EOF token, and the text it read. No object is
made per token; the parser reads the lists by index and makes a `Span`
only where a node or an error keeps one. `len(tokenize(text)) - 1` is
the number of tokens in the text.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice
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
    one item per token, as `tokenize` makes them, and the `source` text
    they were read from. The last token is the EOF, whose text is empty
    and whose start is the length of the input."""

    __slots__ = ("kinds", "texts", "starts", "source")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int], source: str):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.source = source

    def __len__(self) -> int:
        return len(self.kinds)


# A comment runs from `--` to the end of its line and is blanked to spaces
# of its length before the split, so every offset stays. A comment starts
# only where a token could: right after `<`, `--` reads as `<-` then `-`.
_COMMENT_RE = re.compile(r"(?<!<)--[^\n]*")

# One capture group, so `split` gives the gaps and the tokens in turn. A gap
# holds blanks alone: any other character is a token, an illegal one if it
# has no kind.
_SPLIT_RE = re.compile(r"([a-zA-Z][a-zA-Z0-9_']*|[0-9]+|->|<-|[^ \t\r\n])")

# The kind of a token by its text (a keyword, an operator) or else by its
# first character; an illegal character has none.
_KINDS = MappingProxyType({
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "LIDENT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "UIDENT"),
    **dict.fromkeys("0123456789", "INT"),
    **dict.fromkeys(["->", "<-", *"@*|={}()[],;:."], "OP"),
    **dict.fromkeys(KEYWORDS, "KW"),
})


def tokenize(text: str) -> Tokens:
    blanked = _COMMENT_RE.sub(lambda m: " " * len(m[0]), text) if "--" in text else text
    parts = _SPLIT_RE.split(blanked)
    texts = parts[1::2]
    # The running ends of the parts: a gap ends where the token after it
    # starts, and the last gap at the EOF.
    starts = list(islice(accumulate(map(len, parts)), 0, None, 2))
    kind_of = {t: _KINDS.get(t) or _KINDS.get(t[0]) for t in set(texts)}
    kinds = list(map(kind_of.__getitem__, texts))
    if None in kind_of.values():
        i = kinds.index(None)
        raise LexError(f"illegal character {texts[i]!r}", Span(starts[i], 1))
    kinds.append("EOF")
    texts.append("")
    return Tokens(kinds, texts, starts, text)  # type: ignore[arg-type]


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset into `text`, in code points."""
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    col = offset - last_nl if last_nl >= 0 else offset + 1
    return line, col
