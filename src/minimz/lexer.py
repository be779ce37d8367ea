"""Tokenizer for `.mz` source text.

Identifiers are ASCII: `[a-z][a-zA-Z0-9_']*` for values and type names,
`[A-Z][a-zA-Z0-9_']*` for data tags. Line comments start with `--`.

`tokenize` makes no Python step per token. It blanks each comment to
spaces, then one C-level `re.split` cuts the text into gaps of blanks and
tokens in turn; the starts are the running sums of the parts' lengths
from the offset it is given, and each token is given its kind by C-level
lookups. It returns a `Tokens`: three parallel lists, the kind, the text
and the start offset of each token, that end in one more token, the EOF
or the keyword of the declaration that follows the text. No object is
made per token; the parser reads the lists by index and makes a `Span`
only where a node or an error keeps one. `len(tokenize(text)) - 1` is
the number of tokens in the text.

A file is not lexed whole. `cut` finds the keyword of each declaration,
and the name of each that begins a definition, without lexing the text.
`parser.tokenize` lexes each run of declarations between two definitions
in one call, at its offset; a definition is lexed on its own, only where
it is parsed, so one that the driver's memo knows clean
(`driver.load_text`) is not lexed unless its body is read. Only a file
whose parse fails is lexed whole, so that an illegal character anywhere
in it is the error it reports (`parser.first_error`).
"""

from __future__ import annotations

import re
from itertools import accumulate, islice
from operator import itemgetter
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
    one item per token, as `tokenize` makes them. The last token is the
    one that follows the text: the EOF, whose text is empty and whose
    start is the end of the input, or the keyword of the declaration
    after it."""

    __slots__ = ("kinds", "texts", "starts")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts

    def __len__(self) -> int:
        return len(self.kinds)


# A comment runs from `--` to the end of its line and is blanked to spaces
# of its length, so every offset stays. A comment starts only where a
# token could: right after `<`, `--` reads as `<-` then `-`. The pattern
# begins with its literal, which the search skips to.
_COMMENT_RE = re.compile(r"--(?<!<--)[^\n]*")

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
_FIRST = itemgetter(0)
# A text of more tokens gives each of its distinct texts its kind once,
# which pays where a large definition (`check_wide`'s) repeats its names
# and operators: per-token lookups alone lex a cold `check_wide` round's
# texts in about x1.15 the time. A shorter one, as most signatures, type
# declarations and small definitions are, looks up each token: the set
# and the dict alone lex the texts of the workloads' warm rounds in
# x1.09-1.17 the time, and 2,000 one-line definitions in about x1.2
# (Python 3.11.7; bounds from 128 to 512 do as well, lower ones worse on
# the cold rounds).
_FEW_TOKENS = 128

# A declaration's keyword where no identifier character follows it. It
# begins a token unless an identifier character comes before it, or
# before the run of digits before it: `3val` is an INT and a `val`,
# `x3val` and `x'val` are names. The group, read ahead and so not taken
# from the scan, holds the name that a `val` which begins a definition
# defines: the name after it, followed by a parenthesis.
_DECL_RE = re.compile(
    r"(?:data|alias|abstract|val(?=[ \t\r\n]+([a-z][a-zA-Z0-9_']*)[ \t\r\n]*\()?)(?![a-zA-Z0-9_'])"
)
_DIGITS = frozenset("0123456789")
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_'")


def blank_comments(text: str) -> str:
    """`text` with each comment blanked to spaces of its length."""
    return _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)


def cut(blanked: str) -> tuple[list[int], list[str], list[str | None]]:
    """The starts and the texts of the `data`, `alias`, `abstract` and
    `val` tokens of a text whose comments are blanked (`blank_comments`),
    found without lexing it: one C-level scan for the keywords, and a look
    at the characters before each. For a text that lexes, these are the
    tokens that `tokenize` gives; for one that does not, whatever. With
    them, the name that each defines if it begins a definition (`val`, a
    name and `(`), else None."""
    starts, keywords, names = [], [], []
    for m in _DECL_RE.finditer(blanked):
        i = j = m.start()
        while j and blanked[j - 1] in _DIGITS:
            j -= 1
        if not j or blanked[j - 1] not in _NAME_CHARS:
            starts.append(i)
            keywords.append(m[0])
            names.append(m[1])
    return starts, keywords, names


def tokenize(text: str, start: int = 0, end: str = "") -> Tokens:
    """The tokens of `text`, read at offset `start` of its file, followed
    by the keyword `end` of the declaration after it, or by the EOF if
    `end` is empty."""
    parts = _SPLIT_RE.split(blank_comments(text) if "--" in text else text)
    texts = parts[1::2]
    # The running ends of the parts from `start`: a gap ends where the
    # token after it starts, and the last gap where the text ends.
    starts = list(islice(accumulate(map(len, parts), initial=start), 1, None, 2))
    last = "KW" if end else "EOF"
    if texts[_FEW_TOKENS:]:  # more than a few tokens
        words = set(texts)
        kind_of = dict(zip(words, map(_KINDS.get, words, map(_KINDS.get, map(_FIRST, words)))))
        kinds = [*map(kind_of.__getitem__, texts), last]
    else:
        kinds = [*map(_KINDS.get, texts, map(_KINDS.get, map(_FIRST, texts))), last]
    if None in kinds:
        i = kinds.index(None)
        raise LexError(f"illegal character {texts[i]!r}", Span(starts[i], 1))
    return Tokens(kinds, [*texts, end], starts)  # type: ignore[arg-type]


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset into `text`, in code points."""
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    col = offset - last_nl if last_nl >= 0 else offset + 1
    return line, col
