"""Recursive-descent parser producing a span-annotated AST.

Precedence inside a type, loosest to tightest: quantifiers, `->`, `*`,
`@`, application. Inside parentheses the bar `|` binds looser than the
component commas, so `(a, b | p)` is a two-component tuple carrying
permission `p`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from functools import partial
from itertools import compress, count, zip_longest

from .ast import (
    Branch,
    DAbstract,
    DAlias,
    DData,
    DValDef,
    DValSig,
    Decl,
    EAssign,
    EBool,
    ECall,
    EConstruct,
    EField,
    EIf,
    EInt,
    ELambda,
    ELet,
    EMatch,
    ETagUpdate,
    ETuple,
    EVar,
    Expr,
    KIND_PERM,
    KIND_TYPE,
    Kind,
    PTag,
    PTuple,
    PVar,
    Pattern,
    SourceFile,
    Span,
    TApp,
    TArrow,
    TAt,
    TBar,
    TConcrete,
    TForall,
    TExists,
    TSingleton,
    TStar,
    TTuple,
    TVar,
    Type,
    TupleComp,
)
from . import lexer
from .lexer import KEYWORDS, LexError, Tokens, blank_comments, cut


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


# The largest integer literal: an int is a signed 64-bit integer, as
# `runtime` wraps the result of every operation on ints.
_INT_MAX = 2**63 - 1

# Tokens that may begin an expression atom (application arguments).
_EXPR_ATOM_KINDS = ("INT", "LIDENT", "UIDENT")
_EXPR_ATOM_TEXTS = ("(", "true", "false")

# What may follow a declaration: the next one's keyword, or the EOF.
_DECL_ENDS = frozenset(("data", "alias", "abstract", "val", ""))


class Declarations:
    """A file's text cut before each declaration, as `tokenize` gives it:
    the `texts` of its declarations, each from its keyword to the next
    declaration's or to the end of the file, with each one's `keywords`
    and the name it defines if it is a definition, else None (`names`, as
    `lexer.cut` reads them); the `definitions`, each as its text, its
    offset and the keyword that follows it ("" at the end of the file),
    which `Parser.parse_file` lexes only where it parses them; and between
    them the `runs`, the tokens of each stretch of the file that holds no
    definition, which end in the next definition's `val` or in the EOF, or
    None for a stretch of no text. The first run holds what comes before
    the first declaration, which must be blanks alone. `len` counts the
    tokens lexed and one EOF, as the `len` of a `Tokens` of them would."""

    __slots__ = ("texts", "keywords", "names", "definitions", "runs")

    def __init__(self, texts: list[str], keywords: list[str], names: list[str | None],
                 definitions: list[tuple[str, int, str]], runs: list[Tokens | None]):
        self.texts = texts
        self.keywords = keywords
        self.names = names
        self.definitions = definitions
        self.runs = runs

    def __len__(self) -> int:
        return sum(len(run) - 1 for run in self.runs if run is not None) + 1


class Parser:
    """Reads the token lists of a `Tokens` by index. `kind` and `text` are
    those of the next token to read, the one at `pos`; reading a token
    returns its index. A keyword or an operator is recognised by its text
    alone, which no token of another kind has. The hottest reads (in
    `expect`, an atom of `parse_postfix`, a field list and a pattern's
    name) write `next`'s three assignments in place, which saves a call
    per token: the front end of every workload, `check_wide`'s large
    literals most."""

    def __init__(self, tokens: Tokens):
        # `pos` stops at the last token, an EOF or the keyword of the next
        # declaration, which no rule inside a declaration reads; two EOFs
        # after it bound a lookahead of two tokens.
        self.kinds = tokens.kinds + ["EOF", "EOF"]
        self.texts = tokens.texts + ["", ""]
        self.starts = tokens.starts + tokens.starts[-1:] * 2
        self.pos = 0
        self.kind = self.kinds[0]
        self.text = self.texts[0]

    # -- token plumbing ----------------------------------------------------

    def next(self) -> int:
        i = self.pos
        self.pos = j = i + 1
        self.kind = self.kinds[j]
        self.text = self.texts[j]
        return i

    def span(self, i: int) -> Span:
        return Span(self.starts[i], len(self.texts[i]))

    def span_to(self, i: int, end: Span) -> Span:
        """`self.span(i).merge(end)`, where `end` lies after token `i`."""
        start = self.starts[i]
        return Span(start, end.start + end.length - start)

    def error(self, message: str) -> ParseError:
        what = f"{self.kind} {self.text!r}" if self.kind != "EOF" else "end of input"
        return ParseError(f"{message}, found {what}", self.span(self.pos))

    def expect(self, text: str) -> int:
        """Read the keyword or operator `text` and return its index."""
        i = self.pos
        if self.text != text:
            what = f"keyword {text!r}" if text in KEYWORDS else repr(text)
            raise self.error(f"expected {what}")
        self.pos = j = i + 1
        self.kind = self.kinds[j]
        self.text = self.texts[j]
        return i

    def expect_name(self) -> str:
        """Read a LIDENT and return its text."""
        if self.kind != "LIDENT":
            raise self.error("expected LIDENT")
        return self.texts[self.next()]

    def parse_comma_list(self, parse_item) -> list:
        """`x, ...`: one or more items."""
        items = [parse_item()]
        while self.text == ",":
            self.next()
            items.append(parse_item())
        return items

    def parse_paren_list(self, parse_item) -> tuple[list, Span]:
        """`( x, ... )`, possibly empty; returns the items and the span of the
        parentheses."""
        open_ = self.expect("(")
        items = [] if self.text == ")" else self.parse_comma_list(parse_item)
        return items, self.span_to(open_, self.span(self.expect(")")))

    # -- declarations ------------------------------------------------------

    @classmethod
    def parse_file(cls, file: Declarations, path: str,
                   known: Sequence[tuple[str, tuple[str, ...], int] | None] = ()) -> SourceFile:
        """The declarations of a file that `tokenize` cut, in order: those
        of each run by a parser of its tokens, and each definition lexed
        here, on its own, as it is parsed (`_parse_at`); or, where `known`
        gives a definition's name, parameters and span length (it is known
        clean: `driver.load_text`), a `DValDef.later` whose body is lexed
        and parsed when first read. The parse of a declaration reads
        nothing but its own tokens and, at most, that the one after them is
        a declaration's keyword or the EOF, so its text fixes it but for its
        offset."""
        decls: list[Decl] = []
        for run, definition, header in zip_longest(file.runs, file.definitions, known):
            if run is not None:
                # Each token of a run starts before its last, which starts
                # where the run's text ends.
                parser, end = cls(run), run.starts[-1]
                while parser.starts[parser.pos] != end:
                    decls += (parser.parse_declaration(),)
            if header is not None:
                name, params, length = header
                decls += (DValDef.later(name, params, Span(definition[1], length),
                                        partial(_parse_at, *definition)),)
            elif definition is not None:
                decls += (_parse_at(*definition),)
        return SourceFile(path, tuple(decls), tuple(file.texts))

    def parse_declaration(self) -> Decl:
        """The declaration at `pos`, which must end where the next one
        begins or at the EOF."""
        text = self.text
        if text == "data":
            decl: Decl = self.parse_data()
        elif text == "alias":
            decl = self.parse_alias()
        elif text == "abstract":
            decl = self.parse_abstract()
        elif text == "val":
            decl = self.parse_val()
        else:
            raise self.error("expected a declaration")
        if self.text not in _DECL_ENDS:
            raise self.error("expected a declaration")
        return decl

    def parse_type_params(self) -> tuple[tuple[str, Kind], ...]:
        params: list[tuple[str, Kind]] = []
        while True:
            i = self.pos
            if self.kind == "LIDENT":
                params.append((self.texts[self.next()], KIND_TYPE))
            elif self.text == "(" and self.kinds[i + 1] == "LIDENT" and self.texts[i + 2] == ":":
                self.next()
                name = self.expect_name()
                self.expect(":")
                self.expect("perm")
                self.expect(")")
                params.append((name, KIND_PERM))
            else:
                break
        return tuple(params)

    def parse_data(self) -> DData:
        start = self.expect("data")
        mutable = False
        if self.text == "mutable":
            self.next()
            mutable = True
        name = self.expect_name()
        params = self.parse_type_params()
        self.expect("=")
        branches = [self.parse_branch()]
        while self.text == "|":
            self.next()
            branches.append(self.parse_branch())
        span = self.span_to(start, branches[-1].span)
        return DData(name, mutable, params, tuple(branches), span)

    def parse_branch(self) -> Branch:
        return Branch(*self.parse_tagged(":", self.parse_type, with_bar=True))

    def parse_tagged(self, sep: str | None, parse_value, with_bar: bool = False):
        """A tag and its optional braced field list `Tag { f <sep> v; ... }`.

        `parse_value` reads each field's value after `sep`, or reads `sep`
        itself when `sep` is None: a type of a branch or of a concrete type,
        a pattern of a branch pattern, or an expression of a construction
        or a tag update (`parse_field_value`, which reads a field's first
        atom in place). Only a list read `with_bar` may end in a bar `| p`.
        Returns the tag, the fields, the bar (None when there is none) and
        the span from the tag to the closing brace.
        """
        if self.kind != "UIDENT":
            raise self.error("expected UIDENT")
        tag = self.next()
        if self.text != "{":
            return self.texts[tag], (), None, self.span(tag)
        self.next()
        fields: list[tuple[str, object]] = []
        kinds, texts = self.kinds, self.texts
        while self.kind == "LIDENT":
            fname = self.text
            self.pos = i = self.pos + 1
            self.kind = kinds[i]
            self.text = texts[i]
            if sep is not None:
                self.expect(sep)
            fields.append((fname, parse_value()))
            if self.text != ";":
                break
            self.pos = i = self.pos + 1
            self.kind = kinds[i]
            self.text = texts[i]
        bar: Type | None = None
        if with_bar and self.text == "|":
            self.next()
            bar = self.parse_type()
        span = self.span_to(tag, self.span(self.expect("}")))
        return self.texts[tag], tuple(fields), bar, span

    def parse_alias(self) -> DAlias:
        start = self.expect("alias")
        name = self.expect_name()
        params = self.parse_type_params()
        self.expect("=")
        body = self.parse_type()
        return DAlias(name, params, body, self.span_to(start, body.span))

    def parse_abstract(self) -> DAbstract:
        start = self.expect("abstract")
        name = self.expect_name()
        params = self.parse_type_params()
        return DAbstract(name, params, self.span_to(start, self.span(start + 1)))

    def parse_val(self) -> Decl:
        start = self.expect("val")
        name = self.expect_name()
        if self.text == ":":
            self.next()
            ty = self.parse_type()
            return DValSig(name, ty, self.span_to(start, ty.span))
        if self.text == "(":
            params, _ = self.parse_paren_list(self.expect_name)
            self.expect("=")
            body = self.parse_expr()
            return DValDef(name, tuple(params), body, self.span_to(start, body.span))
        raise self.error("expected ':' (signature) or '(' (definition) after val name")

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        # `{` never begins a type atom (concrete types follow a tag), so a
        # brace here opens the binders of an existential.
        if self.text == "[":
            close, quantifier = "]", TForall
        elif self.text == "{":
            close, quantifier = "}", TExists
        else:
            return self.parse_arrow()
        start = self.next()
        binders = self.parse_binders()
        self.expect(close)
        body = self.parse_type()
        return quantifier(binders, body, self.span_to(start, body.span))

    def parse_binders(self) -> tuple[tuple[str, Kind], ...]:
        return tuple(self.parse_comma_list(self.parse_binder))

    def parse_binder(self) -> tuple[str, Kind]:
        name = self.expect_name()
        if self.text == ":":
            self.next()
            self.expect("perm")
            return name, KIND_PERM
        return name, KIND_TYPE

    def parse_arrow(self) -> Type:
        left = self.parse_star()
        if self.text == "->":
            self.next()
            right = self.parse_type()
            return TArrow(left, right, left.span.merge(right.span))
        return left

    def parse_star(self) -> Type:
        first = self.parse_at()
        if self.text != "*":
            return first
        items = [first]
        while self.text == "*":
            self.next()
            items.append(self.parse_at())
        return TStar(tuple(items), items[0].span.merge(items[-1].span))

    def parse_at(self) -> Type:
        left = self.parse_app()
        if self.text == "@":
            at = self.next()
            if not isinstance(left, TVar):
                raise ParseError("left side of '@' must be a value name", self.span(at))
            right = self.parse_app()
            return TAt(left.name, right, left.span.merge(right.span))
        return left

    def parse_app(self) -> Type:
        head = self.parse_type_atom()
        if isinstance(head, TVar):
            args: list[Type] = []
            while self.kind == "LIDENT" or self.kind == "UIDENT" or self.text == "(":
                args.append(self.parse_type_atom())
            if args:
                return TApp(head.name, tuple(args), head.span.merge(args[-1].span))
        return head

    def parse_type_atom(self) -> Type:
        kind = self.kind
        if kind == "LIDENT":
            return TVar(self.text, self.span(self.next()))
        if kind == "UIDENT":
            return TConcrete(*self.parse_tagged(None, self._concrete_field, with_bar=True))
        if self.text == "=":
            start = self.next()
            name = self.expect_name()
            return TSingleton(name, self.span_to(start, self.span(start + 1)))
        if self.text == "(":
            return self.parse_paren_type()
        raise self.error("expected a type")

    def _concrete_field(self) -> Type:
        """A field of a concrete type: `= x`, the singleton `=x`, or `: t`."""
        if self.text == "=":
            self.next()
            i = self.pos
            return TSingleton(self.expect_name(), self.span(i))
        self.expect(":")
        return self.parse_type()

    def parse_paren_type(self) -> Type:
        open_ = self.expect("(")
        comps: list[TupleComp] = []
        named_or_consumed = False
        while self.text != ")" and self.text != "|":
            consumed = False
            if self.text == "consumes":
                self.next()
                consumed = True
                named_or_consumed = True
            name: str | None = None
            if self.kind == "LIDENT" and self.texts[self.pos + 1] == ":":
                name = self.texts[self.next()]
                self.next()
                named_or_consumed = True
            ty = self.parse_type()
            comps.append(TupleComp(name, ty, consumed))
            if self.text == ",":
                self.next()
            else:
                break
        bar: Type | None = None
        bar_consumed = False
        if self.text == "|":
            self.next()
            if self.text == "consumes":
                self.next()
                bar_consumed = True
            bar = self.parse_type()
        span = self.span_to(open_, self.span(self.expect(")")))
        plain = len(comps) == 1 and not named_or_consumed
        if bar is None:
            if plain:
                return comps[0].ty  # grouping parentheses
            return TTuple(tuple(comps), span)
        carrier: Type = comps[0].ty if plain else TTuple(tuple(comps), span)
        return TBar(carrier, bar, bar_consumed, span)

    # -- patterns ------------------------------------------------------------

    def parse_let_pattern(self) -> Pattern:
        text = self.text
        if self.kind == "LIDENT":
            i = self.pos
            self.pos = j = i + 1
            self.kind = self.kinds[j]
            self.text = self.texts[j]
            return PVar(text, Span(self.starts[i], len(text)))
        if text == "(":
            items, span = self.parse_paren_list(self.parse_let_pattern)
            if len(items) == 1:
                return items[0]
            return PTuple(tuple(items), span)
        raise self.error("expected a pattern")

    def parse_branch_pattern(self) -> Pattern:
        tag, fields, _, span = self.parse_tagged("=", self.parse_let_pattern)
        return PTag(tag, fields, span)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        """An expression. A run of `let p = e in` and `e;` links is read in a
        loop, then folded from its end into `ELet`s, so a chain of any length
        takes no stack; `e;` is a let with an unmentionable binder."""
        links = None  # the links read, last first: (start, pattern, bound, rest)
        while True:
            text = self.text
            if text == "let":
                start = Span(self.starts[self.expect("let")], 3)
                pat = self.parse_let_pattern()
                self.expect("=")
                bound = self.parse_expr()
                self.expect("in")
                links = (start, pat, bound, links)
            elif text == "fun":
                e = self.parse_lambda()
                break
            elif text == "if":
                e = self.parse_if()
                break
            elif text == "match":
                e = self.parse_match()
                break
            else:
                e = self.parse_assign()
                if self.text != ";":
                    break
                self.next()
                links = (e.span, PVar("seq%"), e, links)
        while links is not None:
            start, pat, bound, links = links
            e = ELet(pat, bound, e, start.merge(e.span))
        return e

    def parse_if(self) -> EIf:
        start = self.expect("if")
        cond = self.parse_expr()
        self.expect("then")
        then = self.parse_expr()
        self.expect("else")
        otherwise = self.parse_expr()
        return EIf(cond, then, otherwise, self.span_to(start, otherwise.span))

    def parse_lambda(self) -> ELambda:
        start = self.expect("fun")
        if self.text != "(":
            raise self.error("expected '(' after fun")
        domain = self.parse_paren_type()
        if not isinstance(domain, (TTuple, TBar)):
            domain = TTuple((TupleComp(None, domain, False),))
        codomain: Type | None = None
        if self.text == ":":
            self.next()
            codomain = self.parse_type()
            self.expect("=")
        else:
            self.expect("->")
        body = self.parse_expr()
        return ELambda(domain, codomain, body, self.span_to(start, body.span))

    def parse_match(self) -> EMatch:
        start = self.expect("match")
        scrutinee = self.parse_expr()
        self.expect("with")
        if self.text == "|":
            self.next()
        branches: list[tuple[Pattern, Expr]] = []
        while True:
            pat = self.parse_branch_pattern()
            self.expect("->")
            body = self.parse_expr()
            branches.append((pat, body))
            if self.text == "|":
                self.next()
            else:
                break
        return EMatch(scrutinee, tuple(branches), self.span_to(start, branches[-1][1].span))

    def parse_assign(self, head: Expr | None = None) -> Expr:
        """An assignment `e.f <- v`, a tag update or an application. `head`,
        when given, is its first atom, already read."""
        start = self.pos
        if head is None and self.text == "tag" and self.texts[start + 1] == "of":
            self.next()
            self.next()
            obj = self.parse_postfix()
            self.expect("<-")
            tag, fields, _, span = self.parse_tagged("=", self.parse_field_value)
            return ETagUpdate(obj, tag, fields, self.span_to(start, span))
        e = self.parse_app_expr(head)
        if self.text == "<-":
            arrow = self.next()
            if not isinstance(e, EField):
                raise ParseError("left side of '<-' must be a field access", self.span(arrow))
            value = self.parse_assign()
            return EAssign(e.obj, e.name, value, e.span.merge(value.span))
        return e

    def parse_field_value(self) -> Expr:
        """The value of a field of a construction or a tag update, as
        `parse_assign` reads it. A first atom that is a name, an integer or
        a construction is read here, into the node `parse_postfix` makes of
        it, without the calls down to `parse_postfix`. A `;` or a `}` after
        it, as after most values, ends the value; anything else goes on as
        `parse_assign` goes on after its first atom. A construction nested
        in a field so takes two frames of the stack a level. It serves
        `check_wide`, whose tree literals are mostly such fields."""
        kind = self.kind
        i = self.pos
        after = self.texts[i + 1]
        if kind == "UIDENT" and after == "{":
            tag, fields, _, span = self.parse_tagged("=", self.parse_field_value)
            e: Expr = EConstruct(tag, fields, span)
        elif kind == "INT" or kind == "UIDENT" or (
            kind == "LIDENT" and not (self.text == "tag" and after == "of")
        ):
            text = self.text
            span = Span(self.starts[i], len(text))
            self.pos = i = i + 1
            self.kind = self.kinds[i]
            self.text = after
            if kind == "LIDENT":
                e = EVar(text, span)
            elif kind == "INT":
                e = _int_literal(text, span)
            else:  # a tag without fields
                e = EConstruct(text, (), span)
        else:
            return self.parse_assign()
        if self.text == ";" or self.text == "}":
            return e
        return self.parse_assign(e)

    def parse_app_expr(self, head: Expr | None = None) -> Expr:
        """An application `f [types] a b`, or one atom and its fields.
        `head`, when given, is its first atom, already read."""
        head = self.parse_postfix(head)
        type_args: tuple[Type, ...] | None = None
        if self.text == "[":
            self.next()
            type_args = tuple(self.parse_comma_list(self.parse_type))
            self.expect("]")
        result = head
        first = True
        while self.kind in _EXPR_ATOM_KINDS or self.text in _EXPR_ATOM_TEXTS:
            arg = self.parse_postfix()
            result = ECall(
                result,
                arg,
                type_args if first else None,
                result.span.merge(arg.span),
            )
            first = False
        if first and type_args is not None:
            raise ParseError("type application must be followed by an argument", head.span)
        return result

    def parse_postfix(self, e: Expr | None = None) -> Expr:
        """An atom and the fields read from it: `a.f.g`. `e`, when given, is
        the atom, already read."""
        if e is None:
            kind = self.kind
            text = self.text
            if kind == "LIDENT" or kind == "INT" or text == "true" or text == "false":
                i = self.pos
                span = Span(self.starts[i], len(text))
                self.pos = i = i + 1
                self.kind = self.kinds[i]
                self.text = self.texts[i]
                if kind == "LIDENT":
                    e = EVar(text, span)
                elif kind == "INT":
                    e = _int_literal(text, span)
                else:
                    e = EBool(text == "true", span)
            elif kind == "UIDENT":
                tag, fields, _, span = self.parse_tagged("=", self.parse_field_value)
                e = EConstruct(tag, fields, span)
            elif text == "(":
                items, span = self.parse_paren_list(self.parse_expr)
                e = items[0] if len(items) == 1 else ETuple(tuple(items), span)
            else:
                raise self.error("expected an expression")
        while self.text == ".":
            self.next()
            i = self.pos
            e = EField(e, self.expect_name(), e.span.merge(self.span(i)))
        return e


def _int_literal(text: str, span: Span) -> EInt:
    """The integer literal `text`, read at `span`: at most `_INT_MAX`."""
    value = int(text)
    if value > _INT_MAX:
        raise ParseError(f"integer literal {text} exceeds {_INT_MAX}, the largest int", span)
    return EInt(value, span)


def _parse_at(text: str, start: int, end: str) -> Decl:
    """The declaration whose text is `text`, at offset `start` of its file
    and followed by the keyword `end` ("" at the end of the file), lexed on
    its own and parsed: its tokens and their spans are those that the
    file's text gives it. It is lexed by `lexer.tokenize`, not by this
    module's `tokenize`, the file's lexer layer (`perfbench/ops.py`):
    whoever parses it pays for its lex, the parser where the definition is
    not known clean, whoever reads a lazy body otherwise."""
    return Parser(lexer.tokenize(text, start, end)).parse_declaration()


def tokenize(text: str) -> Declarations:
    """`text` cut before each declaration (`lexer.cut`), and each run of
    declarations between its definitions lexed in one call, at its offset.
    The file's lexer layer: a definition is lexed only where it is
    parsed."""
    blanked = blank_comments(text) if "--" in text else text
    starts, keywords, names = cut(blanked)
    bounds = [*starts, len(text)]
    texts = [text[i:j] for i, j in zip(bounds, bounds[1:])]
    ends = [*keywords[1:], ""]
    defined, runs = [], []
    i = 0  # where the run after the last definition begins
    for k in compress(count(), names):
        j = starts[k]
        runs.append(lexer.tokenize(blanked[i:j], i, "val") if i < j else None)
        defined.append((texts[k], j, ends[k]))
        i = bounds[k + 1]
    runs.append(lexer.tokenize(blanked[i:], i) if i < len(text) else None)
    return Declarations(texts, keywords, names, defined, runs)


@contextmanager
def first_error(text: str) -> Iterator[None]:
    """Where the parse of `text` in the block raises, the whole text is
    lexed, so that a `LexError` anywhere in it comes before any other
    error: a file's first illegal character is its error, wherever its
    parse stopped."""
    try:
        yield
    except (LexError, ParseError):
        lexer.tokenize(text)
        raise


def parse_file(text: str, path: str = "<input>") -> SourceFile:
    """`text` parsed, no definition known clean (`Parser.parse_file`)."""
    with first_error(text):
        return Parser.parse_file(tokenize(text), path)
