"""Recursive-descent parser producing a span-annotated AST.

Precedence inside a type, loosest to tightest: quantifiers, `->`, `*`,
`@`, application. Inside parentheses the bar `|` binds looser than the
component commas, so `(a, b | p)` is a two-component tuple carrying
permission `p`.
"""

from __future__ import annotations

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
from .lexer import Token, tokenize


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected


# Tokens that may begin an expression atom (application arguments).
_EXPR_ATOM_START = ("INT", "LIDENT", "UIDENT")


class Parser:
    """Reads a token list that ends in EOF. A keyword or an operator is
    recognised by its text alone, which no token of another kind has."""

    def __init__(self, tokens: list[Token], path: str = "<input>"):
        # Two more EOFs bound a lookahead of up to two tokens: `next` stops
        # at the first EOF, so no peek runs past the list.
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0
        self.tok = tokens[0]  # the next token to read, tokens[pos]
        self.path = path

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != "EOF":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.tok
        what = f"{tok.kind} {tok.text!r}" if tok.kind != "EOF" else "end of input"
        return ParseError(f"{message}, found {what}", tok.span, expected)

    def expect_op(self, op: str) -> Token:
        if self.tok.text != op:
            raise self.error(f"expected {op!r}", (op,))
        return self.next()

    def expect_kw(self, word: str) -> Token:
        if self.tok.text != word:
            raise self.error(f"expected keyword {word!r}", (word,))
        return self.next()

    def expect(self, kind: str) -> Token:
        if self.tok.kind != kind:
            raise self.error(f"expected {kind}", (kind,))
        return self.next()

    def parse_comma_list(self, parse_item) -> list:
        """`x, ...`: one or more items."""
        items = [parse_item()]
        while self.tok.text == ",":
            self.next()
            items.append(parse_item())
        return items

    def parse_paren_list(self, parse_item) -> tuple[list, Span]:
        """`( x, ... )`, possibly empty; returns the items and the span of the
        parentheses."""
        open_tok = self.expect_op("(")
        items = [] if self.tok.text == ")" else self.parse_comma_list(parse_item)
        return items, open_tok.span.merge(self.expect_op(")").span)

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> SourceFile:
        decls: list[Decl] = []
        while self.tok.kind != "EOF":
            decls.append(self.parse_decl())
        return SourceFile(self.path, tuple(decls))

    def parse_decl(self) -> Decl:
        tok = self.tok
        if tok.text == "data":
            return self.parse_data()
        if tok.text == "alias":
            return self.parse_alias()
        if tok.text == "abstract":
            return self.parse_abstract()
        if tok.text == "val":
            return self.parse_val()
        raise self.error("expected a declaration", ("data", "alias", "abstract", "val"))

    def parse_type_params(self) -> tuple[tuple[str, Kind], ...]:
        params: list[tuple[str, Kind]] = []
        while True:
            tok = self.tok
            if tok.kind == "LIDENT":
                self.next()
                params.append((tok.text, KIND_TYPE))
            elif tok.text == "(" and self.peek(1).kind == "LIDENT" and self.peek(2).text == ":":
                self.next()
                name = self.expect("LIDENT").text
                self.expect_op(":")
                self.expect_kw("perm")
                self.expect_op(")")
                params.append((name, KIND_PERM))
            else:
                break
        return tuple(params)

    def parse_data(self) -> DData:
        start = self.expect_kw("data")
        mutable = False
        if self.tok.text == "mutable":
            self.next()
            mutable = True
        name = self.expect("LIDENT")
        params = self.parse_type_params()
        self.expect_op("=")
        branches = [self.parse_branch()]
        while self.tok.text == "|":
            self.next()
            branches.append(self.parse_branch())
        span = start.span.merge(branches[-1].span)
        return DData(name.text, mutable, params, tuple(branches), span)

    def parse_branch(self) -> Branch:
        return Branch(*self.parse_tagged(":", self.parse_type, with_bar=True))

    def parse_tagged(self, sep: str | None, parse_value, with_bar: bool = False):
        """A tag and its optional braced field list `Tag { f <sep> v; ... }`.

        `parse_value` reads each field's value after `sep`, or reads `sep`
        itself when `sep` is None. Only a list read `with_bar` may end in a
        bar `| p`. Returns the tag, the fields, the bar (None when there is
        none) and the span from the tag to the closing brace.
        """
        tag = self.expect("UIDENT")
        fields: list[tuple[str, object]] = []
        bar: Type | None = None
        span = tag.span
        if self.tok.text == "{":
            self.next()
            while self.tok.kind == "LIDENT":
                fname = self.next().text
                if sep is not None:
                    self.expect_op(sep)
                fields.append((fname, parse_value()))
                if self.tok.text == ";":
                    self.next()
                else:
                    break
            if with_bar and self.tok.text == "|":
                self.next()
                bar = self.parse_type()
            span = tag.span.merge(self.expect_op("}").span)
        return tag.text, tuple(fields), bar, span

    def parse_alias(self) -> DAlias:
        start = self.expect_kw("alias")
        name = self.expect("LIDENT")
        params = self.parse_type_params()
        self.expect_op("=")
        body = self.parse_type()
        return DAlias(name.text, params, body, start.span.merge(body.span))

    def parse_abstract(self) -> DAbstract:
        start = self.expect_kw("abstract")
        name = self.expect("LIDENT")
        params = self.parse_type_params()
        return DAbstract(name.text, params, start.span.merge(name.span))

    def parse_val(self) -> Decl:
        start = self.expect_kw("val")
        name = self.expect("LIDENT")
        if self.tok.text == ":":
            self.next()
            ty = self.parse_type()
            return DValSig(name.text, ty, start.span.merge(ty.span))
        if self.tok.text == "(":
            params, _ = self.parse_paren_list(lambda: self.expect("LIDENT").text)
            self.expect_op("=")
            body = self.parse_expr()
            return DValDef(name.text, tuple(params), body, start.span.merge(body.span))
        raise self.error("expected ':' (signature) or '(' (definition) after val name", (":", "("))

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        # `{` never begins a type atom (concrete types follow a tag), so a
        # brace here opens the binders of an existential.
        tok = self.tok
        if tok.text == "[":
            close, quantifier = "]", TForall
        elif tok.text == "{":
            close, quantifier = "}", TExists
        else:
            return self.parse_arrow()
        self.next()
        binders = self.parse_binders()
        self.expect_op(close)
        body = self.parse_type()
        return quantifier(binders, body, tok.span.merge(body.span))

    def parse_binders(self) -> tuple[tuple[str, Kind], ...]:
        return tuple(self.parse_comma_list(self.parse_binder))

    def parse_binder(self) -> tuple[str, Kind]:
        name = self.expect("LIDENT")
        if self.tok.text == ":":
            self.next()
            self.expect_kw("perm")
            return name.text, KIND_PERM
        return name.text, KIND_TYPE

    def parse_arrow(self) -> Type:
        left = self.parse_star()
        if self.tok.text == "->":
            self.next()
            right = self.parse_type()
            return TArrow(left, right, left.span.merge(right.span))
        return left

    def parse_star(self) -> Type:
        first = self.parse_at()
        if self.tok.text != "*":
            return first
        items = [first]
        while self.tok.text == "*":
            self.next()
            items.append(self.parse_at())
        return TStar(tuple(items), items[0].span.merge(items[-1].span))

    def parse_at(self) -> Type:
        left = self.parse_app()
        if self.tok.text == "@":
            at = self.next()
            if not isinstance(left, TVar):
                raise ParseError("left side of '@' must be a value name", at.span)
            right = self.parse_app()
            return TAt(left.name, right, left.span.merge(right.span))
        return left

    def parse_app(self) -> Type:
        head = self.parse_type_atom()
        if isinstance(head, TVar):
            args: list[Type] = []
            while self._starts_type_atom():
                args.append(self.parse_type_atom())
            if args:
                return TApp(head.name, tuple(args), head.span.merge(args[-1].span))
        return head

    def _starts_type_atom(self) -> bool:
        tok = self.tok
        return tok.kind in ("LIDENT", "UIDENT") or tok.text == "("

    def parse_type_atom(self) -> Type:
        tok = self.tok
        if tok.kind == "LIDENT":
            self.next()
            return TVar(tok.text, tok.span)
        if tok.kind == "UIDENT":
            return TConcrete(*self.parse_tagged(None, self._concrete_field, with_bar=True))
        if tok.text == "=":
            self.next()
            name = self.expect("LIDENT")
            return TSingleton(name.text, tok.span.merge(name.span))
        if tok.text == "(":
            return self.parse_paren_type()
        raise self.error("expected a type")

    def _concrete_field(self) -> Type:
        """A field of a concrete type: `= x`, the singleton `=x`, or `: t`."""
        if self.tok.text == "=":
            self.next()
            val = self.expect("LIDENT")
            return TSingleton(val.text, val.span)
        self.expect_op(":")
        return self.parse_type()

    def parse_paren_type(self) -> Type:
        open_tok = self.expect_op("(")
        comps: list[TupleComp] = []
        named_or_consumed = False
        while self.tok.text != ")" and self.tok.text != "|":
            consumed = False
            if self.tok.text == "consumes":
                self.next()
                consumed = True
                named_or_consumed = True
            name: str | None = None
            if self.tok.kind == "LIDENT" and self.peek(1).text == ":":
                name = self.next().text
                self.next()
                named_or_consumed = True
            ty = self.parse_type()
            comps.append(TupleComp(name, ty, consumed))
            if self.tok.text == ",":
                self.next()
            else:
                break
        bar: Type | None = None
        bar_consumed = False
        if self.tok.text == "|":
            self.next()
            if self.tok.text == "consumes":
                self.next()
                bar_consumed = True
            bar = self.parse_type()
        close = self.expect_op(")")
        span = open_tok.span.merge(close.span)
        plain = len(comps) == 1 and not named_or_consumed
        if bar is None:
            if plain:
                return comps[0].ty  # grouping parentheses
            return TTuple(tuple(comps), span)
        carrier: Type = comps[0].ty if plain else TTuple(tuple(comps), span)
        return TBar(carrier, bar, bar_consumed, span)

    # -- patterns ------------------------------------------------------------

    def parse_let_pattern(self) -> Pattern:
        tok = self.tok
        if tok.kind == "LIDENT":
            self.next()
            return PVar(tok.text, tok.span)
        if tok.text == "(":
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
        tok = self.tok
        if tok.text == "let":
            start = self.next()
            pat = self.parse_let_pattern()
            self.expect_op("=")
            bound = self.parse_expr()
            self.expect_kw("in")
            body = self.parse_expr()
            return ELet(pat, bound, body, start.span.merge(body.span))
        if tok.text == "fun":
            return self.parse_lambda()
        if tok.text == "if":
            start = self.next()
            cond = self.parse_expr()
            self.expect_kw("then")
            then = self.parse_expr()
            self.expect_kw("else")
            otherwise = self.parse_expr()
            return EIf(cond, then, otherwise, start.span.merge(otherwise.span))
        if tok.text == "match":
            return self.parse_match()
        return self.parse_seq()

    def parse_lambda(self) -> ELambda:
        start = self.expect_kw("fun")
        if self.tok.text != "(":
            raise self.error("expected '(' after fun", ("(",))
        domain = self.parse_paren_type()
        if not isinstance(domain, (TTuple, TBar)):
            domain = TTuple((TupleComp(None, domain, False),))
        codomain: Type | None = None
        if self.tok.text == ":":
            self.next()
            codomain = self.parse_type()
            self.expect_op("=")
        else:
            self.expect_op("->")
        body = self.parse_expr()
        return ELambda(domain, codomain, body, start.span.merge(body.span))

    def parse_match(self) -> EMatch:
        start = self.expect_kw("match")
        scrutinee = self.parse_expr()
        self.expect_kw("with")
        if self.tok.text == "|":
            self.next()
        branches: list[tuple[Pattern, Expr]] = []
        while True:
            pat = self.parse_branch_pattern()
            self.expect_op("->")
            body = self.parse_expr()
            branches.append((pat, body))
            if self.tok.text == "|":
                self.next()
            else:
                break
        return EMatch(scrutinee, tuple(branches), start.span.merge(branches[-1][1].span))

    def parse_seq(self) -> Expr:
        first = self.parse_assign()
        if self.tok.text == ";":
            self.next()
            rest = self.parse_expr()
            # Sequencing is sugar for a let with an unmentionable binder.
            return ELet(PVar("seq%"), first, rest, first.span.merge(rest.span))
        return first

    def parse_assign(self) -> Expr:
        tok = self.tok
        if (
            tok.kind == "LIDENT"
            and tok.text == "tag"
            and self.peek(1).kind == "LIDENT"
            and self.peek(1).text == "of"
        ):
            self.next()
            self.next()
            obj = self.parse_postfix()
            self.expect_op("<-")
            tag, fields, _, span = self.parse_tagged("=", self.parse_assign)
            return ETagUpdate(obj, tag, fields, tok.span.merge(span))
        e = self.parse_app_expr()
        if self.tok.text == "<-":
            arrow = self.next()
            if not isinstance(e, EField):
                raise ParseError("left side of '<-' must be a field access", arrow.span)
            value = self.parse_assign()
            return EAssign(e.obj, e.name, value, e.span.merge(value.span))
        return e

    def parse_app_expr(self) -> Expr:
        head = self.parse_postfix()
        type_args: tuple[Type, ...] | None = None
        if self.tok.text == "[":
            self.next()
            type_args = tuple(self.parse_comma_list(self.parse_type))
            self.expect_op("]")
        result = head
        first = True
        while self._starts_expr_atom():
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

    def _starts_expr_atom(self) -> bool:
        tok = self.tok
        if tok.kind in _EXPR_ATOM_START:
            return True
        if tok.text == "(":
            return True
        if tok.text == "true" or tok.text == "false":
            return True
        return False

    def parse_postfix(self) -> Expr:
        e = self.parse_atom_expr()
        while self.tok.text == ".":
            self.next()
            name = self.expect("LIDENT")
            e = EField(e, name.text, e.span.merge(name.span))
        return e

    def parse_atom_expr(self) -> Expr:
        tok = self.tok
        if tok.kind == "INT":
            self.next()
            return EInt(int(tok.text), tok.span)
        if tok.text == "true":
            self.next()
            return EBool(True, tok.span)
        if tok.text == "false":
            self.next()
            return EBool(False, tok.span)
        if tok.kind == "LIDENT":
            self.next()
            return EVar(tok.text, tok.span)
        if tok.kind == "UIDENT":
            tag, fields, _, span = self.parse_tagged("=", self.parse_assign)
            return EConstruct(tag, fields, span)
        if tok.text == "(":
            items, span = self.parse_paren_list(self.parse_expr)
            if len(items) == 1:
                return items[0]
            return ETuple(tuple(items), span)
        raise self.error("expected an expression")


def parse_file(text: str, path: str = "<input>") -> SourceFile:
    return Parser(tokenize(text), path).parse_file()


def parse_type(text: str) -> Type:
    parser = Parser(tokenize(text))
    ty = parser.parse_type()
    if parser.tok.kind != "EOF":
        raise parser.error("trailing input after type")
    return ty


def parse_expr(text: str) -> Expr:
    parser = Parser(tokenize(text))
    e = parser.parse_expr()
    if parser.tok.kind != "EOF":
        raise parser.error("trailing input after expression")
    return e
