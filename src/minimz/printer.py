"""Deterministic pretty-printer; parse(pretty_print(n)) == n up to spans."""

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
    Kind,
    PTag,
    PTuple,
    PVar,
    Pattern,
    SourceFile,
    TApp,
    TArrow,
    TAt,
    TBar,
    TConcrete,
    TEmpty,
    TExists,
    TForall,
    TMeta,
    TSingleton,
    TStar,
    TTuple,
    TVar,
    Type,
)

# Precedence levels: 0 top/quantifier, 1 arrow, 2 star, 3 at, 4 application.
_TOP, _ARROW, _STAR, _AT, _APP = 0, 1, 2, 3, 4


def print_type(t: Type, prec: int = _TOP) -> str:
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TMeta):
        return "?" + t.name.split("%")[0]
    if isinstance(t, TEmpty):
        return "empty"
    if isinstance(t, TSingleton):
        return _parens_if(f"={t.name}", prec > _APP)
    if isinstance(t, TApp):
        if not t.args:
            return t.head
        args = " ".join(_print_type_arg(a) for a in t.args)
        return _parens_if(f"{t.head} {args}", prec > _APP)
    if isinstance(t, TAt):
        return _parens_if(f"{t.anchor} @ {print_type(t.ty, _APP)}", prec > _AT)
    if isinstance(t, TStar):
        body = " * ".join(print_type(i, _AT) for i in t.items)
        return _parens_if(body, prec > _STAR)
    if isinstance(t, TArrow):
        dom = print_type(t.domain, _STAR)
        cod = print_type(t.codomain, _ARROW)
        return _parens_if(f"{dom} -> {cod}", prec > _ARROW)
    if isinstance(t, TForall):
        return _parens_if(f"[{_print_binders(t.binders)}] {print_type(t.body, _TOP)}", prec > _TOP)
    if isinstance(t, TExists):
        return _parens_if(f"{{{_print_binders(t.binders)}}} {print_type(t.body, _TOP)}", prec > _TOP)
    if isinstance(t, TConcrete):
        return _print_concrete(t)
    if isinstance(t, TTuple):
        return "(" + _print_comps(t) + ")"
    if isinstance(t, TBar):
        carrier = _print_comps(t.carrier) if isinstance(t.carrier, TTuple) else print_type(t.carrier, _TOP)
        kw = "consumes " if t.consumed else ""
        sep = " " if carrier else ""
        return f"({carrier}{sep}| {kw}{print_type(t.perm, _TOP)})"
    raise TypeError(f"unknown type node {t!r}")


def _print_type_arg(t: Type) -> str:
    if isinstance(t, (TVar, TConcrete, TTuple, TBar, TEmpty)):
        return print_type(t, _APP)
    if isinstance(t, TApp) and not t.args:
        return t.head
    return f"({print_type(t, _TOP)})"


def _print_binders(binders: tuple[tuple[str, Kind], ...]) -> str:
    parts = []
    for name, kind in binders:
        parts.append(f"{name}: perm" if kind == KIND_PERM else name)
    return ", ".join(parts)


def _print_comps(t: TTuple) -> str:
    parts = []
    for comp in t.comps:
        text = print_type(comp.ty, _TOP)
        if comp.name is not None:
            text = f"{comp.name}: {text}"
        if comp.consumed:
            text = f"consumes {text}"
        parts.append(text)
    return ", ".join(parts)


def _print_concrete(t: TConcrete) -> str:
    if not t.fields and t.bar is None:
        return t.tag
    parts = []
    for name, fty in t.fields:
        if isinstance(fty, TSingleton):
            parts.append(f"{name} = {fty.name}")
        else:
            parts.append(f"{name}: {print_type(fty, _TOP)}")
    body = "; ".join(parts)
    if t.bar is not None:
        body = f"{body} | {print_type(t.bar, _TOP)}" if body else f"| {print_type(t.bar, _TOP)}"
    return f"{t.tag} {{ {body} }}"


def _parens_if(text: str, cond: bool) -> str:
    return f"({text})" if cond else text


# ---------------------------------------------------------------------------
# Patterns and expressions
# ---------------------------------------------------------------------------


def print_pattern(p: Pattern) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PTuple):
        return "(" + ", ".join(print_pattern(i) for i in p.items) + ")"
    if isinstance(p, PTag):
        if not p.fields:
            return p.tag
        body = "; ".join(f"{n} = {print_pattern(q)}" for n, q in p.fields)
        return f"{p.tag} {{ {body} }}"
    raise TypeError(f"unknown pattern {p!r}")


def _is_compound(e: Expr) -> bool:
    return isinstance(e, (ELet, ELambda, EIf, EMatch, EAssign, ETagUpdate))


def _atom(e: Expr, indent: int) -> str:
    """Render in a position that must parse as a single application atom."""
    if isinstance(e, (EVar, EInt, EBool, ETuple, EConstruct, EField)):
        return print_expr(e, indent)
    return f"({print_expr(e, indent)})"


def _arg_safe(e: Expr, indent: int) -> str:
    """Render in list-ish positions (tuple items, record fields) where `;`
    and `,` would be swallowed by a trailing compound expression."""
    if _is_compound(e) or _is_seq(e):
        return f"({print_expr(e, indent)})"
    return print_expr(e, indent)


def _is_seq(e: Expr) -> bool:
    return isinstance(e, ELet) and isinstance(e.pattern, PVar) and e.pattern.name == "seq%"


def print_expr(e: Expr, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, EInt):
        return str(e.value)
    if isinstance(e, EBool):
        return "true" if e.value else "false"
    if isinstance(e, ETuple):
        return "(" + ", ".join(_arg_safe(i, indent) for i in e.items) + ")"
    if isinstance(e, EConstruct):
        if not e.fields:
            return e.tag
        body = "; ".join(f"{n} = {_arg_safe(v, indent)}" for n, v in e.fields)
        return f"{e.tag} {{ {body} }}"
    if isinstance(e, EField):
        return f"{_atom(e.obj, indent)}.{e.name}"
    if isinstance(e, EAssign):
        return f"{_atom(e.obj, indent)}.{e.name} <- {_arg_safe(e.value, indent)}"
    if isinstance(e, ETagUpdate):
        text = f"tag of {_atom(e.obj, indent)} <- {e.tag}"
        if e.fields:
            body = "; ".join(f"{n} = {_arg_safe(v, indent)}" for n, v in e.fields)
            text += f" {{ {body} }}"
        return text
    if isinstance(e, ECall):
        callee = _atom(e.callee, indent) if not isinstance(e.callee, ECall) else print_expr(e.callee, indent)
        targs = ""
        if e.type_args is not None:
            targs = " [" + ", ".join(print_type(t) for t in e.type_args) + "]"
        return f"{callee}{targs} {_atom(e.arg, indent)}"
    if isinstance(e, ELet):
        if _is_seq(e):
            return f"{_arg_safe(e.bound, indent)};\n{pad}{print_expr(e.body, indent)}"
        bound = print_expr(e.bound, indent + 1)
        sep = "\n" + inner if _is_compound(e.bound) or _is_seq(e.bound) or len(bound) > 60 else " "
        return (
            f"let {print_pattern(e.pattern)} ={sep}{bound} in\n"
            f"{pad}{print_expr(e.body, indent)}"
        )
    if isinstance(e, EIf):
        return (
            f"if {print_expr(e.cond, indent)}\n"
            f"{pad}then {print_expr(e.then, indent + 1)}\n"
            f"{pad}else {print_expr(e.otherwise, indent + 1)}"
        )
    if isinstance(e, EMatch):
        lines = [f"match {print_expr(e.scrutinee, indent)} with"]
        for k, (pat, body) in enumerate(e.branches):
            text = print_expr(body, indent + 1)
            # A compound body in a non-final branch would swallow the next
            # `|`, so it needs parentheses to round-trip.
            if k + 1 < len(e.branches) and (_is_compound(body) or _is_seq(body)):
                text = f"({text})"
            lines.append(f"{pad}| {print_pattern(pat)} ->\n{inner}{text}")
        return "\n".join(lines)
    if isinstance(e, ELambda):
        dom = print_type(e.domain) if isinstance(e.domain, (TTuple, TBar)) else f"({print_type(e.domain)})"
        if e.codomain is None:
            return f"fun {dom} ->\n{inner}{print_expr(e.body, indent + 1)}"
        return f"fun {dom} : {print_type(e.codomain)} =\n{inner}{print_expr(e.body, indent + 1)}"
    raise TypeError(f"unknown expression {e!r}")


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def _print_params(params: tuple[tuple[str, Kind], ...]) -> str:
    parts = []
    for name, kind in params:
        parts.append(f"({name}: perm)" if kind == KIND_PERM else name)
    return (" " + " ".join(parts)) if parts else ""


def _print_branch(b: Branch) -> str:
    if not b.fields and b.bar is None:
        return b.tag
    body = "; ".join(f"{n}: {print_type(t)}" for n, t in b.fields)
    if b.bar is not None:
        body = f"{body} | {print_type(b.bar)}" if body else f"| {print_type(b.bar)}"
    return f"{b.tag} {{ {body} }}"


def print_decl(d: Decl) -> str:
    if isinstance(d, DData):
        kw = "data mutable" if d.mutable else "data"
        head = f"{kw} {d.name}{_print_params(d.params)} ="
        branches = "\n| ".join(_print_branch(b) for b in d.branches)
        return f"{head}\n  {branches}"
    if isinstance(d, DAlias):
        return f"alias {d.name}{_print_params(d.params)} =\n  {print_type(d.body)}"
    if isinstance(d, DAbstract):
        return f"abstract {d.name}{_print_params(d.params)}"
    if isinstance(d, DValSig):
        return f"val {d.name}: {print_type(d.ty)}"
    if isinstance(d, DValDef):
        params = ", ".join(d.params)
        return f"val {d.name} ({params}) =\n  {print_expr(d.body, 1)}"
    raise TypeError(f"unknown declaration {d!r}")


def pretty_print(node: SourceFile | Decl | Expr | Type | Pattern) -> str:
    if isinstance(node, SourceFile):
        return "\n\n".join(print_decl(d) for d in node.decls) + "\n"
    if isinstance(node, Decl):
        return print_decl(node)
    if isinstance(node, Expr):
        return print_expr(node)
    if isinstance(node, Type):
        return print_type(node)
    if isinstance(node, Pattern):
        return print_pattern(node)
    raise TypeError(f"cannot pretty-print {node!r}")
