"""Compiles each definition of a program into one Python function.

A definition gets its code on its first call in a run: `_Compiler`
writes its source text and `_code` turns it into code. The text is a
pure function of the definition, the mode of the run (checked or not,
traced or not) and the program's interface (`Interp.interface`), and
`_compiled` keeps the code of recent ones by the definition's text: a
process writes a definition once per text, mode and interface, and each
run executes that code in a namespace of its own.

The lambdas in the body become nested functions, a `let` binds a Python
local, an `if` or `match` becomes an `if` statement, a call of a binary
builtin on a pair literal is written out in place (any other call of a
builtin, as every call of `not`, runs the builtin's function), and nested
record literals of constants are built from a plan (`runtime._build`).
Program text never becomes code: each name of the program maps to a
generated identifier, and its tags, field names, integers and messages
are constants of the function's namespace. So the text depends only on
the shape of the definition, and `_code` keeps the code of recent texts:
definitions that differ only in their constants compile once.

Values are those of `runtime`: an int or bool is the Python value, whose
kind the code tests with `type(x) is int` or `type(x) is bool` (a `bool`
is an `int` to `isinstance`), a tuple is a Python `tuple`, which a tuple
pattern tests with `type(x) is tuple` and its length before it unpacks
it, and a record is its `Cell`, whose `tag` and `fields` no other value
has, so a read of either traps on any other value by its
`AttributeError`. Where an atom's type is fixed (a constant, a new
record, the result of a builtin written out) its checks are left out, and
so are those of an atom already tested on the way there: a test holds to
the end of the `if` or `match` arm, lambda or helper function it is in.

A run of a program the checker passed (`Interp.checked`) carries no
affinity instrumentation: a tuple literal is a plain Python tuple. An
unchecked run passes the items of each tuple literal to
`runtime._package`, which makes its closures one-shot. Both modes write
the allocation of a record in place, and only a traced run writes the
line it adds to the trace.

A function reaches the run through its first parameter, and a call of
another definition reads the run's globals at call time, so compiled code
holds no `Interp` or globals: closures end up in records, and holding the
run would make every finished run a reference cycle that only the cycle
collector frees. The namespace a run executes the code in holds the two
values of the run it needs: the step limit `L` and the list `C`, in
`Interp.calls`, to which the code appends the steps of each call that
returns.

The step count is `Interp.steps`. Steps charged in a row are added and
checked against the limit at once, before anything that can be seen after
a trap: a call, a new record, a write to a record, a return. A check that
fails in between, or a limit passed by one of those charges, stops the run
on the step a check per step would have stopped it on (`_Check.trap`);
the count then holds the whole charge that passed the limit, a node's
step with the reads `lead` took along, or a call's with its global
callee's read.

Code deeper than `_MAX_DEPTH` blocks moves to helper functions, since
Python's parser takes no more than 100 levels of indentation, and so does
a branch that would take a function past `_MAX_LOCALS` locals, since each
call of a function reserves room for all its locals, on branches not taken
too.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import TYPE_CHECKING

from .ast import (
    DValDef,
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
    Keyed,
    PTuple,
    PVar,
    Pattern,
    Scope,
)
from .kinds import domain_comps
from .runtime import (
    _BINARY,
    _INT_MAX,
    _INT_MIN,
    Cell,
    VClosure,
    _build,
    _Check,
    _package,
    _quot,
    _rem,
    _spread,
    _wrap64,
)

if TYPE_CHECKING:
    from .interp import Interp

def _children(e: Expr) -> tuple:
    """The subexpressions of `e` that its own function computes: not the
    body of a lambda."""
    t = type(e)
    if t is ELet:
        return (e.bound, e.body)
    if t is ECall:
        return (e.callee, e.arg)
    if t is EIf:
        return (e.cond, e.then, e.otherwise)
    if t is EMatch:
        return (e.scrutinee, *(body for _, body in e.branches))
    if t is EField:
        return (e.obj,)
    if t is EAssign:
        return (e.obj, e.value)
    if t is EConstruct:
        return tuple(x for _, x in e.fields)
    if t is ETagUpdate:
        return (e.obj, *(x for _, x in e.fields))
    if t is ETuple:
        return e.items
    return ()


def _constant(e: Expr) -> bool:
    """Whether `e` is a record literal whose fields are integers, booleans
    or such literals."""
    if type(e) is not EConstruct:
        return False
    for _, x in e.fields:
        if type(x) not in (EInt, EBool) and not _constant(x):
            return False
    return True


class Interface:
    """All that a definition's code reads of its program: the arity of each
    global by name, the builtins the program does not redefine, and the
    tags of mutable data types. Compared and hashed by identity, as
    `interface` makes one per content."""

    __slots__ = ("globals", "builtins", "mutable")

    def __init__(self, arities: dict[str, int], builtins: frozenset, mutable: frozenset):
        self.globals = arities
        self.builtins = builtins
        self.mutable = mutable


@functools.lru_cache(maxsize=64)
def interface(arities: tuple, builtins: frozenset, mutable: frozenset) -> Interface:
    """The process's one `Interface` of these `(name, arity)` pairs and
    sets, which `Interp.__init__` asks for once per run. So a run hashes
    and compares the program's interface once, and each `_compiled` lookup
    hashes its identity: a program of n definitions looks them up in time
    linear in n, not quadratic. A seed-1 round of `iterate` makes 4, of
    `check_wide` 1 and of `corpus_mix` 9 (5, 1 and 10 KB)."""
    return Interface(dict(arities), builtins, mutable)


def first_call(decl: DValDef, text: str):
    """The `fn` of a top-level definition, whose declaration's text is
    `text` (`SourceFile.texts`), until its first call."""

    def first(rt: Interp, arg):
        code, consts = _compiled(Keyed(text, decl), rt.checked, rt.trace_enabled, rt.interface)
        ns = dict(consts, L=rt.max_steps, C=rt.calls.setdefault(decl.name, []))
        exec(code, ns)
        # The namespace keeps no function, or each would hold itself.
        fn = rt.globals[decl.name].fn = ns.pop("_make")()
        return fn(rt, arg)

    return first


# Generated code nests no deeper than this many blocks; a nesting expression
# found deeper moves to a helper function (`_Compiler.split`), because
# Python's parser stops at 100 levels of indentation.
_MAX_DEPTH = 50

# A branch of an `if` or `match` moves to a helper function when it would
# take the function it is in past about this many locals. So a frame holds
# the values of the code that ran in it and little more, and with the
# recursion limit this bounds the memory of a runaway recursion.
_MAX_LOCALS = 100


@functools.lru_cache(maxsize=256)
def _compiled(definition: Keyed, checked: bool, traced: bool, interface: Interface):
    """The code of a definition for a run of mode `checked` and `traced`
    and of `interface` (`Interp.interface`), and the items of its
    namespace but the run's own two, `L` and `C`. The text is written from
    these alone and holds no value of a run, so runs share it: the code is
    immutable, and `Interp.run` clears each `_Check` it catches of the
    run's frames.

    The definition is `Keyed` by its declaration's text, since the code
    reads nothing else of it: not its spans, not its types (the resolver
    changes a definition's types alone), and of the program only the
    interface. So no lookup hashes or compares a definition by its
    structure. If a `_Check` comes to hold the span where a run trapped,
    the key must hold the declaration's offset too. Kept, the runs of a
    round of `iterate`, 156 first calls of 66 keys, take ×0.77 the time in
    one process (`scripts/ab_check.py`, Python 3.11.7). A program of more
    than 256 definitions that calls them all in one order evicts each
    before its next run calls it, so each run writes and compiles all of
    them again: its runs cost linear time, with no gain from the memo."""
    return _Compiler(checked, traced, interface).definition(definition.take())


@functools.lru_cache(maxsize=256)
def _code(text: str, filename: str):
    """The code of generated source `text`. Code objects are immutable and
    the text holds no value of a run, so runs can share them. It serves
    the definitions that `_compiled` misses because they differ from one
    it has only in their constants, as `iterate`'s `main` and `checksum`
    do from program to program. So it pays only in a process's first
    round of a workload, and every command of the CLI is a fresh process:
    a repeated round misses neither memo. Without it, a fresh process's
    first round compiles 66 texts, not 16, on `iterate`, and 51, not 37,
    on `corpus_mix`; its time in `compile()` rises from 10 to 47 ms and
    from 26 to 42 ms, and its run layer's from 162 to 216 ms and from 44
    to 64 ms (medians of 9 processes a side, Python 3.11.7)."""
    return compile(text, filename, "exec")


# Names the generated code uses from `runtime`.
_RUNTIME = MappingProxyType({
    "Cell": Cell,
    "VClosure": VClosure,
    "I0": _INT_MIN,
    "I1": _INT_MAX,
    "_wrap64": _wrap64,
    "_quot": _quot,
    "_rem": _rem,
    "_Check": _Check,
    "_package": _package,
    "_spread": _spread,
    "_build": _build,
})


class _Body:
    """A Python function being written: a definition, a helper split off
    from one (both are roots, written at the top of the generated module),
    or a lambda nested in one of them.

    Step charges not yet added to `rt.steps` are `pending`; they are added
    and checked against the limit (`flush`) before anything that can be
    seen after a trap: a call, a new record, a write to a record, a
    return. A check that fails before then hands them to its `_Check`,
    which finds out whether the limit came first."""

    def __init__(self, root: _Body | None, base: int, records: bool):
        self.root = root  # None for a root itself
        self.base = base  # the depth of the `def` line
        self.depth = 1  # of the next line, relative to `base`
        self.lines: list[str] = []
        self.size = 0  # identifiers made in this function
        self.params: list[str] = []  # a root's captured identifiers
        self.records = records  # a definition: each return records the call's steps
        self.pending: list[int] = []


class _Compiler:
    """Compiles one definition, with the lambdas inside it, for one mode of
    run and one interface of its program: the name, kind (builtin or not)
    and arity of each global, and the tags of mutable data types. Every
    value the generated code needs is a constant of its namespace, the
    step limit `L` or the list `C` of its calls' steps, or reached through
    the run it is given.

    Code is written in statements: each expression leaves its value in an
    atom, an identifier or constant that is never assigned again, so a
    program name can stand for the atom of its value and a lambda can
    capture it as a Python closure does."""

    def __init__(self, checked: bool, traced: bool, interface: Interface):
        self.globals = interface.globals  # name -> arity, read only
        self.builtins = interface.builtins
        self.mutable = interface.mutable
        self.ns: dict[str, object] = dict(_RUNTIME)
        self.checked = checked  # a checked run wraps no closure in `OneShot`
        self.traced = traced
        self.consts: dict[tuple, str] = {}
        self.checks: dict[tuple, str] = {}
        self.sizes: dict[int, int] = {}  # id of an expression -> its `nodes`
        # The type of an atom's value, where it is fixed or tested; a test
        # is undone at the end of its arm, lambda or helper.
        self.known = Scope({"True": bool, "False": bool})
        self.scope = Scope()  # program name -> atom
        self.owner: dict[str, _Body] = {}  # identifier -> the root that binds it
        self.roots: list[tuple[_Body, str]] = []  # with the `def` line of each
        self.count = 0
        self.b: _Body | None = None

    # -- output ------------------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self.count += 1
        self.b.size += 1
        name = f"{prefix}{self.count}"
        self.owner[name] = self.b.root or self.b
        return name

    def const(self, value: object) -> str:
        key = (type(value), value)  # apart from its type, `True` is `1`
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = f"k{len(self.consts)}"
            self.ns[name] = value
            self.known[name] = type(value)
        return name

    def emit(self, line: str) -> None:
        b = self.b
        b.lines.append("    " * b.depth + line)

    def step(self, n: int) -> None:
        if n:
            self.b.pending.append(n)

    def check_for(self, kind: str | None, message: str | None) -> str:
        """The `_Check` of a failure here, with the pending charges. Equal
        checks share one constant: unshared, `check_wide`'s tree literals
        make its run execute 15% more bytecodes (Python 3.12.1)."""
        key = (kind, message, tuple(self.b.pending))
        name = self.checks.get(key)
        if name is None:
            name = self.checks[key] = self.const(_Check(*key))
        return name

    def flush(self) -> None:
        b = self.b
        total = sum(b.pending)
        if total:
            self.emit(f"rt.steps += {total}")
            self.emit(f"if rt.steps > L: raise {self.check_for(None, None)}")
        b.pending = []

    def trap(self, kind: str, message: str, fill: str | None = None) -> str:
        """A statement raising a trap, with the value of the Python
        expression `fill` in the hole of the message."""
        check = self.check_for(kind, message)
        return f"raise {check}" if fill is None else f"raise {check}.fill({fill})"

    def invoke(self, call: str) -> str:
        self.flush()
        t = self.fresh("t")
        self.emit(f"{t} = {call}")
        return t

    def ret(self, atom: str) -> None:
        self.flush()
        if self.b.records:
            self.emit("C.append(rt.steps - s0)")
        self.emit(f"return {atom}")

    def finish(self, body: _Body, head: str, pad: str) -> list[str]:
        return [pad + head, *(pad + line for line in body.lines)]

    # -- functions -----------------------------------------------------------------

    def definition(self, decl: DValDef) -> tuple:
        """The code of a module whose `_make()` returns the definition's
        function, and the items of its namespace."""
        fn = self.function(True, list(decl.params), decl.body, 1)
        # The helpers reach each other as variables of `_make`.
        text = ["def _make():"]
        for body, head in self.roots:
            text += self.finish(body, head, "    ")
        text.append(f"    return {fn}")
        code = _code("\n".join(text) + "\n", f"<minimz {decl.name}>")
        return code, tuple(self.ns.items())

    def function(self, definition: bool, params: list[str | None], body: Expr,
                 base: int) -> str:
        """Write a function of `params` returning `body`: a definition, or
        a lambda nested in the current body, whose `def` is at depth `base`.
        Returns the function's identifier."""
        outer = self.b
        self.b = b = _Body(None if outer is None else outer.root or outer, base, definition)
        fn = self.fresh("f" if outer is None else "l")
        idents = [self.fresh("v") for _ in params]
        mark, known = self.scope.mark(), self.known.mark()
        for param, ident in zip(params, idents):
            if param is not None:
                self.scope.enter(param, ident)
        if len(params) == 1:
            arg = idents[0]
        else:
            arg = "x"
            if params:
                self.emit(f"{', '.join(idents)}, = x")
        if definition:
            self.emit("s0 = rt.steps")
        self.tail(body)
        self.scope.undo_to(mark)
        self.known.undo_to(known)
        self.b = outer
        head = f"def {fn}(rt, {arg}):"
        if outer is None:
            self.roots.append((b, head))
        else:
            outer.lines += self.finish(b, head, "    " * outer.depth)
        return fn

    def split(self, e: Expr) -> str:
        """Compute `e` in a helper function of its own, at the top of the
        module, that takes what it uses of the current body as parameters."""
        outer = self.b
        self.b = b = _Body(None, 1, False)
        fn = self.fresh("h")
        known = self.known.mark()
        self.tail(e)
        self.known.undo_to(known)
        self.b = outer
        for ident in b.params:
            self.use(ident)
        args = "".join(f", {p}" for p in b.params)
        self.roots.append((b, f"def {fn}(rt{args}):"))
        return self.invoke(f"{fn}(rt{args})")

    # -- scope ---------------------------------------------------------------------

    def lookup(self, name: str) -> str | None:
        atom = self.scope.get(name)
        if atom is not None:
            self.use(atom)
        return atom

    def use(self, atom: str) -> None:
        """Note that the current body reads `atom`: a root that did not
        bind it takes it as a parameter."""
        owner = self.owner.get(atom)
        if owner is not None:
            root = self.b.root or self.b
            if owner is not root and atom not in root.params:
                root.params.append(atom)

    def lead(self, exprs) -> int:
        """How many of the operands a node evaluates in a row, right after
        its step, are leading variables bound in the function: the node
        takes their steps at once with its own, since reading them can
        neither trap nor be seen. The step pins hold the counts that this
        gives at a trap (`tests/interp_pins.txt`); its cost is unmeasured."""
        n = 0
        for x in exprs:
            if type(x) is not EVar or x.name not in self.scope:
                break
            n += 1
        return n

    def operands(self, exprs, lead: int) -> list[str]:
        return [self.lookup(x.name) if i < lead else self.expr(x) for i, x in enumerate(exprs)]

    def operand(self, e: Expr) -> str:
        """Charge the step of a node with one operand, and compute it."""
        if self.lead([e]):
            self.step(2)
            return self.lookup(e.name)
        self.step(1)
        return self.expr(e)

    def bind(self, pat: Pattern, atom: str) -> None:
        if type(pat) is PVar:
            self.scope.enter(pat.name, atom)
            return
        assert type(pat) is PTuple
        idents = [self.fresh("v") for _ in pat.items]
        self.emit(f"if type({atom}) is not tuple or len({atom}) != {len(idents)}: "
                  + self.trap("BAD_FIELD", "tuple pattern mismatch"))
        if idents:
            self.emit(f"{', '.join(idents)}, = {atom}")
        for sub, ident in zip(pat.items, idents):
            self.bind(sub, ident)

    # -- positions -----------------------------------------------------------------

    def deep(self, e: Expr) -> bool:
        b = self.b
        return b.base + b.depth > _MAX_DEPTH and type(e) in (EIf, EMatch, ELambda)

    def tail(self, e: Expr) -> None:
        """Write code that returns the value of `e` from the function."""
        mark = self.scope.mark()
        while True:
            if type(e) is ELet:
                self.let(e)
                e = e.body
            elif type(e) is EIf and not self.deep(e):
                cond = self.condition(e)
                pending = list(self.b.pending)
                self.emit(f"if {cond}:")
                self.b.depth += 1
                self.branch(e.then, None)
                self.b.depth -= 1
                self.b.pending = pending
                e = e.otherwise
                if self.big(e):
                    self.ret(self.split(e))
                    self.scope.undo_to(mark)
                    return
            else:
                break
        if type(e) is EMatch and not self.deep(e):
            self.match(e)
        else:
            self.ret(self.expr(e))
        self.scope.undo_to(mark)

    def expr(self, e: Expr) -> str:
        """Write code that computes `e`; returns the atom of its value."""
        if self.deep(e):
            return self.split(e)
        return self.NODES[type(e)](self, e)

    def big(self, e: Expr) -> bool:
        """Whether a branch `e` would take the function past `_MAX_LOCALS`."""
        return self.b.size + self.nodes(e) > _MAX_LOCALS

    def nodes(self, e: Expr) -> int:
        """The number of nodes of `e` outside its lambdas, about as many as
        the locals of its code, memoised: unmemoised, a process's first
        round of `corpus_mix`'s runs executes 13% more bytecodes and of
        `iterate`'s 0.3% (Python 3.12.1); a round that repeats it writes
        no code."""
        n = self.sizes.get(id(e))
        if n is None:
            n = 1
            for x in _children(e):
                n += self.nodes(x)
            self.sizes[id(e)] = n
        return n

    def branch(self, e: Expr, result: str | None) -> None:
        """Write one branch of an `if` or `match`: its value goes to
        `result`, or is returned when that is None."""
        known = self.known.mark()
        big = self.big(e)
        if result is None and not big:
            self.tail(e)
        else:
            atom = self.split(e) if big else self.expr(e)
            if result is None:
                self.ret(atom)
            else:
                self.flush()
                self.emit(f"{result} = {atom}")
        self.known.undo_to(known)

    # -- nodes ---------------------------------------------------------------------

    def let(self, e: ELet) -> None:
        """Bind `e`'s pattern; the caller writes the body."""
        self.bind(e.pattern, self.operand(e.bound))

    def let_value(self, e: ELet) -> str:
        mark = self.scope.mark()
        while type(e) is ELet:
            self.let(e)
            e = e.body
        atom = self.expr(e)
        self.scope.undo_to(mark)
        return atom

    def var(self, e: EVar) -> str:
        self.step(1)
        atom = self.lookup(e.name)
        if atom is not None:
            return atom
        if e.name in self.globals:
            t = self.fresh("t")
            self.emit(f"{t} = {self.global_(e.name)}")
            return t
        self.emit(self.trap("UNBOUND", f"unbound value {e.name!r}"))
        return "()"

    def global_(self, name: str) -> str:
        return f"rt.globals[{self.const(name)}]"

    def constant(self, e: EInt | EBool) -> str:
        self.step(1)
        if type(e) is EBool:
            return "True" if e.value else "False"
        return self.const(e.value)

    def condition(self, e: EIf) -> str:
        """Charge `e`'s step and compute its condition; returns a Python
        expression of its truth. An inlined comparison is its own truth, so
        `iterate`'s runs execute 0.37% fewer bytecodes (Python 3.12.1)."""
        if not self.lead([e.cond]):
            inline = self.inline(e.cond, 1)
            if inline is not None and inline[1] is bool:
                return inline[0]
            if inline is not None:
                atom = self.box(inline)
            else:
                self.step(1)
                atom = self.expr(e.cond)
        else:
            atom = self.operand(e.cond)
        self.check(atom, bool, "condition is not a boolean")
        return atom

    def check(self, atom: str, cls: type, message: str) -> None:
        """Trap unless `atom` holds a value of type `cls`: exactly, since a
        `bool` is an `int` to `isinstance`. No test is written where `known`
        holds the type: `iterate`'s runs execute 6.8% fewer bytecodes."""
        if self.known.get(atom) is not cls:
            self.emit(f"if type({atom}) is not {cls.__name__}: {self.trap('BAD_FIELD', message)}")
            self.known.enter(atom, cls)

    def if_(self, e: EIf) -> str:
        t = self.fresh("t")
        cond = self.condition(e)
        pending = self.b.pending
        self.emit(f"if {cond}:")
        for branch in (e.then, e.otherwise):
            if branch is e.otherwise:
                self.emit("else:")
            self.b.pending = list(pending)
            self.b.depth += 1
            self.branch(branch, t)
            self.b.depth -= 1
        return t

    def match(self, e: EMatch, result: str | None = None) -> str | None:
        record = self.operand(e.scrutinee)
        tag = self.fresh("t")
        if self.known.get(record) is Cell:
            self.emit(f"{tag} = {record}.tag")
        else:
            self.emit(f"try: {tag} = {record}.tag")
            self.emit(self.not_record())
        pending = self.b.pending
        # The resolver keeps one branch per tag, and the parser at least one.
        for i, (pat, body) in enumerate(e.branches):
            self.emit(f"{'elif' if i else 'if'} {tag} == {self.const(pat.tag)}:")
            self.b.pending = list(pending)
            self.b.depth += 1
            mark = self.scope.mark()
            self.fields(record, pat.fields)
            self.branch(body, result)
            self.scope.undo_to(mark)
            self.b.depth -= 1
        self.b.pending = pending
        self.emit("else:")
        self.b.depth += 1
        self.emit(self.trap("BAD_TAG", "no branch for tag {!r}", tag))
        self.b.depth -= 1
        self.b.pending = []
        return result

    def match_value(self, e: EMatch) -> str:
        return self.match(e, self.fresh("t"))

    def fields(self, cell: str, fields) -> None:
        """Bind the fields a match arm names, read in order; a field whose
        pattern is a tuple is taken apart before the next is read."""
        for name, pat in fields:
            v = self.fresh("v")
            self.emit(f"try: {v} = {cell}.fields[{self.const(name)}]")
            self.emit(f"except KeyError: {self.trap('BAD_FIELD', f'missing field {name!r}')}")
            self.bind(pat, v)

    def not_record(self) -> str:
        """The handler of a read of `tag` or `fields` that no value but a
        record has."""
        return f"except AttributeError: {self.trap('BAD_FIELD', 'value is not a record')}"

    def field_(self, e: EField) -> str:
        record = self.operand(e.obj)
        t = self.fresh("t")
        self.emit(f"try: {t} = {record}.fields[{self.const(e.name)}]")
        if self.known.get(record) is not Cell:
            self.emit(self.not_record())
        message = f"no field {e.name!r} on {{}}"
        self.emit(f"except KeyError: {self.trap('BAD_FIELD', message, f'{record}.tag')}")
        return t

    def update(self, e: EAssign | ETagUpdate) -> str:
        """`obj.f <- v` and `tag of obj <- T { f = v; ... }`: the new field
        values first, then the object; only a mutable record changes."""
        if type(e) is EAssign:
            tag, names, exprs = None, [e.name], [e.value]
        else:
            tag, names, exprs = e.tag, [f for f, _ in e.fields], [fe for _, fe in e.fields]
        lead = self.lead(exprs)
        self.step(1 + lead)
        values = self.operands(exprs, lead)
        obj = self.expr(e.obj)
        self.flush()
        self.check(obj, Cell, "value is not a record")
        self.emit(f"if not {obj}.mutable: {self.trap('BAD_FIELD', '{} is immutable', f'{obj}.tag')}")
        if tag is not None:
            self.emit(f"{obj}.tag = {self.const(tag)}")
        for name, value in zip(names, values):
            self.emit(f"{obj}.fields[{self.const(name)}] = {value}")
        return "()"

    def construct(self, e: EConstruct) -> str:
        t = self.fresh("t")
        self.known[t] = Cell
        if _constant(e) and any(type(x) is EConstruct for _, x in e.fields):
            # Nested records of constants are built from a plan, not code.
            self.count += 1
            plan = f"p{self.count}"
            self.ns[plan] = self.plan(e)
            self.emit(f"{t} = _build(rt, {plan})")
            return t
        exprs = [fe for _, fe in e.fields]
        lead = self.lead(exprs)
        self.step(1 + lead)
        values = self.operands(exprs, lead)
        fields = ", ".join(f"{self.const(f)}: {v}" for (f, _), v in zip(e.fields, values))
        tag = self.const(e.tag)
        # The allocation of `runtime._build`, written out.
        self.flush()
        if self.traced:
            self.emit(f'rt.trace.append(f"alloc {{rt.allocations}} {{{tag}}}")')
        self.emit("rt.allocations += 1")
        self.emit(f"{t} = Cell({tag}, {{{fields}}}, {e.tag in self.mutable})")
        return t

    def plan(self, e: EConstruct) -> tuple:
        """The plan of `_build` for a record literal of constants, charging
        the steps that `construct` would charge for it. It keeps large
        literals (`check_wide`'s trees) out of the text that a first call
        compiles. Written out as code instead, they make a warm round's
        run execute x0.76 the bytecodes (Python 3.12.1), but a fresh
        process's first round of `check_wide` spends 15.6 ms, not 0.65 ms,
        in `compile()`, and its run layer takes 19.4 ms, not 2.1 ms
        (medians of 7 processes a side, Python 3.11.7)."""
        self.step(1)
        fields = []
        for name, x in e.fields:
            if type(x) is EConstruct:
                value = self.plan(x)
            else:
                self.step(1)
                value = x.value
            fields.append((name, value))
        limit = self.ns[self.check_for(None, None)]
        self.b.pending = []
        return limit, e.tag, tuple(fields), e.tag in self.mutable

    def tuple_(self, e: ETuple) -> str:
        lead = self.lead(e.items)
        self.step(1 + lead)
        return self.package(self.operands(e.items, lead))

    def package(self, atoms: list[str]) -> str:
        if not atoms:
            return "()"
        t = self.fresh("t")
        self.emit(f"{t} = {self.tuple_of(atoms)}")
        return t

    def tuple_of(self, atoms: list[str]) -> str:
        """The Python expression of a tuple literal's value, given its
        items; in an unchecked run its closures become one-shot."""
        if self.checked:
            return f"({''.join(a + ', ' for a in atoms)})"
        return f"_package(rt, [{', '.join(atoms)}])"

    def lambda_(self, e: ELambda) -> str:
        self.step(1)
        params = [c.name for c in domain_comps(e.domain)]
        fn = self.function(False, params, e.body, self.b.base + self.b.depth)
        t = self.fresh("t")
        self.emit(f"{t} = VClosure({len(params)}, {fn})")
        return t

    # -- calls ---------------------------------------------------------------------

    def call(self, e: ECall) -> str:
        callee = e.callee
        items = list(e.arg.items) if type(e.arg) is ETuple else None
        if type(callee) is EVar and callee.name not in self.scope and callee.name in self.globals:
            # A global callee is read, with its step, at once; its arity is
            # known.
            inline = self.inline(e, 0)
            if inline is not None:
                return self.box(inline)
            self.step(2)
            return self.known_call(callee.name, e.arg, items)
        f = self.operand(callee)
        arity = self.fresh("t")
        self.emit(f"try: {arity} = {f}.arity")
        self.emit(f"except AttributeError: {self.trap('BAD_FIELD', 'value is not a function')}")
        if items is None or len(items) == 1:
            whole = self.expr(e.arg)
            return self.invoke(
                f"{f}.fn(rt, {whole} if {arity} == 1 else _spread({whole}, {arity}))"
            )
        # The tuple takes its own step only when it is passed whole; that
        # charge is added and checked with the pending ones.
        lead, k = self.lead(items), len(items)
        pending = "".join(f"{n}, " for n in self.b.pending)
        charge = f"{lead} + ({arity} != {k})"
        self.emit(f"rt.steps += {sum(self.b.pending) + lead} + ({arity} != {k})")
        self.emit(f"if rt.steps > L: raise _Check(None, None, ({pending}{charge},))")
        self.b.pending = []
        atoms = self.operands(items, lead)
        return self.invoke(
            f"{f}.fn(rt, ({''.join(a + ', ' for a in atoms)}) if {arity} == {k} "
            f"else _spread({self.tuple_of(atoms)}, {arity}))"
        )

    def known_call(self, name: str, arg: Expr, items: list[Expr] | None) -> str:
        """A call of global `name`, whose arity the code knows, so it tests
        none: `iterate`'s runs execute 11.9% fewer bytecodes (Python 3.12.1)."""
        arity = self.globals[name]
        f = self.global_(name)
        if arity == 1:
            return self.invoke(f"{f}.fn(rt, {self.expr(arg)})")
        if items is not None and len(items) == arity:
            lead = self.lead(items)
            self.step(lead)
            atoms = self.operands(items, lead)
            return self.invoke(f"{f}.fn(rt, ({''.join(x + ', ' for x in atoms)}))")
        return self.invoke(f"{f}.fn(rt, _spread({self.expr(arg)}, {arity}))")

    def inline(self, e: Expr, charge: int) -> tuple[str, type] | None:
        """Write out a call of a binary builtin on a pair literal, after
        charging `charge` steps for the node it is the operand of; returns
        the Python expression of its result, an int or a bool, and the
        class that holds it. None, with nothing charged, when `e` is no
        such call."""
        if type(e) is not ECall or type(e.callee) is not EVar or type(e.arg) is not ETuple:
            return None
        name, items = e.callee.name, e.arg.items
        if (len(items) != 2 or name not in _BINARY or name in self.scope
                or name not in self.builtins):
            return None
        template, _, result, zero = _BINARY[name]
        self.step(charge)
        self.step(2)
        lead = self.lead(items)
        self.step(lead)
        atoms = self.operands(items, lead)
        unknown = [a for a in atoms if self.known.get(a) is not int]
        if unknown:
            test = " or ".join(f"type({a}) is not int" for a in unknown)
            self.emit(f"if {test}: {self.trap('BAD_FIELD', f'{name} expects integers')}")
            for a in unknown:
                self.known.enter(a, int)
        if zero is not None:
            # A constant divisor other than 0 is not tested: 0.38% of
            # `iterate`'s run bytecodes (Python 3.12.1), whose `build` divides by 2.
            divisor = self.ns.get(atoms[1])  # the value of a constant
            if type(divisor) is not int or divisor == 0:
                self.emit(f"if {atoms[1]} == 0: {self.trap('DIV_ZERO', zero)}")
        return template.format(*atoms), result

    def box(self, inline: tuple[str, type]) -> str:
        """The value of an inlined builtin's result, wrapped to 64 bits. Its
        range is tested in place: a call of `_wrap64` on every result makes
        `iterate`'s runs execute 1.4% more bytecodes (Python 3.12.1)."""
        expr, cls = inline
        t = self.fresh("t")
        self.emit(f"{t} = {expr}")
        if cls is int:
            self.emit(f"if not I0 <= {t} <= I1: {t} = _wrap64({t})")
        self.known[t] = cls
        return t

    NODES = {
        EVar: var,
        EInt: constant,
        EBool: constant,
        ECall: call,
        ELet: let_value,
        EMatch: match_value,
        EIf: if_,
        EField: field_,
        EAssign: update,
        ETagUpdate: update,
        EConstruct: construct,
        ETuple: tuple_,
        ELambda: lambda_,
    }
