"""Memsafe: a memory-safe companion language, and its translation to Notac.

Memsafe pointers are (block id, bound, offset) triples over an infinite
block heap with runtime bounds checks, zero-initialized allocation, no
free, and provenance equality.  Expression evaluation is a partial
function; undefinedness propagates to a command-level error.

Concrete grammar (``//`` comments; ``;`` separates commands)::

    c := skip | x <- e | x <- [e] | [e1] <- e2 | x <- alloc(e)
       | if e then c else c end | while e do c end | c ; c
    e := n | -n | x | nil | (e) | e op e   with op in  + - * == <=   (= also accepted)

Memsafe is a syntax and a semantics over Notac's own nodes.  Its
expressions are ``Const``/``Var``/``Null``/``Binop`` (nil is ``Null``, ``=``
reads as ``==``).  Its commands are ``Skip``, ``Seq``, ``If``, ``While``,
``x <- e`` = ``Assign(LVar(x), e)``, ``x <- [e]`` = ``Assign(LVar(x),
Deref(e))``, ``[e1] <- e2`` = ``Assign(LDeref(e1), e2)`` and ``x <- alloc(e)``
= ``MallocAssign(LVar(x), e)``.  Its parser is a :class:`notac.ParserCore`
grammar that reads Notac's token groups, atoms and parenthesized arguments
and states only its operators, keywords, ``-n`` literals and commands; a
parse error is a :class:`notac.ParseError` carrying ``line:col``.  A parse
is a :class:`notac.Program` whose variables come from the rule Notac's parse
uses, :meth:`notac.ParserCore.variables`.  Only the evaluation, which
follows Memsafe's semantics, is its own.

The translator keeps every command and adds what Memsafe implies: every
effectful command is guarded by the out-of-memory flag, loops get a fresh
guard variable so their condition is never evaluated after an allocation
failure, and each allocation zero-initializes its block.  The differential
check validates the translation: wherever the translated run ends without
out-of-memory, every integer-valued Memsafe variable must agree with its
Notac cell, and the translated program must satisfy GAI.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import notac
from .alloc_model import Strategy
from .core import Record
from .gai import DEFAULT_WF_TRIALS, GaiReport, default_family, gai_check, variable_base
from .notac import (
    DEFAULT_FUEL,
    MAX_BLOCK_DEPTH,
    MAX_EXPR_DEPTH,
    Assign,
    Binop,
    Cmd,
    Const,
    Deref,
    Expr,
    If,
    LDeref,
    LVar,
    MallocAssign,
    Null,
    ParserCore,
    Program,
    Seq,
    Skip,
    Var,
    While,
    chain,
    printed_depth,
    token_pattern,
)

# ---------------------------------------------------------------------------
# Values and state


class MsPtr(Record, frozen=True):
    block: int
    bound: int
    offset: int


class _Nil:
    def __repr__(self) -> str:
        return "nil"


NIL = _Nil()

MsValue = object  # int | MsPtr | NIL


class MsBlock(Record):
    """An allocated block: its size and the cells written so far.  An
    unwritten cell in bounds reads 0, so ``alloc`` costs nothing per cell."""

    size: int
    cells: dict  # offset -> MsValue


class MsState(Record):
    store: dict  # var -> MsValue
    heap: dict  # block id -> MsBlock
    next_id: int = 0


class MsOutcome(Record):
    kind: str  # "ok" | "error" | "diverged"
    state: Optional[MsState] = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


# ---------------------------------------------------------------------------
# Parser


class MsParseError(notac.ParseError):
    pass


_MS_TOKEN = token_pattern(r"<-|<=|==|=|[-+*;()\[\]]")


# Deepest Memsafe block nesting.  Each ``if`` and ``while`` prints as two
# nested Notac blocks and an innermost ``alloc`` as three (guard, null test,
# zero fill), so every translation reparses under ``MAX_BLOCK_DEPTH``.
MAX_MS_BLOCK_DEPTH = (MAX_BLOCK_DEPTH - 3) // 2


class _MsParser(ParserCore):
    token_re = _MS_TOKEN
    error = MsParseError
    keywords = frozenset({"skip", "if", "then", "else", "end", "while", "do", "alloc", "nil"})
    null_word = "nil"
    # Binary operator -> precedence level, loosest first; ``=`` spells ``==``.
    levels = {"==": 0, "=": 0, "<=": 0, "+": 1, "-": 1, "*": 2}
    aliases = {"=": "=="}
    block_bound = ("MAX_MS_BLOCK_DEPTH", MAX_MS_BLOCK_DEPTH)

    def expr(self, level=0):
        start = self.peek()
        e = super().expr(level)
        # a whole expression must reparse when printed, even inside ``*( )``
        if level == self.depth == 0 and printed_depth(Deref(e)) > MAX_EXPR_DEPTH:
            raise self.error_at(f"expression prints nested deeper than MAX_EXPR_DEPTH = {MAX_EXPR_DEPTH}",
                                start)
        return e

    def operand(self):
        tok = self.peek()
        if tok[1] != "-":
            return self.atom()
        self.next()
        self.nest(tok)  # a level, as in Notac, though only a literal follows
        self.depth -= 1
        num = self.next()
        if num[0] != "num":
            raise self.error_at("'-' prefix is only for integer literals", num)
        return Const(-int(num[1]))

    def block(self):
        """A command nested in an ``if`` or ``while``."""
        self.enter_block(self.peek())
        c = self.command()
        self.blocks -= 1
        return c

    def command(self):
        cmds = [self.simple()]
        while self.at(";"):
            self.next()
            if self.peek()[1] in ("else", "end", ""):
                break  # tolerate a trailing separator
            cmds.append(self.simple())
        return chain(cmds)

    def simple(self):
        tok = self.peek()
        kind, text = tok[0], tok[1]
        if text == "skip":
            self.next()
            return Skip()
        if text == "if":
            self.next()
            cond = self.expr()
            self.expect("then")
            then = self.block()
            self.expect("else")
            orelse = self.block()
            self.expect("end")
            return If(cond, then, orelse)
        if text == "while":
            self.next()
            cond = self.expr()
            self.expect("do")
            body = self.block()
            self.expect("end")
            return While(cond, body)
        if text == "[":
            self.next()
            addr = self.expr()
            self.expect("]")
            self.expect("<-")
            return Assign(LDeref(addr), self.expr())
        if kind == "name" and text not in self.keywords:
            self.next()
            target = LVar(text)
            self.expect("<-")
            if self.at("["):
                self.next()
                addr = self.expr()
                self.expect("]")
                return Assign(target, Deref(addr))
            if self.at("alloc"):
                self.next()
                return MallocAssign(target, self.parenthesized())
            return Assign(target, self.expr())
        raise self.error_at(f"expected a command, found {text or 'end of input'!r}", tok)

    def program(self) -> Program:
        cmd = self.command()
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error_at(f"trailing input at {tok[1]!r}", tok)
        return Program(cmd, self.variables())


def ms_parse(source: str) -> Program:
    return _MsParser(source).program()


# ---------------------------------------------------------------------------
# Evaluation


class _Undefined(Exception):
    pass


def ms_eval_expr(state: MsState, e: Expr) -> MsValue:
    """Partial expression evaluation; raises on undefinedness.  A ``Deref`` is a load."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Null):
        return NIL
    if isinstance(e, Var):
        if e.name not in state.store:
            raise _Undefined(f"unbound variable {e.name}")
        return state.store[e.name]
    if isinstance(e, Binop):
        l = ms_eval_expr(state, e.left)
        r = ms_eval_expr(state, e.right)
        return _ms_binop(e.op, l, r)
    if isinstance(e, Deref):
        return _ms_read(state, ms_eval_expr(state, e.addr), "load")
    raise TypeError(f"not an expression: {e!r}")


def _is_ptr_or_nil(v: MsValue) -> bool:
    return v is NIL or isinstance(v, MsPtr)


def _in_bounds(v: MsValue) -> bool:
    return not isinstance(v, MsPtr) or 0 <= v.offset < v.bound


def _ms_binop(op: str, l: MsValue, r: MsValue) -> MsValue:
    ints = isinstance(l, int) and isinstance(r, int)
    if op == "+":
        if ints:
            return l + r
        if isinstance(l, MsPtr) and isinstance(r, int):
            return MsPtr(l.block, l.bound, l.offset + r)
        if isinstance(l, int) and isinstance(r, MsPtr):
            return MsPtr(r.block, r.bound, r.offset + l)
    elif op == "-":
        if ints:
            return l - r
        if isinstance(l, MsPtr) and isinstance(r, int):
            return MsPtr(l.block, l.bound, l.offset - r)
    elif op == "*":
        if ints:
            return l * r
    elif op == "<=":
        if ints:
            return int(l <= r)
    elif op == "==":
        if ints:
            return int(l == r)
        if _is_ptr_or_nil(l) and _is_ptr_or_nil(r) and _in_bounds(l) and _in_bounds(r):
            # Provenance equality: triples compare componentwise.
            return int(l == r)
    raise _Undefined(f"{op} undefined on {l!r} and {r!r}")


class _Guard(Record, frozen=True):
    """A pending guard check of a running loop, on ``ms_eval_cmd``'s stack."""

    loop: While


def ms_eval_cmd(state: MsState, cmd: Cmd, fuel: int = DEFAULT_FUEL) -> MsOutcome:
    """Run a command; fuel bounds the number of executed commands.

    Every command node, ``Seq`` included, costs one unit, and so does every
    check of a loop guard.  Commands wait on an explicit stack, head last, so
    a ``;``-chain as long as the program needs no recursion.
    """
    st = state
    stack: list = [cmd]
    try:
        while stack:
            c = stack.pop()
            fuel -= 1
            if fuel < 0:
                return MsOutcome("diverged", reason="fuel exhausted")
            if isinstance(c, Seq):
                stack += [c.second, c.first]
            elif isinstance(c, If):
                stack.append(c.then if _eval_guard(st, c.cond) != 0 else c.orelse)
            elif isinstance(c, While):
                stack.append(_Guard(c))
            elif isinstance(c, _Guard):
                if _eval_guard(st, c.loop.cond) != 0:
                    stack += [c, c.loop.body]
            elif isinstance(c, Assign) and isinstance(c.lval, LVar):
                st.store[c.lval.name] = ms_eval_expr(st, c.expr)
            elif isinstance(c, Assign):
                p = ms_eval_expr(st, c.lval.addr)
                v = ms_eval_expr(st, c.expr)
                _ms_read(st, p, "store")
                st.heap[p.block].cells[p.offset] = v
            elif isinstance(c, MallocAssign) and isinstance(c.lval, LVar):
                n = ms_eval_expr(st, c.size)
                if not isinstance(n, int) or n < 0:
                    raise _Undefined(f"alloc size {n!r}")
                block = st.next_id
                st.next_id += 1  # ids are never reused
                st.heap[block] = MsBlock(n, {})
                st.store[c.lval.name] = MsPtr(block, n, 0)
            elif not isinstance(c, Skip):
                raise TypeError(f"not a command: {c!r}")
    except _Undefined as exc:
        return MsOutcome("error", reason=str(exc))
    return MsOutcome("ok", st)


def _eval_guard(state: MsState, e: Expr) -> int:
    v = ms_eval_expr(state, e)
    if not isinstance(v, int):
        raise _Undefined(f"guard is not an integer: {v!r}")
    return v


def _ms_read(state: MsState, p: MsValue, access: str) -> MsValue:
    """The cell ``p`` points at; undefined unless ``p`` is in bounds of a live block."""
    block = state.heap.get(p.block) if isinstance(p, MsPtr) else None
    if block is None or not (0 <= p.offset < p.bound) or p.bound != block.size:
        raise _Undefined(f"{access} through {p!r}")
    return block.cells.get(p.offset, 0)


def ms_run(program: Program, store: Optional[dict] = None, fuel: int = DEFAULT_FUEL) -> MsOutcome:
    state = MsState(dict(store) if store else {}, {}, 0)
    return ms_eval_cmd(state, program.body, fuel)


# ---------------------------------------------------------------------------
# Translation to Notac

OOM_VAR = "oom"
SIZE_VAR = "__i"
GUARD_PREFIX = "__g"


class ReservedVariableError(Exception):
    pass


class _Translator:
    def __init__(self):
        self.guards = 0

    def fresh_guard(self) -> str:
        name = f"{GUARD_PREFIX}{self.guards}"
        self.guards += 1
        return name

    def guard(self, c: Cmd) -> Cmd:
        # Execute only while the out-of-memory flag is unset.
        return If(Var(OOM_VAR), Skip(), c)

    def cmd(self, c: Cmd) -> Cmd:
        if isinstance(c, Skip):
            return c
        if isinstance(c, Seq):
            # Walk the chain in a loop, translating in source order so loop
            # guards are numbered as they appear, then rebuild it.
            parts = []
            while isinstance(c, Seq):
                parts.append(self.cmd(c.first))
                c = c.second
            return chain(parts + [self.cmd(c)])
        if isinstance(c, If):
            return self.guard(If(c.cond, self.cmd(c.then), self.cmd(c.orelse)))
        if isinstance(c, While):
            g = self.fresh_guard()
            # The loop guard is never evaluated once oom is set.
            body = Seq(
                If(c.cond, self.cmd(c.body), Assign(LVar(g), Const(0))),
                Assign(LVar(g), Binop("*", Binop("==", Var(OOM_VAR), Const(0)), Var(g))),
            )
            return Seq(
                Assign(LVar(g), Binop("==", Var(OOM_VAR), Const(0))),
                While(Var(g), body),
            )
        if isinstance(c, Assign):
            return self.guard(c)
        if isinstance(c, MallocAssign) and isinstance(c.lval, LVar):
            x = Var(c.lval.name)
            zero_fill = Seq(
                Assign(LVar(SIZE_VAR), Binop("-", Var(SIZE_VAR), Const(1))),
                While(
                    Binop(">=", Var(SIZE_VAR), Const(0)),
                    Seq(
                        Assign(LDeref(Binop("+", x, Var(SIZE_VAR))), Const(0)),
                        Assign(LVar(SIZE_VAR), Binop("-", Var(SIZE_VAR), Const(1))),
                    ),
                ),
            )
            return self.guard(
                chain([
                    Assign(LVar(SIZE_VAR), c.size),
                    MallocAssign(c.lval, Var(SIZE_VAR)),
                    If(Binop("==", x, Null()), Assign(LVar(OOM_VAR), Const(1)), zero_fill),
                ])
            )
        raise TypeError(f"not a command: {c!r}")


def translate(source: Program) -> Program:
    """Translate a Memsafe program into a Notac program.

    The program's variables are the source's, then the translator's own:
    ``OOM_VAR``, ``SIZE_VAR`` and the loop guards, named from
    ``GUARD_PREFIX``.  Raises :class:`ReservedVariableError` when the source
    program uses them.
    """
    tr = _Translator()
    body = tr.cmd(source.body)
    guards = [f"{GUARD_PREFIX}{k}" for k in range(tr.guards)]
    clashes = [v for v in source.variables if v == OOM_VAR or v == SIZE_VAR or v.startswith(GUARD_PREFIX)]
    if clashes:
        raise ReservedVariableError(f"program uses translator variables: {clashes}")
    # Source variables first in the environment layout, in source order; the
    # translator only ever introduces oom, the size temp, and loop guards.
    return Program(body, (*source.variables, OOM_VAR, SIZE_VAR, *guards))


def translation_header(program: Program) -> str:
    lines = [
        "// translated from a Memsafe source",
        f"// out-of-memory flag: {OOM_VAR}; size temp: {SIZE_VAR}",
    ]
    guards = [v for v in program.variables if v.startswith(GUARD_PREFIX)]
    if guards:
        lines.append(f"// loop guards: {', '.join(guards)}")
    lines.append("// note: allocation zero-fill runs from size-1 down to 0")
    return "\n".join(lines) + "\n"


def translate_to_source(source: Program) -> str:
    program = translate(source)
    return translation_header(program) + notac.to_source(program.body) + "\n"


# ---------------------------------------------------------------------------
# Differential validation


class DiffMismatch(Record):
    allocator: str
    variable: str
    memsafe_value: int
    notac_value: Optional[int]


class DiffReport(Record):
    ok: bool
    mismatches: list
    runs: dict  # allocator name -> (outcome kind, oom flag)
    gai_report: GaiReport
    inconclusive: tuple = ()  # members whose translated run ran out of fuel

    def describe(self) -> str:
        failed = self.mismatches or self.gai_report.verdict == "violation"
        status = "FAILED" if failed else "ok" if self.ok else "inconclusive"  # a fuel bound was hit
        lines = [f"differential: {status}"]
        for name, (kind, oom) in sorted(self.runs.items()):
            lines.append(f"  {name}: {kind}, oom={oom}")
        for mm in self.mismatches:
            lines.append(
                f"  mismatch under {mm.allocator}: {mm.variable} = {mm.memsafe_value}"
                f" (memsafe) vs {mm.notac_value} (notac)"
            )
        for probe in self.inconclusive:
            lines.append(f"  inconclusive: {probe}")
        lines.append(f"  gai: {self.gai_report.verdict}")
        return "\n".join(lines)


def differential_check(
    source: Program,
    fuel: int = DEFAULT_FUEL,
    family: Optional[Sequence[Strategy]] = None,
    initial_store: Optional[dict] = None,
    wf_trials: int = DEFAULT_WF_TRIALS,
) -> DiffReport:
    """Validate the translation of one error-free Memsafe program.

    Under every family member the translated run must not get stuck;
    whenever it ends with the oom flag clear, every integer-valued Memsafe
    variable must equal its Notac cell.  The translated program must also
    satisfy GAI (bounded check).  A translated run that runs out of fuel
    proves nothing: the report names it, is not ``ok``, and reads
    inconclusive unless something else failed.  The variables go where ``gai``
    puts them, at ``variable_base``; too many for its window raise ``ValueError``.
    """
    store = dict(initial_store) if initial_store else {}
    for name, value in store.items():
        if not isinstance(value, int):
            raise ValueError(f"initial store must hold integers only ({name}={value!r})")
    ms_out = ms_run(source, store, fuel)
    if not ms_out.ok:
        raise ValueError(f"Memsafe run did not finish cleanly: {ms_out.kind} ({ms_out.reason})")

    program = translate(source)
    family = default_family() if family is None else family
    env, heap, _reserved = notac.make_env(program, variable_base(family, len(program.variables)), store)

    # The check runs every member once; its report keeps their outcomes.
    gai_report = gai_check(program, env, heap, family, fuel, wf_trials=wf_trials)
    mismatches: list[DiffMismatch] = []
    inconclusive: list[str] = []
    runs: dict = {}
    for member, out in gai_report.outcomes.items():
        oom = out.heap.read(env[OOM_VAR])
        runs[member] = (out.kind, oom)
        if out.kind == "out-of-fuel":
            inconclusive.append(f"{member} ran out of fuel ({fuel} steps)")
            continue
        if not out.terminated:
            mismatches.append(DiffMismatch(member, "<run did not terminate>", 0, None))
            continue
        if oom != 0:
            continue  # agreement clause is vacuous after out-of-memory
        for name, value in ms_out.state.store.items():
            if isinstance(value, int):
                got = out.heap.read(env[name])
                if got != value:
                    mismatches.append(DiffMismatch(member, name, value, got))

    ok = not mismatches and not inconclusive and gai_report.verdict == "pass"
    return DiffReport(ok, mismatches, runs, gai_report, tuple(inconclusive))
