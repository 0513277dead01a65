"""Notac: a memory-unsafe imperative language over the flat heap.

Pointers are plain integers; the allocator strategy supplies NULL.  A run
owns one heap, which every step changes in place; a step takes the command
stack, a chain of ``(head, rest)`` pairs that push and pop in O(1), and
the allocator state, and returns the next ones with its event.
Runs produce event traces recording the memory-relevant actions:
``observe``, ``malloc``/``mfail``, ``free``, ``cast``.  Each event class
declares its kind (``obs``, ``malloc``, ``mfail``, ``free``, ``cast``) once,
and printing, JSON and reading JSON back are derived from that declaration
and the class's fields (see :class:`_Event`).

Concrete grammar (statements end with ``;``, ``//`` starts a line comment)::

    stmt  := lval = e ;              assignment
           | lval = cast(e) ;        cast-assignment (emits a cast event)
           | lval = malloc(e) ;      allocation (emits malloc/mfail)
           | free(e) ;
           | observe(e) ;
           | skip ;
           | error() ;               sugar for the stuck write *( -1 ) = 0 ;
           | if (e) { c } [else { c }]
           | while (e) { c }
    lval  := x | *(e)
    e     := n | x | &x | NULL | *e | -e | (e)
           | e bop e   with bop in  || && == != < <= > >= ^ + - *

Binary operators are strict (both sides evaluate); comparisons and the
logical operators yield 1/0, any nonzero value is true.  ``^`` is bitwise
xor and is stuck on negative operands.  Dereferencing an inaccessible or
negative address is stuck, as is writing through one; stuckness is the
observable signature of memory errors here.

Integer literals are ASCII digits; any other character outside the grammar,
a non-ASCII digit included, is an ``unexpected character`` error.  Parsing
costs one regex pass over the source, which keeps tokens as plain tuples,
and one operator loop per expression; a ``(line, col)`` is computed only for
a statement's ``pos`` and for an error (see :class:`ParserCore`).

Each expression compiles once, on first use, into a closure cached on its node,
and each loop caches its unrolling, so an interpreter step builds no syntax.
The closure of ``+``, ``-`` and ``*`` calls the C functions of :mod:`operator`,
and a literal right operand is bound into it when it compiles.
"""

from __future__ import annotations

import json
import operator
import re
from bisect import bisect_right
from typing import Callable, Iterable, Optional

from .alloc_model import Strategy
from .core import Addr, Heap, InaccessibleWrite, Record, Val

# ---------------------------------------------------------------------------
# Events and traces


class _Event:
    """Trace events: ``kind`` names the event in traces and in JSON, and
    ``non_negative`` names its fields that are never negative, the sizes and
    the allocated addresses; a free carries whatever value its expression
    had, and observed or cast values are any integer.  ``str`` prints
    ``kind(f1,f2)`` from the record's fields."""

    non_negative = ()

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(getattr(self, f)) for f in self._fields)})"


class ObsEv(_Event, Record, frozen=True):
    kind = "obs"
    val: Val

    def __init__(self, val: Val):
        object.__setattr__(self, "val", val)


class MallocEv(_Event, Record, frozen=True):
    kind = "malloc"
    non_negative = ("size", "addr")
    size: int
    addr: Addr

    def __init__(self, size: int, addr: Addr):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "addr", addr)


class MallocFailEv(_Event, Record, frozen=True):
    kind = "mfail"
    non_negative = ("size",)
    size: int

    def __init__(self, size: int):
        object.__setattr__(self, "size", size)


class FreeEv(_Event, Record, frozen=True):
    kind = "free"
    addr: Val  # carries the evaluated value, valid address or not

    def __init__(self, addr: Val):
        object.__setattr__(self, "addr", addr)


class CastEv(_Event, Record, frozen=True):
    kind = "cast"
    val: Val

    def __init__(self, val: Val):
        object.__setattr__(self, "val", val)


Event = ObsEv | MallocEv | MallocFailEv | FreeEv | CastEv
Trace = tuple  # tuple[Event, ...]

# JSON kind -> event class.
_EVENT_KINDS = {cls.kind: cls for cls in (ObsEv, MallocEv, MallocFailEv, FreeEv, CastEv)}


def event_to_json(ev: Event) -> dict:
    cls = type(ev)
    if cls not in _EVENT_KINDS.values():
        raise TypeError(f"not an event: {ev!r}")
    return {"kind": cls.kind, **{f: getattr(ev, f) for f in cls._fields}}


def event_from_json(obj: dict) -> Event:
    """The event a JSON object describes; ``ValueError`` when it is malformed."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, found {obj!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _EVENT_KINDS:  # a list or an object is unhashable
        raise ValueError(f"unknown event kind {kind!r}")
    cls = _EVENT_KINDS[kind]
    values = []
    for f in cls._fields:
        v = obj.get(f)
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{kind} event needs an integer {f!r}, found {v!r}")
        if v < 0 and f in cls.non_negative:
            raise ValueError(f"{kind} event has negative {f!r} {v}")
        values.append(v)
    return cls(*values)


def format_trace(trace: Iterable[Event]) -> str:
    return " . ".join(str(e) for e in trace) or "(empty)"


def dump_trace(trace: Iterable[Event]) -> str:
    """Line-delimited JSON, one event per line."""
    return "".join(json.dumps(event_to_json(e)) + "\n" for e in trace)


def load_trace(text: str) -> Trace:
    """Parse :func:`dump_trace` output; blank lines are skipped.

    Raises ``ValueError`` naming the 1-based line of the first bad event.
    """
    events = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(event_from_json(json.loads(line)))
        except (ValueError, RecursionError) as exc:  # json.loads recurses on nested arrays
            raise ValueError(f"line {n}: {exc}") from None
    return tuple(events)


# ---------------------------------------------------------------------------
# Abstract syntax

Pos = tuple  # (line, col)


class _lazy:
    """An attribute built from its object on first read and then stored on
    it with ``object.__setattr__``, also on a frozen record, so every later
    read finds a plain instance attribute.  Not ``functools.cached_property``,
    which takes a lock on first use and writes into the instance
    ``__dict__``: from then on CPython 3.11 reads every field of the object
    through the dict instead of its inline values, about three times slower."""

    def __init__(self, build: Callable):
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner: type = None):
        if obj is None:
            return self
        value = self.build(obj)
        object.__setattr__(obj, self.name, value)
        return value


class _Compiled:
    """Expression and lvalue nodes: ``code`` is the node compiled, on first use, into
    a closure ``(env, strategy, state, heap) -> value`` stored on the node."""

    code = _lazy(lambda self: _COMPILERS[type(self)](self))


class Const(_Compiled, Record, frozen=True):
    value: int


class Var(_Compiled, Record, frozen=True):
    name: str


class Binop(_Compiled, Record, frozen=True):
    op: str
    left: "Expr"
    right: "Expr"


class Deref(_Compiled, Record, frozen=True):
    addr: "Expr"


class AddrOf(_Compiled, Record, frozen=True):
    name: str


class Null(_Compiled, Record, frozen=True):
    pass


Expr = Const | Var | Binop | Deref | AddrOf | Null


class LVar(_Compiled, Record, frozen=True):
    name: str


class LDeref(_Compiled, Record, frozen=True):
    addr: Expr


Lval = LVar | LDeref


class Assign(Record, frozen=True, uncompared=("pos",)):
    lval: Lval
    expr: Expr
    pos: Pos = (0, 0)


class CastAssign(Record, frozen=True, uncompared=("pos",)):
    lval: Lval
    expr: Expr
    pos: Pos = (0, 0)


class MallocAssign(Record, frozen=True, uncompared=("pos",)):
    lval: Lval
    size: Expr
    pos: Pos = (0, 0)


class FreeCmd(Record, frozen=True, uncompared=("pos",)):
    expr: Expr
    pos: Pos = (0, 0)


class Skip(Record, frozen=True, uncompared=("pos",)):
    pos: Pos = (0, 0)


class Seq(Record, frozen=True):
    first: "Cmd"
    second: "Cmd"


class If(Record, frozen=True, uncompared=("pos",)):
    cond: Expr
    then: "Cmd"
    orelse: "Cmd"
    pos: Pos = (0, 0)


class While(Record, frozen=True, uncompared=("pos",)):
    cond: Expr
    body: "Cmd"
    pos: Pos = (0, 0)

    # ``if (cond) { body; this loop }``: a loop step pushes it, built once per node.
    unrolled = _lazy(lambda self: If(self.cond, Seq(self.body, self), Skip(self.pos), self.pos))


class Observe(Record, frozen=True, uncompared=("pos",)):
    expr: Expr
    pos: Pos = (0, 0)


Cmd = Assign | CastAssign | MallocAssign | FreeCmd | Skip | Seq | If | While | Observe


class Program(Record, frozen=True):
    """A program of either language: its body and its variables in
    first-occurrence order, which a parse reads off with :meth:`ParserCore.variables`."""

    body: Cmd
    variables: tuple  # tuple[str, ...]


# ---------------------------------------------------------------------------
# Parser


class ParseError(Exception):
    def __init__(self, msg: str, pos: Pos):
        super().__init__(f"{pos[0]}:{pos[1]}: {msg}")
        self.pos = pos


def token_pattern(ops: str) -> re.Pattern:
    """A token regex: the groups Notac and Memsafe share, layout (``ws``: blanks
    and ``//`` comments), ASCII-digit literals (``num``) and names (``name``),
    then ``op``, one language's operator alternatives ``ops``."""
    return re.compile(rf"(?P<ws>\s+|//[^\n]*)|(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>{ops})")


_TOKEN_RE = token_pattern(r"\|\||&&|==|!=|<=|>=|[-+*^<>=&(){};,!]")

# Binary operator -> precedence level, loosest first (xor sits between the
# logical connectives and the comparisons, as in C).
_BINOP_LEVELS = {
    "||": 0, "&&": 1, "^": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4, "+": 5, "-": 5, "*": 6,
}

# Deepest expression nesting the parser accepts.  Each parenthesis, prefix
# operator and chained binary operator adds a level, so the recursive parser,
# the recursive expression compiler and the nested closures it builds all stay
# well inside Python's recursion limit.
MAX_EXPR_DEPTH = 50
# Deepest block nesting Notac accepts; Memsafe's bound derives from it.
# Parsing, printing and translating recurse once or twice per block, so the
# deepest blocks holding the deepest expression stay inside the recursion limit.
MAX_BLOCK_DEPTH = 100


class ParserCore:
    """The front end Notac and Memsafe share: tokenizer, token cursor,
    nesting bounds, the binary-operator loop, the expression atoms,
    parenthesized statement arguments and a program's variables.

    A grammar subclasses it and supplies an ``operand`` rule, which ends in
    :meth:`atom`, and the grammar proper, whose ``program`` returns a
    :class:`Program` with :meth:`variables`; it defines no ``atom``,
    ``parenthesized`` or ``variables`` of its own.  The class attributes
    hold Notac's token regex (built by :func:`token_pattern`, so both
    languages share its ``ws``, ``num`` and ``name`` groups), error class,
    keywords (names that are not variables), null word, operator levels
    (``{operator: level}``, loosest at 0; ``aliases`` maps other spellings
    onto a :class:`Binop` operator) and block bound as ``(name, value)``;
    another language overrides them.  Every error carries the ``(line,
    col)`` of the offending token.

    Its cost is linear in the source.  The tokenizer is one
    ``token_re.finditer`` pass that keeps each token as a plain ``(kind,
    text, offset)`` tuple, ending in an ``eof`` token; a ``(line, col)`` is
    computed from the offset, by bisection over the line starts, only where
    a statement stores it or an error reports it.  :meth:`expr` parses an
    expression in one operator loop (precedence climbing, as in Pratt's
    *Top Down Operator Precedence*), one call per binary operator rather
    than one per operator level per operand.
    """

    token_re = _TOKEN_RE
    error = ParseError
    keywords = frozenset({"if", "else", "while", "skip", "observe", "free", "malloc", "cast", "NULL", "error"})
    null_word = "NULL"
    levels = _BINOP_LEVELS
    aliases: dict = {}
    block_bound = ("MAX_BLOCK_DEPTH", MAX_BLOCK_DEPTH)

    # Offsets at which lines start, built on first use.
    line_starts = _lazy(lambda self: [0, *(m.end() for m in re.finditer("\n", self.src))])

    def __init__(self, src: str):
        self.src = src
        self.toks = toks = []
        end = 0
        for m in self.token_re.finditer(src):
            start = m.start()
            if start != end:
                break  # no token starts at ``end``
            end = m.end()
            kind = m.lastgroup
            if kind != "ws":
                toks.append((kind, m.group(), start))
        if end != len(src):
            raise self.error(f"unexpected character {src[end]!r}", self.position(end))
        toks.append(("eof", "", end))
        self.i = 0
        self.depth = 0  # expression nesting at the current token
        self.blocks = 0  # block nesting at the current token

    def position(self, offset: int) -> Pos:
        """The ``(line, col)`` of a source offset, both counted from 1."""
        starts = self.line_starts
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    def error_at(self, msg: str, tok: tuple) -> ParseError:
        return self.error(msg, self.position(tok[2]))

    def peek(self) -> tuple:
        return self.toks[self.i]

    def next(self) -> tuple:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> tuple:
        tok = self.toks[self.i]
        self.i += 1
        if tok[1] != text:
            raise self.error_at(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def at(self, text: str) -> bool:
        return self.toks[self.i][1] == text

    def nest(self, tok: tuple) -> None:
        """Enter one more level of expression nesting at ``tok``."""
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise self.error_at(f"expression nested deeper than MAX_EXPR_DEPTH = {MAX_EXPR_DEPTH}", tok)

    def enter_block(self, tok: tuple) -> None:
        """Enter one more level of block nesting at ``tok``; the caller
        decrements ``blocks`` when the block ends."""
        self.blocks += 1
        name, bound = self.block_bound
        if self.blocks > bound:
            raise self.error_at(f"blocks nested deeper than {name} = {bound}", tok)

    def expr(self, level: int = 0) -> Expr:
        """An expression of operators at ``level`` or tighter.

        The right operand of an operator at level L is an ``expr(L + 1)``.
        Operators chained at one level each add a nesting level, and the
        chain's depth starts again where the operator level changes: the
        levels of one call form a left spine, all entered at its depth.
        """
        left = self.operand()
        depth, chained, toks, levels = self.depth, None, self.toks, self.levels
        while True:
            tok = toks[self.i]
            op_level = levels.get(tok[1])
            if op_level is None or op_level < level:
                break
            if op_level != chained:
                self.depth, chained = depth, op_level
            self.i += 1
            self.nest(tok)  # the chain so far becomes the left operand
            right = self.expr(op_level + 1)
            left = Binop(self.aliases.get(tok[1], tok[1]), left, right)
        self.depth = depth
        return left

    def atom(self) -> Expr:
        """A literal, a variable, the null word, or ``( e )`` one nesting level deeper."""
        tok = self.next()
        kind, text = tok[0], tok[1]
        if kind == "name" and text not in self.keywords:
            return Var(text)
        if kind == "num":
            return Const(int(text))
        if text == "(":
            self.nest(tok)
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        if text == self.null_word:
            return Null()
        raise self.error_at(f"expected an expression, found {text or 'end of input'!r}", tok)

    def parenthesized(self) -> Expr:
        """``( e )`` as a statement's argument; its parentheses add no nesting level."""
        self.expect("(")
        e = self.expr()
        self.expect(")")
        return e

    def variables(self) -> tuple:
        """The program's variables in first-occurrence order: its name tokens
        that are not ``keywords``.  Each such token parses to exactly one
        ``Var``, ``AddrOf`` or ``LVar`` node, and node fields follow the
        source, so a left-to-right walk of the tree finds the same order."""
        keywords = self.keywords
        return tuple(dict.fromkeys(text for kind, text, _ in self.toks if kind == "name" and text not in keywords))


class _Parser(ParserCore):
    # -- expressions

    def operand(self) -> Expr:
        tok = self.peek()
        text = tok[1]
        if text in ("-", "*"):
            self.next()
            self.nest(tok)
            inner = self.operand()
            self.depth -= 1
            if text == "*":
                return Deref(inner)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Binop("-", Const(0), inner)
        if text == "&":
            self.next()
            name = self.next()
            if name[0] != "name" or name[1] in self.keywords:
                raise self.error_at("'&' takes a variable", name)
            return AddrOf(name[1])
        return self.atom()

    # -- statements

    def lval_from(self, e: Expr, tok: tuple) -> Lval:
        if isinstance(e, Var):
            return LVar(e.name)
        if isinstance(e, Deref):
            return LDeref(e.addr)
        raise self.error_at("left side of '=' must be a variable or *(e)", tok)

    def statement(self) -> Cmd:
        tok = self.peek()
        text = tok[1]
        pos = self.position(tok[2])
        if text == "skip":
            self.next()
            self.expect(";")
            return Skip(pos)
        if text == "error":
            self.next()
            self.expect("(")
            self.expect(")")
            self.expect(";")
            # Guaranteed-stuck write; Notac has no exit command.
            return Assign(LDeref(Const(-1)), Const(0), pos)
        if text in ("observe", "free"):
            self.next()
            e = self.parenthesized()
            self.expect(";")
            return (Observe if text == "observe" else FreeCmd)(e, pos)
        if text == "if":
            self.next()
            cond = self.parenthesized()
            then = self.block()
            orelse: Cmd = Skip(pos)
            if self.at("else"):
                self.next()
                orelse = self.block()
            return If(cond, then, orelse, pos)
        if text == "while":
            self.next()
            cond = self.parenthesized()
            body = self.block()
            return While(cond, body, pos)
        # assignment forms: lval = e | cast(e) | malloc(e)
        target = self.lval_from(self.operand(), tok)
        self.expect("=")
        if self.peek()[1] in ("malloc", "cast"):
            kind = self.next()[1]
            e = self.parenthesized()
            self.expect(";")
            return MallocAssign(target, e, pos) if kind == "malloc" else CastAssign(target, e, pos)
        e = self.expr()
        self.expect(";")
        return Assign(target, e, pos)

    def block(self) -> Cmd:
        self.enter_block(self.expect("{"))
        cmds = []
        while not self.at("}"):
            cmds.append(self.statement())
        self.expect("}")
        self.blocks -= 1
        if self.at(";"):  # tolerate `};`
            self.next()
        return chain(cmds)

    def program(self) -> Program:
        cmds = []
        while self.peek()[0] != "eof":
            cmds.append(self.statement())
        return Program(chain(cmds), self.variables())


def chain(cmds: list) -> Cmd:
    """The commands as one right-nested ``Seq`` chain; ``Skip`` when none."""
    if not cmds:
        return Skip()
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


def parse(source: str) -> Program:
    return _Parser(source).program()


# ---------------------------------------------------------------------------
# Pretty printer (used by the Memsafe translator's .ntc output)


def printed_depth(e: Expr) -> int:
    """Nesting levels ``parse`` counts in ``_expr_src(e)``: every binary
    operation is parenthesized and its right operand sits one operator
    deeper still, ``*(a)`` adds two levels, and ``-n`` prints as ``(-n)``."""
    if isinstance(e, Binop):
        return max(1 + printed_depth(e.left), 2 + printed_depth(e.right))
    if isinstance(e, Deref):
        return 2 + printed_depth(e.addr)
    return 2 if isinstance(e, Const) and e.value < 0 else 0


def _expr_src(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value) if e.value >= 0 else f"(-{-e.value})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Null):
        return "NULL"
    if isinstance(e, AddrOf):
        return f"&{e.name}"
    if isinstance(e, Deref):
        return f"*({_expr_src(e.addr)})"
    if isinstance(e, Binop):
        return f"({_expr_src(e.left)} {e.op} {_expr_src(e.right)})"
    raise TypeError(f"not an expression: {e!r}")


def _lval_src(lv: Lval) -> str:
    return lv.name if isinstance(lv, LVar) else f"*({_expr_src(lv.addr)})"


def to_source(cmd: Cmd, indent: int = 0) -> str:
    pad = "    " * indent
    if isinstance(cmd, Skip):
        return f"{pad}skip;"
    if isinstance(cmd, Assign):
        return f"{pad}{_lval_src(cmd.lval)} = {_expr_src(cmd.expr)};"
    if isinstance(cmd, CastAssign):
        return f"{pad}{_lval_src(cmd.lval)} = cast({_expr_src(cmd.expr)});"
    if isinstance(cmd, MallocAssign):
        return f"{pad}{_lval_src(cmd.lval)} = malloc({_expr_src(cmd.size)});"
    if isinstance(cmd, FreeCmd):
        return f"{pad}free({_expr_src(cmd.expr)});"
    if isinstance(cmd, Observe):
        return f"{pad}observe({_expr_src(cmd.expr)});"
    if isinstance(cmd, Seq):
        # Walk the chain in a loop: it is as long as the program.
        lines = []
        while isinstance(cmd, Seq):
            lines.append(to_source(cmd.first, indent))
            cmd = cmd.second
        lines.append(to_source(cmd, indent))
        return "\n".join(lines)
    if isinstance(cmd, If):
        return (
            f"{pad}if ({_expr_src(cmd.cond)}) {{\n{to_source(cmd.then, indent + 1)}\n{pad}}} else {{\n"
            f"{to_source(cmd.orelse, indent + 1)}\n{pad}}}"
        )
    if isinstance(cmd, While):
        return f"{pad}while ({_expr_src(cmd.cond)}) {{\n{to_source(cmd.body, indent + 1)}\n{pad}}}"
    raise TypeError(f"not a command: {cmd!r}")


# ---------------------------------------------------------------------------
# Environments


class CompatibilityError(Exception):
    """Environment image not contained in the heap domain."""


def make_env(program: Program, base: Addr, init=()) -> tuple[dict, Heap, frozenset]:
    """Consecutive addresses from ``base`` in first-occurrence order.

    Returns (env, heap seed, reserved address set).  The seed maps each
    variable's cell to its value in ``init`` (a mapping or name/value pairs)
    and every other cell to 0.  Raises ``ValueError`` when ``init`` names a
    variable the program does not use.
    """
    env = {name: base + i for i, name in enumerate(program.variables)}
    reserved = frozenset(env.values())
    cells = dict.fromkeys(reserved, 0)
    for name, value in dict(init).items():
        if name not in env:
            raise ValueError(f"unknown variable {name!r}")
        cells[env[name]] = value
    return env, Heap(cells), reserved


# ---------------------------------------------------------------------------
# Interpreter


class Stuck(Exception):
    """No rule applies.  Expression evaluation raises it without a
    position; :func:`step` re-raises it with the position of the command."""

    def __init__(self, reason: str, pos: Optional[Pos] = None):
        super().__init__(reason if pos is None else f"stuck at {pos[0]}:{pos[1]}: {reason}")
        self.reason = reason
        self.pos = pos


class Outcome(Record, frozen=True):
    kind: str  # "terminated" | "stuck" | "out-of-fuel"
    trace: Trace
    heap: Heap
    reason: Optional[str] = None
    pos: Optional[Pos] = None

    @property
    def terminated(self) -> bool:
        return self.kind == "terminated"

    @property
    def stuck(self) -> bool:
        return self.kind == "stuck"


def _code(e: Expr) -> Callable:
    """The closure ``(env, strategy, state, heap) -> value`` that ``e`` compiles
    into once (see :class:`_Compiled`)."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return e.code


def _var(e: Var) -> Callable:
    def var(env, strategy, state, heap, name=e.name):
        v = heap.read(env[name])
        if v is None:
            raise Stuck(f"variable {name} cell is inaccessible")
        return v
    return var


def _deref(e: Deref) -> Callable:
    def deref(env, strategy, state, heap, addr=_code(e.addr)):
        a = addr(env, strategy, state, heap)
        if a < 0:
            raise Stuck(f"dereference of negative address {a}")
        v = heap.read(a)
        if v is None:
            raise Stuck(f"dereference of inaccessible address {a}")
        return v
    return deref


def _binop(e: Binop) -> Callable:
    left, right, apply = _code(e.left), _code(e.right), _BINOPS.get(e.op)
    if apply is None:
        raise TypeError(f"unknown operator {e.op!r}")
    if type(e.right) is Const:
        return lambda env, strategy, state, heap, r=e.right.value: apply(left(env, strategy, state, heap), r)
    return lambda env, strategy, state, heap: apply(left(env, strategy, state, heap), right(env, strategy, state, heap))


def _xor(l: int, r: int) -> int:
    if l < 0 or r < 0:
        raise Stuck(f"xor on negative operand ({l} ^ {r})")
    return l ^ r


_BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "^": _xor,
    "==": lambda l, r: 1 if l == r else 0, "!=": lambda l, r: 1 if l != r else 0,
    "<": lambda l, r: 1 if l < r else 0, "<=": lambda l, r: 1 if l <= r else 0,
    ">": lambda l, r: 1 if l > r else 0, ">=": lambda l, r: 1 if l >= r else 0,
    "&&": lambda l, r: 1 if l != 0 and r != 0 else 0, "||": lambda l, r: 1 if l != 0 or r != 0 else 0,
}
_COMPILERS = {  # node type -> its compiler
    Const: lambda e: lambda env, strategy, state, heap, v=e.value: v,
    Var: _var,
    Null: lambda e: lambda env, strategy, state, heap: strategy.null(state),
    AddrOf: lambda e: lambda env, strategy, state, heap, name=e.name: env[name],
    Deref: _deref,
    Binop: _binop,
    LVar: lambda e: lambda env, strategy, state, heap, name=e.name: env[name],
    LDeref: lambda e: _code(e.addr),
}


def _assign(env, strategy, cmd, rest, heap, state):
    a = cmd.lval.code(env, strategy, state, heap)
    v = cmd.expr.code(env, strategy, state, heap)
    try:
        heap.write(a, v)
    except InaccessibleWrite as exc:
        raise Stuck(str(exc)) from None
    return rest, state, (CastEv(v) if type(cmd) is CastAssign else None)


def _malloc(env, strategy, cmd, rest, heap, state):
    n = cmd.size.code(env, strategy, state, heap)
    if n < 0:
        raise Stuck(f"malloc size {n} is negative")
    _, st2, a = strategy.malloc(heap, state, n)
    # The lval evaluates against the post-malloc heap.
    target = cmd.lval.code(env, strategy, st2, heap)
    try:
        heap.write(target, a)
    except InaccessibleWrite:
        raise Stuck(f"malloc target address {target} is inaccessible") from None
    ev = MallocFailEv(n) if a == strategy.null(state) else MallocEv(n, a)
    return rest, st2, ev


def _free(env, strategy, cmd, rest, heap, state):
    v = cmd.expr.code(env, strategy, state, heap)
    return rest, strategy.free(heap, state, v)[1], FreeEv(v)


# Command type -> its rule: (env, strategy, cmd, rest, heap, state) -> (next stack, next state, event or None).
_RULES = {
    Skip: lambda env, strategy, cmd, rest, heap, state: (rest, state, None),
    If: lambda env, strategy, cmd, rest, heap, state: (
        (cmd.then if cmd.cond.code(env, strategy, state, heap) else cmd.orelse, rest), state, None),
    While: lambda env, strategy, cmd, rest, heap, state: ((cmd.unrolled, rest), state, None),
    Observe: lambda env, strategy, cmd, rest, heap, state: (
        rest, state, ObsEv(cmd.expr.code(env, strategy, state, heap))),
    Assign: _assign, CastAssign: _assign, MallocAssign: _malloc, FreeCmd: _free,
}


def step(env: dict, strategy: Strategy, heap: Heap, stack: Optional[tuple], state) -> Optional[tuple]:
    """One small step: ``(next stack, next state, event or None)``, or
    ``None`` when ``stack`` is ``None``, the empty stack.

    A stack is a persistent list: ``None``, or a pair ``(head, rest)`` whose
    ``rest`` is again a stack.  Popping the head and pushing a command each
    build at most one pair and copy nothing, and two stacks share the
    pairs below their heads.  Sequences unfold at the head, in a loop that
    costs no recursion: a :class:`Seq`'s second command is pushed onto the
    rest, so each level costs one pair.  The head command's type then picks
    its rule from ``_RULES``, and the step builds no syntax (see
    :func:`run`).  ``heap`` is the run's and the step changes it in place,
    through client writes (assignments, casts, and the target cell of a
    malloc) and the allocator's own changes.  Raises :class:`Stuck`, at the
    command's position, when no rule applies.
    """
    if stack is None:
        return None
    cmd, rest = stack
    while type(cmd) is Seq:
        cmd, rest = cmd.first, (cmd.second, rest)
    rule = _RULES.get(type(cmd))
    if rule is None:
        raise TypeError(f"not a command: {cmd!r}")
    try:
        return rule(env, strategy, cmd, rest, heap, state)
    except Stuck as exc:
        raise Stuck(exc.reason, cmd.pos) from None


DEFAULT_FUEL = 100_000  # the default step bound of every run, Notac or Memsafe


def run(
    env: dict,
    strategy: Strategy,
    program: Program,
    heap: Heap,
    fuel: int = DEFAULT_FUEL,
) -> Outcome:
    """Initialize the strategy and iterate small steps until done.

    ``heap`` is left unchanged: the run copies it once, before
    ``strategy.init``, and keeps that copy as its own heap, which ``init``
    and every :func:`step` change in place; the loop threads only the
    command stack, a chain of ``(head, rest)`` pairs from
    ``(program.body, None)``, and the allocator state.  The copy shares the
    caller's base and copies only its overlay (see :mod:`gai_lab.core`), so
    it costs the cells changed since that base was built, not the size of
    the heap.  Expression closures and loop unrollings are cached on the
    program's nodes, so reruns share them.  The accumulated trace is
    returned in every outcome, and ``Outcome.heap`` is the run's heap.
    """
    missing = [a for a in env.values() if a not in heap]
    if missing:
        raise CompatibilityError(f"environment cells {sorted(missing)[:8]} not in the heap")
    heap, state = strategy.init(heap.copy())
    stack = (program.body, None)
    trace: list[Event] = []
    for _ in range(fuel):
        try:
            res = step(env, strategy, heap, stack, state)
        except Stuck as exc:
            return Outcome("stuck", tuple(trace), heap, exc.reason, exc.pos)
        if res is None:
            return Outcome("terminated", tuple(trace), heap)
        stack, state, ev = res
        if ev is not None:
            trace.append(ev)
    return Outcome("out-of-fuel", tuple(trace), heap)
