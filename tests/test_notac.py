"""Notac parser and interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gai_lab import notac
from gai_lab.alloc_model import (
    NO_UPDATE,
    ClientUpdate,
    SymFree,
    SymMalloc,
    feasible_run,
)
from gai_lab.allocators import (
    BumpAlloc as bump,
    CuriousAlloc as curious,
    EagerAlloc as eager,
    LenientBumpAlloc as lenient_bump,
    NullAlloc as null_alloc,
)
from gai_lab.core import Heap, Record
from gai_lab.notac import (
    Assign,
    Binop,
    CastEv,
    CompatibilityError,
    Const,
    Deref,
    FreeEv,
    If,
    LDeref,
    MallocAssign,
    MallocEv,
    MallocFailEv,
    ObsEv,
    ParseError,
    Seq,
    While,
    dump_trace,
    format_trace,
    load_trace,
    make_env,
    parse,
    printed_depth,
    run,
    step,
    to_source,
)
from test_core import count_copied_cells, domain


def eval_expr(env, strategy, state, heap, e):
    return notac._code(e)(env, strategy, state, heap)


def setup_run(src, alloc, base=10, fuel=100_000, inits=None):
    prog = parse(src)
    env, heap, reserved = make_env(prog, base, inits or {})
    return run(env, alloc, prog, heap, fuel), env


class TestParser:
    def test_two_commands(self):
        prog = parse("p = malloc(8); free(p);")
        assert isinstance(prog.body, Seq)
        assert isinstance(prog.body.first, MallocAssign)
        assert prog.variables == ("p",)

    def test_assign_through_deref(self):
        prog = parse("*(p + 1) = 42;")
        cmd = prog.body
        assert isinstance(cmd, Assign) and isinstance(cmd.lval, LDeref)
        assert cmd.lval.addr == Binop("+", notac.Var("p"), Const(1))

    def test_pointer_comparison_shape(self):
        prog = parse("if (p > q) { observe(1); } else { observe(2); }")
        assert isinstance(prog.body, If)
        assert prog.body.cond.op == ">"

    def test_else_optional(self):
        prog = parse("if (x) { skip; }")
        assert isinstance(prog.body.orelse, notac.Skip)

    def test_error_sugar_is_stuck_write(self):
        cmd = parse("error();").body
        assert cmd == Assign(LDeref(Const(-1)), Const(0), cmd.pos)

    def test_precedence(self):
        e = parse("observe(1 + 2 * 3);").body.expr
        assert e == Binop("+", Const(1), Binop("*", Const(2), Const(3)))
        e = parse("observe(a ^ b == c);").body.expr  # == binds tighter than ^
        assert e.op == "^"
        e = parse("observe(*p + 1);").body.expr  # deref binds tighter than +
        assert e == Binop("+", Deref(notac.Var("p")), Const(1))

    def test_comments_and_positions(self):
        prog = parse("// a comment\nskip;\nobserve(1);")
        assert prog.body.second.pos == (3, 1)

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ParseError) as exc:
            parse("observe(1)")  # missing semicolon
        assert exc.value.pos[0] == 1
        with pytest.raises(ParseError):
            parse("1 = 2;")
        with pytest.raises(ParseError):
            parse("x = $;")

    def test_variables_in_first_occurrence_order(self):
        prog = parse("a = 1; b = a; c = &b;")
        assert prog.variables == ("a", "b", "c")

    @pytest.mark.parametrize("src, pos", [
        ("x = \u0667\u0662;", (1, 5)),  # Arabic-Indic seven, two
        ("x = 1;\ny = 3\u0667;", (2, 6)),
        ("observe(\uff11);", (1, 9)),  # fullwidth one
    ])
    def test_literals_are_ascii_digits(self, src, pos):
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse(src)
        assert exc.value.pos == pos

    def test_roundtrip_through_pretty_printer(self):
        src = "p = malloc(8);\nif (p != NULL) {\n*(p) = 1;\n} else {\nskip;\n}\nwhile (x < 3) {\nx = x + 1;\n}\nfree(p);\ny = cast(p);\nobserve(y);"
        prog = parse(src)
        assert parse(to_source(prog.body)).body == prog.body


class TestMakeEnv:
    def test_consecutive_addresses(self):
        prog = parse("p = 1; q = p;")
        env, heap, reserved = make_env(prog, 10)
        assert env == {"p": 10, "q": 11}
        assert reserved == frozenset({10, 11})
        assert heap.read(10) == heap.read(11) == 0

    def test_empty_program(self):
        env, heap, reserved = make_env(parse("skip;"), 10)
        assert env == {} and reserved == frozenset() and len(heap) == 0

    def test_initial_values_seed_their_cells(self):
        prog = parse("p = 1; q = p; r = q;")
        env, heap, _ = make_env(prog, 10, {"q": 7})
        assert [heap.read(env[v]) for v in ("p", "q", "r")] == [0, 7, 0]
        _, pairs_heap, _ = make_env(prog, 10, [("r", -2), ("p", 3)])
        assert [pairs_heap.read(env[v]) for v in ("p", "q", "r")] == [3, 0, -2]

    def test_initial_value_of_an_unused_variable_is_rejected(self):
        with pytest.raises(ValueError, match="unknown variable 'zz'"):
            make_env(parse("p = 1;"), 10, {"zz": 3})


class TestEvalExpr:
    def test_null_is_strategy_null(self):
        b = bump(0, 100, 200)
        h, st = b.init(Heap())
        assert eval_expr({}, b, st, h, notac.Null()) == 100

    def test_addressof(self):
        assert eval_expr({"x": 7}, null_alloc(), 0, Heap(), notac.AddrOf("x")) == 7

    def test_deref(self):
        h = Heap({5: 9})
        assert eval_expr({}, null_alloc(), 0, h, Deref(Const(5))) == 9
        with pytest.raises(notac.Stuck):
            eval_expr({}, null_alloc(), 0, Heap(), Deref(Const(5)))
        with pytest.raises(notac.Stuck):
            eval_expr({}, null_alloc(), 0, h, Deref(Const(-3)))

    def test_xor_stuck_on_negatives(self):
        assert eval_expr({}, null_alloc(), 0, Heap(), Binop("^", Const(6), Const(3))) == 5
        with pytest.raises(notac.Stuck) as info:
            eval_expr({}, null_alloc(), 0, Heap(), Binop("^", Const(-1), Const(3)))
        assert info.value.pos is None  # step attaches the command's position

    def test_comparisons_and_logic(self):
        ev = lambda e: eval_expr({}, null_alloc(), 0, Heap(), e)
        assert ev(Binop("<", Const(1), Const(2))) == 1
        assert ev(Binop("&&", Const(5), Const(0))) == 0
        assert ev(Binop("||", Const(0), Const(7))) == 1


class TestInterpreter:
    def test_observe(self):
        out, _ = setup_run("observe(1 + 1);", bump(0, 100, 200))
        assert out.terminated and out.trace == (ObsEv(2),)

    def test_cast_writes_and_emits(self):
        out, env = setup_run("p = 1000; x = cast(p);", bump(0, 100, 200))
        assert out.trace == (CastEv(1000),)
        assert out.heap.read(env["x"]) == 1000

    def test_malloc_negative_size_is_stuck(self):
        out, _ = setup_run("p = malloc(0 - 1);", bump(0, 100, 200))
        assert out.stuck and "negative" in out.reason

    def test_free_event_always_emitted(self):
        out, _ = setup_run("free(12345);", bump(0, 100, 200))
        assert out.trace == (FreeEv(12345),)
        out, _ = setup_run("free(0 - 4);", bump(0, 100, 200))
        assert out.trace == (FreeEv(-4),)

    def test_allocator_dependent_addresses_in_traces(self):
        src = "p = malloc(8); free(p); observe(1); observe(p);"
        out1, _ = setup_run(src, eager(0, 100, 200))
        out2, _ = setup_run(src, bump(0, 300, 400))
        assert out1.trace == (MallocEv(8, 101), FreeEv(101), ObsEv(1), ObsEv(101))
        assert out2.trace == (MallocEv(8, 301), FreeEv(301), ObsEv(1), ObsEv(301))

    def test_while_and_fuel(self):
        out, _ = setup_run("while (1) { skip; }", bump(0, 100, 200), fuel=100)
        assert out.kind == "out-of-fuel"

    def test_null_deref_stuck_vs_lenient(self):
        src = "p = malloc(87); *(p) = 42; observe(*(p));"
        stuck, _ = setup_run(src, bump(0, 100, 150))  # capacity 49 < 87
        assert stuck.stuck and stuck.trace == (MallocFailEv(87),)
        lenient, _ = setup_run(src, lenient_bump(0, 100, 150))
        assert lenient.terminated
        assert lenient.trace == (MallocFailEv(87), ObsEv(42))

    def test_if_truthiness(self):
        out, _ = setup_run("if (7) { observe(1); } else { observe(2); }", null_alloc())
        assert out.trace == (ObsEv(1),)

    def test_compatibility_error(self):
        prog = parse("x = 1;")
        with pytest.raises(CompatibilityError):
            run({"x": 5}, bump(0, 100, 200), prog, Heap())

    def test_determinism(self):
        src = "p = malloc(8); q = malloc(4); free(p); observe(q);"
        outs = [setup_run(src, eager(0, 100, 200))[0] for _ in range(3)]
        assert outs[0].trace == outs[1].trace == outs[2].trace
        assert outs[0].heap == outs[1].heap

    def test_client_steps_never_extend_domain(self):
        # assignments and casts keep the heap domain fixed; only the
        # allocator (malloc/free/init) changes it
        prog = parse("x = 5; y = cast(x); p = malloc(4); *(p) = 1; free(p);")
        env, heap, _ = make_env(prog, 10)
        strategy = eager(0, 100, 200)
        h0, st = strategy.init(heap)
        start, stack = domain(h0), (prog.body, None)
        while True:
            before = domain(h0)
            res = step(env, strategy, h0, stack, st)
            if res is None:
                break
            stack, st, ev = res
            if ev is None or isinstance(ev, (ObsEv, CastEv)):
                assert domain(h0) == before
        assert domain(h0) == start  # malloc's cells freed again

    def test_trace_monotone_in_fuel(self):
        src = "p = malloc(8); observe(1); free(p); observe(2);"
        prog = parse(src)
        env, heap, _ = make_env(prog, 10)
        prev = ()
        for fuel in range(0, 14):
            out = run(env, eager(0, 100, 200), prog, heap, fuel)
            assert out.trace[: len(prev)] == prev
            prev = out.trace

    def test_stuck_location_points_at_command(self):
        out, _ = setup_run("skip;\n*(50) = 1;", bump(0, 100, 200))
        assert out.stuck and out.pos == (2, 1)

    STUCK_STATEMENTS = [
        ("observe(*(x - 5));", "dereference of negative address -4"),
        ("if (1 ^ (0 - x)) { skip; }", "xor on negative operand (1 ^ -1)"),
        ("while (*(x + 100)) { skip; }", "dereference of inaccessible address 101"),
        ("*(x + 100) = 2;", "write to inaccessible address 101"),
        ("p = malloc(0 - x);", "malloc size -1 is negative"),
        ("*(x + 100) = malloc(1);", "malloc target address 101 is inaccessible"),
        ("free(*(0 - x));", "dereference of negative address -1"),
    ]

    @pytest.mark.parametrize("stmt, reason", STUCK_STATEMENTS)
    def test_every_stuck_rule_reports_the_command_position(self, stmt, reason):
        prog = parse(f"x = 1;\n  {stmt}")
        env, heap, _ = make_env(prog, 10)
        out = run(env, bump(0, 8, 9), prog, heap)
        assert (out.kind, out.reason, out.pos) == ("stuck", reason, (2, 3))

    @pytest.mark.parametrize("stmt, reason", STUCK_STATEMENTS)
    @pytest.mark.parametrize("block", ["if", "while"])
    def test_a_stuck_statement_first_in_a_block_reports_its_position(self, stmt, reason, block):
        # The step unfolds the block's Seq before the statement's rule runs.
        prog = parse(f"x = 1;\n{block} (1) {{\n  {stmt} skip; }}")
        env, heap, _ = make_env(prog, 10)
        out = run(env, bump(0, 8, 9), prog, heap)
        assert (out.kind, out.reason, out.pos) == ("stuck", reason, (3, 3))

    def test_malloc_lval_sees_post_malloc_heap(self):
        # the target address only becomes accessible through this very
        # malloc; evaluating the lval against the updated heap lets the
        # write land inside the new block
        out, _ = setup_run("t = 101; *(t) = malloc(4); observe(*(101));", eager(0, 100, 200))
        assert out.terminated
        assert out.trace == (MallocEv(4, 101), ObsEv(101))


def test_malloc_fail_lval_write_value():
    # the failed malloc still writes the strategy's null into the lval
    prog = parse("p = malloc(8);")
    env, heap, _ = make_env(prog, 10)
    out = run(env, null_alloc(), prog, heap)
    assert out.heap.read(env["p"]) == 0  # smallest address outside dom({10}) is 0
    assert out.trace == (MallocFailEv(8),)


def test_parser_never_crashes_on_garbage():
    # anything that is not a program raises ParseError, nothing else
    import random

    rng = random.Random(31337)
    tokens = ["p", "q", "=", ";", "(", ")", "{", "}", "*", "&", "+", "^",
              "malloc", "free", "observe", "if", "else", "while", "NULL",
              "cast", "skip", "error", "7", "0", "!=", "==", "-"]
    for _ in range(800):
        src = " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 25)))
        try:
            parse(src)
        except ParseError:
            pass


def test_parser_survives_mutated_corpus_sources():
    # single-character deletions may or may not parse, but must never
    # raise anything other than ParseError
    import random

    from gai_lab.corpus import CASES

    rng = random.Random(4)
    for case in CASES:
        for _ in range(10):
            src = case.source
            i = rng.randrange(len(src))
            src = src[:i] + src[i + 1 :]
            try:
                parse(src)
            except ParseError:
                pass


def test_trace_serialization_roundtrip():
    trace = (MallocEv(8, 101), MallocFailEv(8), FreeEv(101), CastEv(1000), ObsEv(2))
    text = dump_trace(trace)
    assert '{"kind": "malloc", "size": 8, "addr": 101}' in text
    assert load_trace(text) == trace
    assert "malloc(8,101)" in format_trace(trace)


EVENT_CLASSES = (ObsEv, MallocEv, MallocFailEv, FreeEv, CastEv)


def test_each_event_kind_is_declared_once_on_its_class():
    """Printing, JSON and reading JSON back all follow the class's ``kind``,
    ``_fields`` and ``non_negative``; no event class prints itself."""
    assert [cls.kind for cls in EVENT_CLASSES] == ["obs", "malloc", "mfail", "free", "cast"]
    assert {(cls.kind, f) for cls in EVENT_CLASSES for f in cls.non_negative} == {
        ("malloc", "size"), ("malloc", "addr"), ("mfail", "size")}
    for cls in EVENT_CLASSES:
        assert "__str__" not in vars(cls)
        values = range(3, 3 + len(cls._fields))
        ev = cls(*values)
        assert str(ev) == f"{cls.kind}({','.join(map(str, values))})"
        obj = notac.event_to_json(ev)
        assert list(obj) == ["kind", *cls._fields] and obj == {"kind": cls.kind, **dict(zip(cls._fields, values))}
        assert notac.event_from_json(obj) == ev
        for f in cls._fields:
            negative = {**obj, f: -1}
            if f in cls.non_negative:
                with pytest.raises(ValueError, match=f"^{cls.kind} event has negative '{f}' -1$"):
                    notac.event_from_json(negative)
            else:
                assert getattr(notac.event_from_json(negative), f) == -1


def test_trace_loader_rejects_malformed_events():
    good = '{"kind": "obs", "val": -3}\n'
    bad_lines = [
        '{"kind": "malloc", "size": "8", "addr": 3}',
        '{"kind": "malloc", "size": true, "addr": 3}',
        '{"kind": "malloc", "size": 8, "addr": -1}',
        '{"kind": "mfail", "size": -8}',
        '{"kind": "mfail", "size": 8.0}',
        '{"kind": "free"}',
        '{"kind": "alloc", "size": 8}',
        '{"kind": ["obs"], "val": 1}',
        '{"kind": {"obs": 1}, "val": 1}',
        '[1, 2]',
        '{"kind": "obs", "val": 1',
        "[" * 100_000,
    ]
    for line in bad_lines:
        with pytest.raises(ValueError, match="^line 3: "):
            load_trace(good + "\n" + line + "\n" + good)
    # a free carries whatever value its expression had
    assert load_trace('{"kind": "free", "addr": -5}') == (FreeEv(-5),)


def test_long_straight_line_program_parses_and_runs():
    prog = parse("x = 0;\n" * 2500 + "x = x + 1;\n" * 2500 + "observe(x);")
    assert prog.variables == ("x",)
    out, _ = setup_run("x = 0;\n" * 2500 + "x = x + 1;\n" * 2500 + "observe(x);", bump(0, 8, 72), base=0)
    assert out.terminated and out.trace == (ObsEv(2500),)


def test_expression_nesting_is_bounded():
    deep = "observe(" + "(" * 400 + "1" + ")" * 400 + ");"
    with pytest.raises(ParseError, match=f"MAX_EXPR_DEPTH = {notac.MAX_EXPR_DEPTH}"):
        parse(deep)
    n = notac.MAX_EXPR_DEPTH
    for src in (
        "observe(" + "+".join(["1"] * 2000) + ");",  # a left-nested chain
        "observe(" + "-" * (n + 1) + "1);",
        "x = " + "*" * (n + 1) + "x;",
    ):
        with pytest.raises(ParseError, match="MAX_EXPR_DEPTH"):
            parse(src)
    at_limit = parse("observe(" + "(" * n + "1" + ")" * n + ");")
    assert at_limit.body == notac.Observe(Const(1))
    out, _ = setup_run("observe(" + "+".join(["1"] * (n + 1)) + ");", null_alloc())
    assert out.trace == (ObsEv(n + 1),)


_LEAVES = st.sampled_from([Const(3), Const(-4), notac.Var("x"), notac.AddrOf("x"), notac.Null()])


@st.composite
def spines(draw, leaves=_LEAVES):
    """An expression built by wrapping a leaf up to 35 times, each time as the
    left or right operand of a binary operation or inside ``*( )``."""
    e = draw(leaves)
    for _ in range(draw(st.integers(0, 35))):
        wrap = draw(st.sampled_from(["left", "right", "deref"]))
        if wrap == "deref":
            e = Deref(e)
            continue
        op = draw(st.sampled_from(["+", "-", "*", "^", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]))
        other = draw(leaves)
        e = Binop(op, e, other) if wrap == "left" else Binop(op, other, e)
    return e


@settings(max_examples=300, deadline=None)
@given(spines())
def test_printed_depth_is_the_depth_the_parser_counts(e):
    src = f"observe({notac._expr_src(e)});"
    if printed_depth(e) <= notac.MAX_EXPR_DEPTH:
        assert parse(src).body == notac.Observe(e)
    else:
        with pytest.raises(ParseError, match="MAX_EXPR_DEPTH"):
            parse(src)


# The spine leaves over several names, and the spines whose printed form,
# even as the ``*( )`` of a target, stays inside MAX_EXPR_DEPTH.
_NAMED_LEAVES = st.sampled_from([Const(3), Const(-4), notac.Var("x"), notac.Var("y"), notac.AddrOf("z"),
                                 notac.AddrOf("x"), notac.Null()])
_PRINTABLE = spines(_NAMED_LEAVES).filter(lambda e: printed_depth(Deref(e)) <= notac.MAX_EXPR_DEPTH)
_NAMES = st.sampled_from(["x", "y", "p", "q"])


@st.composite
def commands(draw, depth=0):
    """A statement over the printable spines: an assignment to a variable or
    through ``*( )``, ``malloc``, ``cast``, ``free``, ``observe``, ``skip``, and,
    up to two blocks deep, ``if`` and ``while`` around 1-3 statements."""
    kinds = ["assign", "malloc", "cast", "free", "observe", "skip"] + (["if", "while"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    e = draw(_PRINTABLE)
    if kind in ("if", "while"):
        body = notac.chain(draw(st.lists(commands(depth + 1), min_size=1, max_size=3)))
        if kind == "while":
            return While(e, body)
        return If(e, body, notac.chain(draw(st.lists(commands(depth + 1), max_size=3))))
    if kind in ("free", "observe", "skip"):
        return {"free": notac.FreeCmd(e), "observe": notac.Observe(e), "skip": notac.Skip()}[kind]
    target = draw(st.one_of(_NAMES.map(notac.LVar), _PRINTABLE.map(LDeref)))
    return {"assign": Assign, "malloc": MallocAssign, "cast": notac.CastAssign}[kind](target, e)


def collect_vars(root) -> list:
    """Variable names in first-occurrence order in a tree of syntax nodes:
    the oracle for ``ParserCore.variables``, which reads them off the tokens.

    A left-to-right walk over record fields on an explicit stack: a
    program's ``Seq`` chain is as deep as it has statements.  A command's
    target comes before the variables its operand reads.  Caches such as
    ``While.unrolled`` are not fields, so the walk skips them.
    """
    seen: dict = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (notac.Var, notac.AddrOf, notac.LVar)):
            seen.setdefault(node.name, None)
        else:
            stack.extend(reversed([v for f in node._fields if isinstance(v := getattr(node, f), Record)]))
    return list(seen)


@settings(max_examples=200, deadline=None)
@given(st.lists(commands(), min_size=1, max_size=6))
def test_the_variables_read_off_the_tokens_are_the_trees(cmds):
    prog = parse(to_source(notac.chain(cmds)))
    assert prog.body == notac.chain(cmds)
    assert prog.variables == tuple(collect_vars(prog.body))


def test_the_corpus_variables_read_off_the_tokens_are_the_trees():
    from gai_lab.corpus import CASES, XOR_SCRIPTS, xor_script

    for src in [case.source for case in CASES] + [xor_script(ops) for ops in XOR_SCRIPTS.values()]:
        prog = parse(src)
        assert prog.variables == tuple(collect_vars(prog.body))


def _reference_eval(env, state, heap, e):
    """A reference evaluator for ``eval_expr``: one ``isinstance`` test per
    node kind, walking the tree on every call, operators applied by name."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, notac.Var):
        v = heap.read(env[e.name])
        if v is None:
            raise notac.Stuck(f"variable {e.name} cell is inaccessible")
        return v
    if isinstance(e, notac.Null):
        return state  # null_alloc's null address is its state
    if isinstance(e, notac.AddrOf):
        return env[e.name]
    if isinstance(e, Deref):
        a = _reference_eval(env, state, heap, e.addr)
        if a < 0:
            raise notac.Stuck(f"dereference of negative address {a}")
        v = heap.read(a)
        if v is None:
            raise notac.Stuck(f"dereference of inaccessible address {a}")
        return v
    l, r = _reference_eval(env, state, heap, e.left), _reference_eval(env, state, heap, e.right)
    if e.op == "^" and (l < 0 or r < 0):
        raise notac.Stuck(f"xor on negative operand ({l} ^ {r})")
    return {
        "+": l + r, "-": l - r, "*": l * r, "^": l ^ r, "==": int(l == r), "!=": int(l != r),
        "<": int(l < r), "<=": int(l <= r), ">": int(l > r), ">=": int(l >= r),
        "&&": int(l != 0 and r != 0), "||": int(l != 0 or r != 0),
    }[e.op]


@settings(max_examples=400, deadline=None)
@given(
    spines(),
    st.dictionaries(st.integers(0, 12), st.integers(-6, 12), max_size=10),
    st.integers(0, 14),
    st.integers(0, 14),
)
def test_compiled_eval_agrees_with_the_reference_evaluator(e, cells, x_addr, null):
    env, heap = {"x": x_addr}, Heap(cells)
    try:
        expected = ("value", _reference_eval(env, null, heap, e))
    except notac.Stuck as exc:
        expected = ("stuck", exc.reason)
    try:
        got = ("value", eval_expr(env, null_alloc(), null, heap, e))
    except notac.Stuck as exc:
        got = ("stuck", exc.reason)
    assert got == expected
    assert type(got[1]) is type(expected[1])  # 1/0 stay ints, never bools


def test_bad_syntax_nodes_raise_type_error():
    ev = lambda e: eval_expr({}, null_alloc(), 0, Heap(), e)
    for bad in (5, notac.Skip(), notac.LVar("x"), Binop("+", Const(1), "x"), Deref(None)):
        inner = bad.right if isinstance(bad, Binop) else bad.addr if isinstance(bad, Deref) else bad
        with pytest.raises(TypeError) as info:
            ev(bad)
        assert str(info.value) == f"not an expression: {inner!r}"
    with pytest.raises(TypeError) as info:
        ev(Binop("%", Const(7), Const(2)))
    assert str(info.value) == "unknown operator '%'"
    with pytest.raises(TypeError) as info:
        step({}, null_alloc(), Heap(), (Const(1), None), 0)
    assert str(info.value) == f"not a command: {Const(1)!r}"
    with pytest.raises(TypeError) as info:
        step({}, null_alloc(), Heap(), (Seq(Const(1), notac.Skip()), None), 0)
    assert str(info.value) == "not a command: Const(value=1)"
    # the rule is looked up before it runs: its own errors pass unchanged
    with pytest.raises(KeyError):
        step({}, null_alloc(), Heap(), (notac.Observe(notac.Var("y")), None), 0)


def test_printing_or_dumping_a_non_node_raises_type_error():
    with pytest.raises(TypeError, match=r"^not an event: 5$"):
        notac.event_to_json(5)
    with pytest.raises(TypeError, match=r"^not an expression: Skip\("):
        notac._expr_src(notac.Skip())
    with pytest.raises(TypeError, match=r"^not a command: Const\(value=1\)$"):
        to_source(Const(1))


def test_a_lazy_attribute_read_on_its_class_is_its_descriptor():
    for cls, name in ((While, "unrolled"), (Const, "code")):
        assert isinstance(getattr(cls, name), notac._lazy) and getattr(cls, name).name == name


def test_every_syntax_class_has_a_rule_or_a_compiler():
    # Seq has no rule: step unfolds it before looking one up.
    assert set(notac._RULES) == set(notac.Cmd.__args__) - {Seq}
    assert set(notac._COMPILERS) == set(notac.Expr.__args__) | set(notac.Lval.__args__)


def test_a_left_nested_sequence_unfolds_without_recursion():
    """5,000 levels, five times the default recursion limit: one step
    unfolds them all in a loop, and the observes come out in order."""
    depth = 5000
    body = notac.Observe(Const(0))
    for k in range(1, depth + 1):
        body = Seq(body, notac.Observe(Const(k)))
    prog = notac.Program(body, ())
    done = run({}, null_alloc(), prog, Heap())
    assert done.terminated and done.trace == tuple(ObsEv(k) for k in range(depth + 1))
    short = run({}, null_alloc(), prog, Heap(), fuel=depth)
    assert short.kind == "out-of-fuel" and short.trace == done.trace[:-1]


@pytest.mark.parametrize("n", [0, 1, 5, 20])
def test_loop_fuel_boundary(n):
    """``i = 0`` takes one step, each iteration three (loop, test, body) and
    the exit three (loop, test, skip); the last call finds nothing to do."""
    src = f"i = 0; while (i < {n}) {{ i = i + 1; }}"
    done, env = setup_run(src, null_alloc(), fuel=3 * n + 5)
    assert done.terminated and done.heap.read(env["i"]) == n
    short, _ = setup_run(src, null_alloc(), fuel=3 * n + 4)
    assert short.kind == "out-of-fuel"


def test_every_iteration_pushes_the_same_unrolled_loop():
    prog = parse("i = 0; while (i < 3) { i = i + 1; }")
    loop = prog.body.second
    env, heap, _ = make_env(prog, 10)
    pushed = []
    for _ in range(2):  # a second run of the program shares the unrolling
        h, stack, state = heap.copy(), (prog.body, None), 0
        while (res := step(env, null_alloc(), h, stack, state)) is not None:
            stack, state, _ = res
            head = stack[0] if stack else None
            if type(head) is If and type(head.then) is Seq and head.then.second is loop:
                pushed.append(head)
    assert len(pushed) == 8 and all(u is loop.unrolled for u in pushed)
    assert loop.unrolled == If(loop.cond, Seq(loop.body, loop), notac.Skip(), loop.pos)
    fresh = While(loop.cond, loop.body, loop.pos)  # the cache is not a field
    assert (loop, hash(loop), repr(loop)) == (fresh, hash(fresh), repr(fresh))
    assert collect_vars(prog.body) == ["i"]


def test_block_nesting_is_bounded():
    deep = "if (1) {" * 1000 + "skip;" + "}" * 1000
    with pytest.raises(ParseError, match=f"MAX_BLOCK_DEPTH = {notac.MAX_BLOCK_DEPTH}"):
        parse(deep)
    b = notac.MAX_BLOCK_DEPTH
    with pytest.raises(ParseError, match="MAX_BLOCK_DEPTH"):
        parse("while (0) {" * (b + 1) + "}" * (b + 1))


def test_deepest_blocks_with_deepest_expression_parse_run_and_print():
    b, e = notac.MAX_BLOCK_DEPTH, notac.MAX_EXPR_DEPTH
    chain = "+".join(["1"] * (e + 1))
    body = f"observe({'(' * e}1{')' * e}); observe({chain});"
    src = "i = 0; while (i < 1) {" * b + body + "i = i + 1; }" * b
    out, _ = setup_run(src, null_alloc())
    assert out.terminated and out.trace == (ObsEv(1), ObsEv(e + 1))
    assert to_source(parse(src).body).count("while (") == b


def test_long_program_prints_without_recursion():
    prog = parse("x = 1;\n" * 3000)
    assert to_source(prog.body) == "x = 1;\n" * 2999 + "x = 1;"


def test_run_copies_arena_once_not_per_step(monkeypatch):
    """Heap cells copied in a 2,000-iteration loop under a 20,000-cell bump
    arena grow with arena + steps, not with their product."""
    copied = count_copied_cells(monkeypatch)
    steps = []
    step = notac.step

    def counting_step(env, strategy, heap, stack, state):
        res = step(env, strategy, heap, stack, state)
        if res is not None:
            steps.append(1)
        return res

    monkeypatch.setattr(notac, "step", counting_step)
    arena = 20_000
    prog = parse(
        "i = 0; s = 0; while (i < 2000) { p = malloc(2); "
        "if (p != NULL) { *(p + 1) = i; s = s + *(p + 1); free(p); } i = i + 1; } observe(s);"
    )
    env, heap, _ = make_env(prog, 0)
    out = run(env, bump(0, 8, arena), prog, heap)
    assert out.terminated and out.trace[-1] == ObsEv(sum(range(2000)))
    assert len(steps) > 2000 * 5
    assert sum(copied) <= 2 * (arena + len(steps))


def test_run_leaves_the_callers_heap_alone():
    prog = parse("x = 5; p = malloc(0);")
    env, heap, _ = make_env(prog, 10)
    for strategy in (null_alloc(), bump(0, 100, 200), eager(0, 100, 200)):
        out = run(env, strategy, prog, heap)
        assert out.heap.read(env["x"]) == 5
        assert heap.read(env["x"]) == 0 and heap.read(env["p"]) == 0


def test_run_events_replay_symbolically():
    """The malloc/free events of a run replay through feasible_run."""
    src = "p = malloc(8); q = malloc(4); free(p); free(q);"
    strategy = eager(0, 100, 200)
    prog = parse(src)
    env, heap, reserved = make_env(prog, 10)
    out = run(env, strategy, prog, heap)
    sigma, live, addrs = [], {}, []
    for ev in out.trace:
        if isinstance(ev, MallocEv):
            sigma.append(SymMalloc(ev.size))
            live[ev.addr] = len(sigma)
            addrs.append(ev.addr)
        elif isinstance(ev, FreeEv):
            pos = live.pop(ev.addr)
            back = sum(1 for s in sigma[pos:] if isinstance(s, SymMalloc))
            sigma.append(SymFree(back))
    h0, st0 = strategy.init(heap)
    _, _, m = feasible_run(
        strategy, reserved, h0, st0, tuple(NO_UPDATE for _ in sigma), tuple(sigma)
    )
    assert m == frozenset()


def test_run_replay_with_client_update_for_curious():
    # the client write that picks the curious semispace replays as an update
    src = "p = malloc(4); *(p) = 5; q = malloc(4);"
    strategy = curious(9, 2047)
    prog = parse(src)
    env, heap, reserved = make_env(prog, 3000)
    out = run(env, strategy, prog, heap)
    mallocs = [ev for ev in out.trace if isinstance(ev, MallocEv)]
    assert [m.addr for m in mallocs] == [513, 257]
    h0, st0 = strategy.init(heap)
    # slot 0 of sorted({513..516} | reserved) is the first allocated cell
    upd = ClientUpdate(((0, 5),))
    _, _, m = feasible_run(
        strategy, reserved, h0, st0, (NO_UPDATE, upd), (SymMalloc(4), SymMalloc(4))
    )
    assert {(e.addr, e.size) for e in m} == {(513, 4), (257, 4)}
