"""Memsafe evaluation, the translation to Notac, and the differential check."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gai_lab import memsafe, notac
from gai_lab.allocators import NoZeroAlloc as no_zero, BumpAlloc as bump, NullAlloc as null_alloc
from gai_lab.gai import DEFAULT_BUMP_SEGMENT, DEFAULT_ENV_BASE
from gai_lab.memsafe import (
    GUARD_PREFIX,
    MAX_MS_BLOCK_DEPTH,
    NIL,
    DiffMismatch,
    MsParseError,
    MsPtr,
    MsState,
    ReservedVariableError,
    differential_check,
    ms_eval_expr,
    ms_parse,
    ms_run,
    translate,
    translate_to_source,
    _ms_binop,
    _Undefined,
)
from gai_lab.notac import (
    Assign,
    Binop,
    CastAssign,
    Const,
    Deref,
    FreeCmd,
    If,
    LDeref,
    LVar,
    MallocAssign,
    MallocFailEv,
    Null,
    Observe,
    Program,
    Seq,
    Skip,
    Var,
    While,
)


# Each Memsafe command form and the Notac node it parses to.
COMMAND_FORMS = [
    pytest.param("skip", Skip(), id="skip"),
    pytest.param("x <- 1; skip", Seq(Assign(LVar("x"), Const(1)), Skip()), id="seq"),
    pytest.param("if x then skip else y <- 2 end", If(Var("x"), Skip(), Assign(LVar("y"), Const(2))), id="if"),
    pytest.param("while x do skip end", While(Var("x"), Skip()), id="while"),
    pytest.param("x <- y + 1", Assign(LVar("x"), Binop("+", Var("y"), Const(1))), id="assign"),
    pytest.param("x <- [y]", Assign(LVar("x"), Deref(Var("y"))), id="load"),
    pytest.param("[x + 1] <- y", Assign(LDeref(Binop("+", Var("x"), Const(1))), Var("y")), id="store"),
    pytest.param("x <- alloc(3)", MallocAssign(LVar("x"), Const(3)), id="alloc"),
]

# Notac commands Memsafe has no syntax for.
FOREIGN_COMMANDS = [
    pytest.param(FreeCmd(Var("x")), id="free"),
    pytest.param(Observe(Var("x")), id="observe"),
    pytest.param(CastAssign(LVar("x"), Var("x")), id="cast"),
    pytest.param(MallocAssign(LDeref(Var("x")), Const(1)), id="alloc-through-pointer"),
]


class TestParser:
    def test_forms(self):
        cmd = ms_parse("x <- 1; y <- [x]; [x] <- 2; z <- alloc(3); skip")
        assert cmd is not None

    @pytest.mark.parametrize("src, node", COMMAND_FORMS)
    def test_command_forms_are_notac_nodes(self, src, node):
        assert ms_parse(src).body == node

    def test_if_needs_end(self):
        ms_parse("if 1 then x <- 1 else x <- 2 end")
        with pytest.raises(MsParseError):
            ms_parse("if 1 then x <- 1 else x <- 2")

    def test_equality_tokens(self):
        a = ms_parse("x <- 1 = 2")
        b = ms_parse("x <- 1 == 2")
        assert a == b

    def test_rejects_garbage(self):
        with pytest.raises(MsParseError):
            ms_parse("x <- !")

    @pytest.mark.parametrize("src, plain", [
        ("x <- 1;", "x <- 1"),
        ("if 1 then x <- 1; else x <- 2; end", "if 1 then x <- 1 else x <- 2 end"),
        ("while 0 do skip; end;", "while 0 do skip end"),
    ])
    def test_a_trailing_separator_is_tolerated(self, src, plain):
        assert ms_parse(src) == ms_parse(plain)


# Memsafe sources with one parse error each, its (line, col) and message.
BAD_SOURCES = [
    pytest.param("x <- 1;\ny <- 2 ! 3", (2, 8), "unexpected character '!'", id="character"),
    # Literals are ASCII digits: an Arabic-Indic seven is no number.
    pytest.param("x <- 1;\ny <- 4\u0667", (2, 7), "unexpected character '\u0667'", id="non-ascii-digit"),
    pytest.param("x <- 1;\ny <- 2;\nif x then skip end", (3, 16), "expected 'else', found 'end'", id="grammar"),
    pytest.param("x <- 1;\n  y <- " + "(" * 60 + "1" + ")" * 60, (2, 58), "nested deeper than MAX_EXPR_DEPTH",
                 id="nesting"),
    pytest.param("x <- " + " + ".join(["1"] * 49), (1, 6), "prints nested deeper than MAX_EXPR_DEPTH",
                 id="printed-depth"),
]


@pytest.mark.parametrize("src, pos, message", BAD_SOURCES)
def test_parse_errors_carry_line_and_column(src, pos, message):
    with pytest.raises(MsParseError) as info:
        ms_parse(src)
    assert isinstance(info.value, notac.ParseError)
    assert info.value.pos == pos
    assert str(info.value).startswith(f"{pos[0]}:{pos[1]}: ")
    assert message in str(info.value)


class TestEvalExpr:
    def test_nil_equality(self):
        st = MsState({}, {}, 0)
        assert ms_eval_expr(st, ms_parse("x <- nil == nil").body.expr) == 1

    def test_integer_equality(self):
        st = MsState({}, {}, 0)
        assert ms_eval_expr(st, ms_parse("x <- 1 == 1").body.expr) == 1
        assert ms_eval_expr(st, ms_parse("x <- 1 = 2").body.expr) == 0

    def test_pointer_shift(self):
        assert _ms_binop("+", MsPtr(3, 4, 1), 2) == MsPtr(3, 4, 3)
        assert _ms_binop("+", 2, MsPtr(3, 4, 1)) == MsPtr(3, 4, 3)
        assert _ms_binop("-", MsPtr(3, 4, 3), 1) == MsPtr(3, 4, 2)

    def test_out_of_bounds_pointer_equality_undefined(self):
        with pytest.raises(_Undefined):
            _ms_binop("==", MsPtr(1, 4, 4), NIL)

    def test_no_int_minus_pointer(self):
        with pytest.raises(_Undefined):
            _ms_binop("-", 1, MsPtr(0, 2, 0))

    def test_mixed_equality_undefined(self):
        with pytest.raises(_Undefined):
            _ms_binop("==", 4, MsPtr(0, 2, 0))

    def test_a_non_expression_raises_type_error(self):
        with pytest.raises(TypeError, match=r"^not an expression: Skip\("):
            ms_eval_expr(MsState({}, {}, 0), Skip())

    def test_leq_ints_only(self):
        assert _ms_binop("<=", 2, 3) == 1
        with pytest.raises(_Undefined):
            _ms_binop("<=", NIL, NIL)


class TestEvalCmd:
    def test_alloc_zero_initializes(self):
        out = ms_run(ms_parse("x <- alloc(3); x <- [x + 1]"))
        assert out.ok and out.state.store["x"] == 0

    def test_store_out_of_bounds_errors(self):
        out = ms_run(ms_parse("x <- alloc(3); [x + 3] <- 1"))
        assert out.kind == "error"

    def test_load_through_integer_errors(self):
        assert ms_run(ms_parse("x <- 5; y <- [x]")).kind == "error"

    @pytest.mark.parametrize("src, reason", [
        ("x <- 5; y <- [x]", "load through 5"),
        ("x <- 5; [x] <- 1", "store through 5"),
        ("[p] <- q", "unbound variable p"),  # the address first,
        ("x <- 5; [x] <- q", "unbound variable q"),  # then the value, then the bounds check
    ])
    def test_error_reasons_follow_the_evaluation_order(self, src, reason):
        out = ms_run(ms_parse(src))
        assert out.kind == "error" and out.reason == reason

    def test_while_diverges_on_fuel(self):
        assert ms_run(ms_parse("while 1 do skip end"), fuel=60).kind == "diverged"

    @pytest.mark.parametrize("src", ["if nil then skip else skip end", "while nil do skip end"])
    def test_a_non_integer_guard_is_an_error(self, src):
        out = ms_run(ms_parse(src))
        assert out.kind == "error" and out.reason == "guard is not an integer: nil"

    def test_unbound_variable_errors(self):
        assert ms_run(ms_parse("x <- y + 1")).kind == "error"

    def test_negative_alloc_errors(self):
        assert ms_run(ms_parse("x <- alloc(0 - 1)")).kind == "error"

    def test_provenance_inequality(self):
        out = ms_run(ms_parse("x <- alloc(2); y <- alloc(2); z <- x == y"))
        assert out.state.store["z"] == 0

    def test_block_ids_never_reused(self):
        out = ms_run(ms_parse("a <- alloc(1); b <- alloc(1); c <- alloc(1)"))
        ids = {v.block for v in out.state.store.values()}
        assert len(ids) == 3

    @pytest.mark.parametrize("cmd", FOREIGN_COMMANDS)
    def test_commands_without_memsafe_syntax_are_rejected(self, cmd):
        with pytest.raises(TypeError):
            ms_run(Program(cmd, ()), {"x": 1})

    def test_huge_block_costs_only_the_cells_written(self):
        n, k = 10**12, 10**11
        out = ms_run(ms_parse(f"x <- alloc({n}); [x + {k}] <- 7; y <- [x + {k}]; z <- [x + 3]"))
        assert out.ok and out.state.store["y"] == 7 and out.state.store["z"] == 0
        assert ms_run(ms_parse(f"x <- alloc({n}); y <- [x + {n}]")).kind == "error"
        assert ms_run(ms_parse(f"x <- alloc({n}); [x - 1] <- 1")).kind == "error"
        assert ms_run(ms_parse(f"x <- alloc({10**20}); y <- [x + {10**19}]")).state.store["y"] == 0


class TestTranslate:
    def test_expr_table(self):
        def translated(src):
            return translate(ms_parse(src)).body.orelse.expr  # under the oom guard

        assert translated("x <- nil") == Null()
        assert translated("x <- 3") == notac.Const(3)
        e = translated("x <- a + 2 * b")
        assert e == notac.Binop("+", Var("a"), notac.Binop("*", notac.Const(2), Var("b")))

    def test_skip_untouched(self):
        program = translate(ms_parse("skip"))
        assert program.body == Skip()

    def test_assignment_guarded(self):
        program = translate(ms_parse("x <- 1"))
        guard = program.body
        assert isinstance(guard, If) and guard.cond == Var("oom")
        assert isinstance(guard.then, Skip)

    @pytest.mark.parametrize("src", ["x <- y + 1", "x <- [y]", "[x + 1] <- y"])
    def test_assignment_node_kept_under_the_guard(self, src):
        source = ms_parse(src)
        body = translate(source).body
        assert body == If(Var("oom"), Skip(), source.body) and body.orelse is source.body

    @pytest.mark.parametrize("cmd", FOREIGN_COMMANDS)
    def test_commands_without_memsafe_syntax_are_rejected(self, cmd):
        with pytest.raises(TypeError):
            translate(Program(cmd, ()))

    def test_while_gets_fresh_guard(self):
        program = translate(ms_parse("while x <= 2 do x <- x + 1 end; while 1 do skip end"))
        assert [v for v in program.variables if v.startswith(GUARD_PREFIX)] == ["__g0", "__g1"]
        assert "__g0" in program.variables and "__g1" in program.variables

    def test_reserved_collision_rejected(self):
        with pytest.raises(ReservedVariableError):
            translate(ms_parse("oom <- 1"))
        with pytest.raises(ReservedVariableError):
            translate(ms_parse("__g0 <- 1"))

    def test_translated_source_parses(self):
        src = translate_to_source(ms_parse("x <- alloc(2); [x] <- 7; y <- [x]"))
        assert "oom" in src and src.startswith("//")
        reparsed = notac.parse(src)
        assert "oom" in reparsed.variables

    def test_zero_fill_stays_in_bounds(self):
        # the fill loop writes exactly size cells under a strict allocator
        program = translate(ms_parse("x <- alloc(2)"))
        env, heap, _ = notac.make_env(program, DEFAULT_ENV_BASE)
        out = notac.run(env, bump(*DEFAULT_BUMP_SEGMENT), program, heap)
        assert out.terminated  # a fill loop running size..0 would be stuck here


class TestDifferential:
    def test_pure_arithmetic(self):
        rep = differential_check(ms_parse("x <- 1 + 2"), wf_trials=5)
        assert rep.ok

    def test_a_non_integer_initial_store_value_raises(self):
        with pytest.raises(ValueError, match=r"^initial store must hold integers only \(y=nil\)$"):
            differential_check(ms_parse("x <- y"), initial_store={"y": NIL})

    def test_alloc_store_load(self):
        rep = differential_check(ms_parse("x <- alloc(2); [x] <- 7; y <- [x]"), wf_trials=5)
        assert rep.ok and rep.gai_report.verdict == "pass"

    def test_oom_path_is_vacuous(self):
        # under the null allocator every run sets oom and the agreement
        # clause does not apply
        rep = differential_check(
            ms_parse("x <- alloc(2); [x] <- 7; y <- [x]"),
            family=[null_alloc(), bump(*DEFAULT_BUMP_SEGMENT)],
            wf_trials=5,
        )
        assert rep.ok
        assert rep.runs["null"][1] == 1  # oom flag set
        assert rep.runs[f"bump:{','.join(map(str, DEFAULT_BUMP_SEGMENT))}"][1] == 0

    def test_integer_equality(self):
        source = ms_parse("x <- 3; e <- x == 3; n <- x = 4; if e then y <- 1 else y <- 2 end")
        assert ms_run(source).state.store == {"x": 3, "e": 1, "n": 0, "y": 1}
        assert differential_check(source, wf_trials=5).ok

    def test_initial_store_flows_through(self):
        rep = differential_check(
            ms_parse("y <- x0 * 2"), initial_store={"x0": 21}, wf_trials=5
        )
        assert rep.ok

    def test_initial_store_must_name_program_variables(self):
        with pytest.raises(ValueError, match="unknown variable 'zz'"):
            differential_check(ms_parse("x <- 1"), initial_store={"zz": 3})

    def test_out_of_fuel_translation_is_inconclusive(self):
        # the zero fill costs about three Notac steps per cell, Memsafe one command
        cmd = ms_parse("x <- alloc(60)")
        assert ms_run(cmd, fuel=200).ok
        rep = differential_check(cmd, fuel=200, wf_trials=2)
        assert not rep.ok and not rep.mismatches
        starved = sorted(name for name, (kind, _) in rep.runs.items() if kind == "out-of-fuel")
        assert len(starved) == 6 and rep.runs["null"] == ("terminated", 1)
        assert sorted(rep.inconclusive) == sorted(f"{name} ran out of fuel (200 steps)" for name in starved)
        text = rep.describe()
        assert text.startswith("differential: inconclusive\n")
        assert "ran out of fuel (200 steps)" in text and "did not terminate" not in text

    def test_stuck_translation_is_a_mismatch(self, monkeypatch):
        stuck = notac.parse("x = 1; oom = 0; error();")
        monkeypatch.setattr(memsafe, "translate", lambda source: stuck)
        rep = differential_check(ms_parse("x <- 1"), family=[null_alloc()], wf_trials=2)
        assert not rep.ok and rep.inconclusive == ()
        assert [mm.variable for mm in rep.mismatches] == ["<run did not terminate>"]
        assert rep.describe().startswith("differential: FAILED\n")

    def test_each_member_runs_once(self, monkeypatch):
        from gai_lab import gai

        members = []
        real_run = notac.run

        def spy(env, strategy, *rest):
            members.append(strategy.name)
            return real_run(env, strategy, *rest)

        monkeypatch.setattr(gai, "run", spy)
        monkeypatch.setattr(notac, "run", spy)
        rep = differential_check(ms_parse("x <- alloc(2); [x] <- 7; y <- [x]"), wf_trials=2)
        assert rep.ok
        assert members == [beta.name for beta in gai.default_family()]

    def test_variables_that_overflow_the_window_are_rejected(self):
        # 70 variables, oom and the fill loop's counter: placed at 2048, the
        # last eight lay inside the segments and every run there was stuck.
        cmd = ms_parse("; ".join(f"x{i} <- {i}" for i in range(70)))
        assert len(translate(cmd).variables) == 72
        message = r"^the reserved window \[2048, 2112\) holds 64 cells, fewer than the program's 72 variables$"
        with pytest.raises(ValueError, match=message):
            differential_check(cmd, wf_trials=2)
        assert differential_check(cmd, family=[bump(0, 72, 136), null_alloc()], wf_trials=2).ok

    def test_memsafe_error_rejected(self):
        with pytest.raises(ValueError):
            differential_check(ms_parse("x <- 5; y <- [x]"))

    def test_pointer_store_disagreement_is_caught(self, monkeypatch):
        # sanity-check the harness itself: a translation that computes another
        # value must be reported under every member that finishes with oom
        # clear, not pass as agreement
        assert differential_check(ms_parse("x <- 2 + 2"), wf_trials=5).ok
        wrong = translate(ms_parse("x <- 2 + 3"))
        monkeypatch.setattr(memsafe, "translate", lambda source: wrong)
        rep = differential_check(ms_parse("x <- 2 + 2"), wf_trials=5)
        clear = [member for member, (kind, oom) in rep.runs.items() if kind == "terminated" and oom == 0]
        assert len(clear) == 7 and rep.mismatches == [DiffMismatch(member, "x", 4, 5) for member in clear]
        assert not rep.ok
        text = rep.describe()
        assert text.startswith("differential: FAILED\n")
        assert f"  mismatch under {clear[0]}: x = 4 (memsafe) vs 5 (notac)" in text.splitlines()


def test_guarded_commands_do_nothing_after_oom(monkeypatch):
    # once oom is set, translated programs emit no further events and stop
    # touching source-program cells
    cmd = ms_parse("x <- alloc(2); [x] <- 1; y <- alloc(3); [y] <- 2; z <- [x]")
    program = translate(cmd)
    env, heap, _ = notac.make_env(program, DEFAULT_ENV_BASE)
    strategy = no_zero(bump(2048, 2112, 2117))  # room for the first alloc only
    source_cells = [env[v] for v in ("x", "y", "z")]
    snapshots = []
    step = notac.step

    def snapshot_step(env, strategy, heap, stack, state):
        res = step(env, strategy, heap, stack, state)
        if res is not None and heap.read(env["oom"]) == 1:
            snapshots.append((res[2], [heap.read(a) for a in source_cells]))
        return res

    monkeypatch.setattr(notac, "step", snapshot_step)
    out = notac.run(env, strategy, program, heap)
    assert out.terminated
    assert out.heap.read(env["oom"]) == 1
    assert out.trace[-1] == MallocFailEv(3)  # nothing after the failing alloc
    assert snapshots, "the oom flag was never observed set"
    first_values = snapshots[0][1]
    assert all(values == first_values for _, values in snapshots)
    assert all(ev is None for ev, _ in snapshots[1:])  # no events after oom


class TestLongAndDeepPrograms:
    def test_long_command_chain_runs_and_translates(self):
        n = 2000
        cmd = ms_parse("x <- 0; " + "; ".join(f"x <- x + 1; v{k % 7} <- x" for k in range(n // 2)))
        out = ms_run(cmd)
        assert out.ok and out.state.store["x"] == n // 2
        program = translate(cmd)
        assert program.variables == ("x", *(f"v{k}" for k in range(7)), "oom", "__i")
        src = translate_to_source(cmd)
        assert src.count("\n") > n
        env, heap, _ = notac.make_env(program, DEFAULT_ENV_BASE)
        assert notac.run(env, null_alloc(), program, heap).heap.read(env["x"]) == n // 2

    def test_fuel_counts_command_nodes_and_guard_checks(self):
        # x <- 1; y <- 2 is one Seq and two assignments
        cmd = ms_parse("x <- 1; y <- 2")
        assert ms_run(cmd, fuel=3).ok and ms_run(cmd, fuel=2).kind == "diverged"
        # the loop node, three guard checks, and two bodies of three nodes each
        loop = ms_parse("while x <= 1 do x <- x + 1; skip end")
        assert ms_run(loop, {"x": 0}, fuel=10).ok
        assert ms_run(loop, {"x": 0}, fuel=9).kind == "diverged"

    def test_expression_nesting_is_bounded(self):
        n = notac.MAX_EXPR_DEPTH
        for src in (
            "x <- " + "(" * 2000 + "1" + ")" * 2000,
            "x <- " + " + ".join(["1"] * 3000),
            "x <- " + "(" * n + "-1" + ")" * n,
        ):
            with pytest.raises(MsParseError, match="MAX_EXPR_DEPTH"):
                ms_parse(src)
        # the Notac printer parenthesizes each operation, so a chain of k
        # terms prints k levels deep; two more stay free for ``*( )``
        assert ms_run(ms_parse("x <- " + " + ".join(["1"] * (n - 2)))).state.store["x"] == n - 2
        for src in ("x <- {}", "x <- [{}]", "x <- alloc({})", "if {} then skip else skip end"):
            with pytest.raises(MsParseError, match="prints nested deeper than MAX_EXPR_DEPTH"):
                ms_parse(src.format(" + ".join(["1"] * (n - 1))))

    def test_block_nesting_is_bounded(self):
        with pytest.raises(MsParseError, match=f"MAX_MS_BLOCK_DEPTH = {MAX_MS_BLOCK_DEPTH}"):
            ms_parse("while 0 do " * 1000 + "skip" + " end" * 1000)
        b = MAX_MS_BLOCK_DEPTH
        assert b == 48
        with pytest.raises(MsParseError, match="MAX_MS_BLOCK_DEPTH"):
            ms_parse("if 1 then " * (b + 1) + "skip" + " else skip end" * (b + 1))

    def test_deepest_blocks_with_deepest_expression_run_and_translate(self):
        b, e = MAX_MS_BLOCK_DEPTH, notac.MAX_EXPR_DEPTH
        body = f"x <- {'(' * e}1{')' * e}; y <- {' + '.join(['1'] * (e - 2))}; z <- alloc(1)"
        cmd = ms_parse("x <- 0; " + "while x <= 0 do " * b + body + " end" * b)
        out = ms_run(cmd)
        assert out.ok and out.state.store["y"] == e - 2
        program = translate(cmd)
        assert len([v for v in program.variables if v.startswith(GUARD_PREFIX)]) == b
        assert notac.parse(translate_to_source(cmd)).body == program.body
        env, heap, _ = notac.make_env(program, DEFAULT_ENV_BASE)
        ran = notac.run(env, null_alloc(), program, heap)
        assert ran.terminated and ran.heap.read(env["y"]) == e - 2


@st.composite
def ms_expr_sources(draw, parens=12):
    """Expression text mixing precedences and negative literals, with chains
    long enough to reach MAX_EXPR_DEPTH and one parenthesized chain nested
    up to ``parens`` deep."""
    size = draw(st.one_of(st.integers(1, 3), st.integers(40, 55)))
    terms = draw(st.lists(st.sampled_from(["1", "x", "nil", "-3", "-0"]), min_size=size, max_size=size))
    ops = draw(st.lists(st.sampled_from(["+", "-", "*", "==", "<="]), min_size=size - 1, max_size=size - 1))
    if parens and draw(st.booleans()):
        terms[draw(st.integers(0, size - 1))] = "(" + draw(ms_expr_sources(parens - 1)) + ")"
    return terms[0] + "".join(f" {op} {t}" for op, t in zip(ops, terms[1:]))


@st.composite
def ms_sources(draw):
    """Programs with blocks nested around MAX_MS_BLOCK_DEPTH around every kind
    of command; deep expressions sit in the innermost command and in the
    outermost condition."""
    e = ms_expr_sources()
    inner = draw(st.sampled_from(["x <- {}", "x <- [{}]", "[{}] <- {}", "x <- alloc({})", "skip"]))
    src = inner.format(*(draw(e) for _ in range(inner.count("{}"))))
    kinds = draw(st.one_of(st.lists(st.booleans(), max_size=2), st.lists(st.booleans(), min_size=46, max_size=50)))
    for level, is_if in enumerate(kinds, start=1):
        cond = draw(e) if level == len(kinds) else "x <= 1"
        src = f"if {cond} then {src} else skip end" if is_if else f"while {cond} do {src} end"
    return src


@settings(max_examples=100, deadline=None)
@given(ms_sources())
@example("if 1 then " * 48 + "x <- alloc(1)" + " else skip end" * 48)
@example("x <- [" + " + ".join(["1"] * 48) + "]")
@example("x <- 1 == 2 + 3 * (1 == 2 + 3 * (1 == 2 + 3 * -4))")
def test_accepted_programs_translate_to_notac_that_parses(src):
    try:
        cmd = ms_parse(src)
    except MsParseError:
        return
    text = translate_to_source(cmd)
    assert notac.parse(text).body == translate(cmd).body
