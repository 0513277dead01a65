"""A golden file that pins the front end Notac and Memsafe share.

``tests/data/parse_golden.txt`` holds one line per input: ``ok <sha256 of
repr(result)>`` for a parse that succeeds (statement positions and the
program's variables included) or ``error <message>`` for one that fails,
the message carrying the error's ``line:col``.  The inputs come from fixed
seeds below: token soups and random programs of both languages,
single-character deletions of the corpus cases, the corpus sources, a
48-node XOR-list script, the benchmark's 20 Memsafe programs with their
translations, and expressions at the ``MAX_EXPR_DEPTH`` boundary.  A change to the parser that is meant
to move a tree, a position or an error must regenerate the file openly,
from the root of a checkout:

    PYTHONPATH=src:tests python3 tests/test_parse_golden.py
"""

import hashlib
import random
import re
from pathlib import Path

from gai_lab import corpus
from gai_lab.memsafe import ms_parse, translate_to_source
from gai_lab.notac import MAX_EXPR_DEPTH, ParseError, Program, Seq, parse
from test_notac import collect_vars

GOLDEN = Path(__file__).resolve().parent / "data" / "parse_golden.txt"

# Layout tokens both languages share: a tab, both line ends, a comment, and a
# character neither language has.
LAYOUT = (" ", " ", "\n", "\r\n", "\t", "// c\n", "$")
NOTAC_MENU = LAYOUT + (
    "if", "else", "while", "skip", "observe", "free", "malloc", "cast", "NULL", "error",
    "x", "y", "p", "a1", "_t", "0", "7", "42", "007",
    "||", "&&", "==", "!=", "<=", ">=", "-", "+", "*", "^", "<", ">", "=", "&",
    "(", ")", "{", "}", ";", ",", "!", "|", "/",
)
MEMSAFE_MENU = LAYOUT + (
    "skip", "if", "then", "else", "end", "while", "do", "alloc", "nil",
    "x", "y", "p", "a1", "_t", "0", "7", "42", "007",
    "<-", "<=", "==", "=", "-", "+", "*", ";", "(", ")", "[", "]", "&", "{",
)

# The benchmark's Memsafe differential programs (``perfbench/workloads.py``).
MEMSAFE_PROGRAMS = (
    "x <- 1 + 2",
    "x <- 5 * 7 - 3",
    "x <- 2 <= 3; y <- 3 <= 2",
    "x <- nil == nil",
    "s <- 0; i <- 1; while i <= 5 do s <- s + i; i <- i + 1 end",
    "a <- 0; b <- 1; i <- 0; while i <= 8 do t <- a + b; a <- b; b <- t; i <- i + 1 end",
    "x <- alloc(2); [x] <- 7; y <- [x]",
    "x <- alloc(3); y <- [x + 1]",
    "a <- alloc(4); i <- 0; while i <= 3 do [a + i] <- i * i; i <- i + 1 end;"
    " t0 <- [a]; t1 <- [a + 1]; t2 <- [a + 2]; t3 <- [a + 3]; s <- t0 + t1 + t2 + t3",
    "x <- alloc(0); y <- 4",
    "p <- alloc(2); q <- alloc(2); e <- p == q; [p] <- 1; [q] <- 2;"
    " w0 <- [p]; w1 <- [q]; d <- w0 + w1",
    "s <- 0; i <- 0; while i <= 3 do j <- 0; while j <= 3 do s <- s + 1; j <- j + 1 end;"
    " i <- i + 1 end",
    "a <- alloc(1); b <- alloc(1); [a] <- 5; t <- [a]; [b] <- t + 1; c <- [b]",
    "a <- alloc(5); i <- 0; while i <= 4 do [a + i] <- i; i <- i + 1 end;"
    " p <- a + 2; u0 <- [p]; u1 <- [p + 1]; u2 <- [p - 1]; v <- u0 + u1 + u2",
    "x <- 10; if x <= 5 then y <- 1 else y <- 2 end",
    "x <- 1; if x then a <- alloc(2); [a] <- 3; r <- [a] else r <- 0 end",
    "a <- alloc(3); [a + 2 - 1] <- 42; m <- [a + 1]",
    "y <- x0 * 2",
    "i <- 0; s <- 0; while i <= 2 do a <- alloc(2); [a + 1] <- i; t <- [a + 1];"
    " s <- s + t; i <- i + 1 end",
    "n <- nil; x <- alloc(1); t <- x == nil; if t then r <- 1 else r <- 2 end",
)


def soups(menu: tuple, count: int, seed: int) -> list[str]:
    """``count`` strings of 1-24 tokens drawn from ``menu``, glued together."""
    rng = random.Random(seed)
    return ["".join(rng.choice(menu) for _ in range(rng.randrange(1, 25))) for _ in range(count)]


def programs(lang: str, count: int, seed: int) -> list[str]:
    """``count`` random programs, mostly well formed, with random layout
    between tokens, so that trees, precedence and positions all vary."""
    rng = random.Random(seed)
    if lang == "notac":
        operands, prefixes = ("x", "y", "p", "0", "7", "42", "NULL", "&x"), ("-", "*")
        binops = ("||", "&&", "^", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*")
    else:
        operands, prefixes = ("x", "y", "p", "0", "7", "42", "nil", "-3"), ()
        binops = ("==", "=", "<=", "+", "-", "*")

    def gap() -> str:
        return rng.choice(("", " ", " ", "\n", "\r\n", "\t", " // c\n"))

    def expr(depth: int = 0) -> str:
        parts = []
        for j in range(rng.randrange(1, 5)):
            if j:
                parts.append(gap() + rng.choice(binops) + gap())
            pre = "".join(rng.choice(prefixes) + gap() for _ in range(rng.randrange(3))) if prefixes else ""
            if depth < 3 and rng.random() < 0.25:
                parts.append(pre + "(" + gap() + expr(depth + 1) + gap() + ")")
            else:
                parts.append(pre + rng.choice(operands))
        return "".join(parts)

    sep = "" if lang == "notac" else ";"

    def stmts(depth: int, most: int) -> str:
        return (sep + gap()).join(stmt(depth) for _ in range(rng.randrange(1, most)))

    def stmt(depth: int) -> str:
        if lang == "notac":
            forms = ["x = {e};", "observe({e});", "*({e}) = {e};", "p = malloc({e});", "free({e});",
                     "y = cast({e});", "skip;", "error();"]
            if depth < 2:
                forms += ["if ({e}) { {b} } else { {b} }", "while ({e}) { {b} }", "if ({e}) { {b} };"]
        else:
            forms = ["x <- {e}", "y <- [{e}]", "[{e}] <- {e}", "p <- alloc({e})", "skip"]
            if depth < 2:
                forms += ["if {e} then {b} else {b} end", "while {e} do {b} end"]
        fill = {"{e}": expr, "{b}": lambda: stmts(depth + 1, 3), "{g}": gap}
        return "".join(fill[piece]() if piece in fill else piece
                       for piece in re.split(r"(\{[egb]\})", rng.choice(forms).replace(" ", "{g}")))

    return [stmts(0, 5) for _ in range(count)]


def deletions(src: str, count: int, seed: int) -> list[str]:
    """``src`` with one character removed, at ``count`` drawn positions."""
    rng = random.Random(seed)
    return [src[:i] + src[i + 1:] for i in rng.sample(range(len(src)), min(count, len(src)))]


def notac_depth_cases() -> list[str]:
    """Chains, parentheses and prefix runs just inside, at and past the bound."""
    out = []
    for k in (MAX_EXPR_DEPTH - 1, MAX_EXPR_DEPTH, MAX_EXPR_DEPTH + 1):
        for op in ("+", "*", "||", "^"):
            out.append(f"observe({f' {op} '.join(['1'] * (k + 1))});")
        half = k // 2
        out.append("observe(" + " + ".join(["1"] * half) + " + " + " * ".join(["2"] * (k - half + 1)) + ");")
        out.append("observe(" + " * ".join(["2"] * (k - half + 1)) + " + " + " + ".join(["1"] * half) + ");")
        out.append("x = " + " || ".join(["1"] * half) + " || " + " < ".join(["2"] * (k - half + 1)) + ";")
        out.append("observe(" + "(" * k + "1" + ")" * k + ");")
        out.append("observe(" + "(" * half + " + ".join(["1"] * (k - half + 1)) + ")" * half + ");")
        out.append("observe(" + "-" * k + "1);")
        out.append("observe(" + "*" * k + "x);")
        out.append("*" * k + "x = 1;")
        out.append("x = " + "(" * (k - 1) + "-1" + ")" * (k - 1) + ";")
    return out


def memsafe_depth_cases() -> list[str]:
    """Memsafe bounds both nesting and the printed depth of a translation."""
    out = []
    for k in range(MAX_EXPR_DEPTH - 6, MAX_EXPR_DEPTH + 2):
        for op in ("+", "*", "=="):
            out.append(f"x <- {f' {op} '.join(['1'] * (k + 1))}")
        out.append("x <- " + "(" * k + "1" + ")" * k)
        out.append("x <- " + "(" * k + "-1" + ")" * k)
        out.append("[" + " + ".join(["p"] * (k + 1)) + "] <- 1")
    for k in range(20, 30):
        out.append("x <- " + "1 + (" * k + "1" + ")" * k)
    return out


def spine_repr(node) -> str:
    """``repr(node)``, walking ``Seq`` chains in a loop: a program's chain is
    as deep as it has statements, deeper than ``repr`` may recurse."""
    if isinstance(node, Program):
        return f"Program(body={spine_repr(node.body)}, variables={node.variables!r})"
    heads = []
    while type(node) is Seq:
        heads.append(f"Seq(first={spine_repr(node.first)}, second=")
        node = node.second
    return "".join(heads) + repr(node) + ")" * len(heads)


def outcome(parser, src: str) -> str:
    try:
        result = parser(src)
    except ParseError as exc:  # Memsafe's errors subclass Notac's
        return f"error {exc}"
    return f"ok {hashlib.sha256(spine_repr(result).encode()).hexdigest()}"


def inputs() -> list[tuple]:
    """``(parser, source)`` of every golden input, in file order."""
    xor = corpus.xor_script([("new", 11)] + [("push", 13 * v) for v in range(2, 49)]
                            + [("get", 0), ("get", 47), ("get", 20)])
    notac_sources = [case.source for case in corpus.CASES]
    notac_sources += [corpus.xor_script(ops) for ops in corpus.XOR_SCRIPTS.values()] + [xor]
    notac_sources += [translate_to_source(ms_parse(src)) for src in MEMSAFE_PROGRAMS]
    notac = soups(NOTAC_MENU, 3000, seed=1) + programs("notac", 1000, seed=3)
    for k, case in enumerate(corpus.CASES):
        notac += deletions(case.source, 100, seed=100 + k)
    notac += notac_sources + notac_depth_cases()
    memsafe = soups(MEMSAFE_MENU, 3000, seed=2) + programs("memsafe", 1000, seed=4)
    memsafe += list(MEMSAFE_PROGRAMS) + memsafe_depth_cases()
    return [(parse, src) for src in notac] + [(ms_parse, src) for src in memsafe]


def golden_lines() -> list[str]:
    return [outcome(parser, src) for parser, src in inputs()]


def test_every_parse_is_the_committed_one():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    bad = [(k, src, g, w) for k, ((_, src), g, w) in enumerate(zip(inputs(), got, want)) if g != w]
    assert not bad, f"{len(bad)} inputs differ; the first: {bad[0]}"


def test_both_grammars_read_the_variables_the_tree_holds():
    for parser, src in inputs():
        try:
            program = parser(src)
        except ParseError:
            continue
        assert program.variables == tuple(collect_vars(program.body)), src


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
