"""CLI surface: subcommands, formats, exit codes."""

import inspect
import json

import pytest

from click.testing import CliRunner

from gai_lab import cli, corpus, gai, memsafe, notac
from gai_lab.cli import main
from test_memsafe import BAD_SOURCES
from test_wf import OverlappingAlloc


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_trace(tmp_path):
    prog = write(tmp_path, "prog.ntc", "p = malloc(8); free(p); observe(1);")
    out = str(tmp_path / "trace.jsonl")
    res = invoke("run", prog, "--alloc", "eager:0,64,4096", "--out", out)
    assert res.exit_code == 0, res.output
    assert "terminated" in res.output
    lines = [json.loads(l) for l in open(out)]
    assert lines[0]["kind"] == "malloc" and lines[0]["size"] == 8


def test_run_null_allocator_trace(tmp_path):
    prog = write(tmp_path, "prog.ntc", "p = malloc(8); q = malloc(4);")
    res = invoke("run", prog, "--alloc", "null", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert [e["kind"] for e in data["trace"]] == ["mfail", "mfail"]


def test_run_missing_file_exits_2():
    res = invoke("run", "/nonexistent/prog.ntc")
    assert res.exit_code == 2


def test_run_stuck_exits_1(tmp_path):
    prog = write(tmp_path, "prog.ntc", "error();")
    res = invoke("run", prog)
    assert res.exit_code == 1
    assert "stuck" in res.output


def test_run_json_of_a_stuck_run_carries_its_reason_and_position(tmp_path):
    prog = write(tmp_path, "prog.ntc", "x = 1;\nerror();")
    res = invoke("run", prog, "--json")
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["outcome"] == "stuck" and data["position"] == [2, 1]
    assert data["reason"] == "write to inaccessible address -1"


def test_run_init_override(tmp_path):
    prog = write(tmp_path, "prog.ntc", "observe(flag);")
    res = invoke("run", prog, "--init", "flag=7")
    assert "obs(7)" in res.output


@pytest.mark.parametrize("command", ["run", "gai"])
def test_init_of_an_unknown_variable_exits_2(tmp_path, command):
    prog = write(tmp_path, "prog.ntc", "observe(flag);")
    assert_usage_error(invoke(command, prog, "--init", "nosuch=1"), "--init names unknown variable 'nosuch'")


@pytest.mark.parametrize("value", ["--5", "\u00b2", "\u0664\u0662", " 42", "+42"])
def test_init_value_that_is_not_an_int_exits_2(tmp_path, value):
    prog = write(tmp_path, "prog.ntc", "x = 1; observe(x);")
    assert_usage_error(invoke("run", prog, "--init", f"x={value}"), "bad --init")


@pytest.mark.parametrize("args, message", [
    (("run", "{prog}", "--alloc", "bump:4294967290,4294967300,4294967400"), "bad segment"),
    (("run", "{prog}", "--alloc", "eager:0,8,5000000000"), "bad segment"),
    (("run", "{prog}", "--alloc", "curious:33,8589934600"), "address bound"),
    (("gai", "{prog}", "--family", "eager:0,8,72;curious:33,8589934600"), "address bound"),
    (("wf", "bump:0,8,72", "--reserved", "4294967290:4294967300"), "bad --reserved"),
    (("run", "{prog}", "--base", "5000000000"), "--base 5000000000"),
    (("gai", "{prog}", "--base", "5000000000"), "--base 5000000000"),
    (("wf", "curious:10000000000,5", "--trials", "1"), "address bound"),
])
def test_geometry_past_the_address_bound_exits_2(tmp_path, args, message):
    prog = write(tmp_path, "prog.ntc", "x = 1; p = malloc(4); observe(x);")
    assert_usage_error(invoke(*(a.format(prog=prog) for a in args)), message)


def test_wf_of_a_curious_spec_with_m_0_exits_2():
    assert_usage_error(invoke("wf", "curious:0,2047", "--trials", "1"), "m must be >= 1")


def test_filter_takes_an_empty_witness_and_rejects_a_negative_count(tmp_path):
    prog = write(tmp_path, "prog.ntc", "observe(1);")
    trace = str(tmp_path / "a.jsonl")
    invoke("run", prog, "--alloc", "null", "--out", trace)
    res = invoke("filter", trace, "--sigma", "(empty)")
    assert res.exit_code == 0 and "obs(1)" in res.output
    assert_usage_error(invoke("filter", trace, "--sigma", "M-1"), "bad symbolic event")


def test_similar_and_filter(tmp_path):
    prog = write(tmp_path, "prog.ntc", "p = malloc(8); free(p); observe(1); observe(p);")
    ta = str(tmp_path / "a.jsonl")
    tb = str(tmp_path / "b.jsonl")
    invoke("run", prog, "--alloc", "eager:0,64,4096", "--out", ta)
    invoke("run", prog, "--alloc", "bump:0,300,4096", "--out", tb)  # different placement
    res = invoke("similar", ta, tb)
    assert res.exit_code == 1 and "not similar" in res.output

    # truncate both to their three-event prefixes
    for path in (ta, tb):
        lines = open(path).read().splitlines()[:3]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    res = invoke("similar", ta, tb)
    assert res.exit_code == 0 and "M8,F0" in res.output

    res = invoke("filter", ta, "--sigma", "M8,F0")
    assert res.exit_code == 0 and "obs(1)" in res.output
    res = invoke("filter", ta, "--sigma", "M4")
    assert res.exit_code == 1 and "no match" in res.output


def test_similar_and_filter_json(tmp_path):
    prog = write(tmp_path, "prog.ntc", "p = malloc(8); free(p); observe(1);")
    ta, tb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    invoke("run", prog, "--alloc", "eager:0,64,4096", "--out", ta)
    invoke("run", prog, "--alloc", "bump:0,300,4096", "--out", tb)  # different placement
    res = invoke("similar", ta, tb, "--json")
    assert res.exit_code == 0 and json.loads(res.output) == {"similar": True, "witness": "M8,F0"}
    res = invoke("filter", ta, "--sigma", "M8,F0", "--json")
    assert res.exit_code == 0 and json.loads(res.output) == {"match": True, "residue": [{"kind": "obs", "val": 1}]}


def test_malformed_trace_files_exit_2(tmp_path):
    good = write(tmp_path, "good.jsonl", '{"kind": "obs", "val": 1}\n')
    bad = write(tmp_path, "bad.jsonl",
                '{"kind": "obs", "val": 1}\n{"kind": "malloc", "size": "8", "addr": 3}\n')
    for args in (("similar", good, bad), ("similar", bad, good), ("filter", bad, "--sigma", "M8")):
        res = invoke(*args)
        assert res.exit_code == 2
        assert "bad.jsonl: bad trace file (line 2: malloc event needs an integer 'size'" in res.output
        assert "Traceback" not in res.output
    unhashable = write(tmp_path, "kind.jsonl", '{"kind": ["obs"], "val": 1}\n')
    res = invoke("filter", unhashable, "--sigma", "M8")
    assert res.exit_code == 2 and "kind.jsonl: bad trace file (line 1: unknown event kind ['obs'])" in res.output


def test_similar_identical_files(tmp_path):
    prog = write(tmp_path, "prog.ntc", "p = malloc(8); observe(p);")
    ta = str(tmp_path / "a.jsonl")
    invoke("run", prog, "--alloc", "eager:0,64,4096", "--out", ta)
    res = invoke("similar", ta, ta)
    assert res.exit_code == 0


def test_gai_verdicts(tmp_path):
    unsafe = write(tmp_path, "unsafe.ntc", "p = malloc(87); *(p) = 42; observe(*(p));")
    res = invoke("gai", unsafe, "--wf-trials", "5")
    assert res.exit_code == 1
    assert "violation" in res.output

    safe = write(tmp_path, "safe.ntc", "p = malloc(87); if (p != NULL) { *(p) = 42; observe(*(p)); }")
    res = invoke("gai", safe, "--wf-trials", "5", "--json")
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "pass"


def test_gai_custom_family(tmp_path):
    prog = write(tmp_path, "prog.ntc", "p = malloc(8); observe(1);")
    res = invoke("gai", prog, "--family", "eager:2048,2112,6208;bump:2048,2112,2176",
                 "--wf-trials", "5")
    assert res.exit_code == 0, res.output


def test_gai_reports_every_run_of_a_repeated_member(tmp_path):
    prog = write(tmp_path, "prog.ntc", "p = malloc(4); observe(p == NULL);")
    res = invoke("gai", prog, "--family", "null;null;eager:2048,2112,6208", "--json")
    assert res.exit_code == 0, res.output
    runs = json.loads(res.output)["runs"]
    assert sorted(runs) == ["eager:2048,2112,6208", "null", "null#2"]
    assert runs["null"] == runs["null#2"]


def test_gai_family_not_well_formed_exits_2(tmp_path, monkeypatch):
    # the members observe different addresses, so the violation rests on the ill-formed one
    real = cli.parse_alloc_spec
    monkeypatch.setattr(cli, "parse_alloc_spec",
                        lambda text: OverlappingAlloc() if text == "overlapping" else real(text))
    prog = write(tmp_path, "prog.ntc", "p = malloc(8); observe(p);")
    res = invoke("gai", prog, "--family", "overlapping;eager:2048,2112,6208")
    assert_usage_error(res, "error: family member overlapping failed well-formedness")


def test_gai_lists_the_probes_of_an_inconclusive_verdict(tmp_path):
    prog = write(tmp_path, "prog.ntc", "i = 0; while (1) { i = i + 1; }")
    probes = [f"{beta.name} ran out of fuel (50 steps)" for beta in gai.default_family()]
    res = invoke("gai", prog, "--fuel", "50")
    assert res.exit_code == 2 and res.output.startswith("verdict: inconclusive\n")
    assert [line for line in res.output.splitlines() if "inconclusive: " in line] == \
        [f"  inconclusive: {probe}" for probe in probes]
    res = invoke("gai", prog, "--fuel", "50", "--json")
    assert res.exit_code == 2 and json.loads(res.output)["inconclusive_probes"] == probes


def test_wf_subcommand():
    res = invoke("wf", "bump:0,8,72", "--trials", "50")
    assert res.exit_code == 0
    assert res.output.count("status=pass") == 10

    res = invoke("wf", "bogus:1", "--trials", "1")
    assert res.exit_code == 2


@pytest.mark.parametrize("spec", ["curious:9,2047", "nozero(curious:9,2047)"])
def test_wf_default_reserved_lies_outside_a_curious_world(spec):
    res = invoke("wf", spec, "--trials", "5")
    assert res.exit_code == 0, res.output
    assert res.output.count("status=pass") == 10


def test_wf_default_reserved_is_the_start_of_the_window():
    # eager:0,2,72 manages [2, 72); a default of 0:8 would overlap it.
    res = invoke("wf", "eager:0,2,72", "--trials", "50")
    assert res.exit_code == 0, res.output
    assert res.output.count("status=pass") == 10


def test_wf_asks_for_reserved_when_the_cells_above_a_curious_world_pass_the_bound():
    assert_usage_error(invoke("wf", "curious:9,4294967290", "--trials", "1"), "give --reserved")


def test_wf_json_carries_the_failing_trial_and_a_witness_that_replays():
    from gai_lab.alloc_model import ClientUpdate, check_history, parse_symseq
    from gai_lab.allocators import parse_alloc_spec
    from gai_lab.core import Heap

    res = invoke("wf", "bump:0,4,20", "--json", "--trials", "50", "--reserved", "0:8")
    assert res.exit_code == 1
    entries = json.loads(res.output)
    assert len(entries) == 10
    failed = [e for e in entries if e["status"] == "fail"]
    assert failed
    reserved = frozenset(range(0, 8))  # --reserved 0:8, which overlaps the managed cells [4, 20)
    for entry in entries:
        if entry["status"] == "pass":
            assert set(entry) == {"clause", "status"}
            continue
        assert set(entry) == {"clause", "status", "trial", "witness"}
        assert 0 <= entry["trial"] < 50
        w = entry["witness"]
        assert set(w) == {"sigma", "updates1", "updates2", "detail"}
        updates1, updates2 = (
            tuple(ClientUpdate(tuple(map(tuple, writes))) for writes in w[key])
            for key in ("updates1", "updates2")
        )
        violations = check_history(
            parse_alloc_spec("bump:0,4,20"), reserved, Heap({a: 0 for a in reserved}),
            parse_symseq(w["sigma"]), updates1, updates2,
        )
        assert violations[entry["clause"]] == w["detail"]


def test_ms_run_and_translate(tmp_path):
    ms = write(tmp_path, "prog.ms", "x <- alloc(2); [x] <- 7; y <- [x]")
    res = invoke("ms-run", ms)
    assert res.exit_code == 0
    assert "y = 7" in res.output

    out = str(tmp_path / "prog.ntc")
    res = invoke("translate", ms, "-o", out)
    assert res.exit_code == 0
    text = open(out).read()
    assert "malloc(__i)" in text

    res = invoke("run", out, "--alloc", "eager:2048,2112,6208")
    assert res.exit_code == 0 and "terminated" in res.output


def test_ms_run_huge_alloc_exits_0(tmp_path):
    ms = write(tmp_path, "big.ms", "x <- alloc(1000000000000); [x + 100000000000] <- 5; y <- [x + 100000000000]")
    res = invoke("ms-run", ms)
    assert res.exit_code == 0, res.output
    assert "y = 5" in res.output


@pytest.mark.parametrize("command", ["ms-run", "translate"])
@pytest.mark.parametrize("text, pos, message", BAD_SOURCES)
def test_memsafe_parse_errors_exit_2_with_line_and_column(tmp_path, command, text, pos, message):
    ms = write(tmp_path, "bad.ms", text)
    res = invoke(command, ms)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert f"{ms}: {pos[0]}:{pos[1]}: " in res.output and message in res.output


def test_run_rejects_a_non_ascii_digit_with_line_and_column(tmp_path):
    prog = write(tmp_path, "prog.ntc", "x = 1;\nobserve(\u0667\u0662);")  # Arabic-Indic 72
    assert_usage_error(invoke("run", prog), f"{prog}: 2:9: unexpected character '\u0667'")


def test_ms_run_error_exit(tmp_path):
    ms = write(tmp_path, "bad.ms", "x <- 5; y <- [x]")
    res = invoke("ms-run", ms)
    assert res.exit_code == 1
    assert "error" in res.output


def test_translate_of_a_program_using_translator_variables_exits_2(tmp_path):
    ms = write(tmp_path, "prog.ms", "x <- 1; oom <- x")
    assert_usage_error(invoke("translate", ms), f"error: {ms}: program uses translator variables: ['oom']")


def test_nesting_past_the_bounds_exits_2(tmp_path):
    memsafe_sources = {
        "parens.ms": "x <- " + "(" * 2000 + "1" + ")" * 2000,
        "loops.ms": "while 0 do " * 1000 + "skip" + " end" * 1000,
        "sum.ms": "x <- " + " + ".join(["1"] * 3000),
    }
    for name, text in memsafe_sources.items():
        ms = write(tmp_path, name, text)
        for args in (("ms-run", ms), ("translate", ms)):
            res = invoke(*args)
            assert res.exit_code == 2, (args, res.output)
            assert "nested deeper than MAX_" in res.output
            assert "Traceback" not in res.output
    ntc = write(tmp_path, "deep.ntc", "if (1) {" * 1000 + "skip;" + "}" * 1000)
    res = invoke("run", ntc)
    assert res.exit_code == 2 and "MAX_BLOCK_DEPTH" in res.output


def test_corpus_table():
    res = invoke("corpus", "--wf-trials", "5")
    assert res.exit_code == 0, res.output
    assert "10/10 verdicts match" in res.output


def test_corpus_json():
    res = invoke("corpus", "--wf-trials", "5", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data) == 10
    assert all(row["expected"] == row["actual"] for row in data)


def test_corpus_marks_inconclusive_cases_and_exits_2():
    res = invoke("corpus", "--fuel", "3", "--wf-trials", "2")
    assert res.exit_code == 2, res.output
    rows = res.output.splitlines()[:-1]
    assert sum(row.endswith(" inconclusive") for row in rows) == 9
    assert "null-deref" in next(row for row in rows if row.endswith(" ok"))
    assert "MISMATCH" not in res.output and "1/10 verdicts match" in res.output
    data = json.loads(invoke("corpus", "--fuel", "3", "--wf-trials", "2", "--json").output)
    assert sum(row["actual"] == "INCONCLUSIVE" for row in data) == 9


def test_corpus_contradiction_exits_1_beside_inconclusive_cases():
    res = invoke("corpus", "--family", "eager:2048,2112,6208", "--fuel", "4", "--wf-trials", "2")
    assert res.exit_code == 1, res.output
    assert "MISMATCH" in res.output and " inconclusive" in res.output


def test_corpus_family_not_well_formed_exits_2(monkeypatch):
    # eager's runs differ from the ill-formed member's, so a violation rests on it.
    real = cli.parse_alloc_spec
    monkeypatch.setattr(cli, "parse_alloc_spec",
                        lambda text: OverlappingAlloc() if text == "overlapping" else real(text))
    res = invoke("corpus", "--family", "overlapping;eager:2048,2112,6208")
    assert_usage_error(res, "error: family member overlapping failed well-formedness")


def test_corpus_places_variables_in_the_window_the_family_shares():
    # The shared window is [0, 8), where gai puts the variables too; at 2048
    # they would lie inside the eager segment, which then looks ill-formed.
    res = invoke("corpus", "--family", "eager:0,8,4096;bump:0,8,72", "--wf-trials", "5")
    assert res.exit_code == 1, res.output
    assert "well-formedness" not in res.output
    assert len(res.output.splitlines()) == 11 and res.output.endswith("/10 verdicts match\n")


def test_corpus_exits_2_when_the_windows_of_the_family_do_not_meet():
    res = invoke("corpus", "--family", "eager:0,8,4096;bump:100,108,200")
    assert_usage_error(res, "error: the reserved window [100, 100) holds 0 cells, fewer than the program's")


def assert_usage_error(res, message):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert message in res.output


@pytest.mark.parametrize("command, option, message", [
    ("run", "--fuel", "x>=0"),
    ("run", "--base", "x>=0"),
    ("gai", "--fuel", "x>=0"),
    ("gai", "--base", "x>=0"),
    ("gai", "--wf-trials", "x>=0"),
    ("ms-run", "--fuel", "x>=0"),
])
def test_negative_bounds_exit_2(tmp_path, command, option, message):
    source = "x <- 1" if command == "ms-run" else "p = malloc(8); observe(1);"
    prog = write(tmp_path, "prog.src", source)
    assert_usage_error(invoke(command, prog, option, "-1"), message)


@pytest.mark.parametrize("option", ["--trials", "--maxlen"])
def test_wf_negative_counts_exit_2(option):
    assert_usage_error(invoke("wf", "bump:0,8,72", option, "-1"), "x>=0")


@pytest.mark.parametrize("option", ["--fuel", "--wf-trials"])
def test_corpus_negative_bounds_exit_2(option):
    assert_usage_error(invoke("corpus", option, "-1"), "x>=0")


@pytest.mark.parametrize("reserved", ["-3:2", "5:2"])
def test_wf_reserved_range_must_be_ordered_and_non_negative(reserved):
    assert_usage_error(invoke("wf", "bump:0,8,72", "--reserved", reserved), "0 <= lo <= hi")


def test_wf_rejects_a_reserved_window_above_max_spec_cells():
    res = invoke("wf", "bump:0,8,72", "--reserved", "0:1048577")
    assert_usage_error(res, "spans 1048577 cells, more than MAX_SPEC_CELLS = 1048576")


def test_wf_rejects_a_bump_span_above_max_spec_cells():
    assert_usage_error(invoke("wf", "bump:0,8,1048586"), "more than MAX_SPEC_CELLS")


def test_empty_family_exits_2(tmp_path):
    prog = write(tmp_path, "prog.ntc", "p = malloc(8); observe(1);")
    assert_usage_error(invoke("gai", prog, "--family", ";"), "names no allocator")
    assert_usage_error(invoke("corpus", "--family", " ; "), "names no allocator")


@pytest.mark.parametrize("args, message", [
    (("wf", "eager:0,8,\u0667\u0662"), "bad allocator spec"),
    (("wf", "eager: 0, 8,72"), "bad allocator spec"),
    (("run", "{prog}", "--alloc", "eager:0,8,\u0667\u0662"), "bad allocator spec"),
    (("wf", "bump:0,8,72", "--reserved", " 0:\u0668"), "bad --reserved"),
    (("wf", "bump:0,8,72", "--reserved", "0:+8"), "bad --reserved"),
])
def test_numbers_other_than_ascii_digits_exit_2(tmp_path, args, message):
    prog = write(tmp_path, "prog.ntc", "x = 1; observe(x);")
    assert_usage_error(invoke(*(a.format(prog=prog) for a in args)), message)


def test_init_takes_a_negative_value(tmp_path):
    prog = write(tmp_path, "prog.ntc", "observe(x);")
    res = invoke("run", prog, "--init", "x=-42")
    assert res.exit_code == 0 and "obs(-42)" in res.output


def nested_nozero(levels: int) -> str:
    return "nozero(" * levels + "bump:0,8,72" + ")" * levels


@pytest.mark.parametrize("levels", [2, 2000])
@pytest.mark.parametrize("args", [("wf", "{spec}"), ("run", "{prog}", "--alloc", "{spec}"),
                                  ("gai", "{prog}", "--family", "{spec}")], ids=["wf", "run", "gai"])
def test_nested_nozero_exits_2(tmp_path, args, levels):
    prog = write(tmp_path, "prog.ntc", "x = 1; observe(x);")
    spec = nested_nozero(levels)
    res = invoke(*(a.format(prog=prog, spec=spec) for a in args))
    assert_usage_error(res, "nozero( directly inside nozero(")


def test_one_nozero_still_parses():
    assert invoke("wf", nested_nozero(1), "--trials", "5").exit_code == 0


@pytest.mark.parametrize("command", ["run", "translate"])
def test_an_unwritable_output_path_exits_2(tmp_path, command):
    if command == "run":
        args = ("run", write(tmp_path, "prog.ntc", "observe(1);"), "--out", "/nonexistent/x")
    else:
        args = ("translate", write(tmp_path, "prog.ms", "x <- 1"), "-o", "/nonexistent/x")
    res = invoke(*args)
    assert_usage_error(res, "error: ")
    assert "/nonexistent/x" in res.output


def test_run_out_of_fuel_exits_2_and_names_the_fuel(tmp_path):
    prog = write(tmp_path, "prog.ntc", "i = 0; while (1) { i = i + 1; }")
    res = invoke("run", prog, "--fuel", "50")
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stdout.startswith("outcome: out-of-fuel\ntrace: ")
    assert res.stderr == "inconclusive: ran out of fuel (50 steps)\n"
    res = invoke("run", prog, "--fuel", "50", "--json")
    assert res.exit_code == 2 and json.loads(res.stdout)["outcome"] == "out-of-fuel"
    # One default bound: every function and option that takes fuel defaults to DEFAULT_FUEL.
    for fn in (notac.run, gai.gai_check, memsafe.ms_run, memsafe.ms_eval_cmd,
               memsafe.differential_check, corpus.run_corpus):
        assert inspect.signature(fn).parameters["fuel"].default is notac.DEFAULT_FUEL, fn.__name__
    for command in ("run", "gai", "ms-run", "corpus"):
        fuel = next(p for p in main.commands[command].params if p.name == "fuel")
        assert fuel.default is notac.DEFAULT_FUEL, command


def test_wf_trials_and_the_run_allocator_are_stated_once():
    for fn, name in ((gai.gai_check, "wf_trials"), (gai.check_family_wf, "trials"),
                     (memsafe.differential_check, "wf_trials")):
        assert inspect.signature(fn).parameters[name].default is gai.DEFAULT_WF_TRIALS, fn.__name__
    wf_trials = next(p for p in main.commands["gai"].params if p.name == "wf_trials")
    assert wf_trials.default is gai.DEFAULT_WF_TRIALS
    assert inspect.signature(corpus.run_corpus).parameters["wf_trials"].default is corpus.CORPUS_WF_TRIALS
    wf_trials = next(p for p in main.commands["corpus"].params if p.name == "wf_trials")
    assert wf_trials.default is corpus.CORPUS_WF_TRIALS == 10
    alloc = next(p for p in main.commands["run"].params if p.name == "alloc")
    assert alloc.default == "eager:" + ",".join(map(str, gai.DEFAULT_EAGER_SEGMENT)) == "eager:2048,2112,6208"


NINE_VARIABLES = "a=1;b=2;c=3;d=4;e=5;f=6;g=7;h=8;i=9;observe(i);"


@pytest.mark.parametrize("alloc", ["eager:0,8,72", "bump:0,8,72", "nozero(bump:0,8,72)"])
def test_run_rejects_a_default_base_whose_window_is_smaller_than_the_variables(tmp_path, alloc):
    prog = write(tmp_path, "nine.ntc", NINE_VARIABLES)
    assert_usage_error(invoke("run", prog, "--alloc", alloc),
                       "the reserved window [0, 8) holds 8 cells, fewer than the program's 9 variables")
    # Eight variables fit the window.
    res = invoke("run", write(tmp_path, "eight.ntc", "a=1;b=2;c=3;d=4;e=5;f=6;g=7;h=8;observe(h);"), "--alloc", alloc)
    assert res.exit_code == 0 and "obs(8)" in res.output


def test_run_places_the_variables_above_a_curious_world(tmp_path):
    prog = write(tmp_path, "prog.ntc", "x = 1; p = malloc(4); observe(x);")
    res = invoke("run", prog, "--alloc", "curious:10,4095", "--json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["trace"][-1] == {"kind": "obs", "val": 1}


def test_gai_default_base_is_the_start_of_the_family_window(tmp_path):
    # The members share [2048, 2050): two cells for three variables.
    prog = write(tmp_path, "prog.ntc", "x = 1; y = 2; z = 3; observe(x);")
    family = "bump:2048,2050,2100;eager:2048,2112,6208"
    assert_usage_error(invoke("gai", prog, "--family", family, "--wf-trials", "5"),
                       "the reserved window [2048, 2050) holds 2 cells, fewer than the program's 3 variables")
    res = invoke("gai", prog, "--family", "bump:2050,2058,2100;eager:2048,2112,6208", "--wf-trials", "5")
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("alloc", ["eager:0,8,72", "bump:0,8,72"])
def test_run_takes_an_explicit_base_as_given(tmp_path, alloc):
    prog = write(tmp_path, "nine.ntc", NINE_VARIABLES)
    res = invoke("run", prog, "--alloc", alloc, "--base", "100")
    assert res.exit_code == 0 and "obs(9)" in res.output
    # In the window, the ninth variable is the null cell, as before.
    res = invoke("run", prog, "--alloc", alloc, "--base", "0")
    assert res.exit_code == 1 and "write to inaccessible address 8" in res.output


def test_ms_run_out_of_fuel_exits_2_and_names_the_fuel(tmp_path):
    ms = write(tmp_path, "loop.ms", "while 1 do skip end")
    res = invoke("ms-run", ms, "--fuel", "60")
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stdout == "outcome: diverged (fuel exhausted)\n"
    assert res.stderr == "inconclusive: ran out of fuel (60 steps)\n"


HUGE = "7" * 5000  # past Python's default limit of 4,300 digits per int-string conversion


@pytest.mark.parametrize("args", [("run", "{ntc}"), ("gai", "{ntc}", "--wf-trials", "2"),
                                  ("ms-run", "{ms}"), ("translate", "{ms}")])
def test_a_literal_of_5000_digits_is_read_whole(tmp_path, args):
    ntc = write(tmp_path, "big.ntc", f"x = {HUGE}; observe(x);")
    ms = write(tmp_path, "big.ms", f"x <- {HUGE}")
    res = invoke(*(a.format(ntc=ntc, ms=ms) for a in args))
    assert res.exit_code == 0, res.output
    assert HUGE in res.output


@pytest.mark.parametrize("args", [("run", "{ntc}"), ("run", "{ntc}", "--json"),
                                  ("gai", "{ntc}", "--wf-trials", "2"), ("ms-run", "{ms}")])
def test_a_value_grown_past_4300_digits_is_printed_whole(tmp_path, args):
    ntc = write(tmp_path, "grow.ntc", "x = 10; i = 0; while (i < 13) { x = x * x; i = i + 1; } observe(x);")
    ms = write(tmp_path, "grow.ms", "x <- 10; i <- 0; while i <= 12 do x <- x * x; i <- i + 1 end")
    res = invoke(*(a.format(ntc=ntc, ms=ms) for a in args))
    assert res.exit_code == 0, res.output
    assert "1" + "0" * 2 ** 13 in res.output  # 10 ** 2 ** 13
