"""Command-line entry point.

Subcommands: ``run`` (execute a .ntc file under one allocator), ``similar``
and ``filter`` (trace reasoning), ``gai`` (differential check), ``wf``
(allocator well-formedness), ``ms-run`` / ``translate`` (Memsafe), and
``corpus`` (the worked-example table).  Exit codes: 0 pass/ok, 1 violation
or a verdict that contradicts the expected one, 2 usage errors and
inconclusive results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

import click

from . import corpus as corpus_mod
from . import memsafe, notac
from .alloc_model import WF_MAX_LEN, WF_TRIALS, format_symseq, parse_symseq, wf_check
from .allocators import EagerAlloc, parse_alloc_spec
from .core import H_MAX_DEFAULT, MAX_SPEC_CELLS, Heap, parse_int
from .filtering import similar, sym_filter
from .gai import DEFAULT_EAGER_SEGMENT, DEFAULT_WF_TRIALS, FamilyNotWellFormed
from .gai import default_family, gai_check, variable_base


# Counts, bounds and addresses: click rejects a negative one with exit 2.
NATURAL = click.IntRange(min=0)


def _fail(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(2)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        _fail(str(exc))


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _fail(str(exc))


def _parse_inits(pairs) -> dict:
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        try:
            number = parse_int(value, signed=True)
        except ValueError:
            number = None
        if not name or number is None:
            _fail(f"bad --init {pair!r}, expected name=int")
        out[name] = number
    return out


def _parse_file(parse, path: str):
    """``parse`` applied to the file's text; exit 2 with ``path: L:C: ...``
    on a parse error."""
    try:
        return parse(_read_text(path))
    except notac.ParseError as exc:
        _fail(f"{path}: {exc}")


def _load_program(path: str, base: Optional[int], inits: dict, strategies: list):
    """A ``base`` of ``None`` is :func:`gai_lab.gai.variable_base` of the strategies."""
    program = _parse_file(notac.parse, path)
    if base is None:
        try:
            base = variable_base(strategies, len(program.variables))
        except ValueError as exc:
            _fail(f"{exc}; give --base")
    if base + len(program.variables) > H_MAX_DEFAULT:
        _fail(f"--base {base} puts the program's variables past the last address {H_MAX_DEFAULT - 1}")
    try:
        env, heap, _reserved = notac.make_env(program, base, inits)
    except ValueError as exc:
        _fail(f"--init names {exc}")
    return program, env, heap


def _family_from(spec: str):
    if spec == "default":
        return default_family()
    items = [s for chunk in spec.split(";") for s in chunk.split() if s]
    if not items:
        _fail(f"--family {spec!r} names no allocator")
    try:
        return [parse_alloc_spec(s) for s in items]
    except ValueError as exc:
        _fail(str(exc))


@click.group()
def main():
    """Allocator-independence workbench."""
    # Values are unbounded ints (see ``core``), so read and print them whole.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command("run")
@click.argument("program_path")
@click.option("--alloc", default=EagerAlloc(*DEFAULT_EAGER_SEGMENT).name, show_default=True, help="Allocator spec.")
@click.option("--fuel", default=notac.DEFAULT_FUEL, show_default=True, type=NATURAL)
@click.option("--base", default=None, type=NATURAL,
              help="Variable base address (default: the allocator's reserved window).")
@click.option("--init", "inits", multiple=True, help="Initial variable value, name=int.")
@click.option("--out", "out_path", default=None, help="Write the trace (JSON lines) here.")
@click.option("--json", "as_json", is_flag=True)
def cmd_run(program_path, alloc, fuel, base, inits, out_path, as_json):
    """Run a Notac program and print its outcome and trace."""
    try:
        strategy = parse_alloc_spec(alloc)
    except ValueError as exc:
        _fail(str(exc))
    program, env, heap = _load_program(program_path, base, _parse_inits(inits), [strategy])
    outcome = notac.run(env, strategy, program, heap, fuel)
    if out_path:
        _write_text(out_path, notac.dump_trace(outcome.trace))
    if as_json:
        payload = {
            "outcome": outcome.kind,
            "trace": [notac.event_to_json(e) for e in outcome.trace],
        }
        if outcome.stuck:
            payload["reason"] = outcome.reason
            payload["position"] = list(outcome.pos)
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(f"outcome: {outcome.kind}")
        if outcome.stuck:
            click.echo(f"reason: {outcome.reason} (at {outcome.pos[0]}:{outcome.pos[1]})")
        click.echo(f"trace: {notac.format_trace(outcome.trace)}")
    if outcome.kind == "out-of-fuel":  # inconclusive
        click.echo(f"inconclusive: ran out of fuel ({fuel} steps)", err=True)
        sys.exit(2)
    sys.exit(0 if not outcome.stuck else 1)


def _load_trace(path: str):
    try:
        return notac.load_trace(_read_text(path))
    except ValueError as exc:
        _fail(f"{path}: bad trace file ({exc})")


@main.command("similar")
@click.argument("trace_a")
@click.argument("trace_b")
@click.option("--json", "as_json", is_flag=True)
def cmd_similar(trace_a, trace_b, as_json):
    """Decide similarity of two trace files; print the witness filter."""
    t1, t2 = _load_trace(trace_a), _load_trace(trace_b)
    ok, sigma = similar(t1, t2)
    if as_json:
        click.echo(json.dumps({"similar": ok, "witness": format_symseq(sigma) if ok else None}))
    elif ok:
        click.echo(f"similar (witness filter: {format_symseq(sigma)})")
    else:
        click.echo("not similar")
    sys.exit(0 if ok else 1)


@main.command("filter")
@click.argument("trace_path")
@click.option("--sigma", required=True, help="Symbolic sequence, e.g. M8,F0,MF8.")
@click.option("--json", "as_json", is_flag=True)
def cmd_filter(trace_path, sigma, as_json):
    """Apply a symbolic filter to a trace and print the residue."""
    trace = _load_trace(trace_path)
    try:
        seq = parse_symseq(sigma)
    except ValueError as exc:
        _fail(str(exc))
    residue = sym_filter(trace, seq)
    if residue is None:
        click.echo("no match" if not as_json else json.dumps({"match": False}))
        sys.exit(1)
    if as_json:
        click.echo(json.dumps({"match": True, "residue": [notac.event_to_json(e) for e in residue]}))
    else:
        click.echo(f"residue: {notac.format_trace(residue)}")
    sys.exit(0)


@main.command("gai")
@click.argument("program_path")
@click.option("--family", default="default", show_default=True,
              help="Allocator specs separated by ';' (or 'default').")
@click.option("--fuel", default=notac.DEFAULT_FUEL, show_default=True, type=NATURAL)
@click.option("--base", default=None, type=NATURAL,
              help="Variable base address (default: the family's common reserved window).")
@click.option("--init", "inits", multiple=True)
@click.option("--seed", default=0, show_default=True,
              help="Well-formedness check seed; used only when a violation is found.")
@click.option("--wf-trials", default=DEFAULT_WF_TRIALS, show_default=True, type=NATURAL,
              help="Well-formedness trials for the producer and witness of a violation.")
@click.option("--json", "as_json", is_flag=True)
def cmd_gai(program_path, family, fuel, base, inits, seed, wf_trials, as_json):
    """Differential gradual-allocator-independence check."""
    members = _family_from(family)
    program, env, heap = _load_program(program_path, base, _parse_inits(inits), members)
    try:
        report = gai_check(program, env, heap, members, fuel, wf_trials=wf_trials, wf_seed=seed)
    except FamilyNotWellFormed as exc:
        _fail(str(exc))
    if as_json:
        click.echo(json.dumps(report.to_json(), indent=2))
    else:
        click.echo(f"verdict: {report.verdict}")
        for name, (kind, trace) in sorted(report.runs.items()):
            click.echo(f"  {name}: {kind}: {notac.format_trace(trace)}")
        if report.violation is not None:
            click.echo(report.violation.describe())
        for probe in report.inconclusive:
            click.echo(f"  inconclusive: {probe}")
    sys.exit(report.exit_code)


def _wf_report_json(r) -> dict:
    out = {"clause": r.clause, "status": "pass" if r.passed else "fail"}
    if r.witness is not None:
        w = r.witness
        out["trial"] = r.failed_trial
        updates = {key: [u.writes for u in getattr(w, key)] for key in ("updates1", "updates2")}
        out["witness"] = {"sigma": format_symseq(w.sigma), **updates, "detail": w.detail}
    return out


WF_RESERVED_CELLS = 8  # cells the wf command reserves by default


def _default_reserved(strategy) -> tuple:
    """The first 8 cells of the strategy's reserved window, or all of it when
    smaller; [0, 8) when it has none.  A window that the address bound cuts
    below 8 cells has no size the spec chose, so the command asks instead."""
    lo, hi = strategy.window or (0, WF_RESERVED_CELLS)
    if hi == H_MAX_DEFAULT and hi - lo < WF_RESERVED_CELLS:
        _fail(f"{strategy.name}'s window [{lo}, {hi}) ends at the address bound"
              f" with fewer than {WF_RESERVED_CELLS} cells; give --reserved")
    return lo, min(hi, lo + WF_RESERVED_CELLS)


@main.command("wf")
@click.argument("alloc_spec")
@click.option("--trials", default=WF_TRIALS, show_default=True, type=NATURAL)
@click.option("--seed", default=0, show_default=True)
@click.option("--maxlen", default=WF_MAX_LEN, show_default=True, type=NATURAL)
@click.option("--reserved", default=None,
              help="Reserved address range lo:hi (heap-seeded with zeros)."
                   "  [default: the first 8 cells of the allocator's reserved window, 0:8 if it has none]")
@click.option("--json", "as_json", is_flag=True)
def cmd_wf(alloc_spec, trials, seed, maxlen, reserved, as_json):
    """Randomized allocator well-formedness check (bounded; rejection-sound)."""
    try:
        strategy = parse_alloc_spec(alloc_spec)
    except ValueError as exc:
        _fail(str(exc))
    if reserved is None:
        lo, hi = _default_reserved(strategy)
    else:
        try:
            lo, hi = (parse_int(x) for x in reserved.split(":"))
            if not lo <= hi <= H_MAX_DEFAULT:
                raise ValueError
        except ValueError:
            _fail(f"bad --reserved {reserved!r}, expected lo:hi with 0 <= lo <= hi <= {H_MAX_DEFAULT}")
    if hi - lo > MAX_SPEC_CELLS:
        _fail(f"--reserved {reserved!r} spans {hi - lo} cells, more than MAX_SPEC_CELLS = {MAX_SPEC_CELLS}")
    rset = frozenset(range(lo, hi))
    heap = Heap({a: 0 for a in rset})
    reports = wf_check(strategy, rset, heap, trials, seed, maxlen)
    failed = [r for r in reports if not r.passed]
    if as_json:
        click.echo(json.dumps([_wf_report_json(r) for r in reports]))
    else:
        click.echo(f"# {strategy.name}: bounded check, {trials} trials (rejection-sound)")
        for r in reports:
            click.echo(r.format_line())
    sys.exit(0 if not failed else 1)


@main.command("ms-run")
@click.argument("program_path")
@click.option("--fuel", default=notac.DEFAULT_FUEL, show_default=True, type=NATURAL)
@click.option("--init", "inits", multiple=True)
def cmd_ms_run(program_path, fuel, inits):
    """Run a Memsafe program and print its final store."""
    program = _parse_file(memsafe.ms_parse, program_path)
    outcome = memsafe.ms_run(program, _parse_inits(inits), fuel)
    click.echo(f"outcome: {outcome.kind}" + (f" ({outcome.reason})" if outcome.reason else ""))
    if outcome.ok:
        for name, value in sorted(outcome.state.store.items()):
            click.echo(f"  {name} = {value!r}")
    if outcome.kind == "diverged":  # inconclusive
        click.echo(f"inconclusive: ran out of fuel ({fuel} steps)", err=True)
        sys.exit(2)
    sys.exit(0 if outcome.ok else 1)


@main.command("translate")
@click.argument("program_path")
@click.option("-o", "out_path", default=None, help="Output .ntc path (default: stdout).")
def cmd_translate(program_path, out_path):
    """Translate a Memsafe program to Notac source."""
    program = _parse_file(memsafe.ms_parse, program_path)
    try:
        source = memsafe.translate_to_source(program)
    except memsafe.ReservedVariableError as exc:
        _fail(f"{program_path}: {exc}")
    if out_path:
        _write_text(out_path, source)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(source, nl=False)


@main.command("corpus")
@click.option("--family", default="default", show_default=True)
@click.option("--fuel", default=notac.DEFAULT_FUEL, show_default=True, type=NATURAL)
@click.option("--wf-trials", default=corpus_mod.CORPUS_WF_TRIALS, show_default=True, type=NATURAL,
              help="Well-formedness trials for the producer and witness of a violation.")
@click.option("--json", "as_json", is_flag=True)
def cmd_corpus(family, fuel, wf_trials, as_json):
    """Check every corpus case against its expected verdict."""
    try:
        results = corpus_mod.run_corpus(_family_from(family), fuel, wf_trials)
    except (FamilyNotWellFormed, ValueError) as exc:
        _fail(str(exc))
    mismatches = [r for r in results if not r.matches]
    contradictions = [r for r in mismatches if r.actual != "INCONCLUSIVE"]
    if as_json:
        click.echo(
            json.dumps(
                [
                    {"case": r.case.name, "expected": r.case.expected, "actual": r.actual}
                    for r in results
                ]
            )
        )
    else:
        width = max(len(r.case.name) for r in results)
        for r in results:
            mark = "ok" if r.matches else "inconclusive" if r.actual == "INCONCLUSIVE" else "MISMATCH"
            click.echo(f"{r.case.name:<{width}}  expected={r.case.expected:<6} actual={r.actual:<12} {mark}")
        click.echo(f"{len(results) - len(mismatches)}/{len(results)} verdicts match")
    sys.exit(1 if contradictions else 2 if mismatches else 0)


if __name__ == "__main__":
    main()
