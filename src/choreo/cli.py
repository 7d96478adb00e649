"""Command line front end.

Subcommands: validate (parse and describe an input file), check (static
compatibility of a choreography with its connectors, with confluence
caveats), run (execute a choreography), project (compile a choreography to
an endpoint network), simulate (execute a network), correspond (cross-check
the two semantics step by step).

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
(not compatible, stuck, not projectable, correspondence gaps), 2 for
unusable input (parse errors, inconsistent declarations, missing files).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import chor_engine, compat, cp_engine, epp, textio
from .chor_engine import initial_configuration
from .lts import Outcome
from .core import InputError


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Trace rendering: one line per step,
#   step#  kind  connector  constraint  pre-state -> post-state


def _trace_lines(trace) -> list[str]:
    lines: list[str] = []
    for i, r in enumerate(trace, 1):
        if r.kind == "com":
            detail = textio.pretty_constraint(r.phi)
            pre, post = r.pre_state, r.post_state
        else:
            detail = r.branch
            pre = post = "-"
        lines.append(
            f"{i:4d}  {r.kind:<4s}  {r.subject:<10s}  {detail:<36s}  {pre} -> {post}"
        )
    return lines


def _trace_json(trace) -> list[dict]:
    out: list[dict] = []
    for i, r in enumerate(trace, 1):
        d: dict = {"step": i, "kind": r.kind, "subject": r.subject}
        if r.kind == "com":
            d["constraint"] = textio.pretty_constraint(r.phi)
            d["pre"] = r.pre_state
            d["post"] = r.post_state
        else:
            d["branch"] = r.branch
        out.append(d)
    return out


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _not_projectable(exc: Exception, as_json: bool) -> int:
    if as_json:
        _emit({"ok": False, "reason": str(exc)})
    else:
        print(f"not projectable: {exc}")
    return 1


def _report_run(res, report_stuck, as_json: bool) -> int:
    """Print a run's trace, its outcome and, if it got stuck, why; return the
    exit status."""
    stuck = report_stuck(res.final) if res.outcome is Outcome.STUCK else None
    if as_json:
        payload = {"outcome": res.outcome.value, "steps": _trace_json(res.trace)}
        if stuck is not None:
            payload["stuck"] = {
                "class": stuck.classification,
                "details": stuck.details,
            }
        _emit(payload)
    else:
        for line in _trace_lines(res.trace):
            print(line)
        if res.outcome is Outcome.TERMINATED:
            print(f"outcome: terminated ({len(res.trace)} steps)")
        elif res.outcome is Outcome.STUCK:
            print(f"outcome: stuck after {len(res.trace)} steps")
            print(f"stuck class: {stuck.classification}")
            for d in stuck.details:
                print("  " + d)
        else:
            print(f"outcome: step limit reached ({len(res.trace)} steps)")
    return 1 if stuck is not None else 0


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    if args.path.endswith(".ca"):
        a = textio.parse_automaton(_read(args.path))
        if args.json:
            _emit(
                {
                    "ok": True,
                    "kind": "automaton",
                    "name": a.name,
                    "states": list(a.states),
                    "ports": list(a.ports),
                    "cells": list(a.mems),
                    "transitions": len(a.transitions),
                }
            )
        else:
            print(
                f"ok: automaton {a.name} with {len(a.states)} states, "
                f"{len(a.ports)} ports, {len(a.mems)} cells, "
                f"{len(a.transitions)} transitions"
            )
        return 0
    if args.path.endswith(".cp"):
        prog = textio.parse_cp(_read(args.path))
        procs = sorted(prog.init.net.names())
        conns = sorted(prog.automata)
        if args.json:
            _emit({"ok": True, "kind": "network", "processes": procs, "connectors": conns})
        else:
            print(
                f"ok: network with processes {', '.join(procs)} "
                f"and connectors {', '.join(conns)}"
            )
        return 0
    prog = textio.parse_program(_read(args.path), runtime=args.runtime)
    procs = sorted(prog.main.procs)
    conns = sorted(prog.connectors)
    if args.json:
        _emit(
            {"ok": True, "kind": "choreography", "processes": procs, "connectors": conns}
        )
    else:
        print(
            f"ok: choreography with processes {', '.join(procs)} "
            f"and connectors {', '.join(conns)}"
        )
    return 0


def _confluence_report(connectors) -> dict:
    report = {}
    for name in sorted(connectors):
        v = compat.check_confluence(connectors[name])
        if v.confluent:
            report[name] = {"confluent": True}
        else:
            t1, t2 = v.witness
            report[name] = {
                "confluent": False,
                "witness": f"{t1.src} -> {t1.dst} vs {t2.src} -> {t2.dst}",
            }
    return report


def cmd_check(args) -> int:
    prog = textio.parse_program(_read(args.path))
    confluence = _confluence_report(prog.connectors)
    verdict = compat.check_compatibility(prog.main, prog.connectors)
    if args.json:
        payload: dict = {"compatible": verdict.compatible, "confluence": confluence}
        if verdict.compatible:
            payload["judgements_checked"] = verdict.judgements_checked
        else:
            j = verdict.judgement
            payload["reason"] = verdict.reason
            payload["connector_states"] = {
                g: {"state": s, "cells": {m: textio.format_value(v) for m, v in cells.items()}}
                for g, (s, cells) in j.astate_map().items()
            }
            payload["remaining"] = textio.pretty_chor(j.chor)
            payload["attempted"] = verdict.tried
            payload["path"] = j.path()
        _emit(payload)
        return 0 if verdict.compatible else 1
    for name, info in confluence.items():
        if not info["confluent"]:
            print(
                f"note: confluence unknown for {name} (no one-step diamond for "
                f"{info['witness']}); a compatible verdict does not ensure "
                "deadlock-freedom through this connector"
            )
    if verdict.compatible:
        print(f"compatible ({verdict.judgements_checked} judgements checked)")
        return 0
    j = verdict.judgement
    print("not compatible")
    print(f"reason: {verdict.reason}")
    print("failing judgement:")
    for g, (s, cells) in sorted(j.astate_map().items()):
        extra = ""
        if cells:
            inner = ", ".join(
                f"{m} = {textio.format_value(v)}" for m, v in sorted(cells.items())
            )
            extra = f" with {inner}"
        print(f"  {g} at state {s}{extra}")
    print("  remaining choreography:")
    for line in textio.pretty_chor(j.chor).splitlines():
        print("    " + line)
    if verdict.tried:
        print("  attempted:")
        for t in verdict.tried:
            print("    " + t)
    path = [p for p in j.path() if p != "start"]
    if path:
        print("  reached via:")
        for p in path:
            print("    " + p)
    return 1


def cmd_run(args) -> int:
    prog = textio.parse_program(_read(args.path), runtime=args.runtime)
    cfg = initial_configuration(prog)
    rng = random.Random(args.seed) if args.seed is not None else None
    res = chor_engine.run(cfg, prog.connectors, max_steps=args.max_steps, rng=rng)
    return _report_run(
        res, lambda final: chor_engine.report_stuck(final, prog.connectors), args.json
    )


def _project(prog: "textio.Program") -> "cp_engine.CpProgram":
    cfg = initial_configuration(prog)
    net = epp.project_network(chor_engine.normalize(prog.main), cfg.sigma_map())
    automata = epp.project_connectors(prog.connectors)
    return cp_engine.CpProgram(automata, cp_engine.NetConfiguration.make(net, cfg.astate_map()))


def cmd_project(args) -> int:
    prog = textio.parse_program(_read(args.path))
    try:
        cpprog = _project(prog)
    except epp.Unprojectable as exc:
        return _not_projectable(exc, args.json)
    text = textio.pretty_cp(cpprog)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        _emit({"ok": True, "cp": text, "out": args.out})
    elif args.out:
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_simulate(args) -> int:
    if args.path.endswith(".cp"):
        cpprog = textio.parse_cp(_read(args.path))
    else:
        prog = textio.parse_program(_read(args.path), runtime=args.runtime)
        try:
            cpprog = _project(prog)
        except epp.Unprojectable as exc:
            return _not_projectable(exc, args.json)
    rng = random.Random(args.seed) if args.seed is not None else None
    res = cp_engine.cp_run(
        cpprog.init, cpprog.automata, max_steps=args.max_steps, rng=rng
    )
    return _report_run(
        res, lambda final: cp_engine.cp_report_stuck(final, cpprog.automata), args.json
    )


def cmd_correspond(args) -> int:
    from . import harness

    prog = textio.parse_program(_read(args.path))
    try:
        rep = harness.correspondence_check(prog, bound=args.bound)
    except epp.Unprojectable as exc:
        return _not_projectable(exc, args.json)
    if args.json:
        _emit(
            {
                "ok": rep.ok,
                "pairs_checked": rep.pairs_checked,
                "truncated": rep.truncated,
                "gaps": rep.gaps,
            }
        )
    else:
        print(f"pairs checked: {rep.pairs_checked}")
        if rep.truncated:
            print(f"note: exploration truncated at bound {args.bound}")
        if rep.gaps:
            print(f"{len(rep.gaps)} gaps:")
            for gline in rep.gaps:
                print("  " + gline)
        else:
            print("no gaps found")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="choreo",
        description="Choreographies coordinated by constraint-automaton connectors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="parse a .cr, .ca, or .cp file")
    pv.add_argument("path")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--runtime", action="store_true", help="allow runtime receive terms")
    pv.set_defaults(func=cmd_validate)

    pc = sub.add_parser("check", help="check choreography/connector compatibility")
    pc.add_argument("path")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_check)

    pr = sub.add_parser("run", help="execute a choreography")
    pr.add_argument("path")
    pr.add_argument("--seed", type=int, default=None, help="randomize the scheduler")
    pr.add_argument("--max-steps", type=int, default=1000)
    pr.add_argument("--json", action="store_true")
    pr.add_argument("--runtime", action="store_true", help="allow runtime receive terms")
    pr.set_defaults(func=cmd_run)

    pp = sub.add_parser("project", help="compile a choreography to an endpoint network")
    pp.add_argument("path")
    pp.add_argument("-o", "--out", default=None, help="write the network here instead of stdout")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=cmd_project)

    ps = sub.add_parser("simulate", help="execute an endpoint network (.cp, or .cr projected on the fly)")
    ps.add_argument("path")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--max-steps", type=int, default=1000)
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--runtime", action="store_true", help="allow runtime receive terms")
    ps.set_defaults(func=cmd_simulate)

    pd = sub.add_parser("correspond", help="cross-check choreography and network semantics")
    pd.add_argument("path")
    pd.add_argument("--bound", type=int, default=25, help="exploration depth")
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(func=cmd_correspond)
    return ap


def main(argv: "list[str] | None" = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    for flag in ("max_steps", "bound"):
        if getattr(args, flag, 0) < 0:
            print(f"error: --{flag.replace('_', '-')} must not be negative", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (textio.ParseError, InputError, chor_engine.EvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and several analyses recurse once per nesting level
        print(
            "error: program nested too deeply (deeper than the interpreter's "
            f"recursion limit of {sys.getrecursionlimit()} frames allows)",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
