"""Command line interface.

    loopsynth synth FILE   synthesize coefficient systems and solve them
    loopsynth check FILE   verify a concrete loop against its invariants
    loopsynth bench PATHS  run a directory of problems, print a table

Exit codes: 0 success (including unsat/unknown and a failed check), 1 usage
or problem-file error, 2 budget exhausted, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .polyring import ParseError
from .pipeline import (SIMULATION_STEPS, RunReport, render_csv, render_table,
                       run_benchmarks, run_check, run_pipeline)
from .problemfile import parse_problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is our budget code, so reroute.
    def error(self, message: str):
        raise UsageError(message)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", choices=["integers", "rationals"],
                   help="solution domain (default from file, else integers)")
    p.add_argument("--nonzero", help="nonzero policy: vector, none, or a "
                   "coefficient name")
    p.add_argument("--solver", help="solver command; {file} marks where the "
                   "script path goes (overrides LOOPSYNTH_SOLVER)")
    p.add_argument("--solve-budget", type=float, dest="solve_budget",
                   metavar="SECONDS", help="external solver time limit")
    p.add_argument("--synth-budget", type=float, dest="synth_budget",
                   metavar="SECONDS", help="synthesis/verification time limit")
    p.add_argument("--rounds", type=int, dest="max_rounds", metavar="N",
                   help="stabilization round limit")


def build_parser() -> _Parser:
    parser = _Parser(prog="loopsynth", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize loops from a template")
    p_synth.add_argument("file")
    p_synth.add_argument("--emit-smt", metavar="PATH",
                         help="also write the SMT-LIB 2 script to PATH")
    p_synth.add_argument("--json", action="store_true",
                         help="print the full report as JSON")
    _add_shared(p_synth)

    p_check = sub.add_parser("check", help="verify a concrete loop")
    p_check.add_argument("file")
    p_check.add_argument("--steps", type=int, default=SIMULATION_STEPS,
                         help="simulation length (default %(default)s)")
    p_check.add_argument("--json", action="store_true")
    _add_shared(p_check)

    p_bench = sub.add_parser("bench", help="run problem files, print a table")
    p_bench.add_argument("paths", nargs="+",
                         help="problem files or directories of *.loop files")
    p_bench.add_argument("--grid", metavar="D:L[,D:L...]",
                         help="rebuild each template's generators on a "
                         "(degree, coefficient count) grid")
    p_bench.add_argument("--csv", metavar="PATH",
                         help="also write the rows as CSV")
    _add_shared(p_bench)
    return parser


def _load(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(str(exc))
    import os
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        return parse_problem(text, name=name)
    except ParseError as exc:
        raise UsageError(f"{path}:{exc}")


def _shared_overrides(args) -> dict:
    return {"domain": args.domain, "nonzero": args.nonzero,
            "solver": args.solver, "solve_budget": args.solve_budget,
            "synth_budget": args.synth_budget, "max_rounds": args.max_rounds}


def _print_synth(report: RunReport) -> None:
    print(f"problem: {report.name}")
    print(f"sizes: n={report.n} m={report.m} l={report.l} d={report.d}")
    if report.status == "TL" and report.s is None:
        print(f"status: TL ({report.error})")
        return
    print(f"system: s={report.s} polynomials "
          f"(q_count={report.q_count}, rounds={report.rounds}, "
          f"{report.synth_seconds:.2f}s)")
    for p in report.system:
        print(f"  {p} = 0")
    print(f"finiteness: {report.finiteness}")
    if report.smt_path:
        print(f"smt: {report.smt_path}")
    print(f"solver: {report.solver_status} ({report.solve_seconds:.2f}s)")
    if report.assignment is not None:
        pairs = ", ".join(f"{k} = {v}" for k, v in sorted(report.assignment.items()))
        print(f"solution: {pairs}")
        verdict = {True: "yes", False: "no"}.get(report.verified, f"unknown ({report.error})")
        print(f"verified: {verdict}")


def _print_check(report: RunReport) -> None:
    print(f"problem: {report.name}")
    if report.status == "TL":
        print(f"status: TL ({report.error})")
        return
    verdict = "holds" if report.verified else "fails"
    print(f"invariants: {verdict} ({report.synth_seconds:.2f}s)")
    if report.error:
        print(f"detail: {report.error}")


def _parse_grid(text: str) -> list[tuple[int, int]]:
    cells = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            d_str, l_str = piece.split(":")
            cells.append((int(d_str), int(l_str)))
        except ValueError:
            raise UsageError(f"bad grid cell {piece!r}; expected D:L")
    return cells


def _exit_code(report: RunReport) -> int:
    if report.status == "TL":
        return EXIT_BUDGET
    if report.status == "error":
        return EXIT_INTERNAL
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            doc = _load(args.file)
            report = run_pipeline(doc, emit_smt=args.emit_smt,
                                  **_shared_overrides(args))
            if args.json:
                print(json.dumps(report.to_dict(), indent=2))
            else:
                _print_synth(report)
            return _exit_code(report)
        if args.command == "check":
            doc = _load(args.file)
            if not doc.is_concrete:
                raise UsageError(f"{args.file}: check needs update lines, "
                                 "this file has gen lines (use synth)")
            report = run_check(doc, steps=args.steps,
                               synth_budget=args.synth_budget,
                               max_rounds=args.max_rounds)
            if args.json:
                print(json.dumps(report.to_dict(), indent=2))
            else:
                _print_check(report)
            return _exit_code(report)
        if args.command == "bench":
            grid = _parse_grid(args.grid) if args.grid else None
            reports = run_benchmarks(args.paths, grid=grid,
                                     **_shared_overrides(args))
            text = render_table(reports)
            print(text, end="")
            if args.csv:
                with open(args.csv, "w") as fh:
                    fh.write(render_csv(reports))
            if any(r.status == "error" for r in reports):
                return EXIT_INTERNAL
            if any(r.status == "TL" for r in reports):
                return EXIT_BUDGET
            return EXIT_OK
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"loopsynth: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # pragma: no cover - last resort
        print(f"loopsynth: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
