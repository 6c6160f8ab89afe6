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

from .polyring import ParseError, _quote
from .pipeline import (SIMULATION_STEPS, RunReport, read_problem, render_csv,
                       render_table, run_benchmarks, run_check, run_pipeline)
from .problemfile import _OPTIONS, Settings, _integer, _resolve, _seconds

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


def _positive_int(text: str) -> int:
    if type(n := _integer(text)) is not int or n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {_quote(text)}")
    return n


def _add_settings_flags(p: argparse.ArgumentParser, *, solver: bool) -> None:
    # one flag per run option; _overrides reads its text as an option line's
    for key, (dest, read, text, solver_only) in _OPTIONS.items():
        if solver or not solver_only:
            p.add_argument("--" + key.replace("_", "-"), dest=dest, help=text,
                           metavar={_seconds: "SECONDS", _integer: "N"}.get(read))


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
    _add_settings_flags(p_synth, solver=True)

    p_check = sub.add_parser("check", help="verify a concrete loop")
    p_check.add_argument("file")
    p_check.add_argument("--steps", type=_positive_int, default=SIMULATION_STEPS,
                         help="simulation length (default %(default)s)")
    p_check.add_argument("--json", action="store_true")
    _add_settings_flags(p_check, solver=False)

    p_bench = sub.add_parser("bench", help="run problem files, print a table")
    p_bench.add_argument("paths", nargs="+",
                         help="problem files or directories of *.loop files")
    p_bench.add_argument("--grid", metavar="D:L[,D:L...]",
                         help="rebuild each template's generators on a "
                         "(degree, coefficient count) grid")
    p_bench.add_argument("--csv", metavar="PATH",
                         help="also write the rows as CSV")
    _add_settings_flags(p_bench, solver=True)
    return parser


def _overrides(args) -> dict:
    """The Settings fields set by this verb's flags, read as option lines
    are and checked by Settings as far as they do not depend on the problem;
    _resolve checks the rest, the solver command included, with the file."""
    kept = {f: read(text) for f, read, _, _ in _OPTIONS.values()
            if (text := getattr(args, f, None)) is not None}
    try:
        Settings(**kept)
    except ValueError as exc:
        raise UsageError(str(exc))
    return kept


def _load(path: str, command: str, overrides: dict):
    """The problem in path for command under the flag overrides, or a usage
    error; a file of the other form is refused before _resolve's checks."""
    try:
        doc = read_problem(path)
        fits = "check" if doc.is_concrete else "synth"
        if command != fits:
            lines = {"synth": "gen", "check": "update"}
            raise UsageError(f"{path}: {command} needs {lines[command]} lines, "
                             f"this file has {lines[fits]} lines (use {fits})")
        return _resolve(doc, **overrides)
    except OSError as exc:
        raise UsageError(str(exc))
    except ParseError as exc:
        raise UsageError(f"{path}:{exc}")
    except ValueError as exc:  # a nonzero policy or solver command _resolve refuses
        raise UsageError(f"{path}: {exc}")


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
    if report.solver_status != "sat":
        for line in report.solver_diagnostics.splitlines():
            print(f"  {line}")
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
        cell = tuple(_integer(t.strip()) for t in piece.split(":"))
        if len(cell) != 2 or not all(type(t) is int for t in cell):
            raise UsageError(f"bad grid cell {_quote(piece)}; expected D:L")
        if min(cell) < 1:
            raise UsageError(f"bad grid cell {_quote(piece)}; D and L must be >= 1")
        cells.append(cell)
    return cells


def _exit_code(report: RunReport) -> int:
    return {"TL": EXIT_BUDGET, "invalid": EXIT_USAGE,
            "error": EXIT_INTERNAL}.get(report.status, EXIT_OK)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = _overrides(args)
        if args.command in ("synth", "check"):
            doc = _load(args.file, args.command, overrides)
            if args.command == "synth":
                try:
                    report, show = run_pipeline(doc, emit_smt=args.emit_smt), _print_synth
                except OSError as exc:
                    if args.emit_smt is None or exc.filename != args.emit_smt:
                        raise
                    raise UsageError(f"cannot write {args.emit_smt}: {exc.strerror}")
            else:
                report, show = run_check(doc, steps=args.steps), _print_check
            if args.json:
                print(json.dumps(report.to_dict(), indent=2))
            else:
                show(report)
            return _exit_code(report)
        grid = _parse_grid(args.grid) if args.grid else None
        try:
            reports = run_benchmarks(args.paths, grid=grid, **overrides)
        except ValueError as exc:  # a bad LOOPSYNTH_SOLVER, before any file
            raise UsageError(str(exc))
        text = render_table(reports)
        print(text, end="")
        if args.csv:
            try:
                with open(args.csv, "w") as fh:
                    fh.write(render_csv(reports))
            except OSError as exc:
                raise UsageError(f"cannot write {args.csv}: {exc.strerror}")
        return max(map(_exit_code, reports), default=EXIT_OK)  # error > TL > invalid
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
