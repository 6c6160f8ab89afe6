"""End-to-end pipeline: parse, synthesize, classify, solve, verify, report.

run_pipeline drives a single synthesis problem through generate_loops,
finiteness classification, SMT-LIB emission, the external solver (when one
is available), and exact re-verification of any model by simulation plus
the invariant-set criterion; one synthesis budget bounds synthesis,
finiteness and verification together.  run_benchmarks maps that over a
directory, isolating per-file failures into report rows (status invalid
when the input is at fault, error when the program is), and renders CSV
and a plain text table.  Budget exhaustion is reported as status TL with
solver column NI (no input), never as a crash.
"""

from __future__ import annotations

import csv
import glob
import io
import itertools
import os
import time
from dataclasses import dataclass, field, asdict
from typing import Sequence

from .budget import Budget, BudgetExceeded
from .polyring import ParseError, Polynomial
from .problemfile import ProblemDoc, _resolve, parse_problem
from .solve import (SolveRequest, discover_solver, emit_smtlib,
                    classify_finiteness, solve)
from .synthesis import (SIMULATION_STEPS, ConcreteLoop, InvariantSpec,
                        LoopTemplate, check_invariants, generate_loops,
                        instantiate, simulate)


@dataclass
class RunReport:
    """Flat record of one pipeline run (synthesis or check form)."""

    name: str
    mode: str | None = None           # synth | check; None: form unknown
    status: str = "ok"                # ok | TL | invalid | error
    n: int | None = None              # program variables
    m: int | None = None              # invariants
    l: int | None = None              # template coefficients
    d: int | None = None              # max invariant degree
    s: int | None = None              # system size
    q_count: int | None = None
    rounds: int | None = None
    finiteness: str | None = None
    synth_seconds: float | None = None
    solve_seconds: float | None = None
    solver_status: str | None = None  # sat|unsat|unknown|solver-unavailable|NI
    solver_diagnostics: str = ""      # why, from the solve step
    assignment: dict[str, str] | None = None
    verified: bool | None = None
    error: str | None = None
    system: list[str] = field(default_factory=list)
    smt_path: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


CSV_FIELDS = ["name", "mode", "status", "n", "m", "l", "d", "s", "q_count",
              "rounds", "finiteness", "synth_seconds", "solve_seconds",
              "solver_status", "verified", "error"]


def run_pipeline(doc: ProblemDoc, *, emit_smt: str | None = None,
                 **overrides) -> RunReport:
    """Synthesis pipeline for one problem; check-form docs are delegated to
    run_check.  The other keywords are Settings fields overriding the
    file's options; a bad value, a bad LOOPSYNTH_SOLVER, or emit_smt on a
    check-form doc raises ValueError before any work starts."""
    doc = _resolve(doc, **overrides)
    if doc.is_concrete:
        if emit_smt is not None:
            raise ValueError("emit_smt needs a synthesis-form problem")
        return run_check(doc)

    settings = doc.settings
    command = discover_solver(settings.solver)
    tpl = doc.template
    report = RunReport(doc.name, mode="synth", n=tpl.context.arity,
                       m=len(doc.invariants.polys), l=tpl.coeff_count,
                       d=max(g.total_degree() for g in doc.invariants.polys))
    budget = Budget(seconds=settings.synth_budget)
    t0 = time.perf_counter()
    try:
        system = generate_loops(tpl, doc.invariants,
                                max_rounds=settings.max_rounds, budget=budget)
    except BudgetExceeded as exc:
        report.status = "TL"
        report.solver_status = "NI"
        report.error = str(exc)
        report.synth_seconds = time.perf_counter() - t0
        return report
    report.synth_seconds = time.perf_counter() - t0
    report.s = system.s
    report.q_count = system.q_count
    report.rounds = system.rounds
    report.system = system.as_strings()

    report.finiteness = classify_finiteness(system, budget=budget)

    request = SolveRequest(system, domain=settings.domain,
                           nonzero=settings.nonzero,
                           budget_seconds=settings.solve_budget)
    if emit_smt is not None and system.polys:
        with open(emit_smt, "w") as fh:
            fh.write(emit_smtlib(request))
        report.smt_path = emit_smt

    t0 = time.perf_counter()
    outcome = solve(request, command)
    report.solve_seconds = time.perf_counter() - t0
    report.solver_status = outcome.status
    report.solver_diagnostics = outcome.diagnostics
    if outcome.status == "sat":
        report.assignment = {k: str(v) for k, v in outcome.assignment.items()}
        _verify(report, instantiate(tpl, outcome.assignment), doc.invariants,
                SIMULATION_STEPS, settings.max_rounds, budget)
    return report


def run_check(doc: ProblemDoc, *, steps: int = SIMULATION_STEPS) -> RunReport:
    """Verify a concrete loop under doc's settings: simulation evidence
    plus the exact invariant-set criterion."""
    if not doc.is_concrete:
        raise ValueError("run_check needs a concrete (update-form) problem")
    settings = doc.settings
    loop = doc.loop
    report = RunReport(doc.name, mode="check", n=loop.context.arity,
                       m=len(doc.invariants.polys),
                       d=max(g.total_degree() for g in doc.invariants.polys))
    t0 = time.perf_counter()
    _verify(report, loop, doc.invariants, steps, settings.max_rounds,
            Budget(seconds=settings.synth_budget))
    report.synth_seconds = time.perf_counter() - t0
    return report


def _verify(report: RunReport, loop: ConcreteLoop, invariants: InvariantSpec,
            steps: int, max_rounds: int, budget: Budget) -> None:
    """Simulation evidence plus the exact invariant-set criterion, into
    report.verified; running out of budget is status TL and no verdict."""
    try:
        ok_sim = simulate(loop, invariants, steps, budget=budget)
        ok_exact = check_invariants(loop, invariants, max_rounds=max_rounds,
                                    budget=budget)
    except BudgetExceeded as exc:
        report.status = "TL"
        report.error = str(exc)
        return
    report.verified = ok_sim and ok_exact
    if ok_sim != ok_exact:
        # simulation can only under-approximate; exact says invariant fails
        report.error = f"simulation={ok_sim} exact={ok_exact}"


# ---------------------------------------------------------------------------
# Benchmark harness.


def grid_template(doc: ProblemDoc, D: int, l: int) -> LoopTemplate:
    """Replace the template's generators by the derived (D, l) structure:
    variable i draws from [x_i, monomials of degree 1..D by (degree, index
    combination), constant 1 last]; l is split evenly with the remainder
    going to the leading variables."""
    tpl = doc.template
    if tpl is None:
        raise ValueError("grid mode needs a synthesis-form problem")
    if type(D) is not int or D < 1:  # a bool is no degree
        raise ValueError(f"D must be an integer >= 1, not {D!r}")
    if type(l) is not int:
        raise ValueError(f"l must be an integer, not {l!r}")
    ctx = tpl.context
    n = ctx.arity
    if l < n:
        raise ValueError(f"l must be >= {n} (one generator per variable)")
    xs = Polynomial.variables(ctx)

    def pool(i: int):
        # lazy: a variable takes at most l entries, whatever D is
        yield xs[i]
        for d in range(1, D + 1):
            for combo in itertools.combinations_with_replacement(range(n), d):
                if combo != (i,):
                    yield Polynomial(ctx, {tuple(map(combo.count, range(n))): 1})
        yield Polynomial.one(ctx)

    counts = [l // n + (1 if i < l % n else 0) for i in range(n)]
    gens = []
    for i, c in enumerate(counts):
        picked = tuple(itertools.islice(pool(i), c))
        if len(picked) < c:
            raise ValueError(f"l={l} too large for D={D} with {n} variables")
        gens.append(picked)
    return LoopTemplate(ctx, tpl.init, tpl.guard, tuple(gens))


def _stem(path: str) -> str:
    # a problem file names its problem
    return os.path.splitext(os.path.basename(path))[0]


def read_problem(path: str) -> ProblemDoc:
    """The problem in the file at path, named by the file's stem.  Raises
    OSError if the file cannot be read, else a ParseError with line:col,
    which for a file that is not UTF-8 text points at the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines as parse_problem counts them; "?" stands in for the bad byte
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not {exc.encoding}: {exc.reason}",
                         len(lines), len(lines[-1])) from None
    return parse_problem(text, name=_stem(path))


def collect_problem_files(target: str) -> list[str]:
    if os.path.isdir(target):
        return sorted(glob.glob(os.path.join(target, "*.loop")))
    return [target]


def run_benchmarks(targets: Sequence[str], *, grid: Sequence[tuple[int, int]] | None = None,
                   **overrides) -> list[RunReport]:
    """One report per problem file (times the grid cells, when given).
    A file that does not open, decode or parse, a grid cell that does not
    fit the template and an override the problem rejects become invalid
    rows; budget exhaustion and crashes become TL and error rows.  A bad
    LOOPSYNTH_SOLVER, unless a solver override replaces it, raises
    ValueError before any file is read."""
    if overrides.get("solver") is None:
        discover_solver()
    paths: list[str] = []
    for target in targets:
        paths.extend(collect_problem_files(target))
    reports: list[RunReport] = []
    for path in paths:
        name = _stem(path)
        try:
            doc = read_problem(path)
        except (OSError, ValueError) as exc:
            reports.append(RunReport(name, status="invalid", error=str(exc)))
            continue
        mode = "check" if doc.is_concrete else "synth"
        cells = [None] if not grid or doc.is_concrete else list(grid)
        for cell in cells:
            cell_name = name if cell is None else f"{name}[D={cell[0]},l={cell[1]}]"
            try:
                if cell is None:
                    cell_doc = doc
                else:
                    cell_doc = ProblemDoc(cell_name, doc.invariants,
                                          template=grid_template(doc, *cell),
                                          settings=doc.settings)
                cell_doc = _resolve(cell_doc, **overrides)
            except ValueError as exc:
                reports.append(RunReport(cell_name, mode=mode, status="invalid",
                                         error=str(exc)))
                continue
            try:
                report = run_pipeline(cell_doc)
                report.name = cell_name
            except Exception as exc:  # isolate rows from each other
                report = RunReport(cell_name, mode=mode, status="error", error=str(exc))
            reports.append(report)
    return reports


def render_csv(reports: Sequence[RunReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, extrasaction="ignore")
    writer.writeheader()
    for r in reports:
        row = r.to_dict()
        for k in ("synth_seconds", "solve_seconds"):
            if row.get(k) is not None:
                row[k] = f"{row[k]:.3f}"
        writer.writerow(row)
    return buf.getvalue()


def render_table(reports: Sequence[RunReport]) -> str:
    cols = ["name", "mode", "status", "s", "rounds", "finiteness",
            "synth_seconds", "solver_status", "solve_seconds", "verified"]
    head = ["problem", "mode", "status", "s", "rounds", "finite",
            "synth(s)", "solver", "solve(s)", "ok"]

    def cell(r: RunReport, c: str) -> str:
        v = getattr(r, c)
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.2f}"
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

    rows = [[cell(r, c) for c in cols] for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(head)]
    out = ["  ".join(h.ljust(w) for h, w in zip(head, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    errors = [(r.name, r.error) for r in reports if r.error]
    if errors:
        out.append("")
        out.extend(f"{n}: {e}" for n, e in errors)
    return "\n".join(out) + "\n"
