"""The benchmark's workloads: set-up, one pass over the jobs, output checks.

Every job calls loopsynth's public functions through module attributes
(``mods.pipeline.run_pipeline``, ``mods.solve.brute_force_box``, ...), so
the tracer in spans.py sees each call.  Outputs are compared with
reference.json, recorded from the package by record.py.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBLEMS = ROOT / "benchmarks"
REFERENCE = HERE / "reference.json"
MODULES = ("problemfile", "polyring", "groebner", "synthesis", "solve", "pipeline")

# The three synthesis-form files as committed; perfect_square dominates.
PAPER_FILES = ("hyperbola", "intro_cubic", "perfect_square")
# (file, D, l values): D=2/3 repeat the D=1 templates, and l+1 of the last
# cell of each row runs past a 60 s budget.
GRID_CELLS = (("hyperbola", 1, (2, 3, 4)), ("intro_cubic", 1, (3, 4, 5)))
# (file, box bound): 161,051 and 83,521 points.
BOX_SEARCHES = (("intro_cubic", 5), ("perfect_square", 8))
CHECK_FILES = ("fibonacci_cassini", "guarded_counter", "running_sum", "solution_check")
# The README's solution of intro_cubic, in coefficient order y1..y5.
README_SOLUTION = (-3, 3, 1, -1, 0)

WORKLOADS = ("synth-paper", "synth-grid", "verify-box")


def import_loopsynth() -> SimpleNamespace:
    """Import the measured modules afresh.  import_module is needed for
    solve: the package attribute loopsynth.solve is the function."""
    for name in [n for n in sys.modules if n == "loopsynth" or n.startswith("loopsynth.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"loopsynth.{m}") for m in MODULES})


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


@dataclass
class Tally:
    """Operations attempted and failed across passes."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    decided: int = 0  # candidate loops given a verdict (verify-box)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Workload:
    """Inputs built by set-up: the jobs of one pass and what the checks need."""

    name: str
    mods: SimpleNamespace
    jobs: list[tuple[str, Callable[[Tally, random.Random], None]]]
    parse_s: float
    reports: dict = field(default_factory=dict)  # job name -> last RunReport
    docs: dict = field(default_factory=dict)


def parse_files(mods, stems) -> dict:
    return {stem: mods.problemfile.parse_problem((PROBLEMS / f"{stem}.loop").read_text(),
                                                 name=stem)
            for stem in stems}


def grid_docs(mods, docs: dict) -> list:
    """The grid cells as problem documents named like `loopsynth bench --grid`."""
    cells = []
    for stem, D, ls in GRID_CELLS:
        doc = docs[stem]
        for l in ls:
            cells.append(mods.problemfile.ProblemDoc(
                f"{stem}[D={D},l={l}]", doc.invariants,
                template=mods.pipeline.grid_template(doc, D, l), settings=doc.settings))
    return cells


def setup(name: str, seed: int, reference: dict) -> Workload:
    """Import, parse the problem files and build the workload's inputs."""
    mods = import_loopsynth()
    t0 = time.perf_counter()
    if name == "synth-paper":
        docs = parse_files(mods, PAPER_FILES)
    elif name == "synth-grid":
        docs = parse_files(mods, dict.fromkeys(stem for stem, _, _ in GRID_CELLS))
    else:
        docs = parse_files(mods, tuple(f for f, _ in BOX_SEARCHES) + CHECK_FILES)
        systems = {stem: parse_system(mods, docs[stem], reference["synth"][stem]["system"])
                   for stem, _ in BOX_SEARCHES}
    w = Workload(name, mods, [], time.perf_counter() - t0, docs=docs)
    if name == "synth-paper":
        w.jobs = [_synth_job(w, docs[f], reference) for f in PAPER_FILES]
    elif name == "synth-grid":
        w.jobs = [_synth_job(w, cell, reference) for cell in grid_docs(mods, docs)]
    else:
        rng = random.Random(seed)
        for stem, bound in BOX_SEARCHES:
            ref = reference["box"][stem]
            misses = _sample_misses(rng, len(ref["verdicts"]), bound,
                                    len(systems[stem].context.names), ref["hits"])
            w.jobs.append(_box_job(w, docs[stem], systems[stem], bound, misses, ref))
        w.jobs += [_check_job(w, docs[f], reference) for f in CHECK_FILES]
    return w


def run_pass(w: Workload, rng: random.Random, tally: Tally, tracer=None) -> float:
    """One pass over the jobs in a seeded order; returns its wall seconds."""
    jobs = list(w.jobs)
    rng.shuffle(jobs)
    t0 = time.perf_counter()
    for name, job in jobs:
        if tracer is not None:
            tracer.job = name
        try:
            job(tally, rng)
        except Exception as exc:  # one broken job must not hide the others
            tally.check(False, f"{name}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Jobs.


def synth_output(report) -> dict:
    return {"status": report.status, "s": report.s, "q_count": report.q_count,
            "rounds": report.rounds, "finiteness": report.finiteness,
            "system": report.system}


def check_output(report) -> dict:
    return {"status": report.status, "verified": report.verified}


def _synth_job(w: Workload, doc, reference: dict):
    want = reference["synth"][doc.name]

    def job(tally: Tally, rng) -> None:
        report = w.mods.pipeline.run_pipeline(doc)
        w.reports[doc.name] = report
        got = synth_output(report)
        tally.check(got == want, f"{doc.name}: {_diff(got, want)}")

    w.docs.setdefault(doc.name, doc)
    return doc.name, job


def _check_job(w: Workload, doc, reference: dict):
    want = reference["check"][doc.name]

    def job(tally: Tally, rng) -> None:
        got = check_output(w.mods.pipeline.run_check(doc))
        tally.check(got == want, f"{doc.name}: {_diff(got, want)}")
        tally.decided += 1

    return f"check:{doc.name}", job


def _box_job(w: Workload, doc, system, bound: int, misses: list, ref: dict):
    """Search the box, then decide every nonzero hit (expected to verify)
    and as many sampled non-solutions (expected to be refuted)."""
    nonzero = [tuple(h) for h in ref["hits"] if any(h)]
    expected = dict(zip(nonzero, map(tuple, ref["verdicts"])))

    def job(tally: Tally, rng) -> None:
        hits = w.mods.solve.brute_force_box(system, bound)
        tally.check([list(h) for h in hits] == ref["hits"],
                    f"{doc.name}: {len(hits)} box hits, reference {len(ref['hits'])}")
        candidates = [(h, expected.get(h)) for h in hits if any(h)]
        candidates += [(p, (False, False)) for p in misses]
        rng.shuffle(candidates)
        for point, want in candidates:
            got = decide(w.mods, doc, point)
            tally.decided += 1
            tally.check(got == want, f"{doc.name} {point}: verdict {got}, expected {want}")

    return f"box:{doc.name}", job


def decide(mods, doc, point) -> tuple:
    """(simulate, check_invariants) for the template instantiated at point,
    under the file's own budgets; 'TL' when the budget runs out."""
    settings = doc.settings
    loop = mods.synthesis.instantiate(doc.template, point)
    sim = mods.synthesis.simulate(loop, doc.invariants, mods.pipeline.SIMULATION_STEPS)
    try:
        exact = mods.synthesis.check_invariants(
            loop, doc.invariants, max_rounds=settings.max_rounds,
            budget=mods.pipeline.Budget(seconds=settings.synth_budget))
    except mods.pipeline.BudgetExceeded:
        exact = "TL"
    return sim, exact


def parse_system(mods, doc, strings: list[str]):
    ctx = mods.polyring.VarContext((), doc.template.coefficient_names)
    polys = tuple(mods.polyring.parse_polynomial(s, ctx) for s in strings)
    return mods.synthesis.SynthesisSystem(ctx, polys, len(polys), 0)


def _sample_misses(rng: random.Random, count: int, bound: int, arity: int,
                   hits: list) -> list[tuple[int, ...]]:
    """count distinct box points that are not among the reference hits."""
    taken = set(map(tuple, hits))
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        p = tuple(rng.randint(-bound, bound) for _ in range(arity))
        if p not in taken:
            taken.add(p)
            out.append(p)
    return out


def _diff(got: dict, want: dict) -> str:
    keys = [k for k in want if got.get(k) != want[k]]
    return "differs from reference in " + ", ".join(keys) if keys else "matches"


# ---------------------------------------------------------------------------
# Checks that do not come from the code under test (outside timed passes).


def independent_checks(w: Workload, tally: Tally) -> None:
    if w.name == "synth-paper":
        _check_readme_solution(w, tally)
    if w.name in ("synth-paper", "synth-grid"):
        _check_against_sympy(w, tally)


def _check_readme_solution(w: Workload, tally: Tally) -> None:
    """The README's loop zeroes intro_cubic's system, evaluated by plain
    Python arithmetic, and survives simulation."""
    doc = w.docs["intro_cubic"]
    names = doc.template.coefficient_names
    point = {n: Fraction(v) for n, v in zip(names, README_SOLUTION)}
    values = [eval(s.replace("^", "**"), {"__builtins__": {}}, dict(point))
              for s in w.reports["intro_cubic"].system]
    tally.check(all(v == 0 for v in values), "README solution does not zero intro_cubic's system")
    loop = w.mods.synthesis.instantiate(doc.template, README_SOLUTION)
    tally.check(w.mods.synthesis.simulate(loop, doc.invariants, w.mods.pipeline.SIMULATION_STEPS),
                "README solution fails simulate")


def _check_against_sympy(w: Workload, tally: Tally) -> None:
    """Each system's grevlex reduced basis (made monic) and zero-dimension
    verdict must match sympy's, when sympy is importable."""
    try:
        import sympy
    except ImportError:
        return
    mods = w.mods
    for name, report in w.reports.items():
        names = w.docs[name].template.coefficient_names
        if not report.system:
            continue
        ctx = mods.polyring.VarContext((), names)
        polys = [mods.polyring.parse_polynomial(s, ctx) for s in report.system]
        basis = mods.groebner.buchberger(polys, mods.polyring.DEGREVLEX)
        gens = sympy.symbols(names)
        local = dict(zip(names, gens))
        ref = sympy.groebner([sympy.sympify(s.replace("^", "**"), locals=local)
                              for s in report.system], *gens, order="grevlex")
        ours = {sympy.Poly(sympy.sympify(str(g).replace("^", "**"), locals=local),
                           *gens, domain="QQ").monic() for g in basis}
        theirs = {sympy.Poly(g, *gens, domain="QQ").monic() for g in ref.exprs}
        tally.check(ours == theirs, f"{name}: reduced basis differs from sympy's")
        finite = "finite" if ref.is_zero_dimensional else "infinite"
        tally.check(report.finiteness == finite,
                    f"{name}: finiteness {report.finiteness}, sympy says {finite}")
