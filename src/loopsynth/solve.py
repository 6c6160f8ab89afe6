"""Searching a synthesis system for rational or integer solutions.

Three independent routes, kept deliberately separate so they can
cross-check each other: an SMT-LIB2 back end driven through an external
solver binary, rational root isolation for univariate members, and an
exhaustive integer box search that binds one coordinate at a time and
raises BudgetExceeded past ENUMERATION_CAP steps.
classify_finiteness tells apart finitely and infinitely many solutions
over the algebraic closure.

Everything a solver claims is re-verified in exact arithmetic before it
is reported; a model that does not check out raises SolverOutputError
rather than being passed along.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping, Sequence

from .budget import Budget, BudgetExceeded
from .groebner import buchberger, is_zero_dimensional
from .polyring import Coeff, Polynomial, as_rational
from .synthesis import SynthesisSystem, _coefficient_values

DOMAINS = ("integers", "rationals")
DEFAULT_DOMAIN = "integers"
NONZERO_VECTOR = "vector"
NONZERO_NONE = "none"

DEFAULT_SOLVE_SECONDS = 60.0
# subprocess waits through poll(), whose timeout is a C int of milliseconds
# (about 24.8 days) and raises OverflowError beyond it; a solver is waited
# for at most this long, and never longer than its budget
MAX_SOLVER_WAIT_SECONDS = 2_000_000
ENV_SOLVER = "LOOPSYNTH_SOLVER"
ENUMERATION_CAP = 2_000_000


class SolverOutputError(RuntimeError):
    """The external solver produced no status or an unusable model."""


# the rules of the solve options; each check raises ValueError naming its option
def check_domain(domain) -> None:
    """The coefficient domain is integers or rationals."""
    if domain not in DOMAINS:
        raise ValueError(f"domain must be integers or rationals, not {domain!r}")


def check_seconds(key: str, value) -> None:
    """A budget is finite int or float seconds > 0 (a bool is not)."""
    if type(value) not in (int, float) or not 0 < value < float("inf"):
        raise ValueError(f"{key} must be finite seconds > 0, not {value!r}")


def check_nonzero(policy, names: Sequence[str]) -> None:
    """The nonzero policy is vector, none or one of the problem's names."""
    if policy not in (NONZERO_VECTOR, NONZERO_NONE, *names):
        have = f"have {', '.join(names)}" if names else "the problem has none"
        raise ValueError(f"nonzero option {policy!r} is not a template coefficient ({have})")


@dataclass(frozen=True)
class SolveRequest:
    """What to solve: the system, the coefficient domain ('integers' or
    'rationals'), the nonzero policy ('vector', 'none', or one coefficient
    name that must be nonzero), and a wall-clock budget in seconds."""

    system: SynthesisSystem
    domain: str = DEFAULT_DOMAIN
    nonzero: str = NONZERO_VECTOR
    budget_seconds: float = DEFAULT_SOLVE_SECONDS

    def __post_init__(self):
        check_domain(self.domain)
        check_nonzero(self.nonzero, self.system.context.names)
        check_seconds("budget_seconds", self.budget_seconds)


@dataclass
class SolveOutcome:
    """status: sat | unsat | unknown | solver-unavailable.  A sat outcome
    always carries an assignment that was re-verified exactly."""

    status: str
    assignment: dict[str, Coeff] | None = None
    diagnostics: str = ""

    @property
    def integral(self) -> bool | None:
        if self.assignment is None:
            return None
        return all(v.denominator == 1 for v in self.assignment.values())


# ---------------------------------------------------------------------------
# SMT-LIB2 emission.


def _smt_term(names: Sequence[str], expo: tuple, coeff: int) -> str:
    factors: list[str] = []
    if coeff != 1 or not any(expo):
        factors.append(str(coeff) if coeff > 0 else f"(- {-coeff})")
    for i, e in enumerate(expo):
        factors.extend([names[i]] * e)
    if len(factors) == 1:
        return factors[0]
    return "(* " + " ".join(factors) + ")"


def _smt_poly(names: Sequence[str], p: Polynomial) -> str:
    # denominators multiplied out and content removed: int coefficients
    terms = [_smt_term(names, e, c) for e, c in p.primitive_part().sorted_terms()]
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def emit_smtlib(request: SolveRequest) -> str:
    """SMT-LIB2 script for the request: QF_NIA over Int or QF_NRA over
    Real, one equation per system polynomial (coefficients cleared to
    integers), the nonzero policy as a disjunction of distinct-from-zero
    atoms, then (check-sat)(get-model)."""
    system = request.system
    if not system.polys:
        raise ValueError("emit_smtlib: empty system (every vector is a solution)")
    names = system.context.names
    logic, sort = (("QF_NIA", "Int") if request.domain == "integers"
                   else ("QF_NRA", "Real"))
    lines = ["(set-option :produce-models true)", f"(set-logic {logic})"]
    lines.extend(f"(declare-const {n} {sort})" for n in names)
    for p in system.polys:
        lines.append(f"(assert (= {_smt_poly(names, p)} 0))")
    if request.nonzero == NONZERO_VECTOR:
        atoms = " ".join(f"(distinct {n} 0)" for n in names)
        lines.append(f"(assert (or {atoms}))")
    elif request.nonzero != NONZERO_NONE:
        lines.append(f"(assert (distinct {request.nonzero} 0))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# S-expression reading (solver output, and script round-trip in tests).


# A comment is matched by no group, and finditer skips the spaces that no
# alternative takes; an unterminated |symbol| or string leaves its opening
# character to `bad`.
_SEXPR_TOKEN = re.compile(r';[^\n]*|(?P<tok>\|[^|]*\||"[^"]*"|[()]|[^\s();|"][^\s();|]*)'
                          r'|(?P<bad>[|"])')


def parse_sexprs(text: str) -> list:
    """All toplevel s-expressions: atoms as strings, lists as Python lists.
    Comments (; to end of line) and |quoted| symbols are handled."""
    tokens: list[str] = []
    for m in _SEXPR_TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise SolverOutputError("unterminated |symbol|" if m.group() == "|"
                                    else "unterminated string literal")
        if m.lastgroup:
            tokens.append(m.group())
    out: list = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SolverOutputError("unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise SolverOutputError("unbalanced '('")
    return out


def _sexpr_value(sx) -> Coeff:
    """Numeric model value: 3, 1.5, (- 3), (/ 1 2), and nestings thereof."""
    if isinstance(sx, str):
        try:
            return as_rational(sx)
        except ValueError:
            raise SolverOutputError(f"unreadable numeral {sx!r}") from None
    if isinstance(sx, list) and sx:
        if sx[0] == "-" and len(sx) == 2:
            return -_sexpr_value(sx[1])
        if sx[0] == "/" and len(sx) == 3:
            den = _sexpr_value(sx[2])
            if den == 0:
                raise SolverOutputError("zero denominator in model value")
            return as_rational(Fraction(_sexpr_value(sx[1]), den))
    raise SolverOutputError(f"unreadable model value {sx!r}")


def _model_assignment(sexprs: list, names: Sequence[str]) -> dict[str, Coeff]:
    defs: dict[str, Coeff] = {}
    def walk(items):
        for sx in items:
            if not isinstance(sx, list) or not sx:
                continue
            if sx[0] == "model":
                walk(sx[1:])
            elif sx[0] == "define-fun" and len(sx) >= 5:
                name = sx[1]
                if isinstance(name, str) and name.startswith("|") and name.endswith("|"):
                    name = name[1:-1]
                if name in names and sx[2] == []:
                    defs[name] = _sexpr_value(sx[4])
            else:
                walk(sx)
    try:
        walk(sexprs)
    except RecursionError:
        raise SolverOutputError("model nested too deeply to read") from None
    # solvers may omit don't-care variables; zero-fill and let the exact
    # re-verification decide whether that is acceptable
    return {n: defs.get(n, 0) for n in names}


def _policy_holds(assignment: Mapping[str, Coeff], nonzero: str,
                  names: Sequence[str]) -> bool:
    if nonzero == NONZERO_VECTOR:
        return any(assignment[n] != 0 for n in names)
    if nonzero == NONZERO_NONE:
        return True
    return assignment[nonzero] != 0


def verify_assignment(request: SolveRequest,
                      assignment: Mapping[str, Coeff]) -> bool:
    """Exact check of a value for each of the system's names (ValueError names
    any other): every polynomial vanishes, the policy and domain hold."""
    names = request.system.context.names
    point = dict(zip(names, _coefficient_values(names, assignment)))
    if request.domain == "integers" and any(v.denominator != 1 for v in point.values()):
        return False
    if not _policy_holds(point, request.nonzero, names):
        return False
    return all(p.evaluate(point) == 0 for p in request.system.polys)


# ---------------------------------------------------------------------------
# External solver driver.


def solver_argv(key: str, command: str) -> list[str]:
    """argv template of a shell-style solver command, where {file} marks
    the script path, alone or inside an argument; it is appended as its own
    argument when no argument holds it.  ValueError naming key on bad
    quoting or a blank command."""
    try:
        argv = shlex.split(command)
        if not argv:
            raise ValueError("blank command")
    except ValueError as exc:
        raise ValueError(f"{key} must be a command line, not {command!r}: {exc}") from None
    return argv if any("{file}" in a for a in argv) else argv + ["{file}"]


def discover_solver(configured: str | None = None) -> list[str] | None:
    """argv template for a usable solver, or None.  The configured command
    (a --solver flag or an option solver line), else LOOPSYNTH_SOLVER, goes
    through solver_argv; otherwise z3/cvc5 on PATH are tried."""
    command = configured or os.environ.get(ENV_SOLVER, "")
    if command.strip():
        return solver_argv("solver" if configured else ENV_SOLVER, command)
    path = shutil.which("z3") or shutil.which("cvc5")
    return [path, "{file}"] if path else None


def solve(request: SolveRequest, command: Sequence[str] | None = None) -> SolveOutcome:
    """Solve the request with an external SMT solver, whose argv template
    comes from discover_solver (None: no solver was found).

    An empty system is satisfied by every vector, so a policy-conforming
    assignment is returned directly without invoking any solver.
    Otherwise the status is read from the solver's output stream (an
    undecodable byte reads as U+FFFD), never from the exit code, and a
    timeout maps to unknown.  A sat model is re-verified exactly against
    the request; a failing or unreadable model raises SolverOutputError.
    """
    names = request.system.context.names
    if not request.system.polys:
        assignment = dict.fromkeys(names, 0)
        if request.nonzero == NONZERO_VECTOR and names:
            assignment[names[0]] = 1
        elif request.nonzero not in (NONZERO_VECTOR, NONZERO_NONE):
            assignment[request.nonzero] = 1
        return SolveOutcome("sat", assignment=assignment,
                            diagnostics="empty system: every vector is a solution")
    if not command:
        return SolveOutcome("solver-unavailable",
                            diagnostics="no solver configured and none on PATH")
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as fh:
        fh.write(emit_smtlib(request))
        path = fh.name
    try:
        argv = [a.replace("{file}", path) for a in command]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, errors="replace",
                                  timeout=min(request.budget_seconds, MAX_SOLVER_WAIT_SECONDS))
        except OSError as exc:  # missing, not executable, a directory, ...
            return SolveOutcome("solver-unavailable",
                                diagnostics=f"cannot execute {argv[0]!r}: {exc.strerror}")
        except subprocess.TimeoutExpired:
            return SolveOutcome("unknown",
                                diagnostics=f"solver timeout after {request.budget_seconds:g}s")
        transcript = proc.stdout + (("\n[stderr]\n" + proc.stderr) if proc.stderr else "")
        status = None
        rest_lines: list[str] = []
        for line in proc.stdout.splitlines():
            word = line.strip()
            if status is None and word in ("sat", "unsat", "unknown"):
                status = word
                continue
            rest_lines.append(line)
        if status is None:
            raise SolverOutputError(
                f"no sat/unsat/unknown in solver output: {transcript[:500]!r}")
        if status != "sat":
            return SolveOutcome(status, diagnostics=transcript)
        assignment = _model_assignment(parse_sexprs("\n".join(rest_lines)), names)
        try:
            verified = verify_assignment(request, assignment)
        except BudgetExceeded:  # a value too large to raise to the system's powers
            verified = False
        if not verified:
            raise SolverOutputError(
                f"solver model failed exact re-verification: {assignment}")
        return SolveOutcome("sat", assignment=assignment, diagnostics=transcript)
    finally:
        os.unlink(path)


# ---------------------------------------------------------------------------
# Univariate rational roots.


def _divisors(n: int, budget: Budget) -> list[int]:
    n = abs(n)
    budget.tick(isqrt(n))  # one step per trial division
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def rational_roots(p: Polynomial) -> list[Coeff]:
    """All rational roots of a univariate polynomial, ascending.

    Candidates are +-(divisor of trailing coefficient)/(divisor of leading
    coefficient) after integer clearing; every candidate is verified by
    exact evaluation.  Nonzero constants have no roots; the zero
    polynomial is rejected.  Raises BudgetExceeded past ENUMERATION_CAP
    trial divisions and candidates.
    """
    if p.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    used = [n for n in p.context.names if p.uses(n)]
    if len(used) > 1:
        raise ValueError(f"not univariate: uses {used}")
    if not used:
        return []
    i = p.context.index(used[0])
    coeffs = {expo[i]: c for expo, c in p.primitive_part().terms.items()}
    degs = sorted(coeffs)
    roots = []
    low = degs[0]
    if low > 0:
        roots.append(0)  # x^low factors out
    trailing = coeffs[low]
    leading = coeffs[degs[-1]]

    def value(x: Coeff) -> Coeff:
        return sum(c * x ** (d - low) for d, c in coeffs.items())

    budget = Budget(max_steps=ENUMERATION_CAP)
    nums, dens = _divisors(trailing, budget), _divisors(leading, budget)
    budget.tick(2 * len(nums) * len(dens))  # one step per candidate
    seen = set(roots)
    for num in nums:
        for den in dens:
            root = as_rational(Fraction(num, den))
            for cand in (root, -root):
                if cand not in seen and value(cand) == 0:
                    roots.append(cand)
                    seen.add(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Integer box search.


def _bind(p: dict, v: int) -> dict:
    """p with its first coordinate set to v, over the others."""
    q: dict = {}
    for expo, c in p.items():
        key = expo[1:]
        q[key] = q.get(key, 0) + c * v ** expo[0]
    return q


def _settle(polys: Iterable[dict], box: range,
            budget: Budget) -> tuple[list[dict], Sequence[int]] | None:
    """Split polynomials over the unbound coordinates, taken in turn,
    into the candidates of the next coordinate (the box integers that are
    roots of every one univariate in it) and the others, fewest terms
    first; zero ones are dropped.  None when a nonzero constant or a
    univariate one without roots prunes.  Each candidate tested against a
    univariate is one budget step."""
    rest, values = [], box
    for q in polys:
        q = {expo: c for expo, c in q.items() if c}
        if not q:
            continue
        if len(q) == 1 and not any(next(iter(q))):
            return None
        if any(any(expo[1:]) for expo in q):
            rest.append(q)
            continue
        coeffs = [0] * (1 + max(expo[0] for expo in q))
        for expo, c in q.items():
            coeffs[expo[0]] = c
        budget.tick(len(values))
        kept = []
        for x in values:
            total = 0
            for c in reversed(coeffs):
                total = total * x + c
            if total == 0:
                kept.append(x)
        if not kept:
            return None
        values = kept
    return sorted(rest, key=len), values


def brute_force_box(system: SynthesisSystem, bound: int) -> list[tuple[int, ...]]:
    """All integer solutions with every coordinate in [-bound, bound],
    in ascending lexicographic order.  Raises BudgetExceeded once the
    search takes more than ENUMERATION_CAP steps: a step is a value tried
    for a coordinate, or a box value tested against a univariate.

    The search binds y1, y2, ... in turn, depth first and each over
    ascending values.  Binding a coordinate substitutes its value into
    the polynomials, fewest terms first, and drops those that vanish
    identically.  A nonzero constant prunes the prefix at once.  A
    polynomial univariate in the next coordinate is dropped too, and
    that coordinate then runs only over its integer roots in the box,
    found by Horner evaluation; no roots also prunes.  A point is a hit
    once every polynomial has vanished, so each hit is exact.
    """
    if type(bound) is not int or bound < 0:
        raise ValueError(f"bound must be an integer >= 0, not {bound!r}")
    l = len(system.context.names)
    box = range(-bound, bound + 1)
    budget = Budget(max_steps=ENUMERATION_CAP)
    hits: list[tuple[int, ...]] = []

    def search(point: tuple[int, ...], polys: list[dict], values: Sequence[int]) -> None:
        if len(point) == l:
            hits.append(point)
            return
        for v in values:
            budget.tick()
            settled = _settle((_bind(p, v) for p in polys), box, budget)
            if settled:
                search(point + (v,), *settled)

    smallest_first = sorted(system.polys, key=lambda p: len(p.terms))
    settled = _settle((p.terms for p in smallest_first), box, budget)
    if settled:
        search((), *settled)
    return hits


# ---------------------------------------------------------------------------
# Finiteness of the solution set.


def classify_finiteness(system: SynthesisSystem,
                        budget: Budget | None = None) -> str:
    """'finite' | 'infinite' | 'unknown' for the solution count over the
    algebraic closure: a basis {1} or a full staircase means finite (the
    empty set counts), a missing pure power means a positive-dimensional
    component, budget exhaustion means unknown."""
    if not system.polys:
        return "finite" if not system.context.names else "infinite"
    try:
        basis = buchberger(list(system.polys), budget=budget)
    except BudgetExceeded:
        return "unknown"
    return "finite" if is_zero_dimensional(basis) else "infinite"
