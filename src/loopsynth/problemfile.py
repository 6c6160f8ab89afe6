"""Line-oriented problem files describing synthesis and check problems.

    # comment                       (blank lines and # comments ignored)
    vars x1 x2 x3                   required, first directive
    init 1 1 -1                     required, one rational per variable
    guard x2                        optional, repeatable (product), default 1
    invariant x2^2 - x1             at least one
    gen x1: x1^3, x2^2              synthesis form: generators per variable
    update x1: -3*x1^3 + 3*x2^2     check form: one concrete update each
    option domain integers          integers | rationals
    option nonzero vector           vector | none | <coefficient name>
    option solver z3 {file}         external solver command template
    option solve_budget 60          seconds, finite and > 0
    option synth_budget 300         seconds, finite and > 0
    option rounds 32                invariant-set round cap, an integer >= 1

A file uses either gen lines (every variable needs at least one) or
update lines (exactly one per variable), never both.  Repeated gen lines
for one variable accumulate; vars and init accept commas as separators;
init values are exact rationals (1, -1, 1/2, 0.25).  Polynomials follow
the grammar documented in the polynomial module; errors carry line:col.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .polyring import (ParseError, Polynomial, VarContext, as_rational,
                       parse_polynomial)
from .solve import (DEFAULT_DOMAIN, DEFAULT_SOLVE_SECONDS, NONZERO_VECTOR,
                    check_domain, check_nonzero, check_seconds, solver_argv)
from .synthesis import DEFAULT_MAX_ROUNDS, ConcreteLoop, InvariantSpec, LoopTemplate

DEFAULT_SYNTH_BUDGET = 300.0


@dataclass(frozen=True)
class Settings:
    """The run options.  Option lines, flags and keyword overrides all
    become a Settings, whose check raises ValueError naming the option."""

    domain: str = DEFAULT_DOMAIN
    nonzero: str = NONZERO_VECTOR
    solver: str | None = None
    solve_budget: float = DEFAULT_SOLVE_SECONDS
    synth_budget: float = DEFAULT_SYNTH_BUDGET
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self):
        check_domain(self.domain)
        if not (isinstance(self.nonzero, str) and self.nonzero.isidentifier()):
            raise ValueError("nonzero must be vector, none or a coefficient name, "
                             f"not {self.nonzero!r}")
        if self.solver is not None:
            solver_argv("solver", self.solver)
        check_seconds("solve_budget", self.solve_budget)
        check_seconds("synth_budget", self.synth_budget)
        if type(self.max_rounds) is not int or self.max_rounds < 1:
            raise ValueError(f"rounds must be an integer >= 1, not {self.max_rounds!r}")


# option key -> (Settings field, type of its value)
_OPTIONS = {"domain": ("domain", str), "nonzero": ("nonzero", str),
            "solver": ("solver", str), "solve_budget": ("solve_budget", float),
            "synth_budget": ("synth_budget", float), "rounds": ("max_rounds", int)}


@dataclass(frozen=True)
class ProblemDoc:
    """A parsed problem: a template (synthesis form) or a concrete loop
    (check form), the target invariants, and per-file settings."""

    name: str
    invariants: InvariantSpec
    template: LoopTemplate | None = None
    loop: ConcreteLoop | None = None
    settings: Settings = field(default_factory=Settings)

    @property
    def is_concrete(self) -> bool:
        return self.loop is not None


def _fail(msg: str, line: int, col: int = 1):
    raise ParseError(msg, line, col)


def _typed(kind: type, text: str):
    # text that does not convert stays text, for Settings to reject by name
    try:
        return kind(text)
    except ValueError:
        return text


def _resolve(doc: ProblemDoc, **overrides) -> ProblemDoc:
    """doc with the overrides that are not None applied to its settings.
    Settings checks every value and a template the nonzero policy, so a
    bad override raises ValueError before any work starts."""
    kept = {k: v for k, v in overrides.items() if v is not None}
    settings = replace(doc.settings, **kept) if kept else doc.settings
    if not doc.is_concrete:
        check_nonzero(settings.nonzero, doc.template.coefficient_names)
    return replace(doc, settings=settings)


def _reparse(text: str, ctx: VarContext, line: int, col: int) -> Polynomial:
    try:
        return parse_polynomial(text, ctx)
    except ParseError as exc:
        raise ParseError(exc.message, line, col + exc.col - 1) from None


def parse_problem(text: str, name: str = "<string>") -> ProblemDoc:
    ctx: VarContext | None = None
    init: tuple | None = None
    guards: list[Polynomial] = []
    invariants: list[Polynomial] = []
    gens: dict[str, list[Polynomial]] = {}
    updates: dict[str, Polynomial] = {}
    settings = Settings()
    nonzero_pos = (1, 1)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        word = line.split(None, 1)[0]
        word_col = line.index(word) + 1
        rest = line[word_col - 1 + len(word):]
        rest_col = word_col + len(word) + (len(rest) - len(rest.lstrip()))
        rest = rest.strip()

        if word == "vars":
            if ctx is not None:
                _fail("duplicate vars line", lineno, word_col)
            names = rest.replace(",", " ").split()
            if not names:
                _fail("vars needs at least one name", lineno, rest_col)
            try:
                ctx = VarContext(tuple(names))
            except ValueError as exc:
                _fail(str(exc), lineno, rest_col)
            continue
        if ctx is None:
            _fail("the first directive must be vars", lineno, word_col)

        if word == "init":
            if init is not None:
                _fail("duplicate init line", lineno, word_col)
            vals = rest.replace(",", " ").split()
            if len(vals) != ctx.arity:
                _fail(f"init needs {ctx.arity} values, got {len(vals)}",
                      lineno, rest_col)
            try:
                init = tuple(as_rational(v) for v in vals)
            except (ValueError, TypeError) as exc:
                _fail(str(exc), lineno, rest_col)
        elif word == "guard":
            guards.append(_reparse(rest, ctx, lineno, rest_col))
        elif word == "invariant":
            invariants.append(_reparse(rest, ctx, lineno, rest_col))
        elif word in ("gen", "update"):
            if ":" not in rest:
                _fail(f"{word} syntax: {word} <var>: <polynomial>", lineno, rest_col)
            head, _, body = rest.partition(":")
            var = head.strip()
            if var not in ctx:
                _fail(f"unknown variable {var!r}", lineno, rest_col)
            body_col = rest_col + rest.index(":") + 1
            if word == "gen":
                bucket = gens.setdefault(var, [])
                offset = body_col
                for piece in body.split(","):
                    pad = len(piece) - len(piece.lstrip())
                    if not piece.strip():
                        _fail("empty generator", lineno, offset + pad)
                    bucket.append(_reparse(piece.strip(), ctx, lineno, offset + pad))
                    offset += len(piece) + 1
            else:
                if var in updates:
                    _fail(f"duplicate update for {var!r}", lineno, word_col)
                pad = len(body) - len(body.lstrip())
                if not body.strip():
                    _fail("empty update", lineno, body_col)
                updates[var] = _reparse(body.strip(), ctx, lineno, body_col + pad)
        elif word == "option":
            parts = rest.split(None, 1)
            if not parts:
                _fail("option needs a key", lineno, rest_col)
            key = parts[0]
            val = parts[1].strip() if len(parts) > 1 else ""
            if not val:
                _fail(f"option {key} needs a value", lineno, rest_col)
            if key not in _OPTIONS:
                _fail(f"unknown option {key!r}", lineno, rest_col)
            attr, kind = _OPTIONS[key]
            try:
                settings = replace(settings, **{attr: _typed(kind, val)})
            except ValueError as exc:
                _fail(str(exc), lineno, rest_col)
            if key == "nonzero":
                nonzero_pos = (lineno, rest_col)
        else:
            _fail(f"unknown directive {word!r}", lineno, word_col)

    if ctx is None:
        _fail("missing vars line", 1)
    if init is None:
        _fail("missing init line", 1)
    if not invariants:
        _fail("need at least one invariant", 1)
    if gens and updates:
        _fail("gen and update lines cannot be mixed", 1)
    if not gens and not updates:
        _fail("need gen lines (synthesis) or update lines (check)", 1)

    guard = Polynomial.one(ctx)
    for g in guards:
        guard = guard * g
    spec = InvariantSpec(tuple(invariants))

    missing = [n for n in ctx.names if n not in (gens or updates)]
    if missing:
        _fail(f"no {'generators' if gens else 'update'} for {', '.join(missing)}", 1)
    template = loop = None
    if gens:
        template = LoopTemplate(ctx, init, guard,
                                tuple(tuple(gens[n]) for n in ctx.names))
    else:
        loop = ConcreteLoop(ctx, init, guard, tuple(updates[n] for n in ctx.names))
    try:
        check_nonzero(settings.nonzero, template.coefficient_names if template else ())
    except ValueError as exc:
        _fail(str(exc), *nonzero_pos)
    return ProblemDoc(name, spec, template=template, loop=loop, settings=settings)
