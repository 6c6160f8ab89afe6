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
init values are exact rationals (1, -1, 1/2, 0.25).  Every numeral is
ASCII with no '_'.  Polynomials follow the grammar documented in the
polynomial module, and all of a file's polynomials share one expansion
allowance; errors carry line:col.  _OPTIONS declares the options once:
cli builds a flag from each and reads its text as the line's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .polyring import MAX_DIGITS, ParseError, Polynomial, VarContext, _Parser, as_rational
from .solve import (DEFAULT_DOMAIN, DEFAULT_SOLVE_SECONDS, NONZERO_VECTOR,
                    check_domain, check_nonzero, check_seconds, solver_argv)
from .synthesis import DEFAULT_MAX_ROUNDS, ConcreteLoop, InvariantSpec, LoopTemplate

DEFAULT_SYNTH_BUDGET = 300.0
_DIRECTIVE = re.compile(r"\s*(\S*)\s*")  # a line's directive word, up to the rest


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


def _integer(text: str):
    # an INT of the polynomial grammar, else the text, for Settings to
    # reject (int() takes '١_0', and past MAX_DIGITS digits it raises)
    ok = text.isascii() and text.isdigit() and len(text) <= MAX_DIGITS
    return int(text) if ok else text


def _seconds(text: str):
    # an ASCII decimal with no '_', else the text (float() takes '١_0' too)
    try:
        return float(text) if text.isascii() and "_" not in text else text
    except ValueError:
        return text


# The one declaration of the run options, for option lines and cli flags:
# key -> (Settings field, reader of its text, flag help, solver verbs only)
_OPTIONS = {
    "domain": ("domain", str, "solution domain: integers or rationals (default from "
               "file, else integers)", True),
    "nonzero": ("nonzero", str, "nonzero policy: vector, none, or a coefficient name", True),
    "solver": ("solver", str, "solver command; {file} marks where the script path goes "
               "(overrides LOOPSYNTH_SOLVER)", True),
    "solve_budget": ("solve_budget", _seconds, "external solver time limit", True),
    "synth_budget": ("synth_budget", _seconds, "synthesis/verification time limit", False),
    "rounds": ("max_rounds", _integer, "stabilization round limit", False)}


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


def _resolve(doc: ProblemDoc, **overrides) -> ProblemDoc:
    """doc with the overrides that are not None applied to its settings.
    Settings checks every value and a template the nonzero policy, so a
    bad override raises ValueError before any work starts."""
    kept = {k: v for k, v in overrides.items() if v is not None}
    settings = replace(doc.settings, **kept) if kept else doc.settings
    if not doc.is_concrete:
        check_nonzero(settings.nonzero, doc.template.coefficient_names)
    return replace(doc, settings=settings)


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
        m = _DIRECTIVE.match(line)
        word, rest = m[1], line[m.end():]
        if not word:
            continue
        word_col, rest_col = m.start(1) + 1, m.end() + 1

        if word == "vars":
            if ctx is not None:
                raise ParseError("duplicate vars line", lineno, word_col)
            names = rest.replace(",", " ").split()
            if not names:
                raise ParseError("vars needs at least one name", lineno, rest_col)
            try:
                ctx = VarContext(tuple(names))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, rest_col)
            parser = _Parser(ctx)
            continue
        if ctx is None:
            raise ParseError("the first directive must be vars", lineno, word_col)

        if word == "init":
            if init is not None:
                raise ParseError("duplicate init line", lineno, word_col)
            vals = rest.replace(",", " ").split()
            if len(vals) != ctx.arity:
                raise ParseError(f"init needs {ctx.arity} values, got {len(vals)}",
                                 lineno, rest_col)
            try:
                init = tuple(as_rational(v) for v in vals)
            except (ValueError, TypeError) as exc:
                raise ParseError(str(exc), lineno, rest_col)
        elif word == "guard":
            guards.append(parser.parse(rest, lineno, rest_col))
        elif word == "invariant":
            invariants.append(parser.parse(rest, lineno, rest_col))
        elif word in ("gen", "update"):
            if ":" not in rest:
                raise ParseError(f"{word} syntax: {word} <var>: <polynomial>", lineno, rest_col)
            head, _, body = rest.partition(":")
            var = head.strip()
            if var not in ctx:
                raise ParseError(f"unknown variable {var!r}", lineno, rest_col)
            body_col = rest_col + rest.index(":") + 1
            if word == "gen":
                bucket = gens.setdefault(var, [])
                offset = body_col
                for piece in body.split(","):
                    if not piece.strip():
                        raise ParseError("empty generator", lineno, offset + len(piece))
                    bucket.append(parser.parse(piece.rstrip(), lineno, offset))
                    offset += len(piece) + 1
            else:
                if var in updates:
                    raise ParseError(f"duplicate update for {var!r}", lineno, word_col)
                if not body.strip():
                    raise ParseError("empty update", lineno, body_col)
                updates[var] = parser.parse(body, lineno, body_col)
        elif word == "option":
            if not rest:
                raise ParseError("option needs a key", lineno, rest_col)
            key, *val = rest.split(None, 1)  # rest is stripped
            if not val:
                raise ParseError(f"option {key} needs a value", lineno, rest_col)
            if key not in _OPTIONS:
                raise ParseError(f"unknown option {key!r}", lineno, rest_col)
            attr, read, _, _ = _OPTIONS[key]
            try:
                settings = replace(settings, **{attr: read(val[0])})
            except ValueError as exc:
                raise ParseError(str(exc), lineno, rest_col)
            if key == "nonzero":
                nonzero_pos = (lineno, rest_col)
        else:
            raise ParseError(f"unknown directive {word!r}", lineno, word_col)

    if ctx is None:
        raise ParseError("missing vars line", 1)
    if init is None:
        raise ParseError("missing init line", 1)
    if not invariants:
        raise ParseError("need at least one invariant", 1)
    if gens and updates:
        raise ParseError("gen and update lines cannot be mixed", 1)
    if not gens and not updates:
        raise ParseError("need gen lines (synthesis) or update lines (check)", 1)

    guard = Polynomial.one(ctx)
    for g in guards:
        guard = guard * g
    spec = InvariantSpec(tuple(invariants))

    missing = [n for n in ctx.names if n not in (gens or updates)]
    if missing:
        raise ParseError(f"no {'generators' if gens else 'update'} for {', '.join(missing)}", 1)
    template = loop = None
    if gens:
        template = LoopTemplate(ctx, init, guard,
                                tuple(tuple(gens[n]) for n in ctx.names))
    else:
        loop = ConcreteLoop(ctx, init, guard, tuple(updates[n] for n in ctx.names))
    try:
        check_nonzero(settings.nonzero, template.coefficient_names if template else ())
    except ValueError as exc:
        raise ParseError(str(exc), *nonzero_pos)
    return ProblemDoc(name, spec, template=template, loop=loop, settings=settings)
