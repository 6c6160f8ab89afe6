"""Synthesis of polynomial loops from target polynomial invariants.

A loop template fixes initial values a, a guard polynomial h (h = 1 means
the loop never exits), and per-variable generator lists f_i1..f_il; the
unknown update map is F_i = sum_j y_ij * f_ij for coefficient unknowns y.
generate_loops() produces an exact polynomial system in y whose solutions
are precisely the coefficient vectors making every target invariant hold
along the loop.

The machinery underneath is the invariant-set computation: the largest
subset of an algebraic set X that a polynomial map never leaves.  Starting
from the defining polynomials S_0 = g of X, round k+1 composes the last
batch with the map and stops once the new batch lands in the radical of
<S_k>; otherwise S_{k+1} is S_k plus the batch.  The final S cuts out the
invariant set.

The guard enters as a factor: round k+1 holds h * (q o F) for each q of
round k, so a state where h vanishes imposes nothing further.  This gives
the paper's result without its flag variable z, which stabilizes V(z*g)
under (F(x), y, z*h(x)) and binds z = 1 at the end: every polynomial there
is z times one of these, V(z*U) = V(z) u V(U), and z = 1 at the start lies
off V(z).

The search composes remainders, not the batch itself.  Composition is a
ring map, so h * (<S_k> o F) lies in <S_{k+1}>; for r = NF(q) modulo a
basis of <S_k>, h*(q o F) - h*(r o F) = h*((q - r) o F) lies in <S_{k+1}>
too.  So a working set W that starts as g and gains each round's nonzero
remainders has <W> = <S> in every round, the reduced basis is the same,
and every membership test sees the same remainders: the rounds and every
verdict are those of the paper's loop.  The paper's round-k batch is
(g o F^k) * prod_{j<k} (h o F^j); at a start point a, it is g at F^k(a)
times the guard values at F^j(a), j < k: the batch along the orbit of a.

check_invariants walks this orbit numerically on the concrete map, one
state per round: a lies in V(S) iff each batch vanishes at a, and while
the guard values passed are nonzero, round k's batch vanishes at a iff g
vanishes at the k-th state.  At a state where h vanishes the loop exits
and the walk ends: every later batch value carries that zero guard value
as a factor, so True is then the exact verdict, with no further round.
At a state equal to an earlier one the walk ends too: the orbit from there
repeats states already checked, so g vanishes at every later state, every
later batch value is zero, and True is again exact.
For synthesis the map G also maps the coefficient block y identically,
the search runs over (x, y), and the returned system is S at x = a: as
(q o G)(a, y) = q(G_x(a, y), y), the same orbit walked symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from . import groebner  # buchberger through the module, where a wrapper sees it
from .budget import Budget, BudgetExceeded
from .groebner import all_in_radical
from .polyring import Coeff, Polynomial, VarContext, as_rational

DEFAULT_MAX_ROUNDS = 32
SIMULATION_STEPS = 10


def _check_loop(loop, polys: Iterable[Polynomial]) -> None:
    """The checks LoopTemplate and ConcreteLoop share: a context of program
    variables, init as one rational per variable, guard and polys over it."""
    ctx = loop.context
    if ctx.y_names or ctx.t_name or not ctx.x_names:
        raise ValueError(f"{type(loop).__name__} needs a context of program variables only")
    if isinstance(loop.init, str):
        raise ValueError(f"init must be a sequence of values, not {loop.init!r}")
    object.__setattr__(loop, "init", tuple(as_rational(v) for v in loop.init))
    if len(loop.init) != ctx.arity:
        raise ValueError(f"init needs {ctx.arity} values, got {len(loop.init)}")
    if loop.guard.context != ctx:
        raise ValueError("the guard must live in the loop's context")
    for p in polys:
        if p.context != ctx:
            raise ValueError("every polynomial must live in the loop's context")


@dataclass(frozen=True)
class LoopTemplate:
    """Template L(a, h, f): initial values, guard, and generator lists."""

    context: VarContext
    init: tuple[Coeff, ...]
    guard: Polynomial
    generators: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        gens = tuple(tuple(gs) for gs in self.generators)
        object.__setattr__(self, "generators", gens)
        _check_loop(self, chain.from_iterable(gens))
        if len(gens) != len(self.init):  # one init value per variable
            raise ValueError(f"need one generator list per variable ({len(self.init)})")
        for name, gs in zip(self.context.names, gens):
            if not gs:
                raise ValueError(f"variable {name} has no generators")

    @property
    def coeff_count(self) -> int:
        return sum(len(gs) for gs in self.generators)

    @property
    def coefficient_names(self) -> tuple[str, ...]:
        """Fresh flat names y1..yl for the unknown coefficients, numbered in
        generator order (prefix adjusted if a program variable clashes)."""
        l = self.coeff_count
        prefix = "y"
        while any(f"{prefix}{k}" in self.context.names for k in range(1, l + 1)):
            prefix += "_"
        return tuple(f"{prefix}{k}" for k in range(1, l + 1))


@dataclass(frozen=True)
class InvariantSpec:
    """Target invariants g_1..g_m (to vanish on every visited state)."""

    polys: tuple[Polynomial, ...]

    def __post_init__(self):
        polys = tuple(self.polys)
        object.__setattr__(self, "polys", polys)
        if not polys:
            raise ValueError("need at least one invariant")
        ctx = polys[0].context
        for g in polys:
            if g.context != ctx:
                raise ValueError("invariants must share one context")

    @property
    def context(self) -> VarContext:
        return self.polys[0].context


@dataclass(frozen=True)
class SynthesisSystem:
    """Polynomial constraints on the coefficient block, with provenance:
    q_count invariant-set polynomials before the zero ones are dropped,
    rounds radical checks performed."""

    context: VarContext
    polys: tuple[Polynomial, ...]
    q_count: int
    rounds: int

    @property
    def s(self) -> int:
        return len(self.polys)

    def as_strings(self) -> list[str]:
        return [str(p) for p in self.polys]


@dataclass(frozen=True)
class ConcreteLoop:
    """Fully instantiated loop: x <- a; while h(x) != 0: x <- F(x)."""

    context: VarContext
    init: tuple[Coeff, ...]
    guard: Polynomial
    update: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "update", tuple(self.update))
        _check_loop(self, self.update)
        if len(self.update) != len(self.init):  # one init value per variable
            raise ValueError("need one update per variable")


def invariant_set(g: Sequence[Polynomial], F: Sequence[Polynomial],
                  max_rounds: int = DEFAULT_MAX_ROUNDS) -> list[Polynomial]:
    """Defining polynomials of the invariant set of V(g) under the map F.

    Returns g followed by the composed batches added before stabilization.
    Raises BudgetExceeded when the radical checks have not stabilized after
    max_rounds rounds.
    """
    g = list(g)
    if not g:
        raise ValueError("invariant_set needs at least one polynomial")
    h = Polynomial.one(g[0].context)
    *_, rounds = _rounds(g, F, h, max_rounds, None)
    return _generators(g, F, h, Polynomial.variables(h.context), rounds)


def _rounds(g: Sequence[Polynomial], F: Sequence[Polynomial], h: Polynomial,
            max_rounds: int, budget: Budget | None) -> Iterator[int]:
    """Rounds of the invariant-set loop of V(g) under F guarded by h: yields
    0, then k as round k begins (after the budget tick, before any work).
    Round k composes the last remainders, computes one basis of <W> = <S>
    (module docstring), reduces each batch member once modulo it and tests
    the nonzero remainders for radical membership.  It returns once they
    all lie in the radical, so the last k is the round count, and raises
    BudgetExceeded past max_rounds."""
    if type(max_rounds) is not int or max_rounds < 1:  # a bool is no count
        raise ValueError(f"max_rounds must be an integer >= 1, not {max_rounds!r}")
    yield 0
    W, rems = list(g), list(g)
    for k in range(1, max_rounds + 1):
        if budget is not None:
            budget.tick()
        yield k
        batch = [h * r.compose(F) for r in rems]
        basis = groebner.buchberger(W, budget=budget)
        rems = [r for r in (basis.normal_form(p, budget) for p in batch) if r]
        if all_in_radical(rems, basis, budget=budget):
            return
        W.extend(rems)
    raise BudgetExceeded(f"invariant-set round budget exceeded ({max_rounds} rounds)")


def _generators(g: Sequence[Polynomial], F: Sequence[Polynomial], h: Polynomial,
                state: Sequence[Polynomial], rounds: int) -> list[Polynomial]:
    # the paper's S after `rounds` rounds, taken at `state` (one image per variable)
    S = [p.compose(state) for p in g]
    w = 1
    for _ in range(rounds - 1):
        w = h.compose(state) * w
        state = [f.compose(state) for f in F]
        S.extend(w * p.compose(state) for p in g)
    return S


def build_augmented_map(template: LoopTemplate) -> tuple[list[Polynomial], VarContext]:
    """The synthesis map G(x, y) = (sum_j y_ij f_ij(x), y) over the extended
    context (x-block, y-block); the guard is not part of it (see the module
    docstring)."""
    ynames = template.coefficient_names
    ctx = VarContext(template.context.x_names, ynames)
    maps: list[Polynomial] = []
    k = 0
    for gens in template.generators:
        comp = Polynomial.zero(ctx)
        for f in gens:
            comp = comp + Polynomial.variable(ctx, ynames[k]) * f.extend_context(ctx)
            k += 1
        maps.append(comp)
    for yn in ynames:
        maps.append(Polynomial.variable(ctx, yn))
    return maps, ctx


def generate_loops(template: LoopTemplate, invariants: InvariantSpec,
                   max_rounds: int = DEFAULT_MAX_ROUNDS,
                   budget: Budget | None = None) -> SynthesisSystem:
    """Exact constraints on the template coefficients y making every
    invariant hold along the loop: the invariant set of V(g_1..g_m) under
    the augmented map with the guard h as a factor, taken at x = a, zero
    results dropped, and survivors content-normalized for printing."""
    if invariants.context != template.context:
        raise ValueError("invariants must live in the template context")
    maps, ctx = build_augmented_map(template)
    gs = [g.extend_context(ctx) for g in invariants.polys]
    h = template.guard.extend_context(ctx)
    *_, rounds = _rounds(gs, maps, h, max_rounds, budget)
    yctx = ctx.restrict(ctx.y_names)
    start = [Polynomial.constant(yctx, a) for a in template.init]
    S = _generators(gs, maps, h, start + Polynomial.variables(yctx), rounds)
    polys = tuple(q.primitive_part() for q in S if q)
    return SynthesisSystem(yctx, polys, len(S), rounds)


def _coefficient_values(names: Sequence[str], coeffs: Mapping) -> list[Coeff]:
    """coeffs[n] for each n of names; ValueError names a missing or unknown one."""
    missing = [n for n in names if n not in coeffs]
    if missing:
        raise ValueError(f"missing coefficients {missing}")
    unknown = [n for n in coeffs if n not in names]
    if unknown:
        raise ValueError(f"unknown coefficients {unknown}")
    return [as_rational(coeffs[n]) for n in names]


def instantiate(template: LoopTemplate, coeffs) -> ConcreteLoop:
    """Concrete loop from a coefficient vector (sequence in y-order, or a
    mapping keyed by the coefficient names)."""
    names = template.coefficient_names
    if isinstance(coeffs, str):
        raise ValueError(f"coefficients must be a sequence or a mapping, not {coeffs!r}")
    if isinstance(coeffs, Mapping):
        vals = _coefficient_values(names, coeffs)
    else:
        vals = [as_rational(v) for v in coeffs]
        if len(vals) != len(names):
            raise ValueError(f"need {len(names)} coefficients, got {len(vals)}")
    updates = []
    k = 0
    for gens in template.generators:
        updates.append(Polynomial.combination(template.context, gens,
                                              vals[k:k + len(gens)]))
        k += len(gens)
    return ConcreteLoop(template.context, template.init, template.guard,
                        tuple(updates))


def check_invariants(loop: ConcreteLoop, invariants: InvariantSpec,
                     max_rounds: int = DEFAULT_MAX_ROUNDS,
                     budget: Budget | None = None) -> bool:
    """Exact invariance test: all g vanish on every reachable state iff a
    lies in the invariant set of V(g) under F with the guard h as a factor:
    one state per round, and a loop that exits or revisits a state is
    decided by the states it visits (module docstring)."""
    if invariants.context != loop.context:
        raise ValueError("invariants must live in the loop context")
    rounds = _rounds(invariants.polys, loop.update, loop.guard, max_rounds, budget)
    seen = set()
    for _, state in zip(rounds, _states(loop)):
        key = tuple(state.values())
        if key in seen:
            return True
        if any(g.evaluate(state) != 0 for g in invariants.polys):
            return False
        if loop.guard.evaluate(state) == 0:
            return True
        seen.add(key)
    return True


def _states(loop: ConcreteLoop, budget: Budget | None = None) -> Iterator[dict]:
    """The orbit of init under the update map, as name -> value maps; the
    budget ticks once per move.  The consumer tests the guard."""
    names = loop.context.names
    state = dict(zip(names, loop.init))
    while True:
        yield state
        if budget is not None:
            budget.tick()
        state = {n: u.evaluate(state) for n, u in zip(names, loop.update)}


def simulate(loop: ConcreteLoop, invariants: InvariantSpec,
             steps: int = SIMULATION_STEPS, budget: Budget | None = None) -> bool:
    """Run the loop exactly for up to `steps` iterations; False iff some
    visited state (the terminal one included, when the guard vanishes)
    violates an invariant.  Evidence only: True is no proof.  The budget,
    when given, ticks once per step.

    The walk ends at a state equal to an earlier one: the states after it
    repeat checked ones (module docstring), so the verdict is True, and
    the steps it skips still tick the budget.  One earlier state is kept,
    replaced at steps 1, 2, 4, 8, ... (Brent's cycle test): a walk that
    enters a cycle of length L after M steps ends by step 2*max(M, L) + L."""
    if type(steps) is not int or steps < 1:  # a bool is no count
        raise ValueError(f"steps must be an integer >= 1, not {steps!r}")
    if invariants.context != loop.context:
        raise ValueError("invariants must live in the loop context")
    saved = None
    for k, state in enumerate(_states(loop, budget)):
        key = tuple(state.values())
        if key == saved:
            if budget is not None and k < steps:
                budget.tick(steps - k)
            return True
        if any(g.evaluate(state) != 0 for g in invariants.polys):
            return False
        if k == steps or loop.guard.evaluate(state) == 0:
            return True
        if k & (k - 1) == 0:  # k is 0 or a power of 2
            saved = key
