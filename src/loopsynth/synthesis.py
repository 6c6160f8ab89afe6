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

check_invariants walks this orbit numerically on the concrete map.  For
synthesis the map G also maps the coefficient block y identically, the
search runs over (x, y), and the returned system is S at x = a: as
(q o G)(a, y) = q(G_x(a, y), y), the same orbit walked symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import groebner  # buchberger through the module, where a wrapper sees it
from .budget import Budget, BudgetExceeded
from .groebner import all_in_radical
from .polyring import Coeff, Polynomial, VarContext, as_rational

DEFAULT_MAX_ROUNDS = 32
SIMULATION_STEPS = 10


def _require_program_context(ctx: VarContext, what: str):
    if ctx.y_names or ctx.t_name:
        raise ValueError(f"{what} must use a program-variable context only")
    if not ctx.x_names:
        raise ValueError(f"{what} needs at least one program variable")


@dataclass(frozen=True)
class LoopTemplate:
    """Template L(a, h, f): initial values, guard, and generator lists."""

    context: VarContext
    init: tuple[Coeff, ...]
    guard: Polynomial
    generators: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        _require_program_context(self.context, "LoopTemplate")
        if isinstance(self.init, str):
            raise ValueError(f"init must be a sequence of values, not {self.init!r}")
        n = self.context.arity
        object.__setattr__(self, "init", tuple(as_rational(v) for v in self.init))
        if len(self.init) != n:
            raise ValueError(f"init needs {n} values, got {len(self.init)}")
        if self.guard.context != self.context:
            raise ValueError("guard must live in the template context")
        gens = tuple(tuple(gs) for gs in self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) != n:
            raise ValueError(f"need one generator list per variable ({n})")
        for i, gs in enumerate(gens):
            if not gs:
                raise ValueError(f"variable {self.context.names[i]} has no generators")
            for f in gs:
                if f.context != self.context:
                    raise ValueError("generators must live in the template context")

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
        _require_program_context(self.context, "ConcreteLoop")
        if isinstance(self.init, str):
            raise ValueError(f"init must be a sequence of values, not {self.init!r}")
        n = self.context.arity
        object.__setattr__(self, "init", tuple(as_rational(v) for v in self.init))
        object.__setattr__(self, "update", tuple(self.update))
        if len(self.init) != n or len(self.update) != n:
            raise ValueError("init and update must match the variable count")
        if self.guard.context != self.context:
            raise ValueError("guard must live in the loop context")
        for u in self.update:
            if u.context != self.context:
                raise ValueError("updates must live in the loop context")


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
    return _generators(g, F, h, Polynomial.variables(h.context),
                       _invariant_set(g, F, h, max_rounds, None))


def _invariant_set(g: Sequence[Polynomial], F: Sequence[Polynomial],
                   h: Polynomial, max_rounds: int, budget: Budget | None,
                   start: dict | None = None) -> int | None:
    """Round count of the invariant-set loop of V(g) under F guarded by h,
    or None when the start point is refuted.

    The loop runs on the working set W of the module docstring: each round
    computes one basis of <W> = <S>, reduces each batch member once modulo
    it, and tests the nonzero remainders for radical membership; the next
    batch composes those remainders.  With a start point, each round also
    advances its orbit one state and w, the product of the guard values at
    the states passed, so w * g at the state is the value of the paper's
    batch there (module docstring): a nonzero value refutes (None) with no
    basis computation, and once the batch lands in the radical the zero
    values put the start in V(S).
    """
    if type(max_rounds) is not int or max_rounds < 1:  # a bool is no count
        raise ValueError(f"max_rounds must be an integer >= 1, not {max_rounds!r}")
    if start is not None and any(p.evaluate(start) != 0 for p in g):
        return None
    w = 1
    W = list(g)
    batch = [h * p.compose(F) for p in g]
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise BudgetExceeded(
                f"invariant-set round budget exceeded ({max_rounds} rounds)")
        if budget is not None:
            budget.tick()
        if start is not None:
            w *= h.evaluate(start)
            start = {n: f.evaluate(start) for n, f in zip(g[0].context.names, F)}
            if any(w * p.evaluate(start) != 0 for p in g):
                return None
        basis = groebner.buchberger(W, budget=budget)
        rems = [r for r in (basis.normal_form(p, budget) for p in batch) if r]
        if all_in_radical(rems, basis, budget=budget):
            return rounds
        W.extend(rems)
        batch = [h * r.compose(F) for r in rems]


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
    rounds = _invariant_set(gs, maps, h, max_rounds, budget)
    yctx = ctx.restrict(ctx.y_names)
    start = [Polynomial.constant(yctx, a) for a in template.init]
    S = _generators(gs, maps, h, start + Polynomial.variables(yctx), rounds)
    polys = tuple(q.primitive_part() for q in S if q)
    return SynthesisSystem(yctx, polys, len(S), rounds)


def instantiate(template: LoopTemplate, coeffs) -> ConcreteLoop:
    """Concrete loop from a coefficient vector (sequence in y-order, or a
    mapping keyed by the coefficient names)."""
    names = template.coefficient_names
    if isinstance(coeffs, Mapping):
        missing = [n for n in names if n not in coeffs]
        if missing:
            raise ValueError(f"missing coefficients {missing}")
        vals = [as_rational(coeffs[n]) for n in names]
    else:
        vals = [as_rational(v) for v in coeffs]
        if len(vals) != len(names):
            raise ValueError(f"need {len(names)} coefficients, got {len(vals)}")
    updates = []
    k = 0
    for gens in template.generators:
        u = Polynomial.zero(template.context)
        for f in gens:
            u = u + f * vals[k]
            k += 1
        updates.append(u)
    return ConcreteLoop(template.context, template.init, template.guard,
                        tuple(updates))


def check_invariants(loop: ConcreteLoop, invariants: InvariantSpec,
                     max_rounds: int = DEFAULT_MAX_ROUNDS,
                     budget: Budget | None = None) -> bool:
    """Exact invariance test: all g vanish on every reachable state iff a
    lies in the invariant set of V(g) under F with the guard h as a factor
    (see the module docstring)."""
    if invariants.context != loop.context:
        raise ValueError("invariants must live in the loop context")
    start = dict(zip(loop.context.names, loop.init))
    return _invariant_set(invariants.polys, loop.update, loop.guard, max_rounds,
                          budget, start) is not None


def simulate(loop: ConcreteLoop, invariants: InvariantSpec,
             steps: int = SIMULATION_STEPS, budget: Budget | None = None) -> bool:
    """Run the loop exactly for up to `steps` iterations; False iff some
    visited state (the terminal one included, when the guard vanishes)
    violates an invariant.  Evidence only: True is no proof.  The budget,
    when given, ticks once per step."""
    if type(steps) is not int or steps < 1:  # a bool is no count
        raise ValueError(f"steps must be an integer >= 1, not {steps!r}")
    if invariants.context != loop.context:
        raise ValueError("invariants must live in the loop context")
    names = loop.context.names
    state = {n: v for n, v in zip(names, loop.init)}
    for m in range(steps + 1):
        if any(g.evaluate(state) != 0 for g in invariants.polys):
            return False
        if loop.guard.evaluate(state) == 0:
            return True
        if m == steps:
            break
        if budget is not None:
            budget.tick()
        state = {n: u.evaluate(state) for n, u in zip(names, loop.update)}
    return True
