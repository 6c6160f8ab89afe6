"""Synthesis of polynomial loops from target polynomial invariants.

A loop template fixes initial values a, a guard polynomial h (h = 1 means
the loop never exits), and per-variable generator lists f_i1..f_il; the
unknown update map is F_i = sum_j y_ij * f_ij for coefficient unknowns y.
generate_loops() produces an exact polynomial system in y whose solutions
are precisely the coefficient vectors making every target invariant hold
along the loop.

The machinery underneath is the invariant-set computation: the largest
subset of an algebraic set X that a polynomial map never leaves.  Starting
from the defining polynomials of X, keep composing with the map and adding
the batch until the new batch lands in the radical of the accumulated
ideal; the accumulated polynomials then cut out the invariant set.  For
synthesis the map is augmented with the coefficient block (mapped
identically) and a guard flag z (multiplied by h each step), X is cut out
by z*g_1..z*g_m, and afterwards x is bound to a and z to 1, leaving
constraints on y alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .budget import Budget, BudgetExceeded
from .groebner import all_in_radical
from .polyring import (DEGREVLEX, MonomialOrder, Polynomial, VarContext,
                       as_rational, fresh_name)

DEFAULT_MAX_ROUNDS = 32


def _require_program_context(ctx: VarContext, what: str):
    if ctx.y_names or ctx.z_name or ctx.t_name:
        raise ValueError(f"{what} must use a program-variable context only")
    if not ctx.x_names:
        raise ValueError(f"{what} needs at least one program variable")


@dataclass(frozen=True)
class LoopTemplate:
    """Template L(a, h, f): initial values, guard, and generator lists."""

    context: VarContext
    init: tuple[Fraction, ...]
    guard: Polynomial
    generators: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        _require_program_context(self.context, "LoopTemplate")
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
    q_count invariant-set polynomials before substitution, rounds radical
    checks performed."""

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
    init: tuple[Fraction, ...]
    guard: Polynomial
    update: tuple[Polynomial, ...]

    def __post_init__(self):
        _require_program_context(self.context, "ConcreteLoop")
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
                  order: MonomialOrder = DEGREVLEX,
                  max_rounds: int = DEFAULT_MAX_ROUNDS,
                  budget: Budget | None = None) -> list[Polynomial]:
    """Defining polynomials of the invariant set of V(g) under the map F.

    Returns g followed by the composed batches added before stabilization.
    Raises BudgetExceeded when the radical checks have not stabilized after
    max_rounds rounds.
    """
    polys, _ = _invariant_set(g, F, order, max_rounds, budget)
    return polys


def _invariant_set(g: Sequence[Polynomial], F: Sequence[Polynomial],
                   order: MonomialOrder, max_rounds: int,
                   budget: Budget | None) -> tuple[list[Polynomial], int]:
    g = list(g)
    if not g:
        raise ValueError("invariant_set needs at least one polynomial")
    S = list(g)
    batch = [p.compose(F) for p in g]
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise BudgetExceeded(
                f"invariant-set round budget exceeded ({max_rounds} rounds)")
        if budget is not None:
            budget.tick()
        if all_in_radical(batch, S, order, budget):
            return S, rounds
        S.extend(batch)
        batch = [p.compose(F) for p in batch]


def build_augmented_map(template: LoopTemplate) -> tuple[list[Polynomial], VarContext]:
    """The synthesis map G(x, y, z) = (sum_j y_ij f_ij(x), y, z*h(x)) over
    the extended context (x-block, y-block, z)."""
    ynames = template.coefficient_names
    zname = fresh_name("z", template.context.names + ynames)
    ctx = VarContext(template.context.x_names, ynames, zname)
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
    maps.append(Polynomial.variable(ctx, zname) * template.guard.extend_context(ctx))
    return maps, ctx


def generate_loops(template: LoopTemplate, invariants: InvariantSpec,
                   order: MonomialOrder = DEGREVLEX,
                   max_rounds: int = DEFAULT_MAX_ROUNDS,
                   budget: Budget | None = None) -> SynthesisSystem:
    """Exact constraints on the template coefficients y making every
    invariant hold along the loop: the invariant set of V(z*g_1..z*g_m)
    under the augmented map, with x bound to a and z to 1, zero results
    dropped, and survivors content-normalized for printing."""
    if invariants.context != template.context:
        raise ValueError("invariants must live in the template context")
    maps, ctx = build_augmented_map(template)
    z = Polynomial.variable(ctx, ctx.z_name)
    zg = [z * g.extend_context(ctx) for g in invariants.polys]
    S, rounds = _invariant_set(zg, maps, order, max_rounds, budget)
    bindings: dict = {n: a for n, a in zip(ctx.x_names, template.init)}
    bindings[ctx.z_name] = 1
    polys = []
    for q in S:
        p = q.substitute(bindings)
        if not p.is_zero:
            polys.append(p.primitive_part(order))
    return SynthesisSystem(ctx.restrict(ctx.y_names), tuple(polys), len(S), rounds)


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
                     order: MonomialOrder = DEGREVLEX,
                     max_rounds: int = DEFAULT_MAX_ROUNDS,
                     budget: Budget | None = None) -> bool:
    """Exact invariance test: all g vanish on every reachable state iff
    (a, 1) lies in the invariant set of V(z*g) under (F(x), z*h(x))."""
    if invariants.context != loop.context:
        raise ValueError("invariants must live in the loop context")
    zname = fresh_name("z", loop.context.names)
    ctx = VarContext(loop.context.x_names, (), zname)
    z = Polynomial.variable(ctx, zname)
    maps = [u.extend_context(ctx) for u in loop.update]
    maps.append(z * loop.guard.extend_context(ctx))
    zg = [z * g.extend_context(ctx) for g in invariants.polys]
    # Interleave the stabilization rounds with exact evaluation along the
    # orbit of (a, 1).  The round-k batch is zg o G^k, so its value at the
    # start point is zg at the k-th state: a nonzero value refutes the
    # invariant with no basis computation, and once the batch lands in the
    # radical the accumulated zero evaluations say exactly that the start
    # point lies in V(S).
    state: dict = {n: a for n, a in zip(ctx.x_names, loop.init)}
    state[zname] = 1
    if any(p.evaluate(state) != 0 for p in zg):
        return False
    S = list(zg)
    batch = [p.compose(maps) for p in zg]
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise BudgetExceeded(
                f"invariant-set round budget exceeded ({max_rounds} rounds)")
        if budget is not None:
            budget.tick()
        state = {n: mp.evaluate(state) for n, mp in zip(ctx.names, maps)}
        if any(p.evaluate(state) != 0 for p in zg):
            return False
        if all_in_radical(batch, S, order, budget):
            return True
        S.extend(batch)
        batch = [p.compose(maps) for p in batch]


def simulate(loop: ConcreteLoop, invariants: InvariantSpec, steps: int = 10) -> bool:
    """Run the loop exactly for up to `steps` iterations; False iff some
    visited state (the terminal one included, when the guard vanishes)
    violates an invariant.  Evidence only: True is no proof."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
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
        state = {n: u.evaluate(state) for n, u in zip(names, loop.update)}
    return True
