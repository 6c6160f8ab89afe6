"""Groebner bases over Q: division, Buchberger's algorithm, membership.

The engine is deliberately plain: normal-strategy pair selection with the
product and chain criteria, primitive integer generators, and a step
budget so runaway computations abort with BudgetExceeded instead of
hanging.  Reduced bases are unique per (ideal, order), so identical inputs
give identical outputs.

Division runs on integers.  Each divisor is prepared once (per buchberger
run, lazily per GroebnerBasis) as leading monomial, leading coefficient lc
and tail, scaled to coprime integers.  The work polynomial is a dict of
ints over one common scale: a term c*m is cancelled after multiplying the
work by lc/gcd(c, lc) when that is not 1, and remainder terms are divided
by the scale as they leave, so the remainder is exact.  Under degrevlex the
heap key of a monomial e in n variables is one int, sum e_i*(W^i - W^n)
for W = 2^bitlen(deg f): the negated order key read in base W.  It orders
like the tuple key while every exponent is below W, which holds as division
under a degree-compatible order makes no term of degree above deg f.

Radical membership uses the auxiliary-variable trick: f lies in the
radical of <S> iff 1 lies in <S, 1 - t*f> for a fresh trailing t.  One
exactness-preserving shortcut runs first: f is reduced modulo a basis of
<S> (answering True on remainder 0, or on a vanishing square).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, mul, neg, sub
from typing import Iterable, Sequence

from .budget import Budget, BudgetExceeded
from .polyring import (DEGREVLEX, ContextMismatchError, MonomialOrder, Polynomial,
                       VarContext)

__all__ = [
    "GroebnerBasis", "s_polynomial", "divide", "normal_form", "buchberger",
    "in_ideal", "in_radical", "all_in_radical", "is_zero_dimensional",
    "BudgetExceeded",
]


def _integral(p: Polynomial) -> tuple[int, dict]:
    # (d, p*d as a dict of ints) for d the lcm of p's denominators
    d = lcm(*[c.denominator for c in p.terms.values()])
    return d, {m: c.numerator * (d // c.denominator) for m, c in p.terms.items()}


def _reducer(g: Polynomial, order: MonomialOrder) -> tuple:
    """(leading monomial, leading coefficient, tail) of g scaled to coprime
    integers with a positive leading coefficient; rescaling a divisor
    changes no remainder."""
    lm = g.leading_monomial(order)
    ints = _integral(g)[1]
    unit = gcd(*ints.values()) if ints[lm] > 0 else -gcd(*ints.values())
    lc = ints.pop(lm) // unit
    return lm, lc, [(m, c // unit) for m, c in ints.items()]


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, interreduced, sorted by leading
    monomial (ascending in the basis order)."""

    context: VarContext
    order: MonomialOrder
    generators: tuple[Polynomial, ...]

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].total_degree() == 0

    def normal_form(self, f: Polynomial, budget: Budget | None = None) -> Polynomial:
        if "_reducers" not in self.__dict__:  # prepared on first use
            object.__setattr__(self, "_reducers", [_reducer(g, self.order) for g in self])
        return normal_form(f, self.generators, self.order, budget, self._reducers)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _s_pair(ctx: VarContext, ri: tuple, rj: tuple) -> Polynomial:
    # lcm(lc_i, lc_j) times the S-polynomial of two reducers, over the integers
    (lmi, lci, ti), (lmj, lcj, tj) = ri, rj
    l = tuple(map(max, lmi, lmj))
    g = gcd(lci, lcj)
    return Polynomial(ctx, [(tuple(map(add, m, u)), s * c)
                            for tail, u, s in ((ti, tuple(map(sub, l, lmi)), lcj // g),
                                               (tj, tuple(map(sub, l, lmj)), -lci // g))
                            for m, c in tail])


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    rf, rg = _reducer(f, order), _reducer(g, order)
    return _s_pair(f.context, rf, rg) / lcm(rf[1], rg[1])


def _reduce(f: Polynomial, reducers: Sequence[tuple], order: MonomialOrder,
            budget: Budget | None, quotients: list[dict] | None = None) -> Polynomial:
    """Full multivariate division by prepared reducers: the first one in
    list order whose leading monomial divides wins, so the result is
    deterministic.  Quotients, when asked for, are of the scaled reducers."""
    scale, work = _integral(f)
    get = work.get
    if order.kind == "degrevlex":  # the int key of the module docstring
        width = 1 << f.total_degree().bit_length()
        weights = [width ** i - width ** len(f.context) for i in range(len(f.context))]
        key = lambda e: sum(map(mul, e, weights))
    else:
        key = lambda e, order_key=order.key: tuple(map(neg, order_key(e)))
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for idx, (lm, lc, tail) in enumerate(reducers):
            if all(map(le, lm, m)):
                break
        else:
            rem[m] = Fraction(c, scale)
            continue
        if budget is not None:
            budget.tick()
        g = gcd(c, lc)
        if lc != g:  # scale the work so that lc divides c
            for k in work:
                work[k] *= lc // g
            scale *= lc // g
        c //= g
        q = tuple(map(sub, m, lm))
        for m2, c2 in tail:
            mm = tuple(map(add, m2, q))
            old = get(mm, 0)
            new = old - c * c2
            if new:
                work[mm] = new
                if not old:
                    heapq.heappush(heap, (key(mm), mm))
            else:
                del work[mm]
        if quotients is not None:
            quotients[idx][q] = quotients[idx].get(q, 0) + Fraction(c, scale)
    return Polynomial(f.context, rem)


def normal_form(f: Polynomial, gens: Sequence[Polynomial],
                order: MonomialOrder = DEGREVLEX, budget: Budget | None = None,
                reducers: Sequence[tuple] | None = None) -> Polynomial:
    """Remainder of f on division by gens; zero iff f is in the ideal when
    gens is a Groebner basis.  reducers, when given, are the _reducer
    triples of the nonzero gens, in order."""
    if reducers is None:
        reducers = [_reducer(g, order) for g in gens if g]
    return _reduce(f, reducers, order, budget)


def divide(f: Polynomial, gens: Sequence[Polynomial],
           order: MonomialOrder = DEGREVLEX):
    """(quotients, remainder) with sum(q_i * g_i) + remainder == f exactly.
    Zero generators get a zero quotient."""
    nonzero = [g for g in gens if g]
    reducers = [_reducer(g, order) for g in nonzero]
    quots: list[dict] = [{} for _ in nonzero]
    rem = _reduce(f, reducers, order, None, quots)
    it = iter(Polynomial(f.context, qd) * (Fraction(r[1]) / g.leading_coefficient(order))
              for qd, r, g in zip(quots, reducers, nonzero))
    return [next(it) if g else Polynomial.zero(f.context) for g in gens], rem


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX,
               budget: Budget | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of <gens>.

    Normal strategy (minimal lcm in the order, ties by pair index), product
    and chain criteria, content division after every reduction, and an early
    exit to the basis {1} as soon as any reduction produces a nonzero
    constant.  budget.tick() runs once per treated pair.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("buchberger needs a nonempty generator list")
    ctx = gens[0].context
    for g in gens:
        if g.context != ctx:
            raise ContextMismatchError("generators must share one context")
    key = order.key

    def unit_basis() -> GroebnerBasis:
        return GroebnerBasis(ctx, order, (Polynomial.one(ctx),))

    if any(g.total_degree() == 0 for g in gens):
        return unit_basis()
    G = [g.primitive_part(order) for g in gens if g]
    if not G:
        return GroebnerBasis(ctx, order, ())
    reds = [_reducer(g, order) for g in G]
    lms = [r[0] for r in reds]

    pq: list = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(j: int):
        for i in range(j):
            heapq.heappush(pq, (key(tuple(map(max, lms[i], lms[j]))), i, j))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    while pq:
        _, i, j = heapq.heappop(pq)  # each pair is pushed once
        pending.discard((i, j))
        if budget is not None:
            budget.tick()
        if not any(map(min, lms[i], lms[j])):
            continue  # product criterion: coprime leading monomials
        lcm_ij = tuple(map(max, lms[i], lms[j]))
        if any(k != i and k != j and all(map(le, lms[k], lcm_ij))
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k in range(len(G))):
            continue  # chain criterion: both companion pairs treated
        r = normal_form(_s_pair(ctx, reds[i], reds[j]), G, order, budget, reds)
        if r.is_zero:
            continue
        if r.total_degree() == 0:
            return unit_basis()
        r = r.primitive_part(order)
        G.append(r)
        reds.append(_reducer(r, order))
        lms.append(reds[-1][0])
        push_pairs(len(G) - 1)

    # minimalize: drop generators whose leading monomial another one divides
    by_key = sorted(range(len(G)), key=lambda i: key(lms[i]))
    kept: list[int] = []
    for i in by_key:
        if not any(all(map(le, lms[k], lms[i])) for k in kept):
            kept.append(i)
    basis = [G[i] for i in kept]
    reds = [reds[i] for i in kept]

    # interreduce tails: no leading monomial of a minimal basis is
    # reducible, so they never change, and one pass leaves no tail term
    # that any of them divides
    for idx in range(len(basis)):
        r = normal_form(basis[idx], basis[:idx] + basis[idx + 1:], order, budget,
                        reds[:idx] + reds[idx + 1:]).primitive_part(order)
        basis[idx], reds[idx] = r, _reducer(r, order)

    basis = [b.monic(order) for b in basis]
    basis.sort(key=lambda b: key(b.leading_monomial(order)))
    return GroebnerBasis(ctx, order, tuple(basis))


def in_ideal(f: Polynomial, basis: GroebnerBasis, budget: Budget | None = None) -> bool:
    return basis.normal_form(f, budget).is_zero


# ---------------------------------------------------------------------------
# Radical membership.

_SQUARE_TERM_CAP = 120  # skip the cheap square probe on huge remainders


def _radical_member(f: Polynomial, basis: GroebnerBasis, order: MonomialOrder,
                    budget: Budget | None) -> bool:
    r = basis.normal_form(f, budget)
    if r.is_zero:
        return True
    if not basis.generators:
        return False  # zero ideal, nonzero f
    if len(r) <= _SQUARE_TERM_CAP and basis.normal_form(r * r, budget).is_zero:
        return True  # f^2 in <S> certainly puts f in the radical
    ctx_t = f.context.with_t()
    t = Polynomial.variable(ctx_t, ctx_t.t_name)
    gens_t = [g.extend_context(ctx_t) for g in basis.generators]
    gens_t.append(Polynomial.one(ctx_t) - t * r.extend_context(ctx_t))
    return buchberger(gens_t, order, budget).is_unit


def in_radical(f: Polynomial, S: Sequence[Polynomial],
               order: MonomialOrder = DEGREVLEX,
               budget: Budget | None = None) -> bool:
    """Exact membership of f in the radical of <S> (S nonempty)."""
    return all_in_radical([f], S, order, budget)


def all_in_radical(fs: Sequence[Polynomial], S: Sequence[Polynomial] | GroebnerBasis,
                   order: MonomialOrder = DEGREVLEX,
                   budget: Budget | None = None) -> bool:
    """True iff every f in fs lies in the radical of <S>.  S is a nonempty
    list of generators, whose basis is computed once and shared, or a
    GroebnerBasis, which is used as it is.  Evaluation short-circuits on
    the first failure.  Callers that pass remainders modulo the basis lose
    nothing: the first step reduces f, and f - NF(f) lies in <S>."""
    if isinstance(S, GroebnerBasis):
        basis = S
    else:
        S = list(S)
        if not S:
            raise ValueError("all_in_radical needs a nonempty S")
        basis = buchberger(S, order, budget)
    return all(_radical_member(f, basis, order, budget) for f in fs)


def is_zero_dimensional(basis: GroebnerBasis, names: Iterable[str] | None = None) -> bool:
    """Staircase test: every requested variable shows up as a pure power
    among the leading monomials (then only finitely many common zeros exist
    over the algebraic closure, projected to those coordinates)."""
    ctx = basis.context
    wanted = list(names) if names is not None else list(ctx.names)
    if not basis.generators:
        return not wanted
    if basis.is_unit:
        return True
    lms = [g.leading_monomial(basis.order) for g in basis.generators]
    for name in wanted:
        i = ctx.index(name)
        if not any(lm[i] > 0 and all(e == 0 for k, e in enumerate(lm) if k != i)
                   for lm in lms):
            return False
    return True
