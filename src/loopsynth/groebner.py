"""Groebner bases over Q: division, Buchberger's algorithm, membership.

The engine is deliberately plain: normal-strategy pair selection over the
pairs that the Gebauer-Moller update keeps (criteria B, M and F and the
product criterion), division by the active generators only, primitive
integer generators, and a step budget so runaway computations abort with
BudgetExceeded instead of hanging.  Reduced bases are unique per (ideal,
order), so identical inputs give identical outputs.

Division runs on integers.  A divisor is primitive: coprime integer
coefficients and a positive leading coefficient lc.  It is prepared once
as leading monomial, lc and tail, and a GroebnerBasis carries the divisors
that buchberger prepared for its generators.  The work polynomial is a
dict of ints over one common scale: a term c*m is cancelled after
multiplying the work by lc/gcd(c, lc) when that is not 1, and remainder
terms are divided by the scale as they leave, so the remainder is exact.
Under degrevlex the heap key of a monomial e in n variables is one int,
sum e_i*(W^i - W^n) for W = 2^bitlen(deg f): the negated order key read in
base W.  It orders like the tuple key while every exponent is below W,
which holds as division under a degree-compatible order makes no term of
degree above deg f.

Radical membership uses the auxiliary-variable trick: f lies in the
radical of <S> iff 1 lies in <S, 1 - t*f> for a fresh trailing t.  One
exactness-preserving shortcut runs first: f is reduced modulo a basis of
<S> (answering True on remainder 0, or on a vanishing square).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, mul, neg, sub
from typing import Sequence

from .budget import Budget, BudgetExceeded
from .polyring import (DEGREVLEX, ContextMismatchError, MonomialOrder, Polynomial,
                       VarContext)

__all__ = [
    "GroebnerBasis", "s_polynomial", "normal_form", "buchberger",
    "in_radical", "all_in_radical", "is_zero_dimensional", "BudgetExceeded",
]


def _prepared(g: Polynomial, order: MonomialOrder) -> tuple[Polynomial, tuple]:
    """g.primitive_part(order) and its _reducer triple, from one search for
    the leading monomial."""
    lm = g.leading_monomial(order)
    p = g._primitive_at(lm)
    return p, (lm, p.terms[lm], [(m, c) for m, c in p.terms.items() if m != lm])


def _reducer(g: Polynomial, order: MonomialOrder) -> tuple:
    """(leading monomial, leading coefficient, tail) of g.primitive_part(order):
    rescaling a divisor changes no remainder."""
    return _prepared(g, order)[1]


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: primitive (coprime integer coefficients,
    positive leading coefficient), interreduced, sorted by leading monomial
    (ascending in the basis order).  reducers holds the _reducer triple of
    each generator, in the same order."""

    context: VarContext
    order: MonomialOrder
    generators: tuple[Polynomial, ...]
    reducers: tuple[tuple, ...] = field(compare=False, repr=False)

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].total_degree() == 0

    def normal_form(self, f: Polynomial, budget: Budget | None = None) -> Polynomial:
        return normal_form(f, self.generators, self.order, budget, self.reducers)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _s_pair(ri: tuple, rj: tuple) -> dict:
    # lcm(lc_i, lc_j) times the S-polynomial of two reducers, over the
    # integers, as the terms dict of a Polynomial
    (lmi, lci, ti), (lmj, lcj, tj) = ri, rj
    l = tuple(map(max, lmi, lmj))
    g = gcd(lci, lcj)
    ui, uj, si, sj = tuple(map(sub, l, lmi)), tuple(map(sub, l, lmj)), lcj // g, -lci // g
    terms = {tuple(map(add, m, ui)): si * c for m, c in ti}
    for m, c in tj:
        mm = tuple(map(add, m, uj))
        new = terms.get(mm, 0) + sj * c
        if new:
            terms[mm] = new
        else:
            del terms[mm]
    return terms


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    rf, rg = (_reducer(p, order) for p in (f, g))
    return f._wrap(_s_pair(rf, rg)) / lcm(rf[1], rg[1])


def normal_form(f: Polynomial, gens: Sequence[Polynomial],
                order: MonomialOrder = DEGREVLEX, budget: Budget | None = None,
                reducers: Sequence[tuple] | None = None) -> Polynomial:
    """Remainder of f on full division by gens; zero iff f is in the ideal
    when gens is a Groebner basis.  The first divisor in list order whose
    leading monomial divides wins, so the result is deterministic.
    reducers, when given, are the _reducer triples of the nonzero gens, in
    order."""
    if reducers is None:
        reducers = [_reducer(g, order) for g in gens if g]
    # the work is f*scale as a dict of ints, scale the lcm of its denominators
    scale = lcm(*[c.denominator for c in f.terms.values()])
    work = {m: c.numerator * (scale // c.denominator) for m, c in f.terms.items()}
    get = work.get
    if order.kind == "degrevlex":  # the int key of the module docstring
        n = f.context.arity
        width = 1 << f.total_degree().bit_length()
        weights = [width ** i - width ** n for i in range(n)]
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
        for lm, lc, tail in reducers:
            if all(map(le, lm, m)):
                break
        else:
            q, r = divmod(c, scale)
            rem[m] = Fraction(c, scale) if r else q
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
    return f._wrap(rem)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX,
               budget: Budget | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of <gens>.

    Normal strategy (minimal lcm in the order, ties by pair index) over the
    pairs that the Gebauer-Moller update keeps, content division after every
    reduction, and an early exit to the basis {1} as soon as any reduction
    produces a nonzero constant.  budget.tick() runs once per treated pair.

    update(h) adds the generator h.  Of the new pairs (g, h) it keeps one
    per minimal lcm (criteria M and F) and drops those whose leading
    monomials are coprime (product criterion).  It drops each queued pair
    (i, j) whose lcm LM(h) divides, unless lcm(i, h) or lcm(j, h) equals it
    (criterion B).  S-polynomials are reduced by the active generators
    alone: those whose leading monomial no later one divides.  A queued pair
    still uses the reducer of a generator that has left the active set.  No
    active leading monomial divides another, so the active generators of the
    finished basis are a minimal basis.
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
        one = Polynomial.one(ctx)
        return GroebnerBasis(ctx, order, (one,), (_reducer(one, order),))

    if any(g.total_degree() == 0 for g in gens):
        return unit_basis()
    G: list[Polynomial] = []
    reds: list[tuple] = []
    lms: list[tuple] = []
    active: list[int] = []  # indices into G, oldest first
    pq: list = []  # (lcm key, i, j, lcm) per queued pair, i < j

    def update(g: Polynomial, red: tuple):
        h = len(G)
        G.append(g)
        reds.append(red)
        lm = red[0]
        lms.append(lm)
        new = [(i, tuple(map(max, lms[i], lm))) for i in active]
        kept: list = []  # criteria M and F
        for n, (i, l) in enumerate(new):
            if (not any(map(min, lms[i], lm))
                    or not any(all(map(le, l2, l)) for _, l2 in new[n + 1:] + kept)):
                kept.append((i, l))
        pq[:] = [p for p in pq if not all(map(le, lm, p[3]))  # criterion B
                 or tuple(map(max, lms[p[1]], lm)) == p[3]
                 or tuple(map(max, lms[p[2]], lm)) == p[3]]
        heapq.heapify(pq)
        for i, l in kept:
            if any(map(min, lms[i], lm)):  # product criterion
                heapq.heappush(pq, (key(l), i, h, l))
        active[:] = [i for i in active if not all(map(le, lm, lms[i]))]
        active.append(h)

    # Largest leading monomial first: a later one then divides no earlier
    # one unless they are equal, and a remainder has no term that an active
    # leading monomial divides, so the active leading monomials stay an
    # antichain and the active generators end as a minimal basis.
    for g, red in sorted((_prepared(g, order) for g in gens if g),
                         key=lambda gr: key(gr[1][0]), reverse=True):
        update(g, red)
    while pq:
        _, i, j, _ = heapq.heappop(pq)
        if budget is not None:
            budget.tick()
        r = normal_form(G[i]._wrap(_s_pair(reds[i], reds[j])), [G[k] for k in active],
                        order, budget, [reds[k] for k in active])
        if r.is_zero:
            continue
        if r.total_degree() == 0:
            return unit_basis()
        update(*_prepared(r, order))

    active.sort(key=lambda k: key(lms[k]))
    basis = [G[k] for k in active]
    reds = [reds[k] for k in active]

    # interreduce tails: no leading monomial of a minimal basis is
    # reducible, so they never change (nor does the ascending order),
    # and one pass leaves no tail term that any of them divides
    for idx in range(len(basis)):
        basis[idx], reds[idx] = _prepared(normal_form(
            basis[idx], basis[:idx] + basis[idx + 1:], order, budget,
            reds[:idx] + reds[idx + 1:]), order)
    return GroebnerBasis(ctx, order, tuple(basis), tuple(reds))


# ---------------------------------------------------------------------------
# Radical membership.

_SQUARE_TERM_CAP = 120  # skip the cheap square probe on huge remainders


def _radical_member(f: Polynomial, basis: GroebnerBasis, budget: Budget | None) -> bool:
    r = basis.normal_form(f, budget)
    if r.is_zero:
        return True
    if len(r) <= _SQUARE_TERM_CAP and basis.normal_form(r * r, budget).is_zero:
        return True  # f^2 in <S> certainly puts f in the radical
    ctx_t = f.context.with_t()
    t = Polynomial.variable(ctx_t, ctx_t.t_name)
    gens_t = [g.extend_context(ctx_t) for g in basis.generators]
    gens_t.append(Polynomial.one(ctx_t) - t * r.extend_context(ctx_t))
    return buchberger(gens_t, basis.order, budget).is_unit


def in_radical(f: Polynomial, S: Sequence[Polynomial]) -> bool:
    """Exact membership of f in the radical of <S> (S nonempty)."""
    return all_in_radical([f], buchberger(S))


def all_in_radical(fs: Sequence[Polynomial], basis: GroebnerBasis,
                   budget: Budget | None = None) -> bool:
    """True iff every f in fs lies in the radical of the ideal of basis.
    Evaluation short-circuits on the first failure.  Callers that pass
    remainders modulo the basis lose nothing: the first step reduces f,
    and f - NF(f) lies in the ideal."""
    return all(_radical_member(f, basis, budget) for f in fs)


def is_zero_dimensional(basis: GroebnerBasis) -> bool:
    """Staircase test: every variable shows up as a pure power among the
    leading monomials (then only finitely many common zeros exist over the
    algebraic closure)."""
    arity = basis.context.arity
    if basis.is_unit:
        return True
    lms = [lm for lm, _, _ in basis.reducers]
    for i in range(arity):
        if not any(lm[i] > 0 and all(e == 0 for k, e in enumerate(lm) if k != i)
                   for lm in lms):
            return False
    return True
