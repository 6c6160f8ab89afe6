"""Groebner bases over Q: division, Buchberger's algorithm, membership.

The engine is deliberately plain: normal-strategy pair selection over the
pairs that the Gebauer-Moller update keeps (criteria B, M and F and the
product criterion), division by the active generators only, primitive
integer generators, and a step budget so runaway computations abort with
BudgetExceeded instead of hanging.  Reduced bases are unique per (ideal,
order), so identical inputs give identical outputs.

Division runs on integers.  A divisor is primitive: coprime integer
coefficients and a positive leading coefficient lc.  It is prepared once,
as one _Divisor record of the primitive polynomial and its leading
monomial, lc and tail.  buchberger keeps its generators in that form, a
GroebnerBasis carries the records of its generators, and normal_form
takes records and polynomials alike.  The work polynomial is a dict of
ints over one common scale: a term c*m is cancelled after multiplying the
work by lc/gcd(c, lc) when that is not 1, and remainder terms are divided
by the scale as they leave, so the remainder is exact.

Division packs each monomial e in n variables into one int,
K(e) = sum e_i*2^(w*i) - 2^(w*n)*L(e), with L(e) the total degree under
degrevlex and sum e_i*2^(w*(n-1-i)) under lex.  K is linear, so a product
of monomials is a sum of ints.  While every exponent is below 2^(w-1),
K(m) < K(m') iff m is the larger monomial, the bits of K below w*n are the
w-bit fields e_i, and m divides m' iff K(m') - K(m) has no field's top
bit set (the lowest negative field difference borrows into its own top
bit).  The width w is bitlen(bound) + 1 for a bound on every exponent that
division meets.  Under degrevlex the bound is the largest degree of f and
of the divisors: division under a degree-compatible order makes no term of
degree above deg f.  Under lex, let D be the largest divisor degree and
omega_i = (D+1)^(n-1-i).  A divisor's leading monomial outweighs each of
its tail terms under omega: where they first differ, at i, it gains at
least omega_i, more than the sum of D*omega_j over j > i that the tail
can give back.  So no reduction raises the largest omega-degree of the
work, and the bound is the larger of D and that omega-degree of f.

Radical membership uses the auxiliary-variable trick: f lies in the
radical of <S> iff 1 lies in <S, 1 - t*f> for a fresh trailing t.  One
exactness-preserving shortcut runs first: f is reduced modulo a basis of
<S> (answering True when the remainder's square reduces to 0).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, mul, sub
from typing import Sequence

from .budget import Budget, BudgetExceeded
from .polyring import (DEGREVLEX, ContextMismatchError, MonomialOrder, Polynomial,
                       VarContext)

__all__ = [
    "GroebnerBasis", "s_polynomial", "normal_form", "buchberger",
    "in_radical", "all_in_radical", "is_zero_dimensional", "BudgetExceeded",
]


class _Divisor(tuple):
    """A prepared divisor: the triple (leading monomial, lc, tail) of the
    primitive polynomial poly under an order of the given kind.  degree is
    its largest term degree, and packed maps a field width to the tail with
    packed monomials.  Tuple equality sees the triple alone."""


def _reducer(g: Polynomial, order: MonomialOrder) -> _Divisor:
    """The _Divisor of g.primitive_part(order), from one search for the
    leading monomial: rescaling a divisor changes no remainder."""
    lm = g.leading_monomial(order)
    p = g._primitive_at(lm)
    d = _Divisor((lm, p.terms[lm], [(m, c) for m, c in p.terms.items() if m != lm]))
    d.poly, d.kind = p, order.kind
    # a degree-compatible order leads with a term of top degree
    d.degree = sum(lm) if order.kind == "degrevlex" else p.total_degree()
    d.packed = {}
    return d


@cache
def _layout(n: int, w: int, kind: str) -> tuple:
    """(weights, guard, shifts, field mask) of the packed encoding of the
    module docstring: K(e) = sum(map(mul, e, weights))."""
    top = w * n
    if kind == "degrevlex":
        weights = tuple((1 << w * i) - (1 << top) for i in range(n))
    elif kind == "lex":
        weights = tuple((1 << w * i) - (1 << top + w * (n - 1 - i)) for i in range(n))
    else:
        raise ValueError(f"unknown order kind {kind!r}")
    shifts = range(0, top, w)
    return weights, sum(1 << s + w - 1 for s in shifts), shifts, (1 << w) - 1


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: primitive (coprime integer coefficients,
    positive leading coefficient), interreduced, sorted by leading monomial
    (ascending in the basis order), built from reducers, the _Divisor of each
    generator; equality, hash and repr read generators, their polynomials."""

    context: VarContext
    order: MonomialOrder
    reducers: tuple[_Divisor, ...] = field(compare=False, repr=False)
    generators: tuple[Polynomial, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(d.poly for d in self.reducers))

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].total_degree() == 0

    def normal_form(self, f: Polynomial, budget: Budget | None = None) -> Polynomial:
        if f.context != self.context:
            raise ContextMismatchError("f must share the context of the basis")
        return normal_form(f, self.reducers, self.order, budget)

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
    if f.context != g.context:
        raise ContextMismatchError("f and g must share one context")
    rf, rg = (_reducer(p, order) for p in (f, g))
    return f._wrap(_s_pair(rf, rg)) / lcm(rf[1], rg[1])


def normal_form(f: Polynomial, gens: Sequence[Polynomial | _Divisor],
                order: MonomialOrder = DEGREVLEX, budget: Budget | None = None) -> Polynomial:
    """Remainder of f on full division by gens; zero iff f is in the ideal
    when gens is a Groebner basis.  The first divisor in list order whose
    leading monomial divides wins, so the result is deterministic.  Each
    entry of gens is a polynomial or its _reducer record; zero polynomials
    are skipped, and a record made under another order kind is prepared
    again from its poly.  Monomials are packed ints whose width bounds
    every exponent that division meets (module docstring); the remainder's
    terms come out in descending order."""
    ctx, kind = f.context, order.kind
    reducers = []
    for g in gens:
        p = g.poly if type(g) is _Divisor else g
        if p.context is not ctx and p.context != ctx:  # `is` first: it is cheap
            raise ContextMismatchError("divisors must share the context of f")
        if p is not g and g.kind == kind:
            reducers.append(g)
        elif p:
            reducers.append(_reducer(p, order))
    n = ctx.arity
    dmax = max([r.degree for r in reducers], default=0)
    if order.kind == "degrevlex":
        bound = max([dmax, *map(sum, f.terms)])
    else:  # the largest omega-degree of f's terms
        omega = [(dmax + 1) ** (n - 1 - i) for i in range(n)]
        bound = max([dmax, *[sum(map(mul, m, omega)) for m in f.terms]])
    w = bound.bit_length() + 1
    weights, guard, shifts, field_mask = _layout(n, w, order.kind)
    divisors = [(sum(map(mul, r[0], weights)), r) for r in reducers]
    # the work is f*scale as a dict of ints, scale the lcm of its denominators
    scale = lcm(*[c.denominator for c in f.terms.values()])
    monomials = {sum(map(mul, m, weights)): m for m in f.terms}
    work = dict(zip(monomials, [c.numerator * (scale // c.denominator)
                                for c in f.terms.values()]))
    get = work.get
    heap = list(work)  # a min-heap pops the largest monomial first
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        k = heapq.heappop(heap)
        c = work.pop(k, 0)
        if not c:
            continue
        for klm, d in divisors:
            if not (k - klm) & guard:
                break
        else:
            q, r = divmod(c, scale)
            # most remainder terms are f's own; the others are decoded
            m = monomials.get(k) or tuple([k >> s & field_mask for s in shifts])
            rem[m] = Fraction(c, scale) if r else q
            continue
        if budget is not None:
            budget.tick()
        lc = d[1]
        packed = d.packed.get(w)
        if packed is None:  # packed on first use: many divisors never reduce
            packed = d.packed[w] = [(sum(map(mul, m, weights)), c2) for m, c2 in d[2]]
        g = gcd(c, lc)
        if lc != g:  # scale the work so that lc divides c
            for kk in work:
                work[kk] *= lc // g
            scale *= lc // g
        c //= g
        q = k - klm
        for k2, c2 in packed:
            kk = k2 + q
            old = get(kk, 0)
            new = old - c * c2
            if new:
                work[kk] = new
                if not old:
                    heapq.heappush(heap, kk)
            else:
                del work[kk]
    return f._wrap(rem)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX,
               budget: Budget | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of <gens>.

    Normal strategy (minimal lcm in the order, ties by pair index) over the
    pairs that the Gebauer-Moller update keeps and content division after
    every reduction.  budget.tick() runs once per treated pair.

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
    G: list[_Divisor] = []  # every generator, prepared
    active: list[int] = []  # indices into G, oldest first
    pq: list = []  # (lcm key, i, j, lcm) per queued pair, i < j

    def update(d: _Divisor):
        h = len(G)
        G.append(d)
        lm = d[0]
        new = [(i, tuple(map(max, G[i][0], lm))) for i in active]
        kept: list = []  # criteria M and F
        for n, (i, l) in enumerate(new):
            if (not any(map(min, G[i][0], lm))
                    or not any(all(map(le, l2, l)) for _, l2 in new[n + 1:] + kept)):
                kept.append((i, l))
        pq[:] = [p for p in pq if not all(map(le, lm, p[3]))  # criterion B
                 or tuple(map(max, G[p[1]][0], lm)) == p[3]
                 or tuple(map(max, G[p[2]][0], lm)) == p[3]]
        heapq.heapify(pq)
        for i, l in kept:
            if any(map(min, G[i][0], lm)):  # product criterion
                heapq.heappush(pq, (key(l), i, h, l))
        active[:] = [i for i in active if not all(map(le, lm, G[i][0]))]
        active.append(h)

    # Largest leading monomial first: a later one then divides no earlier
    # one unless they are equal, and a remainder has no term that an active
    # leading monomial divides, so the active leading monomials stay an
    # antichain and the active generators end as a minimal basis.
    for d in sorted((_reducer(g, order) for g in gens if g),
                    key=lambda d: key(d[0]), reverse=True):
        update(d)
    while pq:
        _, i, j, _ = heapq.heappop(pq)
        if budget is not None:
            budget.tick()
        r = normal_form(Polynomial._trusted(ctx, _s_pair(G[i], G[j])),
                        [G[k] for k in active], order, budget)
        if not r.is_zero:
            update(_reducer(r, order))

    basis = sorted([G[k] for k in active], key=lambda d: key(d[0]))
    # interreduce tails: no leading monomial of a minimal basis is
    # reducible, so they never change (nor does the ascending order),
    # and one pass leaves no tail term that any of them divides
    for idx in range(len(basis)):
        basis[idx] = _reducer(normal_form(
            basis[idx].poly, basis[:idx] + basis[idx + 1:], order, budget), order)
    return GroebnerBasis(ctx, order, tuple(basis))


# ---------------------------------------------------------------------------
# Radical membership.

_SQUARE_TERM_CAP = 120  # skip the cheap square probe on huge remainders


def _radical_member(f: Polynomial, basis: GroebnerBasis, budget: Budget | None) -> bool:
    r = basis.normal_form(f, budget)
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
