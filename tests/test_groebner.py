import heapq
import math
import pathlib
import random
from fractions import Fraction
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from loopsynth import (Budget, BudgetExceeded, ContextMismatchError, Polynomial,
                       VarContext, all_in_radical, buchberger, generate_loops, groebner,
                       in_radical, is_zero_dimensional, normal_form,
                       parse_polynomial, parse_problem, s_polynomial, DEGREVLEX, LEX)

CTX = VarContext(("x", "y", "z"))


def P(s, ctx=CTX):
    return parse_polynomial(s, ctx)


def spolys_reduce_to_zero(basis):
    gens = list(basis)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_polynomial(gens[i], gens[j], basis.order)
            if not normal_form(s, gens, basis.order).is_zero:
                return False
    return True


class TestDivision:
    def test_normal_form_hand(self):
        gens = [P("x - y"), P("y^2 - 1")]
        assert normal_form(P("x^2"), gens) == P("1")
        assert normal_form(P("x*y + y"), gens) == P("y + 1")

    def test_non_monic_rational_divisors(self):
        # the leading coefficient 3 does not divide the work's, so the
        # integer kernel rescales; the remainder must still be exact
        assert normal_form(P("x^2"), [P("3*x - 2")]) == P("4/9")
        assert normal_form(P("x^2*y"), [P("3/2*x - y"), P("5*y^2 - 1/7")]) == P("4/315*y")
        assert buchberger([P("3*x - 2")]).normal_form(P("x^2 + y")) == P("y + 4/9")

    def test_s_polynomial_cancels_leads(self):
        f, g = P("x^2 + y"), P("x*y + z")
        s = s_polynomial(f, g)
        assert s == P("y^2 - x*z")


class TestContexts:
    # a divisor over another context would divide by the wrong variables
    XY = VarContext(("x", "y"))

    @pytest.mark.parametrize("names", [("x",), ("y", "x"), ("x", "y", "z")])
    def test_normal_form_rejects_a_divisor_from_another_context(self, names):
        g = parse_polynomial("x - 1", VarContext(names))
        with pytest.raises(ContextMismatchError):
            normal_form(P("x*y + y", self.XY), [g])
        for order in (DEGREVLEX, LEX):  # as a prepared record, after a good divisor
            with pytest.raises(ContextMismatchError):
                normal_form(P("x*y + y", self.XY),
                            [P("y - 1", self.XY), groebner._reducer(g, order)], order)
        with pytest.raises(ContextMismatchError):
            buchberger([g]).normal_form(P("x*y + y", self.XY))

    def test_zero_ideal_basis_rejects_another_context(self):
        basis = buchberger([P("0")])
        assert basis.normal_form(P("x + 1")) == P("x + 1")
        with pytest.raises(ContextMismatchError):
            basis.normal_form(P("x + 1", self.XY))

    def test_s_polynomial_rejects_another_context(self):
        with pytest.raises(ContextMismatchError):
            s_polynomial(P("x", self.XY), P("x*y"))

    def test_equal_contexts_need_not_be_one_object(self):
        f, g = P("x*y + y", self.XY), P("x - 1", VarContext(("x", "y")))
        assert normal_form(f, [g]) == P("2*y", self.XY)
        assert s_polynomial(f, g) == P("2*y", self.XY)


class TestBuchberger:
    def test_twisted_cubic_lex(self):
        gb = buchberger([P("y - x^2"), P("z - x^3")], LEX)
        assert set(gb) == {P("x^2 - y"), P("x*y - z"),
                           P("x*z - y^2"), P("y^3 - z^2")}

    def test_unit_ideal(self):
        gb = buchberger([P("x"), P("x + 1")])
        assert gb.is_unit
        assert list(gb) == [Polynomial.one(CTX)]

    def test_constant_remainder_among_queued_pairs_ends_at_one(self):
        # xy = 1 makes y a unit, y^3 = 0 makes it nilpotent: a later pair
        # reduces to a constant while other pairs are still queued
        gb = buchberger([P("x*y - 1"), P("x^2 - z"), P("y^3")])
        assert gb.is_unit and list(gb) == [Polynomial.one(CTX)]
        assert [d.poly for d in gb.reducers] == [Polynomial.one(CTX)]

    def test_single_generator(self):
        gb = buchberger([P("2*x^2 - 4*y")])
        assert list(gb) == [P("x^2 - 2*y")]

    def test_deterministic_under_shuffle(self):
        gens = [P("x^2 + y^2 + z^2 - 1"), P("x*y - z"), P("x - y + z")]
        reference = list(buchberger(gens))
        rng = random.Random(11)
        for _ in range(6):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert list(buchberger(shuffled)) == reference

    def test_buchberger_criterion_on_random_bases(self):
        rng = random.Random(5)
        for _ in range(15):
            gens = []
            for _ in range(rng.randint(1, 3)):
                terms = {tuple(rng.randint(0, 2) for _ in range(3)):
                         rng.randint(-4, 4) for _ in range(3)}
                p = Polynomial(CTX, terms)
                if not p.is_zero:
                    gens.append(p)
            if not gens:
                continue
            basis = buchberger(gens)
            assert spolys_reduce_to_zero(basis)
            for g in gens:
                assert basis.normal_form(g).is_zero

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            buchberger([])

    def test_budget_raises(self):
        gens = [P("x^3*y^2 - z"), P("x*y^4 + y*z^2 - 1"), P("x^2*z^3 - y")]
        with pytest.raises(BudgetExceeded):
            buchberger(gens, DEGREVLEX, Budget(max_steps=2))

    @pytest.mark.parametrize("seconds", [-1, float("nan")])
    def test_budget_rejects_a_deadline_that_cannot_trip(self, seconds):
        # a NaN deadline compares false with every clock reading
        with pytest.raises(ValueError, match="seconds"):
            Budget(seconds=seconds)

    @pytest.mark.parametrize("seconds", [True, False])
    def test_budget_rejects_a_bool_deadline(self, seconds):
        with pytest.raises(ValueError, match="seconds"):
            Budget(seconds=seconds)

    @pytest.mark.parametrize("max_steps", [True, False, 2.5, 3.0, -1, "3"])
    def test_budget_steps_are_an_integer_at_least_zero(self, max_steps):
        # the rule of brute_force_box's bound: a bool is no count
        with pytest.raises(ValueError, match="max_steps"):
            Budget(max_steps=max_steps)

    def test_budget_accepts_plain_limits(self):
        assert Budget(seconds=0, max_steps=0).max_steps == 0
        assert Budget(seconds=1.5).seconds == 1.5
        with pytest.raises(BudgetExceeded):
            Budget(max_steps=0).tick()


def random_ideals(seed, count):
    # nonzero ideals of up to three sparse polynomials, some with fractions
    rng = random.Random(seed)
    ideals = []
    while len(ideals) < count:
        gens = [Polynomial(CTX, {tuple(rng.randint(0, 2) for _ in range(3)):
                                 Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                 for _ in range(3)})
                for _ in range(rng.randint(1, 3))]
        if any(gens):
            ideals.append(gens)
    return ideals


@pytest.mark.parametrize("gens, order", [
    ([P("3*x - 2")], DEGREVLEX),
    ([P("y - x^2"), P("z - x^3")], LEX),
    ([P("x"), P("x + 1")], DEGREVLEX),
    ([P("0")], DEGREVLEX),
    *[(gens, DEGREVLEX) for gens in random_ideals(5, 8)],
])
def test_basis_is_primitive_and_carries_its_reducers(gens, order):
    basis = buchberger(gens, order)
    for g in basis:
        assert g == g.primitive_part(order)
        assert all(type(c) is int for c in g.terms.values()), g.terms
    assert list(basis.reducers) == [groebner._reducer(g, order) for g in basis]


def test_basis_generators_are_not_made_monic():
    assert list(buchberger([P("3*x - 2")])) == [P("3*x - 2")]


class TestIdealMembership:
    def test_in_ideal(self):
        basis = buchberger([P("x - y"), P("y^2 - 1")])
        assert basis.normal_form(P("x^2 - 1")).is_zero
        assert basis.normal_form(P("x*y^2 - x")).is_zero
        assert not basis.normal_form(P("x + 1")).is_zero
        assert basis.normal_form(P("x^2 - y^2")).is_zero


class TestRadical:
    def test_nilpotent_cases(self):
        assert in_radical(P("x"), [P("x^2")])
        assert in_radical(P("x*y"), [P("x^3*y^2")])
        assert not in_radical(P("x + 1"), [P("x^2")])
        assert not in_radical(P("y"), [P("x")])

    def test_needs_rabinowitsch(self):
        # (x+y)^4 lands in the ideal only radically
        assert in_radical(P("x + y"), [P("(x + y)^4 + z"), P("z")])

    def test_one_not_in_proper_radical(self):
        assert not in_radical(P("1"), [P("x*y - 1")])

    def test_zero_ideal(self):
        # decided by the square probe and the Rabinowitsch run on [1 - t*f]
        assert not in_radical(P("x + 1"), [P("0")])
        assert not in_radical(P("2"), [P("0")])
        assert in_radical(P("0"), [P("0")])

    def test_all_in_radical_batch(self):
        S = buchberger([P("x*y"), P("x*z")])
        assert all_in_radical([P("x^2*y"), P("x^2*z^3")], S)
        assert not all_in_radical([P("x^2*y"), P("y*z")], S)

    def test_all_in_radical_reuses_a_given_basis(self, monkeypatch):
        cases = [([P("x^2*y"), P("x^2*z^3")], [P("x*y"), P("x*z")]),
                 ([P("x^2*y"), P("y*z")], [P("x*y"), P("x*z")]),
                 ([P("x + y")], [P("(x + y)^4 + z"), P("z")]),
                 ([P("y")], [P("x")]),
                 ([P("1")], [P("x*y - 1")])]
        bases = [buchberger(S) for _, S in cases]
        want = [all(in_radical(f, S) for f in fs) for fs, S in cases]
        assert want == [True, False, True, False, False]
        runs = []
        original = groebner.buchberger

        def counting(gens, *args, **kwargs):
            runs.append(gens[0].context.t_name)
            return original(gens, *args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", counting)
        for (fs, _), basis, expected in zip(cases, bases, want):
            assert all_in_radical(fs, basis) == expected
        # no basis of S is computed again; each Rabinowitsch run still is,
        # one per case past the first, whose members reduce to zero
        assert runs == ["t"] * 4

    def test_flag_variable_strip_agrees_with_direct(self):
        # radical membership of w*f in <w*g_i> equals membership of f in
        # <g_i> when w appears to power exactly 1 everywhere
        ctx = VarContext(("x", "y", "w"))
        Q = lambda s: parse_polynomial(s, ctx)
        rng = random.Random(17)
        pool = ["x", "y", "x + y", "x^2", "x*y - 1", "y^2 + x", "x - 1"]
        for _ in range(40):
            gs = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            f = rng.choice(pool)
            base_ctx = VarContext(("x", "y"))
            direct = in_radical(parse_polynomial(f, base_ctx),
                                [parse_polynomial(g, base_ctx) for g in gs])
            flagged = in_radical(Q(f) * Q("w"), [Q(g) * Q("w") for g in gs])
            assert flagged == direct


class TestZeroDimensional:
    def test_point_ideal(self):
        assert is_zero_dimensional(buchberger([P("x - 1"), P("y + 2"), P("z")]))

    def test_positive_dimension(self):
        assert not is_zero_dimensional(buchberger([P("x - y")]))

    def test_zero_ideal_is_not(self):
        assert not is_zero_dimensional(buchberger([P("0")]))

    def test_unit_is_zero_dimensional(self):
        assert is_zero_dimensional(buchberger([P("x"), P("x - 1")]))

    def test_staircase_with_mixed_leads(self):
        gb = buchberger([P("x^2"), P("x*y"), P("y^3"), P("z - 1")])
        assert is_zero_dimensional(gb)


# ---------------------------------------------------------------------------
# Differential tests against sympy (test-only; skipped when it is missing).

_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _COEFFS,
                         min_size=1, max_size=3).map(lambda d: Polynomial(CTX, d))
_IDEALS = st.lists(_POLYS, min_size=1, max_size=3)
_DIFFERENTIAL = settings(max_examples=25, deadline=None)


def _to_sympy(sympy, p):
    return sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                 for m, c in p.terms.items()},
                                sympy.symbols("x y z"), domain="QQ")


def _monic_set(sympy, polys):
    return {tuple(sorted(q.monic().as_dict().items())) for q in polys}


@pytest.mark.parametrize("order, name", [(DEGREVLEX, "grevlex"), (LEX, "lex")])
def test_reduced_basis_and_normal_form_match_sympy(order, name):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z")

    @_DIFFERENTIAL
    @given(_IDEALS, _POLYS)
    def check(ideal, f):
        ours = buchberger(ideal, order)
        theirs = sympy.groebner([_to_sympy(sympy, g).as_expr() for g in ideal],
                                *gens, order=name, domain="QQ")
        assert _monic_set(sympy, [_to_sympy(sympy, g) for g in ours]) == \
            _monic_set(sympy, [sympy.Poly(g, *gens, domain="QQ") for g in theirs.exprs])
        _, rem = sympy.reduced(_to_sympy(sympy, f).as_expr(), theirs.exprs, *gens,
                               order=name, domain="QQ")
        assert _to_sympy(sympy, ours.normal_form(f)) == sympy.Poly(rem, *gens, domain="QQ")
        assert normal_form(f, list(ours), order) == ours.normal_form(f)

    check()


def test_radical_membership_matches_sympy_rabinowitsch():
    # f is in the radical of <S> iff <S, 1 - t*f> is the unit ideal
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z t")

    # two generators at most: with three, sympy's Buchberger on the
    # Rabinowitsch system sometimes takes minutes
    @_DIFFERENTIAL
    @given(st.lists(_POLYS, min_size=1, max_size=2), _POLYS)
    def check(ideal, f):
        t = gens[-1]
        rabinowitsch = [_to_sympy(sympy, g).as_expr() for g in ideal]
        rabinowitsch.append(1 - t * _to_sympy(sympy, f).as_expr())
        theirs = sympy.groebner(rabinowitsch, *gens, order="grevlex", domain="QQ")
        assert in_radical(f, ideal) == (list(theirs.exprs) == [1])

    check()


# ---------------------------------------------------------------------------
# Differential tests of the Gebauer-Moller update against the plain loop it
# replaced: product and chain criteria over every pair, division by all of
# G, then minimalization.  Reduced bases are unique, so both must agree on
# the generators, their order and their reducers.

def chain_criterion_buchberger(gens, order):
    """(generators, reducers) of the reduced basis of <gens>."""
    ctx = gens[0].context
    key = order.key
    one = Polynomial.one(ctx)
    unit = (one,), (groebner._reducer(one, order),)
    if any(g.total_degree() == 0 for g in gens):
        return unit
    G = [g.primitive_part(order) for g in gens if g]
    reds = [groebner._reducer(g, order) for g in G]
    lms = [r[0] for r in reds]
    pq, pending = [], set()

    def push_pairs(j):
        for i in range(j):
            heapq.heappush(pq, (key(tuple(map(max, lms[i], lms[j]))), i, j))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)
    while pq:
        _, i, j = heapq.heappop(pq)
        pending.discard((i, j))
        if not any(map(min, lms[i], lms[j])):
            continue
        lcm_ij = tuple(map(max, lms[i], lms[j]))
        if any(k != i and k != j and all(map(le, lms[k], lcm_ij))
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k in range(len(G))):
            continue
        s = G[i]._wrap(groebner._s_pair(reds[i], reds[j]))
        r = normal_form(s, G, order, None)
        if r.is_zero:
            continue
        if r.total_degree() == 0:
            return unit
        r = r.primitive_part(order)
        G.append(r)
        reds.append(groebner._reducer(r, order))
        lms.append(reds[-1][0])
        push_pairs(len(G) - 1)
    kept = []
    for i in sorted(range(len(G)), key=lambda i: key(lms[i])):
        if not any(all(map(le, lms[k], lms[i])) for k in kept):
            kept.append(i)
    basis, reds = [G[i] for i in kept], [reds[i] for i in kept]
    for idx in range(len(basis)):
        r = normal_form(basis[idx], basis[:idx] + basis[idx + 1:], order,
                        None).primitive_part(order)
        basis[idx], reds[idx] = r, groebner._reducer(r, order)
    return tuple(basis), tuple(reds)


# generators drawn from a pool of at most two, so duplicates are common;
# one branch in four is a constant, zero included
_CONSTANTS = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(
    lambda c: Polynomial.constant(CTX, c))
_GM_IDEALS = st.lists(st.one_of(_POLYS, _POLYS, _POLYS, _CONSTANTS), min_size=1,
                      max_size=2).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=3))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_gebauer_moller_update_matches_the_chain_criterion_loop(order):
    @settings(max_examples=80, deadline=None)
    @given(_GM_IDEALS)
    def check(ideal):
        basis = buchberger(ideal, order)
        assert (basis.generators, basis.reducers) == \
            chain_criterion_buchberger(ideal, order)

    check()


@pytest.mark.parametrize("stem", ["intro_cubic", "perfect_square"])
def test_gebauer_moller_update_matches_on_synthesis_inputs(stem, monkeypatch):
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / f"{stem}.loop"
    doc = parse_problem(path.read_text(), name=stem)
    original = groebner.buchberger
    seen = []

    def compared(gens, order=DEGREVLEX, budget=None):
        basis = original(gens, order, budget)
        assert (basis.generators, basis.reducers) == \
            chain_criterion_buchberger(list(gens), order)
        seen.append(len(basis))
        return basis

    monkeypatch.setattr(groebner, "buchberger", compared)
    generate_loops(doc.template, doc.invariants)
    assert seen and any(n > 1 for n in seen)


def _rational_form(p):
    # the terms of p, with the type of each coefficient
    return [(m, type(c), c) for m, c in p.terms.items()]


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_division_results_are_in_the_checked_form(order):
    # normal_form and s_polynomial build their results without the checking
    # constructor; the terms must be what it would have made of them
    @_DIFFERENTIAL
    @given(_IDEALS, _POLYS)
    def check(ideal, f):
        results = [normal_form(f, ideal, order), buchberger(ideal, order).normal_form(f)]
        results += [s_polynomial(f, g, order) for g in ideal]
        for p in results:
            assert all(c for c in p.terms.values())
            assert all(len(m) == CTX.arity for m in p.terms)
            assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                       for c in p.terms.values())
            assert _rational_form(p) == _rational_form(Polynomial(p.context, p.terms))

    check()


# ---------------------------------------------------------------------------
# Differential tests of the packed division kernel against the tuple kernel
# it replaced: monomials as exponent tuples, heap keys from the order key.
# Remainders must agree term by term, in order and in coefficient type.

def tuple_kernel_normal_form(f, gens, order):
    reducers = [tuple(groebner._reducer(g, order)) for g in gens if g]
    scale = math.lcm(*[c.denominator for c in f.terms.values()])
    work = {m: c.numerator * (scale // c.denominator) for m, c in f.terms.items()}
    key = lambda e: tuple(-k for k in order.key(e))
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
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
        g = math.gcd(c, lc)
        if lc != g:
            for k in work:
                work[k] *= lc // g
            scale *= lc // g
        c //= g
        q = tuple(a - b for a, b in zip(m, lm))
        for m2, c2 in tail:
            mm = tuple(a + b for a, b in zip(m2, q))
            old = work.get(mm, 0)
            new = old - c * c2
            if new:
                work[mm] = new
                if not old:
                    heapq.heappush(heap, (key(mm), mm))
            else:
                del work[mm]
    return [(m, type(c), c) for m, c in rem.items()]


# a division that a broken kernel sends astray fails on the budget instead
# of running on; no case here takes a tenth of it
STEPS = 2_000

# exponents around the field widths 2^k: degrees 2^k - 1 and 2^k come up,
# and divisors of higher degree than f are common
_EDGE_EXPONENTS = st.sampled_from([0, 0, 1, 1, 2, 3, 4, 7, 8])
_INT_OR_FRACTION = st.one_of(st.integers(-6, 6), _COEFFS).filter(bool)
_EDGE_POLYS = st.dictionaries(st.tuples(*[_EDGE_EXPONENTS] * 3), _INT_OR_FRACTION,
                              max_size=4).map(lambda d: Polynomial(CTX, d))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_packed_division_matches_the_tuple_kernel(order):
    @settings(max_examples=150, deadline=None)
    @given(_EDGE_POLYS, st.lists(_EDGE_POLYS, max_size=3))
    def check(f, gens):
        assert _rational_form(normal_form(f, gens, order, Budget(max_steps=STEPS))) == \
            tuple_kernel_normal_form(f, gens, order)

    check()


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("f, gens", [
    ("0", []), ("0", ["x - 1"]), ("3/2*x*y - 1/3", []),
    ("x^3*y^4", ["x^8 - y", "y^16 + 1"]),  # divisors of higher degree than f
    ("x^7 + 1/2*y^8", ["x^4 - z^3", "y^3 - 2*x"]),  # degrees 2^k - 1 and 2^k
    ("x^15*y + x^16", ["x^8 - y^7", "x*y - z"]),
    ("(x + y - z)^7", ["x^2 - 3*y", "y^3 - z - 1/5"]),
    ("x^3 + x*z", ["x - y^5", "y - z^4"]),
    ("z", ["z^4 - 1"]), ("y*z^2 + 1", ["z^5 - y", "x^3"]),  # only f's degree is low
])
def test_packed_division_matches_the_tuple_kernel_on_edges(order, f, gens):
    f, gens = P(f), [P(g) for g in gens]
    assert _rational_form(normal_form(f, gens, order, Budget(max_steps=STEPS))) == \
        tuple_kernel_normal_form(f, gens, order)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_divisors_may_be_polynomials_or_their_records(order):
    # one divisor list: polynomials, their _reducer records, or a mix; a
    # record made under the other order is prepared again under this one
    other = LEX if order == DEGREVLEX else DEGREVLEX

    @settings(max_examples=100, deadline=None)
    @given(_EDGE_POLYS, st.lists(st.tuples(_EDGE_POLYS, st.booleans()), max_size=3))
    @example(P("x*y"), [(P("x*y - 1"), True), (P("x*y - 2"), False)])  # first one wins
    @example(P("x^3"), [(P("x - y^3"), True)])  # the orders disagree on the lead
    def check(f, drawn):
        gens = [g for g, _ in drawn]
        records = [groebner._reducer(g, order) for g in gens if g]
        mixed = [groebner._reducer(g, order) if g and as_record else g
                 for g, as_record in drawn]
        foreign = [groebner._reducer(g, other) if g and as_record else g
                   for g, as_record in drawn]
        want = _rational_form(normal_form(f, gens, order, Budget(max_steps=STEPS)))
        for divisors in (records, mixed, foreign):
            assert _rational_form(normal_form(f, divisors, order,
                                              Budget(max_steps=STEPS))) == want

    check()


def test_lex_division_outgrows_every_input_exponent():
    # each exponent of the remainder exceeds every exponent of the input
    assert normal_form(P("x^3 + x*z"), [P("x - y^5"), P("y - z^4")], LEX) == \
        P("z^60 + z^21")


def test_prepared_divisors_keep_their_packing_out_of_equality():
    basis = buchberger([P("x^2 + y"), P("x*y + z")], DEGREVLEX, Budget(max_steps=STEPS))
    before = list(basis.reducers)
    # the tails are packed at one width, then at a wider one and reused
    for f in ["x^5*y^3 + z^9", "x^40 - y^33", "x^6*y^2 - z", "x^41*z"]:
        assert _rational_form(basis.normal_form(P(f), Budget(max_steps=STEPS))) == \
            tuple_kernel_normal_form(P(f), list(basis), DEGREVLEX)
    assert list(basis.reducers) == before == \
        [groebner._reducer(g, DEGREVLEX) for g in basis]
    assert all(type(r) is not tuple and tuple(r) == r for r in basis.reducers)


def test_division_is_reached_through_the_module_attribute(monkeypatch):
    # perfbench's per-layer metrics time groebner.normal_form by replacing
    # the module attribute; a caller that inlines the kernel or binds the
    # function early would hide its divisions
    calls = []
    original = groebner.normal_form

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "normal_form", counting)
    basis = buchberger([P("x^2 + y"), P("x*y + z"), P("y^2 - x*z")])
    assert calls
    seen = len(calls)
    basis.normal_form(P("x^3"))
    assert len(calls) == seen + 1
    all_in_radical([P("x*y*z")], basis)
    assert len(calls) > seen + 1
