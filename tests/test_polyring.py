import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import (BudgetExceeded, ContextMismatchError, ParseError, Polynomial,
                       VarContext, parse_polynomial, parse_problem,
                       DEGREVLEX, LEX)
from loopsynth.polyring import (MAX_BITS, MAX_NESTING, MAX_POWER_BITS, MAX_TERMS,
                                as_rational, format_polynomial, fresh_name)

CTX = VarContext(("x", "y", "z"))


def P(s, ctx=CTX):
    return parse_polynomial(s, ctx)


class TestContext:
    def test_blocks_and_order(self):
        ctx = VarContext(("x1", "x2"), ("y1",), "t")
        assert ctx.names == ("x1", "x2", "y1", "t")
        assert ctx.arity == 4
        assert "y1" in ctx and "q" not in ctx
        assert ctx.index("t") == 3
        assert repr(ctx) == ("VarContext(x_names=('x1', 'x2'), "
                             "y_names=('y1',), t_name='t')")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VarContext(("x", "x"))
        with pytest.raises(ValueError):
            VarContext(("x",), ("x",))

    def test_a_string_is_not_split_into_names(self):
        with pytest.raises(ValueError, match="x_names"):
            VarContext("xy")
        with pytest.raises(ValueError, match="y_names"):
            VarContext(("x",), "ab")

    def test_with_t_avoids_clashes(self):
        ctx = VarContext(("t", "t_"))
        ext = ctx.with_t()
        assert ext.t_name == "t__"
        assert ext.names == ("t", "t_", "t__")

    def test_restrict_keeps_roles(self):
        ctx = VarContext(("x1",), ("y1", "y2"), "t")
        sub = ctx.restrict(("y1", "y2"))
        assert sub.names == ("y1", "y2")
        assert sub.y_names == ("y1", "y2")
        assert sub.t_name is None
        assert ctx.restrict(("x1", "t")).t_name == "t"

    def test_fresh_name(self):
        assert fresh_name("z", ("x",)) == "z"
        assert fresh_name("z", ("z", "z_")) == "z__"


class TestRationalBoundary:
    def test_accepts_int_fraction_string(self):
        assert as_rational(3) == 3
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
        assert as_rational("-7/2") == Fraction(-7, 2)

    def test_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)

    @pytest.mark.parametrize("text", ["١", "1_0", "1/2_0", "٣/4", "²"])
    def test_numerals_are_ascii_without_underscores(self, text):
        # Fraction() takes the first four
        with pytest.raises(ValueError, match="not a rational literal"):
            as_rational(text)

    def test_polynomial_rejects_float_coeff(self):
        with pytest.raises(TypeError):
            Polynomial(CTX, {(1, 0, 0): 0.5})

    def test_repeated_monomials_sum_to_the_one_form(self):
        p = Polynomial(CTX, [((1, 0, 0), Fraction(1, 2)), ((1, 0, 0), Fraction(1, 2))])
        assert p.terms == {(1, 0, 0): 1} and type(p.terms[(1, 0, 0)]) is int

    def test_bool_is_no_operand(self):
        p = P("1")
        assert not p == True and p != True and True not in [p] and p not in [True]
        with pytest.raises(ValueError):
            P("x") ** True

    def test_polynomial_rejects_bool_exponent(self):
        with pytest.raises(ValueError, match="exponents must be nonnegative ints"):
            Polynomial(VarContext(("x", "y")), {(True, 2): 3})
        with pytest.raises(ValueError, match="exponents must be nonnegative ints"):
            Polynomial(VarContext(("x", "y")), {(1, False): 3})


class TestArithmetic:
    def test_hand_sum(self):
        assert P("x^2 + 2*x*y") + P("x*y - 3") == P("x^2 + 3*x*y - 3")

    def test_hand_product(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")
        assert P("x + 1") * P("x + 2") == P("x^2 + 3*x + 2")

    def test_cancellation_drops_terms(self):
        q = P("x*y + 1") - P("x*y")
        assert q == 1 and len(q) == 1

    def test_cross_term_cancellation_in_product(self):
        # (x+y)(x-y): the x*y monomial appears twice and sums to zero
        q = P("x + y") * P("x - y")
        assert (1, 1, 0) not in q.terms

    def test_scalar_ops(self):
        assert P("x") * Fraction(1, 2) == P("x/2")
        assert P("3*x") / 3 == P("x")
        assert 2 - P("x") == P("2 - x")

    def test_integral_sums_and_products_have_int_coefficients(self):
        # "int when integral" holds where a Fraction took part
        for q in (P("x/2") + P("x/2"), P("x/2") * P("2*y"),
                  P("x/2") * P("2*y/3") * 3, P("x/3") * Fraction(3)):
            assert all(type(c) is int for c in q.terms.values()), q.terms
        q = P("x/2 + y/2") + P("x/2 + y/3")
        assert {m: type(c) for m, c in q.terms.items()} == {(1, 0, 0): int,
                                                            (0, 1, 0): Fraction}

    def test_pow(self):
        assert P("x + y") ** 3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert P("x") ** 0 == 1
        with pytest.raises(ValueError):
            P("x") ** -1

    def test_zero_degree_conventions(self):
        assert Polynomial.zero(CTX).total_degree() == -1
        assert P("5").total_degree() == 0
        assert P("x*y^2").total_degree() == 3

    def test_context_mismatch(self):
        other = VarContext(("x", "y"))
        with pytest.raises(ContextMismatchError):
            P("x") + parse_polynomial("x", other)

    def test_a_constant_hashes_as_its_value(self):
        # equal objects hash equal, and a constant polynomial equals its value
        for c in (3, Fraction(-1, 2), 0):
            p = Polynomial.constant(CTX, c)
            assert p == c and hash(p) == hash(c) and len({p, c}) == 1
        assert len({P("x + 1"), P("x + 1"), P("x")}) == 2

    def test_immutable(self):
        p = P("x")
        with pytest.raises(AttributeError):
            p.terms = {}


class TestOrders:
    def test_degrevlex_leading(self):
        # x^2*y vs x*y^2: degrevlex prefers the one with lower last exponent
        assert P("x^2*y + x*y^2").leading_monomial(DEGREVLEX) == (2, 1, 0)
        assert P("x*z + y^2").leading_monomial(DEGREVLEX) == (0, 2, 0)

    def test_lex_leading(self):
        assert P("x*z + y^2").leading_monomial(LEX) == (1, 0, 1)

    def test_keys_are_total(self):
        monos = [(2, 1, 0), (1, 2, 0), (0, 0, 3), (3, 0, 0), (1, 1, 1)]
        for order in (DEGREVLEX, LEX):
            keys = [order.key(m) for m in monos]
            assert len(set(keys)) == len(monos)


class TestEvaluateSubstituteCompose:
    def test_evaluate_exact(self):
        p = P("x^2*y - z/2")
        v = p.evaluate({"x": Fraction(1, 2), "y": 4, "z": 1})
        assert v == Fraction(1, 2)

    def test_evaluate_refuses_a_power_past_its_bit_bound(self):
        # a power whose parts have at most MAX_POWER_BITS bits is computed;
        # one that could pass it raises before the exponentiation
        e = MAX_POWER_BITS // 2  # 2^e has e + 1 bits, so 2 counts as 2 bits
        assert P(f"x^{e}").evaluate({"x": 2, "y": 0, "z": 0}) == 2 ** e
        assert P(f"x^{e}").evaluate({"x": Fraction(-1, 3), "y": 0, "z": 0}) == \
            Fraction(-1, 3) ** e
        # 3^MAX_POWER_BITS has 1.58 * MAX_POWER_BITS bits
        for x, k in ((2, e + 1), (3, MAX_POWER_BITS), (Fraction(1, 2), e + 1),
                     (Fraction(-5, 3), MAX_POWER_BITS)):
            with pytest.raises(BudgetExceeded, match=f"{MAX_POWER_BITS}-bit"):
                P(f"y + x^{k}").evaluate({"x": x, "y": 1, "z": 0})
        huge = P("x^999999999*y - z")
        for x in (0, 1, -1):
            assert huge.evaluate({"x": x, "y": 1, "z": 1}) == x - 1

    def test_compose_known(self):
        ctx = VarContext(("x1", "x2"))
        g = parse_polynomial("x1^2 - x2^2 + x1*x2", ctx)
        F = [parse_polynomial("2*x1 - 3*x2", ctx),
             parse_polynomial("x1 + x2", ctx)]
        gF = g.compose(F)
        assert gF == parse_polynomial("5*x1^2 - 15*x1*x2 + 5*x2^2", ctx)
        gFF = gF.compose(F)
        assert gFF == parse_polynomial("-5*x1^2 - 35*x1*x2 + 95*x2^2", ctx)

    def test_compose_evaluate_homomorphism(self):
        rng = random.Random(7)
        ctx = VarContext(("x1", "x2"))
        g = parse_polynomial("x1^3 - 2*x1*x2 + 7", ctx)
        F = [parse_polynomial("x1*x2 - 1", ctx),
             parse_polynomial("x2^2 + x1", ctx)]
        gF = g.compose(F)
        for _ in range(25):
            pt = {"x1": rng.randint(-5, 5), "x2": rng.randint(-5, 5)}
            mid = {"x1": F[0].evaluate(pt), "x2": F[1].evaluate(pt)}
            assert gF.evaluate(pt) == g.evaluate(mid)

    def test_extend_context(self):
        small = VarContext(("x", "y"))
        big = VarContext(("x", "y"), ("u",))
        p = parse_polynomial("x*y - 2", small).extend_context(big)
        assert p.context is big
        assert p == parse_polynomial("x*y - 2", big)


class TestContentPrimitive:
    def test_content(self):
        assert P("6*x + 9*y").content() == 3
        assert P("x/2 + y/3").content() == Fraction(1, 6)

    def test_primitive_part_sign(self):
        p = P("-4*x^2 + 6*y")
        q = p.primitive_part()
        assert q == P("2*x^2 - 3*y")

    def test_integral_results_have_int_coefficients(self):
        # "int when integral": no Fraction(n, 1) survives the scaling
        for q in (P("2*x^2 - 4*y").primitive_part(), P("x/2 - y/3").primitive_part()):
            assert all(type(c) is int for c in q.terms.values()), q.terms


class TestFormat:
    @pytest.mark.parametrize("text", [
        "0", "1", "-1", "x", "-x", "3*x^2*y - 1/2",
        "x^2 - 15*x*y + 5*y^2", "y^3 + x - y", "x*y*z - x - 1",
    ])
    def test_round_trip(self, text):
        p = P(text)
        assert P(str(p)) == p

    def test_golden_strings(self):
        assert str(P("y + x")) == "x + y"
        assert str(P("- x*y*3 + 1/2")) == "-3*x*y + 1/2"
        assert str(Polynomial.zero(CTX)) == "0"
        assert format_polynomial(P("x + z^5")) == "z^5 + x"

    def test_random_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(150):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                mono = tuple(rng.randint(0, 3) for _ in range(3))
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if c:
                    terms[mono] = c
            p = Polynomial(CTX, terms)
            assert P(str(p)) == p


class TestParser:
    def test_explicit_multiplication_required(self):
        with pytest.raises(ParseError):
            P("2x")

    def test_power_must_be_nonneg_int(self):
        with pytest.raises(ParseError):
            P("x^-1")
        with pytest.raises(ParseError):
            P("x^y")

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as exc:
            P("x + w^2")
        assert exc.value.line == 1 and exc.value.col == 5
        assert "w" in exc.value.message

    def test_multiline_position(self):
        with pytest.raises(ParseError) as exc:
            P("x +\n  )")
        assert exc.value.line == 2 and exc.value.col == 3

    def test_division_only_between_integers(self):
        assert P("3/4*x") == P("x*3/4")
        with pytest.raises(ParseError):
            P("x/y")

    def test_power_binds_tighter_than_division(self):
        with pytest.raises(ParseError):
            P("3/4^2")
        assert P("(3/4)^2") == P("9/16")
        with pytest.raises(ParseError):
            P("1/0")

    def test_parenthesized_expressions(self):
        assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
        assert P("-(x - y)*(x + y)") == P("y^2 - x^2")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            P("(x + y")
        with pytest.raises(ParseError):
            P("x + y)")

    def test_nesting_has_a_limit(self):
        assert P("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == P("x")
        for depth in (MAX_NESTING + 1, 3000):
            with pytest.raises(ParseError, match="nested") as exc:
                P("x +\n " + "(" * depth + "x" + ")" * depth)
            assert (exc.value.line, exc.value.col) == (2, 2 + MAX_NESTING)


class TestRingAxioms:
    def rand_poly(self, rng):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-6, 6),
                                                        rng.randint(1, 4))
        return Polynomial(CTX, {m: c for m, c in terms.items() if c})

    def test_axioms_random(self):
        rng = random.Random(99)
        for _ in range(200):
            a, b, c = (self.rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Polynomial.zero(CTX) == a
            assert a * Polynomial.one(CTX) == a
            assert a - a == Polynomial.zero(CTX)


# Reference implementations of compose and extend_context: direct loops over
# the terms that end in the checking constructor.  The ring maps must give the
# same terms, in the one rational form.

def _old_compose(p, images):
    tgt = images[0].context
    powers = [[Polynomial.one(tgt), im] for im in images]
    acc = {}
    for expo, c in p.terms.items():
        prod = Polynomial.constant(tgt, c)
        for i, e in enumerate(expo):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1] * images[i])
                prod = prod * powers[i][e]
        for e2, c2 in prod.terms.items():
            s = acc.get(e2, 0) + c2
            if s:
                acc[e2] = s
            else:
                acc.pop(e2, None)
    return Polynomial(tgt, acc)


def _old_extend_context(p, new_context):
    pos = [new_context.index(n) for n in p.context.names]
    acc = {}
    for expo, c in p.terms.items():
        e2 = [0] * new_context.arity
        for i, e in zip(pos, expo):
            e2[i] = e
        acc[tuple(e2)] = c
    return Polynomial(new_context, acc)


def _same_in_one_form(new, old):
    assert new.context == old.context and new.terms == old.terms
    for c in new.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), new.terms


SRC = VarContext(("x", "y"), ("u", "v"))
TGT = VarContext(("a", "b"))
BIG = VarContext(("y", "w", "x"), ("v", "u"), "t")
_COEFFS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _polys(ctx, max_terms, max_exp):
    return st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * ctx.arity), _COEFFS,
                           max_size=max_terms).map(lambda t: Polynomial(ctx, t))


class TestRingMapsAgreeWithTheOldLoops:
    @settings(max_examples=100, deadline=None)
    @given(_polys(SRC, 6, 3), st.lists(_polys(TGT, 3, 2), min_size=4, max_size=4))
    def test_compose(self, p, images):
        _same_in_one_form(p.compose(images), _old_compose(p, images))

    @settings(max_examples=50, deadline=None)
    @given(_polys(SRC, 8, 3))
    def test_extend_context(self, p):
        _same_in_one_form(p.extend_context(BIG), _old_extend_context(p, BIG))

    def test_the_empty_context(self):
        p = Polynomial.constant(VarContext(()), Fraction(3, 2))
        _same_in_one_form(p.extend_context(CTX), _old_extend_context(p, CTX))

    def test_extend_into_a_context_that_lacks_a_name(self):
        with pytest.raises(ContextMismatchError):
            P("x + z").extend_context(VarContext(("x", "y")))


# ---------------------------------------------------------------------------
# combination sums the scaled polynomials into one terms dict; the reference
# is the sum of products through the ring operations.

_NUMBERS = st.one_of(st.integers(-5, 5), _COEFFS, st.builds(Fraction, st.integers(-3, 3)))


class TestCombination:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_polys(SRC, 6, 3), _NUMBERS), max_size=4))
    def test_matches_the_summed_products(self, pairs):
        polys, coeffs = [p for p, _ in pairs], [v for _, v in pairs]
        summed = Polynomial.zero(SRC)
        for p, v in pairs:
            summed = summed + p * v
        _same_in_one_form(Polynomial.combination(SRC, polys, coeffs), summed)

    def test_integral_sum_is_an_int(self):
        p = Polynomial.combination(CTX, [P("x/2"), P("x/2 + y")], [1, Fraction(1)])
        assert p == P("x + y") and type(p.terms[(1, 0, 0)]) is int
        assert Polynomial.combination(CTX, [P("x"), P("-x")], [2, 2]).is_zero
        assert Polynomial.combination(CTX, [], []).is_zero

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError, match="2 polynomials but 1 coefficients"):
            Polynomial.combination(CTX, [P("x"), P("y")], [1])
        with pytest.raises(ContextMismatchError):
            Polynomial.combination(CTX, [P("x", VarContext(("x",)))], [1])
        for v in (True, 1.5):
            with pytest.raises(TypeError):
                Polynomial.combination(CTX, [P("x")], [v])


class TestEvaluateAConstant:
    @pytest.mark.parametrize("text", ["0", "3", "-1/2"])
    def test_a_missing_or_bad_value_still_raises(self, text):
        with pytest.raises(KeyError, match="'z'"):
            P(text).evaluate({"x": 1, "y": 2})
        with pytest.raises(TypeError):
            P(text).evaluate({"x": 1, "y": 2.0, "z": 0})
        assert P(text).evaluate({"x": 1, "y": Fraction(2), "z": 0}) == as_rational(text)


# ---------------------------------------------------------------------------
# A product or power that could expand past MAX_TERMS, or grow a coefficient
# past MAX_BITS bits, is refused before it is expanded, at its operator.

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


class TestExpansionBound:
    @pytest.mark.parametrize("text, op", [("(x+y+z+1)^80", "^"),
                                          ("*".join(["(x+y+z+1)"] * 80), "*")],
                             ids=["power", "product"])
    def test_a_large_expansion_is_refused_at_once(self, text, op):
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match=f"{MAX_TERMS} terms") as exc:
            P(text)
        assert time.perf_counter() - t0 < 1
        assert exc.value.line == 1 and text[exc.value.col - 1] == op

    def test_either_bound_admits_a_small_result(self):
        X = VarContext(("x",))
        # 41 * 41 terms could be, but degree 80 in one variable has 81 monomials
        assert P("(1+x)^40 * (1+x)^40", X) == P("(1+x)^80", X)
        # x, y, z have far more monomials of degree <= 100 than (x+1)^100 has terms
        assert len(P("(x + 1)^100")) == 101
        assert P("(x+y+z+1)^0 * 0^0") == 1 and P("0^5 * (x+y+z)^9").is_zero

    @pytest.mark.parametrize("text, col", [("3^999999999", 2), ("((3^999)^999)^999", 9),
                                           ("(1/3)^999999999", 6), ("2^10001", 2),
                                           ("*".join(["3^5000"] * 300), 7),
                                           ("2^9999 * 4", 8), ("(x + 3^999)^11", 12)])
    def test_a_large_coefficient_is_refused_at_once(self, text, col):
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match=f"{MAX_BITS}-bit coefficients") as exc:
            P(text)
        assert time.perf_counter() - t0 < 1
        assert (exc.value.line, exc.value.col) == (1, col)

    def test_a_coefficient_that_does_not_grow_is_admitted(self):
        assert P("1^999999999") == 1 and P("(-1)^999999999 * x^999999999") == -P("x^999999999")
        assert P("2^10000") == 2 ** 10000 and P("2^9999 * 2") == 2 ** 10000
        big = 3 ** 8000  # a literal past MAX_BITS bits, times a unit
        assert P(f"x * {big} * y") == P("x*y") * big

    def test_every_benchmark_file_parses(self):
        files = sorted(BENCHMARKS.glob("*.loop"))
        assert len(files) == 7
        for path in files:
            parse_problem(path.read_text(), name=path.stem)
