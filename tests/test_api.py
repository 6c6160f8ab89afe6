from fractions import Fraction

import pytest

import loopsynth
import loopsynth.groebner
from loopsynth import (LoopTemplate, Polynomial, SolveRequest, SynthesisSystem,
                       VarContext, instantiate, parse_polynomial, parse_problem,
                       parse_sexprs, rational_roots, solve)
from loopsynth.polyring import as_rational
from loopsynth.solve import _model_assignment, _sexpr_value


@pytest.mark.parametrize("module", [loopsynth, loopsynth.groebner],
                         ids=lambda m: m.__name__)
def test_every_export_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(module, n)]
    assert missing == []


X = VarContext(("x", "y"))
Y = VarContext((), ("y1", "y2"))
TEMPLATE = LoopTemplate(X, (Fraction(4, 2), "1/2"), Polynomial.one(X),
                        ((parse_polynomial("x", X),), (parse_polynomial("y", X),)))
PROBLEM = "vars x1 x2\ninit 4/2 1/2\ninvariant x1 - 2\nupdate x1: x1\nupdate x2: x2\n"

# each entry point, called so that it hands out integral and non-integral values
ONE_FORM = {
    "as_rational": lambda: [as_rational("4/2"), as_rational(Fraction(4, 2)),
                            as_rational("1/2")],
    "evaluate": lambda: [parse_polynomial("x^2 - y/2", X).evaluate({"x": Fraction(3), "y": 2}),
                         parse_polynomial("x/2", X).evaluate({"x": 1, "y": 0})],
    "content": lambda: [parse_polynomial("6*x + 9*y", X).content(),
                        parse_polynomial("x/2 + y/3", X).content()],
    "substitute": lambda: [*parse_polynomial("x*y - y/3", X).substitute(
                               {"x": Fraction(2), "y": "3"}).terms.values(),
                           *parse_polynomial("x/3", X).substitute({"x": 1, "y": 0}).terms.values()],
    "instantiate": lambda: list(instantiate(TEMPLATE, (Fraction(2), "1/2")).init),
    "parse_problem": lambda: list(parse_problem(PROBLEM).loop.init),
    "sexpr_value": lambda: [_sexpr_value(["/", "6", "3"]), _sexpr_value(["/", "1", "2"]),
                            _sexpr_value(["-", "3"])],
    "model_assignment": lambda: list(_model_assignment(parse_sexprs(
        "(model (define-fun y1 () Real (/ 4 2)) (define-fun y2 () Real (/ 1 2)))"),
        ("y1", "y2", "y3")).values()),
    "solve_empty": lambda: list(solve(SolveRequest(SynthesisSystem(Y, (), 0, 0)))
                                .assignment.values()),
    "rational_roots": lambda: rational_roots(parse_polynomial("2*y1^2 - 3*y1 + 1", Y)),
}


@pytest.mark.parametrize("entry", ONE_FORM)
def test_one_rational_form(entry):
    # int when integral, Fraction otherwise (and never a float)
    values = ONE_FORM[entry]()
    assert values
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), (entry, v)
