import time

import pytest

from loopsynth import (ConcreteLoop, InvariantSpec, LoopTemplate, VarContext,
                       generate_loops, parse_polynomial)


@pytest.fixture(scope="session")
def x3ctx():
    return VarContext(("x1", "x2", "x3"))


@pytest.fixture(scope="session")
def cubic_template(x3ctx):
    """Three-variable template: f1 = {x1^3, x2^2}, f2 = {x1, x2^2},
    f3 = {x1}; init (1, 1, -1); guard 1 (loop never exits)."""
    P = lambda s: parse_polynomial(s, x3ctx)
    return LoopTemplate(x3ctx, (1, 1, -1), P("1"),
                        ((P("x1^3"), P("x2^2")),
                         (P("x1"), P("x2^2")),
                         (P("x1"),)))


@pytest.fixture(scope="session")
def cubic_invariants(x3ctx):
    P = lambda s: parse_polynomial(s, x3ctx)
    return InvariantSpec((P("x2^2 - x1"), P("x3^3 + 2*x2^2 - x1")))


@pytest.fixture(scope="session")
def cubic_synthesis(cubic_template, cubic_invariants):
    """The synthesized coefficient system plus the wall-clock seconds it
    took; shared so the suite synthesizes only once."""
    t0 = time.perf_counter()
    system = generate_loops(cubic_template, cubic_invariants)
    return system, time.perf_counter() - t0


QUARTET = (
    "(y3 + y4)^2 - y1 - y2",
    "y5^3 + 2*(y3 + y4)^2 - y1 - y2",
    "2*y3^4*y4^2 + 8*y3^3*y4^3 + 12*y3^2*y4^4 + 8*y3*y4^5 + 2*y4^6"
    " + y1^3*y5^3 + 3*y1^2*y2*y5^3 + 3*y1*y2^2*y5^3 + y2^3*y5^3"
    " + 4*y1*y3^3*y4 + 4*y2*y3^3*y4 + 8*y1*y3^2*y4^2 + 8*y2*y3^2*y4^2"
    " + 4*y1*y3*y4^3 + 4*y2*y3*y4^3 - y1^4 - 3*y1^3*y2 - 3*y1^2*y2^2"
    " - y1*y2^3 + 2*y1^2*y3^2 + 4*y1*y2*y3^2 + 2*y2^2*y3^2 - y2*y3^2"
    " - 2*y2*y3*y4 - y2*y4^2",
    "y3^4*y4^2 + 4*y3^3*y4^3 + 6*y3^2*y4^4 + 4*y3*y4^5 + y4^6"
    " + 2*y1*y3^3*y4 + 2*y2*y3^3*y4 + 4*y1*y3^2*y4^2 + 4*y2*y3^2*y4^2"
    " + 2*y1*y3*y4^3 + 2*y2*y3*y4^3 - y1^4 - 3*y1^3*y2 - 3*y1^2*y2^2"
    " - y1*y2^3 + y1^2*y3^2 + 2*y1*y2*y3^2 + y2^2*y3^2 - y2*y3^2"
    " - 2*y2*y3*y4 - y2*y4^2",
)


@pytest.fixture(scope="session")
def published_quartet(cubic_synthesis):
    """Reference solution set for the cubic template, in the synthesized
    system's coefficient context."""
    system, _ = cubic_synthesis
    return [parse_polynomial(s, system.context) for s in QUARTET]


@pytest.fixture(scope="session")
def known_root_loop(x3ctx):
    """Concrete instance from the known common root (-3, 3, 1, -1, 0):
    F = (-3*x1^3 + 3*x2^2, x1 - x2^2, 0)."""
    P = lambda s: parse_polynomial(s, x3ctx)
    return ConcreteLoop(x3ctx, (1, 1, -1), P("1"),
                        (P("-3*x1^3 + 3*x2^2"), P("x1 - x2^2"), P("0")))
