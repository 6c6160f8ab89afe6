import ast
import builtins
import pathlib
import re
from fractions import Fraction

import pytest

import loopsynth
import loopsynth.groebner
from loopsynth import (LoopTemplate, Polynomial, SolveRequest, SynthesisSystem,
                       VarContext, instantiate, parse_polynomial, parse_problem,
                       parse_sexprs, rational_roots, solve)
from loopsynth.polyring import as_rational
from loopsynth.solve import _model_assignment, _sexpr_value

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", [loopsynth, loopsynth.groebner],
                         ids=lambda m: m.__name__)
def test_every_export_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(module, n)]
    assert missing == []



def _loaded_names(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_export_is_used():
    # an export is read by the package itself, the acceptance gate or the
    # benchmark.  LEX is exempt: the in-process solve by lex
    # back-substitution on the roadmap needs lex bases.
    exempt = {"__version__", "LEX"}
    files = [*(ROOT / "src" / "loopsynth").glob("*.py"), ROOT / "tests" / "test_acceptance.py",
             *(ROOT / "perfbench").glob("*.py")]
    used = {name for path in files if path.name != "__init__.py"
            for name in _loaded_names(path)}
    assert sorted(set(loopsynth.__all__) - exempt - used) == []


def test_solve_option_words_live_in_solve():
    # the domain and nonzero words are spelled only where their rules are
    words = {"integers", "rationals", "vector", "none"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "loopsynth").glob("*.py"))
             if path.name != "solve.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value in words]
    assert found == []


def test_cli_leaves_the_solver_command_to_resolve():
    # _resolve checks the solver command with the other run options, so cli
    # imports nothing from solve and never calls discover_solver
    tree = ast.parse((ROOT / "src" / "loopsynth" / "cli.py").read_text())
    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and ((node.module or "").endswith("solve")
                                                      or "solve" in [a.name for a in node.names])
             or isinstance(node, ast.Import) and any(a.name.endswith("solve") for a in node.names)
             or isinstance(node, ast.Name) and node.id == "discover_solver"]
    assert found == []


def test_one_exception_per_kind_of_failure():
    # a new work limit raises BudgetExceeded rather than a class of its own
    classes = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
               for path in (ROOT / "src" / "loopsynth").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)}

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(map(is_exception, classes.get(name, ())))

    assert sorted(filter(is_exception, classes)) == [
        "BudgetExceeded", "ContextMismatchError", "ParseError",
        "SolverOutputError", "UsageError"]


def test_ring_maps_build_no_checked_polynomial():
    # the checking constructor is for outside input; the ring operations and
    # maps build their results from terms that are already in normal form
    ring_ops = {"__add__", "__mul__", "compose", "_compose", "extend_context"}
    tree = ast.parse((ROOT / "src" / "loopsynth" / "polyring.py").read_text())
    defs = [fn for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in ring_ops]
    assert sorted(fn.name for fn in defs) == sorted(ring_ops)
    found = [f"{fn.name}:{node.lineno}" for fn in defs for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Polynomial"]
    assert found == []


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
    # constant images for x, as generate_loops takes the system at the start
    "compose": lambda: [*parse_polynomial("x*y - y/3", X).compose(
                            [Polynomial.constant(Y, Fraction(4, 2)),
                             Polynomial.variable(Y, "y1")]).terms.values(),
                        *parse_polynomial("2*x*y", X).compose(
                            [Polynomial.constant(Y, "1/2"),
                             Polynomial.variable(Y, "y2")]).terms.values()],
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


def test_readme_library_block_runs():
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
