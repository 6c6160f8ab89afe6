import importlib
import itertools
import math
import random
import stat
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import (Budget, BudgetExceeded, Polynomial, SolveRequest,
                       SolverOutputError, SynthesisSystem, VarContext,
                       brute_force_box, classify_finiteness, emit_smtlib,
                       parse_polynomial, parse_sexprs, rational_roots, solve,
                       verify_assignment)


def mksys(names, *texts):
    ctx = VarContext(tuple(names))
    return SynthesisSystem(ctx, tuple(parse_polynomial(t, ctx) for t in texts),
                           q_count=len(texts), rounds=1)


def stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestEmit:
    def test_integer_script_golden(self):
        system = mksys(("y1", "y2"), "y1^2 - y2", "2*y1 - 3")
        script = emit_smtlib(SolveRequest(system))
        assert script.splitlines() == [
            "(set-option :produce-models true)",
            "(set-logic QF_NIA)",
            "(declare-const y1 Int)",
            "(declare-const y2 Int)",
            "(assert (= (+ (* y1 y1) (* (- 1) y2)) 0))",
            "(assert (= (+ (* 2 y1) (- 3)) 0))",
            "(assert (or (distinct y1 0) (distinct y2 0)))",
            "(check-sat)",
            "(get-model)",
        ]

    def test_rational_logic_and_sorts(self):
        system = mksys(("y1",), "y1 - 1")
        script = emit_smtlib(SolveRequest(system, domain="rationals"))
        assert "(set-logic QF_NRA)" in script
        assert "(declare-const y1 Real)" in script

    def test_fractional_coefficients_cleared(self):
        system = mksys(("y1",), "y1/2 - 1/3")
        script = emit_smtlib(SolveRequest(system, nonzero="none"))
        assert "(assert (= (+ (* 3 y1) (- 2)) 0))" in script
        assert "distinct" not in script

    def test_single_name_policy(self):
        system = mksys(("y1", "y2"), "y1 - y2")
        script = emit_smtlib(SolveRequest(system, nonzero="y2"))
        assert "(assert (distinct y2 0))" in script

    def test_empty_system_rejected(self):
        system = SynthesisSystem(VarContext(("y1",)), (), 0, 1)
        with pytest.raises(ValueError):
            emit_smtlib(SolveRequest(system))

    def test_script_is_grammar_valid(self):
        system = mksys(("y1", "y2"), "y1^3 - 2*y2 + 1", "y1*y2 - 7")
        script = emit_smtlib(SolveRequest(system))
        forms = parse_sexprs(script)
        assert [f[0] for f in forms[-2:]] == ["check-sat", "get-model"]
        assert sum(1 for f in forms if f[0] == "assert") == 3


class TestSexprs:
    def test_nesting_comments_quotes(self):
        text = '; banner\n(model (define-fun |y1| () Int (- 3)) "a )string")\n'
        forms = parse_sexprs(text)
        assert forms == [["model", ["define-fun", "|y1|", [], "Int",
                                    ["-", "3"]], '"a )string"']]

    def test_unbalanced_raises(self):
        with pytest.raises(SolverOutputError):
            parse_sexprs("(sat")
        with pytest.raises(SolverOutputError):
            parse_sexprs("sat)")


class TestRequestValidation:
    def test_bad_domain(self):
        with pytest.raises(ValueError):
            SolveRequest(mksys(("y1",), "y1"), domain="complex")

    def test_bad_policy_name(self):
        with pytest.raises(ValueError):
            SolveRequest(mksys(("y1",), "y1"), nonzero="q7")

    def test_bad_budget(self):
        for seconds in (0, float("nan"), float("inf"), True, "5"):
            with pytest.raises(ValueError, match="budget_seconds"):
                SolveRequest(mksys(("y1",), "y1"), budget_seconds=seconds)


class TestVerifyAssignment:
    def test_exact_zero_required(self):
        req = SolveRequest(mksys(("y1", "y2"), "y1 - 2", "y1*y2 - 2"))
        assert verify_assignment(req, {"y1": Fraction(2), "y2": Fraction(1)})
        assert not verify_assignment(req, {"y1": Fraction(2), "y2": Fraction(2)})

    def test_integrality_enforced(self):
        req = SolveRequest(mksys(("y1",), "2*y1 - 1"))
        assert not verify_assignment(req, {"y1": Fraction(1, 2)})
        req_q = SolveRequest(mksys(("y1",), "2*y1 - 1"), domain="rationals")
        assert verify_assignment(req_q, {"y1": Fraction(1, 2)})

    def test_policy_enforced(self):
        req = SolveRequest(mksys(("y1",), "y1^2"))
        assert not verify_assignment(req, {"y1": Fraction(0)})


class TestExternalSolver:
    def setup_method(self):
        self.req = SolveRequest(mksys(("y1", "y2"), "y1 - 2", "y1*y2 - 2"))

    def test_sat_model_verified(self, tmp_path):
        cmd = stub(tmp_path, "good", """
echo sat
echo '((define-fun y1 () Int 2) (define-fun y2 () Int 1))'
""")
        out = solve(self.req, [cmd, "{file}"])
        assert out.status == "sat"
        assert out.assignment == {"y1": 2, "y2": 1}

    def test_sat_lying_model_rejected(self, tmp_path):
        cmd = stub(tmp_path, "liar", """
echo sat
echo '((define-fun y1 () Int 0) (define-fun y2 () Int 0))'
""")
        with pytest.raises(SolverOutputError):
            solve(self.req, [cmd, "{file}"])

    def test_model_value_spellings(self, tmp_path):
        req = SolveRequest(mksys(("y1", "y2", "y3"),
                                 "2*y1 - 1", "y2 + 3", "4*y3 - 1"),
                           domain="rationals")
        cmd = stub(tmp_path, "spellings", """
echo sat
echo '((define-fun y1 () Real (/ 1 2))'
echo ' (define-fun y2 () Real (- 3))'
echo ' (define-fun y3 () Real 0.25))'
""")
        out = solve(req, [cmd, "{file}"])
        assert out.assignment == {"y1": Fraction(1, 2), "y2": -3,
                                  "y3": Fraction(1, 4)}

    def test_missing_model_values_zero_filled(self, tmp_path):
        req = SolveRequest(mksys(("y1", "y2"), "y1 - 1", "y2^2"),
                           nonzero="y1")
        cmd = stub(tmp_path, "partial", """
echo sat
echo '((define-fun y1 () Int 1))'
""")
        out = solve(req, [cmd, "{file}"])
        assert out.assignment == {"y1": 1, "y2": 0}

    def test_unsat(self, tmp_path):
        cmd = stub(tmp_path, "no", "echo unsat\n")
        out = solve(self.req, [cmd, "{file}"])
        assert out.status == "unsat" and out.assignment is None

    def test_status_from_stdout_not_exit_code(self, tmp_path):
        cmd = stub(tmp_path, "grumpy", """
echo 'WARNING: something' >&2
echo unsat
exit 1
""")
        out = solve(self.req, [cmd, "{file}"])
        assert out.status == "unsat"

    def test_garbage_output(self, tmp_path):
        cmd = stub(tmp_path, "garbage", "echo 'segmentation fault'\n")
        with pytest.raises(SolverOutputError):
            solve(self.req, [cmd, "{file}"])

    def test_undecodable_output(self, tmp_path):
        cmd = stub(tmp_path, "bytes", "printf 'sat\\n\\377\\376 (model)\\n'\n")
        with pytest.raises(SolverOutputError):
            solve(self.req, [cmd, "{file}"])

    def test_model_value_nested_too_deeply(self, tmp_path):
        # 5,000 negations of 2: read, it would be a model that checks out
        depth = 5000
        model = tmp_path / "model"
        model.write_text("sat\n((define-fun y1 () Int " + "(- " * depth + "2"
                         + ")" * depth + ") (define-fun y2 () Int 1))\n")
        cmd = stub(tmp_path, "deep", f"cat '{model}'\n")
        with pytest.raises(SolverOutputError):
            solve(self.req, [cmd, "{file}"])

    def test_timeout_is_unknown(self, tmp_path):
        cmd = stub(tmp_path, "sleeper", "sleep 5\necho sat\n")
        out = solve(SolveRequest(self.req.system, budget_seconds=0.2), [cmd, "{file}"])
        assert out.status == "unknown"
        assert "timeout" in out.diagnostics

    def test_budget_beyond_the_wait_cap(self, tmp_path):
        # poll() takes an int of milliseconds; 3e6 s does not fit in one
        cmd = stub(tmp_path, "no", "echo unsat\n")
        out = solve(SolveRequest(self.req.system, budget_seconds=3e6), [cmd, "{file}"])
        assert out.status == "unsat"

    def test_missing_binary_is_unavailable(self):
        out = solve(self.req, ["/nonexistent/bin/solver", "{file}"])
        assert out.status == "solver-unavailable"

    @pytest.mark.parametrize("target", ["plain", "directory"])
    def test_solver_that_cannot_start_is_unavailable(self, tmp_path, target):
        path = tmp_path / target
        if target == "directory":
            path.mkdir()
        else:
            path.write_text("#!/bin/sh\necho unsat\n")
            path.chmod(0o644)
        out = solve(self.req, [str(path), "{file}"])
        assert out.status == "solver-unavailable"
        assert str(path) in out.diagnostics

    def test_solve_empty_system_short_circuits(self):
        system = SynthesisSystem(VarContext(("y1", "y2")), (), 0, 1)
        out = solve(SolveRequest(system), command=["/nonexistent", "{file}"])
        assert out.status == "sat"
        assert any(v != 0 for v in out.assignment.values())

    def test_solve_empty_system_under_a_named_coefficient(self):
        system = SynthesisSystem(VarContext(("y1", "y2")), (), 0, 1)
        out = solve(SolveRequest(system, nonzero="y2"), command=None)
        assert out.status == "sat"
        assert out.assignment == {"y1": 0, "y2": 1}

    def test_solve_end_to_end_with_stub(self, tmp_path):
        cmd = stub(tmp_path, "good", """
echo sat
echo '((define-fun y1 () Int 2) (define-fun y2 () Int 1))'
""")
        out = solve(self.req, command=[cmd, "{file}"])
        assert out.status == "sat" and out.integral


class TestRationalRoots:
    def test_no_rational_roots(self):
        ctx = VarContext(("y5",))
        assert rational_roots(parse_polynomial("y5^2 - y5 + 1", ctx)) == []

    def test_known_roots(self):
        ctx = VarContext(("y",))
        p = parse_polynomial("(2*y - 1)*(y + 3)*(3*y - 2)", ctx)
        assert rational_roots(p) == [-3, Fraction(1, 2), Fraction(2, 3)]

    def test_zero_root_from_low_terms(self):
        ctx = VarContext(("y",))
        assert rational_roots(parse_polynomial("y^3 - 4*y", ctx)) == [-2, 0, 2]

    def test_constant_has_no_roots(self):
        ctx = VarContext(("y",))
        assert rational_roots(parse_polynomial("7", ctx)) == []

    def test_zero_poly_rejected(self):
        ctx = VarContext(("y",))
        with pytest.raises(ValueError):
            rational_roots(Polynomial.zero(ctx))

    def test_multivariate_rejected(self):
        ctx = VarContext(("y1", "y2"))
        with pytest.raises(ValueError):
            rational_roots(parse_polynomial("y1*y2", ctx))

    def test_univariate_in_larger_context(self):
        ctx = VarContext(("y1", "y2"))
        assert rational_roots(parse_polynomial("y2^2 - 9", ctx)) == [-3, 3]

    def test_huge_constant_term_is_bounded(self):
        # about 10^15 trial divisions unbounded
        ctx = VarContext(("y1",))
        p = parse_polynomial(f"y1 - {10 ** 30}", ctx)
        start = time.monotonic()
        with pytest.raises(BudgetExceeded):
            rational_roots(p)
        assert time.monotonic() - start < 1

    def test_against_brute_force(self):
        rng = random.Random(31)
        ctx = VarContext(("y",))
        for _ in range(40):
            coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 7))]
            if not any(coeffs):
                continue
            p = Polynomial(ctx, {(i,): c for i, c in enumerate(coeffs) if c})
            if p.total_degree() < 1:
                continue
            found = rational_roots(p)
            lead = coeffs[-1] if coeffs[-1] else 1
            tail = next((c for c in coeffs if c), 1)
            candidates = {Fraction(s * n, d)
                          for n in range(0, abs(tail) + 1)
                          for d in range(1, abs(lead) + 1)
                          for s in (1, -1)}
            expected = sorted(x for x in candidates
                              if p.evaluate({"y": x}) == 0)
            assert found == expected


def box_by_product(system, bound):
    """Every point of the box tested against every polynomial, in
    itertools.product order: the reference for the pruned search."""
    hits = []
    for point in itertools.product(range(-bound, bound + 1),
                                   repeat=len(system.context.names)):
        if all(sum(c * math.prod(x ** e for x, e in zip(point, expo))
                   for expo, c in p.terms.items()) == 0
               for p in system.polys):
            hits.append(point)
    return hits


@st.composite
def _box_systems(draw):
    """Small systems with constants, Fraction coefficients, factors
    (y_i - a) that vanish once a prefix is bound, and polynomials
    univariate in y1; plus a bound of 0..3."""
    l = draw(st.integers(0, 4))
    ctx = VarContext(tuple(f"y{i + 1}" for i in range(l)))
    coeffs = st.fractions(-3, 3, max_denominator=3)
    expos = st.tuples(*[st.integers(0, 2)] * l)
    y1_only = st.tuples(st.integers(0, 3), *[st.just(0)] * (l - 1)) if l else expos
    polys = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            p = Polynomial(ctx, draw(st.dictionaries(expos, coeffs, max_size=4)))
        else:
            p = Polynomial(ctx, draw(st.dictionaries(y1_only, coeffs, min_size=1, max_size=3)))
        for i in draw(st.lists(st.integers(0, l - 1), max_size=2)) if l else ():
            unit = tuple(int(j == i) for j in range(l))
            p = p * Polynomial(ctx, {unit: 1, (0,) * l: -draw(st.integers(-3, 3))})
        polys.append(p)
    system = SynthesisSystem(ctx, tuple(polys), q_count=len(polys), rounds=1)
    return system, draw(st.integers(0, 3))


class TestBruteForceBox:
    def test_linear_component_points(self):
        system = mksys(("y1", "y2"), "y1 + y2")
        hits = brute_force_box(system, 2)
        assert hits == [(-2, 2), (-1, 1), (0, 0), (1, -1), (2, -2)]

    def test_cap(self, monkeypatch):
        # the cap counts steps, not the 3 * 41^3 points of the full box: 41
        # Horner tests for each of y1, y2, y3 plus one step per value tried
        system = mksys(("y1", "y2", "y3"), "y1 - 1", "y2 + 2", "y3")
        solve_module = importlib.import_module("loopsynth.solve")
        monkeypatch.setattr(solve_module, "ENUMERATION_CAP", 126)
        assert brute_force_box(system, 20) == [(1, -2, 0)]
        monkeypatch.setattr(solve_module, "ENUMERATION_CAP", 125)
        with pytest.raises(BudgetExceeded):
            brute_force_box(system, 20)

    @pytest.mark.parametrize("bound", [-1, True, 2.0, "2", None])
    def test_bound_is_an_integer_at_least_zero(self, bound):
        with pytest.raises(ValueError, match="bound must be an integer >= 0"):
            brute_force_box(mksys(("y1",), "y1"), bound)

    def test_cubic_system_at_bound_eight(self, cubic_synthesis):
        # a full box of 5 * 17^5 points; the staged search takes about 106k steps
        system, _ = cubic_synthesis
        hits = brute_force_box(system, 8)
        assert len(hits) == 801
        for hit in hits:
            point = dict(zip(system.context.names, hit))
            assert all(p.evaluate(point) == 0 for p in system.polys)
        inner = [h for h in hits if all(abs(v) <= 5 for v in h)]
        assert inner == brute_force_box(system, 5)

    def test_empty_variety(self):
        assert brute_force_box(mksys(("y1",), "y1^2 + 1"), 5) == []

    @pytest.mark.parametrize("texts, hits", [
        ((), [()]), (("0",), [()]), (("0", "0"), [()]),
        (("3",), []), (("0", "-1/2"), []),
    ])
    def test_no_variables(self, texts, hits):
        assert brute_force_box(mksys((), *texts), 2) == hits

    def test_bound_zero(self):
        assert brute_force_box(mksys(("y1", "y2"), "y1*y2", "y1 + y2"), 0) == [(0, 0)]
        assert brute_force_box(mksys(("y1", "y2"), "y1*y2 - 1"), 0) == []

    def test_cubic_system_at_bound_three(self, cubic_synthesis):
        system, _ = cubic_synthesis
        hits = brute_force_box(system, 3)
        assert hits == box_by_product(system, 3)
        assert (-3, 3, 1, -1, 0) in hits

    @settings(max_examples=150, deadline=None)
    @given(_box_systems())
    def test_matches_the_full_box_loop(self, case):
        system, bound = case
        assert brute_force_box(system, bound) == box_by_product(system, bound)


class TestClassifyFiniteness:
    def test_finite_point(self):
        assert classify_finiteness(mksys(("y1", "y2"), "y1 - 1", "y2 + 2")) == "finite"

    def test_empty_is_finite(self):
        assert classify_finiteness(mksys(("y1",), "y1", "y1 - 1")) == "finite"

    def test_empty_system(self):
        assert classify_finiteness(mksys(("y1",))) == "infinite"
        assert classify_finiteness(mksys(())) == "finite"

    def test_line_is_infinite(self):
        assert classify_finiteness(mksys(("y1", "y2"), "y1 - y2")) == "infinite"

    def test_budget_gives_unknown(self):
        system = mksys(("y1", "y2", "y3"),
                       "y1^3*y2^2 - y3", "y1*y2^4 + y2*y3^2 - 1",
                       "y1^2*y3^3 - y2")
        assert classify_finiteness(system, budget=Budget(max_steps=2)) == "unknown"
