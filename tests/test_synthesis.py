import importlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from loopsynth import (Budget, BudgetExceeded, ConcreteLoop,
                       InvariantSpec, LoopTemplate, Polynomial, VarContext,
                       all_in_radical, buchberger, build_augmented_map,
                       check_invariants, generate_loops, instantiate,
                       groebner, invariant_set, parse_polynomial, parse_problem,
                       simulate, synthesis)
from loopsynth.polyring import as_rational
from loopsynth.solve import SolveRequest, verify_assignment
from loopsynth.synthesis import DEFAULT_MAX_ROUNDS

X2 = VarContext(("x1", "x2"))


def P2(s):
    return parse_polynomial(s, X2)


@pytest.fixture
def rotationish():
    """Quadratic invariant under the linear map (2x1-3x2, x1+x2); its
    invariant set stabilizes after adding one composition."""
    g = P2("x1^2 - x2^2 + x1*x2")
    F = [P2("2*x1 - 3*x2"), P2("x1 + x2")]
    return g, F


class TestTemplates:
    def test_coefficient_names(self, cubic_template):
        assert cubic_template.coefficient_names == ("y1", "y2", "y3", "y4", "y5")
        assert cubic_template.coeff_count == 5

    def test_name_clash_gets_fresh_prefix(self):
        ctx = VarContext(("y1", "y2"))
        one = Polynomial.one(ctx)
        xs = Polynomial.variables(ctx)
        tpl = LoopTemplate(ctx, (0, 0), one, ((xs[0],), (xs[1],)))
        assert all(n not in ctx.names for n in tpl.coefficient_names)

    def test_init_arity_checked(self):
        with pytest.raises(ValueError):
            LoopTemplate(X2, (1,), P2("1"), ((P2("x1"),), (P2("x2"),)))

    def test_generators_required_per_variable(self):
        with pytest.raises(ValueError):
            LoopTemplate(X2, (1, 1), P2("1"), ((P2("x1"),), ()))

    def test_a_string_is_not_split_into_values(self):
        gens = ((P2("x1"),), (P2("x2"),))
        with pytest.raises(ValueError, match="init"):
            LoopTemplate(X2, "12", P2("1"), gens)
        with pytest.raises(ValueError, match="init"):
            ConcreteLoop(X2, "12", P2("1"), (P2("x1"), P2("x2")))

    def test_float_init_rejected(self):
        with pytest.raises(TypeError):
            LoopTemplate(X2, (0.5, 1), P2("1"),
                         ((P2("x1"),), (P2("x2"),)))

    XY = VarContext(("x1",), ("y1",))

    @pytest.mark.parametrize("context, init, guard, poly, match", [
        (XY, (1,), "1", "x1", "program variables only"),
        (X2, "12", "1", "x1", "init must be a sequence"),
        (X2, (1, "١"), "1", "x1", "not a rational literal"),
        (X2, (1,), "1", "x1", "init needs 2 values, got 1"),
        (X2, (1, 1), "x1*y1", "x1", "guard"),
        (X2, (1, 1), "1", "y1", "every polynomial"),
    ])
    def test_template_and_loop_share_one_shape_check(self, monkeypatch, context, init,
                                                     guard, poly, match):
        def mk(text):  # over X2 unless it names y1
            return parse_polynomial(text, self.XY if "y1" in text else context)

        calls = []
        shared = synthesis._check_loop
        monkeypatch.setattr(synthesis, "_check_loop",
                            lambda loop, polys: calls.append(loop) or shared(loop, polys))
        n = context.arity
        with pytest.raises(ValueError, match=match):
            LoopTemplate(context, init, mk(guard), tuple((mk(poly),) for _ in range(n)))
        with pytest.raises(ValueError, match=match):
            ConcreteLoop(context, init, mk(guard), tuple(mk(poly) for _ in range(n)))
        assert [type(loop) for loop in calls] == [LoopTemplate, ConcreteLoop]

    def test_each_class_checks_its_own_lists(self):
        with pytest.raises(ValueError, match="one generator list per variable"):
            LoopTemplate(X2, (1, 1), P2("1"), ((P2("x1"),),))
        with pytest.raises(ValueError, match="variable x2 has no generators"):
            LoopTemplate(X2, (1, 1), P2("1"), ((P2("x1"),), ()))
        with pytest.raises(ValueError, match="one update per variable"):
            ConcreteLoop(X2, (1, 1), P2("1"), (P2("x1"),))


class TestAugmentedMap:
    def test_shape(self, cubic_template):
        maps, ctx = build_augmented_map(cubic_template)
        assert ctx.names == ("x1", "x2", "x3", "y1", "y2", "y3", "y4", "y5")
        want = ["y1*x1^3 + y2*x2^2", "y3*x1 + y4*x2^2", "y5*x1",
                "y1", "y2", "y3", "y4", "y5"]
        assert maps == [parse_polynomial(s, ctx) for s in want]


class TestInvariantSet:
    def test_two_round_stabilization(self, rotationish):
        g, F = rotationish
        S = invariant_set([g], F)
        assert S == [g, g.compose(F)]

    def test_identity_map_stops_immediately(self, rotationish):
        g, _ = rotationish
        S = invariant_set([g], list(Polynomial.variables(X2)))
        assert S == [g]

    @pytest.mark.parametrize("max_rounds", [0, -1, True, 2.5])
    def test_round_limit_is_an_integer_at_least_one(self, max_rounds, rotationish,
                                                    cubic_template, cubic_invariants,
                                                    known_root_loop):
        # a bad limit is a bad argument, not a run out of budget
        g, F = rotationish
        calls = [lambda: invariant_set([g], F, max_rounds=max_rounds),
                 lambda: generate_loops(cubic_template, cubic_invariants,
                                        max_rounds=max_rounds),
                 lambda: check_invariants(known_root_loop, cubic_invariants,
                                          max_rounds=max_rounds)]
        for call in calls:
            with pytest.raises(ValueError, match="max_rounds"):
                call()

    def test_round_limit_raises(self, rotationish):
        g, F = rotationish
        with pytest.raises(BudgetExceeded):
            invariant_set([g], F, max_rounds=1)

    def test_fixed_point_property(self, rotationish):
        from loopsynth import all_in_radical
        g, F = rotationish
        S = invariant_set([g], F)
        assert all_in_radical([p.compose(F) for p in S], buchberger(S))

    def test_needs_polynomials(self):
        with pytest.raises(ValueError):
            invariant_set([], [P2("x1"), P2("x2")])


class TestGenerateLoops:
    def test_cubic_example_counts(self, cubic_synthesis):
        system, _ = cubic_synthesis
        assert system.s == 4
        assert system.q_count == 6
        assert system.rounds == 3
        assert system.context.names == ("y1", "y2", "y3", "y4", "y5")

    def test_first_output_up_to_unit(self, cubic_synthesis):
        system, _ = cubic_synthesis
        target = parse_polynomial("(y3 + y4)^2 - y1 - y2", system.context)
        lead = system.polys[0]
        ratios = {m: Fraction(c) / Fraction(target.terms[m])
                  for m, c in lead.terms.items()}
        assert len(set(ratios.values())) == 1
        assert set(lead.terms) == set(target.terms)

    def test_invariant_false_at_init_gives_unit_system(self, x3ctx):
        P = lambda s: parse_polynomial(s, x3ctx)
        tpl = LoopTemplate(x3ctx, (1, 1, -1), P("1"),
                           ((P("x1"),), (P("x2"),), (P("x3"),)))
        spec = InvariantSpec((P("x1 - 5"),))
        system = generate_loops(tpl, spec)
        assert any(p.total_degree() == 0 for p in system.polys)

    def test_guard_enters_as_factor(self):
        # x1 counts down to the guard's zero while x2 counts up; the system
        # is pinned to the output of the flag-variable construction
        doc = parse_problem("vars x1 x2\ninit 3 0\nguard x1\n"
                            "invariant x1 + x2 - 3\ngen x1: x1, 1\ngen x2: x2, 1\n")
        system = generate_loops(doc.template, doc.invariants)
        assert (system.q_count, system.rounds) == (3, 3)
        assert system.as_strings() == [
            "3*y1 + y2 + y4 - 3",
            "9*y1^3 + 6*y1^2*y2 + y1*y2^2 + 3*y1*y3*y4 + y2*y3*y4 + 3*y1*y2"
            " + y2^2 + 3*y1*y4 + y2*y4 - 9*y1 - 3*y2"]
        assert check_invariants(instantiate(doc.template, (1, -1, 1, 1)),
                                doc.invariants)
        assert not check_invariants(instantiate(doc.template, (1, -1, 0, 1)),
                                    doc.invariants)

    def test_context_mismatch(self, cubic_template):
        with pytest.raises(ValueError):
            generate_loops(cubic_template, InvariantSpec((P2("x1"),)))

    def test_round_budget(self, cubic_template, cubic_invariants):
        with pytest.raises(BudgetExceeded):
            generate_loops(cubic_template, cubic_invariants, max_rounds=2)


class TestInstantiate:
    def test_sequence_and_mapping_agree(self, cubic_template):
        by_seq = instantiate(cubic_template, (-3, 3, 1, -1, 0))
        by_map = instantiate(cubic_template,
                             {"y1": -3, "y2": 3, "y3": 1, "y4": -1, "y5": 0})
        assert by_seq == by_map
        assert by_seq.update[0] == parse_polynomial("-3*x1^3 + 3*x2^2",
                                                    cubic_template.context)

    def test_wrong_length(self, cubic_template):
        with pytest.raises(ValueError):
            instantiate(cubic_template, (1, 2, 3))

    def test_missing_name(self, cubic_template):
        with pytest.raises(ValueError):
            instantiate(cubic_template, {"y1": 1})

    def test_a_string_is_not_split_into_coefficients(self, cubic_template):
        with pytest.raises(ValueError, match="'12345'"):
            instantiate(cubic_template, "12345")

    def test_unknown_name(self, cubic_template):
        coeffs = {"y1": -3, "y2": 3, "y3": 1, "y4": -1, "y5": 0, "y6": 99, "x1": 5}
        with pytest.raises(ValueError, match=r"unknown coefficients \['y6', 'x1'\]"):
            instantiate(cubic_template, coeffs)

    def test_instantiate_and_verify_assignment_share_one_name_check(
            self, cubic_template, monkeypatch):
        # the package attribute loopsynth.solve is the function
        solve_module = importlib.import_module("loopsynth.solve")
        assert solve_module._coefficient_values is synthesis._coefficient_values
        calls = []
        shared = synthesis._coefficient_values
        monkeypatch.setattr(synthesis, "_coefficient_values",
                            lambda names, coeffs: calls.append(names) or shared(names, coeffs))
        monkeypatch.setattr(solve_module, "_coefficient_values", synthesis._coefficient_values)
        system = synthesis.SynthesisSystem(
            VarContext(cubic_template.coefficient_names), (), 1, 1)
        coeffs = {"y1": -3, "y2": 3, "y3": 1, "y4": -1, "y5": 0}
        instantiate(cubic_template, coeffs)
        assert verify_assignment(SolveRequest(system), coeffs)
        assert calls == [cubic_template.coefficient_names] * 2


class TestSimulateAndCheck:
    def test_known_root_loop_passes(self, known_root_loop, cubic_invariants):
        assert simulate(known_root_loop, cubic_invariants, 10)
        assert check_invariants(known_root_loop, cubic_invariants)

    def test_perturbed_loop_fails(self, x3ctx, cubic_invariants):
        P = lambda s: parse_polynomial(s, x3ctx)
        bad = ConcreteLoop(x3ctx, (1, 1, -1), P("1"),
                           (P("-3*x1^3 + 3*x2^2"), P("x1 - x2^2"), P("x3")))
        assert not simulate(bad, cubic_invariants, 10)
        assert not check_invariants(bad, cubic_invariants)

    def test_invariant_checked_at_terminal_state(self):
        # guard x1-1 vanishes at init, so the loop body never runs, but the
        # initial (= terminal) state itself must satisfy the invariants; the
        # state x2 = 5 after it is never reached
        P = P2
        loop = ConcreteLoop(X2, (1, 4), P("x1 - 1"), (P("x1"), P("x2 + 1")))
        holds = InvariantSpec((P("x2 - 4"),))
        fails = InvariantSpec((P("x2 - 5"),))
        assert simulate(loop, holds, 5)
        assert check_invariants(loop, holds)
        assert not simulate(loop, fails, 5)
        assert not check_invariants(loop, fails)

    def test_guarded_exit_before_violation(self):
        # x1 counts down to 0 and the guard stops the loop right before the
        # state that would break the invariant
        P = P2
        loop = ConcreteLoop(X2, (2, 0), P("x1"), (P("x1 - 1"), P("x2 + 1")))
        inv = InvariantSpec((P("x1 + x2 - 2"),))
        assert simulate(loop, inv, 10)
        assert check_invariants(loop, inv)

    def test_simulation_is_only_evidence(self):
        # x2 = 2^m hits the invariant x2 - 1024 = 0 violation only past the
        # horizon; simulate() accepts, the exact check refuses
        P = P2
        loop = ConcreteLoop(X2, (0, 1), P("1"), (P("x1"), P("2*x2")))
        inv = InvariantSpec((P("x1",),))
        assert simulate(loop, inv, 10)
        assert check_invariants(loop, inv)
        growing = InvariantSpec((P("x2 - 1"),))
        assert not simulate(loop, growing, 10)
        assert not check_invariants(loop, growing)

    def test_steps_validated(self, known_root_loop, cubic_invariants):
        with pytest.raises(ValueError):
            simulate(known_root_loop, cubic_invariants, 0)

    @pytest.mark.parametrize("steps", [-1, True, 1.5, "3"])
    def test_steps_must_be_an_integer_at_least_one(self, known_root_loop,
                                                   cubic_invariants, steps):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            simulate(known_root_loop, cubic_invariants, steps)

    def test_late_refutation_needs_the_third_round(self):
        # x -> x + 1 from 0 meets x*(x-1)*(x-2) = 0 at states 0, 1 and 2 and
        # first leaves it at state 3, which round 3 reaches
        X = VarContext(("x",))
        P = lambda s: parse_polynomial(s, X)
        loop = ConcreteLoop(X, (0,), P("1"), (P("x + 1"),))
        inv = InvariantSpec((P("x*(x - 1)*(x - 2)"),))
        assert not check_invariants(loop, inv)
        with pytest.raises(BudgetExceeded):
            check_invariants(loop, inv, max_rounds=2)

    def test_exit_ends_the_walk(self):
        # the loop visits 0, 1, 2, 3 and exits; the factors (x - 10)..(x - 21)
        # keep the ideal chain growing past 8 rounds, which no visited state
        # needs
        far = "*".join(f"(x - {c})" for c in range(10, 22))
        for factors, holds in [("x*(x - 1)*(x - 2)*(x - 3)", True),
                               ("x*(x - 1)*(x - 3)", False)]:
            doc = parse_problem(f"vars x\ninit 0\nguard x - 3\nupdate x: x + 1\n"
                                f"invariant {factors}*{far}\n")
            assert check_invariants(doc.loop, doc.invariants, max_rounds=8) is holds

    def test_exit_is_decided_before_the_next_round(self, monkeypatch):
        # the guard vanishes at state 3, so the ideal work is that of rounds
        # 1 and 2 (a basis and a radical test each); round 3's is skipped
        runs = _count_buchberger(monkeypatch)
        far = "*".join(f"(x - {c})" for c in range(10, 22))
        doc = parse_problem(f"vars x\ninit 0\nguard x - 3\nupdate x: x + 1\n"
                            f"invariant x*(x - 1)*(x - 2)*(x - 3)*{far}\n")
        assert check_invariants(doc.loop, doc.invariants)
        assert len(runs) == 4

    def test_fixed_point_ends_the_walk(self, monkeypatch):
        # 0 -> 0: state 1 revisits state 0, before any round's ideal work;
        # the chain for this g needs more than 2 rounds to stabilize
        runs = _count_buchberger(monkeypatch)
        doc = parse_problem("vars x\ninit 0\nupdate x: x^2\ninvariant "
                            "x*(x - 1)*(x - 2)*(x - 4)*(x - 16)*(x - 256)*(x - 65536)\n")
        assert check_invariants(doc.loop, doc.invariants, max_rounds=2)
        assert runs == []

    @pytest.mark.parametrize("factors, holds", [("x*(x - 1)", False),
                                                ("x*(x - 1)*(x - 2)", True)])
    def test_cycle_ends_the_walk(self, factors, holds):
        # 0 -> 1 -> 2 -> 0: state 2 is checked before state 3 revisits state 0
        doc = parse_problem(f"vars x\ninit 0\nupdate x: 1 + x - 3/2*x*(x - 1)\n"
                            f"invariant {factors}\n")
        assert check_invariants(doc.loop, doc.invariants) is holds

    def test_refutation_at_state_one_composes_nothing(self, monkeypatch):
        X = VarContext(("x",))
        P = lambda s: parse_polynomial(s, X)
        loop = ConcreteLoop(X, (0,), P("1"), (P("x + 1"),))
        composed = []
        compose = Polynomial.compose
        monkeypatch.setattr(Polynomial, "compose",
                            lambda p, images: composed.append(p) or compose(p, images))
        assert not check_invariants(loop, InvariantSpec((P("x"),)))
        assert composed == []

    def test_budget_propagates(self, known_root_loop, cubic_invariants):
        with pytest.raises(BudgetExceeded):
            check_invariants(known_root_loop, cubic_invariants,
                             budget=Budget(max_steps=1))

    def test_simulate_ticks_once_per_step(self, known_root_loop, cubic_invariants):
        budget = Budget(max_steps=10)
        assert simulate(known_root_loop, cubic_invariants, 10, budget=budget)
        assert budget.steps == 10
        with pytest.raises(BudgetExceeded):
            simulate(known_root_loop, cubic_invariants, 11, budget=budget)


def _count_buchberger(monkeypatch):
    runs = []
    run = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda *a, **k: runs.append(a) or run(*a, **k))
    return runs


def _orbit_verdict(loop, invariants):
    """Invariance by walking the orbit up to its first exit or revisit."""
    names = loop.context.names
    state, seen = dict(zip(names, loop.init)), set()
    while tuple(state.values()) not in seen:
        if any(g.evaluate(state) != 0 for g in invariants.polys):
            return False
        if loop.guard.evaluate(state) == 0:
            return True
        seen.add(tuple(state.values()))
        state = {n: u.evaluate(state) for n, u in zip(names, loop.update)}
    return True


# each update maps {-1, 0, 1}^2 into itself, so every orbit revisits a state
_BOUNDED_UPDATES = ["x1", "x2", "-x1", "-x2", "x1*x2", "x1^2", "-x2^2", "0", "1"]
_LINES = st.builds("{} - ({})".format,
                   st.sampled_from(["x1", "x2", "x1 + x2", "x1 - x2"]), st.integers(-1, 1))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
       st.tuples(st.sampled_from(_BOUNDED_UPDATES), st.sampled_from(_BOUNDED_UPDATES)),
       st.one_of(st.just("1"), _LINES),
       st.lists(_LINES, min_size=1, max_size=3))
@example((1, 0), ("x2", "-x1"), "1", ["x1 + x2 - 1", "x1 + x2 + 1"])  # a 4-cycle
@example((1, 1), ("x1*x2", "-x2^2"), "1", ["x1 - x2"])  # violated at state 1
def test_check_invariants_matches_the_orbit_walk(init, update, guard, factors):
    loop = ConcreteLoop(X2, init, P2(guard), tuple(P2(u) for u in update))
    inv = InvariantSpec((P2("*".join(f"({f})" for f in factors)),))
    assert check_invariants(loop, inv) == _orbit_verdict(loop, inv)


def _stepping_simulate(loop, invariants, steps, budget):
    """simulate as one loop over the steps, the guard tested after the
    invariants at each state."""
    names = loop.context.names
    state = dict(zip(names, loop.init))
    for m in range(steps + 1):
        if any(g.evaluate(state) != 0 for g in invariants.polys):
            return False
        if loop.guard.evaluate(state) == 0:
            return True
        if m == steps:
            break
        budget.tick()
        state = {n: u.evaluate(state) for n, u in zip(names, loop.update)}
    return True


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       st.tuples(st.sampled_from(["x1 + 1", "x1 - 1", "2*x1", "x1 + x2"]),
                 st.sampled_from(["x2", "x2 + 1", "-x2", "x1*x2"])),
       st.one_of(st.just("1"), st.builds("x1 - ({})".format, st.integers(-4, 8)),
                 st.builds("x2 - ({})".format, st.integers(-2, 3))),
       st.lists(st.integers(-4, 8), min_size=1, max_size=6, unique=True),
       st.integers(1, 6))
@example((3, 0), ("x1 + 1", "x2"), "x1 - 3", [3], 4)  # exit at state 0
@example((0, 0), ("x1 + 1", "x2"), "x1 - 4", [0, 1, 2, 3, 4], 4)  # at the horizon
@example((0, 0), ("x1 + 1", "x2"), "x1 - 4", [0, 1, 2, 3], 4)  # violated there
def test_simulate_matches_the_stepping_loop(init, update, guard, roots, steps):
    # the invariant vanishes exactly where x1 is one of the roots
    loop = ConcreteLoop(X2, init, P2(guard), tuple(P2(u) for u in update))
    inv = InvariantSpec((P2("*".join(f"(x1 - ({c}))" for c in roots)),))
    ours, theirs = Budget(), Budget()
    assert simulate(loop, inv, steps, ours) == _stepping_simulate(loop, inv, steps, theirs)
    assert ours.steps == theirs.steps


# ---------------------------------------------------------------------------
# The search composes remainders; these tests hold it to the loop that
# composes the raw batch and rebuilds nothing.

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
GUARDED_COUNTER = ("vars x1 x2\ninit 3 0\nguard x1\ninvariant x1 + x2 - 3\n"
                   "gen x1: x1, 1\ngen x2: x2, 1\n")


def _unreduced_loop(g, F, h, start=None, max_rounds=DEFAULT_MAX_ROUNDS):
    """(S, rounds) of the paper's loop as written: compose the raw batch and
    test it against the radical of S; None when the start is refuted."""
    if start is not None and any(p.evaluate(start) != 0 for p in g):
        return None
    w = 1
    S = list(g)
    batch = [h * p.compose(F) for p in g]
    for rounds in range(1, max_rounds + 1):
        if start is not None:
            w *= h.evaluate(start)
            start = {n: f.evaluate(start) for n, f in zip(g[0].context.names, F)}
            if any(w * p.evaluate(start) != 0 for p in g):
                return None
        if all_in_radical(batch, buchberger(S)):
            return S, rounds
        S.extend(batch)
        batch = [h * p.compose(F) for p in batch]
    raise BudgetExceeded("round cap")


def _bind_directly(p, bindings):
    """p with some variables bound to rationals, over the remaining
    sub-context: a direct loop over the terms, independent of _compose."""
    names = p.context.names
    vals = {}
    for n, v in bindings.items():
        vals[p.context.index(n)] = as_rational(v)
    keep = [i for i in range(len(names)) if i not in vals]
    new_ctx = p.context.restrict(names[i] for i in keep)
    acc = {}
    for expo, c in p.terms.items():
        for i, v in vals.items():
            if expo[i]:
                c = c * v ** expo[i]
        if not c:
            continue
        key = tuple(expo[i] for i in keep)
        s = acc.get(key, 0) + c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return Polynomial(new_ctx, acc)


def _template(name):
    if name == "guarded_counter":
        return parse_problem(GUARDED_COUNTER)
    return parse_problem((BENCHMARKS / f"{name}.loop").read_text())


class TestReducedLoopAgrees:
    @pytest.mark.parametrize("name", ["hyperbola", "intro_cubic", "perfect_square",
                                      "guarded_counter"])
    def test_generate_loops_and_invariant_set(self, name):
        doc = _template(name)
        maps, ctx = build_augmented_map(doc.template)
        gs = [g.extend_context(ctx) for g in doc.invariants.polys]
        h, one = doc.template.guard.extend_context(ctx), Polynomial.one(ctx)
        S, rounds = _unreduced_loop(gs, maps, h)
        system = generate_loops(doc.template, doc.invariants)
        bindings = dict(zip(ctx.x_names, doc.template.init))
        want = [p.primitive_part() for p in (_bind_directly(q, bindings) for q in S) if p]
        assert (system.q_count, system.rounds) == (len(S), rounds)
        assert list(system.polys) == want
        unguarded = S if h == one else _unreduced_loop(gs, maps, one)[0]
        assert invariant_set(gs, maps) == unguarded

    def test_check_invariants(self):
        cubic = _template("intro_cubic")
        points = [(-3, 3, 1, -1, 0)]
        for i in range(5):
            for step in (-1, 1):
                p = list(points[0])
                p[i] += step
                points.append(tuple(p))
        counter = _template("guarded_counter")
        cases = [(instantiate(cubic.template, p), cubic.invariants) for p in points]
        cases += [(instantiate(counter.template, p), counter.invariants)
                  for p in [(1, -1, 1, 1), (1, -1, 0, 1), (1, 0, 1, 1), (0, 0, 0, 0)]]
        for path in sorted(BENCHMARKS.glob("*.loop")):
            doc = parse_problem(path.read_text())
            if doc.is_concrete:
                cases.append((doc.loop, doc.invariants))
        assert len(cases) == 19
        verdicts = set()
        for loop, inv in cases:
            start = dict(zip(loop.context.names, loop.init))
            want = _unreduced_loop(inv.polys, loop.update, loop.guard, start)
            assert check_invariants(loop, inv) == (want is not None)
            if want is not None:
                *_, rounds = synthesis._rounds(inv.polys, loop.update, loop.guard,
                                               DEFAULT_MAX_ROUNDS, None)
                assert rounds == want[1]
                assert synthesis._generators(
                    inv.polys, loop.update, loop.guard,
                    Polynomial.variables(loop.context), rounds) == want[0]
            verdicts.add(want is not None)
        assert verdicts == {True, False}


_SMALL = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(_SMALL, st.lists(_SMALL, min_size=1, max_size=2),
       st.lists(_SMALL, min_size=2, max_size=2), _SMALL)
def test_batch_congruence_under_composition(q, S, F, h):
    # the lemma behind composing remainders: q - NF(q) lies in <S>, so
    # h*(q o F) and h*(NF(q) o F) agree modulo <S, h*(S o F)>
    q, h = Polynomial(X2, q), Polynomial(X2, h)
    S = [Polynomial(X2, p) for p in S]
    F = [Polynomial(X2, p) for p in F]
    r = buchberger(S).normal_form(q)
    nxt = buchberger(S + [h * p.compose(F) for p in S])
    assert nxt.normal_form(h * q.compose(F)) == nxt.normal_form(h * r.compose(F))


# ---------------------------------------------------------------------------
# The per-candidate fast paths, held to the loops they replace.

def _summed_instantiate(template, coeffs):
    """instantiate as a sum u + f * v per generator, each product taken
    through a constant polynomial."""
    names = template.coefficient_names
    vals = ([as_rational(coeffs[n]) for n in names] if isinstance(coeffs, dict)
            else [as_rational(v) for v in coeffs])
    ctx, k, updates = template.context, 0, []
    for gens in template.generators:
        u = Polynomial.zero(ctx)
        for f in gens:
            u = u + f * Polynomial.constant(ctx, vals[k])
            k += 1
        updates.append(u)
    return updates


_NUMBER = st.one_of(st.integers(-3, 3), st.just(0),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
_GENERATOR = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _NUMBER,
                             max_size=3).map(lambda t: Polynomial(X2, t))
_CANDIDATES = st.lists(st.lists(_GENERATOR, min_size=1, max_size=3),
                       min_size=2, max_size=2).map(
    lambda gens: LoopTemplate(X2, (0, 1), P2("x1 - 2"), gens)).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(_NUMBER, min_size=t.coeff_count,
                                             max_size=t.coeff_count)))
_HALVES = LoopTemplate(X2, (0, 1), P2("1"), ((P2("x1/2"), P2("x1/2 + x2")), (P2("x2/3"),)))


@settings(max_examples=100, deadline=None)
@given(_CANDIDATES, st.booleans())
@example((_HALVES, [1, 1, 0]), False)  # halves sum to an int; a zero coefficient
@example((_HALVES, [Fraction(2), -1, Fraction(3, 2)]), True)
def test_instantiate_matches_the_summed_loop(candidate, as_map):
    template, vals = candidate
    coeffs = dict(zip(template.coefficient_names, vals)) if as_map else vals
    loop = instantiate(template, coeffs)
    for ours, theirs in zip(loop.update, _summed_instantiate(template, coeffs), strict=True):
        assert ours.context == theirs.context
        assert {m: (c, type(c)) for m, c in ours.terms.items()} == \
            {m: (c, type(c)) for m, c in theirs.terms.items()}
    assert (loop.init, loop.guard) == (template.init, template.guard)


X1 = VarContext(("x",))
CYCLE = "1 + x - 3/2*x*(x - 1)"  # 0 -> 1 -> 2 -> 0
CYCLING_LOOPS = {  # name: (init, update, guard)
    "fixed point at state 1": (2, "x", "1"),
    "fixed point at state 2": (-1, "x^2", "1"),
    "3-cycle": (0, CYCLE, "1"),
    "guard vanishes in the cycle": (0, CYCLE, "x - 2"),
    "guard vanishes at the start": (0, CYCLE, "x"),
}


def _outcome(run, budget):
    try:
        return run(budget)
    except BudgetExceeded:
        return "raised"


@pytest.mark.parametrize("name", CYCLING_LOOPS)
@pytest.mark.parametrize("invariant", ["(x + 1)*x*(x - 1)*(x - 2)", "x*(x + 1)*(x - 2)"])
def test_simulate_on_a_cycle_matches_the_stepping_loop(name, invariant):
    init, update, guard = CYCLING_LOOPS[name]
    loop = ConcreteLoop(X1, (init,), parse_polynomial(guard, X1),
                        (parse_polynomial(update, X1),))
    inv = InvariantSpec((parse_polynomial(invariant, X1),))
    for steps in range(1, 10):  # 1 and 2 are shorter than the 3-cycle
        ours, theirs = Budget(), Budget()
        verdict = simulate(loop, inv, steps, ours)
        assert verdict == _stepping_simulate(loop, inv, steps, theirs)
        assert ours.steps == theirs.steps
        assert simulate(loop, inv, steps) == verdict
        for m in range(steps + 1):  # run out inside the skipped steps too
            assert _outcome(lambda b: simulate(loop, inv, steps, b), Budget(max_steps=m)) \
                == _outcome(lambda b: _stepping_simulate(loop, inv, steps, b),
                            Budget(max_steps=m))


def test_simulate_ends_at_a_revisited_state():
    loop = ConcreteLoop(X1, (0,), parse_polynomial("1", X1),
                        (parse_polynomial(CYCLE, X1),))
    inv = InvariantSpec((parse_polynomial("x*(x - 1)*(x - 2)", X1),))
    evaluated = []
    evaluate = Polynomial.evaluate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "evaluate", lambda p, s: evaluated.append(p) or evaluate(p, s))
        budget = Budget()
        assert simulate(loop, inv, 10**6, budget)
    assert budget.steps == 10**6
    assert len(evaluated) < 30  # 0, 1, 2, 0, 1, 2, 0, 1: the walk ends at state 7
