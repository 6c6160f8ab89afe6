"""Synthesis of polynomial loops from algebraic invariants.

The package computes, for a parameterized polynomial loop and a set of
target polynomial invariants, the exact polynomial system over the unknown
coefficients whose solutions are precisely the loops satisfying the
invariants; it then searches that system for integer or rational points and
re-verifies every candidate exactly.
"""

from .budget import Budget, BudgetExceeded
from .polyring import (ContextMismatchError, MonomialOrder, ParseError,
                       Polynomial, Rational, VarContext, parse_polynomial,
                       DEGREVLEX, LEX)
from .groebner import (GroebnerBasis, all_in_radical, buchberger, divide,
                       in_ideal, in_radical, is_zero_dimensional, normal_form,
                       s_polynomial)
from .synthesis import (ConcreteLoop, InvariantSpec, LoopTemplate,
                        SynthesisSystem, build_augmented_map, check_invariants,
                        generate_loops, instantiate, invariant_set, simulate)
from .solve import (EnumerationCapError, SolveOutcome, SolveRequest,
                    SolverOutputError, brute_force_box, classify_finiteness,
                    discover_solver, emit_smtlib, parse_sexprs, rational_roots,
                    run_external_solver, solve, verify_assignment)
from .problemfile import ProblemDoc, Settings, format_problem, parse_problem
from .pipeline import (RunReport, grid_template, render_csv, render_table,
                       run_benchmarks, run_check, run_pipeline)

__version__ = "0.1.0"

__all__ = [
    "Budget", "BudgetExceeded",
    "ContextMismatchError", "MonomialOrder", "ParseError", "Polynomial",
    "Rational", "VarContext", "parse_polynomial",
    "DEGREVLEX", "LEX",
    "GroebnerBasis", "all_in_radical", "buchberger", "divide", "in_ideal",
    "in_radical", "is_zero_dimensional", "normal_form", "s_polynomial",
    "ConcreteLoop", "InvariantSpec", "LoopTemplate", "SynthesisSystem",
    "build_augmented_map", "check_invariants", "generate_loops",
    "instantiate", "invariant_set", "simulate",
    "EnumerationCapError", "SolveOutcome", "SolveRequest",
    "SolverOutputError", "brute_force_box", "classify_finiteness",
    "discover_solver", "emit_smtlib", "parse_sexprs", "rational_roots",
    "run_external_solver", "solve", "verify_assignment",
    "ProblemDoc", "Settings", "format_problem", "parse_problem",
    "RunReport", "grid_template", "render_csv", "render_table",
    "run_benchmarks", "run_check", "run_pipeline",
    "__version__",
]
