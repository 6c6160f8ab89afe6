"""Run options: Settings is the one check of option lines, CLI flags and
keyword overrides, and every verb's flags are Settings fields it reads."""

import argparse
import dataclasses
import importlib

import pytest

from loopsynth import (ParseError, Settings, SolveRequest, SynthesisSystem,
                       VarContext, parse_polynomial, parse_problem, run_benchmarks,
                       run_pipeline)
from loopsynth.cli import build_parser, main
from loopsynth.solve import discover_solver

FAST_SYNTH = """\
vars x1 x2
init 1 1
invariant x1*x2 - 1
gen x1: x1, x2
gen x2: x2
"""

CHECK = """\
vars x1 x2
init 0 0
invariant x2^2 - x2 - 2*x1
update x1: x1 + x2
update x2: x2 + 1
"""

FIELDS = {f.name for f in dataclasses.fields(Settings)}

# (flag, bad value, the same value as an option line, the option it names)
BAD_VALUES = [
    ("--nonzero", "y9", "option nonzero y9", "nonzero"),
    ("--solve-budget", "0", "option solve_budget 0", "solve_budget"),
    ("--synth-budget", "-1", "option synth_budget -1", "synth_budget"),
    ("--synth-budget", "0", "option synth_budget 0", "synth_budget"),
    ("--rounds", "0", "option rounds 0", "rounds"),
    ("--domain", "reals", "option domain reals", "domain"),
    ("--solver", 'z3 "oops', 'option solver z3 "oops', "solver"),
]


def never_synthesize(*args, **kwargs):
    raise AssertionError("synthesis started")


@pytest.fixture
def no_synthesis(monkeypatch):
    monkeypatch.setattr("loopsynth.pipeline.generate_loops", never_synthesize)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSettings:
    @pytest.mark.parametrize("field, value, named", [
        ("domain", "reals", "domain"),
        ("nonzero", "y 1", "nonzero"),
        ("nonzero", 3, "nonzero"),
        ("solve_budget", 0, "solve_budget"),
        ("solve_budget", float("nan"), "solve_budget"),
        ("solve_budget", float("inf"), "solve_budget"),
        ("synth_budget", -1.0, "synth_budget"),
        ("synth_budget", "60", "synth_budget"),
        ("max_rounds", 0, "rounds"),
        ("max_rounds", 2.0, "rounds"),
        ("max_rounds", True, "rounds"),
        ("solver", 'z3 "oops', "solver"),
        ("solver", "   ", "solver"),
    ])
    def test_bad_value_names_its_option(self, field, value, named):
        with pytest.raises(ValueError, match=named):
            Settings(**{field: value})

    def test_defaults_and_good_values_pass(self):
        Settings()
        Settings(domain="rationals", nonzero="y5", solver="z3 {file}",
                 solve_budget=1, synth_budget=0.5, max_rounds=1)

    def test_keyword_override_is_checked_before_synthesis(self, no_synthesis):
        doc = parse_problem(FAST_SYNTH, name="fast")
        with pytest.raises(ValueError, match="synth_budget"):
            run_pipeline(doc, synth_budget=-1)
        with pytest.raises(ValueError, match="nonzero"):
            run_pipeline(doc, nonzero="y9")

    def test_option_line_error_points_at_the_line(self):
        with pytest.raises(ParseError) as exc:
            parse_problem(FAST_SYNTH + "option rounds zero\n")
        assert exc.value.line == 6 and "rounds" in exc.value.message

    def test_check_form_rejects_a_coefficient_nonzero(self):
        with pytest.raises(ParseError) as exc:
            parse_problem(CHECK + "option nonzero y1\n")
        assert exc.value.line == 6 and "nonzero" in exc.value.message


@pytest.mark.parametrize("option, value", [
    ("domain", "reals"), ("domain", 3), ("seconds", 0), ("seconds", -1.0),
    ("seconds", float("nan")), ("seconds", float("inf")), ("seconds", True),
    ("seconds", "5")])
def test_settings_and_request_reject_the_same_values(option, value):
    setting, request = {"domain": ("domain", "domain"),
                        "seconds": ("solve_budget", "budget_seconds")}[option]
    ctx = VarContext(("y1",))
    system = SynthesisSystem(ctx, (parse_polynomial("y1 - 1", ctx),), 1, 1)
    with pytest.raises(ValueError, match=setting):
        Settings(**{setting: value})
    with pytest.raises(ValueError, match=request):
        SolveRequest(system, **{request: value})


class TestCliValues:
    @pytest.mark.parametrize("flag, value, line, named", BAD_VALUES)
    def test_bad_flag_is_usage_error_before_synthesis(self, tmp_path, capsys,
                                                      no_synthesis, flag, value,
                                                      line, named):
        path = write(tmp_path, "fast.loop", FAST_SYNTH)
        assert main(["synth", path, flag, value]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, line, named", BAD_VALUES)
    def test_bad_option_line_is_the_same_usage_error(self, tmp_path, capsys,
                                                     no_synthesis, flag, value,
                                                     line, named):
        path = write(tmp_path, "fast.loop", FAST_SYNTH + line + "\n")
        assert main(["synth", path]) == 1
        err = capsys.readouterr().err
        assert named in err and "fast.loop:6:" in err

    @pytest.mark.parametrize("flag, value, named", [
        ("--synth-budget", "0", "synth_budget"), ("--rounds", "0", "rounds"),
        ("--steps", "0", "--steps"), ("--steps", "-2", "--steps")])
    def test_bad_check_flag_is_usage_error(self, tmp_path, capsys, flag, value, named):
        path = write(tmp_path, "sum.loop", CHECK)
        assert main(["check", path, flag, value]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--domain", "--nonzero", "--solver", "--solve-budget"])
    def test_check_has_no_solver_flags(self, tmp_path, capsys, flag):
        path = write(tmp_path, "sum.loop", CHECK)
        assert main(["check", path, flag, "1"]) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, line, named",
                             [b for b in BAD_VALUES if b[0] != "--nonzero"])
    def test_bench_checks_flags_before_the_first_file(self, tmp_path, capsys,
                                                      monkeypatch, flag, value,
                                                      line, named):
        monkeypatch.setattr("loopsynth.pipeline.parse_problem", never_synthesize)
        path = write(tmp_path, "fast.loop", FAST_SYNTH)
        assert main(["bench", path, flag, value]) == 1
        assert named in capsys.readouterr().err

    def test_bench_nonzero_misfit_is_a_row_error_before_synthesis(self, tmp_path,
                                                                  capsys, no_synthesis):
        write(tmp_path, "fast.loop", FAST_SYNTH)
        write(tmp_path, "sum.loop", CHECK)
        assert main(["bench", str(tmp_path), "--nonzero", "y9"]) == 1
        out = capsys.readouterr().out
        assert "fast: nonzero option 'y9' is not a template coefficient" in out
        assert [line.split()[2] for line in out.splitlines()[2:4]] == ["invalid", "ok"]


# flags of a verb that are not run options
NOT_SETTINGS = {"help", "file", "paths", "json", "emit_smt", "steps", "grid", "csv"}
# a valid value other than the default for each Settings field: (flag text, value)
GOOD_VALUES = {"domain": ("rationals", "rationals"), "nonzero": ("y1", "y1"),
               "solver": ("/nonexistent/solver", "/nonexistent/solver"),
               "solve_budget": ("7", 7.0), "synth_budget": ("70", 70.0),
               "max_rounds": ("9", 9)}
# where each verb hands the resolved problem to the run
RUN_FUNCTIONS = {"synth": ("loopsynth.cli", "run_pipeline", FAST_SYNTH),
                 "check": ("loopsynth.cli", "run_check", CHECK),
                 "bench": ("loopsynth.pipeline", "run_pipeline", FAST_SYNTH)}


def verb_parsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_verb_is_guarded():
    assert set(verb_parsers()) == set(RUN_FUNCTIONS)


@pytest.mark.parametrize("verb", sorted(RUN_FUNCTIONS))
def test_every_override_flag_is_a_settings_field_the_run_reads(verb, tmp_path,
                                                               monkeypatch, capsys):
    actions = [a for a in verb_parsers()[verb]._actions if a.dest not in NOT_SETTINGS]
    assert actions
    assert {a.dest for a in actions} <= FIELDS

    reads: set = set()

    class Recording(Settings):
        def __getattribute__(self, name):
            if name in FIELDS:
                reads.add(name)
            return object.__getattribute__(self, name)

    module, attr, text = RUN_FUNCTIONS[verb]
    original = getattr(importlib.import_module(module), attr)
    given = []

    def run(doc, **kwargs):
        given.append(doc.settings)
        recording = Recording(**{f: getattr(doc.settings, f) for f in FIELDS})
        reads.clear()
        return original(dataclasses.replace(doc, settings=recording), **kwargs)

    monkeypatch.setattr(f"{module}.{attr}", run)
    argv = [verb, write(tmp_path, "p.loop", text)]
    for a in actions:
        argv += [a.option_strings[0], GOOD_VALUES[a.dest][0]]
    assert main(argv) == 0, capsys.readouterr().err
    assert len(given) == 1
    for a in actions:
        assert getattr(given[0], a.dest) == GOOD_VALUES[a.dest][1], a.dest
        assert a.dest in reads, f"{verb} ignores {a.option_strings[0]}"


class TestSolverDiscovery:
    def test_configured_command_wins_over_the_environment(self, monkeypatch):
        monkeypatch.setenv("LOOPSYNTH_SOLVER", "from-env -q")
        assert discover_solver("from-flag {file} -in") == ["from-flag", "{file}", "-in"]
        assert discover_solver(None) == ["from-env", "-q", "{file}"]

    def test_file_inside_an_argument_is_not_appended(self):
        assert discover_solver("stub --in={file}") == ["stub", "--in={file}"]

    def test_pipeline_discovers_once(self, monkeypatch):
        calls = []

        def none_found(configured=None):
            calls.append(configured)
            return None

        monkeypatch.setattr("loopsynth.pipeline.discover_solver", none_found)
        # the package attribute loopsynth.solve is the function
        monkeypatch.setattr(importlib.import_module("loopsynth.solve"),
                            "discover_solver", never_synthesize)
        report = run_pipeline(parse_problem(FAST_SYNTH, name="fast"), solver="mine")
        assert report.solver_status == "solver-unavailable"
        assert calls == ["mine"]

    @pytest.mark.parametrize("verb", ["synth", "bench"])
    def test_bad_environment_command_is_usage_error_before_synthesis(
            self, verb, tmp_path, capsys, monkeypatch, no_synthesis):
        monkeypatch.setenv("LOOPSYNTH_SOLVER", 'z3 "oops')
        assert main([verb, write(tmp_path, "fast.loop", FAST_SYNTH)]) == 1
        assert "LOOPSYNTH_SOLVER" in capsys.readouterr().err

    def test_solver_flag_overrides_a_bad_environment_command(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setenv("LOOPSYNTH_SOLVER", 'z3 "oops')
        path = write(tmp_path, "fast.loop", FAST_SYNTH)
        assert main(["synth", path, "--solver", "/nonexistent/solver"]) == 0
        assert "solver-unavailable" in capsys.readouterr().out

    def test_solver_line_overrides_a_bad_environment_command(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setenv("LOOPSYNTH_SOLVER", 'z3 "oops')
        path = write(tmp_path, "fast.loop", FAST_SYNTH + "option solver /nonexistent/solver\n")
        assert main(["synth", path]) == 0
        assert "solver-unavailable" in capsys.readouterr().out

    def test_pipeline_checks_the_environment_command_first(self, monkeypatch,
                                                            no_synthesis):
        monkeypatch.setenv("LOOPSYNTH_SOLVER", 'z3 "oops')
        with pytest.raises(ValueError, match="LOOPSYNTH_SOLVER"):
            run_pipeline(parse_problem(FAST_SYNTH, name="fast"))

    def test_benchmarks_check_the_environment_command_before_any_file(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOOPSYNTH_SOLVER", 'z3 "oops')
        with pytest.raises(ValueError, match="LOOPSYNTH_SOLVER"):
            run_benchmarks([str(tmp_path / "missing.loop")])
        path = write(tmp_path, "fast.loop", FAST_SYNTH)
        [report] = run_benchmarks([path], solver="/nonexistent/solver")
        assert report.solver_status == "solver-unavailable"
