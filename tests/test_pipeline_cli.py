import csv
import io
import json
import pathlib
import stat

import pytest

from loopsynth import (BudgetExceeded, grid_template, parse_problem, render_csv,
                       render_table, run_benchmarks, run_check, run_pipeline)
from loopsynth.cli import main
from loopsynth.polyring import MAX_NESTING

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

BAD_CHECK = """\
vars x1 x2
init 1 0
invariant x2^2 - x2 - 2*x1
update x1: x1 + x2
update x2: x2 + 1
"""

CUBIC_BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "intro_cubic.loop"

DEEP = "(" * 3000 + "x1" + ")" * 3000


@pytest.fixture
def fast_file(tmp_path):
    p = tmp_path / "fast.loop"
    p.write_text(FAST_SYNTH)
    return str(p)


@pytest.fixture
def check_file(tmp_path):
    p = tmp_path / "sum.loop"
    p.write_text(CHECK)
    return str(p)


FAST_MODEL = ("((define-fun y1 () Int 1) (define-fun y2 () Int 0)"
              " (define-fun y3 () Int 1))")


def out_of_budget(*args, **kwargs):
    raise BudgetExceeded("time budget of 0.5s exhausted")


def sat_stub(tmp_path, model):
    path = tmp_path / "stub"
    path.write_text(f"#!/bin/sh\necho sat\necho '{model}'\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestRunPipeline:
    def test_degraded_without_solver(self):
        doc = parse_problem(FAST_SYNTH, name="fast")
        report = run_pipeline(doc, solver="/nonexistent/solver")
        assert report.status == "ok"
        assert report.s == 2 and report.rounds == 3
        assert report.finiteness == "infinite"
        assert report.solver_status == "solver-unavailable"
        assert report.verified is None
        assert report.system and all(isinstance(t, str) for t in report.system)

    def test_sat_model_is_instantiated_and_verified(self, tmp_path):
        doc = parse_problem(FAST_SYNTH, name="fast")
        stub = sat_stub(tmp_path, FAST_MODEL)
        report = run_pipeline(doc, solver=f"{stub} {{file}}")
        assert report.solver_status == "sat"
        assert report.assignment == {"y1": "1", "y2": "0", "y3": "1"}
        assert report.verified is True

    def test_budget_exhaustion_during_verification_is_no_verdict(self, tmp_path,
                                                                 monkeypatch):
        monkeypatch.setattr("loopsynth.pipeline.check_invariants", out_of_budget)
        doc = parse_problem(FAST_SYNTH, name="fast")
        report = run_pipeline(doc, solver=f"{sat_stub(tmp_path, FAST_MODEL)} {{file}}")
        assert report.solver_status == "sat"
        assert report.status == "TL"
        assert report.verified is None
        assert report.error == "time budget of 0.5s exhausted"

    def test_one_budget_bounds_the_whole_run(self, tmp_path, monkeypatch):
        import loopsynth.pipeline as pipeline
        seen = []
        for name in ("generate_loops", "classify_finiteness", "check_invariants",
                     "simulate"):
            def record(*args, _original=getattr(pipeline, name), **kwargs):
                seen.append(kwargs["budget"])
                return _original(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, record)
        doc = parse_problem(FAST_SYNTH, name="fast")
        report = run_pipeline(doc, solver=f"{sat_stub(tmp_path, FAST_MODEL)} {{file}}")
        assert report.verified is True
        assert len(seen) == 4 and all(b is seen[0] for b in seen)

    def test_budget_exhaustion_reports_tl(self):
        doc = parse_problem(CUBIC_BENCH.read_text(), name="intro")
        report = run_pipeline(doc, synth_budget=0.02)
        assert report.status == "TL"
        assert report.solver_status == "NI"
        assert report.s is None
        assert report.synth_seconds is not None

    def test_emit_smt_writes_script(self, tmp_path):
        doc = parse_problem(FAST_SYNTH, name="fast")
        out = tmp_path / "sys.smt2"
        report = run_pipeline(doc, emit_smt=str(out),
                              solver="/nonexistent/solver")
        assert report.smt_path == str(out)
        text = out.read_text()
        assert text.startswith("(set-option")
        assert "(check-sat)" in text

    def test_concrete_doc_is_delegated_to_check(self):
        doc = parse_problem(CHECK, name="sum")
        report = run_pipeline(doc)
        assert report.mode == "check"
        assert report.verified is True

    def test_emit_smt_on_a_check_doc_is_rejected(self, tmp_path):
        out = tmp_path / "sys.smt2"
        with pytest.raises(ValueError, match="emit_smt"):
            run_pipeline(parse_problem(CHECK, name="sum"), emit_smt=str(out))
        assert not out.exists()


class TestRunCheck:
    def test_failing_loop(self):
        doc = parse_problem(BAD_CHECK, name="bad")
        report = run_check(doc)
        assert report.status == "ok"
        assert report.verified is False

    def test_budget_exhaustion_is_no_verdict(self, monkeypatch):
        monkeypatch.setattr("loopsynth.pipeline.check_invariants", out_of_budget)
        report = run_check(parse_problem(CHECK, name="sum"))
        assert report.status == "TL"
        assert report.verified is None
        assert report.error == "time budget of 0.5s exhausted"
        assert report.synth_seconds is not None

    def test_rejects_synthesis_doc(self):
        doc = parse_problem(FAST_SYNTH, name="fast")
        with pytest.raises(ValueError):
            run_check(doc)

    def test_simulation_too_short_to_refute(self):
        # x counts 0, 1, 2, ...; the invariant holds for the first 11 states,
        # which the 10 simulated steps visit, and fails at x = 11
        roots = "*".join(f"(x - {k})" for k in range(11))
        doc = parse_problem(f"vars x\ninit 0\ninvariant {roots}\nupdate x: x + 1\n",
                            name="eleven")
        report = run_check(doc)
        assert report.status == "ok"
        assert report.verified is False
        assert report.error == "simulation=True exact=False"


class TestGridTemplate:
    def test_structure(self):
        doc = parse_problem(FAST_SYNTH, name="fast")
        tpl = grid_template(doc, 2, 5)
        assert tpl.coeff_count == 5
        assert [len(g) for g in tpl.generators] == [3, 2]
        ctx = tpl.context
        x1, x2 = tpl.generators[0][0], tpl.generators[1][0]
        assert str(x1) == "x1" and str(x2) == "x2"

    def test_constant_included_when_room(self):
        doc = parse_problem(FAST_SYNTH, name="fast")
        tpl = grid_template(doc, 1, 6)
        # D=1 pool per variable: own var, two other deg-1 monomials... here
        # n=2 so pool = [x_i, other, 1]; l=6 uses all of both pools
        assert [len(g) for g in tpl.generators] == [3, 3]
        assert any(g.total_degree() == 0 for g in tpl.generators[0])

    def test_l_too_small(self):
        doc = parse_problem(FAST_SYNTH, name="fast")
        with pytest.raises(ValueError):
            grid_template(doc, 1, 1)

    def test_l_too_large_for_degree(self):
        doc = parse_problem(FAST_SYNTH, name="fast")
        with pytest.raises(ValueError):
            grid_template(doc, 1, 7)

    def test_concrete_doc_rejected(self):
        doc = parse_problem(CHECK, name="sum")
        with pytest.raises(ValueError):
            grid_template(doc, 1, 2)

    @pytest.mark.parametrize("D, l, bad", [(1.5, 3, "D"), (True, 2, "D"),
                                           (1, 2.5, "l"), (1, True, "l")])
    def test_cell_must_be_integers(self, D, l, bad):
        doc = parse_problem(FAST_SYNTH, name="fast")
        with pytest.raises(ValueError, match=f"^{bad} must be an integer"):
            grid_template(doc, D, l)

    def test_pool_is_built_lazily(self):
        # a variable takes at most l entries, so a huge D costs nothing
        doc = parse_problem(CUBIC_BENCH.read_text(), name="intro")
        assert grid_template(doc, 10**6, 5).generators == grid_template(doc, 2, 5).generators


class TestRunBenchmarks:
    def test_per_file_isolation(self, tmp_path, fast_file, check_file):
        broken = tmp_path / "broken.loop"
        broken.write_text("vars x1\ninit 1\ninvariant x1 +\n")
        reports = run_benchmarks([str(tmp_path)])
        by_name = {r.name: r for r in reports}
        assert by_name["broken"].status == "invalid"
        assert "3:" in by_name["broken"].error
        assert by_name["fast"].status == "ok"
        assert by_name["sum"].verified is True

    def test_deep_nesting_is_an_invalid_row(self, tmp_path, fast_file, check_file):
        (tmp_path / "deep.loop").write_text(CHECK.replace("invariant ", f"invariant {DEEP} + "))
        by_name = {r.name: r for r in run_benchmarks([str(tmp_path)])}
        assert by_name["deep"].status == "invalid" and "nested" in by_name["deep"].error
        assert by_name["fast"].status == "ok"
        assert by_name["sum"].verified is True

    def test_grid_cells_named(self, fast_file):
        reports = run_benchmarks([fast_file], grid=[(1, 3), (1, 4)])
        assert [r.name for r in reports] == ["fast[D=1,l=3]", "fast[D=1,l=4]"]

    def test_non_integer_grid_cell_is_an_invalid_row(self, fast_file):
        reports = run_benchmarks([fast_file], grid=[(1.5, 3), (1, 3)])
        assert [(r.name, r.status) for r in reports] == [
            ("fast[D=1.5,l=3]", "invalid"), ("fast[D=1,l=3]", "ok")]
        assert reports[0].error == "D must be an integer >= 1, not 1.5"

    def test_grid_skipped_for_concrete(self, check_file):
        reports = run_benchmarks([check_file], grid=[(1, 3)])
        assert [r.name for r in reports] == ["sum"]

    def test_csv_round_trips(self, fast_file, check_file):
        reports = run_benchmarks([fast_file, check_file])
        rows = list(csv.DictReader(io.StringIO(render_csv(reports))))
        assert len(rows) == 2
        assert rows[0]["name"] == "fast" and rows[0]["s"] == "2"
        assert rows[1]["mode"] == "check" and rows[1]["verified"] == "True"

    def test_unreadable_file_has_no_mode(self, tmp_path, check_file):
        broken = tmp_path / "broken.loop"
        broken.write_text(CHECK.replace("x1 + x2", "x1 +"))
        reports = run_benchmarks([str(broken), check_file])
        assert [(r.name, r.mode, r.status) for r in reports] == [
            ("broken", None, "invalid"), ("sum", "check", "ok")]
        rows = list(csv.DictReader(io.StringIO(render_csv(reports))))
        assert [row["mode"] for row in rows] == ["", "check"]
        assert render_table(reports).splitlines()[2].split()[:3] == ["broken", "-", "invalid"]

    def test_table_lists_errors(self, tmp_path):
        broken = tmp_path / "broken.loop"
        broken.write_text("vars\n")
        text = render_table(run_benchmarks([str(broken)]))
        assert "broken" in text.splitlines()[2]
        assert "at least one name" in text


class TestCli:
    def test_synth_ok(self, fast_file, capsys):
        assert main(["synth", fast_file]) == 0
        out = capsys.readouterr().out
        assert "s=2 polynomials" in out
        assert "solver: solver-unavailable" in out or "solver: sat" in out

    def test_synth_json(self, fast_file, capsys):
        assert main(["synth", fast_file, "--json",
                     "--solver", "/nonexistent/solver"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "fast" and data["s"] == 2
        assert data["solver_status"] == "solver-unavailable"

    def test_synth_emit_smt(self, fast_file, tmp_path, capsys):
        target = tmp_path / "out.smt2"
        assert main(["synth", fast_file, "--emit-smt", str(target)]) == 0
        assert target.exists()

    def test_check_ok_and_failing(self, check_file, tmp_path, capsys):
        assert main(["check", check_file]) == 0
        assert "holds" in capsys.readouterr().out
        bad = tmp_path / "bad.loop"
        bad.write_text(BAD_CHECK)
        assert main(["check", str(bad), "--steps", "3"]) == 0
        assert "fails" in capsys.readouterr().out

    def test_check_on_synth_file_is_usage_error(self, fast_file, capsys):
        assert main(["check", fast_file]) == 1
        assert "gen lines" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--emit-smt", "out.smt2"],
                                       ["--solver", "/nonexistent/solver"]])
    def test_synth_on_check_file_is_usage_error(self, check_file, flags, capsys):
        assert main(["synth", check_file, *flags]) == 1
        err = capsys.readouterr().err
        assert "synth needs gen lines, this file has update lines (use check)" in err

    def test_non_ascii_digit_is_a_parse_error(self, check_file, tmp_path, capsys):
        p = tmp_path / "sup.loop"
        p.write_text("vars x\ninit 0\ninvariant x\nupdate x: x^\u00b2\n")
        assert main(["check", str(p)]) == 1
        assert f"{p}:4:13:" in capsys.readouterr().err
        assert main(["bench", str(p), check_file]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[2].split()[:3] == ["sup", "-", "invalid"]
        assert rows[3].split()[:3] == ["sum", "check", "ok"]

    def test_non_ascii_steps_is_a_usage_error(self, check_file, capsys):
        assert main(["check", check_file, "--steps", "\u00b2"]) == 1
        err = capsys.readouterr().err
        assert "must be an integer >= 1, not '\u00b2'" in err
        assert "_positive_int" not in err

    @pytest.mark.parametrize("case, reason", [
        ("missing", "No such file or directory"),
        ("unset", "no solver configured and none on PATH"),
        ("not-executable", "Permission denied"),
    ])
    def test_solver_diagnostics_are_shown(self, fast_file, tmp_path, monkeypatch,
                                          case, reason, capsys):
        monkeypatch.delenv("LOOPSYNTH_SOLVER", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))  # no z3 or cvc5 to find
        flags = []
        if case != "unset":
            solver = tmp_path / "solver"
            if case == "not-executable":
                solver.write_text("#!/bin/sh\necho unsat\n")
                solver.chmod(0o644)
            flags = ["--solver", str(solver)]
        assert main(["synth", fast_file, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the attempt's seconds depend on the machine's load
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("solver: solver-unavailable ("))
        assert reason in lines[at + 1] and lines[at + 1].startswith("  ")
        if case != "unset":
            assert str(tmp_path / "solver") in lines[at + 1]
        assert main(["synth", fast_file, *flags, "--json"]) == 0
        assert reason in json.loads(capsys.readouterr().out)["solver_diagnostics"]

    @pytest.mark.parametrize("target", ["plain", "directory"])
    def test_solver_that_cannot_start_is_unavailable(self, fast_file, tmp_path,
                                                     target, capsys):
        solver = tmp_path / target
        if target == "directory":
            solver.mkdir()
        else:
            solver.write_text("#!/bin/sh\necho unsat\n")
            solver.chmod(0o644)
        assert main(["synth", fast_file, "--solver", str(solver)]) == 0
        assert "solver: solver-unavailable" in capsys.readouterr().out

    def test_unwritable_emit_smt_path_is_usage_error(self, fast_file, tmp_path,
                                                     capsys):
        target = tmp_path / "missing" / "out.smt2"
        assert main(["synth", fast_file, "--emit-smt", str(target)]) == 1
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_unwritable_csv_path_is_usage_error(self, check_file, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.csv"
        assert main(["bench", check_file, "--csv", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[2].split()[:3] == ["sum", "check", "ok"]
        assert f"cannot write {target}" in captured.err

    def test_missing_file(self, capsys):
        assert main(["synth", "/no/such/file.loop"]) == 1

    def test_parse_error_position_reported(self, tmp_path, capsys):
        p = tmp_path / "broken.loop"
        p.write_text("vars x1\ninit 1\ninvariant x1 +\n")
        assert main(["synth", str(p)]) == 1
        assert "3:" in capsys.readouterr().err

    def test_unknown_flag(self, fast_file, capsys):
        assert main(["synth", fast_file, "--frobnicate"]) == 1

    def test_bad_grid_cell(self, fast_file, capsys):
        for cell in ("nope", "0:3", "1:0"):
            assert main(["bench", fast_file, "--grid", cell]) == 1
            assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["1_0:3", "1:٣", "1:3:4"])
    def test_grid_numerals_are_ascii_digits(self, fast_file, capsys, cell):
        assert main(["bench", fast_file, "--grid", cell]) == 1
        assert f"bad grid cell {cell!r}" in capsys.readouterr().err

    def test_deep_nesting_is_a_usage_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.loop"
        deep.write_text(CHECK.replace("invariant ", f"invariant {DEEP} + "))
        assert main(["check", str(deep)]) == 1
        assert f"deep.loop:3:{11 + MAX_NESTING}: parentheses nested" in capsys.readouterr().err

    def test_bench_runs_the_other_rows_past_deep_nesting(self, tmp_path, fast_file,
                                                         capsys):
        (tmp_path / "deep.loop").write_text(CHECK.replace("invariant ", f"invariant {DEEP} + "))
        assert main(["bench", str(tmp_path)]) == 1
        rows = [line.split()[:3] for line in capsys.readouterr().out.splitlines()[2:4]]
        assert rows == [["deep", "-", "invalid"], ["fast", "synth", "ok"]]

    def test_synth_budget_out_during_verification(self, fast_file, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setattr("loopsynth.pipeline.check_invariants", out_of_budget)
        stub = sat_stub(tmp_path, FAST_MODEL)
        assert main(["synth", fast_file, "--solver", f"{stub} {{file}}"]) == 2
        out = capsys.readouterr().out
        assert "solution: y1 = 1, y2 = 0, y3 = 1" in out
        assert "verified: unknown (time budget of 0.5s exhausted)" in out

    def test_budget_exit_code(self, tmp_path, capsys):
        p = tmp_path / "intro.loop"
        p.write_text(CUBIC_BENCH.read_text())
        assert main(["synth", str(p), "--synth-budget", "0.02"]) == 2
        assert "TL" in capsys.readouterr().out

    def test_bench_table_and_csv(self, fast_file, check_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["bench", fast_file, check_file, "--csv", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("problem")
        with out.open() as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_bench_error_exit_code(self, tmp_path, capsys):
        broken = tmp_path / "broken.loop"
        broken.write_text("vars\n")
        assert main(["bench", str(broken)]) == 1

    @pytest.mark.parametrize("cell, message", [("1:1", "l must be >= 2"),
                                               ("1:50", "l=50 too large")])
    def test_bench_grid_cell_misfit_is_an_invalid_row(self, fast_file, cell,
                                                      message, capsys):
        assert main(["bench", fast_file, "--grid", cell]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[2].split()[2] == "invalid"
        assert message in out

    def test_bench_crash_in_the_pipeline_stays_an_error(self, fast_file,
                                                        monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr("loopsynth.pipeline.run_pipeline", crash)
        assert main(["bench", fast_file]) == 3
        out = capsys.readouterr().out
        assert out.splitlines()[2].split()[2] == "error"
        assert "fast: boom" in out

    def test_solve_budget_beyond_the_solver_wait_cap(self, fast_file, tmp_path,
                                                     capsys):
        stub = sat_stub(tmp_path, FAST_MODEL)
        assert main(["synth", fast_file, "--solver", f"{stub} {{file}}",
                     "--solve-budget", "3e6"]) == 0
        assert "solver: sat" in capsys.readouterr().out
