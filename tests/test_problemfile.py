from fractions import Fraction

import pytest

from loopsynth import ParseError, parse_polynomial, parse_problem

SYNTH = """\
# two-variable template
vars x1 x2
init 2 1/2
guard x1
guard x2
invariant x1*x2 - 1
gen x1: x1^3, x2^2
gen x2: x1, x2^2
option domain rationals
option nonzero y3
option solver z3 -smt2 {file}
option solve_budget 12.5
option synth_budget 90
option rounds 8
"""

CHECK = """\
vars x1 x2 x3
init 1 1 -1
invariant x2^2 - x1
invariant x3^3 + 2*x2^2 - x1
update x1: -3*x1^3 + 3*x2^2
update x2: x1 - x2^2
update x3: 0
"""


class TestParse:
    def test_synthesis_form(self):
        doc = parse_problem(SYNTH, name="s")
        assert not doc.is_concrete
        tpl = doc.template
        assert tpl.context.names == ("x1", "x2")
        assert tpl.init == (2, Fraction(1, 2))
        assert tpl.guard == parse_polynomial("x1*x2", tpl.context)
        assert [len(g) for g in tpl.generators] == [2, 2]
        s = doc.settings
        assert (s.domain, s.nonzero) == ("rationals", "y3")
        assert s.solver == "z3 -smt2 {file}"
        assert (s.solve_budget, s.synth_budget, s.max_rounds) == (12.5, 90.0, 8)

    def test_check_form(self):
        doc = parse_problem(CHECK, name="c")
        assert doc.is_concrete
        assert doc.loop.update[2].is_zero
        assert len(doc.invariants.polys) == 2

    def test_commas_optional_in_vars_and_init(self):
        doc = parse_problem("vars a, b\ninit 1, 2\ninvariant a - b\n"
                            "gen a: a\ngen b: b\n")
        assert doc.template.context.names == ("a", "b")
        assert doc.template.init == (1, 2)

    def test_repeated_gen_lines_accumulate(self):
        doc = parse_problem("vars x\ninit 1\ninvariant x\n"
                            "gen x: x\ngen x: 1\n")
        assert len(doc.template.generators[0]) == 2

    def test_decimal_init_is_exact(self):
        doc = parse_problem("vars x\ninit 1.5\ninvariant x\ngen x: x\n")
        assert doc.template.init == (Fraction(3, 2),)

    def test_defaults(self):
        doc = parse_problem("vars a\ninit 0\ninvariant a\ngen a: a\n")
        s = doc.settings
        assert (s.domain, s.nonzero, s.solver) == ("integers", "vector", None)
        assert s.solve_budget == 60.0 and s.synth_budget == 300.0
        assert doc.template.guard == parse_polynomial("1", doc.template.context)


class TestErrors:
    def err(self, text):
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        return exc.value

    def test_vars_must_come_first(self):
        e = self.err("init 1\nvars x\n")
        assert (e.line, e.col) == (1, 1)

    def test_polynomial_error_keeps_file_coordinates(self):
        e = self.err("vars x\ninit 1\ninvariant x + * 2\ngen x: x\n")
        assert e.line == 3
        assert e.col == 15

    def test_gen_update_exclusive(self):
        e = self.err("vars x\ninit 1\ninvariant x\ngen x: x\nupdate x: x\n")
        assert "mixed" in e.message

    def test_unknown_gen_variable(self):
        e = self.err("vars x\ninit 1\ninvariant x\ngen q: x\n")
        assert "q" in e.message and e.line == 4

    def test_duplicate_update_rejected(self):
        e = self.err("vars x\ninit 1\ninvariant x\nupdate x: x\nupdate x: 1\n")
        assert "duplicate" in e.message.lower()

    def test_incomplete_coverage(self):
        e = self.err("vars x, y\ninit 1 1\ninvariant x\ngen x: x\n")
        assert "y" in e.message

    def test_init_arity(self):
        e = self.err("vars x, y\ninit 1\ninvariant x\ngen x: x\ngen y: y\n")
        assert (e.line, e.col) == (2, 6)

    def test_garbage_init_rejected(self):
        e = self.err("vars x\ninit one\ninvariant x\ngen x: x\n")
        assert e.line == 2

    def test_unknown_option(self):
        e = self.err("vars x\ninit 1\ninvariant x\ngen x: x\noption color red\n")
        assert "color" in e.message

    def test_bad_option_values(self):
        assert "domain" in self.err(
            "vars x\ninit 1\ninvariant x\ngen x: x\noption domain reals\n").message
        assert "rounds" in self.err(
            "vars x\ninit 1\ninvariant x\ngen x: x\noption rounds zero\n").message
        assert "budget" in self.err(
            "vars x\ninit 1\ninvariant x\ngen x: x\noption solve_budget -1\n").message

    def test_missing_sections(self):
        assert "invariant" in self.err("vars x\ninit 1\ngen x: x\n").message
        assert "init" in self.err("vars x\ninvariant x\ngen x: x\n").message
        assert "gen" in self.err("vars x\ninit 1\ninvariant x\n").message

    def test_nonzero_option_must_name_declared_coefficient(self):
        e = self.err("vars x\ninit 1\ninvariant x\ngen x: x, 1\n"
                     "option nonzero y9\n")
        assert "y9" in e.message
