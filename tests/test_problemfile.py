import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import ParseError, VarContext, parse_polynomial, parse_problem
from loopsynth.polyring import MAX_NESTING, _Parser

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

    @pytest.mark.parametrize("value", ["١", "1_0"])
    def test_init_numerals_are_ascii_without_underscores(self, value):
        e = self.err(f"vars x\ninit {value}\ninvariant x\ngen x: x\n")
        assert e.line == 2 and "not a rational literal" in e.message

    def test_deep_nesting_is_a_parse_error(self):
        e = self.err("vars x\ninit 1\ninvariant " + "(" * 3000 + "x" + ")" * 3000
                     + "\ngen x: x\n")
        assert (e.line, e.col) == (3, 11 + MAX_NESTING) and "nested" in e.message

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


BENCHMARKS = sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("*.loop"))
# printable ASCII plus characters str.isdigit, str.isalpha or str.isspace
# take that int() or the grammar does not
MUTATION_CHARS = [chr(c) for c in range(32, 127)] + list("\n\t²³٣½éλ\u00a0")


def test_mutated_problem_files_raise_only_parse_errors():
    """Every one-character edit of a committed problem file either parses
    or raises ParseError; any other exception would reach the user as a
    crash without a file position."""
    rng = random.Random(12)
    assert len(BENCHMARKS) == 7
    for path in BENCHMARKS:
        text = path.read_text()
        for _ in range(300):
            i = rng.randrange(len(text) + 1)
            kind = rng.randrange(3)
            new = "" if kind == 0 else rng.choice(MUTATION_CHARS)
            mutant = text[:i] + new + text[i + (kind != 1):]
            try:
                parse_problem(mutant)
            except ParseError as exc:  # it points inside the mutant
                lines = mutant.splitlines()
                assert 1 <= exc.line <= len(lines), (mutant, exc)
                assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1, (mutant, exc)


# -- polynomial positions against the rule that shifted them -----------------


# atoms, some of them wrong, each followed by an operator or not
_PIECE = st.lists(st.tuples(
    st.sampled_from(["x", "-y", "2", "10", "(x", "y)", "x^2", "z", "@", "²", ":"]),
    st.sampled_from(["+", "-", "*", "/", "^", " ", ""])), max_size=3).map(
        lambda pairs: "".join(a + op for a, op in pairs))
_SPACES = st.sampled_from(["", " ", "  ", "\t", "\u00a0 "])
# the lines after the drawn one, which make the file whole if it parses
_REST = {"guard": "invariant x\nupdate x: x\nupdate y: y\n",
         "invariant": "update x: x\nupdate y: y\n",
         "update": "invariant x\nupdate y: y\n",
         "gen": "invariant x\ngen y: y\n"}


@st.composite
def _polynomial_lines(draw):
    def padded():
        return draw(_SPACES) + draw(_PIECE) + draw(_SPACES)
    kind = draw(st.sampled_from(sorted(_REST)))
    if kind == "gen":
        return kind, "gen x:" + ",".join(padded() for _ in range(draw(st.integers(1, 3))))
    return kind, (f"{kind} x:" if kind == "update" else f"{kind} ") + padded()


def _shifted_error(parser, text, col):
    # the old rule: parse the stripped text from 1:1, then move the error's
    # column by where that text starts on its line
    pad = len(text) - len(text.lstrip())
    try:
        parser.parse(text.strip())
    except ParseError as exc:
        return exc.message, 3, col + pad + exc.col - 1
    return None


def _reference_error(kind, line):
    parser = _Parser(VarContext(("x", "y")))
    line = line.rstrip()
    if kind in ("guard", "invariant"):
        return _shifted_error(parser, line[len(kind):], len(kind) + 1)
    col = line.index(":") + 2
    body = line[col - 1:]
    if kind == "update":
        return ("empty update", 3, col) if not body.strip() else \
            _shifted_error(parser, body, col)
    for piece in body.split(","):
        if not piece.strip():
            return "empty generator", 3, col + len(piece)
        if error := _shifted_error(parser, piece, col):
            return error
        col += len(piece) + 1
    return None


@settings(max_examples=500, deadline=None)
@given(_polynomial_lines())
def test_polynomial_errors_point_where_the_shifting_rule_did(kind_line):
    kind, line = kind_line
    text = f"vars x y\ninit 0 0\n{line}\n{_REST[kind]}"
    expected = _reference_error(kind, line)
    if expected is None:
        parse_problem(text)
    else:
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert (err.value.message, err.value.line, err.value.col) == expected
