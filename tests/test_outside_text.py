"""Outside text has one reader per kind: polynomial text and solver output
are read by `re` scanners that behave exactly as the character loops they
replaced, an integer literal is at most MAX_DIGITS ASCII digits wherever
it is read, and a problem file is read by pipeline.read_problem for
every verb, so bad input is exit 1 or an invalid row, never exit 3."""

import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import loopsynth
from loopsynth import (ParseError, Settings, SolverOutputError, parse_problem, parse_sexprs,
                       run_benchmarks)
from loopsynth.cli import _parse_grid, _positive_int, main
from loopsynth.pipeline import read_problem
from loopsynth.polyring import (MAX_DIGITS, MAX_WORK, VarContext, _tokenize, as_rational,
                                parse_polynomial)
from loopsynth.solve import check_domain, check_nonzero, check_seconds, solver_argv

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
RUNNING_SUM = str(BENCHMARKS / "running_sum.loop")
FAST_SYNTH = "vars x1 x2\ninit 1 1\ninvariant x1*x2 - 1\ngen x1: x1, x2\ngen x2: x2\n"
LONG = "7" * 5000


# -- the scanners against the character loops they replaced --------------


def _loop_tokenize(text):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in "+-*^()/":
            yield ("op", ch, line, col)
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            yield ("int", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], line, col)
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    yield ("end", "", line, col)


def _loop_sexpr_tokens(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SolverOutputError("unterminated |symbol|")
            tokens.append(text[i:j + 1])
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise SolverOutputError("unterminated string literal")
            tokens.append(text[i:j + 1])
            i = j + 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();|":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _loop_parse_sexprs(text):
    out, stack = [], []
    for tok in _loop_sexpr_tokens(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SolverOutputError("unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise SolverOutputError("unbalanced '('")
    return out


def _outcome(fn, text):
    try:
        return ("ok", list(fn(text)))
    except (ParseError, SolverOutputError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None))


SPECIAL = list("²١é\r\n|\";() \t_x1+-*^/#.") + [" ", "\x0b", "Ⅷ", "½", "٣"]
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=40)


@settings(max_examples=400, deadline=None)
@given(TEXT)
def test_polynomial_scanner_matches_the_character_loop(text):
    assert _outcome(_tokenize, text) == _outcome(_loop_tokenize, text)


@settings(max_examples=400, deadline=None)
@given(TEXT)
def test_sexpr_scanner_matches_the_character_loop(text):
    assert _outcome(parse_sexprs, text) == _outcome(_loop_parse_sexprs, text)


@pytest.mark.parametrize("text", ["x²", "²", "x ١", "é1 + _é²", "x\r\n\r y", "x\n\n  ²",
                                  "3x", "3²", "x ! y", ""])
def test_polynomial_scanner_cases(text):
    assert _outcome(_tokenize, text) == _outcome(_loop_tokenize, text)


@pytest.mark.parametrize("text", ['(a |b c| "d e")', "(a ; c )\n b)", "|x", '"x', ') |x',
                                  '(a"b" c|d|)', "(((", "", "; only"])
def test_sexpr_scanner_cases(text):
    assert _outcome(parse_sexprs, text) == _outcome(_loop_parse_sexprs, text)


def test_directive_columns_ignore_trailing_space_and_comments():
    with pytest.raises(ParseError, match="init needs 1 values, got 0") as exc:
        parse_problem("vars x\n  init \t  # none\n")
    assert (exc.value.line, exc.value.col) == (2, 7)
    with pytest.raises(ParseError, match="init needs 1 values, got 2") as exc:
        parse_problem("vars x\n  init  1 2#c\n")
    assert (exc.value.line, exc.value.col) == (2, 9)


# -- one integer-literal rule --------------------------------------------


def test_max_digits_is_pythons_default_int_string_limit():
    default = getattr(sys.int_info, "default_max_str_digits", MAX_DIGITS)
    assert MAX_DIGITS == default == 4300


@pytest.mark.parametrize("line, col", [(f"invariant x - {LONG}", 15),
                                       (f"invariant x^{LONG}", 13),
                                       (f"invariant x/{LONG} - 1", 13),
                                       (f"update x: 2 * {LONG}", 15)],
                         ids=["constant", "exponent", "divisor", "update"])
def test_a_long_literal_is_a_parse_error_at_the_literal(line, col):
    text = "vars x\ninit 0\n" + line + "\n" + ("update x: x\n" if "update" not in line
                                              else "invariant x\n")
    with pytest.raises(ParseError, match=f"past {MAX_DIGITS} digits") as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == (3, col)


def test_a_literal_of_max_digits_parses():
    ctx = VarContext(("x",))
    digits = "9" * MAX_DIGITS
    assert parse_polynomial(digits, ctx) == parse_polynomial("1", ctx) * int(digits)
    assert parse_polynomial(f"x^{digits}", ctx).total_degree() == int(digits)
    assert parse_polynomial(f"{digits}*x/{digits}", ctx) == parse_polynomial("x", ctx)


# a quoted LONG keeps 30 characters of each end of its repr
CUT = f"'{'7' * 29}...{'7' * 29}'"


@pytest.mark.parametrize("argv, message", [
    (["check", RUNNING_SUM, "--rounds", LONG], f"rounds must be an integer >= 1, not {CUT}"),
    (["check", RUNNING_SUM, "--steps", LONG], "argument --steps: must be an integer >= 1"),
    (["bench", RUNNING_SUM, "--grid", f"1:{LONG}"], f"bad grid cell '1:{CUT[3:]}"),
    (["bench", RUNNING_SUM, "--grid", f"{LONG}:3"], f"bad grid cell {CUT[:-3]}:3'")],
    ids=["rounds", "steps", "grid-l", "grid-D"])
def test_a_long_integer_flag_is_a_usage_error_naming_it(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert len(err.encode()) < 300


def test_a_long_rounds_option_is_an_error_naming_it(tmp_path, capsys):
    path = tmp_path / "fast.loop"
    path.write_text(FAST_SYNTH + f"option rounds {LONG}\n")
    assert main(["synth", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"fast.loop:6:8: rounds must be an integer >= 1, not {CUT}" in err
    assert len(err.encode()) < 300


# each message that quotes outside text, as a call that refuses its text
QUOTING = {"Settings-nonzero": lambda v: Settings(nonzero=v),
           "Settings-rounds": lambda v: Settings(max_rounds=v),
           "check_domain": check_domain,
           "check_seconds": lambda v: check_seconds("solve_budget", v),
           "check_nonzero": lambda v: check_nonzero(v, ("a1",)),
           "solver_argv": lambda v: solver_argv("solver", v),
           "as_rational": as_rational,
           "_positive_int": _positive_int,
           "_parse_grid": _parse_grid}


@pytest.mark.parametrize("site", QUOTING)
def test_a_refused_value_is_quoted_whole_when_short_and_cut_when_long(site):
    # '"b@d' is no identifier, number, command line (no closing quote) or grid cell
    with pytest.raises(Exception) as short:
        QUOTING[site]('"b@d')
    assert repr('"b@d') in str(short.value)
    with pytest.raises(Exception) as long:
        QUOTING[site]('"b@d' + LONG)
    assert f"""'"b@d{'7' * 25}...{'7' * 29}'""" in str(long.value)
    assert len(str(long.value)) < 200


# -- one problem-file reader ---------------------------------------------


@pytest.fixture
def not_utf8(tmp_path):
    path = tmp_path / "latin.loop"
    path.write_bytes(b"vars x\ninit 0\ninvariant x - \xff\nupdate x: x\n")
    return str(path)


@pytest.mark.parametrize("verb", ["check", "synth"])
def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, not_utf8, verb):
    assert main([verb, not_utf8]) == 1
    err = capsys.readouterr().err
    assert f"{not_utf8}:3:15: " in err and "utf-8" in err


@pytest.mark.parametrize("data, line, col", [
    (b"vars x\ninit 0\ninvariant x - \xff\nupdate x: x\n", 3, 15),
    # columns count characters, and lines end as str.splitlines ends them
    (b"vars x\r\ninit 0\rinvariant \xc3\xa9 + \xe2\x82\r\n", 3, 15),
    (b"vars x\ninit 0\n\n\xc3", 4, 1),
    (b"\x80", 1, 1)])
def test_a_byte_that_is_not_utf8_is_a_parse_error_at_its_line_and_col(tmp_path, data,
                                                                       line, col):
    path = tmp_path / "bad.loop"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="utf-8") as err:
        read_problem(str(path))
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("body", ["invariant x - 1\nupdate x: x + 1\n",
                                  "invariant x - 1\nupdate x: x +\n"])
def test_a_crlf_file_reads_as_its_lf_text(tmp_path, body):
    text = "vars x\n# comment\n\ninit 1\n" + body
    path = tmp_path / "crlf.loop"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    try:
        expected = parse_problem(text, name="crlf")
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            read_problem(str(path))
        assert str(err.value) == str(exc)
    else:
        assert read_problem(str(path)) == expected


def test_bench_reports_a_file_that_is_not_utf8_as_an_invalid_row(capsys, not_utf8):
    assert main(["bench", not_utf8, RUNNING_SUM]) == 1
    rows = [line.split()[:3] for line in capsys.readouterr().out.splitlines()[2:4]]
    assert rows == [["latin", "-", "invalid"], ["running_sum", "check", "ok"]]
    reports = run_benchmarks([not_utf8, RUNNING_SUM])
    assert [(r.name, r.status) for r in reports] == [("latin", "invalid"), ("running_sum", "ok")]
    assert "utf-8" in reports[0].error


def test_bench_reports_a_long_literal_as_an_invalid_row(tmp_path, capsys):
    path = tmp_path / "long.loop"
    path.write_text(f"vars x\ninit 0\ninvariant x^{LONG}\nupdate x: x\n")
    assert main(["bench", str(path), RUNNING_SUM]) == 1
    out = capsys.readouterr().out
    assert [line.split()[2] for line in out.splitlines()[2:4]] == ["invalid", "ok"]
    assert f"long: 3:13: integer literal past {MAX_DIGITS} digits" in out


def test_a_missing_file_is_a_usage_error_and_an_invalid_row(tmp_path, capsys):
    missing = str(tmp_path / "gone.loop")
    assert main(["check", missing]) == 1
    assert missing in capsys.readouterr().err
    assert [(r.name, r.status) for r in run_benchmarks([missing])] == [("gone", "invalid")]


# -- the work of one problem file ----------------------------------------


HEAVY = "(1+x1)^999"  # 1,000 terms in one or two variables: it spends MAX_WORK


def test_a_huge_power_at_check_time_is_a_time_limit(tmp_path):
    # the parser admits x^999999999 (one term); evaluating it at 3 would
    # run far past the timeout, which ends the child if evaluate has no bound
    path = tmp_path / "huge.loop"
    path.write_text("vars x\ninit 3\ninvariant x^999999999 - 1\nupdate x: x + 1\n")
    src = str(pathlib.Path(loopsynth.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "loopsynth.cli", "check", str(path)],
                          capture_output=True, text=True, env=env, timeout=20)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 2
    assert "status: TL" in proc.stdout


# each composes an invariant with a power of an update past the bound
HUGE_COMPOSE = {"two-terms": "vars x\ninit 0\ninvariant x^999999999*(x - 1)\nupdate x: 1 - x\n",
                "one-term": "vars x\ninit 1\ninvariant x^999999999 - x^999999997\n"
                            "update x: -x\n",
                "three-terms": "vars x y\ninit 0 0\ninvariant x^1000*(x - 1)\n"
                               "update x: 1 - x + y\nupdate y: y\n"}


@pytest.mark.parametrize("name", HUGE_COMPOSE)
def test_a_huge_power_of_an_update_is_a_time_limit(tmp_path, name):
    # simulation passes (each orbit revisits at state 2), and then composing
    # the invariant with the update would run far past the timeout
    path = tmp_path / f"{name}.loop"
    path.write_text(HUGE_COMPOSE[name])
    src = str(pathlib.Path(loopsynth.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "loopsynth.cli", "check", str(path),
                           "--synth-budget", "5"],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2
    assert "status: TL (compose: powers past" in proc.stdout


def test_a_line_of_many_large_powers_is_refused_at_once(tmp_path, capsys):
    body = " + ".join([f"{HEAVY} - {HEAVY}"] * 10)
    path = tmp_path / "heavy.loop"
    path.write_text(pathlib.Path(RUNNING_SUM).read_text() + f"invariant {body}\n")
    t0 = time.perf_counter()
    assert main(["check", str(path)]) == 1
    assert time.perf_counter() - t0 < 1
    # the file's other polynomials spent a little of MAX_WORK (x2^2 is a
    # power), so even the first power of 1,000 terms is refused at its ^
    col = len("invariant (1+x1)")
    assert f"heavy.loop:7:{col + 1}: expansions could pass {MAX_WORK} term products" in \
        capsys.readouterr().err


@pytest.mark.parametrize("text, line, before", [
    # one line per power
    ("vars x1 x2\ninit 0 0\n" + f"invariant {HEAVY} + x1\n" * 10
     + "update x1: x1\nupdate x2: x2\n", 4, "invariant (1+x1)"),
    # one gen line of many pieces, each parsed on its own
    ("vars x1 x2\ninit 1 1\ninvariant x1\ngen x2: x2\n"
     + "gen x1: " + ", ".join([HEAVY] * 10) + "\n", 5, f"gen x1: {HEAVY}, (1+x1)"),
])
def test_the_polynomials_of_one_file_share_one_allowance(text, line, before):
    # the first power of 1,000 terms is admitted and spends all of MAX_WORK
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert time.perf_counter() - t0 < 1
    assert (err.value.line, err.value.col) == (line, len(before) + 1)
    assert err.value.message == f"expansions could pass {MAX_WORK} term products"
