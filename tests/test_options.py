"""The run-option table in problemfile is the one declaration of the run
options: every verb's flags are built from it, and a flag's text is read
exactly as the matching option line's is."""

import argparse
import re

import pytest

from loopsynth.cli import build_parser, main
from loopsynth.problemfile import _OPTIONS, _integer, _seconds

FAST_SYNTH = """\
vars x1 x2
init 1 1
invariant x1*x2 - 1
gen x1: x1, x2
gen x2: x2
"""

# verb -> whether it takes the solver options
SOLVER_VERBS = {"synth": True, "check": False, "bench": True}
# flags of a verb that are not run options
NOT_SETTINGS = {"help", "file", "paths", "json", "emit_smt", "steps", "grid", "csv"}
NUMERALS = ["abc", "1_0", "١", "0"]  # ١ is ARABIC-INDIC DIGIT ONE


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def setting_actions(verb) -> list:
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    return [a for a in verbs[verb]._actions if a.dest not in NOT_SETTINGS]


@pytest.mark.parametrize("verb", sorted(SOLVER_VERBS))
def test_each_verb_has_the_flags_of_the_table(verb):
    want = {"--" + key.replace("_", "-"): (dest, text)
            for key, (dest, _, text, solver_only) in _OPTIONS.items()
            if SOLVER_VERBS[verb] or not solver_only}
    assert {a.option_strings[0]: (a.dest, a.help) for a in setting_actions(verb)} == want


def test_no_flag_converts_its_text():
    for verb in SOLVER_VERBS:
        for action in setting_actions(verb):
            assert action.type is None, action.dest
    assert build_parser().parse_args(["synth", "f", "--rounds", "x"]).max_rounds == "x"


@pytest.mark.parametrize("key", ["rounds", "synth_budget", "solve_budget"])
@pytest.mark.parametrize("text", NUMERALS)
def test_flag_and_option_line_give_the_same_verdict(tmp_path, capsys, key, text):
    path = write(tmp_path, "fast.loop", FAST_SYNTH)
    assert main(["synth", path, "--" + key.replace("_", "-"), text]) == 1
    by_flag = capsys.readouterr().err
    path = write(tmp_path, "line.loop", FAST_SYNTH + f"option {key} {text}\n")
    assert main(["synth", path]) == 1
    by_line = capsys.readouterr().err
    assert re.sub(r"^loopsynth: error: .*line\.loop:6:\d+: ", "", by_line) == \
        by_flag.replace("loopsynth: error: ", "", 1)
    assert key in by_flag


def test_readers_take_ascii_numerals_only():
    assert _integer("10") == 10 and type(_integer("10")) is int
    assert _seconds("2.5") == 2.5 and _seconds("3e6") == 3e6
    for text in ["1_0", "١", "١_0", "²", "+5", "-1", "1.0", "abc", ""]:
        assert _integer(text) == text
    for text in ["1_0", "١", "١_0", "١.5", "abc", ""]:
        assert _seconds(text) == text


@pytest.mark.parametrize("text", ["1_0", "٣"])
def test_steps_takes_the_same_integers(tmp_path, capsys, text):
    path = write(tmp_path, "sum.loop", "vars x\ninit 0\ninvariant x\nupdate x: x\n")
    assert main(["check", path, "--steps", text]) == 1
    assert f"must be an integer >= 1, not {text!r}" in capsys.readouterr().err
