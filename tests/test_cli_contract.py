"""The command line's contract: help, usage and argparse errors byte for
byte, and the exit codes 0/1/2/3 without a traceback on any input.

The parser adds options only to the subcommand that a command line names,
so the goldens check that what argparse prints did not change with it.
They were recorded with COLUMNS=80; to re-record after a deliberate change
to the options or their help text, run

    PYTHONPATH=src python tests/test_cli_contract.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glq.cli import main

GOLDENS = Path(__file__).with_name("data") / "cli_usage.json"

COMMANDS = ("irr", "classes", "type", "mul", "stable", "fit", "verify",
            "check")

ARGVS = (
    [], ["--help"], ["-h"], ["--version"], ["bogus"], ["--bogus"],
    *([command, "--help"] for command in COMMANDS),
    ["mul"],
    ["mul", "--q", "3", "--n", "2", "--lambda", "1@t-2", "--mu", "1@t-2",
     "--bogus"],
    ["mul", "--help", "--q", "3"],
    ["stable", "--q", "x", "--lambda", "", "--mu", ""],
    ["type", "--q", "3"],
    ["classes", "--q", "2", "--n", "2", "--format", "xml"],
    ["fit", "--var", "z"],
    ["verify", "--suite", "nonsense"],
    ["check", "--q", "3", "--case", "nope"],
    ["irr", "--dmax"],
    ["--version", "mul"],
)


def capture(argv: list) -> dict:
    """Exit code, stdout and stderr of one command line; argparse's
    SystemExit counts as the exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


# ---------------------------------------------------------------------------
# help and usage goldens
# ---------------------------------------------------------------------------

def _goldens() -> dict:
    records = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return {tuple(record["argv"]): record for record in records}


def test_goldens_cover_every_command_line():
    assert set(_goldens()) == {tuple(argv) for argv in ARGVS}


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv))
def test_usage_output_is_byte_identical(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert capture(argv) == _goldens()[tuple(argv)]


# ---------------------------------------------------------------------------
# exit codes on generated command lines
# ---------------------------------------------------------------------------

# types valid at every q <= 5 and of norm <= 1, so that their products are
# quick; then types valid only at some q, and malformed text
TYPE_TEXTS = ("∅", "", "1@t-1", "1@t-1") * 3 + (
    "1@t-2", "1@t-4", "1@t-x", "1@t^2+2",
    "1@t", "@t-1", "0@t-1", "1,@t-1", "1@t-1;1@t-1", "∅∅", "junk")
NU_TEXTS = ("1,1@t-1", "2@t-1", "1@t-1;1@t-2", "1@t^2+1", "1@t-1", "?")
CACHE = "<temporary cache>"  # replaced by a fresh file per example

qs = st.sampled_from((2, 3, 3, 4, 5, 5, 0, 6)).map(str)
ints = st.sampled_from(("1", "2", "1", "2", "3", "4", "0", "-1"))
types = st.sampled_from(TYPE_TEXTS)


def rarely(draw) -> bool:
    return draw(st.integers(0, 4)) == 4  # not 0, which Hypothesis favours


@st.composite
def command_lines(draw) -> list:
    command = draw(st.sampled_from(("type", "mul", "stable", "check", "fit")))
    argv = [command, "--q", draw(qs)]
    if command == "type":
        size = draw(st.integers(0, 3))
        rows = draw(st.lists(
            st.lists(st.integers(0, 5), min_size=size, max_size=size + 1),
            min_size=max(size - 1, 0), max_size=size))
        argv += ["--matrix", ";".join(",".join(map(str, row))
                                      for row in rows)]
    elif command in ("mul", "stable"):
        argv += ["--lambda", draw(types), "--mu", draw(types)]
        if command == "mul":
            argv += ["--n", str(draw(st.integers(-1, 3)))]
        argv += draw(st.sampled_from((["--no-cache"], ["--cache", CACHE])))
    elif command == "check":
        case = draw(st.sampled_from(("two-reflections", "union-equal",
                                     "union-distinct")))
        names = {"two-reflections": ["xi", "eta"],
                 "union-equal": ["xi", "c", "d"],
                 "union-distinct": ["xs"]}[case]
        if rarely(draw):
            names.append("zeta")  # a parameter the case does not take
        params = ";".join(f"{name}={draw(ints)}" if name != "xs"
                          else f"xs={draw(ints)},{draw(ints)}"
                          for name in names)
        argv += ["--case", case, "--params", params]
        if case == "two-reflections" or rarely(draw):
            argv += ["--nu", draw(st.sampled_from(NU_TEXTS))]
    elif draw(st.booleans()):
        points = draw(st.lists(st.tuples(ints, ints), max_size=4))
        argv = ["fit", "--var", "q",
                "--points", ",".join(f"{a}:{v}" for a, v in points)]
    else:
        argv = ["fit", "--var", "n", *argv[1:], "--lambda", draw(types),
                "--mu", draw(types), "--nu", draw(st.sampled_from(NU_TEXTS)),
                "--ns", ",".join(draw(st.lists(ints, max_size=3)))]
    if command != "type" and draw(st.booleans()):
        argv += ["--memory-bound", str(draw(st.sampled_from((0, 1, 500))))]
    if rarely(draw):  # a missing token: a usage error or a value out of place
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_every_command_line_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as scratch:
        cache = str(Path(scratch) / "cache.tsv")
        result = capture([cache if arg == CACHE else arg for arg in argv])
    assert result["code"] in (0, 1, 2, 3), result
    assert "Traceback" not in result["stdout"] + result["stderr"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps([capture(argv) for argv in ARGVS],
                                  ensure_ascii=False, indent=1) + "\n",
                       encoding="utf-8")
    sys.exit(0)
