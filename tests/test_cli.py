"""Command line tests against byte-frozen golden files.

Regenerate the goldens after an intentional output change with

    python3 tests/test_cli.py --freeze

and review the diff before committing.  Check the installed console
script against every golden with

    python3 tests/test_cli.py --check-installed

and check that classify and surfaces, run in process in every output
form for each P(p,q,r) with |p|,|q|,|r| <= 7, and four larger commands
still print exactly what they printed when DIGEST was pinned, with

    python3 tests/test_cli.py --digest
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from itertools import combinations_with_replacement, product
from pathlib import Path

import jsonschema
import pytest

import pretzelrep
from pretzelrep import (MAX_DIGITS, DegenerateTangleError, InvalidPDCodeError,
                        SurfacePattern, component_count, knot_components,
                        enumerate_solutions, max_digits, pretzel_diagram, run, slopelemma)

GOLDEN_DIR = Path(__file__).parent / "goldens"
SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"

CASES = [
    ("classify_m235.txt", ["classify", "P(-2,3,5)"]),
    ("classify_m235.json", ["classify", "P(-2,3,5)", "--json"]),
    ("classify_m355.txt", ["classify", "P(-3,5,5)"]),
    ("classify_111.json", ["classify", "P(1,1,1)", "--json"]),
    ("classify_montesinos.txt", ["classify", "M(-1/2,1/3,1/3)"]),
    ("classify_large_algebraic.json",
     ["classify", "C((1/3+1/5)+(1/2+1/7))", "--json"]),
    ("classify_conway.txt", ["classify", "C(1/3+(1/2+1/5))"]),
    ("classify_range.txt", ["classify", "--range", "-3:3"]),
    ("classify_range.json", ["classify", "--range", "-3:3", "--json"]),
    ("surfaces_m233.txt", ["surfaces", "P(-2,3,3)"]),
    ("surfaces_m233.csv", ["surfaces", "P(-2,3,3)", "--csv"]),
    ("surfaces_m235.json", ["surfaces", "P(-2,3,5)", "--json"]),
    ("surfaces_mirror.txt", ["surfaces", "P(2,-3,-3)"]),
    ("surfaces_m6917.txt", ["surfaces", "P(-6,9,17)"]),
    ("lemma_15.txt", ["lemma", "--max", "15"]),
    ("lemma_15.json", ["lemma", "--max", "15", "--json"]),
    ("trace_m233.txt", ["trace", "P(-2,3,3)"]),
    ("trace_m233.json", ["trace", "P(-2,3,3)", "--json"]),
    ("parse_closure.json", ["parse", "C((1/3+1/5)+(1/2+1/7))", "--json"]),
    ("parse_montesinos.txt", ["parse", "M( 1/2 , -1/3 , 1/7 )"]),
]


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = run(args, out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,args", CASES, ids=[name for name, _ in CASES])
def test_golden(name, args):
    code, out, err = run_cli(args)
    assert code == 0 and err == ""
    expected = (GOLDEN_DIR / name).read_text()
    assert out == expected


def test_output_is_stable_across_runs():
    for _, args in CASES:
        first = run_cli(args)
        second = run_cli(args)
        assert first == second


@pytest.mark.parametrize(
    "name,args",
    [case for case in CASES if case[0].endswith(".json")],
    ids=[name for name, _ in CASES if name.endswith(".json")],
)
def test_json_output_validates(name, args):
    schema = json.loads((SCHEMA_DIR / f"{args[0]}.schema.json").read_text())
    code, out, _ = run_cli(args)
    assert code == 0
    jsonschema.validate(json.loads(out), schema)


class _CountingStream(io.StringIO):
    """A text stream that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


CHUNKED = [case for case in CASES if case[0] in ("lemma_15.txt", "lemma_15.json",
                                                 "trace_m233.txt", "trace_m233.json")]


@pytest.mark.parametrize("name,args", CHUNKED, ids=[name for name, _ in CHUNKED])
def test_items_are_written_in_chunks(monkeypatch, name, args):
    monkeypatch.setattr(pretzelrep.cli, "_ITEMS_PER_WRITE", 2)
    out, err = _CountingStream(), io.StringIO()
    assert run(args, out, err) == 0
    assert out.getvalue() == (GOLDEN_DIR / name).read_text()
    assert out.writes > 2  # at least two writes of items, then the tail


# text reports that start with their subcommand, each with the number of
# scan rows it prints; a domain error's report is its one error line
TEXT_REPORTS = [
    (["classify", "P(-3,5,7)"], 0),
    (["classify", "P(-2,3,5)"], 1),
    (["classify", "P(1,3,5)"], 0),
    (["classify", "C(1/3+(1/2+1/5))"], 0),
    (["surfaces", "P(-2,3,3)"], 8),
    (["surfaces", "P(-2,3,3)", "--csv"], 8),
    (["classify", "P(2,4,6)"], 0),
    (["parse", "M( 1/2 , -1/3 , 1/7 )"], 0),
    (["parse", "C((1/3+1/5)+(1/2+1/7))", "--json"], 0),
]


@pytest.mark.parametrize("args,printed_rows", TEXT_REPORTS,
                         ids=[" ".join(args) for args, _ in TEXT_REPORTS])
def test_a_text_report_costs_one_parse_one_write_and_only_printed_rows(
        monkeypatch, args, printed_rows):
    """A leading subcommand is parsed by its own parser alone, a scan row
    is built only to be printed, and the report goes out in one write:
    to out on success, to err as an error line."""
    expected = run_cli(args)
    parses, rows = [], []
    parse_known_args, row = argparse.ArgumentParser.parse_known_args, pretzelrep.cli._row

    def counting_parse(self, *given, **options):
        parses.append(self.prog)
        return parse_known_args(self, *given, **options)

    def counting_row(*given):
        rows.append(given[0])
        return row(*given)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    monkeypatch.setattr(pretzelrep.cli, "_row", counting_row)
    out, err = _CountingStream(), _CountingStream()
    assert (run(args, out, err), out.getvalue(), err.getvalue()) == expected
    assert parses == [f"pretzelrep {args[0]}"]
    assert len(rows) == printed_rows
    assert (out.writes, err.writes) == ((0, 1) if expected[0] else (1, 0))


def test_lemma_row_format():
    code, out, _ = run_cli(["lemma", "--max", "15"])
    assert code == 0
    assert "6 10 15 | k=3 l=5 d=1" in out.splitlines()


def test_classify_json_reports_exact():
    code, out, _ = run_cli(["classify", "P(-2,3,5)", "--json"])
    assert code == 0
    assert json.loads(out)["exact"] == 3


def test_exit_code_for_link_input():
    code, out, err = run_cli(["classify", "P(2,4,6)"])
    assert code == 2 and out == ""
    assert "not a knot (3 components)" in err


def test_exit_code_for_syntax_error():
    code, _, err = run_cli(["classify", "P(2,4,"])
    assert code == 1 and "error" in err
    code, _, err = run_cli(["parse", "1/0"])
    assert code == 1


def test_exit_code_for_usage_errors():
    assert run_cli(["classify"])[0] == 1
    assert run_cli(["classify", "P(1,2,3)", "--range", "1:2"])[0] == 1
    assert run_cli(["classify", "--range", "5:1"])[0] == 1
    assert run_cli(["classify", "--range", "1:x"])[0] == 1
    assert run_cli(["lemma", "--max", "1"])[0] == 1
    assert run_cli(["lemma"])[0] == 1
    assert run_cli(["nonsense"])[0] == 1
    assert run_cli(["surfaces", "P(1,2,3)", "--json", "--csv"])[0] == 1


@pytest.mark.parametrize("command", [[], ["classify"], ["surfaces"], ["lemma"], ["trace"],
                                     ["parse"]], ids=lambda c: c[0] if c else "top")
def test_help_goes_to_the_given_stream(capsys, command):
    code, out, err = run_cli([*command, "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: pretzelrep" + "".join(" " + c for c in command))
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["classify", "P(-2,3,5)"], ["--help"]], ids=" ".join)
def test_no_argv_means_the_process_arguments(monkeypatch, argv):
    expected = run_cli(argv)
    monkeypatch.setattr(sys, "argv", ["pretzelrep", *argv])
    out, err = io.StringIO(), io.StringIO()
    assert (run(out=out, err=err), out.getvalue(), err.getvalue()) == expected
    assert expected[0] == 0 and expected[1]


def test_exit_code_for_domain_errors():
    assert run_cli(["surfaces", "P(1,3,3)"])[0] == 2
    assert run_cli(["surfaces", "P(2,4,6)"])[0] == 2
    assert run_cli(["trace", "M(1/2)"])[0] == 2
    assert run_cli(["trace", "P(0,1,2)"])[0] == 2
    assert run_cli(["classify", "1/2"])[0] == 2


@pytest.mark.parametrize("args", [["classify", "--range", "-25:25", "--json"],
                                  ["classify", "P(1,3,5)"], ["classify", "P(1,3,5)", "--json"]],
                         ids=" ".join)
def test_unit_twist_reports_make_no_domain_error(monkeypatch, args):
    """A unit twist's report has no scan, and that is an answer: classify
    prints it without making a DegenerateTangleError on the way."""
    expected = run_cli(args)
    made = []
    init = DegenerateTangleError.__init__

    def counting_init(self, *message):
        made.append(message)
        init(self, *message)

    monkeypatch.setattr(DegenerateTangleError, "__init__", counting_init)
    assert run_cli(args) == expected
    assert len(made) == 0


@pytest.mark.parametrize("args", [["classify", "--range", "-25:25", "--json"],
                                  ["surfaces", "P(-2,3,5)", "--json"],
                                  ["surfaces", "P(-2,3,5)", "--csv"],
                                  ["classify", "P(-2,3,5)"], ["classify", "P(-2,3,5)", "--json"]],
                         ids=" ".join)
def test_commands_build_no_surface_pattern(monkeypatch, args):
    """The command line takes every scan row from scan_fields, which
    builds no SurfacePattern, even for a triple that gets a full scan."""
    made = []
    init = SurfacePattern.__init__

    def counting_init(self, *fields):
        made.append(fields)
        init(self, *fields)

    with monkeypatch.context() as patch:
        patch.setattr(SurfacePattern, "__init__", counting_init)
        patched = run_cli(args)
    assert patched == run_cli(args)
    assert len(made) == 0


def test_trace_reports_components():
    code, out, _ = run_cli(["trace", "P(2,4,5)"])
    assert code == 0
    assert "components: 2" in out


def test_leading_minus_arguments_are_values():
    code, out, _ = run_cli(["parse", "-1/2"])
    assert code == 0 and out == "-1/2\n"
    code, out, _ = run_cli(["parse", "-1/2+1/3"])
    assert code == 0 and out == "-1/2+1/3\n"


def test_non_ascii_digits_exit_1():
    code, out, err = run_cli(["classify", "P(-2,\u0663,5)"])
    assert code == 1 and out == "" and "position 5" in err
    code, out, err = run_cli(["classify", "--range", "-\u0663:3"])
    assert code == 1 and out == "" and "--range expects A:B" in err
    assert run_cli(["classify", "--range", "1:2\n"])[0] == 1


def test_oversized_literals_exit_1():
    code, out, err = run_cli(["parse", "1" * 5000])
    assert code == 1 and out == "" and "too long (at position 0)" in err
    code, out, err = run_cli(["classify", "--range", "1" + "0" * 5000 + ":2"])
    assert code == 1 and out == "" and "too many digits" in err
    # one digit over the limit: the literal would convert, but N + 1 or a
    # crossing count derived from it could not be printed
    n = "9" * 4300
    for args, position in [
        (["surfaces", f"P(-2,3,{n})"], 7),
        (["surfaces", f"P(-2,3,{n})", "--json"], 7),
        (["surfaces", f"P(-2,3,{n})", "--csv"], 7),
        (["classify", f"P(-2,3,{n})", "--json"], 7),
        (["classify", f"M(1/-3,1/5,1/{n})", "--json"], 13),
        (["trace", f"P(-2,3,{n})"], 7),
    ]:
        assert run_cli(args) == (
            1, "", f"error: integer literal of 4300 characters is too long (at position {position})\n")
    assert run_cli(["classify", "--range", f"{n}:{n}", "--json"]) == (
        1, "", "error: --range bound has too many digits\n")
    # at the limit every command answers
    n = "9" * 4299
    code, out, err = run_cli(["surfaces", f"P(-2,3,{n})", "--json"])
    assert code == 0 and err == "" and json.loads(out)["rows"][0]["slopes"][2] == int(n)
    code, out, err = run_cli(["classify", f"M(1/-3,1/5,1/{n})", "--json"])
    assert code == 0 and err == "" and json.loads(out)["normalized"] == [-3, 5, int(n)]
    code, out, err = run_cli(["trace", f"P(-2,3,{n})"])
    assert code == 2 and out == "" and err.endswith(" crossings, more than the limit of 2000000\n")


def child_env(**extra):
    """The environment of a child interpreter that imports this pretzelrep."""
    src = Path(pretzelrep.__file__).resolve().parents[1]
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_closed_pipe_exits_1_without_traceback():
    # several MB of output, far more than a pipe buffers
    child = subprocess.Popen(
        [sys.executable, "-m", "pretzelrep", "classify", "--range", "-12:12", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert child.stdout.read(100).startswith(b"[\n  {")
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert b"Traceback" not in err
    assert err == b"" and child.returncode == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_device_exits_1_with_one_error_line():
    # the output fits the stdout buffer, so the write fails at the final flush
    with open("/dev/full", "w") as full:
        child = subprocess.run([sys.executable, "-m", "pretzelrep", "classify", "P(-2,3,5)"],
                               stdout=full, stderr=subprocess.PIPE, text=True,
                               env=child_env(), timeout=60)
    assert "Traceback" not in child.stderr
    assert (child.returncode, child.stderr) == (
        1, "error: cannot write output: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_help_to_a_full_device_exits_1():
    # unbuffered, the help text fails in argparse's own write, not at the final flush
    with open("/dev/full", "w") as full:
        child = subprocess.run([sys.executable, "-m", "pretzelrep", "--help"],
                               stdout=full, stderr=subprocess.PIPE, text=True,
                               env=child_env(PYTHONUNBUFFERED="1"), timeout=60)
    assert "Traceback" not in child.stderr
    assert (child.returncode, child.stderr) == (
        1, "error: cannot write output: No space left on device\n")


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX file descriptors")
@pytest.mark.parametrize("closed,args,code,message", [
    # a command that writes to a closed stdout fails as on a full device
    (1, ["classify", "P(-2,3,5)"], 1, "error: cannot write output: Bad file descriptor\n"),
    # one that writes nothing there keeps its code
    (1, ["classify", "P(2,4,6)"], 2, "error: not a knot (3 components)\n"),
    (1, ["classify", "P(x)"], 1, "error: expected an integer, found 'x' (at position 2)\n"),
    # help is output too: argparse alone would drop the failed write and exit 0
    (1, ["--help"], 1, "error: cannot write output: Bad file descriptor\n"),
    (1, ["classify", "-h"], 1, "error: cannot write output: Bad file descriptor\n"),
    # the error line of a closed stderr is lost, and its exit code is not
    (2, ["classify", "P(2,4,6)"], 2, ""),
    (2, ["classify", "P(-2,3,5)"], 0, ""),
], ids=str)
def test_closed_stream_keeps_the_exit_code(closed, args, code, message):
    child = subprocess.run([sys.executable, "-m", "pretzelrep", *args],
                           capture_output=True, text=True, env=child_env(), timeout=60,
                           preexec_fn=lambda: os.close(closed))
    assert "Traceback" not in child.stderr
    assert (child.returncode, child.stderr) == (code, message)
    assert (child.stdout != "") == (code == 0)


def test_unencodable_output_exits_1_with_one_error_line():
    # surfaces text echoes its input, here with a no-break space
    child = subprocess.run([sys.executable, "-m", "pretzelrep", "surfaces", "P(-2,3,5)\u00a0"],
                           capture_output=True, text=True, env=child_env(PYTHONIOENCODING="ascii"),
                           timeout=60)
    assert "Traceback" not in child.stderr
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == ("error: cannot write output: 'ascii' codec can't encode character "
                            "'\\xa0' in position 16: ordinal not in range(128)\n")


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_interrupt_exits_130_without_traceback():
    # -60:60 as JSON runs for seconds, so the signal lands mid-range
    child = subprocess.Popen(
        [sys.executable, "-m", "pretzelrep", "classify", "--range", "-60:60", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert child.stdout.read(100).startswith(b"[\n  {")
    child.send_signal(signal.SIGINT)
    _, err = child.communicate(timeout=60)
    assert b"Traceback" not in err
    assert err == b"" and child.returncode == 130


needs_int_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                     reason="this Python has no int-string limit")


@needs_int_limit
@pytest.mark.parametrize("args,message", [
    (["parse", "9" * 1000], "integer literal of 1000 characters is too long (at position 0)"),
    (["surfaces", f"P(-2,3,{'9' * 640})"],
     "integer literal of 640 characters is too long (at position 7)"),
], ids=["parse", "surfaces"])
def test_lowered_int_string_limit_exits_1(args, message):
    # at the lowest limit the interpreter allows, m + 1 of a 640-digit
    # literal would have 641 digits, one more than can be printed
    child = subprocess.run([sys.executable, "-m", "pretzelrep", *args], capture_output=True,
                           text=True, env=child_env(PYTHONINTMAXSTRDIGITS="640"), timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (1, "", f"error: {message}\n")


@needs_int_limit
def test_literal_cap_follows_the_limit_as_set_now():
    n = "9" * 999
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        assert max_digits() == 999
        assert run_cli(["surfaces", f"P(-2,3,{n})", "--json"])[0] == 0
        assert run_cli(["surfaces", f"P(-2,3,{n}9)", "--json"]) == (
            1, "", "error: integer literal of 1000 characters is too long (at position 7)\n")
        assert run_cli(["classify", "--range", f"{n}9:{n}9"]) == (
            1, "", "error: --range bound has too many digits\n")
        sys.set_int_max_str_digits(0)  # no limit: the package's own cap
        assert max_digits() == MAX_DIGITS
    finally:
        sys.set_int_max_str_digits(old)


# The messages of the domain errors a link, a zero twist or a unit twist
# draws; none of them needs a diagram.
NO_DIAGRAM_ERRORS = [
    (["classify", "P(2,4,6)"], "not a knot (3 components)"),
    (["classify", "P(2,4,5)"], "not a knot (2 components)"),
    (["classify", "P(1,2,4)"], "not a knot (2 components)"),
    (["classify", "M(1/2,1/4,1/6)"], "not a knot (3 components)"),
    (["classify", "P(2,4,250000)"], "not a knot (3 components)"),
    (["classify", "P(0,3,5)"], "zero twist parameter in (0, 3, 5)"),
    (["classify", "P(0,2,4)"], "zero twist parameter in (0, 2, 4)"),
    (["classify", "P(0,1,1)"], "zero twist parameter in (0, 1, 1)"),
    (["surfaces", "P(2,4,6)"], "not a knot (3 components)"),
    (["surfaces", "P(1,2,4)"], "twist parameters must have absolute value >= 2, got (1, 2, 4)"),
    (["surfaces", "P(1,3,5)"], "twist parameters must have absolute value >= 2, got (1, 3, 5)"),
    (["surfaces", "P(-1,2,3)"], "twist parameters must have absolute value >= 2, got (-1, 2, 3)"),
    (["surfaces", "P(0,1,2)"], "zero twist parameter in (0, 1, 2)"),
    (["surfaces", "P(0,2,4)"], "zero twist parameter in (0, 2, 4)"),
]


@pytest.fixture
def refuse_diagrams(monkeypatch):
    """Make every binding of pretzel_diagram and of the streaming
    pretzel_crossings in the package fail."""
    patched = {}
    for entry in ("pretzel_diagram", "pretzel_crossings"):
        original = getattr(pretzelrep.linktrace, entry)

        def refuse(twists, entry=entry):
            raise AssertionError(f"{entry} was called for {tuple(twists)}")

        patched[entry] = []
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "pretzelrep" and getattr(module, entry, None) is original:
                monkeypatch.setattr(module, entry, refuse)
                patched[entry].append(name)
    assert "pretzelrep.linktrace" in patched["pretzel_diagram"]
    # the CLI traces through pretzel_crossings, so it must bind that name
    assert ("pretzelrep.cli" in patched["pretzel_crossings"]
            and "pretzelrep.linktrace" in patched["pretzel_crossings"])


def test_error_paths_build_no_diagram(refuse_diagrams):
    for args, message in NO_DIAGRAM_ERRORS:
        for flag in ([], ["--json"]):
            assert run_cli(args + flag) == (2, "", f"error: {message}\n"), args + flag


def test_trace_above_the_crossing_budget_builds_no_diagram(refuse_diagrams):
    message = ("error: the diagram would have 10000005 crossings, "
               "more than the limit of 2000000\n")
    for flag in ([], ["--json"]):
        assert run_cli(["trace", "P(-2,3,10000000)", *flag]) == (2, "", message)


class _Discard:
    """A text stream that keeps nothing it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_trace_holds_no_diagram(flag):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = pretzel_diagram([-2, 3, 100001])
        diagram = tracemalloc.get_traced_memory()[0] - before
        del code
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert run(["trace", "P(-2,3,100001)", *flag], _Discard(), io.StringIO()) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * diagram, (peak, diagram)


def test_lemma_holds_no_solution_list():
    max_c = 20000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solutions = list(enumerate_solutions(max_c))
        held = tracemalloc.get_traced_memory()[0] - before
        del solutions
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert run(["lemma", "--max", str(max_c)], _Discard(), io.StringIO()) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * held, (peak, held)


# P(-2,3,3) has 8 crossings, so its labels are 1..16
INVALID_CROSSINGS = [
    ("label 0", {2: 0}, "arc 0 is outside the labels 1..16"),
    ("label above 2n", {5: 17}, "arc 17 is outside the labels 1..16"),
    ("label 0, then above 2n", {2: 0, 5: 17}, "arc 0 is outside the labels 1..16"),
]


@pytest.mark.parametrize("changes,message", [case[1:] for case in INVALID_CROSSINGS],
                         ids=[case[0] for case in INVALID_CROSSINGS])
def test_trace_of_invalid_crossings_exits_3(monkeypatch, changes, message):
    real = pretzelrep.cli.pretzel_crossings

    def broken(twists):
        # the crossings of the real diagram, but the crossing at each
        # changed index has that label in its first slot
        for index, crossing in enumerate(real(twists)):
            yield (changes[index], *crossing[1:]) if index in changes else crossing

    crossings = tuple(broken([-2, 3, 3]))
    with pytest.raises(InvalidPDCodeError) as info:
        component_count(crossings)
    assert str(info.value) == message
    monkeypatch.setattr(pretzelrep.cli, "pretzel_crossings", broken)
    for flag in ([], ["--json"]):
        assert run_cli(["trace", "P(-2,3,3)", *flag]) == (3, "", f"internal error: {message}\n")


@pytest.mark.parametrize("max_c", [200001, 10**30], ids=["200001", "1e30"])
def test_lemma_above_the_budget_exits_1_at_once(monkeypatch, max_c):
    def refuse(max_c):
        raise AssertionError(f"solutions were enumerated up to {max_c}")

    monkeypatch.setattr(pretzelrep.cli, "enumerate_solutions", refuse)
    for flag in ([], ["--json"]):
        code, out, err = run_cli(["lemma", "--max", str(max_c), *flag])
        assert (code, out) == (1, "")
        assert err == f"error: --max must be at most 200000, got {max_c}\n"


@pytest.mark.parametrize("corrupt", [lambda a, b, c: (a, a, c), lambda a, b, c: (0, 0, c)],
                         ids=["a equals b", "a and b zero"])
def test_lemma_row_without_parameters_exits_3(monkeypatch, corrupt):
    # decoding such a row would divide by zero; it is an invariant error
    real = slopelemma.parametrize
    monkeypatch.setattr(slopelemma, "parametrize", lambda k, l, d: corrupt(*real(k, l, d)))
    for flag in ([], ["--json"]):
        code, out, err = run_cli(["lemma", "--max", "10", *flag])
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_lemma_budget_admits_its_limit(monkeypatch):
    monkeypatch.setattr(pretzelrep.cli, "enumerate_solutions", lambda max_c: [])
    assert run_cli(["lemma", "--max", "200000"]) == (0, "", "")


@pytest.mark.parametrize("spec,width", [("-60:61", 122), ("1:1000000000000", 10**12)],
                         ids=["122", "1e12"])
def test_range_above_the_budget_exits_1_at_once(monkeypatch, spec, width):
    def refuse(*knot):
        raise AssertionError(f"{knot} was classified")

    # a range report comes from knot_report, a closure's from representativity_bounds
    monkeypatch.setattr(pretzelrep.cli, "representativity_bounds", refuse)
    monkeypatch.setattr(pretzelrep.cli, "knot_report", refuse)
    for flag in ([], ["--json"]):
        assert run_cli(["classify", "--range", spec, *flag]) == (
            1, "", f"error: --range box is {width} values wide, more than the limit of 121\n")


def test_range_yields_every_knot_triple_and_nothing_else():
    # the text range classifies each triple without checking it again
    values = [v for v in range(-25, 26) if v != 0]
    triples = list(pretzelrep.cli._knot_triples(-25, 25))
    assert all(0 not in t and knot_components(t) == 1 for t in triples)
    assert triples == [t for t in combinations_with_replacement(values, 3)
                       if knot_components(t) == 1]


def _validations(monkeypatch, args) -> tuple[int, int]:
    """Run args, checking that the output is unchanged, and count the
    pretzel_knot and canonical_entries calls it made, each through every
    binding of the function in the package."""
    expected = run_cli(args)
    counts = {}

    def count_calls(name, function, owners):
        calls = counts[name] = []

        def counting(*call_args):
            calls.append(call_args)
            return function(*call_args)

        bound = {module_name for module_name, module in list(sys.modules.items())
                 if module_name.split(".")[0] == "pretzelrep"
                 and getattr(module, name, None) is function}
        for module_name in bound:
            monkeypatch.setattr(sys.modules[module_name], name, counting)
        assert {f"pretzelrep.{owner}" for owner in owners} <= bound, name

    count_calls("pretzel_knot", pretzelrep.pretzel_knot,
                ["linktrace", "surfacescan", "repclassify"])
    count_calls("canonical_entries", pretzelrep.canonical_entries,
                ["cli", "linktrace", "tanglecalc"])
    assert run_cli(args) == expected
    return len(counts["pretzel_knot"]), len(counts["canonical_entries"])


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_range_text_builds_no_pretzel_knot(monkeypatch, flag):
    # a range report, text or JSON, needs only the canonical form of its
    # triple, made once; the triples are knots by construction
    reports = len(list(pretzelrep.cli._knot_triples(-12, 12)))
    assert reports == 1300
    assert _validations(monkeypatch, ["classify", "--range", "-12:12", *flag]) == (0, reports)


@pytest.mark.parametrize("args", [
    ["classify", "P(-2,3,5)", "--json"],
    ["classify", "P(-2,3,5)"],
    ["classify", "M(1/2,1/-3,1/-3)", "--json"],
    ["classify", "M(1/2,1/-3,1/-3)"],
    ["surfaces", "P(-2,3,5)"],
    ["surfaces", "P(-2,3,5)", "--json"],
], ids=" ".join)
def test_a_single_knot_is_validated_once(monkeypatch, args):
    # one pretzel_knot call, where the input is validated, and one
    # canonicalization; this also shows that the counts of the range work
    assert _validations(monkeypatch, args) == (1, 1)


def test_range_budget_admits_its_limit(monkeypatch):
    monkeypatch.setattr(pretzelrep.cli, "_knot_triples", lambda low, high: iter(()))
    assert run_cli(["classify", "--range", "-60:60"]) == (0, "", "")
    assert run_cli(["classify", "--range", "-60:60", "--json"]) == (0, "[]\n", "")


DEEP_PARENS = "(" * 2000 + "1/2" + ")" * 2000
LONG_SUM = "+".join(["1/2"] * 3000)


@pytest.mark.parametrize("args", [
    ["parse", DEEP_PARENS],
    ["parse", LONG_SUM],
    ["parse", LONG_SUM, "--json"],
    ["classify", f"C({LONG_SUM})"],
], ids=["parse-2000-parens", "parse-3000-terms", "parse-json-3000-terms",
        "classify-closure-3000-terms"])
def test_deep_expression_exits_1(args):
    code, out, err = run_cli(args)
    assert code == 1 and out == ""
    assert "nests deeper than 200 levels" in err and "(at position" in err


def _freeze():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in CASES:
        code, out, err = run_cli(args)
        if code != 0:
            raise SystemExit(f"{args} exited {code}: {err}")
        (GOLDEN_DIR / name).write_text(out)
        print(f"wrote {name} ({len(out)} bytes)")


def _check_installed():
    script = shutil.which("pretzelrep")
    if script is None:
        raise SystemExit("no pretzelrep script on PATH")
    mismatches = []
    for name, args in CASES:
        child = subprocess.run([script, *args], capture_output=True, timeout=60)
        if child.returncode != 0 or child.stdout != (GOLDEN_DIR / name).read_bytes():
            print(f"mismatch: {name} (exit {child.returncode}, {' '.join(args)})")
            mismatches.append(name)
    if mismatches:
        raise SystemExit(f"{len(mismatches)} of {len(CASES)} cases differ from their goldens")
    print(f"all {len(CASES)} cases match their goldens through {script}")


# the md5 of repr((argv, exit code, stdout, stderr)) over DIGEST_CALLS
DIGEST = "bbbc5fa5d18e26e9a6d88b5c02aae5d0"
DIGEST_CALLS = [
    [command, f"P({p},{q},{r})", *flag]
    for p, q, r in product(range(-7, 8), repeat=3)
    for command, *flag in (["classify"], ["classify", "--json"], ["surfaces"],
                           ["surfaces", "--json"], ["surfaces", "--csv"])
] + [
    ["classify", "--range", "-25:25", "--json"],
    ["classify", "--range", "-30:30"],
    ["classify", "C((1/3+1/5)+(1/2+1/7))"],
    ["classify", "M(1/1,1/3,1/5)", "--json"],
]


def _digest():
    md5 = hashlib.md5()
    for args in DIGEST_CALLS:
        md5.update(repr((args, *run_cli(args))).encode())
    digest = md5.hexdigest()
    print(f"{digest} over {len(DIGEST_CALLS)} commands")
    if digest != DIGEST:
        raise SystemExit(f"digest differs from the pinned {DIGEST}")


if __name__ == "__main__":
    if "--freeze" in sys.argv:
        _freeze()
    elif "--check-installed" in sys.argv:
        _check_installed()
    elif "--digest" in sys.argv:
        _digest()
    else:
        print(__doc__)
