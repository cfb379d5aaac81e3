"""Command line tests against byte-frozen golden files.

Regenerate the goldens after an intentional output change with

    python3 tests/test_cli.py --freeze

and review the diff before committing.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import pretzelrep
from pretzelrep import run

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


def test_exit_code_for_domain_errors():
    assert run_cli(["surfaces", "P(1,3,3)"])[0] == 2
    assert run_cli(["surfaces", "P(2,4,6)"])[0] == 2
    assert run_cli(["trace", "M(1/2)"])[0] == 2
    assert run_cli(["trace", "P(0,1,2)"])[0] == 2
    assert run_cli(["classify", "1/2"])[0] == 2


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


def test_closed_pipe_exits_1_without_traceback():
    src = Path(pretzelrep.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    # several MB of output, far more than a pipe buffers
    child = subprocess.Popen(
        [sys.executable, "-m", "pretzelrep", "classify", "--range", "-12:12", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.read(100).startswith(b"[\n  {")
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert b"Traceback" not in err
    assert err == b"" and child.returncode == 1


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


def test_error_paths_build_no_diagram(monkeypatch):
    original = pretzelrep.linktrace.pretzel_diagram

    def refuse(twists):
        raise AssertionError(f"a diagram was built for {tuple(twists)}")

    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pretzelrep" and getattr(module, "pretzel_diagram", None) is original:
            monkeypatch.setattr(module, "pretzel_diagram", refuse)
            patched.append(name)
    assert "pretzelrep.cli" in patched and "pretzelrep.linktrace" in patched
    for args, message in NO_DIAGRAM_ERRORS:
        for flag in ([], ["--json"]):
            assert run_cli(args + flag) == (2, "", f"error: {message}\n"), args + flag


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


if __name__ == "__main__":
    if "--freeze" in sys.argv:
        _freeze()
    else:
        print(__doc__)
