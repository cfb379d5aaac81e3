"""Seeded exit-code fuzzing of the command line.

Valid spellings, in the style of conftest.random_expr, are mutated by
deleting, duplicating or swapping characters and by inserting digits.
Whatever the text, a command exits 0, 1 or 2 and raises nothing.
"""

import io
from random import Random

from conftest import random_expr
from pretzelrep import print_expr, run
from pretzelrep.cli import build_parser

COMMANDS = ("parse", "classify", "surfaces", "trace")


def _spelling(rng: Random) -> str:
    if rng.random() < 0.5:
        return "P({},{},{})".format(*(rng.randint(-9, 9) for _ in range(3)))
    return print_expr(random_expr(rng))


def _mutate(text: str, rng: Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.choice(("delete", "duplicate", "swap", "digit"))
        if op == "delete" and i < len(chars):
            del chars[i]
        elif op == "duplicate" and i < len(chars):
            chars.insert(i, chars[i])
        elif op == "swap" and i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
        else:
            chars.insert(i, rng.choice("0123456789"))
    return "".join(chars)


def test_mutated_input_keeps_the_exit_code_contract():
    rng = Random(20090)
    codes = set()
    for _ in range(2000):
        argv = [rng.choice(COMMANDS), _mutate(_spelling(rng), rng)]
        if rng.random() < 0.5:
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        codes.add(code)
    assert codes == {0, 1, 2}


# the five subcommands and one that does not exist
SUBCOMMANDS = ("classify", "surfaces", "lemma", "trace", "parse", "no-such-command")
RANGES = ("-3:3", "2:2", "3:1", "1:", ":3", "a:b", "1..3", "-3:3:3", "٣:5", "",
          "-200:200", "1:" + "9" * 5000, "--json")
# huge, negative, non-ASCII and malformed numbers; the valid ones stay small
MAXES = ("15", "2", "1", "0", "-5", "-0", "9" * 5000, "1000000", "٣", "１５",
         "1e3", " 7 ", "", "0x10", "--json")
FLAGS = ("--json", "--csv", "--help", "-h", "--bogus", "-x", "--json=1", "--")


def _argv(rng: Random) -> list[str]:
    groups = []
    if rng.random() < 0.95:
        groups.append([rng.choice(SUBCOMMANDS)])
    if rng.random() < 0.7:
        groups.append([_spelling(rng) if rng.random() < 0.7 else _mutate(_spelling(rng), rng)])
    for _ in range(rng.randint(0, 3)):
        pick = rng.random()
        if pick < 0.25:
            groups.append(["--range", rng.choice(RANGES)])
        elif pick < 0.5:
            groups.append(["--max", rng.choice(MAXES)])
        elif pick < 0.55:
            groups.append([rng.choice(("--range", "--max"))])  # a flag missing its value
        else:
            groups.append([rng.choice(FLAGS)])
    if rng.random() < 0.3:  # the subcommand need not come first
        rng.shuffle(groups)
    return [word for group in groups for word in group]


def test_mutated_argv_keeps_the_exit_code_contract(capsys):
    rng = Random(20091)
    codes = set()
    for _ in range(2000):
        argv = _argv(rng)
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        assert capsys.readouterr().out == "", argv
        codes.add(code)
    assert codes == {0, 1, 2}


def test_subcommand_dispatch_matches_the_top_level_parser(monkeypatch):
    """run hands the rest of an argv that starts with a subcommand straight
    to that subcommand's parser.  With the lookup made to find nothing,
    every argv goes through the top-level parser, the oracle: each
    command must exit, print and err exactly as it does there."""
    rng = Random(20092)
    argvs = [_argv(rng) for _ in range(2000)]

    def results():
        outcomes = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            outcomes.append((run(argv, out, err), out.getvalue(), err.getvalue()))
        return outcomes

    parsers = build_parser().subcommand_parsers
    leading = sum(bool(argv) and argv[0] in parsers for argv in argvs)
    assert 0 < leading < len(argvs)  # both paths are taken
    fast = results()
    monkeypatch.setattr(build_parser(), "subcommand_parsers", {})
    oracle = results()
    for argv, got, expected in zip(argvs, fast, oracle):
        assert got == expected, argv
    assert {code for code, _, _ in fast} == {0, 1, 2}
