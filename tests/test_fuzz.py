"""Seeded exit-code fuzzing of the command line.

Valid spellings, in the style of conftest.random_expr, are mutated by
deleting, duplicating or swapping characters and by inserting digits.
Whatever the text, a command exits 0, 1 or 2 and raises nothing.
"""

import io
from random import Random

from conftest import random_expr
from pretzelrep import print_expr, run

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
