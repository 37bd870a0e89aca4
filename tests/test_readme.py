"""The examples in README.md, run as they are written.

Each ``$ qweights …`` line of a ``console`` block runs through
``cli.main``, and its stdout must equal the lines below it up to the next
``$`` line, trailing spaces aside (the text renderer pads its last column;
``golden_cli.json`` pins the exact bytes).  A ``$ echo $?`` line gives the
exit code of the command before it; a command with none must exit 0.  The
Python quick start runs, and each ``print`` must print the value its
comment gives, before any parenthesised note.
"""

import contextlib
import io
import pathlib
import re
import shlex

from qweights.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def blocks(text, lang):
    """The bodies of the fenced blocks of ``lang``, each a list of lines."""
    return [body.splitlines() for body in re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)]


def console_examples(text):
    """[argv, expected stdout lines, exit code] for each ``$ qweights`` line."""
    examples = []
    for lines in blocks(text, "console"):
        out = None
        for line in lines:
            if line == "$ echo $?":
                out = examples[-1][2] = []
            elif line.startswith("$ qweights "):
                examples.append([shlex.split(line[len("$ qweights "):]), [], None])
                out = examples[-1][1]
            else:
                assert not line.startswith("$"), f"unknown README command {line!r}"
                out.append(line.rstrip())
    return [(argv, expected, int(code[0]) if code else 0)
            for argv, expected, code in examples]


def console_mismatches(text):
    """Each example whose stdout or exit code differs from the README."""
    bad = []
    for argv, expected, code in console_examples(text):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            got_code = main(argv)
        got = [line.rstrip() for line in stdout.getvalue().splitlines()]
        if (got, got_code) != (expected, code):
            bad.append((argv, expected, code, got, got_code))
    return bad


def quick_start_mismatches(text):
    """(expected, printed) for each ``print`` line of the Python quick
    start whose output differs from its comment."""
    (lines,) = blocks(text, "python")
    expected = [re.sub(r"\s*\(.*\)$", "", line.split("#", 1)[1]).strip()
                for line in lines if line.startswith("print(")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec("\n".join(lines), {})
    printed = stdout.getvalue().splitlines()
    assert len(printed) == len(expected), printed
    return [(e, p) for e, p in zip(expected, printed) if e != p]


def test_console_examples():
    text = README.read_text()
    assert len(console_examples(text)) >= 4
    assert console_mismatches(text) == []


def test_quick_start():
    assert quick_start_mismatches(README.read_text()) == []


def test_a_wrong_example_fails():
    text = README.read_text()
    for old, new in (("1*q^1 + 1*q^2\n", "1*q^1 + 2*q^2\n"),
                     ("PASS coxeter G2\n", "FAIL coxeter G2\n"),
                     ("$ echo $?\n0\n", "$ echo $?\n1\n")):
        assert old in text
        assert console_mismatches(text.replace(old, new, 1))
    old = "print(p.evaluate(1))  # 4 "
    assert old in text
    assert quick_start_mismatches(text.replace(old, "print(p.evaluate(1))  # 5 "))
