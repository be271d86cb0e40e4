"""The CLI's help, usage and argument-error texts, byte for byte.

``tests/golden/cli-help.json`` pins stdout, stderr and the exit code of
``main`` for help requests and for argument errors at both levels, with
the help width fixed at 80 columns.  ``main`` reads a well-formed command
line off the command table without argparse and builds the full parser
for the rest.  The reader is checked against each command's own argparse
parser, built here from the same table, on seeded command lines: it
declines or agrees.

The texts are those of Python 3.11's argparse.  Regenerate (only when an
output change is intended, or for an argparse that words its messages
differently) with ``PYTHONPATH=src python tests/test_cli_help.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
from pathlib import Path
from unittest import mock

import pytest

from extendix import cli
from extendix.cli import main

PINNED = Path(__file__).parent / "golden" / "cli-help.json"
COMMANDS = ("analyze", "convert", "certify", "verify", "search", "randgen")

CASES = [
    [], ["--help"], ["-h"], ["bogus"], ["--", "analyze"], ["-h", "analyze"],
    ["analyze"], ["verify"], ["certify", "x"],
    ["certify", "x", "--claim", "foo", "--k", "1"], ["randgen", "--kind", "bg"],
    ["analyze", "x", "--bogus"], ["verify", "x", "y"],
    ["search", "--target", "minimal_k_strong", "--n-max", "x"],
] + [[command, "--help"] for command in COMMANDS] + [
    ["certify", "x", "--cl", "k-strong", "--k", "1"],
    ["certify", "x", "--claim", "k-strong", "--k=1", "--bogus"],
    ["convert", "x", "--direction", "g2d", "extra"],
    ["search", "--target", "minimal_k_strong", "--n-max", "2", "--bogus"],
    ["analyze", "--", "x"], ["analyze", "--he"], ["verify", "-h", "x"],
    ["certify", "x", "--claim", "k-strong", "--k", "-1"],
]


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.fixture
def width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) or "<none>" for a in CASES])
def test_help_and_usage_texts(argv, width):
    pinned = {tuple(case["argv"]): case
              for case in json.loads(PINNED.read_text(encoding="utf-8"))}
    assert _run(argv) == pinned[tuple(argv)]


@pytest.mark.parametrize("argv", [[command, "--help"] for command in COMMANDS]
                         + [["--help"], [], ["bogus"], ["--", "analyze"],
                            ["certify", "x", "--claim", "k-strong", "--k", "1"],
                            ["verify", "x", "y"]])
def test_only_the_invoked_subparser_is_built(argv, width):
    """A well-formed command line is read off the command table and builds
    no parser; every other line, a known command's help and leftover
    arguments among them, builds the full parser (the top level and six
    subparsers) and no other."""
    original = argparse.ArgumentParser.__init__
    with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True,
                           side_effect=original) as spy:
        _run(argv)
    if argv == ["certify", "x", "--claim", "k-strong", "--k", "1"]:
        assert spy.call_count == 0
    else:
        assert spy.call_count == 1 + len(COMMANDS)


# ---------------------------------------------------------------------------
# the reader against argparse

WELL_FORMED = [
    ["analyze", "x.bg"], ["analyze", "--kind", "mat", "x", "--out", "o"],
    ["convert", "x", "--direction", "d2g"],
    ["convert", "--matching", "1-1,2-2", "--direction", "g2d", "x", "--out", ""],
    ["certify", "x", "--claim", "k-strong", "--k", "1"],
    ["certify", "x", "--k", "0", "--claim", "k-extendable", "--out", "3", "--k", "2"],
    ["verify", ""], ["verify", "a b"],
    ["search", "--target", "minimal_k_strong", "--n-max", "5"],
    ["search", "--n-max", "4", "--target", "minimality_counterexample", "--k", "2",
     "--limit", "1", "--out", "s"],
    ["randgen", "--kind", "bg", "--n", "3"],
    ["randgen", "--n", "6", "--kind", "dg", "--p", "0.25", "--seed", "7", "--out", "r"],
    ["randgen", "--kind", "mat", "--n", "2", "--p", "nan"],
]

# values every option is tried with: some its own, most wrong for it
VALUES = ["", "x", "-1", "1", "2", "0", "0.5", "1e3", "nan", "1_0", "foo", "-", "--",
          "-h", "bg", "mat", "k-strong", "k-irreducible", "g2d", "m2g",
          "minimal_k_extendable", "--out", "--k=2"]
# tokens that need argparse: help, the separator, --flag=value, abbreviations
ODD = ["--", "-h", "--help", "--he", "--k=2", "--out=o", "--cl", "--dir", "--n-m",
       "--ki", "--bogus", "-k", "-1", "x", ""]


def _corpus(count: int, seed: int) -> list[list[str]]:
    """Seeded command lines built from the table: positionals, flags with
    valid or wrong values, shuffled, repeated, dropped and salted with
    tokens only argparse reads."""
    rng = random.Random(seed)

    def pair(opt):
        good = [str(c) for c in opt.choices or ()] or {
            int: ["0", "1", "3"], float: ["0.5", "1"]}.get(opt.type, ["x", "o"])
        return [opt.flag, rng.choice(good) if rng.random() < 0.8 else rng.choice(VALUES)]

    out = []
    for _ in range(count):
        name = rng.choice(COMMANDS)
        positionals, options = cli._ARGUMENTS[name]
        pairs = [[rng.choice(VALUES + ["x", "x", "x"])] for _ in positionals]
        given = [opt for opt in options if opt.required or rng.random() < 0.5]
        pairs += [pair(opt) for opt in given]
        if given and rng.random() < 0.3:  # a repeated flag, most often with another value
            pairs.append(pair(rng.choice(given)))
        if rng.random() < 0.2 and pairs:
            pairs.pop(rng.randrange(len(pairs)))
        rng.shuffle(pairs)
        argv = [name] + [token for pair in pairs for token in pair]
        if rng.random() < 0.3:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(ODD))
        out.append(argv)
    return out


def _handlers() -> dict:
    return {name: func for name, _, func in cli._commands()}


def _command_parser(name: str, func):
    """Command ``name``'s own argparse parser, the reference for the reader:
    it acts as its subparser in ``build_parser`` would."""
    return cli._declare(argparse.ArgumentParser(prog=f"extendix {name}"), name, func)


def _values(namespace) -> dict:
    """A namespace's values by repr, which tells 1 from 1.0 and '1' and
    equates nan with itself."""
    return {key: repr(value) for key, value in vars(namespace).items()}


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_the_reader_accepts_well_formed_lines(argv):
    func = _handlers()[argv[0]]
    args = cli._read_args(argv[0], func, argv[1:])
    assert args is not None
    namespace, rest = _command_parser(argv[0], func).parse_known_args(argv[1:])
    assert (rest, _values(args)) == ([], _values(namespace))


def test_the_reader_agrees_with_argparse_or_declines():
    """Over every pinned case and 3,000 seeded lines, the reader either
    declines or gives exactly argparse's namespace, and argparse then
    leaves nothing over."""
    handlers = _handlers()
    parsers = {name: _command_parser(name, func) for name, func in handlers.items()}
    accepted = 0
    for argv in CASES + _corpus(3000, seed=20):
        if not argv or argv[0] not in handlers:
            continue
        args = cli._read_args(argv[0], handlers[argv[0]], argv[1:])
        if args is None:
            continue
        accepted += 1
        namespace, rest = parsers[argv[0]].parse_known_args(argv[1:])
        assert (rest, _values(args)) == ([], _values(namespace)), argv
    assert accepted >= 500


@pytest.mark.parametrize("argv", [
    ["analyze", "x", "--kind", "-1"], ["analyze", "x", "--kind"], ["analyze", "x", "y"],
    ["analyze", "--", "x"], ["analyze", "x", "--out=o"], ["analyze", "x", "--ou", "o"],
    ["analyze", "-h"], ["analyze", "x", "--kind", "graph"], ["analyze"],
    ["certify", "x", "--claim", "k-strong", "--k", "-1"],
    ["certify", "x", "--claim", "k-strong", "--k", "one"],
    ["certify", "x", "--claim", "k-strong"], ["randgen", "--kind", "bg", "--n", ""],
], ids=" ".join)
def test_the_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_args(argv[0], _handlers()[argv[0]], argv[1:]) is None


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    PINNED.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n",
                      encoding="utf-8")
