"""The CLI's help, usage and argument-error texts, byte for byte.

``tests/golden/cli-help.json`` pins stdout, stderr and the exit code of
``main`` for help requests and for argument errors at both levels, with
the help width fixed at 80 columns.  ``main`` builds only the parser of
the command it is given, so these cases also show that the texts do not
depend on which sibling subparsers exist.

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
from pathlib import Path
from unittest import mock

import pytest

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
    """A known command constructs its own parser alone; help, no
    arguments and an unknown command construct the full parser (the top
    level and six subparsers), and leftover arguments construct both."""
    original = argparse.ArgumentParser.__init__
    with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True,
                           side_effect=original) as spy:
        _run(argv)
    full = 1 + len(COMMANDS)
    if not argv or argv[0] not in COMMANDS:
        assert spy.call_count == full
    elif argv == ["verify", "x", "y"]:  # the full parser words the leftover error
        assert spy.call_count == 1 + full
    else:
        assert spy.call_count == 1


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    PINNED.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n",
                      encoding="utf-8")
