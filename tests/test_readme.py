"""README.md's code runs: its python blocks, its desk-scale table and its CLI lines.

Nothing here runs a command: each `xanfis ...` line is only parsed, and a
training command's config is built and handed to its run builder.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from xanfis import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text under the heading `title`, up to the next heading (## or deeper; # starts a sh comment)."""
    match = re.search(rf"^##+ {re.escape(title)}\n(.*?)(?=^##+ |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def blocks(lang, text=README):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def printed(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    return out.getvalue()


def cli_lines():
    """Each `xanfis ...` line of the sh blocks, with its backslash continuations joined."""
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["xanfis"]:
                yield words[1:]


CLI_LINES = list(cli_lines())
PYTHON = blocks("python")


@pytest.mark.parametrize("code", PYTHON, ids=[f"block{i}" for i in range(len(PYTHON))])
def test_python_block_runs(code):
    printed(code)


def test_desk_scale_snippet_prints_its_table():
    text = section("Desk-scale limits")
    table = re.findall(
        r"^\| (\w+) \| \d+ \| ([\d.]+) \| ([\d.]+) / ([\d.]+) \| ([\d.]+%) \|", text, re.M
    )
    (snippet,) = blocks("python", text)
    assert len(table) == 4
    assert [tuple(line.split()) for line in printed(snippet).splitlines()] == table


def test_cli_lines_found():
    assert sorted({argv[0] for argv in CLI_LINES}) == sorted(["export-partition", *cli.COMMANDS])


@pytest.mark.parametrize("argv", CLI_LINES, ids=[f"{a[0]}-{i}" for i, a in enumerate(CLI_LINES)])
def test_cli_line_parses(argv):
    args = cli.build_parser().parse_args(argv)
    if args.command in cli.COMMANDS:
        cfg, _ = cli.build_config(args)
        cli.COMMANDS[args.command][1](cfg)


def test_every_key_flag_is_accepted():
    (paragraph,) = [p for p in section("CLI").split("\n\n") if p.startswith("Key flags")]
    listed = set(re.findall(r"`(--[a-z-]+)", paragraph))
    accepted = set()
    for command in cli.COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        accepted.update(re.findall(r"--[a-z-]+", out.getvalue()))
    assert len(listed) == 23  # the 22 key flags and --config
    assert listed <= accepted, sorted(listed - accepted)
