"""README.md, run.

Every line of a fenced `bash` block that starts with `tcpp ` (its `\\`
continuations joined) goes through `tcpp.cli.main` in a fresh directory,
with TCPP_SEED unset, and must exit with the code its trailing `# exit N`
states, or 0.  Every fenced `json` block is a campaign config or one spec a
line, every fenced `python` block runs, and every subcommand is shown.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from tcpp.cli import _load_campaign, build_parser, main
from tcpp.subordinators.spec import spec_from_json

README = Path(__file__).resolve().parents[1] / "README.md"
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
_EXIT = re.compile(r"#\s*exit\s+(\d+)\s*$")


def _blocks(lang: str) -> list:
    return [body for kind, body in _FENCE.findall(README.read_text()) if kind == lang]


def _commands() -> list:
    """(argv after `tcpp`, expected exit code) for each command line."""
    out = []
    for body in _blocks("bash"):
        for line in body.replace("\\\n", " ").splitlines():
            if line.startswith("tcpp "):
                code = _EXIT.search(line)
                out.append((shlex.split(line, comments=True)[1:], int(code[1]) if code else 0))
    return out


def _subcommands() -> dict:
    """Each subcommand's name and its own parser."""
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


COMMANDS = _commands()


def test_readme_runs_every_subcommand_and_a_refusal():
    text = README.read_text()
    assert [name for name in _subcommands() if f"tcpp {name}" not in text] == []
    assert len(COMMANDS) >= 8 and 3 in [code for _, code in COMMANDS]


@pytest.mark.parametrize("argv,code", COMMANDS,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(COMMANDS)])
def test_command_exits_as_documented(argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TCPP_SEED", raising=False)
    # every flag spelled in full: argparse would also take a prefix (--lam)
    options = {s for a in _subcommands()[argv[0]]._actions for s in a.option_strings}
    assert [a for a in argv if a.startswith("--") and a not in options] == []
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's own refusal
        rc = exc.code
    assert rc == code


@pytest.mark.parametrize("body", _blocks("json"))
def test_json_block_is_accepted(body, tmp_path):
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, list) or isinstance(doc, dict) and "requests" in doc:
        path = tmp_path / "campaign.json"
        path.write_text(body)
        assert _load_campaign(str(path))
    else:
        for line in filter(str.strip, body.splitlines()):
            spec_from_json(line)


@pytest.mark.parametrize("body", _blocks("python"))
def test_python_block_runs(body, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(body, str(README), "exec"), {})
