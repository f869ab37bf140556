"""Report bytes, pinned: the sha256 of stdout and the exit code of a fixed set
of commands, run through ``apsieve.cli.main`` in this process.

``report_digests.json`` was written by the code before the change that
added it, so a refactor that should not change a report is checked against
the bytes of the code it replaces.  A change that alters report bytes on
purpose regenerates the file and says so:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from apsieve.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), "report_digests.json")

# every reproduce target but prop1..prop4, at the default cap and at 44, the
# demo at p = 83 and at 421, the largest prime it admits, the markdown of
# thm1.1-demo, lemma3.4 and adem, and CI's check-type commands under both
# window policies
COMMANDS = [
    ("reproduce", "thm1.2"),
    ("reproduce", "--cap", "44", "thm1.2"),
    ("reproduce", "thm1.1-demo"),
    ("reproduce", "--p", "5", "thm1.1-demo"),
    ("reproduce", "--p", "7", "thm1.1-demo"),
    ("reproduce", "--p", "11", "thm1.1-demo"),
    ("reproduce", "--p", "83", "thm1.1-demo"),
    ("reproduce", "--p", "421", "thm1.1-demo"),
    ("reproduce", "lemma3.4"),
    ("reproduce", "adem"),
    ("reproduce", "bound"),
    ("reproduce", "--format", "markdown", "thm1.1-demo"),
    ("reproduce", "--format", "markdown", "lemma3.4"),
    ("reproduce", "--format", "markdown", "adem"),
] + [
    ("check-type", "--p", p, "--window-policy", policy, halves)
    for p, halves in (("5", "4,6,14"), ("3", "2,12,57,59"), ("5", "2,50,54"))
    for policy in ("standard", "exhaustive")
]


def _digest(args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args), standalone_mode=False)
    return {"args": list(args), "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _pinned() -> list[dict]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def test_pinned_commands_are_the_listed_ones():
    assert [tuple(entry["args"]) for entry in _pinned()] == COMMANDS


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_report_bytes_match_the_pinned_digest(args):
    pinned = {tuple(entry["args"]): entry for entry in _pinned()}
    assert _digest(args) == pinned[args]


if __name__ == "__main__":
    document = {
        "about": "sha256 of stdout and the exit code of each command through apsieve.cli.main; "
                 "regenerate with PYTHONPATH=src python tests/test_report_digests.py",
        "commands": [_digest(args) for args in COMMANDS],
    }
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(document, indent=2) + "\n")
