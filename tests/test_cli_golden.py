"""Replay the frozen CLI transcript in ``cli_golden.json``.

Each entry is one ``pcbounds`` invocation run in-process from a fresh
directory holding the input files under relative names. Its stdout,
stderr and exit code must match byte for byte, and so must the sha256
of every file it writes. ``tests/make_cli_golden.py`` regenerates the
transcript.

argparse wraps help and usage text to the terminal width, so
``COLUMNS`` is pinned to 80. At that width the text is the same on
Python 3.10-3.12; 3.13 changed argparse's formatting, so entries
printed by argparse's formatter (``help``) are skipped there.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pcbounds.cli import run

_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _entry_id(index: int, entry: dict) -> str:
    return f"{index:03d}:" + (" ".join(entry["argv"]) or "<none>")


@pytest.mark.parametrize(
    "entry",
    _GOLDEN["entries"],
    ids=[_entry_id(i, e) for i, e in enumerate(_GOLDEN["entries"])],
)
def test_cli_output_matches_golden(entry, tmp_path, monkeypatch, capsys):
    if entry["help"] and sys.version_info >= (3, 13):
        pytest.skip("argparse formats help and usage differently from 3.13 on")
    for name, text in _GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    code = run(list(entry["argv"]))
    out, err = capsys.readouterr()
    assert out == entry["stdout"]
    assert err == entry["stderr"]
    assert code == entry["code"]
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name not in _GOLDEN["files"]
    }
    assert written == entry["written"]
