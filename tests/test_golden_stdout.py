"""Golden guard: CLI stdout stays byte-identical across refactors.

Each command runs in-process through `cli.main` from a directory holding
the shipped fixtures as written by `ainfcat fixture NAME -o NAME.json`;
the sha256 of its stdout is compared with `golden_stdout.json`.  After an
intended change of report format, re-record with

    PYTHONPATH=src python tests/test_golden_stdout.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ainfcat import cli
from ainfcat.fixtures import FIXTURES, SHIPPED_MORPHISMS

GOLDEN = Path(__file__).with_name("golden_stdout.json")

COMMANDS: list[list[str]] = [
    *(["validate", f"{name}.json"] for name in sorted(FIXTURES)),
    *(["hh", f"{name}.json", "--max-length", "3"] for name in sorted(FIXTURES)),
    ["hh", "split_summand_pair.json", "--max-length", "3", "--ring", "F2"],
    *(
        ["cardy", f"{name}.json", "--morphism", f"coproduct_n{n}", "--max-length", "2"]
        for name, n in SHIPPED_MORPHISMS
    ),
    ["generate", "split_summand_pair.json", "--object", "K", "--subcategory", "L",
     "--max-length", "2", "--emit", "split.cert.json"],
    ["generate", "split_summand_pair.json", "--object", "K", "--replay", "split.cert.json"],
    ["strata", "R_5", "--equation", "ainf"],
]


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


def stdout_digests(workdir: Path) -> dict[str, str]:
    """sha256 of stdout per command, run in order (replay reads the emitted file)."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name in sorted(FIXTURES):
            _run(["fixture", name, "-o", f"{name}.json"])
        return {" ".join(argv): hashlib.sha256(_run(argv).encode()).hexdigest() for argv in COMMANDS}
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return stdout_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("command", [" ".join(argv) for argv in COMMANDS])
def test_stdout_matches_golden(digests, command):
    assert digests[command] == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(stdout_digests(Path(tmp)), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
