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
    # the mod-2 reduction at load: mu^1 = +-2 vanishes, morphisms reduce
    ["validate", "cone_algebra.json", "--ring", "F2"],
    ["validate", "dual_numbers.json", "--ring", "F2"],
    ["validate", "split_summand_pair.json", "--ring", "F2"],
    ["hh", "cone_algebra.json", "--max-length", "3", "--ring", "F2"],
    # degree windows: the complex is built only around the degrees asked
    # for; the last window reaches past the top degree (0 at N = 3)
    ["hh", "triple_product_algebra.json", "--max-length", "4", "--degrees=-2..0"],
    ["hh", "cone_algebra.json", "--max-length", "4", "--degrees=-3..-1"],
    ["hh", "cone_algebra.json", "--max-length", "4", "--degrees=-3..-1", "--ring", "F2"],
    ["hh", "split_summand_pair.json", "--max-length", "3", "--degrees=-1..0"],
    ["hh", "split_summand_pair.json", "--max-length", "3", "--degrees=0..2"],
    *(
        ["cardy", f"{name}.json", "--morphism", f"coproduct_n{n}", "--max-length", "2"]
        for name, n in SHIPPED_MORPHISMS
    ),
    # the homotopy solve's assembly: a nonzero solution and an unsolvable
    # system; telescoping solves with co-sign +1 have the zero solution
    ["cardy", "cone_algebra.json", "--morphism", "coproduct_n1", "--max-length", "3", "--solve",
     "--co-sign", "-1"],
    ["cardy", "split_summand_pair.json", "--morphism", "coproduct_n0", "--max-length", "2", "--solve",
     "--co-sign", "-1"],
    ["cardy", "cone_algebra.json", "--morphism", "coproduct_n2", "--max-length", "2", "--co-sign", "-1"],
    # a failing witness whose residual has two terms, printed in hom(K, K) basis order
    ["cardy", "cone_algebra.json", "--morphism", "coproduct_n0", "--max-length", "2", "--co-sign", "-1"],
    # at scale: the tensor complex truncated one length shorter, the
    # induced maps on homology read over many classes
    ["cardy", "split_summand_pair.json", "--morphism", "coproduct_n0", "--max-length", "5", "--solve"],
    ["cardy", "cone_algebra.json", "--morphism", "coproduct_n1", "--max-length", "5", "--solve",
     "--co-sign", "-1"],
    ["generate", "split_summand_pair.json", "--object", "K", "--subcategory", "L",
     "--max-length", "2", "--emit", "split.cert.json"],
    ["generate", "split_summand_pair.json", "--object", "K", "--replay", "split.cert.json"],
    ["strata", "R_5", "--equation", "ainf"],
    ["strata", "R_2|1|3", "--equation", "bimodule_hom"],
    ["strata", "R_4^1", "--equation", "hochschild"],
    # failing cases: the witness lines print violations and residuals in order
    ["validate", "triple_mu3_negated.json"],
    ["validate", "triple_mu3_negated.json", "--depth", "2", "--bimodule-bound", "4"],
    ["validate", "cone_n1_negated.json"],
    # a file-driven cardy section: the OC entries on length-2 words lie
    # past the truncation at N = 1 and the length-3 homotopy entry at
    # N = 1 and 2 (both pass); at N = 3 that entry is read and fails
    *(
        ["cardy", "cone_cardy_tables.json", "--morphism", "coproduct_n2", "--max-length", str(n)]
        for n in (1, 2, 3)
    ),
]


def _ref(name: str) -> list[str]:
    return ["*", "*", name]


# the cardy section of cone_cardy_tables.json, written out by hand: the
# closed complex is hom(*, *) with -mu^1, CO the identity, OC the five
# entries of mu o CC(coproduct_n2) and one homotopy entry (p, p, p) -> v
CONE_CARDY_SECTION = {
    "morphism": "coproduct_n2",
    "degree": 2,
    "closed_complex": {
        "basis": [
            {"name": "p", "degree": 0},
            {"name": "q", "degree": 0},
            {"name": "u", "degree": 1},
            {"name": "v", "degree": -1},
        ],
        "differential": [
            {"input": "v", "output": "p", "coefficient": 2},
            {"input": "v", "output": "q", "coefficient": 2},
            {"input": "p", "output": "u", "coefficient": -2},
            {"input": "q", "output": "u", "coefficient": 2},
        ],
    },
    "chain_maps": {
        "co": [{"input": name, "output": _ref(name), "coefficient": 1} for name in "pquv"],
        "oc": [
            {"word": [_ref("v")], "output": "u", "coefficient": -2},
            {"word": [_ref("p"), _ref("v")], "output": "p", "coefficient": 1},
            {"word": [_ref("q"), _ref("v")], "output": "p", "coefficient": -1},
            {"word": [_ref("v"), _ref("p")], "output": "p", "coefficient": 1},
            {"word": [_ref("v"), _ref("q")], "output": "p", "coefficient": -1},
        ],
        "homotopy": [{"word": [_ref("p")] * 3, "output": _ref("v"), "coefficient": 1}],
    },
}


def write_mutants() -> None:
    """Three files next to the fixtures: triple_product_algebra with its
    first mu^3 constant negated; cone_algebra with the (v,) -> p (x) q
    component of coproduct_n1 negated (a two-term residual); and
    cone_algebra with the cardy section CONE_CARDY_SECTION."""
    raw = json.loads(Path("triple_product_algebra.json").read_text())
    (op,) = [op for op in raw["operations"] if op["arity"] == 3]
    op["terms"][0]["coefficient"] *= -1
    Path("triple_mu3_negated.json").write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    raw = json.loads(Path("cone_algebra.json").read_text())
    (m,) = [m for m in raw["morphisms"] if m["name"] == "coproduct_n1"]
    (c,) = [
        c for c in m["components"]
        if c["inputs"] == [["*", "*", "v"]] and (c["output_left"][2], c["output_right"][2]) == ("p", "q")
    ]
    c["coefficient"] *= -1
    Path("cone_n1_negated.json").write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    raw = json.loads(Path("cone_algebra.json").read_text())
    raw["cardy"] = CONE_CARDY_SECTION
    Path("cone_cardy_tables.json").write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")


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
        write_mutants()
        return {" ".join(argv): hashlib.sha256(_run(argv).encode()).hexdigest() for argv in COMMANDS}
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return stdout_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("command", [" ".join(argv) for argv in COMMANDS])
def test_stdout_matches_golden(digests, command):
    assert digests[command] == json.loads(GOLDEN.read_text())[command]


def test_golden_file_holds_exactly_the_commands():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(argv) for argv in COMMANDS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(stdout_digests(Path(tmp)), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
