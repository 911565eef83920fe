"""Workload definitions, seeded fixture generation and the output check.

Every job is one `ainfcat` command line, run from the directory that holds
the generated fixture files.  Seed 0 writes the shipped fixtures exactly as
`ainfcat fixture NAME -o NAME.json` writes them; any other seed writes an
isomorphic copy whose generator names are permuted within each hom space,
which changes the basis order (and so the pivot order of every Smith normal
form) but no group, flag, count or verdict.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
import traceback
from pathlib import Path

DEFAULT_SEED = 0

ALL_FIXTURES = (
    "ground_ring",
    "dual_numbers",
    "even_dual_numbers",
    "path_category",
    "cone_algebra",
    "split_summand_pair",
    "two_object_with_zero",
    "triple_product_algebra",
)

# Negative degree ranges need the `--degrees=a..b` spelling: argparse reads
# `--degrees -2..1` as a missing value followed by an unknown flag.
WORKLOADS: dict[str, list[list[str]]] = {
    "hh-free": [
        ["hh", "split_summand_pair.json", "--max-length", "4"],
    ],
    "hh-torsion": [
        ["hh", "triple_product_algebra.json", "--max-length", "5", "--degrees=-2..1"],
        ["hh", "cone_algebra.json", "--max-length", "4"],
        ["hh", "split_summand_pair.json", "--max-length", "5", "--ring", "F2"],
    ],
    "cardy": [
        ["cardy", "split_summand_pair.json", "--morphism", "coproduct_n0", "--max-length", "3", "--solve"],
        ["cardy", "cone_algebra.json", "--morphism", "coproduct_n1", "--max-length", "4", "--solve"],
        ["cardy", "cone_algebra.json", "--morphism", "coproduct_n2", "--max-length", "4"],
    ],
    "validate": [
        *(["validate", f"{name}.json", "--depth", "6", "--bimodule-bound", "4"] for name in ALL_FIXTURES),
        ["generate", "split_summand_pair.json", "--object", "K", "--subcategory", "L",
         "--max-length", "3", "--emit", "split.cert.json"],
        ["generate", "split_summand_pair.json", "--object", "K", "--replay", "split.cert.json"],
        ["strata", "R_9", "--equation", "ainf"],
        ["strata", "C_6^-", "--equation", "homotopy"],
    ],
}

# Passes of every workload last 7-30 s, and a single one samples the host's
# drifting speed only once, so each untraced run takes at least two.
MIN_PASSES = 2

# Report fields that a renaming of generators leaves unchanged.  The input
# digest, certificate term counts and the size of a solved homotopy depend
# on the basis order and are compared only at the default seed, byte for byte.
INVARIANT_FIELDS = frozenset({
    "command", "mode", "object", "subcategory", "morphism", "degree", "max_length",
    "groups", "stable", "checks", "rational_only", "homotopy_equation",
    "homology_comparison", "homotopy", "space", "dimension", "count", "strata",
    "bijection", "verdict",
})


def fixtures_for(workload: str) -> list[str]:
    """The fixture names a workload's jobs read, in a fixed order."""
    used = {arg[: -len(".json")] for job in WORKLOADS[workload] for arg in job}
    return [name for name in ALL_FIXTURES if name in used]


def _renamed(raw: dict, seed: int, fixture: str) -> dict:
    """An isomorphic copy of a category file with names permuted per hom space."""
    rng = random.Random(f"{seed}/{fixture}")
    rename: dict[tuple[str, str, str], str] = {}
    for entry in raw["hom"]:
        names = [g["name"] for g in entry["generators"]]
        shuffled = names[:]
        rng.shuffle(shuffled)
        for old, new in zip(names, shuffled):
            rename[(entry["source"], entry["target"], old)] = new
        for g in entry["generators"]:
            g["name"] = rename[(entry["source"], entry["target"], g["name"])]
        entry["generators"].sort(key=lambda g: g["name"])

    def ref(r):
        return [r[0], r[1], rename[tuple(r)]]

    for op in raw.get("operations", []):
        for term in op["terms"]:
            term["inputs"] = [ref(r) for r in term["inputs"]]
            term["output"] = ref(term["output"])
        op["terms"].sort(key=lambda t: (t["inputs"], t["output"]))
    for chain in raw.get("units", {}).values():
        for term in chain:
            term["generator"] = ref(term["generator"])
        chain.sort(key=lambda t: t["generator"])
    for m in raw.get("morphisms", []):
        for c in m["components"]:
            c["inputs"] = [ref(r) for r in c["inputs"]]
            c["output_left"] = ref(c["output_left"])
            c["output_right"] = ref(c["output_right"])
        m["components"].sort(key=lambda c: json.dumps(c, sort_keys=True))
    return raw


def write_fixtures(cli, workdir: Path, names: list[str], seed: int) -> list[Path]:
    """Write each fixture with `ainfcat fixture`, then rename it for the seed."""
    paths = []
    for name in names:
        path = workdir / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["fixture", name, "-o", str(path)])
        if code != 0:
            raise RuntimeError(f"ainfcat fixture {name} exited with {code}")
        if seed != DEFAULT_SEED:
            raw = _renamed(json.loads(path.read_text()), seed, name)
            path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
        paths.append(path)
    return paths


def load_all(fileformat, paths: list[Path]) -> None:
    """One load and schema validation of each fixture file."""
    for path in paths:
        fileformat.load_category(path.read_bytes())


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def invariants(text: str) -> dict:
    """The renaming-invariant fields of a text report (`key: value` lines)."""
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key not in INVARIANT_FIELDS:
            continue
        if key == "homotopy":
            value = value.split(" (")[0]  # "solved (N entries)": N depends on the basis order
        fields[key] = value
    return fields


def check(expected: dict, code: int | None, text: str, seed: int) -> str | None:
    """None when a job's exit code and report are as recorded, else why not."""
    if code is None:
        return "raised:\n" + text
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if seed == DEFAULT_SEED:
        if stdout_digest(text) != expected["stdout_sha256"]:
            return "stdout differs from the recorded report"
    elif invariants(text) != expected["invariants"]:
        return f"report fields {invariants(text)} differ from {expected['invariants']}"
    return None


@contextlib.contextmanager
def working_directory(path: Path):
    """Run the enclosed jobs from `path`, where their file arguments live."""
    home = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(home)


def run_pass(cli, jobs: list[list[str]]) -> tuple[float, list[tuple[int | None, str]]]:
    """Run the job list once, in order; return its wall time and each outcome.

    An outcome is (exit code, stdout).  A job that raises gets exit code
    None and the traceback in place of its report, and the pass goes on.
    """
    outcomes = []
    start = time.perf_counter()
    for job in jobs:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(job)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            outcomes.append((None, traceback.format_exc()))
            continue
        outcomes.append((code, out.getvalue()))
    return time.perf_counter() - start, outcomes
