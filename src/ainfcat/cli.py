"""Command-line surface: validate, hh, generate, cardy, strata (+ fixture).

Reports are deterministic: identical inputs and flags produce
byte-identical stdout (timing goes to stderr).  Exit codes: 0 for a
passing/successful verdict, 1 for a mathematical failure (a violated
equation, a failed comparison, an inconclusive or refuted certificate),
2 for input errors (unreadable files, schema violations, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from . import fixtures as fixture_mod
from .bimodules import (
    DiagonalBimodule,
    PairGen,
    tensor_over_category,
    verify_bimodule,
    verify_bimodule_hom,
)
from .cardy import (
    OpenClosedData,
    generated_submodules,
    homotopy_map,
    mu_cc_map,
    solve_homotopy,
    telescoping_data,
    verify_cardy_on_homology,
    verify_homotopy_equation,
)
from .complexes import GradedMap, table_terms
from .core import RING_Z, morphism_depth, relation_depth, verify_ainf
from .fileformat import (
    InputError,
    _pointer,
    category_to_json,
    certificate_to_json,
    load_category,
    load_certificate,
    morphism_to_json,
    subcategory_refusal,
)
from .generation import NotACycle, generation_test, replay_certificate, verify_cohomological_unit
from .hochschild import ChainMapViolation, hochschild_homology, truncated_cc
from .intlinalg import RationalOnly, Unsolvable
from .strata import (
    EQUATIONS,
    annulus,
    bidisc,
    dimension,
    disc,
    enumerate_codim1,
    interpolation,
    punctured_disc,
    strata_term_bijection,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError(f"cannot write {path}: {err}")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    lines = [f"command: {report['command']}"]
    if report.get("inputs"):
        lines.append(f"inputs: {report['inputs']}")
    for key in sorted(report):
        if key in ("command", "inputs", "verdict", "witnesses"):
            continue
        value = report[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    for w in report.get("witnesses", []):
        lines.append(f"witness: {w}")
    lines.append(f"verdict: {report['verdict']}")
    sys.stdout.write("\n".join(lines) + "\n")


def _witnesses(report) -> list[str]:
    return [str(v) for v in report.violations[:5]]


# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    data = _read(args.path)
    loaded = load_category(data, ring=args.ring)
    cat = loaded.category
    report = {"command": "validate", "inputs": loaded.digest, "checks": {}}
    ok = True

    r = verify_ainf(cat, args.depth)
    report["checks"]["structure_relations"] = {"checked": r.checked, "passed": r.passed}
    witnesses = _witnesses(r)
    ok &= r.passed

    diagonal = DiagonalBimodule(cat)
    if ok:
        rb = verify_bimodule(diagonal, max_inputs=args.bimodule_bound)
        report["checks"]["diagonal_bimodule"] = {"checked": rb.checked, "passed": rb.passed}
        witnesses += _witnesses(rb)
        ok &= rb.passed

    for obj in sorted(cat.units):
        try:
            ur = verify_cohomological_unit(cat, obj, cat.units[obj])
        except NotACycle as err:
            raise InputError(str(err), path=_pointer("units", obj))
        report["checks"][f"unit[{obj}]"] = {"passed": ur.passed}
        if not ur.passed:
            witnesses += [str(f) for f in ur.failures[:3]]
        ok &= ur.passed

    for name, phi in loaded.morphisms.items():
        mr = verify_bimodule_hom(phi, max_inputs=args.bimodule_bound)
        report["checks"][f"morphism[{name}]"] = {"checked": mr.checked, "passed": mr.passed}
        witnesses += _witnesses(mr)
        ok &= mr.passed

    report["witnesses"] = witnesses
    report["verdict"] = "pass" if ok else "fail"
    _emit(report, args.json)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_hh(args) -> int:
    data = _read(args.path)
    loaded = load_category(data, ring=args.ring)
    cat = loaded.category
    if not verify_ainf(cat, relation_depth(cat)).passed:
        raise CliError("category fails the structure relations", code=EXIT_FAIL)
    res = hochschild_homology(cat, args.max_length, args.degrees)
    groups = {str(k): str(res.groups[k]) for k in sorted(res.groups)}
    stable = {str(k): res.stable[k] for k in sorted(res.stable)}
    report = {
        "command": "hh",
        "inputs": loaded.digest,
        "max_length": args.max_length,
        "groups": groups,
        "stable": stable,
        "verdict": "pass",
    }
    _emit(report, args.json)
    return EXIT_PASS


def cmd_generate(args) -> int:
    data = _read(args.path)
    loaded = load_category(data)
    cat = loaded.category
    if cat.ring != RING_Z:
        raise InputError("generation certificates are integral; the ring must be Z", path="/ring")
    K = args.object
    if K not in cat.objects:
        raise CliError(f"unknown object {K!r}")
    B = args.subcategory.split(",") if args.subcategory is not None else list(cat.objects)
    bad = subcategory_refusal(B, cat.objects)
    if bad:
        raise CliError(bad[1])
    if K not in cat.units:
        raise CliError(f"no unit chain declared for object {K!r}")
    e = cat.units[K]

    if args.replay:
        cert = load_certificate(_read(args.replay), cat, loaded.digest)
        if cert.K != K:
            raise InputError(f"the certificate is for object {cert.K!r}, not {K!r}", path="/object")
        if args.subcategory is not None and set(B) != set(cert.B_objects):
            certified, asked = (",".join(sorted(b)) for b in (cert.B_objects, B))
            raise InputError(f"the certificate is for subcategory {certified!r}, not {asked!r}", path="/subcategory")
        if args.max_length is not None and args.max_length != cert.max_length:
            raise InputError(
                f"the certificate is for max length {cert.max_length}, not {args.max_length}", path="/max_length"
            )
        out = replay_certificate(cat, cert, e)
        report = {
            "command": "generate",
            "inputs": loaded.digest,
            "mode": "replay",
            "verdict": out.verdict,
            "detail": out.detail,
            "witnesses": [],
        }
        _emit(report, args.json)
        return EXIT_PASS if out.generated else EXIT_FAIL

    max_length = 2 if args.max_length is None else args.max_length
    try:
        cert = generation_test(cat, B, K, e, max_length)
    except NotACycle as err:
        raise InputError(str(err), path=_pointer("units", K))
    except ValueError as err:
        raise CliError(str(err), code=EXIT_FAIL)
    report = {
        "command": "generate",
        "inputs": loaded.digest,
        "object": K,
        "subcategory": sorted(B),
        "max_length": max_length,
        "verdict": cert.verdict,
        "rational_only": cert.rational_only,
        "detail": cert.detail,
        "witnesses": [],
    }
    if cert.generated:
        report["tau_terms"] = len(cert.tau)
        report["h_terms"] = len(cert.h)
    if args.emit:
        _write(args.emit, json.dumps(certificate_to_json(cert, loaded.digest), sort_keys=True, indent=2) + "\n")
        report["emitted"] = args.emit
    _emit(report, args.json)
    return EXIT_PASS if cert.generated else EXIT_FAIL


def cmd_cardy(args) -> int:
    data = _read(args.path)
    loaded = load_category(data)
    cat = loaded.category
    if cat.ring != RING_Z:
        raise InputError("cardy compares integral homology classes; the ring must be Z", path="/ring")
    name = args.morphism
    if name is None:
        if len(loaded.morphisms) != 1:
            raise CliError("specify --morphism; the file declares " + str(len(loaded.morphisms)))
        (name,) = loaded.morphisms
    maps = None if args.telescoping else loaded.cardy_maps
    if maps is not None and name != loaded.raw["cardy"]["morphism"]:
        raise InputError(f"the chain maps are for morphism {loaded.raw['cardy']['morphism']}", path="/cardy/morphism")
    phi = loaded.morphisms.get(name)
    if phi is None:
        raise InputError(f"no morphism named {name} in file", path="/morphisms")
    if not verify_ainf(cat, relation_depth(cat)).passed:
        raise CliError("category fails the structure relations", code=EXIT_FAIL)
    mr = verify_bimodule_hom(phi, max_inputs=morphism_depth(cat, phi.components))
    if not mr.passed:
        raise CliError(f"morphism {name} fails the bimodule-map equation", code=EXIT_FAIL)
    cc = truncated_cc(cat, args.max_length)
    # CC(phi) sends a word of length d to tensor words with at most d - 1
    # middle letters and end letters from phi's outputs; the tensor
    # differential never lengthens a word, and the words with end letters
    # in the submodules those outputs generate span a subcomplex, so this
    # one holds every word the map reaches
    tcx = tensor_over_category(*generated_submodules(phi), max(args.max_length - 1, 0))

    # mu o CC(phi) is built and its CC(phi) part verified once, here
    mu_cc = mu_cc_map(phi, cc, tcx)
    try:
        if maps is not None:
            closed = loaded.cardy_closed
            oc = GradedMap.from_terms(cc, closed, phi.n, table_terms(cc, maps["oc"]), name="oc")
            co = GradedMap.from_terms(closed, mu_cc.target, 0, table_terms(closed, maps["co"]), name="co")
            data_obj = OpenClosedData(cat=cat, mu_cc=mu_cc, oc=oc, co=co)
        else:
            data_obj = telescoping_data(cat, mu_cc, co_sign=args.co_sign)
    except ChainMapViolation as err:
        if err.culprit is mu_cc:  # built from the category and phi, not read from the chain maps
            raise CliError(str(err), code=EXIT_FAIL)
        raise InputError(str(err), path=f"/cardy/chain_maps/{err.culprit.name}")
    H = homotopy_map(data_obj, {} if maps is None else maps["homotopy"])

    report = {
        "command": "cardy",
        "inputs": loaded.digest,
        "morphism": name,
        "degree": data_obj.n,
        "max_length": args.max_length,
        "witnesses": [],
    }
    ok = True
    if args.solve:
        out = solve_homotopy(data_obj)
        if isinstance(out, Unsolvable):
            report["homotopy"] = "no-solution"
            ok = False
        elif isinstance(out, RationalOnly):
            report["homotopy"] = "no-integral-solution"
            ok = False
        else:
            H = out
            entries = sum(len(row) for k in cc.degrees() for row in H.matrix(k).entries)
            report["homotopy"] = f"solved ({entries} entries)"
    hr = verify_homotopy_equation(data_obj, H)
    report["homotopy_equation"] = {"checked": hr.checked, "passed": hr.passed}
    report["witnesses"] += _witnesses(hr)
    ok &= hr.passed
    cr = verify_cardy_on_homology(data_obj)
    report["homology_comparison"] = {"checked": cr.checked, "passed": cr.passed}
    report["witnesses"] += _witnesses(cr)
    ok &= cr.passed
    report["verdict"] = "pass" if ok else "fail"
    _emit(report, args.json)
    return EXIT_PASS if ok else EXIT_FAIL


_SPACE_RE = re.compile(
    r"^(?:R_?(?P<d>\d+)(?P<punct>\^1)?|R_?\{?(?P<r>\d+)\|1\|(?P<s>\d+)\}?|C_?(?P<cd>\d+)\^?-?|P_?(?P<pd>\d+))$"
)


def parse_space(spec: str):
    m = _SPACE_RE.match(spec)
    if not m:
        raise CliError(
            f"cannot parse space {spec!r}; expected forms like R_4, R_2|1|1, R_3^1, C_2^-, P_3"
        )
    if m.group("r") is not None:
        return bidisc(int(m.group("r")), int(m.group("s")))
    if m.group("d") is not None:
        d = int(m.group("d"))
        return punctured_disc(d) if m.group("punct") else disc(d)
    if m.group("cd") is not None:
        return annulus(int(m.group("cd")))
    return interpolation(int(m.group("pd")))


def cmd_strata(args) -> int:
    try:
        space = parse_space(args.space)
    except ValueError as err:
        raise CliError(str(err))
    report = {
        "command": "strata",
        "inputs": args.space,
        "space": repr(space),
        "dimension": dimension(space),
        "witnesses": [],
    }
    strata = enumerate_codim1(space)
    report["count"] = len(strata)
    report["strata"] = [
        {
            "family": lab.family,
            "outer": repr(lab.outer) if lab.outer else None,
            "inner": repr(lab.inner) if lab.inner else None,
            "data": list(lab.data),
        }
        for lab in strata
    ]
    ok = True
    if args.equation:
        supported = EQUATIONS.get(space.kind)
        if args.equation != supported:
            only = f"only --equation {supported}" if supported else "no --equation"
            raise CliError(f"space {args.space} supports {only}")
        bij = strata_term_bijection(space, args.equation)
        report["bijection"] = {
            "equation": args.equation,
            "matched": len(bij.pairs),
            "strip_terms": len(bij.strip_terms),
            "passed": bij.passed,
        }
        if not bij.passed:
            report["witnesses"].append(bij.mismatch)
        ok = bij.passed
    report["verdict"] = "pass" if ok else "fail"
    _emit(report, args.json)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_fixture(args) -> int:
    if args.name not in fixture_mod.FIXTURES:
        raise CliError(f"unknown fixture {args.name!r}; available: {sorted(fixture_mod.FIXTURES)}")
    cat = fixture_mod.FIXTURES[args.name]()
    # the shipped morphisms' tables, names resolved, written without building
    # a bimodule: loading the file builds and checks them
    byname = {g.name: g for g in cat.generators()}
    tables = []
    for fixture, n in fixture_mod.SHIPPED_MORPHISMS:
        if fixture == args.name:
            comps: dict = {}
            for r, s, key, (p, q), c in fixture_mod._MORPHISM_TABLES[(fixture, n)]:
                chain = comps.setdefault((r, s), {}).setdefault(tuple(byname[x] for x in key), {})
                chain[PairGen(byname[p], byname[q])] = c
            K = fixture_mod.MORPHISM_BASE_OBJECT[fixture]
            tables.append(morphism_to_json(f"coproduct_n{n}", K, n, comps))
    payload = json.dumps(category_to_json(cat, morphism_tables=tables or None), sort_keys=True, indent=2) + "\n"
    if args.output:
        _write(args.output, payload)
        sys.stdout.write(f"wrote {args.output}\n")
    else:
        sys.stdout.write(payload)
    return EXIT_PASS


def _at_least(minimum: int):
    """argparse type: an integer bound that checks something."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _degree_range(spec: str) -> range:
    """argparse type: an inclusive, nonempty degree range a..b."""
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", spec)
    if not m:
        raise argparse.ArgumentTypeError(f"bad degree range {spec!r}; expected a..b")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise argparse.ArgumentTypeError("empty degree range")
    return range(a, b + 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every main(argv)
    call parses with it, and parsing leaves no state in it.

    Each subparser binds its cmd_* function when the parser is built, so
    replacing cli.cmd_* (a monkeypatch, say) after the first call does not
    change what main() dispatches to.
    """
    ap = argparse.ArgumentParser(prog="ainfcat", description="Exact checker for categories with higher products")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema plus structure verification")
    p.add_argument("path")
    p.add_argument("--depth", type=_at_least(1), default=4, help="largest relation arity checked")
    p.add_argument("--bimodule-bound", type=_at_least(0), default=3, help="bound on bimodule inputs r+s")
    p.add_argument("--ring", choices=("Z", "F2"), help="override the coefficient ring (Z data reduces mod 2)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hh", help="truncated cyclic homology with stabilization flags")
    p.add_argument("path")
    p.add_argument("--max-length", type=_at_least(1), required=True)
    p.add_argument(
        "--degrees", type=_degree_range, help="inclusive degree range, written --degrees=a..b (a negative start needs the =)"
    )
    p.add_argument("--ring", choices=("Z", "F2"), help="override the coefficient ring (Z data reduces mod 2)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("generate", help="search for a split-generation certificate")
    p.add_argument("path")
    p.add_argument("--object", required=True)
    p.add_argument("--subcategory", help="comma-separated objects (default: all)")
    p.add_argument("--max-length", type=_at_least(0))  # 2 when not given; a given one must match a replayed certificate
    p.add_argument("--emit", help="write the certificate to this file")
    p.add_argument("--replay", help="re-verify a previously emitted certificate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cardy", help="verify the open/closed consistency square")
    p.add_argument("path")
    p.add_argument("--morphism", help="name of the coproduct-type morphism in the file")
    p.add_argument("--max-length", type=_at_least(1), default=3)
    p.add_argument("--solve", action="store_true", help="solve for the homotopy instead of assuming zero")
    p.add_argument("--co-sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--telescoping", action="store_true", help="force the self-referential configuration even when map tables are present")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cardy)

    p = sub.add_parser("strata", help="boundary strata tables and term bijections")
    p.add_argument("space", help="R_4, R_2|1|1, R_3^1, C_2^-, P_3, ...")
    p.add_argument("--equation", help=" | ".join(EQUATIONS.values()))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("fixture", help="emit a shipped example category as JSON")
    p.add_argument("name")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fixture)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except InputError as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT
    except CliError as err:
        sys.stderr.write(f"error: {err}\n")
        return err.code
    finally:
        sys.stderr.write(f"elapsed: {time.monotonic() - t0:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
