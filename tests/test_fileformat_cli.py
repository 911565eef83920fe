"""File format round trips, schema diagnostics, CLI determinism and exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from helpers import column, iter_terms, shipped, shipped_morphism, shipped_raw, with_negated_term

from ainfcat import cli
from ainfcat.cli import parse_space
from ainfcat.core import chain_normalize, verify_ainf, with_ring
from ainfcat.fileformat import (
    CATEGORY_SCHEMA,
    CERTIFICATE_SCHEMA,
    InputError,
    _pointer,
    category_to_json,
    file_digest,
    load_category,
    load_certificate,
    morphism_to_json,
)
from ainfcat.fixtures import (
    FIXTURES,
    cone_algebra,
    dual_numbers,
    ground_ring,
    split_summand_pair,
    triple_product_algebra,
)
from ainfcat.strata import annulus, bidisc, disc, interpolation, punctured_disc


def dump(cat, morphisms=None) -> bytes:
    return json.dumps(category_to_json(cat, morphism_tables=morphisms)).encode()


def run_cli(args: list[str]):
    proc = subprocess.run(
        [sys.executable, "-m", "ainfcat.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


# -- format round trips -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_round_trip(name):
    cat = FIXTURES[name]()
    loaded = load_category(dump(cat))
    assert loaded.category.objects == sorted(cat.objects)
    assert sum(1 for _ in loaded.category.generators()) == sum(1 for _ in cat.generators())
    assert verify_ainf(loaded.category, 3).passed
    for d in cat.mu:
        assert loaded.category.mu.get(d, {}) == cat.mu[d]


def test_morphism_round_trip():
    # every loaded morphism writes back to its file entry
    loaded = shipped("cone_algebra")
    for entry in loaded.raw["morphisms"]:
        phi = loaded.morphisms[entry["name"]]
        assert morphism_to_json(entry["name"], entry["base_object"], phi.n, phi.components) == entry


@pytest.mark.parametrize(
    "schema, digest",
    [
        (CATEGORY_SCHEMA, "ac67cf17181d0f470157f41a5564e7dae4423961b21a09d0ae4b49f003b2cad1"),
        (CERTIFICATE_SCHEMA, "87929942157e1e084556b801e6b100c1b59ed90a11037e01560951c2e7e2930f"),
    ],
    ids=["category", "certificate"],
)
def test_published_schemas_are_pinned(schema, digest):
    assert hashlib.sha256(json.dumps(schema, sort_keys=True).encode()).hexdigest() == digest


def test_undeclared_generator_rejected():
    raw = category_to_json(ground_ring())
    raw["operations"][0]["terms"][0]["inputs"][0] = ["*", "*", "ghost"]
    with pytest.raises(InputError) as exc:
        load_category(json.dumps(raw).encode())
    assert "ghost" in str(exc.value)


def test_schema_violation_has_path():
    raw = category_to_json(ground_ring())
    raw["ring"] = "Z7"
    with pytest.raises(InputError) as exc:
        load_category(json.dumps(raw).encode())
    assert "/ring" in str(exc.value)


def test_degree_rule_violation_rejected():
    raw = category_to_json(ground_ring())
    raw["hom"][0]["generators"].append({"name": "bad", "degree": 5})
    raw["operations"][0]["terms"].append(
        {"inputs": [["*", "*", "e"], ["*", "*", "e"]], "output": ["*", "*", "bad"], "coefficient": 1}
    )
    with pytest.raises(InputError):
        load_category(json.dumps(raw).encode())


# -- space spec parsing --------------------------------------------------------


def test_parse_space_forms():
    assert parse_space("R_4") == disc(4)
    assert parse_space("R4") == disc(4)
    assert parse_space("R_2|1|1") == bidisc(2, 1)
    assert parse_space("R_{2|1|1}") == bidisc(2, 1)
    assert parse_space("R_3^1") == punctured_disc(3)
    assert parse_space("C_2^-") == annulus(2)
    assert parse_space("C2") == annulus(2)
    assert parse_space("P_3") == interpolation(3)


# -- CLI behaviour ---------------------------------------------------------------


def test_cli_validate_pass_and_determinism(tmp_path):
    path = tmp_path / "cat.json"
    path.write_bytes(dump(dual_numbers()))
    first = run_cli(["validate", str(path), "--json"])
    second = run_cli(["validate", str(path), "--json"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["verdict"] == "pass"


def test_cli_validate_detects_mutation(tmp_path):
    raw = category_to_json(dual_numbers())
    for term in raw["operations"][0]["terms"]:
        if term["inputs"][0][2] == "e" and term["inputs"][1][2] == "eps":
            term["coefficient"] = -term["coefficient"]
            break
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 1
    assert "witness" in proc.stdout


def test_cli_schema_error_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"format\": \"nope\"}")
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 2
    assert "input error" in proc.stderr


def test_cli_hh_ground_ring(tmp_path):
    path = tmp_path / "ground.json"
    path.write_bytes(dump(ground_ring()))
    proc = run_cli(["hh", str(path), "--max-length", "3", "--json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["groups"]["0"] == "Z"
    assert payload["stable"]["0"] is True
    assert all(v == "0" for k, v in payload["groups"].items() if k != "0")


def test_cli_strata_table():
    proc = run_cli(["strata", "R_4", "--json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["count"] == 5


def test_cli_strata_bad_space():
    proc = run_cli(["strata", "Q_7"])
    assert proc.returncode == 2


def test_cli_generate_emit_and_separate_process_replay(tmp_path):
    catpath = tmp_path / "split.json"
    run_cli(["fixture", "split_summand_pair", "-o", str(catpath)])
    cert = tmp_path / "cert.json"
    emit = run_cli(
        ["generate", str(catpath), "--object", "K", "--subcategory", "L", "--max-length", "1", "--emit", str(cert), "--json"]
    )
    assert emit.returncode == 0
    payload = json.loads(emit.stdout)
    assert payload["verdict"] == "generated"
    # replay through a fresh process
    replay = run_cli(["generate", str(catpath), "--object", "K", "--replay", str(cert), "--json"])
    assert replay.returncode == 0
    assert json.loads(replay.stdout)["verdict"] == "generated"
    # a tampered certificate is refuted
    data = json.loads(cert.read_text())
    data["tau"][0]["coefficient"] *= 3
    cert.write_text(json.dumps(data))
    bad = run_cli(["generate", str(catpath), "--object", "K", "--replay", str(cert), "--json"])
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["verdict"] == "refuted-at-bound"


def test_no_command_imports_jsonschema(tmp_path):
    # pytest imports jsonschema itself (the schema tests' reference), so only a fresh process shows it
    def imports(*args):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "ainfcat.cli", *args], capture_output=True, text=True
        )
        return proc.returncode, proc.stderr

    catpath, cert = tmp_path / "split.json", tmp_path / "cert.json"
    run_cli(["fixture", "split_summand_pair", "-o", str(catpath)])
    generate = ["generate", str(catpath), "--object", "K", "--subcategory", "L", "--max-length", "1"]
    for argv in (["validate", str(catpath)], [*generate, "--emit", str(cert)], [*generate, "--replay", str(cert)]):
        code, err = imports(*argv)
        assert code == 0 and "jsonschema" not in err, argv
    replay = ["generate", str(catpath), "--object", "K", "--replay", str(cert)]
    for flags, refusal in (
        (["--subcategory", "K"], "/subcategory: the certificate is for subcategory 'L', not 'K'"),
        (["--max-length", "0"], "/max_length: the certificate is for max length 1, not 0"),
    ):
        code, err = imports(*replay, *flags)
        assert code == 2 and "jsonschema" not in err, flags
        assert f"input error: {refusal}\n" in err
    raw = json.loads(catpath.read_text())
    del raw["hom"]
    catpath.write_text(json.dumps(raw))
    code, err = imports("validate", str(catpath))
    assert code == 2 and "jsonschema" not in err
    assert "input error: \"\": 'hom' is a required property\n" in err


def test_cli_generate_inconclusive_exit_1(tmp_path):
    catpath = tmp_path / "zero.json"
    run_cli(["fixture", "two_object_with_zero", "-o", str(catpath)])
    proc = run_cli(["generate", str(catpath), "--object", "K", "--subcategory", "Z0", "--max-length", "2", "--json"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "inconclusive"


def test_cli_cardy_telescoping(tmp_path):
    catpath = tmp_path / "dual.json"
    run_cli(["fixture", "dual_numbers", "-o", str(catpath)])
    proc = run_cli(["cardy", str(catpath), "--morphism", "coproduct_n1", "--max-length", "2", "--json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["homotopy_equation"]["passed"] and payload["homology_comparison"]["passed"]


def test_cli_cardy_chain_map_tables(tmp_path):
    # explicit closed complex + map tables: a miniature self-configuration
    from ainfcat.bimodules import YonedaModule, hom_complex, mu_composition_map, tensor_over_category
    from ainfcat.complexes import compose
    from ainfcat.hochschild import cc_of_delta, truncated_cc

    phi = shipped_morphism("dual_numbers", 1)
    cat = phi.source.cat
    cc = truncated_cc(cat, 2)
    tcx = tensor_over_category(YonedaModule(cat, "*", "right"), YonedaModule(cat, "*", "left"), 2)
    mucc = compose(mu_composition_map(cat, "*", "*", tcx), cc_of_delta(phi, cc, tcx))
    hom_cx = hom_complex(cat, "*", "*")

    closed = {
        "basis": [{"name": g.name, "degree": g.degree} for k in hom_cx.degrees() for g in hom_cx.basis[k]],
        "differential": [],
    }
    oc_entries = []
    for k in cc.degrees():
        for w in cc.basis[k]:
            for g, c in column(mucc, w).items():
                oc_entries.append(
                    {"word": [[x.source, x.target, x.name] for x in w], "output": g.name, "coefficient": c}
                )
    co_entries = [
        {"input": g.name, "output": [g.source, g.target, g.name], "coefficient": 1}
        for k in hom_cx.degrees()
        for g in hom_cx.basis[k]
    ]
    raw = shipped_raw("dual_numbers", 1)
    raw["cardy"] = {
        "morphism": "m",
        "degree": 1,
        "closed_complex": closed,
        "chain_maps": {"oc": sorted(oc_entries, key=str), "co": co_entries},
    }
    path = tmp_path / "cardy.json"
    path.write_text(json.dumps(raw))
    proc = run_cli(["cardy", str(path), "--morphism", "m", "--max-length", "2", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "cat.json", "--depth", "0"],
        ["validate", "cat.json", "--depth", "-1", "--bimodule-bound", "-1"],
        ["validate", "cat.json", "--bimodule-bound", "-1"],
        ["hh", "cat.json", "--max-length", "0"],
        ["hh", "cat.json", "--max-length", "-3"],
        ["cardy", "cat.json", "--max-length", "0"],
        ["generate", "cat.json", "--object", "K", "--max-length", "-1", "--emit", "cert.json"],
    ],
)
def test_cli_rejects_bounds_that_check_nothing(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_cli_generate_broken_category_exit_1(tmp_path, capsys):
    cat = split_summand_pair()
    d, key, out, _ = next(iter_terms(cat))
    path = tmp_path / "broken.json"
    path.write_bytes(dump(with_negated_term(cat, d, key, out)))
    assert cli.main(["generate", str(path), "--object", "K", "--subcategory", "L"]) == 1
    assert "error: category fails the structure relations" in capsys.readouterr().err


def test_cli_generate_unit_not_a_cycle_exit_2(tmp_path, capsys):
    raw = category_to_json(split_summand_pair())
    raw["units"]["K"] = [{"generator": ["K", "L", "f1"], "coefficient": 1}]
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["generate", str(path), "--object", "K", "--subcategory", "L"]) == 2
    assert "input error: /units/K: " in capsys.readouterr().err


def test_cli_hh_ring_override(tmp_path):
    path = tmp_path / "dn.json"
    path.write_bytes(dump(dual_numbers()))
    proc = run_cli(["hh", str(path), "--max-length", "2", "--ring", "F2", "--json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert all("Z/2" in v or v == "0" for v in payload["groups"].values())


@pytest.mark.parametrize("max_length", ["3", "4"])
def test_cli_hh_checks_every_tuple_with_a_pair_of_terms(tmp_path, capsys, max_length):
    # mu^4(u, u, p, p) = p first breaks the structure relation on 4-tuples,
    # past any fixed depth 3; the complex then fails d o d from length 4
    raw = category_to_json(triple_product_algebra())
    assert 4 not in {op["arity"] for op in raw["operations"]}
    u, p = ["*", "*", "u"], ["*", "*", "p"]
    raw["operations"].append({"arity": 4, "terms": [{"inputs": [u, u, p, p], "output": p, "coefficient": 1}]})
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["hh", str(path), "--max-length", max_length]) == 1
    assert "error: category fails the structure relations" in capsys.readouterr().err


def test_cli_generate_checks_every_tuple_with_a_pair_of_terms(tmp_path, capsys):
    # the mu^4 term of the hh test above: past depth 3, before any complex
    raw = category_to_json(triple_product_algebra())
    u, p = ["*", "*", "u"], ["*", "*", "p"]
    raw["operations"].append({"arity": 4, "terms": [{"inputs": [u, u, p, p], "output": p, "coefficient": 1}]})
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["generate", str(path), "--object", "*"]) == 1
    assert "error: category fails the structure relations" in capsys.readouterr().err


def test_cli_cardy_checks_the_structure_relations(tmp_path, capsys):
    # one mu^2 term negated: the relations fail, not only the morphism
    cat = shipped("cone_algebra").category
    d, key, out, _ = next(t for t in iter_terms(cat) if t[0] == 2)
    tables = shipped_raw("cone_algebra", 1)["morphisms"]
    raw = category_to_json(with_negated_term(cat, d, key, out), morphism_tables=tables)
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["cardy", str(path), "--morphism", "m", "--max-length", "2"]) == 1
    assert "error: category fails the structure relations" in capsys.readouterr().err


def test_with_ring_reduction():
    from ainfcat.core import with_ring

    cat = with_ring(dual_numbers(), "F2")
    assert cat.ring == "F2"
    assert verify_ainf(cat, 4).passed
    with pytest.raises(ValueError):
        with_ring(cat, "Z")


def _validate_json(path, *extra) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", str(path), "--json", *extra])
    return code, json.loads(out.getvalue())


def test_cli_validate_f2_checks_units(tmp_path):
    path = tmp_path / "dual_numbers.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fixture", "dual_numbers", "-o", str(path)]) == 0
    code, payload = _validate_json(path, "--ring", "F2")
    assert code == 0
    assert payload["checks"]["unit[*]"] == {"passed": True}


def test_cli_validate_f2_rejects_half_of_a_unit(tmp_path):
    # E11 is an idempotent cycle but not a unit of L, over Z and mod 2
    raw = category_to_json(split_summand_pair())
    raw["units"]["L"] = [{"generator": ["L", "L", "E11"], "coefficient": 1}]
    path = tmp_path / "split.json"
    path.write_text(json.dumps(raw))
    code, payload = _validate_json(path, "--ring", "F2")
    assert code == 1
    assert payload["checks"]["unit[L]"] == {"passed": False}
    assert payload["checks"]["unit[K]"] == {"passed": True}


def test_cli_validate_f2_checks_morphisms_mod_2(tmp_path):
    # one coefficient of coproduct_n1 negated: a different morphism over Z,
    # the same one mod 2
    raw = shipped_raw("dual_numbers", 1)
    del raw["units"]
    raw["morphisms"][0]["components"][0]["coefficient"] *= -1
    path = tmp_path / "dn.json"
    path.write_text(json.dumps(raw))
    code, payload = _validate_json(path)
    assert code == 1 and not payload["checks"]["morphism[m]"]["passed"]
    code, payload = _validate_json(path, "--ring", "F2")
    assert code == 0 and payload["checks"]["morphism[m]"]["passed"]


def negated_unit_square(raw: dict) -> dict:
    """The split_summand_pair file with its eK . eK -> eK constant negated."""
    for op in raw["operations"]:
        for t in op["terms"]:
            if [r[2] for r in t["inputs"]] == ["eK", "eK"] and t["output"][2] == "eK":
                t["coefficient"] = -t["coefficient"]
    return raw


def test_cli_replay_refuses_certificate_for_another_file(tmp_path, capsys):
    raw = category_to_json(split_summand_pair())
    good = tmp_path / "split.json"
    good.write_text(json.dumps(raw))
    cert = tmp_path / "split.cert.json"
    args = ["--object", "K", "--subcategory", "L", "--max-length", "2"]
    assert cli.main(["generate", str(good), *args, "--emit", str(cert)]) == 0
    assert cli.main(["generate", str(good), "--object", "K", "--replay", str(cert)]) == 0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(negated_unit_square(raw)))
    capsys.readouterr()
    assert cli.main(["generate", str(broken), "--object", "K", "--replay", str(cert)]) == 2
    assert "input error: /category_digest: " in capsys.readouterr().err
    assert cli.main(["validate", str(broken)]) == 1


def test_cli_replay_refuses_certificate_without_digest(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    cert = tmp_path / "split.cert.json"
    args = ["--object", "K", "--subcategory", "L", "--max-length", "2"]
    assert cli.main(["generate", str(path), *args, "--emit", str(cert)]) == 0
    raw = json.loads(cert.read_text())
    del raw["category_digest"]
    cert.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["generate", str(path), "--object", "K", "--replay", str(cert)]) == 2
    assert "input error: /category_digest: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("object", "Nope", "/object: unknown object 'Nope'"),
        ("object", "L", "/object: the certificate is for object 'L', not 'K'"),
        ("subcategory", ["Nope"], "/subcategory/0: unknown subcategory object 'Nope'"),
        ("subcategory", ["L", "L"], "/subcategory/1: subcategory object 'L' listed twice"),
    ],
    ids=["undeclared-object", "another-object", "undeclared-subcategory", "repeated-subcategory"],
)
def test_cli_replay_refuses_a_certificate_naming_bad_objects(tmp_path, capsys, key, value, message):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    cert = tmp_path / "split.cert.json"
    args = ["--object", "K", "--subcategory", "L", "--max-length", "2"]
    assert cli.main(["generate", str(path), *args, "--emit", str(cert)]) == 0
    raw = json.loads(cert.read_text())
    raw[key] = value
    cert.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["generate", str(path), "--object", "K", "--replay", str(cert)]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--subcategory", "K"], "/subcategory: the certificate is for subcategory 'L', not 'K'"),
        (["--subcategory", "L,K"], "/subcategory: the certificate is for subcategory 'L', not 'K,L'"),
        (["--max-length", "0"], "/max_length: the certificate is for max length 2, not 0"),
        (["--max-length", "3"], "/max_length: the certificate is for max length 2, not 3"),
        (["--subcategory", "L", "--max-length", "2"], None),
        ([], None),
    ],
    ids=["another-subcategory", "larger-subcategory", "shorter", "longer", "matching", "not-given"],
)
def test_cli_replay_refuses_flags_that_contradict_the_certificate(tmp_path, capsys, flags, message):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    cert = tmp_path / "split.cert.json"
    args = ["--object", "K", "--subcategory", "L", "--max-length", "2"]
    assert cli.main(["generate", str(path), *args, "--emit", str(cert)]) == 0
    capsys.readouterr()
    code = cli.main(["generate", str(path), "--object", "K", *flags, "--replay", str(cert)])
    out, err = capsys.readouterr()
    if message is None:
        assert code == 0 and out.endswith("verdict: generated\n")
    else:
        assert code == 2 and out == "" and err.startswith(f"input error: {message}\n")


def test_cli_replay_accepts_the_subcategory_in_any_order(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    cert = tmp_path / "split.cert.json"
    generate = ["generate", str(path), "--object", "K"]
    assert cli.main([*generate, "--subcategory", "K,L", "--max-length", "1", "--emit", str(cert)]) == 0
    for names in ("K,L", "L,K"):
        assert cli.main([*generate, "--subcategory", names, "--max-length", "1", "--replay", str(cert)]) == 0, names


def test_cli_generate_max_length_defaults_to_2(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    assert cli.main(["generate", str(path), "--object", "K", "--subcategory", "L"]) == 0
    assert "\nmax_length: 2\n" in capsys.readouterr().out


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_calls_in_one_process_share_no_flags(tmp_path, capsys):
    # each call's exit code and stdout equal those of the same argv run
    # first in a fresh process, whatever ran before it in this one
    for name in ("split_summand_pair", "dual_numbers"):
        cli.main(["fixture", name, "-o", str(tmp_path / f"{name}.json")])
    hh = ["hh", str(tmp_path / "split_summand_pair.json"), "--max-length", "2"]
    cardy = ["cardy", str(tmp_path / "dual_numbers.json"), "--morphism", "coproduct_n0", "--max-length", "2"]
    calls = [[*hh, "--degrees=0..0"], hh, [*cardy, "--solve"], cardy, [*hh, "--max-length", "0"], hh]
    fresh = {}
    for argv in calls:
        if tuple(argv) not in fresh:
            proc = run_cli(argv)
            fresh[tuple(argv)] = (proc.returncode, proc.stdout)
    assert [fresh[tuple(argv)][0] for argv in calls] == [0, 0, 0, 0, 2, 0]
    assert len({out for _, out in fresh.values()}) == len(fresh)

    for argv in calls:
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == fresh[tuple(argv)], argv


def test_cli_validate_unit_not_a_cycle_exit_2(tmp_path, capsys):
    raw = category_to_json(split_summand_pair())
    raw["units"]["K"] = [{"generator": ["K", "L", "f1"], "coefficient": 1}]
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 2
    assert "input error: /units/K: " in capsys.readouterr().err


def test_cli_cardy_undeclared_generator_exit_2(tmp_path, capsys):
    raw = shipped_raw("dual_numbers", 1)
    raw["cardy"] = {
        "morphism": "m",
        "degree": 1,
        "closed_complex": {"basis": [{"name": "c", "degree": 0}], "differential": []},
        "chain_maps": {"oc": [{"word": [["*", "*", "nosuch"]], "output": "c", "coefficient": 1}], "co": []},
    }
    path = tmp_path / "cardy.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["cardy", str(path), "--morphism", "m", "--max-length", "2"]) == 2
    assert "input error: /cardy/chain_maps/oc/0: " in capsys.readouterr().err
    assert cli.main(["validate", str(path)]) == 2


@pytest.mark.parametrize(
    "section, path",
    [
        ({"morphism": "m", "degree": 0}, "/cardy/degree"),
        ({"morphism": "m", "degree": 2}, "/cardy/degree"),
        ({"morphism": "nosuch", "degree": 1}, "/cardy/morphism"),
    ],
)
def test_cli_cardy_section_must_match_its_morphism(tmp_path, capsys, section, path):
    # m has degree 1; the section must name a declared morphism and its degree
    raw = shipped_raw("dual_numbers", 1)
    raw["cardy"] = section
    cat_path = tmp_path / "cardy.json"
    cat_path.write_text(json.dumps(raw))
    for argv in (["cardy", str(cat_path), "--morphism", "m", "--max-length", "2"], ["validate", str(cat_path)]):
        assert cli.main(argv) == 2
        assert f"input error: {path}: " in capsys.readouterr().err


def _split_with_component(component: dict) -> dict:
    """split_summand_pair with one more component on its coproduct_n0."""
    raw = shipped_raw("split_summand_pair")
    raw["morphisms"][0]["components"].append(component)
    return raw


def _dual_numbers_with_two_morphisms_named_m() -> dict:
    raw = shipped_raw("dual_numbers")
    raw["morphisms"] = [dict(m, name="m") for m in raw["morphisms"]]
    return raw


@pytest.mark.parametrize(
    "raw, path",
    [
        (_dual_numbers_with_two_morphisms_named_m(), "/morphisms/1/name"),
        (  # inputs f1, f1 do not compose (f1 runs K -> L)
            _split_with_component({
                "left_inputs": 1, "right_inputs": 0, "inputs": [["K", "L", "f1"], ["K", "L", "f1"]],
                "output_left": ["K", "L", "f1"], "output_right": ["K", "K", "eK"], "coefficient": 1,
            }),
            "/morphisms/0",
        ),
        (  # f2 (x) g2 runs L -> L, the key eK runs K -> K
            _split_with_component({
                "left_inputs": 0, "right_inputs": 0, "inputs": [["K", "K", "eK"]],
                "output_left": ["K", "L", "f2"], "output_right": ["L", "K", "g2"], "coefficient": 1,
            }),
            "/morphisms/0",
        ),
    ],
    ids=["duplicate-name", "non-composable-inputs", "wrong-endpoints"],
)
def test_cli_malformed_morphism_exit_2(tmp_path, capsys, raw, path):
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(cat_path)]) == 2
    assert f"input error: {path}: " in capsys.readouterr().err


def test_cli_cardy_chain_maps_refuse_another_morphism(tmp_path, capsys):
    # the file's chain maps are for m; running them against m2 is an input
    # error, while the telescoping configuration may use any morphism
    raw = shipped_raw("dual_numbers", 1)
    raw["morphisms"].append(dict(raw["morphisms"][0], name="m2"))
    raw["cardy"] = {
        "morphism": "m",
        "degree": 1,
        "closed_complex": {"basis": [{"name": "c", "degree": 0}], "differential": []},
        "chain_maps": {"oc": [], "co": []},
    }
    path = tmp_path / "cardy.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["cardy", str(path), "--morphism", "m2", "--max-length", "2"]) == 2
    assert "input error: /cardy/morphism: " in capsys.readouterr().err
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["cardy", str(path), "--morphism", "m2", "--max-length", "2", "--telescoping"]) == 0


@pytest.mark.parametrize(
    "closed, path",
    [
        (  # a name declared twice
            {"basis": [{"name": "c", "degree": 0}, {"name": "c", "degree": 1}], "differential": []},
            "/cardy/closed_complex/basis/1",
        ),
        (  # a differential into an undeclared name
            {"basis": [{"name": "c", "degree": 0}], "differential": [{"input": "c", "output": "x", "coefficient": 1}]},
            "/cardy/closed_complex/differential/0",
        ),
        (  # a differential that does not raise degree by one
            {
                "basis": [{"name": "a", "degree": 0}, {"name": "c", "degree": 0}],
                "differential": [{"input": "a", "output": "c", "coefficient": 1}],
            },
            "/cardy/closed_complex/differential/0",
        ),
        (  # a -> b -> c with d o d (a) = c
            {
                "basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 1}, {"name": "c", "degree": 2}],
                "differential": [
                    {"input": "a", "output": "b", "coefficient": 1},
                    {"input": "b", "output": "c", "coefficient": 1},
                ],
            },
            "/cardy/closed_complex",
        ),
    ],
)
def test_cli_cardy_bad_closed_complex_exit_2(tmp_path, capsys, monkeypatch, closed, path):
    # refused while the file loads, before mu o CC(phi) is built
    def not_reached(*args):
        raise AssertionError("mu_cc_map called on a file with a bad closed complex")

    monkeypatch.setattr(cli, "mu_cc_map", not_reached)
    raw = shipped_raw("dual_numbers", 1)
    raw["cardy"] = {"morphism": "m", "degree": 1, "closed_complex": closed, "chain_maps": {"oc": [], "co": []}}
    cat_path = tmp_path / "cardy.json"
    cat_path.write_text(json.dumps(raw))
    assert cli.main(["cardy", str(cat_path), "--morphism", "m", "--max-length", "2"]) == 2
    assert f"input error: {path}: " in capsys.readouterr().err
    assert cli.main(["validate", str(cat_path)]) == 2


def test_cli_cardy_verifies_each_chain_map_once(tmp_path, monkeypatch):
    # CC(phi), OC and CO are each checked once, however many checks run
    from ainfcat import cardy, complexes, hochschild

    calls = []

    def counting(f):
        calls.append(f.name)
        return complexes.verify_chain_map(f)

    monkeypatch.setattr(hochschild, "verify_chain_map", counting)
    monkeypatch.setattr(cardy, "verify_chain_map", counting)
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(shipped_raw("cone_algebra", 1)))
    argv = ["cardy", str(path), "--morphism", "m", "--max-length", "2", "--solve"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert sorted(calls) == sorted(["CC(morphism)", "mu o CC", "(+-)id"])


def _dual_numbers_cardy(closed: dict, chain_maps: dict) -> dict:
    """dual_numbers with its degree-1 coproduct m and a cardy section."""
    raw = shipped_raw("dual_numbers", 1)
    raw["cardy"] = {"morphism": "m", "degree": 1, "closed_complex": closed, "chain_maps": chain_maps}
    return raw


E, EPS = ["*", "*", "e"], ["*", "*", "eps"]
ONE_C = {"basis": [{"name": "c", "degree": 0}], "differential": []}
Z_TO_C = {  # z -> c; oc(e) = z or co(c) = eps breaks the chain-map rule
    "basis": [{"name": "z", "degree": 1}, {"name": "c", "degree": 2}],
    "differential": [{"input": "z", "output": "c", "coefficient": 1}],
}


def _split_cardy_co_off_K() -> dict:
    # co sends c into hom(K, L), not hom(K, K)
    raw = shipped_raw("split_summand_pair", 0)
    raw["cardy"] = {
        "morphism": "m",
        "degree": 0,
        "closed_complex": {"basis": [{"name": "c", "degree": 1}], "differential": []},
        "chain_maps": {"oc": [], "co": [{"input": "c", "output": ["K", "L", "f1"], "coefficient": 1}]},
    }
    return raw


@pytest.mark.parametrize(
    "raw, path",
    [
        (  # e has degree 0 and n = 1, so oc(e) must lie in degree 1
            _dual_numbers_cardy(ONE_C, {"oc": [{"word": [E], "output": "c", "coefficient": 1}]}),
            "/cardy/chain_maps/oc/0",
        ),
        (  # the empty word is not a cyclic word
            _dual_numbers_cardy(ONE_C, {"homotopy": [{"word": [], "output": E, "coefficient": 1}]}),
            "/cardy/chain_maps/homotopy/0",
        ),
        (  # H(e) must lie in degree 0 + n - 1 = 0; eps has degree 1
            _dual_numbers_cardy(ONE_C, {"homotopy": [{"word": [E], "output": EPS, "coefficient": 5}]}),
            "/cardy/chain_maps/homotopy/0",
        ),
        (  # co preserves degree; c has degree 0, eps degree 1
            _dual_numbers_cardy(ONE_C, {"co": [{"input": "c", "output": EPS, "coefficient": 1}]}),
            "/cardy/chain_maps/co/0",
        ),
        (_split_cardy_co_off_K(), "/cardy/chain_maps/co/0"),
        (
            _dual_numbers_cardy(Z_TO_C, {"oc": [{"word": [E], "output": "z", "coefficient": 1}]}),
            "/cardy/chain_maps/oc",
        ),
        (
            _dual_numbers_cardy(
                {
                    "basis": [{"name": "z", "degree": 0}, {"name": "c", "degree": 1}],
                    "differential": [{"input": "z", "output": "c", "coefficient": 1}],
                },
                {"co": [{"input": "c", "output": EPS, "coefficient": 1}]},
            ),
            "/cardy/chain_maps/co",
        ),
    ],
    ids=["oc-degree", "homotopy-empty-word", "homotopy-degree", "co-degree", "co-off-K", "oc-not-chain-map",
         "co-not-chain-map"],
)
def test_cli_cardy_bad_chain_map_entries_exit_2(tmp_path, capsys, raw, path):
    cat_path = tmp_path / "cardy.json"
    cat_path.write_text(json.dumps(raw))
    assert cli.main(["cardy", str(cat_path), "--morphism", "m", "--max-length", "2"]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}: " in err
    if path.endswith("/oc"):
        assert "not a chain map on (e[*->*;0],)" in err


def test_cli_cardy_refuses_an_f2_file(tmp_path, capsys, monkeypatch):
    def not_reached(*args):
        raise AssertionError("truncated_cc called on an F2 file")

    monkeypatch.setattr(cli, "truncated_cc", not_reached)
    raw = shipped_raw("dual_numbers", 1)
    raw["ring"] = "F2"
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["cardy", str(path), "--morphism", "m", "--max-length", "2"]) == 2
    assert "input error: /ring: " in capsys.readouterr().err


def test_cli_cardy_checks_the_morphism_to_its_longest_component(tmp_path, capsys):
    # a (2, 2) component eps^5 -> eps (x) eps breaks the morphism equation
    # only at r + s = 5, past the 3 a fixed bound would check
    raw = shipped_raw("dual_numbers", 1, name="coproduct_n1")
    raw["morphisms"][0]["components"].append({
        "left_inputs": 2, "right_inputs": 2, "inputs": [EPS] * 5,
        "output_left": EPS, "output_right": EPS, "coefficient": 1,
    })
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["cardy", str(path), "--morphism", "coproduct_n1", "--max-length", "5"]) == 1
    assert "fails the bimodule-map equation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, degree",
    [("cone_algebra", "1"), ("triple_product_algebra", "1")],
)
def test_cli_hh_f2_stable_flag_checks_the_induced_map(tmp_path, capsys, name, degree):
    # H^1 of both truncations is Z/2, but the 1-truncation's inclusion
    # induces zero on it, so the flag is false
    path = tmp_path / f"{name}.json"
    path.write_bytes(dump(FIXTURES[name]()))
    assert cli.main(["hh", str(path), "--max-length", "2", "--ring", "F2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["groups"][degree] == "Z/2"
    assert report["stable"][degree] is False


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_load_in_f2_is_the_mod_2_reduction(tmp_path, name):
    path = tmp_path / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fixture", name, "-o", str(path)]) == 0
    integral = load_category(path.read_bytes())
    loaded = load_category(path.read_bytes(), ring="F2")
    reduced = with_ring(FIXTURES[name](), "F2")
    assert loaded.category.ring == "F2"
    assert loaded.category.mu == reduced.mu
    assert loaded.category.units == reduced.units
    assert loaded.morphisms.keys() == integral.morphisms.keys()
    for m, phi in loaded.morphisms.items():
        mod_2 = {
            rs: {key: chain_normalize(dict(chain), "F2") for key, chain in table.items()}
            for rs, table in integral.morphisms[m].components.items()
        }
        assert phi.components == {rs: {key: ch for key, ch in t.items() if ch} for rs, t in mod_2.items()}


def f2_copy(tmp_path, raw: dict):
    """A copy of a category file with "ring": "F2"."""
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(dict(raw, ring="F2")))
    return path


@pytest.mark.parametrize("argv", [["validate"], ["hh", "--max-length", "2"]])
def test_cli_lift_to_z_is_an_input_error_at_ring(tmp_path, capsys, argv):
    path = f2_copy(tmp_path, category_to_json(dual_numbers()))
    assert cli.main([argv[0], str(path), *argv[1:], "--ring", "Z"]) == 2
    assert "input error: /ring: cannot lift" in capsys.readouterr().err


def test_cli_generate_refuses_an_f2_file(tmp_path, capsys, monkeypatch):
    def not_reached(*args):
        raise AssertionError("generation_test called on an F2 file")

    monkeypatch.setattr(cli, "generation_test", not_reached)
    path = f2_copy(tmp_path, category_to_json(split_summand_pair()))
    cert = tmp_path / "cert.json"
    assert cli.main(["generate", str(path), "--object", "K", "--subcategory", "L", "--emit", str(cert)]) == 2
    assert "input error: /ring: " in capsys.readouterr().err
    assert not cert.exists()


def test_cli_generate_replay_refuses_an_f2_file(tmp_path, capsys):
    # an integral certificate that names the F2 copy of its file
    raw = category_to_json(split_summand_pair())
    path = tmp_path / "split.json"
    path.write_text(json.dumps(raw))
    cert = tmp_path / "cert.json"
    assert cli.main(["generate", str(path), "--object", "K", "--subcategory", "L", "--emit", str(cert)]) == 0
    f2 = f2_copy(tmp_path, raw)
    cert.write_text(json.dumps(dict(json.loads(cert.read_text()), category_digest=file_digest(f2.read_bytes()))))
    capsys.readouterr()
    assert cli.main(["generate", str(f2), "--object", "K", "--replay", str(cert)]) == 2
    assert "input error: /ring: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "{cat}", "--object", "K", "--subcategory", "L", "--emit", "{out}"],
        ["fixture", "ground_ring", "-o", "{out}"],
    ],
)
def test_cli_unwritable_output_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    out = tmp_path / "missing" / "out.json"
    assert cli.main([a.format(cat=path, out=out) for a in argv]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err


# -- a term listed twice counts twice ------------------------------------------


def by_name(chain) -> dict:
    return {getattr(g, "name", g): c for g, c in chain.items()}


def chain_at(table: dict, refs: list):
    """The output chain of the table key whose entries are these references."""
    (chain,) = [out for key, out in table.items() if [x.name for x in key] == [r[2] for r in refs]]
    return chain


def test_repeated_operation_term_counts_twice():
    raw = category_to_json(dual_numbers())
    op = raw["operations"][0]
    first = op["terms"][0]
    op["terms"].append(dict(first))
    table = load_category(json.dumps(raw).encode()).category.mu[op["arity"]]
    assert by_name(chain_at(table, first["inputs"]))[first["output"][2]] == 2 * first["coefficient"]


def test_repeated_unit_term_counts_twice(tmp_path, capsys):
    # cone_algebra's unit p + q with p listed twice is 2p + q, not a cycle
    raw = category_to_json(cone_algebra())
    chain = raw["units"]["*"]
    chain.append(dict(next(t for t in chain if t["generator"][2] == "p")))
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(raw))
    assert by_name(load_category(path.read_bytes()).category.units["*"]) == {"p": 2, "q": 1}
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == 2
    assert "input error: /units/*: " in capsys.readouterr().err


def test_repeated_morphism_component_counts_twice():
    raw = shipped_raw("split_summand_pair", 0)
    first = raw["morphisms"][0]["components"][0]
    raw["morphisms"][0]["components"].append(dict(first))
    loaded = load_category(json.dumps(raw).encode()).morphisms["m"]
    chain = chain_at(loaded.components[(first["left_inputs"], first["right_inputs"])], first["inputs"])
    pairs = {(pg.p.name, pg.q.name): c for pg, c in chain.items()}
    assert pairs[(first["output_left"][2], first["output_right"][2])] == 2 * first["coefficient"]


def test_repeated_closed_differential_term_counts_twice():
    closed = json.loads(json.dumps(Z_TO_C))
    closed["differential"].append(dict(closed["differential"][0]))
    loaded = load_category(json.dumps(_dual_numbers_cardy(closed, {"oc": [], "co": []})).encode())
    assert dict(column(loaded.cardy_closed, "z")) == {"c": 2}


@pytest.mark.parametrize(
    "section, entry, lookup",
    [
        ("oc", {"word": [E], "output": "z", "coefficient": 1}, "e"),
        ("co", {"input": "c", "output": E, "coefficient": 1}, "c"),
        ("homotopy", {"word": [E], "output": E, "coefficient": 1}, "e"),
    ],
    ids=["oc", "co", "homotopy"],
)
def test_repeated_chain_map_term_counts_twice(section, entry, lookup):
    # n = 1: oc(e) lies in degree 1, co(c) and H(e) in hom(*, *) degree 0
    closed = {"basis": [{"name": "c", "degree": 0}, {"name": "z", "degree": 1}], "differential": []}
    loaded = load_category(json.dumps(_dual_numbers_cardy(closed, {section: [entry, dict(entry)]})).encode())
    ((key, chain),) = loaded.cardy_maps[section].items()
    assert (key if isinstance(key, str) else key[0].name) == lookup
    assert by_name(chain) == {"z" if section == "oc" else "e": 2}


@pytest.mark.parametrize("field", ["tau", "h"])
def test_repeated_certificate_term_counts_twice(tmp_path, field):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    cert = tmp_path / "split.cert.json"
    args = ["--object", "K", "--subcategory", "L", "--max-length", "1", "--emit", str(cert)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", str(path), *args]) == 0
    raw = json.loads(cert.read_text())
    entry = raw[field][0] if raw[field] else {"generator": ["K", "K", "eK"], "coefficient": 1}
    raw[field] = [entry, dict(entry)] + raw[field][1:]
    loaded = load_category(path.read_bytes())
    got = load_certificate(json.dumps(raw).encode(), loaded.category, loaded.digest)
    assert list(getattr(got, field).values())[0] == 2 * entry["coefficient"]


@pytest.mark.parametrize("names, message", [
    ("", "unknown subcategory object ''"),
    ("L,", "unknown subcategory object ''"),
    ("L,L", "subcategory object 'L' listed twice"),
    ("K,L,K", "subcategory object 'K' listed twice"),
])
def test_cli_generate_refuses_empty_or_repeated_subcategory_names(tmp_path, capsys, names, message):
    # '' used to stand for every object and L,L was reported as ["L", "L"]
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    cert = tmp_path / "split.cert.json"
    argv = ["generate", str(path), "--object", "K", "--subcategory", names, "--max-length", "1", "--emit", str(cert)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}" in err
    assert not cert.exists()


def _with(raw: dict, edit) -> dict:
    edit(raw)
    return raw


@pytest.mark.parametrize(
    "raw, path",
    [
        (_with(category_to_json(split_summand_pair()), lambda raw: raw["units"].update(Q=raw["units"]["K"])), "/units/Q"),
        (
            _with(category_to_json(split_summand_pair()), lambda raw: raw["units"]["K"].append(
                {"generator": ["K", "K", "nowhere"], "coefficient": 1}
            )),
            "/units/K/1/generator",
        ),
        (_with(shipped_raw("split_summand_pair"), lambda raw: raw["morphisms"][0].update(base_object="Q")), "/morphisms/0/base_object"),
        # names are escaped as RFC 6901 says: / as ~1, ~ as ~0
        (_with(category_to_json(split_summand_pair()), lambda raw: raw["units"].update({"a/b": raw["units"]["K"]})),
         "/units/a~1b"),
        (
            _with(category_to_json(split_summand_pair()), lambda raw: raw["units"].update({
                "x~1": [{"generator": ["K", "K", "eK"], "coefficient": "one"}]
            })),
            "/units/x~01/0/coefficient",
        ),
    ],
    ids=["unit-for-undeclared-object", "undeclared-unit-generator", "undeclared-base-object",
         "undeclared-object-with-a-slash", "schema-error-under-a-key-with-a-tilde"],
)
def test_input_error_points_at_the_bad_value(tmp_path, capsys, raw, path):
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(cat_path)]) == 2
    assert f"input error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw.pop("hom"), "'hom' is a required property"),
        (lambda raw: raw.update({"": 1}), "Additional properties are not allowed ('' was unexpected)"),
    ],
    ids=["missing-hom", "extra-key-named-empty"],
)
def test_cli_root_schema_error_points_at_the_root(tmp_path, capsys, edit, message):
    # RFC 6901: the root is "", while "/" is the member named ""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(_with(category_to_json(dual_numbers()), edit)))
    assert cli.main(["validate", str(path)]) == 2
    assert f'input error: "": {message}\n' in capsys.readouterr().err


def _as_float(raw: dict, path: tuple) -> float:
    """Replace the integer at `path` in `raw` by the equal float; return it."""
    *parents, last = path
    node = raw
    for key in parents:
        node = node[key]
    node[last] = float(node[last])
    return node[last]


@pytest.mark.parametrize(
    "fixture, path",
    [
        ("cone_algebra", ("operations", 0, "terms", 0, "coefficient")),
        ("dual_numbers", ("hom", 0, "generators", 1, "degree")),
        ("cone_algebra", ("operations", 0, "arity")),
    ],
    ids=["coefficient", "degree", "arity"],
)
def test_cli_refuses_a_float_where_the_schema_says_integer(tmp_path, capsys, fixture, path):
    # JSON Schema counts 2.0 as an integer; the exact engine must not read a float
    raw = shipped_raw(fixture)
    value = _as_float(raw, path)
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps(raw))
    assert cli.main(["hh", str(cat_path), "--max-length", "2"]) == 2
    assert f"input error: {_pointer(*path)}: {value!r} is not of type 'integer'\n" in capsys.readouterr().err


@pytest.mark.parametrize("path", [("max_length",), ("tau", 0, "coefficient")], ids=["max_length", "tau-coefficient"])
def test_cli_replay_refuses_a_float_where_the_schema_says_integer(tmp_path, capsys, path):
    cat_path = tmp_path / "split.json"
    cat_path.write_bytes(dump(split_summand_pair()))
    cert = tmp_path / "split.cert.json"
    args = ["--object", "K", "--subcategory", "L", "--max-length", "2", "--emit", str(cert)]
    assert cli.main(["generate", str(cat_path), *args]) == 0
    raw = json.loads(cert.read_text())
    value = _as_float(raw, path)
    cert.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["generate", str(cat_path), "--object", "K", "--replay", str(cert)]) == 2
    assert f"input error: {_pointer(*path)}: {value!r} is not of type 'integer'\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [("5..1", "empty degree range"), ("1-2", "bad degree range '1-2'; expected a..b")],
    ids=["empty", "malformed"],
)
def test_cli_hh_refuses_a_bad_degree_range_before_the_work(tmp_path, capsys, spec, message):
    # the file fails the structure relations (exit 1), but the flag is refused first
    cat = split_summand_pair()
    d, key, out, _ = next(iter_terms(cat))
    path = tmp_path / "broken.json"
    path.write_bytes(dump(with_negated_term(cat, d, key, out)))
    assert cli.main(["hh", str(path), "--max-length", "2"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["hh", str(path), "--max-length", "2", f"--degrees={spec}"])
    assert exc.value.code == 2
    assert f"argument --degrees: {message}\n" in capsys.readouterr().err


def test_cli_hh_degrees_restricts_the_report(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    assert cli.main(["hh", str(path), "--max-length", "3", "--degrees=-1..0", "--json"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)["groups"]) == ["-1", "0"]


def test_cli_hh_degrees_past_the_complex_read_zero(tmp_path, capsys):
    # no word has degree 100 or 101: both spots read zero matrices
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    assert cli.main(["hh", str(path), "--max-length", "3", "--degrees=100..101", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["groups"] == {"100": "0", "101": "0"} and report["stable"] == {"100": True, "101": True}


def test_cli_hh_degrees_help_shows_the_equals_form(capsys):
    with pytest.raises(SystemExit):
        cli.main(["hh", "--help"])
    assert "--degrees=a..b (a negative start needs the =)" in " ".join(capsys.readouterr().out.split())


def test_invalid_json_has_no_pointer(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text("{")
    assert cli.main(["validate", str(path)]) == 2
    assert "input error: not valid JSON: " in capsys.readouterr().err
    with pytest.raises(InputError) as exc:
        load_category(b"{")
    assert exc.value.path is None


@pytest.mark.parametrize(
    "argv", [["validate"], ["generate", "--object", "a/b", "--subcategory", "L"]], ids=["validate", "generate"]
)
def test_cli_unit_not_a_cycle_escapes_the_object_name(tmp_path, capsys, argv):
    # split_summand_pair with K renamed a/b, whose unit f1 is not a cycle of hom(a/b, a/b)
    raw = json.loads(json.dumps(category_to_json(split_summand_pair())).replace('"K"', '"a/b"'))
    raw["units"]["a/b"] = [{"generator": ["a/b", "L", "f1"], "coefficient": 1}]
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(raw))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    assert "input error: /units/a~1b: " in capsys.readouterr().err


def test_certificate_error_points_at_the_undeclared_h_generator(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_bytes(dump(split_summand_pair()))
    cert = tmp_path / "split.cert.json"
    args = ["--object", "K", "--subcategory", "L", "--max-length", "1", "--emit", str(cert)]
    assert cli.main(["generate", str(path), *args]) == 0
    raw = json.loads(cert.read_text())
    raw["h"].append({"generator": ["K", "K", "nowhere"], "coefficient": 1})
    cert.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["generate", str(path), "--object", "K", "--replay", str(cert)]) == 2
    assert f"input error: /h/{len(raw['h']) - 1}/generator: " in capsys.readouterr().err


def test_cli_fixture_builds_the_category_and_tensor_target_once(tmp_path, monkeypatch):
    # the category once, and no bimodule or morphism at all: `fixture` writes
    # the component tables, and loading the file builds the morphisms
    from ainfcat import bimodules, fixtures

    builds = {"category": 0, "bimodule": 0, "morphism": 0}
    make = FIXTURES["cone_algebra"]

    def counted_make():
        builds["category"] += 1
        return make()

    def counted(kind, init):
        def wrapped(self, *args, **kwargs):
            builds[kind] += 1
            init(self, *args, **kwargs)

        return wrapped

    monkeypatch.setitem(fixtures.FIXTURES, "cone_algebra", counted_make)
    monkeypatch.setattr(bimodules.Bimodule, "__init__", counted("bimodule", bimodules.Bimodule.__init__))
    monkeypatch.setattr(bimodules.BimoduleHom, "__init__", counted("morphism", bimodules.BimoduleHom.__init__))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fixture", "cone_algebra", "-o", str(tmp_path / "cone.json")]) == 0
    assert builds == {"category": 1, "bimodule": 0, "morphism": 0}
    assert len(json.loads((tmp_path / "cone.json").read_text())["morphisms"]) == 3


def test_morphisms_are_built_on_first_read(tmp_path, monkeypatch):
    # loading checks the component tables but builds no bimodule; `hh`
    # reads no morphism, so it builds none, and the first read of one
    # builds it with the diagonal source and its base object's target,
    # which the morphisms on the same base object then share
    from ainfcat import bimodules

    builds = {"bimodule": 0, "morphism": 0}

    def counted(kind, init):
        def wrapped(self, *args, **kwargs):
            builds[kind] += 1
            init(self, *args, **kwargs)

        return wrapped

    path = tmp_path / "cone.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fixture", "cone_algebra", "-o", str(path)]) == 0
    monkeypatch.setattr(bimodules.Bimodule, "__init__", counted("bimodule", bimodules.Bimodule.__init__))
    monkeypatch.setattr(bimodules.BimoduleHom, "__init__", counted("morphism", bimodules.BimoduleHom.__init__))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["hh", str(path), "--max-length", "2"]) == 0
    loaded = load_category(path.read_bytes())
    assert builds == {"bimodule": 0, "morphism": 0}
    assert len(loaded.morphisms) == 3
    first, second = list(loaded.morphisms)[:2]
    phi = loaded.morphisms[first]
    assert loaded.morphisms[first] is phi
    assert builds == {"bimodule": 2, "morphism": 1}
    assert loaded.morphisms[second].target is phi.target
    assert builds == {"bimodule": 2, "morphism": 2}
