"""The compiled schema checks refuse as `jsonschema` refuses.

`jsonschema` is the reference here, and only here: the package words its
refusals itself.  Every shipped fixture file, one file with a cardy
section and one emitted certificate are mutated (a key dropped or added,
a value replaced, a list made longer or shorter); the compiled check must
accept exactly when `jsonschema` finds no error, and otherwise name the
error `jsonschema` reports first by path, with the same path and the same
message.  A table of one mutation per compiled keyword pins the wordings
and the pointers.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json

import pytest
from helpers import shipped_raw
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfcat import cli
from ainfcat.fileformat import (
    _CATEGORY_ERROR,
    _CERTIFICATE_ERROR,
    CATEGORY_SCHEMA,
    CERTIFICATE_SCHEMA,
    _pointer,
    certificate_to_json,
    compile_schema,
    load_category,
)
from ainfcat.fixtures import FIXTURES
from ainfcat.generation import generation_test

VALUES = [None, True, 1, 1.0, -1, "x", [], {}]
# keys an addition may use: unknown ones and optional properties of either schema
NEW_KEYS = ["x", "", "units", "cardy", "homotopy", "detail", "rational_only"]


def schema_errors(instance, schema) -> list:
    """Every `jsonschema` error of `instance` against `schema`, sorted by
    path, with "integer" meaning a JSON integer literal as in
    `compile_schema`: the reference the compiled checks are held to."""
    from jsonschema import Draft202012Validator, validators

    integer_literal = Draft202012Validator.TYPE_CHECKER.redefine("integer", lambda _, x: type(x) is int)
    reporter = validators.extend(Draft202012Validator, type_checker=integer_literal)
    return sorted(reporter(schema).iter_errors(instance), key=lambda e: list(e.absolute_path))


def reference_error(instance, schema):
    """The first `jsonschema` error by path as (path, message), or None."""
    errors = schema_errors(instance, schema)
    return (tuple(errors[0].absolute_path), errors[0].message) if errors else None


def _with_cardy() -> dict:
    """dual_numbers with a cardy section that fills every table (schema-valid)."""
    raw = shipped_raw("dual_numbers", 1)
    e = ["*", "*", "e"]
    raw["cardy"] = {
        "morphism": "m",
        "degree": 1,
        "closed_complex": {
            "basis": [{"name": "e", "degree": 0}],
            "differential": [{"input": "e", "output": "e", "coefficient": 1}],
        },
        "chain_maps": {
            "oc": [{"word": [e], "output": "e", "coefficient": 1}],
            "co": [{"input": "e", "output": e, "coefficient": 1}],
            "homotopy": [{"word": [e, e], "output": e, "coefficient": -1}],
        },
    }
    return raw


@functools.cache
def _certificate() -> dict:
    data = io.StringIO()
    with contextlib.redirect_stdout(data), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["fixture", "split_summand_pair"]) == 0
    loaded = load_category(data.getvalue().encode())
    cat = loaded.category
    cert = generation_test(cat, ["L"], "K", cat.units["K"], 1)
    return json.loads(json.dumps(certificate_to_json(cert, loaded.digest)))


DOCUMENTS = {
    **{name: (lambda name=name: shipped_raw(name), CATEGORY_SCHEMA, _CATEGORY_ERROR) for name in sorted(FIXTURES)},
    "dual_numbers+cardy": (_with_cardy, CATEGORY_SCHEMA, _CATEGORY_ERROR),
    "certificate": (_certificate, CERTIFICATE_SCHEMA, _CERTIFICATE_ERROR),
}


def _paths(node, here=()):
    yield here
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, here + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, here + (i,))


def _mutate(data, doc):
    """One mutation at a drawn place in `doc`; returns the new document."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    kind = data.draw(st.sampled_from(["drop", "add", "resize", "replace"]))
    if kind == "drop" and isinstance(node, (dict, list)) and node:
        del node[data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))]
    elif kind == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(NEW_KEYS))] = data.draw(st.sampled_from(VALUES))
    elif kind == "resize" and isinstance(node, list):
        if node and data.draw(st.booleans()):
            node.pop()
        else:
            node.append(copy.deepcopy(node[-1]) if node else "x")
    else:
        value = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
        if not path:
            return value
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("schema", [CATEGORY_SCHEMA, CERTIFICATE_SCHEMA], ids=["category", "certificate"])
def test_the_published_schemas_are_well_formed(schema):
    # the compiler trusts each keyword's value to have the shape the metaschema demands
    from jsonschema import Draft202012Validator

    Draft202012Validator.check_schema(schema)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_shipped_documents_are_accepted(name):
    make, schema, first_error = DOCUMENTS[name]
    doc = make()
    assert first_error(doc) is None
    assert schema_errors(doc, schema) == []


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_compiled_check_refuses_as_the_reference_refuses(name, data):
    make, schema, first_error = DOCUMENTS[name]
    doc = copy.deepcopy(make())
    for _ in range(data.draw(st.integers(1, 2))):
        doc = _mutate(data, doc)
    assert first_error(doc) == reference_error(doc, schema)


def _set(path, value):
    """The mutation that puts value at path."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _drop(*path):
    """The mutation that deletes the key or index at path."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return mutate


def _both(*mutations):
    """The mutations, one after another."""
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


# one mutation per compiled keyword: (document, mutation, pointer, message)
KEYWORD_REFUSALS = {
    "type-object": ("ground_ring", _set(("hom", 0), "x"), "/hom/0", "'x' is not of type 'object'"),
    "type-array": ("ground_ring", _set(("objects",), {}), "/objects", "{} is not of type 'array'"),
    "type-string": ("ground_ring", _set(("objects", 0), 1), "/objects/0", "1 is not of type 'string'"),
    "type-integer": (
        "ground_ring", _set(("hom", 0, "generators", 0, "degree"), 2.0),
        "/hom/0/generators/0/degree", "2.0 is not of type 'integer'",
    ),
    "type-boolean": ("certificate", _set(("rational_only",), 0), "/rational_only", "0 is not of type 'boolean'"),
    "required": ("ground_ring", _drop("hom"), "", "'hom' is a required property"),
    "one-extra": ("ground_ring", _set(("x",), 1), "", "Additional properties are not allowed ('x' was unexpected)"),
    "two-extras": (
        "ground_ring", _both(_set(("y",), 1), _set(("x",), 1)),
        "", "Additional properties are not allowed ('x', 'y' were unexpected)",
    ),
    "required-beats-extra": (
        "ground_ring", _both(_set(("x",), 1), _drop("hom")), "", "'hom' is a required property",
    ),
    "minimum": (
        "ground_ring", _set(("operations", 0, "arity"), 0),
        "/operations/0/arity", "0 is less than the minimum of 1",
    ),
    "minItems": ("ground_ring", _set(("objects",), []), "/objects", "[] should be non-empty"),
    "minItems-of-a-reference": (
        "ground_ring", _drop("operations", 0, "terms", 0, "output", 2),
        "/operations/0/terms/0/output", "['*', '*'] is too short",
    ),
    "maxItems": (
        "ground_ring", _set(("operations", 0, "terms", 0, "output"), ["*", "*", "e", "e"]),
        "/operations/0/terms/0/output", "['*', '*', 'e', 'e'] is too long",
    ),
    "enum": ("ground_ring", _set(("ring",), "Q"), "/ring", "'Q' is not one of ['Z', 'F2']"),
    "const": ("ground_ring", _set(("format",), "x"), "/format", "'ainfcat-category/1' was expected"),
    # /objects moved past /ring: the least failing key wins, not the first met
    "least-key-first": (
        "ground_ring", _both(_drop("objects"), _set(("objects",), []), _set(("ring",), "Q")),
        "/objects", "[] should be non-empty",
    ),
    "least-index-first": (
        "ground_ring", _set(("objects",), ["*", 1, 2]), "/objects/1", "1 is not of type 'string'",
    ),
}


@pytest.mark.parametrize("case", sorted(KEYWORD_REFUSALS))
def test_each_keyword_refuses_in_the_reference_words(case):
    name, mutate, pointer, message = KEYWORD_REFUSALS[case]
    make, schema, first_error = DOCUMENTS[name]
    doc = copy.deepcopy(make())
    mutate(doc)
    error = first_error(doc)
    assert error == reference_error(doc, schema)
    assert error[1] == message and _pointer(*error[0]) == pointer


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^x$"},
        {"type": "integer", "maximum": 3},
        {"type": "object", "properties": {"a": {"type": "string", "format": "date"}}},
        {"properties": {"a": {"type": "string"}}},
        {"type": "string", "minItems": 1},
        {"type": ["string", "null"]},
        {"type": "number"},
        {"enum": [1, 2]},
        {"type": "array", "items": True},
        {"type": "string", "const": "x"},
        {"type": "object", "properties": {"a": {"type": "string"}}},
    ],
    ids=["pattern", "maximum", "nested-format", "properties-without-type", "minItems-on-a-string",
         "type-list", "number", "enum-of-integers", "boolean-items", "const-beside-a-type", "open-object"],
)
def test_the_compiler_refuses_what_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="cannot compile"):
        compile_schema(schema)
