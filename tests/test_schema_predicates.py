"""The compiled schema predicates accept exactly what jsonschema accepts.

Every shipped fixture file, one file with a cardy section and one emitted
certificate are mutated (a key dropped or added, a value replaced, a list
made longer or shorter); the predicate that decides whether a file loads
must accept exactly when the `jsonschema` reporter, which words the
refusal, finds no error.
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
    _ACCEPTS_CATEGORY,
    _ACCEPTS_CERTIFICATE,
    CATEGORY_SCHEMA,
    CERTIFICATE_SCHEMA,
    certificate_to_json,
    compile_schema,
    load_category,
    schema_errors,
)
from ainfcat.fixtures import FIXTURES
from ainfcat.generation import generation_test

VALUES = [None, True, 1, 1.0, -1, "x", [], {}]
# keys an addition may use: unknown ones and optional properties of either schema
NEW_KEYS = ["x", "", "units", "cardy", "homotopy", "detail", "rational_only"]


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
    **{name: (lambda name=name: shipped_raw(name), CATEGORY_SCHEMA, _ACCEPTS_CATEGORY) for name in sorted(FIXTURES)},
    "dual_numbers+cardy": (_with_cardy, CATEGORY_SCHEMA, _ACCEPTS_CATEGORY),
    "certificate": (_certificate, CERTIFICATE_SCHEMA, _ACCEPTS_CERTIFICATE),
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
    make, schema, accepts = DOCUMENTS[name]
    doc = make()
    assert accepts(doc)
    assert schema_errors(doc, schema) == []


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_predicate_accepts_exactly_what_the_reporter_accepts(name, data):
    make, schema, accepts = DOCUMENTS[name]
    doc = copy.deepcopy(make())
    for _ in range(data.draw(st.integers(1, 2))):
        doc = _mutate(data, doc)
    errors = schema_errors(doc, schema)
    assert accepts(doc) == (not errors), [e.message for e in errors[:3]]


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
    ],
    ids=["pattern", "maximum", "nested-format", "properties-without-type", "minItems-on-a-string",
         "type-list", "number", "enum-of-integers", "boolean-items"],
)
def test_the_compiler_refuses_what_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="cannot compile"):
        compile_schema(schema)
