"""The JSON interchange format for categories, morphisms, and map data.

A category file carries objects, hom-space generators, operation term
tables (inputs in boundary order: the first listed input composes
first), optional unit chains, optional coproduct-type morphisms
(diagonal bimodule to a Yoneda tensor bimodule), and optional open/
closed map data for the consistency checker.  The schema below is the
published contract; generator references are [source, target, name]
triples.  Everything the schema cannot express (referential integrity,
composability, degree rules) is checked structurally right after
validation and reported with JSON pointers (RFC 6901: a name holding
`~` or `/` is escaped).  `_morphisms` is the one reader that turns
component tables into morphisms; the shipped fixtures' morphisms come
in through it too.  It checks every table at load and builds a morphism,
with its bimodules, only when a command first reads it.

Both schemas are compiled once into plain checks (`compile_schema`)
that accept a file or word its refusal as the reference Python
validator does, with the same pointer and message.  "integer" means a
JSON integer literal: `2.0` is refused, not read as a float.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from .bimodules import LEFT, RIGHT, BimoduleHom, DiagonalBimodule, PairGen, TensorBimodule, YonedaModule
from .complexes import BasedComplex
from .core import RING_F2, RING_Z, AinfCategory, Gen, frozen_table, is_composable, with_ring
from .hochschild import word_degree
from .intlinalg import NotAComplex

FORMAT_TAG = "ainfcat-category/1"
CERT_TAG = "ainfcat-certificate/1"

_STR = {"type": "string"}
_INT = {"type": "integer"}


def _closed(*, optional=(), **properties) -> dict:
    """An object with exactly these properties, each required unless optional."""
    required = [name for name in properties if name not in optional]
    return {
        "type": "object",
        **({"required": required} if required else {}),
        "additionalProperties": False,
        "properties": properties,
    }


def _array(items, **bounds) -> dict:
    return {"type": "array", "items": items, **bounds}


_GEN_REF = {"type": "array", "minItems": 3, "maxItems": 3, "prefixItems": [_STR] * 3}
_CHAIN = _array(_closed(generator=_GEN_REF, coefficient=_INT))
_NAMED = _closed(name=_STR, degree=_INT)

CATEGORY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_closed(
        optional=("operations", "units", "morphisms", "cardy"),
        format={"const": FORMAT_TAG},
        ring={"enum": [RING_Z, RING_F2]},
        objects=_array(_STR, minItems=1),
        hom=_array(_closed(source=_STR, target=_STR, generators=_array(_NAMED))),
        operations=_array(_closed(
            arity={"type": "integer", "minimum": 1},
            terms=_array(_closed(inputs=_array(_GEN_REF), output=_GEN_REF, coefficient=_INT)),
        )),
        units={"type": "object", "additionalProperties": _CHAIN},
        morphisms=_array(_closed(
            name=_STR,
            base_object=_STR,
            degree=_INT,
            components=_array(_closed(
                left_inputs={"type": "integer", "minimum": 0},
                right_inputs={"type": "integer", "minimum": 0},
                inputs=_array(_GEN_REF),
                output_left=_GEN_REF,
                output_right=_GEN_REF,
                coefficient=_INT,
            )),
        )),
        cardy=_closed(
            optional=("closed_complex", "chain_maps"),
            morphism=_STR,
            degree=_INT,
            closed_complex=_closed(
                basis=_array(_NAMED),
                differential=_array(_closed(input=_STR, output=_STR, coefficient=_INT)),
            ),
            chain_maps=_closed(
                optional=("oc", "co", "homotopy"),
                oc=_array(_closed(word=_array(_GEN_REF), output=_STR, coefficient=_INT)),
                co=_array(_closed(input=_STR, output=_GEN_REF, coefficient=_INT)),
                homotopy=_array(_closed(word=_array(_GEN_REF), output=_GEN_REF, coefficient=_INT)),
            ),
        ),
    ),
}

CERTIFICATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_closed(
        optional=("category_digest", "rational_only", "detail"),
        format={"const": CERT_TAG},
        verdict={"enum": ["generated", "inconclusive", "refuted-at-bound"]},
        object=_STR,
        subcategory=_array(_STR),
        max_length={"type": "integer", "minimum": 0},
        category_digest=_STR,
        rational_only={"type": "boolean"},
        detail=_STR,
        tau=_array(_closed(q=_GEN_REF, letters=_array(_GEN_REF), p=_GEN_REF, coefficient=_INT)),
        h=_CHAIN,
    ),
}

# the keywords the schemas use, by the type they need beside them: those
# `_closed` and `_array` emit, and "const" and "enum", which stand alone
_KEYWORDS = {
    None: ("const", "enum"),
    "string": (),
    "boolean": (),
    "integer": ("minimum",),
    "object": ("required", "properties", "additionalProperties"),
    "array": ("items", "prefixItems", "minItems", "maxItems"),
}


def compile_schema(schema: dict):
    """The check `instance -> (path, message) | None` of `schema` under
    JSON Schema 2020-12, "integer" meaning a JSON integer literal (not
    2.0, not true).  A refusal is the first error by path that the
    reference Python validator reports, in its words: a node's own errors
    (type, the first missing required name, the unexpected names, minItems
    or maxItems), then the least failing key's or index's.  Only the
    keywords in `_KEYWORDS` are compiled, each beside its type; anything
    else raises ValueError, so a schema edit cannot silently skip a check."""
    return _compile({k: v for k, v in schema.items() if k != "$schema"}, "#")


def _not_of_type(x, kind: str):
    return (), f"{x!r} is not of type {kind!r}"


def _compile(schema, where: str):
    if not isinstance(schema, dict):
        raise ValueError(f"{where}: cannot compile a schema that is not an object")
    kind = schema.get("type")
    if not isinstance(kind, (str, type(None))) or kind not in _KEYWORDS:
        raise ValueError(f"{where}: cannot compile type {kind!r}")
    unknown = set(schema) - {"type", *_KEYWORDS[kind]}
    if unknown:
        raise ValueError(f"{where}: cannot compile {sorted(unknown)} with type {kind!r}")

    if kind is None:
        values = [schema["const"]] if "const" in schema else schema.get("enum")
        if len(schema) != 1 or not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise ValueError(f"{where}: cannot compile a schema other than one const string or one enum of strings")
        if "const" in schema:
            return lambda x: None if isinstance(x, str) and x in values else ((), f"{values[0]!r} was expected")
        return lambda x: None if isinstance(x, str) and x in values else ((), f"{x!r} is not one of {values!r}")
    if kind == "string":
        return lambda x: None if isinstance(x, str) else _not_of_type(x, "string")
    if kind == "boolean":
        return lambda x: None if isinstance(x, bool) else _not_of_type(x, "boolean")
    if kind == "integer" and "minimum" in schema:
        least = schema["minimum"]
        return lambda x: _not_of_type(x, "integer") if type(x) is not int else (
            None if x >= least else ((), f"{x!r} is less than the minimum of {least!r}"))
    if kind == "integer":
        return lambda x: None if type(x) is int else _not_of_type(x, "integer")

    if kind == "object":
        props = {name: _compile(sub, f"{where}/properties/{name}") for name, sub in schema.get("properties", {}).items()}
        required = tuple(schema.get("required", ()))
        # an object is closed or a map: no schema leaves additionalProperties open
        rest = schema.get("additionalProperties")
        rest = rest if rest is False else _compile(rest, f"{where}/additionalProperties")

        def object_error(x):
            extras = sorted(key for key in x if props.get(key, rest) is False)
            if extras:
                names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
                return (), f"Additional properties are not allowed ({names} {verb} unexpected)"
            return min(((key, *e[0]), e[1]) for key, value in x.items() if (e := props.get(key, rest)(value)))

        def check_object(x):
            if not isinstance(x, dict):
                return _not_of_type(x, "object")
            for name in required:
                if name not in x:
                    return (), f"{name!r} is a required property"
            for key, value in x.items():
                test = props.get(key, rest)
                if test is False or test(value):
                    return object_error(x)
            return None

        return check_object

    prefix = tuple(_compile(sub, f"{where}/prefixItems/{i}") for i, sub in enumerate(schema.get("prefixItems", ())))
    each = _compile(schema["items"], f"{where}/items") if "items" in schema else None
    shortest, longest = schema.get("minItems", 0), schema.get("maxItems")

    def item_error(x):
        tests = zip(range(len(x)), prefix + (each,) * len(x), x)
        return next(((i, *e[0]), e[1]) for i, test, value in tests if test and (e := test(value)))

    def check_array(x):
        if not isinstance(x, list):
            return _not_of_type(x, "array")
        if len(x) < shortest:
            return (), f"{x!r} {'should be non-empty' if shortest == 1 else 'is too short'}"
        if longest is not None and len(x) > longest:
            return (), f"{x!r} {'is expected to be empty' if longest == 0 else 'is too long'}"
        if prefix:
            for test, value in zip(prefix, x):
                if test(value):
                    return item_error(x)
        if each is not None:
            for value in x[len(prefix):] if prefix else x:
                if each(value):
                    return item_error(x)
        return None

    return check_array


_CATEGORY_ERROR = compile_schema(CATEGORY_SCHEMA)
_CERTIFICATE_ERROR = compile_schema(CERTIFICATE_SCHEMA)


class InputError(Exception):
    """Schema or referential failure in an input file (exit code 2).

    `path` is the JSON pointer to the failing value, or None where there is
    none (the file is not JSON); the root's pointer "" is shown quoted.
    """

    def __init__(self, message, path: str | None = None):
        where = path or '""'
        super().__init__(message if path is None else f"{where}: {message}")
        self.path = path


@dataclass
class LoadedFile:
    category: AinfCategory
    raw: dict
    digest: str
    # every declared morphism by name, checked at load, built on first read
    morphisms: Mapping[str, BimoduleHom]
    # the cardy section's closed complex, validated, or None
    cardy_closed: BasedComplex | None = None
    # the cardy section's chain_maps with references resolved, or None:
    # "oc" word -> {closed name: c}, "co" closed name -> {Gen: c},
    # "homotopy" word -> {Gen: c}
    cardy_maps: dict | None = None


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pointer(*tokens) -> str:
    """The JSON pointer to these keys and indices, escaped as RFC 6901 says."""
    return "".join("/" + str(t).replace("~", "~0").replace("/", "~1") for t in tokens)


def _schema_check(instance, first_error) -> None:
    """Refuse `instance` at the first error the compiled schema `first_error` finds."""
    error = first_error(instance)
    if error is not None:
        raise InputError(error[1], path=_pointer(*error[0]))


def _add_term(chain: dict, g, coefficient: int) -> None:
    """chain += coefficient * g: a term listed twice counts twice."""
    chain[g] = chain.get(g, 0) + coefficient


def _resolve(refs_index, ref, path):
    key = tuple(ref)
    g = refs_index.get(key)
    if g is None:
        raise InputError(f"reference to undeclared generator {ref}", path=path)
    return g


def load_category(data: bytes, ring: str | None = None) -> LoadedFile:
    """Read a category file in its ring or in `ring`, chosen here once:
    morphisms and cardy data are built over the category in that ring.
    Integral data reduces mod 2; mod-2 data has no lift, refused at /ring."""
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as err:
        raise InputError(f"not valid JSON: {err}")
    _schema_check(raw, _CATEGORY_ERROR)

    objects = list(raw["objects"])
    if len(set(objects)) != len(objects):
        raise InputError("duplicate object names", path="/objects")
    obj_set = set(objects)

    hom: dict[tuple[str, str], list[Gen]] = {}
    refs_index: dict[tuple, Gen] = {}
    for i, entry in enumerate(raw["hom"]):
        s, t = entry["source"], entry["target"]
        if s not in obj_set or t not in obj_set:
            raise InputError(f"hom space between undeclared objects ({s}, {t})", path=f"/hom/{i}")
        gens = []
        for j, gd in enumerate(entry["generators"]):
            g = Gen(s, t, gd["name"], gd["degree"])
            if (s, t, g.name) in refs_index:
                raise InputError(f"duplicate generator {g.name} in hom({s},{t})", path=f"/hom/{i}/generators/{j}")
            refs_index[(s, t, g.name)] = g
            gens.append(g)
        hom.setdefault((s, t), []).extend(gens)

    mu: dict[int, dict] = {}
    for i, op in enumerate(raw.get("operations", [])):
        d = op["arity"]
        table = mu.setdefault(d, {})
        for j, term in enumerate(op["terms"]):
            path = f"/operations/{i}/terms/{j}"
            if len(term["inputs"]) != d:
                raise InputError(f"term has {len(term['inputs'])} inputs for arity {d}", path=path)
            key = tuple(_resolve(refs_index, r, path) for r in term["inputs"])
            out = _resolve(refs_index, term["output"], path)
            if term["coefficient"] == 0:
                raise InputError("zero coefficient stored", path=path)
            _add_term(table.setdefault(key, {}), out, term["coefficient"])
    for d in list(mu):
        mu[d] = {k: {g: c for g, c in v.items() if c} for k, v in mu[d].items()}
        mu[d] = {k: v for k, v in mu[d].items() if v}
        if not mu[d]:
            del mu[d]

    units = {}
    for obj, chain in raw.get("units", {}).items():
        if obj not in obj_set:
            raise InputError(f"unit for undeclared object {obj}", path=_pointer("units", obj))
        units[obj] = {}
        for j, t in enumerate(chain):
            g = _resolve(refs_index, t["generator"], _pointer("units", obj, j, "generator"))
            _add_term(units[obj], g, t["coefficient"])

    try:
        cat = AinfCategory(objects=objects, hom=hom, mu=mu, ring=raw["ring"], units=units)
    except ValueError as err:
        raise InputError(str(err), path="/operations")
    try:
        cat = with_ring(cat, ring or cat.ring)
    except ValueError as err:
        raise InputError(str(err), path="/ring")
    morphisms = _morphisms(raw.get("morphisms", []), cat, refs_index)
    section = raw.get("cardy", {})
    closed = maps = None
    if section:
        phi = morphisms.get(section["morphism"])
        if phi is None:
            raise InputError(f"no morphism named {section['morphism']} in file", path="/cardy/morphism")
        if phi.n != section["degree"]:
            raise InputError(f"morphism {section['morphism']} has degree {phi.n}", path="/cardy/degree")
        if "closed_complex" in section:
            closed = _closed_complex(section["closed_complex"], cat.ring)
        maps = _cardy_maps(section, closed, refs_index, phi)
    return LoadedFile(
        category=cat,
        raw=raw,
        digest=file_digest(data),
        morphisms=morphisms,
        cardy_closed=closed,
        cardy_maps=maps,
    )


def _closed_complex(table: dict, ring: str) -> BasedComplex:
    """The cardy section's closed complex: unique names, a differential of
    degree +1 between declared elements, and d o d = 0."""
    degree: dict[str, int] = {}
    for j, b in enumerate(table["basis"]):
        if b["name"] in degree:
            raise InputError(
                f"duplicate closed-complex basis name {b['name']!r}", path=f"/cardy/closed_complex/basis/{j}"
            )
        degree[b["name"]] = b["degree"]
    for i, t in enumerate(table["differential"]):
        path = f"/cardy/closed_complex/differential/{i}"
        for name in (t["input"], t["output"]):
            if name not in degree:
                raise InputError(f"reference to undeclared closed-complex element {name!r}", path=path)
        if degree[t["output"]] != degree[t["input"]] + 1:
            raise InputError("the differential must raise degree by one", path=path)
    basis: dict[int, list] = {}
    for name in sorted(degree):
        basis.setdefault(degree[name], []).append(name)
    # from_terms sums repeated entries: a term listed twice counts twice
    terms = ((t["input"], t["output"], t["coefficient"]) for t in table["differential"])
    cx = BasedComplex.from_terms(basis, terms, ring=ring)
    try:
        cx.validate()
    except NotAComplex as err:
        raise InputError(str(err), path="/cardy/closed_complex")
    return cx


def _cardy_maps(section: dict, closed: BasedComplex | None, refs_index, phi: BimoduleHom) -> dict | None:
    """Resolve the chain-map tables of the cardy section.

    Every generator reference must be declared, and every closed-complex
    name must be in the section's closed complex.  With K the base object
    and n the degree of phi, every oc and homotopy word must be a cyclic
    word, and every entry must land in its map's target in the degree the
    map's shift gives: oc in the closed complex at word degree + n, co in
    hom(K, K) at its input's degree, homotopy in hom(K, K) at word degree
    + n - 1.
    """
    if "chain_maps" not in section:
        return None
    if closed is None:
        raise InputError("chain maps need a closed complex", path="/cardy")
    degree = {name: k for k, labels in closed.basis.items() for name in labels}
    K, n = phi.target.left.K, phi.n

    def closed_name(name, path):
        if name not in degree:
            raise InputError(f"reference to undeclared closed-complex element {name!r}", path=path)
        return name

    def word(refs, path):
        w = tuple(_resolve(refs_index, r, path) for r in refs)
        if not w or not is_composable(w + w[:1]):
            raise InputError("the word is not a cyclic word", path=path)
        return w

    def end_K(ref, want, path):
        g = _resolve(refs_index, ref, path)
        if (g.source, g.target) != (K, K) or g.degree != want:
            raise InputError(f"output {g} must lie in hom({K}, {K}) in degree {want}", path=path)
        return g

    tables: dict = {"oc": {}, "co": {}, "homotopy": {}}
    maps = section["chain_maps"]
    for i, t in enumerate(maps.get("oc", [])):
        path = f"/cardy/chain_maps/oc/{i}"
        w, out = word(t["word"], path), closed_name(t["output"], path)
        if degree[out] != word_degree(w) + n:
            raise InputError(f"output {out!r} must lie in degree {word_degree(w) + n}", path=path)
        _add_term(tables["oc"].setdefault(w, {}), out, t["coefficient"])
    for i, t in enumerate(maps.get("co", [])):
        path = f"/cardy/chain_maps/co/{i}"
        name = closed_name(t["input"], path)
        _add_term(tables["co"].setdefault(name, {}), end_K(t["output"], degree[name], path), t["coefficient"])
    for i, t in enumerate(maps.get("homotopy", [])):
        path = f"/cardy/chain_maps/homotopy/{i}"
        w = word(t["word"], path)
        out = end_K(t["output"], word_degree(w) + n - 1, path)
        _add_term(tables["homotopy"].setdefault(w, {}), out, t["coefficient"])
    return tables


class _Morphisms(Mapping):
    """The declared morphisms by name, each built on first read from
    component tables checked at load.  The diagonal source and one tensor
    target per base object are built with the first morphism that needs
    them and shared."""

    def __init__(self, cat: AinfCategory, declared: dict[str, tuple[str, int, dict]]):
        self._cat = cat
        self._declared = declared  # name -> (base object, degree, component tables)
        self._built: dict[str, BimoduleHom] = {}
        self._targets: dict[str, TensorBimodule] = {}

    @cached_property
    def _source(self) -> DiagonalBimodule:
        return DiagonalBimodule(self._cat)

    def __getitem__(self, name: str) -> BimoduleHom:
        if name not in self._built:
            K, n, comps = self._declared[name]
            if K not in self._targets:
                self._targets[K] = TensorBimodule(YonedaModule(self._cat, K, LEFT), YonedaModule(self._cat, K, RIGHT))
            self._built[name] = BimoduleHom(source=self._source, target=self._targets[K], n=n, components=comps)
        return self._built[name]

    def __iter__(self):
        return iter(self._declared)

    def __len__(self) -> int:
        return len(self._declared)


def _morphisms(entries: list, cat: AinfCategory, refs_index) -> _Morphisms:
    """Check every declared coproduct-type morphism, diagonal bimodule to
    Y^l_K (x) Y^r_K, and defer building it to its first read; names must
    be unique.  Every component table is checked here, as BimoduleHom
    checks it, so a bad one is refused at load."""
    declared: dict[str, tuple[str, int, dict]] = {}
    for i, m in enumerate(entries):
        if m["name"] in declared:
            raise InputError(f"duplicate morphism name {m['name']}", path=f"/morphisms/{i}/name")
        K = m["base_object"]
        if K not in cat.objects:
            raise InputError(f"morphism base object {K} not declared", path=f"/morphisms/{i}/base_object")
        comps: dict = {}
        for j, c in enumerate(m["components"]):
            path = f"/morphisms/{i}/components/{j}"
            r, s = c["left_inputs"], c["right_inputs"]
            if len(c["inputs"]) != r + s + 1:
                raise InputError("component input count does not match (r, s)", path=path)
            key = tuple(_resolve(refs_index, ref, path) for ref in c["inputs"])
            pg = PairGen(_resolve(refs_index, c["output_left"], path), _resolve(refs_index, c["output_right"], path))
            _add_term(comps.setdefault((r, s), {}).setdefault(key, {}), pg, c["coefficient"])
        try:
            for (r, s), table in comps.items():
                frozen_table(table, cat.ring, r + s + 1, m["degree"] - 1)
        except ValueError as err:
            raise InputError(str(err), path=f"/morphisms/{i}")
        declared[m["name"]] = (K, m["degree"], comps)
    return _Morphisms(cat, declared)


# ---------------------------------------------------------------------------
# writers


def _gen_ref(g: Gen) -> list:
    return [g.source, g.target, g.name]


def category_to_json(cat: AinfCategory, morphism_tables=None) -> dict:
    out = {
        "format": FORMAT_TAG,
        "ring": cat.ring,
        "objects": sorted(cat.objects),
        "hom": [
            {
                "source": s,
                "target": t,
                "generators": [{"name": g.name, "degree": g.degree} for g in sorted(cat.hom[(s, t)])],
            }
            for (s, t) in sorted(cat.hom)
        ],
        "operations": [],
    }
    for d in sorted(cat.mu):
        terms = []
        for key in sorted(cat.mu[d]):
            for g in sorted(cat.mu[d][key]):
                terms.append(
                    {
                        "inputs": [_gen_ref(x) for x in key],
                        "output": _gen_ref(g),
                        "coefficient": cat.mu[d][key][g],
                    }
                )
        out["operations"].append({"arity": d, "terms": terms})
    if cat.units:
        out["units"] = {
            obj: [
                {"generator": _gen_ref(g), "coefficient": c}
                for g, c in sorted(cat.units[obj].items())
            ]
            for obj in sorted(cat.units)
        }
    if morphism_tables:
        out["morphisms"] = morphism_tables
    return out


def morphism_to_json(name: str, K: str, n: int, components: dict) -> dict:
    """A morphism entry from component tables (r, s) -> key -> {PairGen: c}."""
    comps = []
    for (r, s) in sorted(components):
        for key in sorted(components[(r, s)], key=str):
            for pg, c in sorted(components[(r, s)][key].items(), key=str):
                comps.append(
                    {
                        "left_inputs": r,
                        "right_inputs": s,
                        "inputs": [_gen_ref(x) for x in key],
                        "output_left": _gen_ref(pg.p),
                        "output_right": _gen_ref(pg.q),
                        "coefficient": c,
                    }
                )
    return {"name": name, "base_object": K, "degree": n, "components": comps}


def certificate_to_json(cert, digest: str) -> dict:
    return {
        "format": CERT_TAG,
        "verdict": cert.verdict,
        "object": cert.K,
        "subcategory": sorted(cert.B_objects),
        "max_length": cert.max_length,
        "category_digest": digest,
        "rational_only": cert.rational_only,
        "detail": cert.detail,
        "tau": [
            {
                "q": _gen_ref(w.q),
                "letters": [_gen_ref(a) for a in w.mid],
                "p": _gen_ref(w.p),
                "coefficient": c,
            }
            for w, c in sorted(cert.tau.items(), key=lambda item: str(item[0]))
        ],
        "h": [
            {"generator": _gen_ref(g), "coefficient": c}
            for g, c in sorted(cert.h.items())
        ],
    }


def subcategory_refusal(names: list, objects: list) -> tuple[int, str] | None:
    """The index and wording of the first name in a subcategory list that
    is not a declared object or is listed twice, or None."""
    for i, name in enumerate(names):
        if name not in objects:
            return i, f"unknown subcategory object {name!r}"
        if name in names[:i]:
            return i, f"subcategory object {name!r} listed twice"
    return None


def load_certificate(data: bytes, cat: AinfCategory, digest: str):
    """Read a certificate for `cat`, whose file has digest `digest`; a
    certificate that records no or another category_digest, or names an
    undeclared object or a bad subcategory list, is refused."""
    from .bimodules import TensorWord
    from .generation import GenerationCertificate

    try:
        raw = json.loads(data)
    except json.JSONDecodeError as err:
        raise InputError(f"not valid JSON: {err}")
    _schema_check(raw, _CERTIFICATE_ERROR)
    if raw.get("category_digest") != digest:
        raise InputError("certificate was not emitted for this category file", path="/category_digest")
    if raw["object"] not in cat.objects:
        raise InputError(f"unknown object {raw['object']!r}", path="/object")
    bad = subcategory_refusal(raw["subcategory"], cat.objects)
    if bad:
        raise InputError(bad[1], path=_pointer("subcategory", bad[0]))
    refs_index = {(g.source, g.target, g.name): g for g in cat.generators()}
    tau = {}
    for i, t in enumerate(raw["tau"]):
        path = f"/tau/{i}"
        w = TensorWord(
            _resolve(refs_index, t["q"], path),
            tuple(_resolve(refs_index, a, path) for a in t["letters"]),
            _resolve(refs_index, t["p"], path),
        )
        _add_term(tau, w, t["coefficient"])
    h: dict = {}
    for i, t in enumerate(raw["h"]):
        _add_term(h, _resolve(refs_index, t["generator"], f"/h/{i}/generator"), t["coefficient"])
    return GenerationCertificate(
        verdict=raw["verdict"],
        K=raw["object"],
        B_objects=list(raw["subcategory"]),
        max_length=raw["max_length"],
        tau=tau,
        h=h,
        rational_only=raw.get("rational_only", False),
        detail=raw.get("detail", ""),
    )
