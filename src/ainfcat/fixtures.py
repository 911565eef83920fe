"""Shipped example categories.

Fixtures built from a differential graded algebra (A, d, *) use the
standard twist making the structure relation hold with this package's
sign conventions:

    mu^1(x)        = (-1)^deg(x) * d(x)
    mu^2(x_1, x_2) = (-1)^deg(x_1) * (x_2 * x_1)      (boundary order)

so strict associativity of * becomes the signed associativity the d = 3
relation demands.  Every fixture is certified by verify_ainf in the test
suite before anything else consumes it.  Fixtures are integral; the mod-2
one is core.with_ring(make(), "F2").
"""

from __future__ import annotations

from .core import AinfCategory, Gen, parity_sign

OBJ = "*"


def _dga_category(objects, gens, diff, prod, units=None):
    """Build a category from a strict dga presented on basis generators.

    `diff[g]` is a dict generator -> coefficient for d(g); `prod[(g1, g2)]`
    (boundary order: g1 composes first) likewise for the product g2 * g1.
    """
    hom: dict[tuple[str, str], list[Gen]] = {}
    for g in gens:
        hom.setdefault((g.source, g.target), []).append(g)
    mu1 = {}
    for g, dg in diff.items():
        sign = parity_sign(g.degree)
        chain = {h: sign * c for h, c in dg.items() if c}
        if chain:
            mu1[(g,)] = chain
    mu2 = {}
    for (g1, g2), out in prod.items():
        sign = parity_sign(g1.degree)
        chain = {h: sign * c for h, c in out.items() if c}
        if chain:
            mu2[(g1, g2)] = chain
    mu = {}
    if mu1:
        mu[1] = mu1
    if mu2:
        mu[2] = mu2
    return AinfCategory(objects=list(objects), hom=hom, mu=mu, units=units or {})


def ground_ring() -> AinfCategory:
    """One object, hom = Z*e in degree 0, e*e = e."""
    e = Gen(OBJ, OBJ, "e", 0)
    return _dga_category([OBJ], [e], diff={}, prod={(e, e): {e: 1}}, units={OBJ: {e: 1}})


def dual_numbers(eps_degree: int = 1) -> AinfCategory:
    """Z[eps]/(eps^2) with deg(eps) configurable; strict unit e."""
    e = Gen(OBJ, OBJ, "e", 0)
    eps = Gen(OBJ, OBJ, "eps", eps_degree)
    prod = {(e, e): {e: 1}, (e, eps): {eps: 1}, (eps, e): {eps: 1}}
    return _dga_category([OBJ], [e, eps], diff={}, prod=prod, units={OBJ: {e: 1}})


def path_category(n: int = 3) -> AinfCategory:
    """Poset category of 1 < 2 < ... < n: one degree-0 arrow i -> j for i <= j."""
    objects = [str(i) for i in range(1, n + 1)]
    arrows = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            arrows[(i, j)] = Gen(str(i), str(j), f"f{i}{j}", 0)
    prod = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                prod[(arrows[(i, j)], arrows[(j, k)])] = {arrows[(i, k)]: 1}
    units = {str(i): {arrows[(i, i)]: 1} for i in range(1, n + 1)}
    return _dga_category(objects, list(arrows.values()), diff={}, prod=prod, units=units)


def cone_algebra(m: int = 2) -> AinfCategory:
    """Endomorphism dga of the two-term complex Z --m--> Z (degrees 0, 1).

    Basis: the two diagonal idempotents p, q in degree 0, the degree 1 map
    u sending the degree-0 generator to the degree-1 one, and its degree -1
    transpose v.  The differential is nonzero (d v = m(p + q), d p = m u,
    d q = -m u), making this the main sign-stress fixture; its cohomology
    has m-torsion in degrees 0 and 1.
    """
    p = Gen(OBJ, OBJ, "p", 0)
    q = Gen(OBJ, OBJ, "q", 0)
    u = Gen(OBJ, OBJ, "u", 1)
    v = Gen(OBJ, OBJ, "v", -1)
    diff = {p: {u: m}, q: {u: -m}, v: {p: m, q: m}}
    prod = {
        (p, p): {p: 1},
        (q, q): {q: 1},
        (p, u): {u: 1},   # u after p
        (u, q): {u: 1},   # q after u
        (q, v): {v: 1},
        (v, p): {v: 1},
        (u, v): {p: 1},   # v after u: back to degree 0 summand
        (v, u): {q: 1},
    }
    units = {OBJ: {p: 1, q: 1}}
    return _dga_category([OBJ], [p, q, u, v], diff=diff, prod=prod, units=units)


def split_summand_pair() -> AinfCategory:
    """Two objects K, L with Y^r_K a summand of two shifted copies of Y^r_L.

    Models the endomorphism category of {Z in degree 0, Z^2 in degree 1}:
    hom(K, L) has two degree-1 generators f1, f2, hom(L, K) their degree -1
    duals g1, g2 with g_i f_i summing to the identity of K.
    """
    eK = Gen("K", "K", "eK", 0)
    f1 = Gen("K", "L", "f1", 1)
    f2 = Gen("K", "L", "f2", 1)
    g1 = Gen("L", "K", "g1", -1)
    g2 = Gen("L", "K", "g2", -1)
    E = {(i, j): Gen("L", "L", f"E{i}{j}", 0) for i in (1, 2) for j in (1, 2)}
    f = {1: f1, 2: f2}
    g = {1: g1, 2: g2}
    prod = {(eK, eK): {eK: 1}}
    for i in (1, 2):
        prod[(eK, f[i])] = {f[i]: 1}
        prod[(g[i], eK)] = {g[i]: 1}
        # g_j after f_i lands in hom(K, K)
        for j in (1, 2):
            if i == j:
                prod[(f[i], g[j])] = {eK: 1}
            # f_j after g_i is the matrix unit E_{ji} of hom(L, L)
            prod[(g[i], f[j])] = {E[(j, i)]: 1}
    for i in (1, 2):
        for j in (1, 2):
            # E_{ij} picks out component j and lands in component i
            prod[(f[j], E[(i, j)])] = {f[i]: 1}
            prod[(E[(i, j)], g[i])] = {g[j]: 1}
            for k in (1, 2):
                prod[(E[(j, k)], E[(i, j)])] = {E[(i, k)]: 1}
    units = {"K": {eK: 1}, "L": {E[(1, 1)]: 1, E[(2, 2)]: 1}}
    gens = [eK, f1, f2, g1, g2] + list(E.values())
    return _dga_category(["K", "L"], gens, diff={}, prod=prod, units=units)


def two_object_with_zero() -> AinfCategory:
    """Ground ring plus an extra object with all hom spaces involving it zero.

    The full subcategory on the extra object has no morphisms at all; it is
    the standard inconclusive-path input for the generation test.
    """
    e = Gen("K", "K", "e", 0)
    cat = _dga_category(["K", "Z0"], [e], diff={}, prod={(e, e): {e: 1}}, units={"K": {e: 1}})
    return cat


# Triple-product coefficients for triple_product_algebra, found by an exact
# integer solve of the structure relations (d <= 6) over the cone algebra and
# picked so that negating any single stored coefficient of mu^1, mu^2 or mu^3
# breaks the relation at d <= 4.  Keys are boundary-ordered generator names.
_TRIPLE_TERMS = [
    (("p", "q", "u"), "p", -1),
    (("q", "p", "u"), "p", -1),
    (("q", "q", "p"), "v", -1),
    (("q", "q", "q"), "v", 1),
    (("q", "q", "u"), "p", 1),
    (("q", "q", "u"), "q", -1),
    (("q", "u", "p"), "p", -1),
    (("q", "u", "q"), "p", 1),
    (("q", "u", "u"), "u", -1),
    (("q", "v", "u"), "v", -1),
    (("u", "q", "p"), "p", 1),
    (("u", "q", "q"), "p", -1),
    (("u", "q", "u"), "u", 1),
    (("u", "v", "u"), "p", 1),
    (("v", "q", "u"), "v", 1),
    (("v", "u", "u"), "p", -1),
]


def triple_product_algebra() -> AinfCategory:
    """Cone algebra deformed by a nonzero triple product mu^3.

    The mu^3 table was solved exactly against the structure relations and is
    rigid: every single-coefficient sign flip is caught by verify_ainf.
    """
    base = cone_algebra(2)
    byname = {g.name: g for g in base.hom[(OBJ, OBJ)]}
    mu3: dict = {}
    for names, out, c in _TRIPLE_TERMS:
        key = tuple(byname[n] for n in names)
        mu3.setdefault(key, {})[byname[out]] = c
    mu = dict(base.mu)
    mu[3] = mu3
    return AinfCategory(objects=[OBJ], hom=dict(base.hom), mu=mu, units=dict(base.units))


def even_dual_numbers() -> AinfCategory:
    """Dual numbers with the nilpotent generator in degree 2.

    Its diagonal-decomposition morphism (see the shipped degree-2
    morphism) has a composite acting by multiplication by 2 on homology,
    giving an infinite-order class that the odd-degree fixtures cannot
    produce.
    """
    return dual_numbers(eps_degree=2)


FIXTURES = {
    "ground_ring": ground_ring,
    "dual_numbers": dual_numbers,
    "even_dual_numbers": even_dual_numbers,
    "path_category": path_category,
    "cone_algebra": cone_algebra,
    "split_summand_pair": split_summand_pair,
    "two_object_with_zero": two_object_with_zero,
    "triple_product_algebra": triple_product_algebra,
}


# Coproduct-type morphisms from the diagonal bimodule to Y^l_K (x) Y^r_K,
# K = MORPHISM_BASE_OBJECT[fixture], solved exactly against the morphism
# equation (components up to two category inputs, certified in the tests).
# Entries are (r, s, input names in boundary order, (p name, q name),
# coefficient).  `ainfcat fixture` writes the degree-n table as the file's
# morphism coproduct_n<n>, and fileformat builds it when the file loads.
_MORPHISM_TABLES = {
    ("ground_ring", 0): [
        (0, 0, ("e",), ("e", "e"), 1),
    ],
    ("dual_numbers", 0): [
        (1, 1, ("eps", "e", "eps"), ("e", "e"), 1),
        (1, 1, ("eps", "eps", "eps"), ("e", "eps"), 1),
        (2, 0, ("e", "eps", "eps"), ("e", "e"), -1),
        (2, 0, ("eps", "eps", "eps"), ("eps", "e"), -1),
    ],
    ("dual_numbers", 1): [
        (0, 1, ("eps", "e"), ("e", "eps"), 1),
        (1, 0, ("e", "eps"), ("eps", "e"), -1),
    ],
    ("dual_numbers", 2): [
        (0, 0, ("e",), ("eps", "eps"), 1),
    ],
    ("even_dual_numbers", 2): [
        (0, 0, ("e",), ("e", "eps"), 1),
        (0, 0, ("e",), ("eps", "e"), 1),
        (0, 0, ("eps",), ("eps", "eps"), 1),
    ],
    ("cone_algebra", 0): [
        (0, 0, ("p",), ("p", "p"), -1),
        (0, 0, ("p",), ("v", "u"), 1),
        (0, 0, ("q",), ("q", "q"), 1),
        (0, 0, ("q",), ("u", "v"), -1),
        (0, 0, ("u",), ("q", "u"), 1),
        (0, 0, ("u",), ("u", "p"), -1),
        (0, 0, ("v",), ("p", "v"), -1),
        (0, 0, ("v",), ("v", "q"), 1),
    ],
    ("cone_algebra", 1): [
        (0, 0, ("p",), ("p", "u"), -1),
        (0, 0, ("q",), ("u", "q"), 1),
        (0, 0, ("u",), ("u", "u"), -1),
        (0, 0, ("v",), ("p", "q"), 1),
    ],
    ("cone_algebra", 2): [
        (0, 0, ("v",), ("p", "u"), -2),
        (0, 0, ("v",), ("u", "p"), -2),
        (0, 1, ("p", "v"), ("p", "p"), -1),
        (0, 1, ("q", "v"), ("p", "p"), 1),
        (0, 1, ("v", "p"), ("p", "p"), 1),
        (0, 1, ("v", "v"), ("p", "v"), 1),
        (1, 0, ("q", "v"), ("p", "p"), -1),
        (1, 0, ("v", "u"), ("u", "p"), -1),
    ],
    ("split_summand_pair", 0): [
        (0, 0, ("E11",), ("f1", "g1"), 1),
        (0, 0, ("E12",), ("f1", "g2"), 1),
        (0, 0, ("E21",), ("f2", "g1"), 1),
        (0, 0, ("E22",), ("f2", "g2"), 1),
        (0, 0, ("eK",), ("eK", "eK"), 1),
        (0, 0, ("f1",), ("f1", "eK"), 1),
        (0, 0, ("f2",), ("f2", "eK"), 1),
        (0, 0, ("g1",), ("eK", "g1"), 1),
        (0, 0, ("g2",), ("eK", "g2"), 1),
    ],
}

MORPHISM_BASE_OBJECT = {
    "ground_ring": OBJ,
    "dual_numbers": OBJ,
    "even_dual_numbers": OBJ,
    "cone_algebra": OBJ,
    "split_summand_pair": "K",
}


SHIPPED_MORPHISMS = sorted(_MORPHISM_TABLES)
