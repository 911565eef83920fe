"""Chain-level verification of the open/closed consistency square.

Given chain data for the open-to-closed and closed-to-open maps (the
engine never constructs these from geometry), verify the four-term
homotopy identity

    (-1)^n mu^1 o H + H o b + mu o CC(phi) - CO o OC = 0

as an identity of matrices in every degree of the truncation, a nonzero
column naming its cyclic word.  The homotopy H is a GradedMap from the
cyclic complex to hom(K, K) of degree n - 1 (homotopy_map), read from a
file or solved for as one integer linear system.  The two induced
compositions are compared on truncated homology up to the global sign
(-1)^(n(n+1)/2).  mu^1 in the identity is the bare structure map; the
complexes' own differentials keep the module conventions documented
elsewhere.

Everything the checks need is one OpenClosedData: mu o CC(phi), built
once by mu_cc_map, fixes the cyclic complex, hom(K, K) and n, and the
two connecting maps are checked against it.

CC(phi) sends a cyclic word of length d to tensor words with at most
d - 1 middle letters, and the tensor differential never lengthens a word,
so for cyclic words of length <= N the tensor complex truncated at N - 1
holds every word the map reaches.  Those words also end in the letters of
phi's outputs, so the subcomplex on the submodules they generate
(generated_submodules) holds them too; `ainfcat cardy` builds that one.
The homology comparison factors no presentation in a degree where
mu o CC(phi) - (-1)^(n(n+1)/2) CO o OC is a multiple of the exponent of
hom(K, K)'s homology (HomologyData.induces_zero); elsewhere it reads one
sparse induced matrix per map (HomologyData.induced), both sharing one
factorization of each spot.

All checks are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .bimodules import BimoduleHom, YonedaModule, mu_composition_map
from .complexes import BasedComplex, GradedMap, combination, compose, residual_report, table_terms, verify_chain_map
from .core import RING_F2, AinfCategory, VerificationReport, Violation, parity_sign
from .hochschild import ChainMapViolation, cc_of_delta
from .intlinalg import IntMatrix, RationalOnly, Unsolvable, solve_integer
from .strata import sign_formula


@dataclass
class OpenClosedData:
    """mu o CC(phi) and the two connecting maps.

    `mu_cc` runs from the cyclic complex to hom(K, K) with shift n (see
    mu_cc_map); `oc` maps the same cyclic complex to the closed complex
    with shift n; `co` maps the closed complex to that same hom(K, K)
    with shift 0.  On construction the shifts and endpoints are checked and
    mu_cc, oc and co (oc once when it is mu_cc) are verified to be chain
    maps; one that is not raises ChainMapViolation naming it and a label.
    `co_oc` is CO o OC.
    """

    cat: AinfCategory
    mu_cc: GradedMap
    oc: GradedMap
    co: GradedMap
    co_oc: GradedMap = field(init=False)

    @property
    def n(self) -> int:
        return self.mu_cc.shift

    def __post_init__(self):
        if self.oc.source is not self.mu_cc.source:
            raise ValueError("open-to-closed map must start at the cyclic complex of mu o CC(phi)")
        if self.co.target is not self.mu_cc.target:
            raise ValueError("closed-to-open map must end on hom(K, K), the target of mu o CC(phi)")
        if self.oc.shift != self.n:
            raise ValueError(f"open-to-closed map must shift degree by n = {self.n}")
        if self.co.shift != 0:
            raise ValueError("closed-to-open map must preserve degree")
        for name, f in (("mu o CC(phi)", self.mu_cc), ("open-to-closed", self.oc), ("closed-to-open", self.co)):
            if f is self.mu_cc and name != "mu o CC(phi)":
                continue
            report = verify_chain_map(f)
            if not report.passed:
                (bad,) = report.violations[0].inputs
                raise ChainMapViolation(f"{name} map is not a chain map on {bad!r}", witness=bad, culprit=f)
        self.co_oc = compose(self.co, self.oc, name="CO o OC")


def homotopy_map(data: OpenClosedData, table: Mapping) -> GradedMap:
    """The homotopy H as a map from the cyclic complex to hom(K, K) of
    degree n - 1, from table (word -> chain); a word the table lacks goes
    to zero, and an entry on a word past the truncation is not read."""
    cc = data.mu_cc.source
    return GradedMap.from_terms(cc, data.mu_cc.target, data.n - 1, table_terms(cc, table), name="homotopy")


def verify_homotopy_equation(data: OpenClosedData, H: GradedMap) -> VerificationReport:
    """The four-term identity in every degree k of the truncation, as the
    matrix identity  (-1)^n mu^1 H_k + H_(k+1) b_k + mu o CC(phi)_k
    - CO o OC_k = 0  (hom(K, K)'s differential is -mu^1); a nonzero
    column is a violation on its word."""
    n, cc, hom_cx = data.n, data.mu_cc.source, data.mu_cc.target
    return residual_report(cc, hom_cx, n, lambda k: combination([
        (-parity_sign(n), hom_cx.matrix(k + n - 1) @ H.matrix(k)),
        (1, H.matrix(k + 1) @ cc.matrix(k)),
        (1, data.mu_cc.matrix(k)),
        (-1, data.co_oc.matrix(k)),
    ], data.cat.ring))


def mu_cc_map(phi: BimoduleHom, cc: BasedComplex, tensor_cx: BasedComplex) -> GradedMap:
    """mu o CC(phi), from the cyclic complex cc to hom(K, K), where K is
    phi's base object; CC(phi) is verified to be a chain map (cc_of_delta)."""
    f = cc_of_delta(phi, cc, tensor_cx)
    mu = mu_composition_map(phi.target.right, phi.target.right.K, tensor_cx)
    return compose(mu, f, name="mu o CC")


def generated_submodules(phi: BimoduleHom) -> tuple[YonedaModule, YonedaModule]:
    """The submodules (R', L') of phi's target modules Y^r_K and Y^l_K
    that the q and the p of phi's outputs p (x) q generate
    (YonedaModule.submodule).  The tensor words with end letters in L' and
    R' span a subcomplex of Y^r_K (x)_B Y^l_K that holds the image of
    CC(phi)."""
    outputs = [pg for table in phi.components.values() for chain in table.values() for pg in chain]
    return phi.target.right.submodule(pg.q for pg in outputs), phi.target.left.submodule(pg.p for pg in outputs)


def solve_homotopy(data: OpenClosedData) -> GradedMap | Unsolvable | RationalOnly:
    """Solve the homotopy identity for H over the integers.

    With H_k the block of H on words of degree k, the identity in degree k
    is  (-1)^n mu^1 H_k + H_(k+1) b_k = CO o OC - mu o CC(phi)  on those
    words; unknowns and equations run word by word, then by generator.
    Returns H as a map (homotopy_map), or solve_integer's RationalOnly when the
    system is solvable over the rationals only, or Unsolvable otherwise.
    """
    n = data.n
    cc = data.mu_cc.source
    hom_cx = data.mu_cc.target
    sign = -parity_sign(n)  # hom_cx's differential is -mu^1

    variables: list = []  # (word, target generator)
    first: dict[int, int] = {}  # where the entries of H_k start
    for k in cc.degrees():
        first[k] = len(variables)
        variables += [(w, y) for w in cc.basis[k] for y in hom_cx.basis.get(k + n - 1, [])]

    rows: list[dict] = []
    rhs: list[int] = []
    for k in cc.degrees():
        base, m, p = len(rows), hom_cx.dim(k + n), hom_cx.dim(k + n - 1)
        rows += [{} for _ in range(cc.dim(k) * m)]
        rhs += [0] * (cc.dim(k) * m)
        # the equation on word j and generator i is row base + j * m + i
        for i, entries in enumerate(hom_cx.matrix(k + n - 1).entries):
            for q, c in entries.items():
                for j in range(cc.dim(k)):
                    rows[base + j * m + i][first[k] + j * p + q] = sign * c
        for j1, entries in enumerate(cc.matrix(k).entries):
            for j, c in entries.items():
                for i in range(m):
                    rows[base + j * m + i][first[k + 1] + j1 * m + i] = c
        difference = combination([(-1, data.mu_cc.matrix(k)), (1, data.co_oc.matrix(k))], cc.ring)
        for i, entries in enumerate(difference.entries):
            for j, c in entries.items():
                rhs[base + j * m + i] = c

    sol = solve_integer(IntMatrix.from_rows(rows, len(variables)), rhs)
    if isinstance(sol, (Unsolvable, RationalOnly)):
        return sol
    table: dict = {}
    for (w, y), c in zip(variables, sol):
        if c:
            table.setdefault(w, {})[y] = c
    return homotopy_map(data, table)


def verify_cardy_on_homology(data: OpenClosedData) -> VerificationReport:
    """Compare the two induced compositions on truncated homology.

    Checks [mu o CC(phi)] = (-1)^(n(n+1)/2) [CO o OC] classwise in
    every degree of the word complex, one check per class generator.  A
    degree where their difference induces zero (induces_zero) passes whole;
    elsewhere the induced matrices are compared column by column, and a
    failing generator is reported as a chain with both coordinate tuples.
    Over F2 there are no class coordinates, so the comparison refuses.
    """
    cc = data.mu_cc.source
    if cc.ring == RING_F2:
        raise ValueError("integral homology coordinates are not defined over F2")
    n = data.n
    hom_cx = data.mu_cc.target
    gsign = sign_formula("cardy_global", n=n)

    violations = []
    checked = 0
    for k in cc.degrees():
        hs = cc.homology_data(k)
        ht = hom_cx.homology_data(k + n)
        difference = combination([(1, data.mu_cc.matrix(k)), (-gsign, data.co_oc.matrix(k))], cc.ring)
        if ht.induces_zero(difference, hs):
            checked += hs.group.free_rank + len(hs.group.torsion)
            continue
        lhs = ht.induced(data.mu_cc.matrix(k), hs)
        rhs = ht.induced(combination([(gsign, data.co_oc.matrix(k))], cc.ring), hs)
        checked += lhs.cols
        for j, (col1, col2) in enumerate(zip(lhs.transpose().entries, rhs.transpose().entries)):
            if col1 != col2:
                coords1, coords2 = (tuple(col.get(i, 0) for i in range(lhs.rows)) for col in (col1, col2))
                chain = {w: c for w, c in zip(cc.basis[k], hs.class_generator(j)) if c}
                violations.append(Violation((k, chain), {"lhs": coords1, "rhs": coords2}))
    return VerificationReport(checked=checked, violations=violations)


# ---------------------------------------------------------------------------
# standard configurations


def telescoping_data(cat: AinfCategory, mu_cc: GradedMap, co_sign: int = 1) -> OpenClosedData:
    """The self-referential configuration: the closed complex is hom(K, K),
    the open-to-closed map is mu o CC(phi) itself, and the closed-to-open
    map is (+-)identity."""
    hom_cx = mu_cc.target
    terms = ((g, g, co_sign) for gens in hom_cx.basis.values() for g in gens)
    co = GradedMap.from_terms(hom_cx, hom_cx, 0, terms, name="(+-)id")
    return OpenClosedData(cat=cat, mu_cc=mu_cc, oc=mu_cc, co=co)
