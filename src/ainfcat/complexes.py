"""Labelled chain complexes and graded maps between them.

A BasedComplex carries an ordered basis of hashable labels per degree and
an integer matrix per degree for its differential, so homology questions
reduce to intlinalg; the differential is given label by label, and
materialized into matrices, or by the matrices themselves.  A GradedMap
is a matrix the same way: each image is computed once, and matrix(k)
feeds every solve and homology comparison.  The commutation convention for a map f of degree `shift` is

    d_target o f == (-1)^shift * f o d_source

checked entrywise by verify_chain_map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping
from weakref import proxy

from .core import RING_F2, VerificationReport, chain_add, chain_normalize, collect_violations, parity_sign
from .intlinalg import FinAbGroup, HomologyData, IntMatrix, NotAComplex, f2_rank


class BasedComplex:
    """Cochain complex with explicit labelled bases.

    `basis[k]` is an ordered list of labels.  The differential is a
    GradedMap of degree 1, given either label by label, `d` sending a label
    to a chain (dict label -> coefficient) in the next degree, with its
    chains and matrices cached there, or by its matrices (from_matrices),
    diff_chain then reading a label's column.  validate() checks
    d o d = 0 exactly (mod 2 over F2) and raises NotAComplex where it fails.
    """

    def __init__(self, basis: dict[int, list], d: Callable[[object], Mapping] | None, ring: str = "Z"):
        self.ring = ring
        self.basis = {k: list(v) for k, v in sorted(basis.items()) if v}
        self.index = {k: {label: i for i, label in enumerate(v)} for k, v in self.basis.items()}
        self._composites: dict[int, IntMatrix] = {}
        self._labels = {label: label for v in self.basis.values() for label in v}
        # held by weak proxies: a complex that referred to itself through its
        # differential would outlive its last use until the cyclic collector ran
        self._differential = GradedMap(proxy(self), proxy(self), 1, d, name="differential")

    @classmethod
    def from_matrices(cls, basis: dict[int, list], matrices: Mapping[int, IntMatrix], ring: str = "Z") -> BasedComplex:
        """The complex whose differential leaving degree k is matrices[k], a
        column per label of basis[k] and a row per label of basis[k + 1]; a
        degree without a matrix has zero differential."""
        cx = cls(basis, None, ring=ring)
        for k in cx.degrees():
            shape = (cx.dim(k + 1), cx.dim(k))
            M = matrices[k] if k in matrices else IntMatrix.zeros(*shape)
            if (M.rows, M.cols) != shape:
                raise ValueError(f"the degree-{k} matrix is {M.rows}x{M.cols}, its bases need {shape[0]}x{shape[1]}")
            cx._differential._matrices[k] = M
        return cx

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, []))

    def diff_chain(self, label) -> Mapping:
        return self._differential.chain(label)

    def matrix(self, k: int) -> IntMatrix:
        return self._differential.matrix(k)

    def vector(self, chain: Mapping, k: int) -> list[int]:
        v = [0] * self.dim(k)
        idx = self.index.get(k, {})
        for label, c in chain_normalize(dict(chain), self.ring).items():
            if c:
                v[idx[label]] = c
        return v

    def composite(self, k: int) -> IntMatrix:
        """matrix(k + 1) @ matrix(k), the matrix of d o d leaving degree k."""
        if k not in self._composites:
            self._composites[k] = self.matrix(k + 1) @ self.matrix(k)
        return self._composites[k]

    def validate(self) -> None:
        """Check d o d = 0 exactly, naming the first label where it fails."""
        odd = (lambda x: x % 2) if self.ring == RING_F2 else bool
        for k in self.degrees():
            bad = [j for row in self.composite(k).entries for j, x in row.items() if odd(x)]
            if bad:
                raise NotAComplex(f"d o d != 0 at degree {k} on {self.basis[k][min(bad)]!r}")

    def homology(self, k: int) -> FinAbGroup:
        if self.ring == RING_F2:
            n = self.dim(k)
            dim = (n - f2_rank(self.matrix(k))) - f2_rank(self.matrix(k - 1))
            return FinAbGroup(0, (2,) * dim)
        return self.homology_data(k).group

    def homology_data(self, k: int) -> HomologyData:
        if self.ring == RING_F2:
            raise ValueError("integral homology coordinates are not defined over F2")
        return HomologyData(self.matrix(k), self.matrix(k - 1), self.composite(k - 1))


@dataclass
class GradedMap:
    """A degree-`shift` linear map between two BasedComplexes, label to
    chain; each image and each matrix(k) is computed once.  A map with no
    `apply` is given by its matrices, and chain reads a label's column."""

    source: BasedComplex
    target: BasedComplex
    shift: int
    apply: Callable[[object], Mapping] | None
    name: str = "map"
    _chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def chain(self, label) -> Mapping:
        if self.apply is None:
            return self._column(label)
        cached = self._chains.get(label)
        if cached is None:
            # keyed by the target basis's own label objects, not the equal
            # copies `apply` builds, so the cache holds one object per label
            labels = self.target._labels
            chain = chain_normalize(dict(self.apply(label)), self.target.ring)
            cached = self._chains[label] = MappingProxyType({labels.get(g, g): c for g, c in chain.items()})
        return cached

    def _column(self, label) -> dict:
        for k, index in self.source.index.items():
            j = index.get(label)
            if j is not None:
                out = self.target.basis.get(k + self.shift, [])
                return {out[i]: c for i, c in self.matrix(k).column_entries(j).items()}
        raise KeyError(f"{self.name}: {label!r} is not a basis label of its source")

    def matrix(self, k: int) -> IntMatrix:
        """Column j is the image of source.basis[k][j] in the target's basis
        of degree k + shift; an image outside that basis raises KeyError."""
        if k not in self._matrices:
            tgt = self.target.index.get(k + self.shift, {})
            rows: list[dict] = [{} for _ in tgt]
            src = self.source.basis.get(k, [])
            for j, label in enumerate(src):
                for out, c in self.chain(label).items():
                    i = tgt.get(out)
                    if i is None:
                        raise KeyError(f"{self.name} of {label!r} leaves the declared basis at {out!r}")
                    rows[i][j] = c
            self._matrices[k] = IntMatrix.from_rows(rows, len(src))
        return self._matrices[k]

    def apply_to(self, chain: Mapping) -> dict:
        out: dict = {}
        for label, c in chain.items():
            chain_add(out, self.chain(label), c)
        return chain_normalize(out, self.target.ring)


def compose(g: GradedMap, f: GradedMap, name: str | None = None) -> GradedMap:
    if f.target is not g.source and f.target.basis != g.source.basis:
        raise ValueError("maps do not compose")
    return GradedMap(
        source=f.source,
        target=g.target,
        shift=f.shift + g.shift,
        apply=lambda label: g.apply_to(f.chain(label)),
        name=name or f"{g.name} o {f.name}",
    )


def verify_chain_map(f: GradedMap) -> VerificationReport:
    """Check d o f - (-1)^shift f o d = 0 on every basis label.

    Every matrix(k) is built first, so an image outside the target's
    declared basis raises matrix's KeyError, naming the label and the
    image, instead of passing a check that never indexes the target.
    """
    for k in f.source.degrees():
        f.matrix(k)
    sign = parity_sign(f.shift)

    def residual(label) -> dict:
        res: dict = {}
        for out, c in f.chain(label).items():
            chain_add(res, f.target.diff_chain(out), c)
        for out, c in f.source.diff_chain(label).items():
            chain_add(res, f.chain(out), -sign * c)
        return chain_normalize(res, f.target.ring)

    return collect_violations(
        ((label,), residual(label)) for k in f.source.degrees() for label in f.source.basis[k]
    )


def induced_rank_mod_2(f: GradedMap, k: int) -> int:
    """Over F2, the rank of the map f induces from H^k of its source to
    H^(k + shift) of its target.

    With F = f.matrix(k), D the source's d_k and E the target's
    d_(k + shift - 1), the map (x, y) -> (Fx + Ey, Dx) has rank
    rank D + dim(F(ker D) + im E), so the induced map has rank
    rank [[F, E], [D, 0]] - rank D - rank E.
    """
    F, D, E = f.matrix(k), f.source.matrix(k), f.target.matrix(k + f.shift - 1)
    top = [{**row, **{F.cols + j: c for j, c in e.items()}} for row, e in zip(F.entries, E.entries)]
    block = IntMatrix.from_rows(top + list(D.entries), F.cols + E.cols)
    return f2_rank(block) - f2_rank(D) - f2_rank(E)
