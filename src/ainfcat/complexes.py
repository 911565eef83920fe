"""Labelled chain complexes and graded maps between them.

A BasedComplex carries an ordered basis of hashable labels per degree and
an integer matrix per degree for its differential, so homology questions
reduce to intlinalg.  A GradedMap is nothing but its matrices too.  Both
take a dict of matrices, or fill it from terms (from_terms, the one way
data becomes a matrix): each (label, image, c) adds c at the image's row
and the label's column, and an image outside the target's basis raises
KeyError when the map is built.  A composite is the product of its
factors' matrices, formed when it is built, and a degree with no stored
matrix has the zero matrix of its bases' shape.
The commutation convention for a map f of degree `shift` is

    d_target o f == (-1)^shift * f o d_source

checked degree by degree as a matrix identity by verify_chain_map.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .core import RING_F2, VerificationReport, Violation, chain_normalize, parity_sign
from .intlinalg import HomologyData, HomologyMod2, IntMatrix, NotAComplex, cancel_unit_pairs


def _from_terms(source: BasedComplex, target: BasedComplex, shift: int, terms, name: str) -> dict[int, IntMatrix]:
    """The matrices of a degree-`shift` map from source to target given by
    its terms: each (label, image, c) adds c at the image's row and the
    label's column.  Entries are summed, then reduced mod 2 over F2; an
    image outside the target's basis raises KeyError."""
    where = {label: (k, j) for k, index in source.index.items() for label, j in index.items()}
    rows = {k: [{} for _ in range(target.dim(k + shift))] for k in source.degrees()}
    into = {k: target.index.get(k + shift, {}) for k in rows}
    for label, out, c in terms:
        k, j = where[label]
        i = into[k].get(out)
        if i is None:
            raise KeyError(f"{name} of {label!r} leaves the declared basis at {out!r}")
        row = rows[k][i]
        row[j] = row.get(j, 0) + c
    return {
        k: IntMatrix.from_rows([chain_normalize(row, target.ring) for row in rows.pop(k)], source.dim(k))
        for k in source.degrees()
    }


def table_terms(source: BasedComplex, table: Mapping) -> Iterator[tuple]:
    """The terms of the map sending each label of source's basis to its
    chain in table (label -> chain), in basis order; an entry on a label
    outside the basis is not read."""
    for labels in source.basis.values():
        for label in labels:
            for out, c in table.get(label, {}).items():
                yield label, out, c


def combination(terms: list[tuple[int, IntMatrix]], ring: str) -> IntMatrix:
    """The sum of c * M over the (c, M) of terms, all of one shape, its
    entries reduced mod 2 over F2."""
    rows = [{} for _ in range(terms[0][1].rows)]
    for c, M in terms:
        for acc, row in zip(rows, M.entries):
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    return IntMatrix.from_rows([chain_normalize(row, ring) for row in rows], terms[0][1].cols)


def residual_report(source: BasedComplex, target: BasedComplex, shift: int, residual) -> VerificationReport:
    """The report of residual(k) = 0 for every degree k of source, residual(k)
    a matrix into degree k + shift of target: a Violation per nonzero
    column, degree by degree in basis order; every label counts as checked."""
    violations = []
    for k in source.degrees():
        out = target.basis.get(k + shift, [])
        for label, col in zip(source.basis[k], residual(k).transpose().entries):
            if col:
                violations.append(Violation((label,), {out[i]: c for i, c in col.items()}))
    return VerificationReport(checked=sum(map(source.dim, source.degrees())), violations=violations)


class BasedComplex:
    """Cochain complex with explicit labelled bases.

    `basis[k]` is an ordered list of labels.  The differential leaving
    degree k is matrices[k], a column per label of basis[k] and a row per
    label of basis[k + 1]; a degree without a matrix has zero
    differential.  from_terms fills the matrices from the differential's
    terms.  validate() checks d o d = 0 exactly (mod 2 over F2) and raises
    NotAComplex where it fails.  `composites` holds known d o d products.
    """

    def __init__(self, basis: dict[int, list], matrices: Mapping[int, IntMatrix] | None = None, ring: str = "Z",
                 composites: Mapping[int, IntMatrix] | None = None):
        self.ring = ring
        self.basis = {k: list(v) for k, v in sorted(basis.items()) if v}
        self.index = {k: {label: i for i, label in enumerate(v)} for k, v in self.basis.items()}
        self._matrices = dict(matrices or {})
        for k, M in self._matrices.items():
            shape = (self.dim(k + 1), self.dim(k))
            if (M.rows, M.cols) != shape:
                raise ValueError(f"the degree-{k} matrix is {M.rows}x{M.cols}, its bases need {shape[0]}x{shape[1]}")
        self._composites = dict(composites or {})
        self._divisors_known = False

    @classmethod
    def from_terms(cls, basis: dict[int, list], terms, ring: str = "Z") -> BasedComplex:
        """The complex whose differential is the sum of its terms, each
        (label, image, c) adding c * image to the differential of label."""
        cx = cls(basis, ring=ring)
        cx._matrices = _from_terms(cx, cx, 1, terms, "differential")
        return cx

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, []))

    def matrix(self, k: int) -> IntMatrix:
        """Column j is the differential of basis[k][j] in the basis of
        degree k + 1."""
        M = self._matrices.get(k)
        return IntMatrix.zeros(self.dim(k + 1), self.dim(k)) if M is None else M

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

    def homology_data(self, k: int) -> HomologyData | HomologyMod2:
        """The homology at degree k, the one place homology reads the ring:
        over Z with class coordinates (HomologyData), over F2 by ranks alone
        (HomologyMod2).  Both check d o d = 0 there and give `group`,
        `induces_zero` and `induces_iso`.  Over Z the first call validates
        the whole complex and runs cancel_unit_pairs over it; that pass
        couples neighbouring degrees, so it is sound only on a complex, and
        a d o d that fails anywhere is refused at every degree."""
        if self.ring == RING_F2:
            return HomologyMod2(self.matrix(k), self.matrix(k - 1), self.composite(k - 1))
        if not self._divisors_known:
            self.validate()
            degrees = self.degrees()
            cancel_unit_pairs([self.matrix(j) for j in range(degrees[0], degrees[-1] + 1)] if degrees else [])
            self._divisors_known = True
        return HomologyData(self.matrix(k), self.matrix(k - 1), self.composite(k - 1))


class GradedMap:
    """A degree-`shift` linear map between two BasedComplexes, held as its
    matrices: matrices[k] has a column per label of source.basis[k] and a
    row per label of target.basis[k + shift]; a degree without a matrix
    maps to zero."""

    def __init__(self, source: BasedComplex, target: BasedComplex, shift: int,
                 matrices: Mapping[int, IntMatrix] | None = None, name: str = "map"):
        self.source, self.target, self.shift, self.name = source, target, shift, name
        self._matrices = dict(matrices or {})

    @classmethod
    def from_terms(cls, source: BasedComplex, target: BasedComplex, shift: int, terms, name: str = "map") -> GradedMap:
        """The map that sends each label to the sum of its terms, each
        (label, image, c) adding c * image; an image outside the target's
        basis raises KeyError."""
        return cls(source, target, shift, _from_terms(source, target, shift, terms, name), name)

    def matrix(self, k: int) -> IntMatrix:
        """Column j is the image of source.basis[k][j] in the target's basis
        of degree k + shift."""
        M = self._matrices.get(k)
        return IntMatrix.zeros(self.target.dim(k + self.shift), self.source.dim(k)) if M is None else M


def compose(g: GradedMap, f: GradedMap, name: str | None = None) -> GradedMap:
    """g o f, its degree-k matrix the product g.matrix(k + f.shift) @ f.matrix(k)."""
    if f.target is not g.source and f.target.basis != g.source.basis:
        raise ValueError("maps do not compose")
    matrices = {
        k: combination([(1, g.matrix(k + f.shift) @ f.matrix(k))], g.target.ring) for k in f.source.degrees()
    }
    return GradedMap(f.source, g.target, f.shift + g.shift, matrices, name or f"{g.name} o {f.name}")


def verify_chain_map(f: GradedMap) -> VerificationReport:
    """Check d_t(k + s) F(k) - (-1)^s F(k + 1) d_s(k) = 0 in every degree k
    of the source, F = f.matrix and s = f.shift (residual_report)."""
    src, tgt, s = f.source, f.target, f.shift
    return residual_report(src, tgt, s + 1, lambda k: combination(
        [(1, tgt.matrix(k + s) @ f.matrix(k)), (-parity_sign(s), f.matrix(k + 1) @ src.matrix(k))], tgt.ring
    ))
