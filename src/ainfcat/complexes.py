"""Labelled chain complexes and graded maps between them.

A BasedComplex carries an ordered basis of hashable labels per degree and
an integer matrix per degree for its differential, so homology questions
reduce to intlinalg.  A GradedMap is nothing but its matrices too.  Each
degree is built on its first matrix(k) read: from the label images, or as
a product for a composite; chain(label) and diff_chain(label) read a
column.  The commutation convention for a map f of degree `shift` is

    d_target o f == (-1)^shift * f o d_source

checked degree by degree as a matrix identity by verify_chain_map.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .core import RING_F2, VerificationReport, Violation, chain_normalize, parity_sign
from .intlinalg import FinAbGroup, HomologyData, IntMatrix, NotAComplex, f2_rank


def _tabulate(apply: Callable[[object], Mapping], name: str, labels: list, target: BasedComplex, k: int) -> IntMatrix:
    """The matrix whose column j is apply(labels[j]) in the target's basis
    of degree k; an image outside that basis raises KeyError."""
    index = target.index.get(k, {})
    rows: list[dict] = [{} for _ in index]
    for j, label in enumerate(labels):
        for out, c in chain_normalize(dict(apply(label)), target.ring).items():
            i = index.get(out)
            if i is None:
                raise KeyError(f"{name} of {label!r} leaves the declared basis at {out!r}")
            rows[i][j] = c
    return IntMatrix.from_rows(rows, len(labels))


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


def _column(source: BasedComplex, target: BasedComplex, shift: int, matrix, label, name: str) -> dict:
    """The image of a source label, read off its column of matrix(k)."""
    for k, index in source.index.items():
        j = index.get(label)
        if j is not None:
            out = target.basis.get(k + shift, [])
            return {out[i]: c for i, c in matrix(k).column_entries(j).items()}
    raise KeyError(f"{name}: {label!r} is not a basis label of its source")


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

    `basis[k]` is an ordered list of labels.  The differential is given
    either label by label, `d` sending a label to a chain (dict label ->
    coefficient) in the next degree, or by its matrices (from_matrices);
    matrix(k) holds it either way, and diff_chain reads a label's column.
    validate() checks d o d = 0 exactly (mod 2 over F2) and raises
    NotAComplex where it fails.
    """

    def __init__(self, basis: dict[int, list], d: Callable[[object], Mapping] | None, ring: str = "Z"):
        self.ring = ring
        self.basis = {k: list(v) for k, v in sorted(basis.items()) if v}
        self.index = {k: {label: i for i, label in enumerate(v)} for k, v in self.basis.items()}
        self._d = d
        self._matrices: dict[int, IntMatrix] = {}
        self._composites: dict[int, IntMatrix] = {}

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
            cx._matrices[k] = M
        return cx

    @classmethod
    def from_terms(cls, basis: dict[int, list], terms, ring: str = "Z") -> BasedComplex:
        """The complex whose differential is the sum of its terms, each
        (label, image, c) adding c * image to the differential of label."""
        cx = cls(basis, None, ring=ring)
        cx._matrices = _from_terms(cx, cx, 1, terms, "differential")
        return cx

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, []))

    def diff_chain(self, label) -> dict:
        return _column(self, self, 1, self.matrix, label, "differential")

    def matrix(self, k: int) -> IntMatrix:
        """Column j is the differential of basis[k][j] in the basis of
        degree k + 1; an image outside that basis raises KeyError."""
        if k not in self._matrices:
            self._matrices[k] = _tabulate(self._d, "differential", self.basis.get(k, []), self, k + 1)
        return self._matrices[k]

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

    def rank_mod_2(self, k: int) -> int:
        """The rank of matrix(k) over F2, taken once per matrix."""
        return self.matrix(k).rank_mod_2()

    def validate(self) -> None:
        """Check d o d = 0 exactly, naming the first label where it fails."""
        odd = (lambda x: x % 2) if self.ring == RING_F2 else bool
        for k in self.degrees():
            bad = [j for row in self.composite(k).entries for j, x in row.items() if odd(x)]
            if bad:
                raise NotAComplex(f"d o d != 0 at degree {k} on {self.basis[k][min(bad)]!r}")

    def homology(self, k: int) -> FinAbGroup:
        if self.ring == RING_F2:
            dim = (self.dim(k) - self.rank_mod_2(k)) - self.rank_mod_2(k - 1)
            return FinAbGroup(0, (2,) * dim)
        return self.homology_data(k).group

    def homology_data(self, k: int) -> HomologyData:
        if self.ring == RING_F2:
            raise ValueError("integral homology coordinates are not defined over F2")
        return HomologyData(self.matrix(k), self.matrix(k - 1), self.composite(k - 1))


class GradedMap:
    """A degree-`shift` linear map between two BasedComplexes, held as its
    matrices: `apply` sends a source label to its image chain, and
    matrix(k) tabulates the images of source.basis[k] on its first read."""

    def __init__(self, source: BasedComplex, target: BasedComplex, shift: int, apply, name: str = "map"):
        self.source, self.target, self.shift, self.name = source, target, shift, name
        self._matrices: dict[int, IntMatrix] = {}
        self._build = lambda k: _tabulate(apply, name, source.basis.get(k, []), target, k + shift)

    @classmethod
    def from_terms(cls, source: BasedComplex, target: BasedComplex, shift: int, terms, name: str = "map") -> GradedMap:
        """The map that sends each label to the sum of its terms, each
        (label, image, c) adding c * image; an image outside the target's
        basis raises KeyError."""
        f = cls(source, target, shift, None, name)
        f._matrices = _from_terms(source, target, shift, terms, name)
        f._build = lambda k: IntMatrix.zeros(target.dim(k + shift), source.dim(k))
        return f

    def matrix(self, k: int) -> IntMatrix:
        """Column j is the image of source.basis[k][j] in the target's basis
        of degree k + shift; an image outside that basis raises KeyError."""
        if k not in self._matrices:
            self._matrices[k] = self._build(k)
        return self._matrices[k]

    def chain(self, label) -> dict:
        return _column(self.source, self.target, self.shift, self.matrix, label, self.name)


def compose(g: GradedMap, f: GradedMap, name: str | None = None) -> GradedMap:
    """g o f, its degree-k matrix the product g.matrix(k + f.shift) @ f.matrix(k)."""
    if f.target is not g.source and f.target.basis != g.source.basis:
        raise ValueError("maps do not compose")
    h = GradedMap(f.source, g.target, f.shift + g.shift, None, name or f"{g.name} o {f.name}")
    # g's ring, not h's: a map whose builder held the map itself would
    # outlive its last use until the cyclic collector ran
    h._build = lambda k: combination([(1, g.matrix(k + f.shift) @ f.matrix(k))], g.target.ring)
    return h


def verify_chain_map(f: GradedMap) -> VerificationReport:
    """Check d_t(k + s) F(k) - (-1)^s F(k + 1) d_s(k) = 0 in every degree k
    of the source, F = f.matrix and s = f.shift (residual_report); an
    image outside the target's declared basis raises matrix's KeyError."""
    src, tgt, s = f.source, f.target, f.shift
    return residual_report(src, tgt, s + 1, lambda k: combination(
        [(1, tgt.matrix(k + s) @ f.matrix(k)), (-parity_sign(s), f.matrix(k + 1) @ src.matrix(k))], tgt.ring
    ))


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
    return f2_rank(block) - f.source.rank_mod_2(k) - f.target.rank_mod_2(k + f.shift - 1)
