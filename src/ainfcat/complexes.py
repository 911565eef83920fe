"""Labelled chain complexes and graded maps between them.

A BasedComplex carries an ordered basis of hashable labels per degree and
materializes dict-valued differentials into integer matrices, so homology
questions reduce to intlinalg.  Chain maps are stored the same way; the
commutation convention for a map f of degree `shift` is

    d_target o f == (-1)^shift * f o d_source

checked entrywise by verify_chain_map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .core import RING_F2, VerificationReport, chain_add, chain_normalize, collect_violations, parity_sign
from .intlinalg import FinAbGroup, HomologyData, IntMatrix, NotAComplex, f2_rank


class BasedComplex:
    """Cochain complex with explicit labelled bases.

    `basis[k]` is an ordered list of labels; `d` sends a label to a chain
    (dict label -> coefficient) in the next degree.  The matrix form is
    cached; validate() checks d o d = 0 exactly (mod 2 over F2) and raises
    NotAComplex where it fails.
    """

    def __init__(self, basis: dict[int, list], d: Callable[[object], Mapping], ring: str = "Z"):
        self.ring = ring
        self.basis = {k: list(v) for k, v in sorted(basis.items()) if v}
        self.index = {k: {label: i for i, label in enumerate(v)} for k, v in self.basis.items()}
        self._d = d
        self._matrices: dict[int, IntMatrix] = {}
        self._composites: dict[int, IntMatrix] = {}
        self._diff_cache: dict = {}
        self._labels = {label: label for v in self.basis.values() for label in v}

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, []))

    def diff_chain(self, label) -> dict:
        cached = self._diff_cache.get(label)
        if cached is None:
            # keyed by the basis's own label objects, not the equal copies
            # `d` builds, so the cache holds one object per label
            labels = self._labels
            chain = chain_normalize(dict(self._d(label)), self.ring)
            cached = self._diff_cache[label] = {labels.get(g, g): c for g, c in chain.items()}
        return cached

    def matrix(self, k: int) -> IntMatrix:
        if k not in self._matrices:
            tgt = self.index.get(k + 1, {})
            rows: list[dict] = [{} for _ in tgt]
            src = self.basis.get(k, [])
            for j, label in enumerate(src):
                for out, c in self.diff_chain(label).items():
                    i = tgt.get(out)
                    if i is None:
                        raise KeyError(f"differential of {label!r} leaves the declared basis at {out!r}")
                    rows[i][j] = c
            self._matrices[k] = IntMatrix.from_rows(rows, len(src))
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
    """A degree-`shift` linear map between two BasedComplexes, label to chain."""

    source: BasedComplex
    target: BasedComplex
    shift: int
    apply: Callable[[object], Mapping]
    name: str = "map"

    def chain(self, label) -> dict:
        return chain_normalize(dict(self.apply(label)), self.target.ring)

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


def zero_map(source: BasedComplex, target: BasedComplex, shift: int) -> GradedMap:
    return GradedMap(source=source, target=target, shift=shift, apply=lambda label: {}, name="0")


def verify_chain_map(f: GradedMap) -> VerificationReport:
    """Check d o f - (-1)^shift f o d = 0 on every basis label."""
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
