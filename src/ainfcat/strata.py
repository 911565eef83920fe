"""Combinatorics of the abstract moduli spaces behind the equations.

Strata are labels only: the codimension-1 boundary families of the disc
moduli spaces (one output; two outputs; one interior output; restricted
annuli; the gluing-interpolation family), together with dimension
formulas and the explicit bijections between strata and the stable terms
of the corresponding chain-level equations.  Unstable degenerations
(strip breakings, whose algebraic shadow are the differential terms) are
not boundary strata of the abstract spaces; the bijection reports list
them separately where an equation has such terms.

Space kinds and dimensions:

    discs(d)           d >= 2 inputs, one output          dim d - 2
    bidiscs(r, s)      two outputs, r + s inputs          dim r + s
    punctured(d)       interior output, d inputs          dim d - 1
    annuli(d)          restricted annuli                  dim d
    interp(d)          the [0,1]-interpolation family     dim d

plus the rigid two-marked disc "codisc" (dimension 0) appearing as a
stratum factor of the annuli.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import parity_sign

R_DISC = "R_d"
R_BIMOD = "R_{r|1|s}"
R_PUNCT = "R_d^1"
C_ANNULUS = "C_d^-"
P_INTERP = "P_d"
R_CODISC = "R^1"  # the disc with one interior input and one boundary output


@dataclass(frozen=True, order=True)
class SpaceId:
    kind: str
    d: int = 0
    r: int = 0
    s: int = 0

    def __post_init__(self):
        if self.kind == R_DISC:
            if self.d < 2:
                raise ValueError(f"disc space needs d >= 2, got {self.d}")
        elif self.kind == R_BIMOD:
            if self.r < 0 or self.s < 0:
                raise ValueError("negative parameters")
        elif self.kind in (R_PUNCT, C_ANNULUS, P_INTERP):
            if self.d < 1:
                raise ValueError(f"{self.kind} needs d >= 1, got {self.d}")
        elif self.kind == R_CODISC:
            pass
        else:
            raise ValueError(f"unknown space kind {self.kind}")

    def __repr__(self):
        if self.kind == R_BIMOD:
            return f"R({self.r}|1|{self.s})"
        if self.kind == R_CODISC:
            return "R^1"
        short = {R_DISC: "R", R_PUNCT: "R1", C_ANNULUS: "C-", P_INTERP: "P"}[self.kind]
        return f"{short}({self.d})"


def disc(d: int) -> SpaceId:
    return SpaceId(R_DISC, d=d)


def bidisc(r: int, s: int) -> SpaceId:
    return SpaceId(R_BIMOD, r=r, s=s)


def punctured_disc(d: int) -> SpaceId:
    return SpaceId(R_PUNCT, d=d)


def annulus(d: int) -> SpaceId:
    return SpaceId(C_ANNULUS, d=d)


def interpolation(d: int) -> SpaceId:
    return SpaceId(P_INTERP, d=d)


CODISC = SpaceId(R_CODISC)


def dimension(space: SpaceId) -> int:
    """Moduli dimension: positions of the unfixed marked points (plus the
    modular or interval parameter for the annuli and the interpolation)."""
    if space.kind == R_DISC:
        return space.d - 2
    if space.kind == R_BIMOD:
        return space.r + space.s
    if space.kind == R_PUNCT:
        return space.d - 1
    if space.kind in (C_ANNULUS, P_INTERP):
        return space.d
    if space.kind == R_CODISC:
        return 0
    raise ValueError(space.kind)


@dataclass(frozen=True, order=True)
class StratumLabel:
    """A codimension-1 boundary stratum: a family tag, the two factor
    spaces (outer listed first; endpoint strata have no factorization),
    and the attachment data."""

    family: str
    outer: Optional[SpaceId]
    inner: Optional[SpaceId]
    data: tuple = ()

    def dims(self) -> list[int]:
        out = []
        for f in (self.outer, self.inner):
            if f is not None:
                out.append(dimension(f))
        return out


def enumerate_codim1(space: SpaceId) -> list[StratumLabel]:
    """Complete duplicate-free list of codimension-1 boundary strata."""
    strata: list[StratumLabel] = []
    if space.kind == R_DISC:
        d = space.d
        for d2 in range(2, d):
            d1 = d + 1 - d2
            for k in range(0, d1):
                strata.append(StratumLabel("disc", disc(d1), disc(d2), (d1, d2, k)))
    elif space.kind == R_BIMOD:
        r, s = space.r, space.s
        for m in range(0, r):
            strata.append(StratumLabel("output1", disc(r - m + 1), bidisc(m, s), (m,)))
        for l in range(0, s):
            strata.append(StratumLabel("output2", disc(s - l + 1), bidisc(r, l), (l,)))
        for m in range(0, r + 1):
            for l in range(0, s + 1):
                if (m, l) == (0, 0):
                    continue
                strata.append(StratumLabel("middle", bidisc(r - m, s - l), disc(l + m + 1), (m, l)))
        for l in range(0, s + 1):
            for k in range(0, l + 1):
                if l - k >= 2:
                    strata.append(StratumLabel("right", bidisc(r, s - l + k + 1), disc(l - k), (k, l)))
        for m in range(0, r + 1):
            for k in range(0, m + 1):
                if m - k >= 2:
                    strata.append(StratumLabel("left", bidisc(r - m + k + 1, s), disc(m - k), (k, m)))
    elif space.kind == R_PUNCT:
        d = space.d
        for d2 in range(2, d + 1):
            d1 = d + 1 - d2
            for k in range(0, d1 - 1):
                strata.append(StratumLabel("inner", punctured_disc(d1), disc(d2), (d1, d2, k)))
            for k in range(0, d2):
                strata.append(StratumLabel("seam", punctured_disc(d1), disc(d2), (d1, d2, k)))
    elif space.kind == C_ANNULUS:
        d = space.d
        strata.append(StratumLabel("interior", CODISC, punctured_disc(d), ()))
        for r in range(0, d):
            for s in range(0, d - r):
                strata.append(StratumLabel("pair", disc(d - r - s + 1), bidisc(r, s), (r, s)))
        for d1 in range(1, d):
            for k in range(1, d1 + 1):
                strata.append(StratumLabel("bubble", annulus(d1), disc(d - d1 + 1), (d1, k)))
    elif space.kind == P_INTERP:
        d = space.d
        strata.append(StratumLabel("endpoint", None, None, (0,)))
        strata.append(StratumLabel("endpoint", None, None, (1,)))
        for d1 in range(1, d):
            for k in range(1, d1 + 1):
                strata.append(StratumLabel("bubble", interpolation(d1), disc(d - d1 + 1), (d1, k)))
    else:
        raise ValueError(f"no stratification for {space.kind}")
    return strata


# ---------------------------------------------------------------------------
# the equations and their terms

EQUATIONS = {R_DISC: "ainf", R_BIMOD: "bimodule_hom", R_PUNCT: "hochschild", C_ANNULUS: "homotopy"}


def equation_terms(space: SpaceId) -> list[tuple[tuple, Optional[tuple]]]:
    """Every term of the equation on `space`, as (term, stratum) pairs.

    `stratum` is the (family, data) of the codimension-1 stratum the term
    matches, or None for a strip-type term.  The terms, by equation:

    * ainf on R_d: (d1, d2, k), an arity-d2 operation substituted at slot
      k of an arity-d1 one; stable when both arities are at least 2.
    * bimodule_hom on R_{r|1|s}, tagged by sum: ("target", m, l) for the
      target operation outside (stable ones have it one-sided, since the
      mixed operations of a tensor-type target vanish), ("source", m, l)
      for the source operation inside, ("right", k, l) and ("left", k, m)
      for the one-sided collapses.
    * hochschild on R_d^1: ("inplace", i, m), the block a_i..a_{i+m-1}
      away from the top slot, and ("top", k, m), the block of length m
      containing the top letter with k letters wrapped past the seam
      (k = 0 ends at the top without crossing it; for m = d the k > 0
      blocks are the word's cyclic rotations).
    * homotopy on C_d^-: ("co_oc",), the closed-sector composite;
      ("pair", r, s), the window terms of the induced coproduct map
      followed by the collapse; ("bar", d1, k), the cyclic-differential
      terms feeding the homotopy, all top-touching blocks of one length
      grouped as k = d1; ("differential",), the mu^1 o H term.
    """
    out: list[tuple[tuple, Optional[tuple]]] = []
    if space.kind == R_DISC:
        d = space.d
        for d2 in range(1, d + 1):
            d1 = d + 1 - d2
            stable = d1 >= 2 and d2 >= 2
            for k in range(0, d1):
                out.append(((d1, d2, k), ("disc", (d1, d2, k)) if stable else None))
    elif space.kind == R_BIMOD:
        r, s = space.r, space.s
        for m in range(0, r + 1):
            for l in range(0, s + 1):
                if l == s and m < r:
                    stratum = ("output1", (m,))
                elif m == r and l < s:
                    stratum = ("output2", (l,))
                else:
                    stratum = None
                out.append((("target", m, l), stratum))
        for m in range(0, r + 1):
            for l in range(0, s + 1):
                out.append((("source", m, l), ("middle", (m, l)) if (m, l) != (0, 0) else None))
        for l in range(0, s + 1):
            for k in range(0, l):
                out.append((("right", k, l), ("right", (k, l)) if l - k >= 2 else None))
        for m in range(0, r + 1):
            for k in range(0, m):
                out.append((("left", k, m), ("left", (k, m)) if m - k >= 2 else None))
    elif space.kind == R_PUNCT:
        d = space.d
        for m in range(1, d + 1):
            stable = m >= 2
            for i in range(1, d - m + 1):
                out.append((("inplace", i, m), ("inner", (d - m + 1, m, i - 1)) if stable else None))
            for k in range(0, m):
                out.append((("top", k, m), ("seam", (d - m + 1, m, k)) if stable else None))
    elif space.kind == C_ANNULUS:
        d = space.d
        out.append((("co_oc",), ("interior", ())))
        for r in range(0, d):
            for s in range(0, d - r):
                out.append((("pair", r, s), ("pair", (r, s))))
        for d1 in range(1, d):
            for k in range(1, d1 + 1):
                out.append((("bar", d1, k), ("bubble", (d1, k))))
        out.append((("differential",), None))
    else:
        raise ValueError(f"no equation on {space.kind} spaces")
    return out


@dataclass
class BijectionReport:
    space: SpaceId
    equation: str
    pairs: list
    strip_terms: list = field(default_factory=list)
    mismatch: str = ""

    @property
    def passed(self) -> bool:
        return not self.mismatch

    def __str__(self):
        head = f"{self.space} <-> {self.equation}: "
        if not self.passed:
            return head + f"MISMATCH: {self.mismatch}"
        extra = f" (+{len(self.strip_terms)} strip-type terms)" if self.strip_terms else ""
        return head + f"{len(self.pairs)} strata matched{extra}"


def strata_term_bijection(space: SpaceId, equation: str) -> BijectionReport:
    """Explicit bijection between codimension-1 strata and stable equation
    terms; strip breakings (differential-type terms) are reported
    separately since they correspond to semistable degenerations."""
    if EQUATIONS.get(space.kind) != equation:
        raise ValueError(f"unsupported pairing ({space.kind}, {equation})")
    strata: dict[tuple, StratumLabel] = {}
    for lab in enumerate_codim1(space):
        key = (lab.family, lab.data)
        if key in strata:
            return BijectionReport(space, equation, [], mismatch=f"strata {strata[key]} and {lab} share {key}")
        strata[key] = lab
    pairs = []
    strips = []
    for term, key in equation_terms(space):
        if key is None:
            strips.append(term)
        elif key in strata:
            pairs.append((strata.pop(key), term))
        else:
            return BijectionReport(space, equation, [], mismatch=f"term {term} matched no unmatched stratum")
    if strata:
        return BijectionReport(space, equation, [], mismatch=f"unmatched strata {list(strata.values())}")
    return BijectionReport(space, equation, pairs, strip_terms=strips)


# ---------------------------------------------------------------------------
# sign formula evaluators (the recorded orientation comparisons)


def sign_formula(tag: str, **kw) -> int:
    """Evaluate one of the recorded orientation-comparison parities.

    Tags and their keyword arguments:

    * cardy_global(n): (-1)^(n(n+1)/2)
    """
    if tag == "cardy_global":
        n = kw["n"]
        return parity_sign(n * (n + 1) // 2)
    raise ValueError(f"unknown sign formula tag {tag}")
