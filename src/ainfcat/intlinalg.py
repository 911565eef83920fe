"""Exact linear algebra over the integers.

Everything downstream (homology of bar-type complexes, homotopy solving,
generation certificates) reduces to three primitives implemented here:
Smith normal form with unimodular transforms, homology at one spot of a
complex given by its two differential matrices (complexes.BasedComplex
supplies them), and solvability of A*x = b over Z (with the
rational-only case distinguished from outright unsolvability).

All arithmetic uses Python ints, so intermediate coefficient growth in the
Smith reduction is harmless.  Pivoting is deterministic: smallest nonzero
absolute value, ties broken by lowest (row, col) index, so the transforms
U and V are reproducible across runs.

Degree conventions are cohomological throughout: the differential of a
chain complex raises degree by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class NotAComplex(ValueError):
    """Raised when consecutive differentials do not compose to zero."""


class DimensionMismatch(Exception):
    pass


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], rows: int | None = None, cols: int | None = None):
        rowtuples = tuple(tuple(int(x) for x in row) for row in data)
        if rowtuples:
            ncols = len(rowtuples[0])
            if any(len(r) != ncols for r in rowtuples):
                raise ValueError("ragged rows")
        else:
            ncols = cols if cols is not None else 0
        self.data = rowtuples
        self.rows = len(rowtuples) if rows is None else rows
        self.cols = ncols
        if rows is not None and rows != len(rowtuples):
            raise ValueError("row count mismatch")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)), cols=cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ocols = other.cols
        out = []
        for i in range(self.rows):
            ri = self.data[i]
            out.append(
                tuple(sum(ri[k] * other.data[k][j] for k in range(self.cols)) for j in range(ocols))
            )
        return IntMatrix(tuple(out), cols=ocols)

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"matrix has {self.cols} cols, vector has {len(vec)}")
        return [sum(r[k] * vec[k] for k in range(self.cols)) for r in self.data]

    def transpose(self) -> "IntMatrix":
        if not self.data:
            return IntMatrix(tuple(() for _ in range(self.cols)), cols=0)
        return IntMatrix(tuple(zip(*self.data)), cols=self.rows)

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.data)


def matrix_from_columns(cols: Sequence[Sequence[int]], nrows: int) -> IntMatrix:
    if not cols:
        return IntMatrix.zeros(nrows, 0)
    return IntMatrix(tuple(tuple(c[i] for c in cols) for i in range(nrows)), cols=len(cols))


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...), d_i >= 0."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _find_pivot(m: list[list[int]], t: int, rows: int, cols: int):
    """Smallest |entry| > 0 in the trailing block, lowest (i, j) on ties."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    rows, cols = A.rows, A.cols
    m = [list(r) for r in A.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in m:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while True:
        piv = _find_pivot(m, t, rows, cols)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        # Clear row and column t; a failed exact division re-enters the loop
        # with a strictly smaller pivot, so this terminates.
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                row_op(i, t, q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                col_op(j, t, q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot.
        d = m[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row into pivot row
            continue
        t += 1

    for i in range(min(rows, cols)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]

    return SmithDecomposition(U=IntMatrix(u, cols=rows), D=IntMatrix(m, cols=cols), V=IntMatrix(v, cols=cols))


class Unsolvable:
    """A*x = b has no rational solution."""

    def __repr__(self):
        return "Unsolvable"


class RationalOnly:
    """A*x = b is solvable over Q but not over Z."""

    def __repr__(self):
        return "RationalOnly"


UNSOLVABLE = Unsolvable()
RATIONAL_ONLY = RationalOnly()


def solve_integer(A: IntMatrix, b: Sequence[int]):
    """Solve A*x = b over Z.

    Returns a solution vector, or RATIONAL_ONLY when only a rational
    solution exists, or UNSOLVABLE when there is none at all.
    """
    if len(b) != A.rows:
        raise DimensionMismatch(f"matrix has {A.rows} rows, vector has {len(b)}")
    snf = smith_normal_form(A)
    c = snf.U.apply(list(b))
    n = A.cols
    y = [0] * n
    rational_only = False
    diag = snf.diagonal()
    for i in range(A.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return UNSOLVABLE
        else:
            q, r = divmod(c[i], d)
            if r != 0:
                rational_only = True
            y[i] = q
    if rational_only:
        return RATIONAL_ONLY
    return snf.V.apply(y)


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a basis of ker(A) as a subgroup of Z^cols.

    Every integer vector in the kernel is an integer combination of these
    columns (the kernel of an integer matrix is a direct summand).
    """
    snf = smith_normal_form(A)
    r = snf.rank()
    cols = [snf.V.column(j) for j in range(r, A.cols)]
    return matrix_from_columns(cols, A.cols)


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group: Z^free_rank + sum of Z/d_i.

    Torsion divisors satisfy d_i >= 2 and d_i | d_{i+1}.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion divisors must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion divisors must be >= 2")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def _group_from_divisors(divisors: Iterable[int], free_rank: int) -> FinAbGroup:
    torsion = tuple(sorted((d for d in divisors if d >= 2), key=lambda d: d))
    # SNF already yields a divisibility chain; sorting keeps it stable.
    return FinAbGroup(free_rank=free_rank, torsion=torsion)


class HomologyData:
    """Homology at one spot of a complex, with canonical coordinates.

    Given d_out (the differential leaving degree k) and d_in (the one
    arriving from degree k-1), computes H = ker(d_out) / im(d_in) and a
    coordinate map that assigns to every cycle its class in a fixed
    presentation Z^free + sum Z/d_i.  Two cycles are homologous iff their
    coordinates agree.
    """

    def __init__(self, d_out: IntMatrix, d_in: IntMatrix):
        comp = d_out @ d_in  # raises DimensionMismatch if they do not meet
        if not comp.is_zero():
            raise NotAComplex("d o d != 0")
        self.d_out = d_out
        self.d_in = d_in
        self.kernel = kernel_basis(d_out)  # n x z
        self._snf_kernel = smith_normal_form(self.kernel)
        # Express im(d_in) in kernel coordinates.  im <= ker, and the kernel
        # basis spans a direct summand, so the division below is exact.
        z = self.kernel.cols
        img_in_ker = []
        for j in range(d_in.cols):
            img_in_ker.append(self._kernel_coords(d_in.column(j)))
        rel = matrix_from_columns(img_in_ker, z)
        self._rel_snf = smith_normal_form(rel)
        diag = self._rel_snf.diagonal()
        rank_rel = sum(1 for d in diag if d != 0)
        self.group = _group_from_divisors(diag, free_rank=z - rank_rel)
        self._moduli = []
        for i in range(z):
            d = diag[i] if i < len(diag) else 0
            self._moduli.append(d)

    def _kernel_coords(self, cycle: Sequence[int]) -> list[int]:
        """Coordinates of a cycle in the kernel basis (exact, integral)."""
        if self.d_out.cols and any(x != 0 for x in self.d_out.apply(list(cycle))):
            raise ValueError("vector is not a cycle")
        snf = self._snf_kernel
        c = snf.U.apply(list(cycle))
        y = [0] * self.kernel.cols
        diag = snf.diagonal()
        for i in range(len(c)):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if c[i] != 0:
                    raise ValueError("vector is not in the kernel lattice")
            else:
                q, r = divmod(c[i], d)
                if r != 0:
                    raise ValueError("vector is not in the kernel lattice")
                y[i] = q
        return snf.V.apply(y)

    def coords(self, cycle: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of the homology class of a cycle.

        Entries with modulus 1 are dropped, torsion entries are reduced mod
        d_i, free entries kept as integers; the result is a complete
        invariant of the class.
        """
        y = self._kernel_coords(cycle)
        t = self._rel_snf.U.apply(y)
        out = []
        for i, val in enumerate(t):
            mod = self._moduli[i]
            if mod == 1:
                continue
            out.append(val % mod if mod else val)
        return tuple(out)

    def class_generators(self) -> list[list[int]]:
        """Cycles whose classes generate the homology group."""
        # Preimages of the presentation's standard generators: columns of
        # kernel @ U^{-1}.  Solving U x = e_i is exact since U is unimodular.
        z = self.kernel.cols
        gens = []
        for i in range(z):
            if self._moduli[i] == 1:
                continue
            e = [1 if j == i else 0 for j in range(z)]
            x = solve_integer(self._rel_snf.U, e)
            gens.append(self.kernel.apply(x))
        return gens

    def zero_class(self) -> tuple[int, ...]:
        return tuple(0 for m in self._moduli if m != 1)


def rational_rank(A: IntMatrix) -> int:
    """Rank over Q by fraction-free-ish Gaussian elimination (oracle helper)."""
    m = [[Fraction(x) for x in row] for row in A.data]
    rows, cols = A.rows, A.cols
    rank = 0
    for j in range(cols):
        piv = None
        for i in range(rank, rows):
            if m[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][j]
        for i in range(rank + 1, rows):
            if m[i][j] != 0:
                f = m[i][j] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def f2_rank(A: IntMatrix) -> int:
    """Rank of A over the field with two elements."""
    rows = [int("".join(str(x & 1) for x in row), 2) if row else 0 for row in A.data]
    rank = 0
    for bit in reversed(range(A.cols)):
        mask = 1 << bit
        piv = None
        for i in range(rank, len(rows)):
            if rows[i] & mask:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= rows[rank]
        rank += 1
    return rank
