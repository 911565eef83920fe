"""Exact linear algebra over the integers.

Everything downstream (homology of bar-type complexes, homotopy solving,
generation certificates) reduces to three primitives implemented here:
Smith normal form with unimodular transforms, homology at one spot of a
complex given by its two differential matrices (complexes.BasedComplex
supplies them), and solvability of A*x = b over Z (with the
rational-only case distinguished from outright unsolvability).

The Smith normal form U @ A @ V == D also carries the inverses U_inv and
V_inv (U @ U_inv == I, V_inv @ V == I), updated by the same elementary
operations, so each matrix is factored once: homology takes the kernel
basis from columns r: of V, kernel coordinates from rows r: of V_inv
(r = rank of d_out), and class generators from kernel @ U_inv of the
relation matrix, with no further factorization or solve.

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
    def _wrap(cls, rows: Sequence[Sequence[int]], cols: int) -> "IntMatrix":
        """A matrix over rows of ints already checked to have `cols` entries."""
        m = cls.__new__(cls)
        m.data = tuple(map(tuple, rows))
        m.rows = len(m.data)
        m.cols = cols
        return m

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
        # Row i of the product combines the rows of `other` picked out by
        # the nonzero entries of row i, so zeros of `self` cost nothing.
        zero = (0,) * other.cols
        out = []
        for ri in self.data:
            acc = zero
            for a, orow in zip(ri, other.data):
                if a:
                    acc = [x + a * y for x, y in zip(acc, orow)]
            out.append(acc)
        return IntMatrix._wrap(out, other.cols)

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"matrix has {self.cols} cols, vector has {len(vec)}")
        support = [(k, x) for k, x in enumerate(vec) if x]
        return [sum(r[k] * x for k, x in support) for r in self.data]

    def transpose(self) -> "IntMatrix":
        if not self.data:
            return IntMatrix._wrap([()] * self.cols, 0)
        return IntMatrix._wrap(zip(*self.data), self.rows)

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
    """U @ A @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...), d_i >= 0.

    U_inv and V_inv are the exact inverses, U @ U_inv == I and
    V_inv @ V == I, built from the same elementary operations as U and V.
    With r = rank(), columns r: of V are a basis of ker(A) and rows r: of
    V_inv give the coordinates of a kernel vector in that basis.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    V_inv: IntMatrix

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _find_pivot(m: list[list[int]], t: int, rows: int, cols: int):
    """Smallest |entry| > 0 in the trailing block, lowest (i, j) on ties.

    Nothing is smaller than a unit, so the scan stops at the first one.
    """
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                best = (i, j)
                if v == 1 or v == -1:
                    return best
    return best


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    rows, cols = A.rows, A.cols
    m = [list(r) for r in A.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    # U^{-1} is kept transposed, so both inverses change by whole rows:
    # U -> E U gives U^{-1} -> U^{-1} E^{-1}, and V -> V F gives
    # V^{-1} -> F^{-1} V^{-1}.
    u_inv_t = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v_inv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j; column j of U^{-1} += q * column i
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        u_inv_t[j] = [a + q * b for a, b in zip(u_inv_t[j], u_inv_t[i])]

    def col_op(i, j, q):  # col_i -= q * col_j; row j of V^{-1} += q * row i
        for r in m:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]
        v_inv[j] = [a + q * b for a, b in zip(v_inv[j], v_inv[i])]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

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
        # Enforce divisibility of the remaining block by the pivot; a unit
        # divides everything.
        d = m[t][t]
        offender = None
        if d not in (1, -1):
            offender = next((i for i in range(t + 1, rows) if any(x % d for x in m[i][t + 1 :])), None)
        if offender is not None:
            row_op(t, offender, -1)  # add offending row into pivot row
            continue
        t += 1

    for i in range(min(rows, cols)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
            u_inv_t[i] = [-x for x in u_inv_t[i]]

    def frozen(lists, ncols):  # row by row, so no second copy is ever whole
        for i, r in enumerate(lists):
            lists[i] = tuple(r)
        return IntMatrix._wrap(lists, ncols)

    return SmithDecomposition(
        U=frozen(u, rows),
        D=frozen(m, cols),
        V=frozen(v, cols),
        U_inv=frozen(u_inv_t, rows).transpose(),
        V_inv=frozen(v_inv, cols),
    )


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


def _kernel(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(K, P): the columns of K are a basis of ker(A), and P @ x is the
    coordinate vector of a kernel vector x in that basis (P @ K == I).

    Both come from one Smith normal form: K is columns r: of V and P is
    rows r: of V^{-1}, r the rank.
    """
    snf = smith_normal_form(A)
    r = snf.rank()
    K = IntMatrix._wrap([row[r:] for row in snf.V.data], A.cols - r)
    P = IntMatrix._wrap(snf.V_inv.data[r:], A.cols)
    return K, P


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a basis of ker(A) as a subgroup of Z^cols.

    Every integer vector in the kernel is an integer combination of these
    columns (the kernel of an integer matrix is a direct summand).
    """
    return _kernel(A)[0]


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
        self.kernel, self._kernel_rows = _kernel(d_out)  # n x z and z x n
        # Express im(d_in) in kernel coordinates.  im <= ker, and the kernel
        # basis spans a direct summand, so the coordinates are integral.
        z = self.kernel.cols
        rel = matrix_from_columns([self._kernel_coords(d_in.column(j)) for j in range(d_in.cols)], z)
        rel_snf = smith_normal_form(rel)
        # coords() reads U and class_generators() U^{-1}; V and V^{-1} of
        # the relations are never needed, so they are not kept.
        self._rel_U = rel_snf.U
        self._rel_U_inv = rel_snf.U_inv
        diag = rel_snf.diagonal()
        rank_rel = sum(1 for d in diag if d != 0)
        self.group = _group_from_divisors(diag, free_rank=z - rank_rel)
        self._moduli = [diag[i] if i < len(diag) else 0 for i in range(z)]

    def _kernel_coords(self, cycle: Sequence[int]) -> list[int]:
        """Coordinates of a cycle in the kernel basis (exact, integral)."""
        if self.d_out.cols and any(x != 0 for x in self.d_out.apply(list(cycle))):
            raise ValueError("vector is not a cycle")
        return self._kernel_rows.apply(list(cycle))

    def coords(self, cycle: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of the homology class of a cycle.

        Entries with modulus 1 are dropped, torsion entries are reduced mod
        d_i, free entries kept as integers; the result is a complete
        invariant of the class.
        """
        y = self._kernel_coords(cycle)
        t = self._rel_U.apply(y)
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
        # kernel @ U^{-1}, skipping the trivial summands (modulus 1).
        return [
            self.kernel.apply(self._rel_U_inv.column(i))
            for i, mod in enumerate(self._moduli)
            if mod != 1
        ]

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
    rows = [sum(1 << j for j, x in enumerate(row) if x & 1) for row in A.data]
    rank = 0
    for bit in range(A.cols):
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
