"""Exact linear algebra over the integers.

Everything downstream (homology of bar-type complexes, homotopy solving,
generation certificates) reduces to three primitives implemented here:
Smith normal form with unimodular transforms, homology at one spot of a
complex given by its two differential matrices (complexes.BasedComplex
supplies them), and solvability of A*x = b over Z (with the
rational-only case distinguished from outright unsolvability).

The Smith normal form U @ A @ V == D can carry the inverses U_inv and
V_inv (U @ U_inv == I, V_inv @ V == I), updated by the same elementary
operations, so each matrix is factored once: homology takes the kernel
basis from columns r: of V, kernel coordinates from rows r: of V_inv
(r = rank of d_out), and class generators from kernel @ U_inv of the
relation matrix, with no further factorization or solve; the map a chain
map induces on homology is one sparse product of those matrices.  Each
caller tracks only the side it reads: the kernel builds V and V_inv, the
relation matrix U and U_inv, HomologyData.induces_iso neither (it reads
the diagonal), and solve_integer both (U for b, V for x; none if b = 0).
HomologyMod2 answers the same questions by F2 ranks.

HomologyData checks d o d = 0 when built and factors nothing until an
answer is read.  Its group is read off ranks and divisors, with no
transform tracked: ker(d_out) is saturated, so
H^k = Z^(n - rank d_out - rank d_in) + sum of Z/d over the elementary
divisors d >= 2 of d_in.  elementary_divisors cancels units, divides out
the content and Smith-reduces only what is left (the transform-free
route of Dumas, Saunders and Villard, "On efficient sparse integer
matrix Smith normal form computations", 2001); each matrix keeps its
divisors, and cancel_unit_pairs fills them for a whole complex,
cancelling each unit once (Kaczynski, Mrozek and Slusarek, "Homology
computation by reduction of chain complexes", 1998).  Class coordinates
are in the spot's own basis, so the kernel basis and the relation
factorization that coords, the class generators and induced read are
taken from the spot's matrices, once, on first use.

Matrices are stored as sparse rows (a dict from column to nonzero entry
per row); the dense tuple-of-tuples `IntMatrix.data` is only a view, built
on first access.  The Smith reduction runs on that storage: the working
matrix keeps, for each column, the set of rows that hold it, so clearing
a pivot column touches only those rows and a column operation only the
rows holding the pivot column (usually the pivot row alone).  V is
updated by sparse columns and U, U_inv and V_inv by sparse rows.

All arithmetic uses Python ints, so intermediate coefficient growth in the
Smith reduction is harmless.  Pivoting is deterministic: smallest nonzero
absolute value, ties broken by lowest (row, col) index, so the transforms
U and V are reproducible across runs.  solve_integer's solutions are read
off V, so the pivot rule fixes them too; tests/dense_snf.py runs the same
rule on dense storage, and the tests require the same U, D, V, U_inv and
V_inv from both, entry for entry.  The search for that pivot keeps a
divisor floor g: once a pivot has passed the divisibility check, every
entry below it is a multiple of its absolute value g, and integer row and
column operations keep them so.  No entry can then be smaller than g, so
the search stops at the first row whose smallest entry is g, and a pivot
of size g needs no divisibility scan; both skip only work whose answer is
known, so every pivot, and with it every transform, stays as it was.

Degree conventions are cohomological throughout: the differential of a
chain complex raises degree by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd
from typing import Iterable, Sequence


class NotAComplex(ValueError):
    """Raised when consecutive differentials do not compose to zero."""


class DimensionMismatch(Exception):
    pass


class IntMatrix:
    """Immutable integer matrix stored as sparse rows.

    `entries[i]` maps a column j to the nonzero entry (i, j); zeros are
    never stored.  `data`, the dense tuple of row tuples, the sparse
    columns that `apply` and `column` read, the rank over F2 and the
    elementary divisors are built on first access.
    """

    __slots__ = ("rows", "cols", "entries", "_data", "_columns", "_rank_mod_2", "_divisors")

    def __init__(self, data: Sequence[Sequence[int]], rows: int | None = None, cols: int | None = None):
        rowtuples = [tuple(row) for row in data]
        if rowtuples:
            ncols = len(rowtuples[0])
            if any(len(r) != ncols for r in rowtuples):
                raise ValueError("ragged rows")
        else:
            ncols = cols if cols is not None else 0
        if rows is not None and rows != len(rowtuples):
            raise ValueError("row count mismatch")
        self.entries = tuple({j: int(x) for j, x in enumerate(r) if x} for r in rowtuples)
        self.rows = len(rowtuples)
        self.cols = ncols
        self._data = self._columns = self._rank_mod_2 = self._divisors = None

    @classmethod
    def from_rows(cls, entries: Sequence[dict], cols: int) -> "IntMatrix":
        """A matrix over sparse rows (column -> nonzero int, columns below
        `cols`), taken as they are."""
        m = cls.__new__(cls)
        m.entries = tuple(entries)
        m.rows = len(m.entries)
        m.cols = cols
        m._data = m._columns = m._rank_mod_2 = m._divisors = None
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls.from_rows([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([{i: 1} for i in range(n)], n)

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        if self._data is None:
            dense = []
            for r in self.entries:
                row = [0] * self.cols
                for j, a in r.items():
                    row[j] = a
                dense.append(tuple(row))
            self._data = tuple(dense)
        return self._data

    def __getitem__(self, idx):
        i, j = idx
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a matrix with {self.cols} columns")
        return self.entries[i].get(j, 0)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(sorted(r.items())) for r in self.entries)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # Row i of the product combines the rows of `other` picked out by
        # the nonzero entries of row i.
        orows = other.entries
        out = []
        for r in self.entries:
            acc: dict = {}
            for k, a in r.items():
                for j, b in orows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return IntMatrix.from_rows(out, other.cols)

    def _sparse_columns(self) -> list[dict]:
        if self._columns is None:
            self._columns = _transposed(self.entries, self.cols)
        return self._columns

    def apply(self, vec: Sequence[int]) -> list[int]:
        """A @ vec, summing the columns at the nonzeros of vec."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"matrix has {self.cols} cols, vector has {len(vec)}")
        out = [0] * self.rows
        columns = self._sparse_columns()
        for j in compress(range(len(vec)), vec):
            x = vec[j]
            for i, a in columns[j].items():
                out[i] += a * x
        return out

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(_transposed(self.entries, self.cols), self.rows)

    def column_entries(self, j: int) -> dict:
        """The nonzero entries of column j, by row."""
        return self._sparse_columns()[j]

    def column(self, j: int) -> list[int]:
        out = [0] * self.rows
        for i, a in self._sparse_columns()[j].items():
            out[i] = a
        return out

    def is_zero(self) -> bool:
        return not any(self.entries)

    def rank_mod_2(self) -> int:
        """The rank over F2 (f2_rank), taken once."""
        if self._rank_mod_2 is None:
            self._rank_mod_2 = f2_rank(self)
        return self._rank_mod_2

    def divisors(self) -> list[int]:
        """The nonzero elementary divisors (elementary_divisors), taken once."""
        if self._divisors is None:
            self._divisors = elementary_divisors(self)
        return self._divisors


def _transposed(rows: Sequence[dict], ncols: int) -> list[dict]:
    """The sparse rows of the transpose of a matrix with `ncols` columns."""
    out: list[dict] = [{} for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, a in r.items():
            out[j][i] = a
    return out


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...), d_i >= 0.

    U_inv and V_inv are the exact inverses, U @ U_inv == I and
    V_inv @ V == I, built from the same elementary operations as U and V.
    With r = rank(), columns r: of V are a basis of ker(A) and rows r: of
    V_inv give the coordinates of a kernel vector in that basis.  A side
    the factorization was asked not to track (U and U_inv, or V and V_inv)
    is an empty 0 x 0 matrix, which `apply` and `@` refuse.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    V_inv: IntMatrix

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D.entries[i].get(i, 0) for i in range(n)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _add_scaled(dst: dict, src: dict, q: int) -> None:
    """dst += q * src on sparse vectors, q != 0, in place, dropping zeros."""
    for k, b in src.items():
        v = dst.get(k, 0) + q * b
        if v:
            dst[k] = v
        else:
            del dst[k]


def smith_normal_form(A: IntMatrix, left: bool = True, right: bool = True) -> SmithDecomposition:
    """U @ A @ V == D, building U and U_inv only when `left` and V and V_inv
    only when `right`.  Neither flag changes a pivot, so D and every built
    transform are those of the two-sided factorization."""
    rows, cols = A.rows, A.cols
    # m holds the working matrix by sparse rows; at[j] is the set of rows
    # with a nonzero in column j, so a column operation visits only those.
    m = [dict(r) for r in A.entries]
    at: list[set] = [set() for _ in range(cols)]
    for i, r in enumerate(m):
        for j in r:
            at[j].add(i)
    # V is kept by columns, and U^{-1} transposed, so every transform
    # changes by whole sparse vectors: U -> E U gives U^{-1} -> U^{-1} E^{-1},
    # and V -> V F gives V^{-1} -> F^{-1} V^{-1}.
    u = [{i: 1} for i in range(rows)] if left else []
    u_inv_t = [{i: 1} for i in range(rows)] if left else []
    v_t = [{j: 1} for j in range(cols)] if right else []
    v_inv = [{j: 1} for j in range(cols)] if right else []

    def row_op(i, j, q):  # row_i -= q * row_j; column j of U^{-1} += q * column i
        ri = m[i]
        for k, b in m[j].items():
            x = ri.get(k, 0) - q * b
            if x:
                if k not in ri:
                    at[k].add(i)
                ri[k] = x
            else:
                del ri[k]
                at[k].discard(i)
        if left:
            _add_scaled(u[i], u[j], -q)
            _add_scaled(u_inv_t[j], u_inv_t[i], q)

    def col_op(i, j, q):  # col_i -= q * col_j; row j of V^{-1} += q * row i
        holders = at[i]
        for r in at[j]:
            row = m[r]
            x = row.get(i, 0) - q * row[j]
            if x:
                row[i] = x
                holders.add(r)
            else:
                del row[i]
                holders.discard(r)
        if right:
            _add_scaled(v_t[i], v_t[j], -q)
            _add_scaled(v_inv[j], v_inv[i], q)

    def row_swap(i, j):
        a, b = m[i], m[j]
        for k in a.keys() - b.keys():
            at[k].discard(i)
            at[k].add(j)
        for k in b.keys() - a.keys():
            at[k].discard(j)
            at[k].add(i)
        m[i], m[j] = b, a
        if left:
            u[i], u[j] = u[j], u[i]
            u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def col_swap(i, j):
        for r in at[i] | at[j]:
            row = m[r]
            a = row.pop(i, 0)
            b = row.pop(j, 0)
            if b:
                row[i] = b
            if a:
                row[j] = a
        at[i], at[j] = at[j], at[i]
        if right:
            v_t[i], v_t[j] = v_t[j], v_t[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    # g, the divisor floor of the module docstring: every entry of the
    # trailing block is a multiple of g, so none is smaller.
    g = 1
    t = 0
    while True:
        # Rows below t hold only their pivot, and rows t: only columns t:,
        # so the trailing block is rows t: whole.  Pivot: smallest |entry|,
        # lowest (row, col) on ties; no later row can beat one of size g.
        best = None
        for i in range(t, rows):
            if m[i]:
                size = min(map(abs, m[i].values()))
                if best is None or size < best[0]:
                    best = (size, i)
                    if size == g:
                        break
        if best is None:
            break
        size, pi = best
        pj = min(j for j, x in m[pi].items() if abs(x) == size)
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        # Clear row and column t; a failed exact division re-enters the loop
        # with a strictly smaller pivot, so this terminates.  Operations
        # against the same pivot row (column) commute, so their order is free;
        # no entry is smaller than the pivot, so no quotient is 0.
        p = m[t][t]
        dirty = False
        for i in [i for i in at[t] if i != t]:
            row_op(i, t, m[i][t] // p)
            dirty = dirty or t in m[i]
        for j in [j for j in m[t] if j != t]:
            col_op(j, t, m[t][j] // p)
            dirty = dirty or j in m[t]
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot; a pivot
        # of size g divides everything there already.
        offender = None
        if abs(p) != g:
            offender = next((i for i in range(t + 1, rows) if any(x % p for x in m[i].values())), None)
        if offender is not None:
            row_op(t, offender, -1)  # add offending row into pivot row
            continue
        g = abs(p)
        t += 1

    for i in range(min(rows, cols)):
        if m[i].get(i, 0) < 0:
            for vec in (m[i], u[i], u_inv_t[i]) if left else (m[i],):
                for k in vec:
                    vec[k] = -vec[k]

    empty = IntMatrix.zeros(0, 0)
    return SmithDecomposition(
        U=IntMatrix.from_rows(u, rows) if left else empty,
        D=IntMatrix.from_rows(m, cols),
        V=IntMatrix.from_rows(_transposed(v_t, cols), cols) if right else empty,
        U_inv=IntMatrix.from_rows(_transposed(u_inv_t, rows), rows) if left else empty,
        V_inv=IntMatrix.from_rows(v_inv, cols) if right else empty,
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
    if not any(b):
        return [0] * A.cols  # what V @ 0 would give, with nothing factored
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
    snf = smith_normal_form(A, left=False)
    r = snf.rank()
    K = IntMatrix.from_rows([{j - r: a for j, a in row.items() if j >= r} for row in snf.V.entries], A.cols - r)
    P = IntMatrix.from_rows(snf.V_inv.entries[r:], A.cols)
    return K, P


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
    return FinAbGroup(free_rank=free_rank, torsion=tuple(sorted(d for d in divisors if d >= 2)))


def _cancel_units(rows: list[dict]) -> tuple[list[int], set[int]]:
    """Gaussian elimination of the entries +-1 of a matrix held as sparse
    rows, in place; returns the rows left and the pivot columns.

    A pivot p = +-1 at (i, j) subtracts a_rj * p times row i from every
    other row r holding column j, which leaves column j zero, and drops
    row i: the rows left hold the Schur complement.  Pivots are taken until
    no entry +-1 is left, in passes over the rows shortest first (least
    fill-in), and within a row at the unit column held by the fewest rows,
    ties to the lowest index.
    """
    at: dict[int, set] = {}
    for i, r in enumerate(rows):
        for j in r:
            at.setdefault(j, set()).add(i)
    alive = set(range(len(rows)))
    pivots: set[int] = set()
    # a pass scans the rows changed since their last scan; the first, all
    todo = [i for i in alive if rows[i]]
    while todo:
        changed = set()
        for i in sorted(todo, key=lambda i: (len(rows[i]), i)):
            row = rows[i]
            units = [j for j, a in row.items() if a == 1 or a == -1]
            if not units:
                continue
            j = units[0] if len(units) == 1 else min(units, key=lambda j: (len(at[j]), j))
            p = row[j]
            for r in [r for r in at[j] if r != i]:
                target = rows[r]
                q = target[j] * p
                for k, b in row.items():
                    x = target.get(k, 0) - q * b
                    if x:
                        if k not in target:
                            at[k].add(r)
                        target[k] = x
                    else:
                        del target[k]
                        at[k].discard(r)
                changed.add(r)
            for k in row:
                at[k].discard(i)
            alive.discard(i)
            changed.discard(i)
            pivots.add(j)
        todo = changed
    return sorted(alive), pivots


def _invariant_factors(rows: list[dict]) -> tuple[list[int], set[int]]:
    """The nonzero invariant factors of the matrix held as these sparse
    rows (consumed), and the columns of the pivots +-1 its first unit
    cancellation took (elementary_divisors)."""
    kept, units = _cancel_units(rows)
    divisors = [1] * len(units)
    scale = 1
    while True:
        rows = [rows[i] for i in kept if rows[i]]
        g = gcd(*(x for r in rows for x in r.values()))
        if g < 2:
            break
        for r in rows:
            for k in r:
                r[k] //= g
        scale *= g
        kept, pivots = _cancel_units(rows)
        divisors += [scale] * len(pivots)
    cols = {j: n for n, j in enumerate(sorted({j for r in rows for j in r}))}
    rest = IntMatrix.from_rows([{cols[j]: a for j, a in r.items()} for r in rows], len(cols))
    divisors += [scale * d for d in smith_normal_form(rest, left=False, right=False).diagonal() if d]
    return divisors, units


def elementary_divisors(A: IntMatrix) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of A (the nonzero
    diagonal of its Smith normal form; their count is the rank), with no
    transform tracked.

    Each unit that _cancel_units eliminates is a factor 1 and leaves the
    Schur complement, which holds the other factors.  When no unit is
    left but every entry is a multiple of g > 1, the factors left are g
    times those of the matrix divided by g, which may hold units again.
    smith_normal_form reduces whatever is left after that, if only an
    empty matrix.
    """
    return _invariant_factors([dict(r) for r in A.entries if r])[0]


def cancel_unit_pairs(differentials: Sequence[IntMatrix]) -> None:
    """Fill divisors() of each differential d_i of a complex (d_(i+1) @
    d_i == 0, unchecked), cancelling each unit once, top down.

    A pivot +-1 of d_i at (y, x) pairs x below with y above, an acyclic
    summand: the Schur complement S of d_i still has S @ d_(i-1) == 0, so
    row y of that product makes row x of d_(i-1) an integer combination
    of its other rows.  d_(i-1) is cancelled with those rows dropped,
    which keeps its row lattice and so its divisors (Skoldberg, "Morse
    theory from an algebraic viewpoint", 2006).  A matrix whose divisors
    are known (one a truncation shares with its parent) is skipped and
    pairs nothing.
    """
    paired: set[int] = set()
    for M in reversed(differentials):
        if M._divisors is None:
            rows = [dict(r) for i, r in enumerate(M.entries) if r and i not in paired]
            M._divisors, paired = _invariant_factors(rows)
        else:
            paired = set()


@dataclass(frozen=True)
class _Presentation:
    """H = ker(d_out) / im(d_in) presented as Z^z modulo the moduli: the
    kernel basis (n x z) and the kernel coordinates (z x n) of _kernel, and
    U and U_inv of the relation matrix, the image of d_in in those
    coordinates.  coords(x) is U @ kernel_rows @ x, each entry reduced by
    its modulus; column i of kernel @ U_inv is the i-th generator."""

    kernel: IntMatrix
    kernel_rows: IntMatrix
    U: IntMatrix
    U_inv: IntMatrix
    moduli: list[int]

    def group(self) -> FinAbGroup:
        return _group_from_divisors(self.moduli, free_rank=self.moduli.count(0))


def _present(d_out: IntMatrix, d_in: IntMatrix) -> _Presentation:
    """Factor one spot: the kernel of d_out (V and V_inv), then the relation
    matrix (U and U_inv; its V and V_inv are never read)."""
    kernel, kernel_rows = _kernel(d_out)
    # im(d_in) <= ker(d_out), and the kernel basis spans a direct summand,
    # so the relations' kernel coordinates are integral.
    rel = smith_normal_form(kernel_rows @ d_in, right=False)
    diag = rel.diagonal()
    moduli = [diag[i] if i < len(diag) else 0 for i in range(kernel.cols)]
    return _Presentation(kernel, kernel_rows, rel.U, rel.U_inv, moduli)


class HomologyData:
    """Homology at one spot of a complex, with canonical coordinates.

    Given d_out (the differential leaving degree k) and d_in (the one
    arriving from degree k-1), computes H = ker(d_out) / im(d_in) and a
    coordinate map that assigns to every cycle its class in a fixed
    presentation Z^free + sum Z/d_i.  Two cycles are homologous iff their
    coordinates agree.

    Construction checks d o d = 0 and nothing else; each answer is
    factored when first asked for.  `group` is read off the elementary
    divisors of d_out and d_in (IntMatrix.divisors(): filled for a whole
    complex by cancel_unit_pairs, else taken matrix by matrix), with no
    kernel basis built.  The presentation (the kernel basis and
    coordinates, the relation matrix's U and U_inv, the moduli) serves the
    coordinates alone, factored from the spot's own matrices on first use
    by coords, class_generator(s), induced, induces_zero and induces_iso
    once the groups agree.
    """

    def __init__(self, d_out: IntMatrix, d_in: IntMatrix, composite: IntMatrix | None = None):
        # `composite` is d_out @ d_in when the caller has already formed it
        comp = d_out @ d_in if composite is None else composite  # raises DimensionMismatch if they do not meet
        if not comp.is_zero():
            raise NotAComplex("d o d != 0")
        self.d_out = d_out
        self.d_in = d_in

    @cached_property
    def group(self) -> FinAbGroup:
        # ker(d_out) is a direct summand, so ker(d_out) / im(d_in) has the
        # torsion of coker(d_in) and free rank n - rank d_out - rank d_in
        divisors = self.d_in.divisors()
        return _group_from_divisors(divisors, free_rank=self.d_out.cols - len(self.d_out.divisors()) - len(divisors))

    @cached_property
    def _presentation(self) -> _Presentation:
        return _present(self.d_out, self.d_in)

    @property
    def kernel(self) -> IntMatrix:
        """The kernel basis of d_out, one column per basis cycle."""
        return self._presentation.kernel

    def _kernel_coords(self, cycle: Sequence[int]) -> list[int]:
        """Coordinates of a cycle in the kernel basis (exact, integral)."""
        if self.d_out.cols and any(x != 0 for x in self.d_out.apply(list(cycle))):
            raise ValueError("vector is not a cycle")
        return self._presentation.kernel_rows.apply(list(cycle))

    def coords(self, cycle: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of the homology class of a cycle.

        Entries with modulus 1 are dropped, torsion entries are reduced mod
        d_i, free entries kept as integers; the result is a complete
        invariant of the class.
        """
        y = self._kernel_coords(cycle)
        pres = self._presentation
        t = pres.U.apply(y)
        out = []
        for i, val in enumerate(t):
            mod = pres.moduli[i]
            if mod == 1:
                continue
            out.append(val % mod if mod else val)
        return tuple(out)

    def _nontrivial(self) -> list[int]:
        """Indices of the presentation's summands whose modulus is not 1."""
        return [i for i, mod in enumerate(self._presentation.moduli) if mod != 1]

    def class_generators(self) -> list[list[int]]:
        """Cycles whose classes generate the homology group."""
        # Preimages of the presentation's standard generators: columns of
        # kernel @ U^{-1}, skipping the trivial summands (modulus 1).
        pres = self._presentation
        return [pres.kernel.apply(pres.U_inv.column(i)) for i in self._nontrivial()]

    def class_generator(self, j: int) -> list[int]:
        """The j-th of class_generators(), built alone."""
        pres = self._presentation
        return pres.kernel.apply(pres.U_inv.column(self._nontrivial()[j]))

    def induced(self, F: IntMatrix, source: "HomologyData") -> IntMatrix:
        """The matrix of the map F induces from source's homology to this one.

        Column j holds coords(F @ g_j) for source's j-th class generator
        g_j: the product rel_U · kernel_rows · F · kernel(source) ·
        U^{-1}(source), kept on the summands whose modulus is not 1 on both
        sides, each row reduced modulo its modulus.  F must send cycles to
        cycles, checked as d_out · F · kernel(source) = 0.
        """
        pres, spres = self._presentation, source._presentation
        FK = F @ spres.kernel
        if not (self.d_out @ FK).is_zero():
            raise ValueError("vector is not a cycle")
        rows = self._nontrivial()
        cols = {i: j for j, i in enumerate(source._nontrivial())}
        coords = IntMatrix.from_rows([pres.U.entries[i] for i in rows], pres.U.cols)
        gens = IntMatrix.from_rows(
            [{cols[i]: a for i, a in row.items() if i in cols} for row in spres.U_inv.entries], len(cols)
        )
        M = (coords @ (pres.kernel_rows @ FK)) @ gens
        moduli = [pres.moduli[i] for i in rows]
        reduced = [{j: x % m for j, x in row.items() if x % m} if m else row for row, m in zip(M.entries, moduli)]
        return IntMatrix.from_rows(reduced, M.cols)

    def induces_zero(self, F: IntMatrix, source: "HomologyData") -> bool:
        """Does F induce the zero map from source's homology to this one?

        F must send source's cycles to cycles; induced checks this, the
        shortcut does not.  If every entry of F is a multiple of this
        group's exponent e (0 with a free summand, else the largest torsion
        divisor, 1 if trivial), F induces zero and nothing is factored:
        class coordinates are Z-linear and reduced modulo divisors of e.
        """
        g = self.group
        e = 0 if g.free_rank else max(g.torsion, default=1)
        if all(x % e == 0 for row in F.entries for x in row.values()) if e else F.is_zero():
            return True
        return self.induced(F, source).is_zero()

    def induces_iso(self, F: IntMatrix, source: "HomologyData") -> bool:
        """Does F induce an isomorphism from source's homology onto this one?

        Between isomorphic finitely generated groups a surjection is a
        bijection, so: the groups agree, and the induced columns, with the
        relation m_i * e_i of every torsion coordinate appended, span every
        coordinate (their first Smith invariants, one per coordinate, are 1).
        """
        if source.group != self.group:
            return False
        M = self.induced(F, source)
        moduli = [self._presentation.moduli[i] for i in self._nontrivial()]
        if not moduli:
            return True
        rows = [dict(row) for row in M.entries]
        cols = M.cols
        for row, m in zip(rows, moduli):
            if m:
                row[cols] = m
                cols += 1
        diag = smith_normal_form(IntMatrix.from_rows(rows, cols), left=False, right=False).diagonal()
        return all(x == 1 for x in diag[: len(moduli)])


class HomologyMod2:
    """Homology over F2 at one spot of a complex (d_out, d_in and
    `composite` as for HomologyData), by ranks alone: `group` is dim -
    rank d_out - rank d_in copies of Z/2.  An odd entry of d_out @ d_in
    raises NotAComplex.  There are no class coordinates, so there is no
    `induced`."""

    def __init__(self, d_out: IntMatrix, d_in: IntMatrix, composite: IntMatrix | None = None):
        comp = d_out @ d_in if composite is None else composite
        if any(x % 2 for row in comp.entries for x in row.values()):
            raise NotAComplex("d o d != 0 mod 2")
        self.d_out = d_out
        self.d_in = d_in
        self.group = FinAbGroup(0, (2,) * (d_out.cols - d_out.rank_mod_2() - d_in.rank_mod_2()))

    def induced_rank(self, F: IntMatrix, source: "HomologyMod2") -> int:
        """The rank of the map F induces from source's homology to this one.

        With D = source.d_out and E = self.d_in, the map (x, y) -> (Fx + Ey,
        Dx) has rank rank D + dim(F(ker D) + im E), so the induced map has
        rank rank [[F, E], [D, 0]] - rank D - rank E.
        """
        D, E = source.d_out, self.d_in
        top = [{**row, **{F.cols + j: c for j, c in e.items()}} for row, e in zip(F.entries, E.entries)]
        block = IntMatrix.from_rows(top + list(D.entries), F.cols + E.cols)
        return f2_rank(block) - D.rank_mod_2() - E.rank_mod_2()

    def induces_zero(self, F: IntMatrix, source: "HomologyMod2") -> bool:
        return not self.induced_rank(F, source)

    def induces_iso(self, F: IntMatrix, source: "HomologyMod2") -> bool:
        """Equal dimensions and an induced map of full rank."""
        return source.group == self.group and self.induced_rank(F, source) == len(self.group.torsion)


def f2_rank(A: IntMatrix) -> int:
    """Rank of A over the field with two elements.

    Rows are bit masks, reduced against a basis of pivots keyed by their
    lowest set bit; a row with anything left becomes a new pivot.
    """
    pivots: dict[int, int] = {}
    for row in A.entries:
        mask = sum(1 << j for j, x in row.items() if x & 1)
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = mask
                break
            mask ^= pivots[low]
    return len(pivots)
