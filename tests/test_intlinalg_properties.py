"""Property tests of the exact linear algebra against a second oracle.

Random integer matrices up to 8 x 8 are checked against sympy's Smith
normal form, the transforms U, V and their inverses against the
identities they must satisfy, solve_integer against the
invariant-factor criterion for integral solvability, and f2_rank against
plain mod-2 elimination.  The sparse Smith normal form must return the
same U, D, V, U_inv and V_inv as the dense one of dense_snf.py, entry for
entry, since solve_integer's solutions are read off V; scaled matrices and
a unit block beside an even one make its divisor floor rise above 1.  A
factorization that tracks one side or none must give the two-sided D and
the two-sided transforms on the sides it tracks.  Random small
complexes check the kernel coordinates and the class generators that
HomologyData reads off those inverses, and the map induced on homology,
one sparse product, against the per-generator oracle of helpers.py.  The
group HomologyData reads off the spot with its unit pairs cancelled must
be sympy's and the unreduced spot's, on complexes rich in entries +-1.
The sparse product itself is held against a dense triple loop.  The
minors oracle of test_intlinalg.py stays as the first one.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from dense_snf import dense_smith_normal_form
from helpers import coordinate_columns, induced_by_generators, kernel_basis, zero_class

from ainfcat.intlinalg import (
    DimensionMismatch,
    FinAbGroup,
    HomologyData,
    IntMatrix,
    RationalOnly,
    Unsolvable,
    _present,
    f2_rank,
    smith_normal_form,
    solve_integer,
)

SETTINGS = settings(max_examples=150, deadline=None)

entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_dim=8):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix(data, cols=cols)


@st.composite
def complexes(draw):
    """(d_out, d_in) with d_out @ d_in == 0, both at most 5 x 5.

    Rows of d_out are drawn from the lattice orthogonal to the columns of
    d_in, so the pair composes to zero over Z.
    """
    n0 = draw(st.integers(min_value=0, max_value=5))
    n1 = draw(st.integers(min_value=1, max_value=5))
    n2 = draw(st.integers(min_value=0, max_value=5))
    small = st.integers(min_value=-3, max_value=3)
    d_in = IntMatrix(draw(st.lists(st.lists(small, min_size=n0, max_size=n0), min_size=n1, max_size=n1)), cols=n0)
    K = kernel_basis(d_in.transpose())
    rows = []
    for _ in range(n2):
        c = draw(st.lists(small, min_size=K.cols, max_size=K.cols))
        rows.append([sum(K[i, j] * c[j] for j in range(K.cols)) for i in range(n1)])
    return IntMatrix(rows, cols=n1), d_in


def sympy_diagonal(A: IntMatrix) -> list[int]:
    n = min(A.rows, A.cols)
    if n == 0:
        return []
    D = sympy_snf(Matrix(A.rows, A.cols, [x for row in A.data for x in row]), domain=ZZ)
    return [abs(int(D[i, i])) for i in range(n)]


@SETTINGS
@given(matrices())
def test_transforms_and_their_inverses(A):
    snf = smith_normal_form(A)
    assert snf.U @ A @ snf.V == snf.D
    assert snf.U @ snf.U_inv == IntMatrix.identity(A.rows)
    assert snf.U_inv @ snf.U == IntMatrix.identity(A.rows)
    assert snf.V_inv @ snf.V == IntMatrix.identity(A.cols)
    assert snf.V @ snf.V_inv == IntMatrix.identity(A.cols)


@SETTINGS
@given(matrices())
def test_diagonal_matches_sympy(A):
    snf = smith_normal_form(A)
    assert snf.diagonal() == sympy_diagonal(A)
    off_diagonal = [snf.D[i, j] for i in range(A.rows) for j in range(A.cols) if i != j]
    assert not any(off_diagonal)


@st.composite
def sparse_matrices(draw, max_rows=8, max_cols=40):
    """Mostly-zero matrices, wide ones included, with empty rows and columns."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    cells = st.sampled_from((0,) * 20 + (1, -1, 2, -2, 3, -4))
    data = draw(st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix(data, cols=cols)


def wide_sparse(rows: int, cols: int, step: int) -> IntMatrix:
    """About one entry in `step` nonzero, a fixed pattern of small values."""
    return IntMatrix(
        [[(i * cols + j) % 7 - 3 if (i * cols + j) % step == 0 else 0 for j in range(cols)] for i in range(rows)],
        cols=cols,
    )


@contextmanager
def time_limit(seconds: float):
    """Fail, rather than hang, when a factorization does not end: a pivot
    that is not the smallest entry can leave a quotient of 0 and stall the
    clearing loop.  A factorization here takes milliseconds."""

    def stop(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def scaled_matrices(draw):
    """k * A for k in {2, 3, 4, 6}: every pivot, and so the floor, is a multiple of k."""
    k = draw(st.sampled_from((2, 3, 4, 6)))
    A = draw(matrices(max_dim=6))
    return IntMatrix([[k * x for x in row] for row in A.data], cols=A.cols)


@st.composite
def unit_and_even_blocks(draw):
    """A beside 2 * B on the block diagonal, rows and columns shuffled: the
    floor stays 1 through A's unit pivots, then rises to 2 or more in B."""
    A = draw(matrices(max_dim=4))
    B = draw(matrices(max_dim=4))
    cols = A.cols + B.cols
    block = [list(r) + [0] * B.cols for r in A.data] + [[0] * A.cols + [2 * x for x in r] for r in B.data]
    row_order = draw(st.permutations(range(len(block))))
    col_order = draw(st.permutations(range(cols)))
    return IntMatrix([[block[i][j] for j in col_order] for i in row_order], cols=cols)


any_matrices = st.one_of(matrices(), sparse_matrices(), scaled_matrices(), unit_and_even_blocks())


@SETTINGS
@given(any_matrices)
@example(IntMatrix.zeros(0, 5))
@example(IntMatrix.zeros(5, 0))
@example(IntMatrix([[0, 0, 0], [0, 2, 0], [0, 0, 0], [4, 0, 6]]))
@example(wide_sparse(3, 40, 19))
@example(IntMatrix([[2, 0], [0, 3]]))
@example(IntMatrix([[4, 6], [6, 4]]))
@example(IntMatrix([[1, 1, 0], [-1, 1, 0], [0, 0, 1]]))
@example(IntMatrix([[2, 0, 0], [0, 4, 0], [0, 0, 6]]))
@example(IntMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 6]]))
@example(IntMatrix([[4, 4], [0, 6], [8, 10]]))
def test_sparse_transforms_match_the_dense_oracle(A):
    with time_limit(2):
        snf = smith_normal_form(A)
    dense = dense_smith_normal_form(A)
    assert snf.U == dense.U
    assert snf.D == dense.D
    assert snf.V == dense.V
    assert snf.U_inv == dense.U_inv
    assert snf.V_inv == dense.V_inv


@pytest.mark.parametrize("left,right", [(True, False), (False, True), (False, False)])
@SETTINGS
@given(A=any_matrices)
def test_one_sided_factorizations_match_the_two_sided_one(left, right, A):
    with time_limit(2):
        both = smith_normal_form(A)
        snf = smith_normal_form(A, left=left, right=right)
    empty = IntMatrix.zeros(0, 0)
    assert snf.D == both.D
    assert (snf.U, snf.U_inv) == ((both.U, both.U_inv) if left else (empty, empty))
    assert (snf.V, snf.V_inv) == ((both.V, both.V_inv) if right else (empty, empty))
    if not left and A.rows:
        with pytest.raises(DimensionMismatch):
            snf.U.apply([0] * A.rows)


def nonzero_product(diagonal: list[int]) -> tuple[int, int]:
    """(rank, product of the nonzero invariant factors)."""
    nonzero = [d for d in diagonal if d]
    return len(nonzero), math.prod(nonzero)


@st.composite
def product_pairs(draw):
    """A (m x k) and B (k x n), each dimension 0..6, mostly zero with empty
    rows, and entries of both signs so that products cancel."""
    m, k, n = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
    cells = st.sampled_from((0,) * 6 + (1, -1, 2, -2, 3))

    def matrix(rows, cols):
        data = draw(st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        return IntMatrix(data, cols=cols)

    return matrix(m, k), matrix(k, n)


@SETTINGS
@given(product_pairs())
@example((IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 4)))
@example((IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 4)))
@example((IntMatrix.zeros(2, 3), IntMatrix.zeros(3, 0)))
@example((IntMatrix([[1, 1], [0, 0]]), IntMatrix([[1, 2], [-1, -2]])))
def test_matmul_matches_the_dense_triple_loop(pair):
    # the chain-map checks and every composite map rest on this product
    A, B = pair
    P = A @ B
    dense = [
        [sum(A.data[i][t] * B.data[t][j] for t in range(A.cols)) for j in range(B.cols)] for i in range(A.rows)
    ]
    assert (P.rows, P.cols) == (A.rows, B.cols)
    assert [list(row) for row in P.data] == dense
    assert all(x for row in P.entries for x in row.values())  # zeros are never stored


@SETTINGS
@given(matrices(max_dim=6), st.data())
def test_solve_integer_matches_sympy(A, data):
    # A x = b is solvable over Q iff [A | b] has the rank of A, and over Z
    # iff moreover the product of the nonzero invariant factors is unchanged.
    b = data.draw(st.lists(entries, min_size=A.rows, max_size=A.rows))
    augmented = IntMatrix([list(row) + [c] for row, c in zip(A.data, b)], cols=A.cols + 1)
    rank_a, prod_a = nonzero_product(sympy_diagonal(A))
    rank_ab, prod_ab = nonzero_product(sympy_diagonal(augmented))
    x = solve_integer(A, b)
    if rank_ab > rank_a:
        assert isinstance(x, Unsolvable)
    elif prod_ab != prod_a:
        assert isinstance(x, RationalOnly)
    else:
        assert A.apply(x) == b


@SETTINGS
@given(complexes(), st.data())
def test_kernel_coordinates_invert_the_kernel_basis(pair, data):
    d_out, d_in = pair
    hd = HomologyData(d_out, d_in)
    z = hd.kernel.cols
    y = data.draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=z, max_size=z))
    x = hd.kernel.apply(y)  # an arbitrary cycle
    assert hd._kernel_coords(x) == y
    assert hd.kernel.apply(hd._kernel_coords(x)) == x


@SETTINGS
@given(complexes())
def test_class_generators_have_unit_coordinates(pair):
    d_out, d_in = pair
    hd = HomologyData(d_out, d_in)
    gens = hd.class_generators()
    width = len(zero_class(hd))
    assert len(gens) == width
    for i, g in enumerate(gens):
        assert hd.coords(g) == tuple(1 if j == i else 0 for j in range(width))
    for j in range(d_in.cols):
        assert hd.coords(d_in.column(j)) == zero_class(hd)


def sympy_group(d_out: IntMatrix, d_in: IntMatrix) -> FinAbGroup:
    """ker(d_out) / im(d_in): the torsion is that of Z^n / im(d_in), as
    ker(d_out) is a direct summand holding im(d_in)."""
    n = d_out.cols
    rank_out = Matrix(d_out.rows, n, [x for r in d_out.data for x in r]).rank() if d_out.rows and n else 0
    diag_in = sympy_diagonal(d_in)
    torsion = tuple(d for d in diag_in if d >= 2)
    free = n - rank_out - sum(1 for d in diag_in if d)
    return FinAbGroup(free, torsion)


@SETTINGS
@given(complexes())
def test_homology_group_matches_sympy(pair):
    assert HomologyData(*pair).group == sympy_group(*pair)


@st.composite
def unit_rich_complexes(draw):
    """(d_out, d_in) with d_out @ d_in == 0, both at most 6 x 6, most
    entries +-1: d_in's entries are drawn from 0, +-1 and +-2, and each row
    of d_out is a sum of the kernel basis of d_in's transpose with
    coefficients 0 and +-1, so a middle element often carries a unit on
    both sides and the Schur complements make more."""
    n0, n1, n2 = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
    cells = st.sampled_from((0, 0, 1, -1, 1, -1, 2, -2))
    d_in = IntMatrix(draw(st.lists(st.lists(cells, min_size=n0, max_size=n0), min_size=n1, max_size=n1)), cols=n0)
    K = kernel_basis(d_in.transpose())
    signs = st.lists(st.sampled_from((0, 1, -1)), min_size=K.cols, max_size=K.cols)
    rows = [K.apply(draw(signs)) for _ in range(n2)]
    return IntMatrix(rows, cols=n1), d_in


def identity_spot(n: int) -> tuple[IntMatrix, IntMatrix]:
    """d_out the n x n identity and no d_in: every element is paired."""
    return IntMatrix.identity(n), IntMatrix.zeros(n, 0)


@SETTINGS
@given(unit_rich_complexes())
@example((IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)))
@example((IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0)))
@example((IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 4)))
@example((IntMatrix([[1, -1]]), IntMatrix([[1, 1], [1, 1]])))  # all units; middle element 0 paired both ways
@example((IntMatrix([[1, -1, 0], [0, 1, 1]]), IntMatrix([[1], [1], [-1]])))  # all units
@example((IntMatrix([[2, -2]]), IntMatrix([[2, 2], [2, 2]])))  # all +-2: Z/2
@example((IntMatrix.zeros(0, 2), IntMatrix([[2, -2], [-2, -2]])))  # all +-2: Z/2 + Z/4
@example(identity_spot(4))
@example((IntMatrix.zeros(0, 4), IntMatrix.identity(4)))
def test_unit_cancellation_keeps_the_group(pair):
    """The group read off the unit-reduced spot is sympy's and the one the
    unreduced spot's factorization gives."""
    d_out, d_in = pair
    assert HomologyData(d_out, d_in).group == sympy_group(d_out, d_in) == _present(d_out, d_in).group()


def small_matrix(data, rows: int, cols: int) -> IntMatrix:
    small = st.integers(min_value=-3, max_value=3)
    rows = data.draw(st.lists(st.lists(small, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix(rows, cols=cols)


def plus(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return IntMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(A.data, B.data)], cols=A.cols)


@SETTINGS
@given(complexes(), complexes(), st.booleans(), st.data())
def test_induced_matches_the_per_generator_oracle(source, target, off_cycles, data):
    """A map into the target's cycles (plus boundaries), or, with
    off_cycles, one with an arbitrary summand: the induced matrix has the
    oracle's coordinates column by column, and a map that sends a cycle
    of the source off the target's cycles is refused."""
    hs, ht = HomologyData(*source), HomologyData(*target)
    n_s, n_t = hs.d_out.cols, ht.d_out.cols
    F = plus(ht.kernel @ small_matrix(data, ht.kernel.cols, n_s), ht.d_in @ small_matrix(data, ht.d_in.cols, n_s))
    if off_cycles:
        F = plus(F, small_matrix(data, n_t, n_s))
    if (ht.d_out @ F @ hs.kernel).is_zero():
        assert coordinate_columns(ht.induced(F, hs)) == induced_by_generators(F, hs, ht)
    else:
        with pytest.raises(ValueError):
            ht.induced(F, hs)


def test_induced_on_torsion_and_modulus_one():
    """Source H = Z/2 beside a summand of modulus 1; target H = Z/2 + Z
    beside one of modulus 1: one column, two rows, the first reduced mod 2."""
    hs = HomologyData(IntMatrix.zeros(0, 2), IntMatrix([[2, 1], [0, 1]]))
    ht = HomologyData(IntMatrix.zeros(0, 3), IntMatrix([[2, 0], [0, 1], [0, 0]]))
    F = IntMatrix([[1, 0], [1, 1], [0, 3]])
    M = ht.induced(F, hs)
    assert (M.rows, M.cols) == (2, 1)
    assert coordinate_columns(M) == induced_by_generators(F, hs, ht)


@SETTINGS
@given(complexes(), st.integers(min_value=-4, max_value=4), st.data())
def test_a_map_homotopic_to_c_times_identity_induces_c(pair, c, data):
    """F = c + d_in S + T d_out is a chain map at the spot, homotopic to c
    times the identity: its induced matrix is c on the diagonal, reduced
    modulo each modulus, and agrees with the oracle."""
    hd = HomologyData(*pair)
    d_out, d_in = pair
    n = d_out.cols
    F = plus(
        IntMatrix([[c if i == j else 0 for j in range(n)] for i in range(n)], cols=n),
        plus(d_in @ small_matrix(data, d_in.cols, n), small_matrix(data, n, d_out.rows) @ d_out),
    )
    moduli = [m for m in hd._presentation.moduli if m != 1]
    expected = [tuple((c % m if m else c) if i == j else 0 for i, m in enumerate(moduli)) for j in range(len(moduli))]
    assert coordinate_columns(hd.induced(F, hd)) == expected == induced_by_generators(F, hd, hd)


def f2_rank_by_elimination(rows: list[list[int]], cols: int) -> int:
    rows = [[x % 2 for x in row] for row in rows]
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@SETTINGS
@given(matrices(max_dim=10))
@example(IntMatrix.zeros(0, 4))
@example(IntMatrix.zeros(3, 0))
@example(IntMatrix([[1, 1], [-1, 3], [2, 0]]))
def test_f2_rank_matches_elimination(A):
    assert f2_rank(A) == f2_rank_by_elimination([list(r) for r in A.data], A.cols)
