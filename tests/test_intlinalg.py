"""Exact linear algebra tests, checked against independent brute-force oracles.

The Smith-form oracle uses the classical characterization d_1*...*d_k =
gcd of all k x k minors; the homology oracle combines rational ranks (for
the free part) with the torsion of coker(d_in), which equals the torsion
of ker/im because the quotient by the homology embeds in a free group.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from helpers import callback_complex, kernel_basis, rational_rank, zero_class

from ainfcat import intlinalg
from ainfcat.complexes import BasedComplex, GradedMap, table_terms
from ainfcat.intlinalg import (
    FinAbGroup,
    HomologyData,
    HomologyMod2,
    IntMatrix,
    NotAComplex,
    RationalOnly,
    Unsolvable,
    smith_normal_form,
    solve_integer,
)


def det(A: IntMatrix) -> int:
    n = A.rows
    assert n == A.cols
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm)
        prod = 1
        for i, j in enumerate(perm):
            prod *= A[i, j]
        total += sign * prod
    return total


def perm_sign(perm) -> int:
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def minors_gcd(A: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if all vanish)."""
    g = 0
    for rows in itertools.combinations(range(A.rows), k):
        for cols in itertools.combinations(range(A.cols), k):
            sub = IntMatrix(tuple(tuple(A[i, j] for j in cols) for i in rows))
            g = math.gcd(g, det(sub))
    return g


def snf_oracle_diagonal(A: IntMatrix) -> list[int]:
    n = min(A.rows, A.cols)
    out = []
    prev = 1
    for k in range(1, n + 1):
        g = minors_gcd(A, k)
        if g == 0:
            out.extend([0] * (n - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def check_decomposition(A: IntMatrix):
    snf = smith_normal_form(A)
    assert snf.U @ A @ snf.V == snf.D
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.V)) == 1
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D[i, j] == 0
    assert diag == snf_oracle_diagonal(A)


def test_snf_identity():
    A = IntMatrix.identity(2)
    snf = smith_normal_form(A)
    assert snf.D == A and snf.U == A and snf.V == A


def test_snf_2x2_example():
    A = IntMatrix([[2, 4], [6, 8]])
    snf = smith_normal_form(A)
    # gcd of entries is 2, |det| = 8, so the divisors are 2 and 4
    assert snf.diagonal() == [2, 4]
    check_decomposition(A)


def test_snf_zero_1x1():
    snf = smith_normal_form(IntMatrix([[0]]))
    assert snf.diagonal() == [0]


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        A = IntMatrix.zeros(*shape)
        snf = smith_normal_form(A)
        assert snf.D.rows == shape[0] and snf.D.cols == shape[1]


def test_snf_exhaustive_2x2():
    vals = range(-2, 3)
    for a, b, c, d in itertools.product(vals, repeat=4):
        check_decomposition(IntMatrix([[a, b], [c, d]]))


def test_snf_randomized_sample():
    rng = random.Random(20240817)
    for _ in range(2000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        check_decomposition(A)


def test_snf_deterministic():
    A = IntMatrix([[6, 10, 15], [10, 6, 4], [0, 5, 5]])
    s1 = smith_normal_form(A)
    s2 = smith_normal_form(A)
    assert s1.U == s2.U and s1.V == s2.V and s1.D == s2.D


def test_solve_identity():
    A = IntMatrix.identity(3)
    assert solve_integer(A, [4, -5, 6]) == [4, -5, 6]


def test_solve_parity_obstruction():
    assert isinstance(solve_integer(IntMatrix([[2]]), [1]), RationalOnly)


def test_solve_unsolvable():
    assert isinstance(solve_integer(IntMatrix([[0]]), [1]), Unsolvable)


def test_solve_extended_gcd():
    A = IntMatrix([[2, 3]])
    x = solve_integer(A, [1])
    assert A.apply(x) == [1]


def test_solve_randomized_roundtrip():
    rng = random.Random(7)
    for _ in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        xs = [rng.randint(-3, 3) for _ in range(cols)]
        b = A.apply(xs)
        x = solve_integer(A, b)
        assert not isinstance(x, (RationalOnly, Unsolvable))
        assert A.apply(x) == b


def test_kernel_basis_spans_kernel():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        K = kernel_basis(A)
        assert (A @ K).is_zero()
        assert K.cols == cols - rational_rank(A)


def matrix_complex(components: dict[int, list], diff: dict[int, IntMatrix]) -> BasedComplex:
    """The complex whose differential leaving degree k has matrix diff[k]."""
    return BasedComplex(components, diff)


def two_term_complex(M: IntMatrix) -> BasedComplex:
    return matrix_complex(
        components={0: [f"a{i}" for i in range(M.cols)], 1: [f"b{i}" for i in range(M.rows)]},
        diff={0: M},
    )


def test_homology_zero_differential():
    C = matrix_complex(components={0: ["x", "y", "z"]}, diff={})
    C.validate()
    assert C.homology_data(0).group == FinAbGroup(3)


def test_homology_times_two():
    C = two_term_complex(IntMatrix([[2]]))
    C.validate()
    assert C.homology_data(1).group == FinAbGroup(0, (2,))
    assert C.homology_data(0).group == FinAbGroup(0)


def test_homology_iso():
    C = two_term_complex(IntMatrix([[1]]))
    assert C.homology_data(0).group == FinAbGroup(0)
    assert C.homology_data(1).group == FinAbGroup(0)


@pytest.mark.parametrize("m, unit, nonunit", [(2, 1, 0), (4, 3, 2)])
def test_induces_iso_reads_the_torsion_relations(m, unit, nonunit):
    # on H^1 = Z/m of Z --m--> Z, multiplication by c is an isomorphism
    # exactly when c is a unit mod m; for c = 3 and m = 4 the induced matrix
    # [3] alone does not generate Z, with the relation column 4 it does
    hd = two_term_complex(IntMatrix([[m]])).homology_data(1)
    assert hd.induces_iso(IntMatrix([[unit]]), hd)
    assert not hd.induces_iso(IntMatrix([[nonunit]]), hd)


@pytest.mark.parametrize("m", [2, 4])
def test_inclusion_beside_an_acyclic_pair_induces_iso(m):
    # Z --m--> Z into the same complex with Z --1--> Z put first
    small = two_term_complex(IntMatrix([[m]]))
    big = matrix_complex({0: ["x", "a0"], 1: ["y", "b0"]}, {0: IntMatrix([[1, 0], [0, m]])})
    inclusion = GradedMap.from_terms(small, big, 0, [("a0", "a0", 1), ("b0", "b0", 1)])
    for k in (0, 1):
        assert big.homology_data(k).induces_iso(inclusion.matrix(k), small.homology_data(k)), k


def test_not_a_complex_detected():
    C = matrix_complex(
        components={0: ["a"], 1: ["b"], 2: ["c"]},
        diff={0: IntMatrix([[1]]), 1: IntMatrix([[1]])},
    )
    with pytest.raises(NotAComplex):
        C.validate()


@pytest.mark.parametrize("ring", ["Z", "F2"])
def test_homology_refuses_a_non_complex_on_either_ring(ring):
    # a -> b -> c with both coefficients 1: over F2 the rank count alone
    # would read H^1 = 0 from a dimension of 1 - 1 - 1 = -1
    d0, d1 = IntMatrix([[1]]), IntMatrix([[1]])
    C = BasedComplex({0: ["a"], 1: ["b"], 2: ["c"]}, {0: d0, 1: d1}, ring=ring)
    with pytest.raises(NotAComplex):
        C.homology_data(1)
    with pytest.raises(NotAComplex):
        (HomologyMod2 if ring == "F2" else HomologyData)(d1, d0)
    # an even composite is zero over F2 only
    d1 = IntMatrix([[2]])
    if ring == "F2":
        assert HomologyMod2(d1, d0).group == FinAbGroup(0)
    else:
        with pytest.raises(NotAComplex):
            HomologyData(d1, d0)


def test_homology_over_z_refuses_a_complex_that_fails_anywhere():
    # d o d fails from degree 0 only, but the unit cancellation couples
    # neighbouring degrees, so no degree's homology is read, twice over
    d = {0: IntMatrix([[1]]), 1: IntMatrix([[1]]), 3: IntMatrix([[2]])}
    C = BasedComplex({k: [f"x{k}"] for k in range(5)}, d)
    for _ in range(2):
        for k in range(-1, 6):
            with pytest.raises(NotAComplex, match="at degree 0 on 'x0'"):
                C.homology_data(k)


@pytest.mark.parametrize("ring, coefficient", [("Z", 1), ("Z", 2), ("F2", 1)])
def test_not_a_complex_names_the_first_label(ring, coefficient):
    # d o d vanishes on a (two paths cancel, mod 2 as well when doubled)
    # and first fails on b
    d = {"a": {"x": 1, "y": coefficient}, "b": {"x": 1}, "c": {"y": 1}, "x": {"z": 1}, "y": {"z": -1}}
    C = callback_complex({0: ["a", "b", "c"], 1: ["x", "y"], 2: ["z"]}, lambda label: d.get(label, {}), ring=ring)
    if ring == "Z" and coefficient == 2:
        with pytest.raises(NotAComplex, match="d o d != 0 at degree 0 on 'a'"):
            C.validate()
        return
    with pytest.raises(NotAComplex, match="d o d != 0 at degree 0 on 'b'"):
        C.validate()


def test_differential_leaving_the_basis_is_refused():
    # the image is placed when the complex is built, so the refusal comes there
    with pytest.raises(KeyError, match="differential of 'x' leaves the declared basis at 'w'"):
        callback_complex({0: ["a"], 1: ["x"]}, lambda label: {"x": 1} if label == "a" else {"w": 1})


def test_a_degree_without_a_matrix_reads_zero_of_its_shape():
    C = BasedComplex({0: ["a", "b"], 1: ["x"]}, {0: IntMatrix([[1, 1]])})
    assert C.matrix(1) == IntMatrix.zeros(0, 1)
    assert C.matrix(-1) == IntMatrix.zeros(2, 0)
    assert C.matrix(7) == IntMatrix.zeros(0, 0)
    assert C.homology_data(0).group == FinAbGroup(1) and C.homology_data(1).group == FinAbGroup(0)
    f = GradedMap(C, C, 1)
    assert f.matrix(0) == IntMatrix.zeros(1, 2) and f.matrix(1) == IntMatrix.zeros(0, 1)


def test_a_matrix_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match="the degree-0 matrix is 1x1, its bases need 1x2"):
        BasedComplex({0: ["a", "b"], 1: ["x"]}, {0: IntMatrix([[1]])})


def test_a_table_driven_map_reads_only_labels_of_its_source():
    # the entry on "c", a label past the source's basis, is not read
    source = BasedComplex({0: ["a", "b"]})
    target = BasedComplex({0: ["x"]})
    f = GradedMap.from_terms(source, target, 0, table_terms(source, {"b": {"x": 3}, "c": {"y": 1}}))
    assert f.matrix(0) == IntMatrix([[0, 3]])


def homology_oracle(d_out: IntMatrix, d_in: IntMatrix) -> FinAbGroup:
    """Free rank from rational ranks; torsion from coker(d_in) minors."""
    n = d_out.cols
    free = (n - rational_rank(d_out)) - rational_rank(d_in)
    torsion = [d for d in snf_oracle_diagonal(d_in) if d >= 2]
    return FinAbGroup(free, tuple(torsion))


def test_homology_randomized_vs_oracle():
    rng = random.Random(20240818)
    count = 0
    while count < 400:
        n0 = rng.randint(1, 3)
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        d0 = IntMatrix([[rng.randint(-2, 2) for _ in range(n0)] for _ in range(n1)])
        # Build d1 with d1 @ d0 = 0 by sampling from the kernel of d0^T acting
        # on rows: rows of d1 must be orthogonal to columns of d0.
        K = kernel_basis(d0.transpose())  # rows of d1 live in the span of K columns
        rows = []
        for _ in range(n2):
            coeffs = [rng.randint(-2, 2) for _ in range(K.cols)]
            rows.append(tuple(sum(K[i, j] * coeffs[j] for j in range(K.cols)) for i in range(n1)))
        d1 = IntMatrix(rows, cols=n1)
        if not (d1 @ d0).is_zero():
            continue
        count += 1
        hd = HomologyData(d1, d0)
        assert hd.group == homology_oracle(d1, d0)


def test_homology_coords_detect_boundaries():
    # 0 -> Z^2 --[[2,0],[0,3]]--> Z^2: classes live in Z/2 + Z/3
    d_in = IntMatrix([[2, 0], [0, 3]])
    d_out = IntMatrix.zeros(0, 2)
    hd = HomologyData(d_out, d_in)
    assert hd.group == FinAbGroup(0, (6,))
    # (2, 3) is a boundary, (1, 1) is not
    assert hd.coords([2, 3]) == zero_class(hd)
    assert hd.coords([1, 1]) != zero_class(hd)


def test_class_generators_generate():
    d_in = IntMatrix([[2, 0], [0, 0]])
    d_out = IntMatrix.zeros(0, 2)
    hd = HomologyData(d_out, d_in)
    gens = hd.class_generators()
    assert len(gens) == len(zero_class(hd))
    seen = {hd.coords(g) for g in gens}
    assert zero_class(hd) not in seen


def test_coords_refuse_a_non_cycle():
    # Z --[1]--> Z: the generator of the source is not a cycle
    hd = HomologyData(IntMatrix([[1]]), IntMatrix.zeros(1, 0))
    with pytest.raises(ValueError, match="not a cycle"):
        hd.coords([1])


# -- what HomologyData factors, and when -----------------------------------


def recording_smith_forms(monkeypatch) -> list:
    """Patch intlinalg.smith_normal_form to record each matrix it factors."""
    factored = []
    original = intlinalg.smith_normal_form

    def recording(A, left=True, right=True):
        factored.append(A)
        return original(A, left, right)

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    return factored


def test_building_homology_data_runs_no_smith_form(monkeypatch):
    factored = recording_smith_forms(monkeypatch)
    d_out, d_in = IntMatrix([[2, -2, 1]]), IntMatrix([[1], [1], [0]])
    hd = HomologyData(d_out, d_in)
    assert factored == []
    assert hd.group == FinAbGroup(1)
    assert factored


def test_the_group_of_an_identity_spot_factors_no_nonempty_matrix(monkeypatch):
    factored = recording_smith_forms(monkeypatch)
    assert HomologyData(IntMatrix.identity(5), IntMatrix.zeros(5, 0)).group == FinAbGroup(0)
    assert HomologyData(IntMatrix.zeros(0, 5), IntMatrix.identity(5)).group == FinAbGroup(0)
    assert factored and all(A.rows == 0 or A.cols == 0 for A in factored)
