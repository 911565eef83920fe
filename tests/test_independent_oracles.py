"""Checks of the integral linear algebra by routes that share none of its code.

Over Z, `hochschild_homology` factors its matrices by the sparse Smith
normal form; over F2 it takes ranks by bit-mask elimination (`f2_rank`).
The universal coefficient theorem ties the two: for a cochain complex C
of free abelian groups, in every degree k,

    dim H^k(C (x) F2) = rank H^k + t2(H^k) + t2(H^(k+1)),

with t2 the number of even torsion divisors.  The F2 identity sees only
the even divisors, so the same identity is checked over F3, with t3 the
number of divisors that 3 divides and ranks mod 3 taken by `rank_mod_p`,
a row reduction here that shares no code with the package; the
cone algebras over Z --3--> Z and Z --6--> Z carry divisors from 3 up to
3^4 and 6^4.  The second half checks,
after the fact, every Smith factorization that the CI-sized `hh`, `cardy`
and `generate` runs make: U·A·V = D with exact inverses, D a divisor
chain, and a one-sided call equal to the two-sided one.
"""

from __future__ import annotations

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix
from sympy.polys.matrices import DomainMatrix

from ainfcat import cli, intlinalg
from ainfcat.core import with_ring
from ainfcat.fixtures import FIXTURES, cone_algebra
from ainfcat.hochschild import hochschild_homology, truncated_cc
from ainfcat.intlinalg import FinAbGroup, IntMatrix


def t2(group: FinAbGroup) -> int:
    return sum(1 for d in group.torsion if d % 2 == 0)


UCT_CASES = [(name, N) for name in sorted(FIXTURES) for N in range(1, 5)] + [
    ("cone_algebra", 5),
    ("split_summand_pair", 5),
    ("triple_product_algebra", 5),
]


@pytest.mark.parametrize("name, N", UCT_CASES)
def test_f2_dimensions_follow_from_the_integral_groups(name, N):
    cat = FIXTURES[name]()
    over_z = hochschild_homology(cat, N).groups
    over_f2 = hochschild_homology(with_ring(cat, "F2"), N).groups
    assert over_f2.keys() == over_z.keys()
    for k, group in over_z.items():
        above = over_z.get(k + 1, FinAbGroup(0))
        assert len(over_f2[k].torsion) == group.free_rank + t2(group) + t2(above), k


def rank_mod_p(A: IntMatrix, p: int) -> int:
    """Rank of A over the field with p elements, p prime.

    Each sparse row is reduced mod p against pivot rows keyed by their
    lowest column, each pivot scaled to lead with 1; a row with anything
    left becomes a new pivot.
    """
    pivots: dict[int, dict] = {}
    for entries in A.entries:
        row = {j: x % p for j, x in entries.items() if x % p}
        while row:
            low = min(row)
            pivot = pivots.get(low)
            if pivot is None:
                inverse = pow(row[low], -1, p)
                pivots[low] = {j: x * inverse % p for j, x in row.items()}
                break
            scale = row[low]
            for j, x in pivot.items():
                y = (row.get(j, 0) - scale * x) % p
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
    return len(pivots)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.sampled_from([2, 3, 5]), st.data())
def test_rank_mod_p_matches_sympy(rows, cols, p, data):
    cells = data.draw(st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols))
    A = IntMatrix([cells[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)
    want = DomainMatrix.from_Matrix(Matrix(rows, cols, cells)).convert_to(GF(p)).rank() if rows and cols else 0
    assert rank_mod_p(A, p) == want


def t3(group: FinAbGroup) -> int:
    return sum(1 for d in group.torsion if d % 3 == 0)


@pytest.mark.parametrize("m", [3, 6])
def test_f3_dimensions_follow_from_the_integral_groups(m):
    """dim H^k(C (x) F3) = rank H^k + t3(H^k) + t3(H^(k+1)) on the cyclic
    complex of the cone algebra over Z --m--> Z at N = 4."""
    cat, N = cone_algebra(m), 4
    cx = truncated_cc(cat, N)
    over_z = hochschild_homology(cat, N).groups
    assert over_z.keys() == set(cx.degrees())
    assert any(t3(group) for group in over_z.values())
    for k, group in over_z.items():
        dim = cx.dim(k) - rank_mod_p(cx.matrix(k), 3) - rank_mod_p(cx.matrix(k - 1), 3)
        assert dim == group.free_rank + t3(group) + t3(over_z.get(k + 1, FinAbGroup(0))), k


def factorization_problems(snf_fn, A: IntMatrix, left: bool, right: bool) -> tuple[object, list[str]]:
    """(the requested factorization, what is wrong with it or with the
    two-sided one of the same matrix)."""
    both = snf_fn(A)
    problems = []
    if both.U @ A @ both.V != both.D:
        problems.append("U A V != D")
    if both.U @ both.U_inv != IntMatrix.identity(A.rows):
        problems.append("U U^-1 != I")
    if both.V_inv @ both.V != IntMatrix.identity(A.cols):
        problems.append("V^-1 V != I")
    if any(i != j for i, row in enumerate(both.D.entries) for j in row):
        problems.append("D is not diagonal")
    diag = both.diagonal()
    if any(d < 0 for d in diag):
        problems.append(f"negative divisor in {diag}")
    if any(b % a if a else b for a, b in zip(diag, diag[1:])):
        problems.append(f"not a divisor chain: {diag}")
    snf = snf_fn(A, left=left, right=right)
    empty = IntMatrix.zeros(0, 0)
    if snf.D != both.D:
        problems.append("one-sided D differs")
    if (snf.U, snf.U_inv) != ((both.U, both.U_inv) if left else (empty, empty)):
        problems.append(f"left={left}: U differs")
    if (snf.V, snf.V_inv) != ((both.V, both.V_inv) if right else (empty, empty)):
        problems.append(f"right={right}: V differs")
    return snf, problems


@pytest.fixture
def checked_snf(monkeypatch):
    """Patch every binding of smith_normal_form with a wrapper that checks
    each factorization; yields the list of (shape, problems) per call."""
    original = intlinalg.smith_normal_form
    calls: list[tuple[tuple[int, int], list[str]]] = []

    def checked(A, left=True, right=True):
        snf, problems = factorization_problems(original, A, left, right)
        calls.append(((A.rows, A.cols), problems))
        return snf

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ainfcat" and getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", checked)
    return calls


RUNS = [
    ["hh", "split_summand_pair.json", "--max-length", "4"],
    ["hh", "triple_product_algebra.json", "--max-length", "5", "--degrees=-2..1"],
    ["hh", "cone_algebra.json", "--max-length", "4"],
    ["cardy", "split_summand_pair.json", "--morphism", "coproduct_n0", "--max-length", "3", "--solve"],
    ["cardy", "cone_algebra.json", "--morphism", "coproduct_n1", "--max-length", "4", "--solve"],
    ["cardy", "cone_algebra.json", "--morphism", "coproduct_n2", "--max-length", "4"],
    ["generate", "split_summand_pair.json", "--object", "K", "--subcategory", "L", "--max-length", "3"],
]


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[:2] + argv[3:4]))
def test_every_factorization_of_a_run_checks_out(tmp_path, monkeypatch, checked_snf, argv):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["fixture", argv[1].removesuffix(".json"), "-o", argv[1]]) == 0
        assert cli.main(argv) in (0, 1)
    assert checked_snf
    assert [(shape, p) for shape, p in checked_snf if p] == []
