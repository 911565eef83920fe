"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
check is exact integer arithmetic; there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
import time

from helpers import disc_facet_count_closed_form, iter_terms, rational_rank, shipped_morphism, with_negated_term

from ainfcat.bimodules import LEFT, RIGHT, TensorWord, YonedaModule, tensor_over_category
from ainfcat.cardy import homotopy_map, mu_cc_map, telescoping_data, verify_cardy_on_homology, verify_homotopy_equation
from ainfcat.core import verify_ainf
from ainfcat.fileformat import category_to_json
from ainfcat.fixtures import (
    FIXTURES,
    dual_numbers,
    ground_ring,
    split_summand_pair,
    triple_product_algebra,
    two_object_with_zero,
)
from ainfcat.generation import generation_test, replay_certificate
from ainfcat.hochschild import hochschild_homology, truncated_cc
from ainfcat.intlinalg import FinAbGroup, IntMatrix, NotAComplex, smith_normal_form
from ainfcat.strata import (
    bidisc,
    dimension,
    disc,
    enumerate_codim1,
    punctured_disc,
    strata_term_bijection,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- helpers shared with criterion 2 -----------------------------------------


def sign_suites_pass(cat, *, ainf_depth=4, word_length=5, tensor_length=3, short_circuit=False) -> bool:
    if not verify_ainf(cat, ainf_depth).passed:
        return False
    if short_circuit:
        return True  # a detected failure was all the caller needed to know
    try:
        truncated_cc(cat, word_length)  # validate() checks b^2 = 0
        for K in cat.objects:
            tensor_over_category(
                YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), tensor_length
            )
    except ValueError:
        return False
    return True


def test_criterion_1_sign_consistency_master_suite():
    t0 = time.monotonic()
    failures = []
    for name, make in sorted(FIXTURES.items()):
        cat = make()
        if not verify_ainf(cat, 4).passed:
            failures.append(f"{name}: structure relations")
        try:
            truncated_cc(cat, 5)
        except NotAComplex as err:
            failures.append(f"{name}: b^2 != 0: {err}")
        try:
            for K in cat.objects:
                tensor_over_category(
                    YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), 3
                )
        except ValueError as err:
            failures.append(f"{name}: tensor complex {err}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= 60.0
    report(
        1,
        ok,
        f"all fixtures: relations d<=4, b^2=0 length<=5, tensor d^2=0 N<=3 "
        f"in {elapsed:.1f}s (budget 60s)" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_mutation_detection():
    total = 0
    undetected = []
    unsound = []  # a suite that fails the unmutated fixture detects nothing
    for name, make in (("dual_numbers", dual_numbers), ("triple_product_algebra", triple_product_algebra)):
        cat = make()
        if not sign_suites_pass(cat):
            unsound.append(name)
        for d, key, out, _ in list(iter_terms(cat)):
            total += 1
            mutant = with_negated_term(cat, d, key, out)
            caught = not verify_ainf(mutant, 4).passed or not sign_suites_pass(mutant)
            if not caught:
                undetected.append((name, d, key, out))
    ok = not undetected and not unsound and total > 0
    report(2, ok, f"{total}/{total - len(undetected)} single-coefficient negations detected across "
                  f"both fixtures, each passing unmutated" + (f"; missed: {undetected}" if undetected else "")
                  + (f"; failing unmutated: {unsound}" if unsound else ""))


def test_criterion_3_strata_bijections_and_dimensions():
    problems = []
    # facet counts two ways, with the known spot values
    spots = {3: 2, 4: 5, 5: 9}
    for d in range(2, 6):
        count = len(enumerate_codim1(disc(d)))
        if count != disc_facet_count_closed_form(d):
            problems.append(f"facet count mismatch at {d} inputs")
        if d in spots and count != spots[d]:
            problems.append(f"facet spot value at {d}")
        if not strata_term_bijection(disc(d), "ainf").passed:
            problems.append(f"disc bijection at {d}")
    for r in range(0, 4):
        for s in range(0, 4 - r):
            if not strata_term_bijection(bidisc(r, s), "bimodule_hom").passed:
                problems.append(f"two-output bijection at ({r},{s})")
    for d in range(1, 5):
        if not strata_term_bijection(punctured_disc(d), "hochschild").passed:
            problems.append(f"punctured bijection at {d}")
    dims = [
        (disc(2), 0), (disc(5), 3), (bidisc(1, 0), 1), (bidisc(2, 2), 4),
        (punctured_disc(1), 0), (punctured_disc(4), 3),
    ]
    from ainfcat.strata import annulus

    dims += [(annulus(1), 1), (annulus(3), 3)]
    for sp, want in dims:
        if dimension(sp) != want:
            problems.append(f"dimension of {sp}")
    report(3, not problems, "bijections d<=5 (facets 2,5,9 two ways), r+s<=3, punctured d<=4, "
                            "dimension formulas" + (f"; problems: {problems}" if problems else ""))


def homology_rank_oracle(cx, k) -> int:
    return (cx.dim(k) - rational_rank(cx.matrix(k))) - rational_rank(cx.matrix(k - 1))


def torsion_oracle(d_in: IntMatrix) -> list[int]:
    """Elementary divisors > 1 of the incoming differential via minors gcd."""

    def minors_gcd(A, k):
        g = 0
        for rows in itertools.combinations(range(A.rows), k):
            for cols in itertools.combinations(range(A.cols), k):
                sub = [[A[i, j] for j in cols] for i in rows]
                g = math.gcd(g, _det(sub))
        return g

    def _det(m):
        n = len(m)
        if n == 0:
            return 1
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = 1
            for i, j in enumerate(perm):
                prod *= m[i][j]
            total += sign * prod
        return total

    out = []
    prev = 1
    for k in range(1, min(d_in.rows, d_in.cols) + 1):
        g = minors_gcd(d_in, k)
        if g == 0:
            break
        if g // prev > 1:
            out.append(g // prev)
        prev = g
    return out


def test_criterion_4_hochschild_oracle():
    cat = ground_ring()
    res = hochschild_homology(cat, 3)
    cx = truncated_cc(cat, 3)
    problems = []
    if res.groups.get(0) != FinAbGroup(1):
        problems.append("degree 0 group")
    if not res.stable.get(0, False):
        problems.append("degree 0 stabilization flag")
    for k, g in res.groups.items():
        if k != 0 and not g.is_trivial():
            problems.append(f"nontrivial group in degree {k}")
        free = homology_rank_oracle(cx, k)
        if g.free_rank != free:
            problems.append(f"free rank oracle mismatch at {k}")
        if list(g.torsion) != torsion_oracle(cx.matrix(k - 1)):
            problems.append(f"torsion oracle mismatch at {k}")
    report(4, not problems, "truncated cyclic homology of the ground ring: Z at degree 0, trivial "
                            "elsewhere, stable, matching the rank/minors oracle"
                            + (f"; problems: {problems}" if problems else ""))


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "ainfcat.cli", *args], capture_output=True, text=True)


def test_criterion_5_generation_round_trip(tmp_path):
    problems = []
    # B = W = ground ring: the explicit witness
    cat = ground_ring()
    e = cat.hom[("*", "*")][0]
    cert = generation_test(cat, ["*"], "*", {e: 1}, max_length=1)
    if not cert.generated or cert.h != {} or cert.tau != {TensorWord(e, (), e): 1}:
        problems.append(f"ground ring witness: {cert.tau}, {cert.h}")
    if not replay_certificate(cat, cert, {e: 1}).generated:
        problems.append("ground ring replay")

    # CLI round trip through a separate process
    catpath = tmp_path / "ground.json"
    catpath.write_text(json.dumps(category_to_json(cat)))
    certpath = tmp_path / "cert.json"
    emit = run_cli(["generate", str(catpath), "--object", "*", "--max-length", "1", "--emit", str(certpath), "--json"])
    if emit.returncode != 0 or json.loads(emit.stdout)["verdict"] != "generated":
        problems.append("CLI emit failed")
    replay = run_cli(["generate", str(catpath), "--object", "*", "--replay", str(certpath), "--json"])
    if replay.returncode != 0 or json.loads(replay.stdout)["verdict"] != "generated":
        problems.append("CLI replay failed")

    # the inconclusive path on the zero subcategory
    zcat = two_object_with_zero()
    ez = next(g for g in zcat.generators() if g.name == "e")
    for n in (0, 1, 2):
        out = generation_test(zcat, ["Z0"], "K", {ez: 1}, max_length=n)
        if out.verdict != "inconclusive":
            problems.append(f"zero subcategory at bound {n}: {out.verdict}")

    # the split-summand fixture is certified at length bound 1
    scat = split_summand_pair()
    eK = next(g for g in scat.generators() if g.name == "eK")
    scert = generation_test(scat, ["L"], "K", {eK: 1}, max_length=1)
    if not scert.generated or not replay_certificate(scat, scert, {eK: 1}).generated:
        problems.append("split summand at bound 1")

    report(5, not problems, "ground-ring certificate (tau = e(x)e, h = 0) replays in-process and "
                            "through the CLI; zero subcategory inconclusive; split summand "
                            "generated at bound 1" + (f"; problems: {problems}" if problems else ""))


def test_criterion_6_cardy_telescoping():
    problems = []
    configs = [
        ("ground_ring", 0), ("dual_numbers", 0), ("cone_algebra", 0),
        ("dual_numbers", 1), ("cone_algebra", 1),
        ("dual_numbers", 2), ("cone_algebra", 2),
    ]
    for fixture, n in configs:
        phi = shipped_morphism(fixture, n)
        cat = phi.source.cat
        K = phi.target.left.K
        cc = truncated_cc(cat, 3)
        tcx = tensor_over_category(YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), 3)
        data = telescoping_data(cat, mu_cc_map(phi, cc, tcx))
        hr = verify_homotopy_equation(data, homotopy_map(data, {}))
        if not hr.passed:
            problems.append(f"homotopy equation {fixture} n={n}")
        cr = verify_cardy_on_homology(data)
        if not cr.passed:
            problems.append(f"homology comparison {fixture} n={n}")
    # the global sign genuinely discriminates: at n = 2 the negated
    # closed-to-open map passes only the signed comparison
    phi = shipped_morphism("even_dual_numbers", 2)
    cat = phi.source.cat
    cc = truncated_cc(cat, 3)
    tcx = tensor_over_category(YonedaModule(cat, "*", RIGHT), YonedaModule(cat, "*", LEFT), 3)
    mu_cc = mu_cc_map(phi, cc, tcx)
    if not verify_cardy_on_homology(telescoping_data(cat, mu_cc, co_sign=-1)).passed:
        problems.append("signed comparison rejects the matching configuration")
    if verify_cardy_on_homology(telescoping_data(cat, mu_cc, co_sign=1)).passed:
        problems.append("sign path not exercised: unsigned-equal configuration passed the signed check")
    report(6, not problems, "telescoping configurations pass at N<=3 for n in {0,1,2} on two fixtures "
                            "with the global sign applied at n=1,2, and the sign discriminates on the "
                            "even fixture" + (f"; problems: {problems}" if problems else ""))


# -- criterion 7 ----------------------------------------------------------------


def snf_oracle_diagonal(A: IntMatrix) -> list[int]:
    def det(m):
        n = len(m)
        if n == 0:
            return 1
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = 1
            for i, j in enumerate(perm):
                prod *= m[i][j]
            total += sign * prod
        return total

    n = min(A.rows, A.cols)
    out = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(A.rows), k):
            for cols in itertools.combinations(range(A.cols), k):
                g = math.gcd(g, det([[A[i, j] for j in cols] for i in rows]))
        if g == 0:
            out.extend([0] * (n - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def check_one(A: IntMatrix) -> bool:
    snf = smith_normal_form(A)
    if snf.U @ A @ snf.V != snf.D:
        return False
    diag = snf.diagonal()
    if diag != snf_oracle_diagonal(A):
        return False
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def test_criterion_7_exact_linalg_oracle_equivalence():
    bad = 0
    # exhaustive 2x2 over [-2, 2]
    total = 0
    for entries in itertools.product(range(-2, 3), repeat=4):
        total += 1
        if not check_one(IntMatrix([entries[:2], entries[2:]])):
            bad += 1
    # randomized sample >= 10^4 up to 4x4 over [-3, 3]
    rng = random.Random(20260810)
    samples = 10_000
    for _ in range(samples):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        total += 1
        if not check_one(A):
            bad += 1
    # homology against the rational-rank + minors oracle on random complexes
    from helpers import kernel_basis

    from ainfcat.intlinalg import HomologyData

    checked_h = 0
    while checked_h < 300:
        n0, n1, n2 = (rng.randint(1, 3) for _ in range(3))
        d0 = IntMatrix([[rng.randint(-2, 2) for _ in range(n0)] for _ in range(n1)])
        K = kernel_basis(d0.transpose())
        rows = []
        for _ in range(n2):
            coeffs = [rng.randint(-2, 2) for _ in range(K.cols)]
            rows.append(tuple(sum(K[i, j] * coeffs[j] for j in range(K.cols)) for i in range(n1)))
        d1 = IntMatrix(rows, cols=n1)
        if not (d1 @ d0).is_zero():
            continue
        checked_h += 1
        hd = HomologyData(d1, d0)
        free = (n1 - rational_rank(d1)) - rational_rank(d0)
        torsion = [x for x in snf_oracle_diagonal(d0) if x >= 2]
        if hd.group.free_rank != free or list(hd.group.torsion) != torsion:
            bad += 1
    ok = bad == 0
    report(7, ok, f"{total} Smith decompositions (exhaustive 2x2 plus {samples} random up to 4x4) "
                  f"and {checked_h} homology computations agree with the brute-force oracles"
                  + ("" if ok else f"; {bad} disagreements"))
