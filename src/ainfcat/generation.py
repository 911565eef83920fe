"""Split-generation certificates via the universal twisted complex.

The generation test asks whether the unit class of an object K factors,
at a given length bound, through the bar model of Y^r_K (x)_B Y^l_K: it
solves one integer linear system for a degree-0 cycle tau and a homotopy
h with  mu(tau) - e_K = mu^1(h).

The universal twisted complex over the sequences of B-objects of bounded
length, realized against a probe object X, is the same bar complex
Y^r_K (x)_B Y^l_X (bimodules.tensor_over_category), its words built on
one table of middle paths over B that every probe object shares.  Its
generalized Maurer-Cartan property is that complex's exact d^2 = 0, and its
evaluation morphism is the full-collapse composition into hom(X, K),
which must be a degree-0 chain map; both are checked for every probe
object, and the unit factors through the realization against K.  A
certificate replays by re-running all of these checks from the stored
data alone.

The abstract idempotent-splitting step connecting the factored unit to
an honest summand in the module category is trusted homological algebra
and is not re-verified here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .bimodules import (
    LEFT,
    RIGHT,
    YonedaModule,
    hom_complex,
    middle_paths,
    mu_composition_map,
    tensor_over_category,
)
from .complexes import BasedComplex, GradedMap, combination, verify_chain_map
from .core import RING_Z, AinfCategory, chain_add, chain_normalize, parity_sign, relation_depth, verify_ainf
from .intlinalg import IntMatrix, NotAComplex, RationalOnly, Unsolvable, solve_integer


class NotACycle(Exception):
    pass


class MaurerCartanViolation(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ClosednessViolation(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# cohomological units


@dataclass
class UnitReport:
    passed: bool
    failures: list

    def __str__(self):
        return "pass" if self.passed else f"FAIL: {self.failures[:5]}"


def verify_cohomological_unit(cat: AinfCategory, K: str, e: Mapping) -> UnitReport:
    """Check that [e] acts as the identity on the cohomology of every
    hom(K, L) and hom(L, K).

    e must be a degree-0 cycle in hom(K, K).  Left composition uses the
    structure map directly; right composition carries the sign
    (-1)^deg(x), matching the convention in which strict units satisfy
    mu^2(e, x) = x and mu^2(x, e) = (-1)^deg(x) x.
    """
    e = chain_normalize(dict(e), cat.ring)
    if not e:
        return UnitReport(False, [("zero candidate", K)])
    if any(g.source != K or g.target != K or g.degree != 0 for g in e):
        raise NotACycle(f"candidate unit is not a degree-0 element of hom({K},{K})")
    if cat.mu_boundary([e]):
        raise NotACycle("candidate unit is not closed")

    failures = []
    for L in cat.objects:
        for side, pair in (("left", (K, L)), ("right", (L, K))):
            cx = hom_complex(cat, *pair)
            if not cx.basis:
                continue
            try:
                cx.validate()  # homology, and with it the unit, is read only on a complex
            except NotAComplex as err:
                failures.append((L, side, str(err)))
                continue
            xs = [x for k in cx.degrees() for x in cx.basis[k]]
            if side == "left":
                # x in hom(K, L): e enters first
                terms = ((x, g, c) for x in xs for g, c in cat.mu_boundary([e, {x: 1}]).items())
            else:
                terms = (
                    (x, g, parity_sign(x.degree) * c) for x in xs for g, c in cat.mu_boundary([{x: 1}, e]).items()
                )
            f = GradedMap.from_terms(cx, cx, 0, terms, name=f"unit-{side}")
            if not verify_chain_map(f).passed:
                failures.append((L, side, "action is not a chain map"))
                continue
            # f acts as the identity on homology where f - id induces zero
            for k in cx.degrees():
                hd = cx.homology_data(k)
                f_minus_id = combination([(1, f.matrix(k)), (-1, IntMatrix.identity(cx.dim(k)))], cat.ring)
                if not hd.induces_zero(f_minus_id, hd):
                    failures.append((L, side, k))
    return UnitReport(passed=not failures, failures=failures)


# ---------------------------------------------------------------------------
# the universal twisted complex


def build_universal_complex(cat: AinfCategory, B_objects: Sequence[str], K: str, max_length: int) -> BasedComplex:
    """The universal twisted complex over sequences of B-objects, checked
    through its realization Y^r_K (x)_B Y^l_X against every probe object X;
    returns the realization against K.

    Raises MaurerCartanViolation if a realization fails d^2 = 0, and
    ClosednessViolation if its evaluation into hom(X, K) is not a chain
    map; neither can happen when the structure relations hold in every
    arity the words reach.
    """
    yr = YonedaModule(cat, K, RIGHT, objects=B_objects)
    # the middle letters run between B-objects whatever the probe object
    paths = middle_paths(cat, B_objects, max_length)
    for X in cat.objects:
        try:
            cx = tensor_over_category(yr, YonedaModule(cat, X, LEFT, objects=B_objects), max_length, paths)
        except NotAComplex as err:
            raise MaurerCartanViolation(f"realization against {X} fails: {err}", witness=X) from err
        report = verify_chain_map(mu_composition_map(yr, X, cx))
        if not report.passed:
            raise ClosednessViolation(
                f"evaluation fails to be a chain map against {X}",
                witness=report.violations[0].inputs[0],
            )
        if X == K:
            realized = cx
    return realized


# ---------------------------------------------------------------------------
# the generation certificate


@dataclass
class GenerationCertificate:
    verdict: str  # "generated" | "inconclusive" | "refuted-at-bound"
    K: str
    B_objects: list[str]
    max_length: int
    tau: dict = field(default_factory=dict)  # chain of TensorWords
    h: dict = field(default_factory=dict)  # chain in hom(K, K), degree -1
    rational_only: bool = False
    detail: str = ""

    @property
    def generated(self) -> bool:
        return self.verdict == "generated"


def generation_test(
    cat: AinfCategory,
    B_objects: Sequence[str],
    K: str,
    e: Mapping,
    max_length: int,
) -> GenerationCertificate:
    """Search for a unit factorization through length-bounded words.

    Solves the combined integer system (tau is a degree-0 cycle) and
    (mu(tau) - mu^1(h) = e); emits a replayable certificate on success,
    an inconclusive verdict otherwise (with the rational-only case
    reported distinctly).
    """
    if cat.ring != RING_Z:
        raise ValueError("generation certificates are integral; use ring Z")
    if not verify_ainf(cat, relation_depth(cat)).passed:
        raise ValueError("category fails the structure relations")
    unit_report = verify_cohomological_unit(cat, K, e)
    if not unit_report.passed:
        raise ValueError(f"candidate unit fails cohomological unitality: {unit_report}")

    e = chain_normalize(dict(e), cat.ring)
    cx = build_universal_complex(cat, B_objects, K, max_length)
    mu = mu_composition_map(YonedaModule(cat, K, RIGHT), K, cx)
    hom_cx = mu.target

    tau_basis = cx.basis.get(0, [])
    h_basis = hom_cx.basis.get(-1, [])
    cycle_rows = cx.basis.get(1, [])
    unit_rows = hom_cx.basis.get(0, [])

    # cycle condition rows, then the unit condition mu(tau) - mu^1(h) = e
    # (hom_cx's differential is -mu^1); the h columns follow the tau columns
    rows = list(cx.matrix(0).entries)
    for mu_row, d_row in zip(mu.matrix(0).entries, hom_cx.matrix(-1).entries):
        rows.append({**mu_row, **{len(tau_basis) + j: c for j, c in d_row.items()}})
    rhs = [0] * len(cycle_rows) + [e.get(y, 0) for y in unit_rows]

    A = IntMatrix.from_rows(rows, len(tau_basis) + len(h_basis))
    if any(rhs) and not rows:
        return GenerationCertificate("inconclusive", K, list(B_objects), max_length, detail="empty search space")
    sol = solve_integer(A, rhs)
    if isinstance(sol, Unsolvable):
        return GenerationCertificate("inconclusive", K, list(B_objects), max_length, detail="no solution at this bound")
    if isinstance(sol, RationalOnly):
        return GenerationCertificate(
            "inconclusive", K, list(B_objects), max_length, rational_only=True,
            detail="solvable over Q but not over Z at this bound",
        )
    tau = {w: c for w, c in zip(tau_basis, sol[: len(tau_basis)]) if c}
    h = {g: c for g, c in zip(h_basis, sol[len(tau_basis) :]) if c}
    cert = GenerationCertificate("generated", K, list(B_objects), max_length, tau=tau, h=h)
    return _verify_witness(cat, cert, e, cx)


def replay_certificate(cat: AinfCategory, cert: GenerationCertificate, e: Mapping) -> GenerationCertificate:
    """Re-verify a generated certificate through independent checkers.

    The category must be integral and pass the structure relations on
    every tuple (as in generation_test), since a witness proves nothing in
    a category that fails them.  Returns the certificate on success; on any
    failure returns a copy with verdict "refuted-at-bound" describing what
    broke.
    """
    if cat.ring != RING_Z:
        raise ValueError("generation certificates are integral; use ring Z")
    if not cert.generated:
        return cert
    if not verify_ainf(cat, relation_depth(cat)).passed:
        return _refuted(cert, "category fails the structure relations")
    try:
        cx = build_universal_complex(cat, cert.B_objects, cert.K, cert.max_length)
    except (MaurerCartanViolation, ClosednessViolation) as err:
        return _refuted(cert, str(err))
    return _verify_witness(cat, cert, e, cx)


def _refuted(cert: GenerationCertificate, why: str) -> GenerationCertificate:
    return GenerationCertificate(
        "refuted-at-bound", cert.K, cert.B_objects, cert.max_length,
        tau=cert.tau, h=cert.h, detail=why,
    )


def _verify_witness(cat: AinfCategory, cert: GenerationCertificate, e: Mapping, cx: BasedComplex) -> GenerationCertificate:
    """replay_certificate's checks of tau and h against cx, the checked
    universal complex realized against cert.K: tau is a degree-0 cycle of
    cx, h lies in hom(K, K) in degree -1, and mu(tau) - mu^1(h) = e."""
    e = chain_normalize(dict(e), cat.ring)
    # tau lies in degree 0 and is a cycle
    try:
        vec = cx.vector(cert.tau, 0)
    except KeyError:
        return _refuted(cert, "tau is not supported on the truncation")
    if any(cx.matrix(0).apply(vec)):
        return _refuted(cert, "tau is not a cycle")
    if any(g.source != cert.K or g.target != cert.K or g.degree != -1 for g in cert.h):
        return _refuted(cert, "h is not supported on hom(K, K) in degree -1")
    # mu(tau) - mu^1(h) = e exactly
    right = YonedaModule(cat, cert.K, RIGHT)
    out: dict = {}
    for w, c in cert.tau.items():
        chain_add(out, right.act((w.q,) + w.mid + (w.p,)), c)
    for g, c in cert.h.items():
        chain_add(out, cat.mu_key((g,)), -c)
    chain_add(out, e, -1)
    if chain_normalize(out, cat.ring):
        return _refuted(cert, "mu(tau) - mu^1(h) != e")
    return cert
