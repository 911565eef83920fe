"""Split-generation certificates via the universal twisted complex.

The generation test asks whether the unit class of an object K factors,
at a given length bound, through the bar model of Y^r_K (x)_B Y^l_K: it
solves one integer linear system for a degree-0 cycle tau and a homotopy
h with  mu(tau) - e_K = mu^1(h).  On success the constructive witness is
packaged together with the universal twisted complex built from the
sequences of B-objects of bounded length, whose generalized
Maurer-Cartan property and evaluation morphism are verified through
their realizations: for every probe object X, the differential the
stored data induces on  (words) (x) hom(X, -)  must square to zero
exactly, and the full-collapse evaluation into hom(X, K) must be a
degree-0 chain map.  A certificate replays by re-running all of these
checks from the stored data alone.

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
    TensorWord,
    hom_complex,
    mu_composition_word,
    tensor_over_category,
    yoneda_module,
)
from .complexes import BasedComplex, GradedMap, verify_chain_map
from .core import AinfCategory, Gen, chain_add, chain_normalize, parity_sign, signed_blocks, verify_ainf
from .intlinalg import IntMatrix, RationalOnly, Unsolvable, solve_integer


# structure relations checked before a certificate is searched for or replayed
VERIFY_DEPTH = 3


class NotACycle(Exception):
    pass


class MaurerCartanViolation(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ClosednessViolation(Exception):
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

            if side == "left":
                # x in hom(K, L): e enters first
                def action(x, e=e):
                    return cat.mu_boundary([e, {x: 1}])
            else:
                def action(x, e=e):
                    sign = parity_sign(x.degree)
                    out = cat.mu_boundary([{x: 1}, e])
                    return {g: sign * c for g, c in out.items()}

            f = GradedMap(source=cx, target=cx, shift=0, apply=action, name=f"unit-{side}")
            if not verify_chain_map(f).passed:
                failures.append((L, side, "action is not a chain map"))
                continue
            for k in cx.degrees():
                hd = cx.homology_data(k)
                for gen_vec in hd.class_generators():
                    chain = {g: c for g, c in zip(cx.basis[k], gen_vec) if c}
                    image = f.apply_to(chain)
                    if hd.coords(cx.vector(image, k)) != hd.coords(gen_vec):
                        failures.append((L, side, k))
                        break
    return UnitReport(passed=not failures, failures=failures)


# ---------------------------------------------------------------------------
# the universal twisted complex


@dataclass(frozen=True, order=True)
class Summand:
    """One summand: letters (a_1..a_d) between subcategory objects and the
    final hom(L_d, K) factor; the underlying object is the source of the
    first letter and each shifted factor contributes deg - 1."""

    mid: tuple[Gen, ...]
    p: Gen

    @property
    def base_object(self) -> str:
        return self.mid[0].source if self.mid else self.p.source

    @property
    def length(self) -> int:
        return len(self.mid)

    @property
    def shift(self) -> int:
        return self.length + 1

    def __repr__(self):
        letters = ",".join(g.name for g in self.mid)
        return f"U<{letters}|{self.p.name}>"


@dataclass
class TwistedComplex:
    """Universal complex data: summands plus a strictly length-lowering
    differential.

    `pops[sigma]` is the hom-space chain popped off the front of sigma
    (the letter itself); `scalars[(sigma, tau)]` is a pair (coefficient,
    qflag) meaning the matrix entry coefficient * (-1)^(qflag * deg q) on
    the realization against a test object.
    """

    cat: AinfCategory
    K: str
    objects: list[str]
    max_length: int
    summands: list[Summand]
    pops: dict[Summand, dict] = field(default_factory=dict)
    scalars: dict[tuple[Summand, Summand], tuple[int, int]] = field(default_factory=dict)

    def realization(self, X: str) -> BasedComplex:
        """The induced complex (words) (x) hom(X, -) built from stored data."""
        cat = self.cat
        basis: dict[int, list] = {}
        index = {}
        for sigma in self.summands:
            for q in cat.hom.get((X, sigma.base_object), []):
                w = TensorWord(q, sigma.mid, sigma.p)
                basis.setdefault(w.degree, []).append(w)
                index[w] = sigma
        for k in basis:
            basis[k].sort()

        by_src: dict[Summand, list] = {}
        for (src, tgt), entry in self.scalars.items():
            by_src.setdefault(src, []).append((tgt, entry))

        def diff(w: TensorWord) -> dict:
            sigma = index[w]
            out: dict = {}
            # the Yoneda complex's own differential (left module convention)
            for g, c in cat.mu_key((w.q,)).items():
                chain_add(out, {TensorWord(g, w.mid, w.p): -c})
            # scalar entries, with their deg(q)-parity flags
            for tgt, (coef, qflag) in by_src.get(sigma, []):
                chain_add(out, {TensorWord(w.q, tgt.mid, tgt.p): parity_sign(qflag * w.q.degree) * coef})
            # pop paths: swallow leading letters into the module action
            path: list = []
            cur = sigma
            while cur.mid:
                popped = self.pops.get(cur)
                if popped is None:
                    break
                (letter, pc), = popped.items()
                path.append((letter, pc))
                cur = Summand(cur.mid[1:], cur.p)
                key = (w.q,) + tuple(l for l, _ in path)
                coeff = 1
                for _, c in path:
                    coeff *= c
                # left-module convention: the action is minus the raw map
                for g, c in cat.mu_key(key).items():
                    chain_add(out, {TensorWord(g, cur.mid, cur.p): -coeff * c})
            return chain_normalize(out, cat.ring)

        return BasedComplex(basis, diff, ring=cat.ring)

    def verify_maurer_cartan(self) -> None:
        for X in self.cat.objects:
            cx = self.realization(X)
            try:
                cx.validate()
            except ValueError as err:
                raise MaurerCartanViolation(f"realization against {X} fails: {err}", witness=X)

    def verify_evaluation(self) -> None:
        cat = self.cat
        for X in cat.objects:
            f = GradedMap(
                source=self.realization(X),
                target=hom_complex(cat, X, self.K),
                shift=0,
                apply=lambda w: mu_composition_word(cat, w),
                name="evaluation",
            )
            report = verify_chain_map(f)
            if not report.passed:
                raise ClosednessViolation(
                    f"evaluation fails to be a chain map against {X}",
                    witness=report.violations[0].inputs[0],
                )


def build_universal_complex(cat: AinfCategory, B_objects: Sequence[str], K: str, max_length: int) -> TwistedComplex:
    """The universal twisted complex over sequences of B-objects.

    Raises MaurerCartanViolation if the stored differential data fails to
    square to zero on some realization (a sign error; cannot happen for a
    category passing the structure verifier).
    """
    keep = set(B_objects)
    letters = [g for g in cat.generators() if g.source in keep and g.target in keep]
    by_source: dict[str, list[Gen]] = {}
    for g in letters:
        by_source.setdefault(g.source, []).append(g)

    summands: list[Summand] = []
    stack: list[tuple[Gen, ...]] = [()]
    seqs: list[tuple[Gen, ...]] = []
    while stack:
        mid = stack.pop()
        seqs.append(mid)
        if len(mid) < max_length:
            tail_obj = mid[-1].target if mid else None
            pool = letters if tail_obj is None else by_source.get(tail_obj, [])
            for g in pool:
                stack.append(mid + (g,))
    for mid in seqs:
        tail = mid[-1].target if mid else None
        for L in sorted(keep) if tail is None else [tail]:
            for p in cat.hom.get((L, K), []):
                summands.append(Summand(mid, p))
    summands.sort()

    tc = TwistedComplex(cat=cat, K=K, objects=sorted(keep), max_length=max_length, summands=summands)
    yr = yoneda_module(cat, K, RIGHT)
    for sigma in summands:
        if sigma.mid:
            tc.pops[sigma] = {sigma.mid[0]: 1}
        # scalar entries: the suffix and interior blocks of the bar-type
        # differential on (mid, p), the suffix through the right Yoneda
        # action; deg q enters the realization via qflag
        seq = sigma.mid + (sigma.p,)

        def inner(i, j):
            return yr.act(seq[i:]) if j == len(seq) else cat.mu_key(seq[i:j])

        for i, j, g, c, below in signed_blocks(seq, inner, (len(seq) - 1,)):
            new = seq[:i] + (g,) + seq[j:]
            tau = Summand(new[:-1], new[-1])
            prev = tc.scalars.get((sigma, tau), (0, 1))[0]
            tc.scalars[(sigma, tau)] = (prev + parity_sign(below) * c, 1)
    tc.scalars = {k: v for k, v in tc.scalars.items() if v[0]}
    tc.verify_maurer_cartan()
    return tc


def evaluation_morphism(tc: TwistedComplex) -> None:
    """Verify that the full-collapse evaluation (mu_composition_word) to
    the Yoneda module of K is a closed degree-0 morphism."""
    tc.verify_evaluation()


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


def _restricted_tensor_complex(cat: AinfCategory, B_objects, K, max_length) -> BasedComplex:
    yr = yoneda_module(cat, K, RIGHT, objects=B_objects)
    yl = yoneda_module(cat, K, LEFT, objects=B_objects)
    return tensor_over_category(yr, yl, max_length)


def generation_test(
    cat: AinfCategory,
    B_objects: Sequence[str],
    K: str,
    e: Mapping,
    max_length: int,
    verify_depth: int = VERIFY_DEPTH,
) -> GenerationCertificate:
    """Search for a unit factorization through length-bounded words.

    Solves the combined integer system (tau is a degree-0 cycle) and
    (mu(tau) - mu^1(h) = e); emits a replayable certificate on success,
    an inconclusive verdict otherwise (with the rational-only case
    reported distinctly).
    """
    if cat.ring != "Z":
        raise ValueError("generation certificates are integral; use ring Z")
    if not verify_ainf(cat, verify_depth).passed:
        raise ValueError("category fails the structure relations")
    unit_report = verify_cohomological_unit(cat, K, e)
    if not unit_report.passed:
        raise ValueError(f"candidate unit fails cohomological unitality: {unit_report}")

    e = chain_normalize(dict(e), cat.ring)
    cx = _restricted_tensor_complex(cat, B_objects, K, max_length)
    hom_cx = hom_complex(cat, K, K)

    tau_basis = cx.basis.get(0, [])
    h_basis = hom_cx.basis.get(-1, [])
    cycle_rows = cx.basis.get(1, [])
    unit_rows = hom_cx.basis.get(0, [])

    rows = []
    # cycle condition rows
    d0 = cx.matrix(0)
    for i in range(len(cycle_rows)):
        rows.append([d0[i, j] for j in range(len(tau_basis))] + [0] * len(h_basis))
    # unit condition rows: mu(tau) - mu^1(h) = e
    mu_cols = [cat_mu_column(cat, w, unit_rows) for w in tau_basis]
    h_cols = []
    for g in h_basis:
        img = cat.mu_key((g,))
        h_cols.append([-img.get(y, 0) for y in unit_rows])
    for i in range(len(unit_rows)):
        rows.append([col[i] for col in mu_cols] + [col[i] for col in h_cols])
    rhs = [0] * len(cycle_rows) + [e.get(y, 0) for y in unit_rows]

    A = IntMatrix(rows, cols=len(tau_basis) + len(h_basis)) if rows else IntMatrix.zeros(0, len(tau_basis) + len(h_basis))
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
    _verify_witness(cat, cert, e)  # build U, verify everything, raise-free
    return cert


def cat_mu_column(cat: AinfCategory, w: TensorWord, unit_rows) -> list[int]:
    img = mu_composition_word(cat, w)
    return [img.get(y, 0) for y in unit_rows]


def replay_certificate(cat: AinfCategory, cert: GenerationCertificate, e: Mapping) -> GenerationCertificate:
    """Re-verify a generated certificate through independent checkers.

    The category must pass the structure relations up to VERIFY_DEPTH
    (generation_test's default depth), since a witness proves nothing in a
    category that fails them.  Returns the certificate on success; on any
    failure returns a copy with verdict "refuted-at-bound" describing what
    broke.
    """
    if not cert.generated:
        return cert
    if not verify_ainf(cat, VERIFY_DEPTH).passed:
        return _refuted(cert, "category fails the structure relations")
    return _verify_witness(cat, cert, e)


def _refuted(cert: GenerationCertificate, why: str) -> GenerationCertificate:
    return GenerationCertificate(
        "refuted-at-bound", cert.K, cert.B_objects, cert.max_length,
        tau=cert.tau, h=cert.h, detail=why,
    )


def _verify_witness(cat: AinfCategory, cert: GenerationCertificate, e: Mapping) -> GenerationCertificate:
    """replay_certificate's checks of tau, h and the universal complex, in a
    category already known to pass the structure relations."""
    e = chain_normalize(dict(e), cat.ring)
    cx = _restricted_tensor_complex(cat, cert.B_objects, cert.K, cert.max_length)
    # tau lies in degree 0 and is a cycle
    try:
        vec = cx.vector(cert.tau, 0)
    except KeyError:
        return _refuted(cert, "tau is not supported on the truncation")
    if any(cx.matrix(0).apply(vec)):
        return _refuted(cert, "tau is not a cycle")
    # mu(tau) - mu^1(h) = e exactly
    out: dict = {}
    for w, c in cert.tau.items():
        chain_add(out, mu_composition_word(cat, w), c)
    for g, c in cert.h.items():
        chain_add(out, cat.mu_key((g,)), -c)
    chain_add(out, e, -1)
    if chain_normalize(out, cat.ring):
        return _refuted(cert, "mu(tau) - mu^1(h) != e")
    # the universal complex and its evaluation morphism verify
    tc = build_universal_complex(cat, cert.B_objects, cert.K, cert.max_length)
    evaluation_morphism(tc)
    return cert
