"""The enumerating verifiers: an independent oracle for the term-driven ones.

These visit every tuple the package's verifiers count as checked and
evaluate the whole signed block sum on each, the direct reading of the
structure relation, the bimodule equation and the morphism equation.
They are slow (35,154 tuples for split_summand_pair at depth 6) and live
here only to be compared with `verify_ainf`, `verify_bimodule` and
`verify_bimodule_hom`: same `checked`, same violations in the same
order, same residual items in the same order.
"""

from __future__ import annotations

from typing import Iterator

from helpers import collect_violations, composable_tuples, signed_blocks

from ainfcat.bimodules import Bimodule, BimoduleHom
from ainfcat.core import (
    EMPTY,
    AinfCategory,
    Gen,
    VerificationReport,
    chain_add,
    chain_normalize,
    parity_sign,
)


def ainf_residual(cat: AinfCategory, xs: tuple) -> dict:
    """Signed double sum of the structure relation on one input tuple."""
    out: dict = {}
    for i, j, g, c, below in signed_blocks(xs, lambda i, j: cat.mu_key(xs[i:j]), ()):
        chain_add(out, cat.mu_key(xs[:i] + (g,) + xs[j:]), parity_sign(below) * c)
    return chain_normalize(out, cat.ring)


def dense_verify_ainf(cat: AinfCategory, up_to: int) -> VerificationReport:
    return collect_violations(
        (xs, ainf_residual(cat, xs)) for d in range(1, up_to + 1) for xs in composable_tuples(cat, d)
    )


def mixed_tuples(cat: AinfCategory, P: Bimodule, r: int, s: int) -> Iterator[tuple]:
    """Composable boundary tuples with s right inputs, module, r left inputs."""
    gens = list(cat.generators())
    by_source: dict[str, list[Gen]] = {}
    for g in gens:
        by_source.setdefault(g.source, []).append(g)

    def chains(length: int, start: str | None) -> Iterator[tuple]:
        if length == 0:
            yield ()
            return
        pool = gens if start is None else by_source.get(start, [])
        for g in pool:
            for rest in chains(length - 1, g.target):
                yield (g,) + rest

    for right_part in chains(s, None):
        start = right_part[-1].target if right_part else None
        for pair in sorted(P.spaces):
            if start is not None and pair[0] != start:
                continue
            for m in P.basis(*pair):
                for left_part in chains(r, m.target):
                    yield right_part + (m,) + left_part


def all_mixed_tuples(P: Bimodule, max_inputs: int) -> Iterator[tuple[tuple, int]]:
    """(key, s) for every mixed tuple with r + s <= max_inputs."""
    for total in range(0, max_inputs + 1):
        for s in range(0, total + 1):
            for key in mixed_tuples(P.cat, P, total - s, s):
                yield key, s


def slot_after(s: int, i: int, j: int) -> int:
    """Index of the module slot once the block key[i:j] collapses to one entry."""
    if i <= s < j:
        return i
    return s - (j - i) + 1 if j <= s else s


def block_operations(P: Bimodule, key: tuple, s: int):
    """inner(i, j) for signed_blocks: P's operation on a block holding the
    module slot, the category's on any other block."""
    cat = P.cat

    def inner(i, j):
        return P.op(key[i:j], s - i) if i <= s < j else cat.mu_key(key[i:j])

    return inner


def bimodule_residual(P: Bimodule, key: tuple, s: int) -> dict:
    out: dict = {}
    for i, j, g, c, below in signed_blocks(key, block_operations(P, key, s), (s,)):
        chain_add(out, P.op(key[:i] + (g,) + key[j:], slot_after(s, i, j)), parity_sign(below) * c)
    return chain_normalize(out, P.cat.ring)


def dense_verify_bimodule(P: Bimodule, max_inputs: int = 4) -> VerificationReport:
    return collect_violations((key, bimodule_residual(P, key, s)) for key, s in all_mixed_tuples(P, max_inputs))


def hom_residual(phi: BimoduleHom, key: tuple, s: int) -> dict:
    """The four-sum morphism equation on one input tuple."""
    n = phi.n

    def phi_block(i, j):
        return phi.apply(key[i:j], s - i) if i <= s < j else EMPTY

    out: dict = {}
    # the morphism inside the block, the target's operation outside
    for i, j, g, c, below in signed_blocks(key, phi_block, (s,)):
        chain_add(out, phi.target.op(key[:i] + (g,) + key[j:], slot_after(s, i, j)), parity_sign(n * below) * c)
    # the source's operation or mu inside the block, the morphism outside
    for i, j, g, c, below in signed_blocks(key, block_operations(phi.source, key, s), (s,)):
        chain_add(out, phi.apply(key[:i] + (g,) + key[j:], slot_after(s, i, j)), parity_sign(below + n + 1) * c)
    return chain_normalize(out, phi.source.cat.ring)


def dense_verify_bimodule_hom(phi: BimoduleHom, max_inputs: int = 4) -> VerificationReport:
    return collect_violations(
        (key, hom_residual(phi, key, s)) for key, s in all_mixed_tuples(phi.source, max_inputs)
    )
