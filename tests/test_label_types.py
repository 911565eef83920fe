"""Guard: no basis, chain or term table mixes label types.

Generators, pairs p (x) q and tensor words are tuples, so a label of one
kind can equal a label of another (PairGen(p, q) == (p, q), the cyclic
word of length two).  These tests check that no basis, differential or
operation table ever holds two kinds side by side, where such an equality
could silently merge two labels.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from helpers import column, shipped_morphism

from ainfcat import cli
from ainfcat.bimodules import LEFT, RIGHT, DiagonalBimodule, TensorBimodule, YonedaModule
from ainfcat.complexes import BasedComplex
from ainfcat.fixtures import FIXTURES, SHIPPED_MORPHISMS


def kinds(labels) -> set:
    return {type(x) for x in labels}


def test_every_complex_has_one_label_type(tmp_path, monkeypatch):
    built: list[BasedComplex] = []
    init = BasedComplex.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(BasedComplex, "__init__", recording_init)
    monkeypatch.chdir(tmp_path)
    runs = [["fixture", name, "-o", f"{name}.json"] for name in sorted(FIXTURES)]
    runs += [["hh", f"{name}.json", "--max-length", "2"] for name in sorted(FIXTURES)]
    runs += [
        ["cardy", f"{name}.json", "--morphism", f"coproduct_n{n}", "--max-length", "2", "--solve"]
        for name, n in SHIPPED_MORPHISMS
    ]
    runs += [["generate", "split_summand_pair.json", "--object", "K", "--subcategory", "L", "--max-length", "2"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            assert cli.main(argv) in (0, 1), argv
    assert built
    for cx in built:
        labels = [label for k in cx.degrees() for label in cx.basis[k]]
        (kind,) = kinds(labels)
        for label in labels:
            assert kinds(column(cx, label)) <= {kind}, label


@pytest.mark.parametrize("name,n", SHIPPED_MORPHISMS)
def test_every_term_table_has_one_label_type(name, n):
    phi = shipped_morphism(name, n)
    cat = phi.source.cat
    tables = list(cat.mu.values()) + list(DiagonalBimodule(cat).ops.values()) + list(phi.components.values())
    for K in cat.objects:
        for side in (LEFT, RIGHT):
            tables += list(YonedaModule(cat, K, side).actions.values())
        P = TensorBimodule(YonedaModule(cat, K, LEFT), YonedaModule(cat, K, RIGHT))
        keys = P.op_keys()
        for slot in {s for _, s in keys}:
            tables.append({key: P.op(key, s) for key, s in keys if s == slot})
    for table in tables:
        assert len(kinds(x for chain in table.values() for x in chain)) <= 1
        for position in range(max(map(len, table), default=0)):
            assert len(kinds(key[position] for key in table if len(key) > position)) <= 1
