"""GF(2) linear algebra on bit-packed rows, checked by brute force."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from commsim import gf2

rows_strategy = st.lists(st.integers(0, 255), min_size=0, max_size=8)


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _span(rows, n):
    seen = {0}
    for r in rows:
        seen |= {s ^ r for s in seen}
    return seen


class TestRankAndSpan:
    @given(rows_strategy)
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_span_size(self, rows):
        assert 1 << len(gf2.independent_indices(rows)) == len(_span(rows, 8))

    @given(rows_strategy, st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_in_span(self, rows, v):
        # independent_indices keeps an appended row exactly when it lies
        # outside the span of the rows before it
        kept = len(rows) in gf2.independent_indices(rows + [v])
        assert kept == (v not in _span(rows, 8))

    @given(rows_strategy)
    @settings(max_examples=100, deadline=None)
    def test_independent_indices(self, rows):
        keep = gf2.independent_indices(rows)
        sub = [rows[i] for i in keep]
        # the kept rows are independent and span as much as all rows do
        assert len(gf2.independent_indices(sub)) == len(keep)
        assert 1 << len(keep) == len(_span(rows, 8))
        # every dropped row lies in the span of the kept ones
        for i, r in enumerate(rows):
            if i not in keep:
                assert r in _span(sub, 8)


class TestNullspace:
    @given(rows_strategy, st.integers(2, 8))
    @settings(max_examples=150, deadline=None)
    def test_nullspace_exact(self, rows, n):
        rows = [r & ((1 << n) - 1) for r in rows]
        basis = gf2.nullspace(rows, n)
        # each basis vector annihilates every row
        for v in basis:
            assert all(_parity(r & v) == 0 for r in rows)
        # dimension is n - rank, and the basis is independent
        assert len(basis) == n - len(gf2.independent_indices(rows))
        assert len(gf2.independent_indices(basis)) == len(basis)

    def test_back_substitution_regression(self):
        # echelon rows whose one-pass reduction used to reintroduce bits
        piv = gf2.reduced_basis([0b0111, 0b0110, 0b1100])
        assert sorted(piv) == [0, 1, 2]
        for p, row in piv.items():
            assert row & (1 << p)
            for q in piv:
                if q != p:
                    assert not (row >> q) & 1


class TestReducedBasisAndCosetMin:
    @given(rows_strategy)
    @settings(max_examples=150, deadline=None)
    def test_reduced_basis_spans_same_space(self, rows):
        basis = gf2.reduced_basis(rows)
        assert _span(list(basis.values()), 8) == _span(rows, 8)
        for p, row in basis.items():
            assert gf2.lowest_bit(row) == p
            for q in basis:
                if q != p:
                    assert not (row >> q) & 1

    @given(rows_strategy, st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_coset_min_is_least(self, rows, y):
        basis = gf2.reduced_basis(rows)
        got = gf2.coset_min(y, basis)
        # qubit-1-most-significant order on 8 bits = ordinary order on the
        # bit-reversed value
        def key(v):
            return int(f"{v:08b}"[::-1], 2)

        coset = [y ^ s for s in _span(rows, 8)]
        assert key(got) == min(key(v) for v in coset)
        assert got in coset
