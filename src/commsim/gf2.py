"""Small GF(2) linear-algebra helpers on bit-packed integer rows."""

from __future__ import annotations


def lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def reduce_row(row: int, basis: dict[int, int]) -> int:
    while row:
        p = lowest_bit(row)
        if p not in basis:
            return row
        row ^= basis[p]
    return 0


def independent_indices(rows: list[int]) -> list[int]:
    """Indices of a maximal independent subset, scanning in input order."""
    basis: dict[int, int] = {}
    keep = []
    for i, row in enumerate(rows):
        red = reduce_row(row, basis)
        if red:
            basis[lowest_bit(red)] = red
            keep.append(i)
    return keep


def in_span(row: int, rows: list[int]) -> bool:
    basis: dict[int, int] = {}
    for r in rows:
        r = reduce_row(r, basis)
        if r:
            basis[lowest_bit(r)] = r
    return reduce_row(row, basis) == 0


def solve(rows: list[int], rhs: list[int]) -> int | None:
    """One solution ``y`` of ``parity(rows[i] & y) == rhs[i]``; None if none."""
    piv: dict[int, tuple[int, int]] = {}
    for row, v in zip(rows, rhs):
        while row:
            p = lowest_bit(row)
            if p not in piv:
                piv[p] = (row, v)
                break
            row ^= piv[p][0]
            v ^= piv[p][1]
        else:
            if v:
                return None
    # full reduction so that each pivot row touches no other pivot column
    changed = True
    while changed:
        changed = False
        for p in list(piv):
            row, v = piv[p]
            for q in list(piv):
                if q != p and (row >> q) & 1:
                    row ^= piv[q][0]
                    v ^= piv[q][1]
                    changed = True
            piv[p] = (row, v)
    y = 0
    for p, (_, v) in piv.items():
        if v:
            y |= 1 << p
    return y


def nullspace(rows: list[int], n: int) -> list[int]:
    """Basis of ``{y : parity(rows[i] & y) == 0}`` in an n-bit space."""
    piv: dict[int, int] = {}
    for row in rows:
        row = reduce_row(row, piv)
        if row:
            piv[lowest_bit(row)] = row
    _back_substitute(piv)
    basis = []
    for free in range(n):
        if free in piv:
            continue
        v = 1 << free
        for p, row in piv.items():
            if (row >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def reduced_basis(vectors: list[int]) -> dict[int, int]:
    """Fully reduced XOR basis keyed by leading (lowest) bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        v = reduce_row(v, basis)
        if v:
            basis[lowest_bit(v)] = v
    _back_substitute(basis)
    return basis


def _back_substitute(piv: dict[int, int]):
    """Reduce echelon rows to RREF in place.

    Clearing whole columns in ascending pivot order is what makes this
    correct: a cleared column can never be reintroduced by a later step.
    """
    for p in sorted(piv):
        for q in piv:
            if q != p and (piv[q] >> p) & 1:
                piv[q] ^= piv[p]


def coset_min(y: int, basis: dict[int, int]) -> int:
    """Minimum of ``y + span(basis)`` in qubit-ascending lexicographic order.

    Bit 0 (qubit 1) is the most significant position of the ordering.
    """
    for p in sorted(basis):
        if (y >> p) & 1:
            y ^= basis[p]
    return y
