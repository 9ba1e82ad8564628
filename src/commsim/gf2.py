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


def _echelon(rows: list[int]) -> tuple[dict[int, int], list[int]]:
    """XOR basis keyed by each row's lowest bit, and the indices of the rows
    that extended it, scanning in input order."""
    basis: dict[int, int] = {}
    keep = []
    for i, row in enumerate(rows):
        red = reduce_row(row, basis)
        if red:
            basis[lowest_bit(red)] = red
            keep.append(i)
    return basis, keep


def independent_indices(rows: list[int]) -> list[int]:
    """Indices of a maximal independent subset, scanning in input order."""
    return _echelon(rows)[1]


def nullspace(rows: list[int], n: int) -> list[int]:
    """Basis of ``{y : parity(rows[i] & y) == 0}`` in an n-bit space."""
    piv = reduced_basis(rows)
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
    """Fully reduced XOR basis keyed by leading (lowest) bit.

    Clearing whole columns in ascending pivot order is what makes the back
    substitution correct: a cleared column can never be reintroduced by a
    later step.
    """
    basis = _echelon(vectors)[0]
    for p in sorted(basis):
        for q in basis:
            if q != p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    return basis


def coset_min(y: int, basis: dict[int, int]) -> int:
    """Minimum of ``y + span(basis)`` in qubit-ascending lexicographic order.

    Bit 0 (qubit 1) is the most significant position of the ordering.
    """
    for p in sorted(basis):
        if (y >> p) & 1:
            y ^= basis[p]
    return y
