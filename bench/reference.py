"""Exact references that share no code with the estimators under test.

Paulis are plain ``(t, a, b)`` tuples meaning ``i^t X^a Z^b`` with qubit k at
bit k, the same packing the library uses.  Everything here is exact integer
algebra except the final trigonometric coefficients; the statevector
references reuse the package's dense oracle, which is the package's own
ground truth and runs outside the timed phase.
"""

from __future__ import annotations

import math

import numpy as np

from commsim.circuit import Circuit, PauliExpGate
from commsim.oracle import (
    Observable,
    apply_circuit,
    expectation,
    matrix_element,
    product_state,
    run_circuit,
)
from commsim.pauli import PauliOperator

Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_I4 = (1 + 0j, 1j, -1 + 0j, -1j)


def pmul(p, q):
    """``P Q`` in normal form: Z^b1 X^a2 = (-1)^(b1.a2) X^a2 Z^b1."""
    t1, a1, b1 = p
    t2, a2, b2 = q
    return ((t1 + t2 + 2 * ((b1 & a2).bit_count() & 1)) % 4, a1 ^ a2, b1 ^ b2)


def anticommutes(p, q) -> bool:
    return bool(((p[1] & q[2]) ^ (p[2] & q[1])).bit_count() & 1)


def commuting_z_expectation(paulis, thetas, x: int, qubit: int) -> float:
    """``<x| U^dag Z_q U |x>`` for ``U = prod_j e^{i theta_j P_j}``, exactly.

    The members commute, so those commuting with Z_q cancel and the rest
    leave ``Z_q prod_{j in A} e^{2 i theta_j P_j}``.  Expanding each factor
    as ``cos + i sin P`` gives 2^|A| Pauli terms, and a Pauli has a nonzero
    diagonal element on |x> only when its X part is empty.
    """
    for i, p in enumerate(paulis):
        for q in paulis[i + 1 :]:
            if anticommutes(p, q):
                raise ValueError("reference needs a commuting family")
    z = (0, 0, 1 << qubit)
    terms = [(1 + 0j, z)]
    for p, th in zip(paulis, thetas):
        if not anticommutes(p, z):
            continue
        c, s = math.cos(2 * th), 1j * math.sin(2 * th)
        terms = [(w * c, op) for w, op in terms] + [(w * s, pmul(op, p)) for w, op in terms]
    total = 0j
    for w, (t, a, b) in terms:
        if a == 0:
            total += w * _I4[(t + 2 * ((b & x).bit_count() & 1)) % 4]
    if abs(total.imag) > 1e-9:
        raise ArithmeticError(f"reference has imaginary part {total.imag}")
    return total.real


def statevector_z_expectation(gates, n: int, label: str, qubit: int) -> float:
    """``<x| U^dag Z_q U |x>`` for a list of PauliExpGate, by the dense oracle."""
    s = run_circuit(Circuit(n, 2, list(gates)), label)
    return expectation(s, Observable((qubit,), Z2))


def chain_expectation(n: int, thetas, factors, qubit: int, obs: np.ndarray) -> float:
    """``<a| C^dag O_j C |a>`` for a ZZ chain, from the gates touching qubit j.

    Gates away from j commute with O_j and cancel, so the dense oracle runs
    on at most three qubits: j and its chain neighbours, relabelled 0..2.
    """
    block = [q for q in (qubit - 1, qubit, qubit + 1) if 0 <= q < n]
    k = len(block)
    gates = []
    for i in range(k - 1):  # chain gate (block[i], block[i + 1])
        th = thetas[block[i]]
        gates.append(PauliExpGate(th, PauliOperator(k, 0, 0, 0b11 << i)))
    s = apply_circuit(product_state([factors[q] for q in block], 2), Circuit(k, 2, gates))
    return expectation(s, Observable((block.index(qubit),), obs))


def overlap_squared(u, clifford=None) -> float:
    """``|<0| C U |0>|^2`` by one statevector run (C optional)."""
    gates = list(u.gates)
    if clifford is not None:
        gates += list(clifford.to_circuit().gates)
    zero = "0" * u.n
    return abs(matrix_element(Circuit(u.n, 2, gates), zero, zero)) ** 2
