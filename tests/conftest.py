"""Shared fixtures and instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from commsim.circuit import Circuit, DenseGate, PauliExpGate
from commsim.pauli import PauliOperator, commutes
from commsim.stabilizer import conjugate_pauli, random_clifford_circuit

Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def bits_of(y: int, n: int) -> list[int]:
    """Basis label digits (qubit 1 first) of a bit-packed integer."""
    return [(y >> k) & 1 for k in range(n)]


def packed_label(y: int, n: int) -> str:
    """Basis label digit string (qubit 1 first) of a bit-packed integer."""
    return "".join(map(str, bits_of(y, n)))


def oracle_index(y: int, n: int) -> int:
    """Flat statevector index (qubit 1 most significant) of packed ``y``."""
    idx = 0
    for k in range(n):
        idx = 2 * idx + ((y >> k) & 1)
    return idx


def state_from_packed_amplitudes(amp, n: int) -> np.ndarray:
    """Reindex ``amp[y]`` (bit-packed y) into the statevector layout."""
    out = np.zeros(1 << n, dtype=complex)
    for y in range(1 << n):
        out[oracle_index(y, n)] = amp(y)
    return out


def pauli_statevector_matrix(p: PauliOperator) -> np.ndarray:
    """Dense matrix of a Pauli in the statevector index convention."""
    n = p.n
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    for y in range(1 << n):
        m[oracle_index(y ^ p.a, n), oracle_index(y, n)] = 1j ** p.phase_exponent_on_basis(y)
    return m


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def random_commuting_paulis(
    n: int, m: int, rng: np.random.Generator, z_weight_cap: int | None = None
) -> list[PauliOperator]:
    """m pairwise-commuting Hermitian Paulis: conjugated signed Z-types."""
    c = random_clifford_circuit(n, 3 * n + 2, rng)
    out = []
    for _ in range(m):
        while True:
            b = int(rng.integers(1, 1 << n))
            if z_weight_cap is None or b.bit_count() <= z_weight_cap:
                break
        t = 2 * int(rng.integers(2))
        out.append(conjugate_pauli(c, PauliOperator(n, t, 0, b)))
    return out


def shared_basis_diagonal_circuit(
    n: int, d: int, n_gates: int, rng: np.random.Generator
) -> Circuit:
    """Commuting 2-local gates: a shared local basis change around diagonals."""
    us = [random_unitary(d, rng) for _ in range(n)]
    gates = []
    for _ in range(n_gates):
        i, j = sorted(int(q) for q in rng.choice(n, 2, replace=False))
        diag = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d * d))
        u2 = np.kron(us[i], us[j])
        gates.append(DenseGate((i, j), u2 @ np.diag(diag) @ u2.conj().T))
    return Circuit(n, d, gates)


def commuting_pauli_exp_circuit(n: int, n_gates: int, rng: np.random.Generator) -> Circuit:
    """Commuting 2-local Pauli exponentials, grown greedily."""
    ps: list[PauliOperator] = []
    gates = []
    tries = 0
    while len(gates) < n_gates and tries < 60 * n_gates:
        tries += 1
        i, j = sorted(int(q) for q in rng.choice(n, 2, replace=False))
        a, b = int(rng.integers(4)), int(rng.integers(4))
        if a == 0 and b == 0:
            continue
        av = ((a & 1) << i) | ((a >> 1) << j)
        bv = ((b & 1) << i) | ((b >> 1) << j)
        p = PauliOperator(n, (av & bv).bit_count() & 1, av, bv)
        if all(commutes(p, q) for q in ps):
            ps.append(p)
            gates.append(PauliExpGate(float(rng.uniform(0.0, 2.0 * np.pi)), p))
    return Circuit(n, 2, gates)


def random_shallow_circuit(n: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Layers of disjoint random two-qubit gates (a brickwork-style circuit)."""
    gates = []
    sizes = []
    for _ in range(depth):
        perm = rng.permutation(n)
        cnt = 0
        for i in range(0, n - 1, 2):
            pair = tuple(sorted((int(perm[i]), int(perm[i + 1]))))
            gates.append(DenseGate(pair, random_unitary(4, rng)))
            cnt += 1
        sizes.append(cnt)
    return Circuit(n, 2, gates, layer_sizes=sizes)


def circuits_equal(c1: Circuit, c2: Circuit, tol: float = 1e-12) -> bool:
    """Structural equality: same register, gate supports, and dense matrices."""
    from commsim.circuit import gate_matrix

    if (c1.n, c1.d, len(c1.gates)) != (c2.n, c2.d, len(c2.gates)):
        return False
    for g1, g2 in zip(c1.gates, c2.gates):
        if g1.support != g2.support:
            return False
        if np.linalg.norm(gate_matrix(g1, c1.d) - gate_matrix(g2, c2.d)) > tol:
            return False
    return True
