"""Block-contraction simulation of 2-local commuting circuits vs the oracle."""

import numpy as np
import pytest
from conftest import (
    Z2,
    commuting_pauli_exp_circuit,
    random_hermitian,
    random_state_vector,
    shared_basis_diagonal_circuit,
)

from commsim.circuit import Circuit, NamedGate, PauliExpGate
from commsim.errors import (
    DimensionMismatch,
    LocalityExceeded,
    PhaseMismatch,
)
from commsim.local2 import (
    ProductState,
    simulate_2local,
    simulate_2local_phase_commuting,
    verify_phase_table,
)
from commsim.oracle import Observable, apply_circuit, expectation, product_state
from commsim.pauli import parse_pauli


def _oracle_value(c, inp: ProductState, obs: Observable) -> float:
    s = apply_circuit(product_state(inp.factors, inp.d), c)
    return expectation(s, obs)


def _random_input(n, d, rng):
    return ProductState([random_state_vector(d, rng) for _ in range(n)], d)


class TestAgainstOracle:
    def test_shared_basis_family(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            c = shared_basis_diagonal_circuit(n, 2, int(rng.integers(2, 3 * n)), rng)
            inp = _random_input(n, 2, rng)
            q = int(rng.integers(n))
            obs = Observable((q,), random_hermitian(2, rng))
            got = simulate_2local(c, inp, obs)
            assert got == pytest.approx(_oracle_value(c, inp, obs), abs=1e-9)

    def test_pauli_exp_family(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            c = commuting_pauli_exp_circuit(n, int(rng.integers(2, 2 * n)), rng)
            inp = _random_input(n, 2, rng)
            sup = tuple(sorted(int(q) for q in rng.choice(n, 2, replace=False)))
            obs = Observable(sup, random_hermitian(4, rng))
            got = simulate_2local(c, inp, obs)
            assert got == pytest.approx(_oracle_value(c, inp, obs), abs=1e-9)

    def test_qutrit_circuit(self, rng):
        n = 4
        c = shared_basis_diagonal_circuit(n, 3, 5, rng)
        inp = _random_input(n, 3, rng)
        obs = Observable((2,), random_hermitian(3, rng))
        got = simulate_2local(c, inp, obs)
        assert got == pytest.approx(_oracle_value(c, inp, obs), abs=1e-9)

    def test_three_qudit_block(self, rng):
        n = 5
        c = commuting_pauli_exp_circuit(n, 6, rng)
        inp = _random_input(n, 2, rng)
        obs = Observable((0, 2, 4), random_hermitian(8, rng))
        got = simulate_2local(c, inp, obs)
        assert got == pytest.approx(_oracle_value(c, inp, obs), abs=1e-9)

    def test_gate_order_invariance(self, rng):
        n = 5
        c = commuting_pauli_exp_circuit(n, 8, rng)
        inp = _random_input(n, 2, rng)
        obs = Observable((1,), Z2)
        v1 = simulate_2local(c, inp, obs)
        perm = rng.permutation(len(c.gates))
        c2 = Circuit(n, 2, [c.gates[i] for i in perm])
        assert simulate_2local(c2, inp, obs) == pytest.approx(v1, abs=1e-10)

    def test_padding_invariance(self, rng):
        n = 4
        c = shared_basis_diagonal_circuit(n, 2, 5, rng)
        inp = _random_input(n, 2, rng)
        obs = Observable((0,), Z2)
        v = simulate_2local(c, inp, obs)
        # embed in a larger register with untouched qudits appended
        big = Circuit(n + 3, 2, list(c.gates))
        big_inp = ProductState(inp.factors + [np.array([1.0, 0.0])] * 3, 2)
        assert simulate_2local(big, big_inp, obs) == pytest.approx(v, abs=1e-12)


class TestPhaseCommuting:
    def test_anticommuting_xz_example(self):
        # gates X then Z on one qubit, gamma = -1: <0|(ZX)^dag Z (ZX)|0> = -1
        c = Circuit(1, 2, [NamedGate("x", (0,)), NamedGate("z", (0,))])
        gamma = np.array([[1, -1], [-1, 1]], dtype=complex)
        inp = ProductState.from_basis(1, 2, "0")
        obs = Observable((0,), Z2)
        got = simulate_2local_phase_commuting(c, gamma, inp, obs)
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_matches_oracle_random(self, rng):
        # anticommuting single-qubit Paulis plus a commuting entangler
        c = Circuit(
            3,
            2,
            [
                NamedGate("x", (0,)),
                NamedGate("z", (0,)),
                NamedGate("cz", (1, 2)),
                PauliExpGate(0.7, parse_pauli("IZZ")),
            ],
        )
        gamma = np.ones((4, 4), dtype=complex)
        gamma[0, 1] = gamma[1, 0] = -1
        inp = _random_input(3, 2, rng)
        obs = Observable((0, 1), random_hermitian(4, rng))
        got = simulate_2local_phase_commuting(c, gamma, inp, obs)
        assert got == pytest.approx(_oracle_value(c, inp, obs), abs=1e-9)

    def test_phase_table_verified(self):
        c = Circuit(1, 2, [NamedGate("x", (0,)), NamedGate("z", (0,))])
        bad = np.ones((2, 2), dtype=complex)  # claims they commute
        err = pytest.raises(PhaseMismatch, verify_phase_table, c, bad).value
        assert (err.i, err.j) == (0, 1)
        with pytest.raises(PhaseMismatch):
            # non-unimodular entry
            verify_phase_table(c, np.array([[1, 2], [2, 1]], dtype=complex))
        with pytest.raises(PhaseMismatch):
            verify_phase_table(c, np.array([[1, np.nan], [np.nan, 1]], dtype=complex))


class TestValidation:
    def test_three_local_gate_rejected(self):
        c = Circuit(3, 2, [PauliExpGate(0.2, parse_pauli("ZZZ"))])
        inp = ProductState.from_basis(3, 2, "000")
        with pytest.raises(LocalityExceeded):
            simulate_2local(c, inp, Observable((0,), Z2))

    def test_block_cap(self, rng):
        c = commuting_pauli_exp_circuit(5, 4, rng)
        inp = _random_input(5, 2, rng)
        obs = Observable((0, 1, 2, 3), random_hermitian(16, rng))
        with pytest.raises(LocalityExceeded):
            simulate_2local(c, inp, obs)

    def test_register_mismatch(self, rng):
        c = commuting_pauli_exp_circuit(4, 4, rng)
        with pytest.raises(DimensionMismatch):
            simulate_2local(c, _random_input(3, 2, rng), Observable((0,), Z2))
        with pytest.raises(DimensionMismatch):
            simulate_2local(c, _random_input(4, 2, rng), Observable((7,), Z2))

    def test_negative_support_rejected(self):
        # a negative qudit would index the input's factors from the end
        gates = [PauliExpGate(0.4, parse_pauli("ZZI")), PauliExpGate(0.9, parse_pauli("IZZ"))]
        c = Circuit(3, 2, gates)
        inp = ProductState.from_basis(3, 2, "001")
        with pytest.raises(DimensionMismatch, match="outside the register"):
            simulate_2local(c, inp, Observable((-1,), Z2))

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            ProductState([np.array([1.0, 1.0])], 2)
        with pytest.raises(ValueError, match="not normalized"):
            ProductState([np.array([np.nan, 0.0])], 2)
        with pytest.raises(DimensionMismatch):
            ProductState([np.array([1.0, 0.0, 0.0])], 2)
