"""Simulators that answer the same question must agree on the same input.

Basis labels first: an int label is the flat index with qubit 1 most
significant, and every entry point reads an int, a numpy int, a digit string
and a digit list of one basis state as that same state.
"""

import numpy as np
import pytest
from conftest import state_from_packed_amplitudes

from commsim.estimator import EstimatorConfig
from commsim.local2 import ProductState
from commsim.oracle import basis_state, run_circuit
from commsim.paulisim import simulate_commuting_pauli, simulate_noncommuting_pauli
from commsim.stabilizer import CliffordCircuit, evolve, random_clifford_circuit


def _labels(x: int, n: int, d: int = 2) -> tuple[list[int], list]:
    """Digits of flat index x (qubit 1 most significant) and its four label forms."""
    digits = [int(ch) for ch in np.base_repr(x, d).zfill(n)]
    return digits, [x, np.int64(x), "".join(map(str, digits)), digits]


def _product_vector(p: ProductState) -> np.ndarray:
    vec = np.ones(1, dtype=complex)
    for f in p.factors:
        vec = np.kron(vec, f)
    return vec


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_label_form_is_one_state(n):
    rng = np.random.default_rng(150 + n)
    circuits = [CliffordCircuit(n)] + [random_clifford_circuit(n, 6 * n, rng) for _ in range(3)]
    for c in circuits:
        ref = evolve(0, c)
        ref_vec = run_circuit(c.to_circuit(), 0).amplitudes
        # amplitude() fixes its own global phase: the least support element is positive
        amps = np.array([ref.amplitude(x) for x in range(1 << n)])
        amps *= np.vdot(amps, ref_vec)
        assert np.allclose(amps, ref_vec, atol=1e-12)
        for x in range(1 << n):
            _, labels = _labels(x, n)
            want = run_circuit(c.to_circuit(), x).amplitudes
            if not c.gates:  # the empty circuit leaves the flat basis vector e_x
                assert np.array_equal(want, np.eye(1 << n)[x])
            for label in labels:
                assert np.array_equal(run_circuit(c.to_circuit(), label).amplitudes, want)
                got = state_from_packed_amplitudes(evolve(label, c).amplitude_raw, n)
                assert np.allclose(got, want, atol=1e-12)
                assert ref.amplitude(label) == ref.amplitude(x)
                if not c.gates:
                    inp = ProductState.from_basis(n, 2, label)
                    assert np.array_equal(_product_vector(inp), want)


def test_product_state_matches_basis_state_on_qutrits():
    for x in range(27):
        _, labels = _labels(x, 3, 3)
        want = basis_state(3, 3, x).amplitudes
        assert want[x] == 1
        for label in labels:
            assert np.array_equal(_product_vector(ProductState.from_basis(3, 3, label)), want)
            assert np.array_equal(basis_state(3, 3, label).amplitudes, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_empty_program_reads_the_input_digit(n):
    cfg = EstimatorConfig(k_override=4)
    for x in range(1 << n):
        digits, labels = _labels(x, n)
        for label in labels:
            for q in range(n):
                rng = np.random.default_rng(x)
                got = [
                    simulate_commuting_pauli([], label, q, cfg, rng, n=n).raw_value,
                    simulate_noncommuting_pauli([], label, q, cfg, rng, n=n).raw_value,
                ]
                assert got == [1 - 2 * digits[q]] * 2
