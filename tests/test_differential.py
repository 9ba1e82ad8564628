"""Simulators that answer the same question must agree on the same input.

Basis labels first: an int label is the flat index with qubit 1 most
significant, and every entry point reads an int, a numpy int, a digit string
and a digit list of one basis state as that same state.
"""

import numpy as np
import pytest
from conftest import oracle_index, state_from_packed_amplitudes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commsim.circuit import NAMED_ARITY, Circuit, PauliExpGate
from commsim.estimator import EstimatorConfig
from commsim.local2 import ProductState
from commsim.oracle import basis_state, circuit_unitary, run_circuit
from commsim.pauli import PauliOperator
from commsim.paulisim import (
    compile_commuting_pauli,
    simulate_commuting_pauli,
    simulate_noncommuting_pauli,
)
from commsim.stabilizer import CliffordCircuit, conjugate_pauli, evolve, random_clifford_circuit


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


@st.composite
def _commuting_program(draw):
    """(n, Clifford gates, (theta, sign, Z mask) per member) with n <= 5.

    Each member is a signed Z-type conjugated by the Clifford.  Fewer masks
    than qubits, or masks that repeat or combine, give rank-deficient sets.
    """
    n = draw(st.integers(1, 5))
    pool = sorted(g for g, arity in NAMED_ARITY.items() if arity <= n)
    gates = []
    for name in draw(st.lists(st.sampled_from(pool), max_size=4 * n)):
        gates.append((name, tuple(draw(st.permutations(range(n)))[: NAMED_ARITY[name]])))
    members = draw(st.lists(
        st.tuples(st.floats(-np.pi, np.pi), st.integers(0, 1), st.integers(1, (1 << n) - 1)),
        min_size=1, max_size=n + 2,
    ))
    return n, gates, members


@given(_commuting_program())
@example((3, [], [(0.3, 0, 0b011), (-0.5, 1, 0b110), (0.7, 0, 0b101)]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_compiled_factors_rebuild_the_circuit(program):
    """C D C^dag of ``compile_commuting_pauli`` is the circuit's dense unitary."""
    n, gates, members = program
    cliff = CliffordCircuit(n, tuple(gates))
    prog = [
        (theta, conjugate_pauli(cliff, PauliOperator(n, 2 * sign, 0, mask)))
        for theta, sign, mask in members
    ]
    c, diag, _ = compile_commuting_pauli(prog)
    labels = np.arange(1 << n, dtype=np.uint64)
    d = np.ones(1 << n, dtype=complex)
    for dz in diag:
        d *= dz.eval_phase_many(labels)
    flat = np.zeros(1 << n, dtype=complex)  # reindexed into the statevector layout
    flat[[oracle_index(y, n) for y in range(1 << n)]] = d
    uc = circuit_unitary(c.to_circuit())
    want = circuit_unitary(Circuit(n, 2, [PauliExpGate(theta, p) for theta, p in prog]))
    assert np.allclose(uc @ np.diag(flat) @ uc.conj().T, want, atol=1e-9)
