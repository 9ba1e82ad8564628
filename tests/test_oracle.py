"""Dense statevector oracle vs hand-built Kronecker products."""

import math

import numpy as np
import pytest
from conftest import (
    X2,
    Z2,
    random_shallow_circuit,
    random_state_vector,
    random_unitary,
)

from commsim.circuit import (
    Circuit,
    DenseGate,
    NamedGate,
    embed_matrix,
    gate_matrix,
)
from commsim.errors import CapacityExceeded, DimensionMismatch
from commsim.local2 import ProductState
from commsim.oracle import (
    Observable,
    StateVector,
    _apply_touched,
    _gate_product,
    apply_gate,
    basis_state,
    circuit_unitary,
    expectation,
    matrix_element,
    parse_basis_label,
    product_state,
    run_circuit,
)
from commsim.pauli import parse_pauli
from commsim.stabilizer import CliffordCircuit, StabilizerState, evolve

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


class TestStates:
    def test_basis_state_index(self):
        s = basis_state(3, 2, "011")
        assert s.amplitudes[0b011] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_basis_labels_agree(self):
        assert np.array_equal(
            basis_state(3, 2, "101").amplitudes, basis_state(3, 2, [1, 0, 1]).amplitudes
        )
        assert np.array_equal(
            basis_state(3, 2, "101").amplitudes, basis_state(3, 2, 5).amplitudes
        )

    @pytest.mark.parametrize("d, k", [(2, 5), (3, 14)])
    def test_numpy_int_labels(self, rng, d, k):
        c = random_shallow_circuit(3, 2, rng) if d == 2 else Circuit(3, 3, [])
        for x in (np.int64(k), np.uint8(k)):
            assert np.array_equal(basis_state(3, d, x).amplitudes, basis_state(3, d, k).amplitudes)
            assert np.array_equal(run_circuit(c, x).amplitudes, run_circuit(c, k).amplitudes)
            assert matrix_element(c, x, x) == matrix_element(c, k, k)
            got, want = ProductState.from_basis(3, d, x), ProductState.from_basis(3, d, k)
            assert np.array_equal(got.factors, want.factors)
        with pytest.raises(ValueError, match="out of range"):
            parse_basis_label(np.int64(d**3), 3, d)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            parse_basis_label("01", 3, 2)
        with pytest.raises(ValueError):
            parse_basis_label("021", 3, 2)
        with pytest.raises(ValueError):
            parse_basis_label(8, 3, 2)
        # labels that are no digit string or sequence name themselves
        for bad in (1.0, None, "0a1", [0, 1.5, 1]):
            with pytest.raises(ValueError, match="basis label"):
                parse_basis_label(bad, 3, 2)
        with pytest.raises(ValueError, match="basis label 1.0 "):
            basis_state(3, 2, 1.0)
        with pytest.raises(ValueError, match="basis label '0a1'"):
            evolve("0a1", CliffordCircuit(3))
        with pytest.raises(ValueError, match="basis label None"):
            StabilizerState([parse_pauli(z) for z in ("ZII", "IZI", "IIZ")]).amplitude(None)

    def test_product_state_is_kron(self, rng):
        f = [random_state_vector(2, rng) for _ in range(3)]
        s = product_state(f, 2)
        want = np.kron(np.kron(f[0], f[1]), f[2])
        assert np.allclose(s.amplitudes, want)

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(1, 2, np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_rejected(self, bad):
        with pytest.raises(ValueError, match="deviates from 1"):
            StateVector(1, 2, np.array([bad, 0.0], dtype=complex))

    def test_qutrit_basis(self):
        s = basis_state(2, 3, "12")
        assert s.amplitudes[1 * 3 + 2] == 1.0


def _on_register(axes, t: np.ndarray, n: int, d: int) -> np.ndarray:
    """``t`` over the sorted ``axes``, every other qudit |0>, as (d^n, trailing...)."""
    trail = t.shape[len(axes) :]
    full = np.zeros((d,) * n + trail, dtype=complex)
    full[tuple(slice(None) if q in axes else 0 for q in range(n))] = t
    return full.reshape((d**n,) + trail)


class TestKernel:
    """``_apply_touched`` against the gate embedded on the whole sorted register."""

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (2, 7), (3, 1), (3, 4)])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_matches_embedded_product(self, rng, d, n, batch):
        reg = tuple(range(n))
        trail = () if batch is None else (batch,)
        for trial in range(12):
            k = int(rng.integers(1, min(n, 3) + 1))
            sup = sorted(int(q) for q in rng.choice(n, size=k, replace=False))
            if trial % 2 == 0:
                sup[0] = 0  # every other support holds axis 0
            if trial % 3 == 2:
                rng.shuffle(sup)  # unsorted: the axes of m follow sup
            sup = tuple(sup)
            m = random_unitary(d ** len(sup), rng)
            # the whole register, or a subset that the gate may reach past
            axes = range(n) if trial % 4 < 2 else tuple(q for q in reg if rng.random() < 0.5)
            shape = (d,) * len(axes) + trail
            t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            new, got = _apply_touched(axes, t, m, sup, d)
            assert new == tuple(sorted(set(axes) | set(sup)))
            assert got.shape == (d,) * len(new) + trail
            want = embed_matrix(m, sup, reg, d) @ _on_register(axes, t, n, d)
            assert np.allclose(_on_register(new, got, n, d), want, atol=1e-12)
            # a matrix of another width is refused, not read on other qudits
            for bad in (np.kron(m, np.eye(d)), m[:, : m.shape[1] // d], np.eye(d ** len(sup) + 1)):
                with pytest.raises(DimensionMismatch, match="columns"):
                    _apply_touched(axes, t, bad, sup, d)
            if sup[0] != 0:
                continue
            # half rows against the rows of the full product where qudit 0 reads 0
            half, rest = _gate_product(axes, t, m[: m.shape[0] // d], sup, d)
            keep = [*sup[1:], *rest]
            w = want.reshape((d,) * n + trail)[0]
            w = w[tuple(slice(None) if q in keep else 0 for q in range(1, n))]
            w = w.transpose([sorted(keep).index(q) for q in keep] + list(range(len(keep), w.ndim)))
            assert np.allclose(half, w.reshape(half.shape), atol=1e-12)


class TestGateApplication:
    def test_single_qubit_matches_kron(self, rng):
        v = random_state_vector(8, rng)
        s = StateVector(3, 2, v)
        out = apply_gate(s, NamedGate("h", (1,)))
        want = np.kron(np.kron(np.eye(2), H), np.eye(2)) @ v
        assert np.allclose(out.amplitudes, want)

    def test_two_qubit_nonadjacent(self, rng):
        v = random_state_vector(8, rng)
        m = random_unitary(4, rng)
        out = apply_gate(StateVector(3, 2, v), DenseGate((0, 2), m))
        # embed on qubits 1 and 3 with qubit 2 untouched
        big = np.zeros((8, 8), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for a2 in range(2):
                        for c2 in range(2):
                            big[a2 * 4 + b * 2 + c2, a * 4 + b * 2 + c] = m[
                                a2 * 2 + c2, a * 2 + c
                            ]
        assert np.allclose(out.amplitudes, big @ v)

    def test_support_bounds(self, rng):
        s = basis_state(2, 2, 0)
        for q in (2, -1):
            with pytest.raises(DimensionMismatch):
                apply_gate(s, NamedGate("h", (q,)))
        # a two-qubit permutation on one qubit is not read as acting on two
        with pytest.raises(DimensionMismatch):
            apply_gate(basis_state(3, 2, 0), DenseGate((0,), np.eye(4)[[0, 2, 1, 3]]))

    def test_apply_circuit_order(self, rng):
        # x then h on the same qubit: |0> -> |1> -> (|0>-|1>)/sqrt2
        c = Circuit(1, 2, [NamedGate("x", (0,)), NamedGate("h", (0,))])
        out = run_circuit(c, "0")
        assert np.allclose(out.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_capacity_cap(self):
        with pytest.raises(CapacityExceeded):
            basis_state(5, 2, 0, cap=16)
        with pytest.raises(CapacityExceeded):
            apply_gate(basis_state(3, 2, 0), NamedGate("h", (0,)), cap=4)
        assert basis_state(4, 2, 0, cap=16).amplitudes.size == 16  # the cap itself fits

    def test_huge_register_refused_without_building_its_size(self):
        # d**n for n = 10**30 would never finish; n alone settles the answer
        with pytest.raises(CapacityExceeded, match="exceed the cap"):
            basis_state(10**30, 2, "0")
        with pytest.raises(CapacityExceeded, match="unitary would exceed"):
            circuit_unitary(Circuit(10**30, 2))
        with pytest.raises(DimensionMismatch):
            StateVector(10**30, 2, np.ones(1, dtype=complex))


class TestDerivedQuantities:
    def test_expectation_matches_dense(self, rng):
        v = random_state_vector(8, rng)
        s = StateVector(3, 2, v)
        o = Observable((1,), Z2)
        want = np.vdot(v, np.kron(np.kron(np.eye(2), Z2), np.eye(2)) @ v).real
        assert expectation(s, o) == pytest.approx(want, abs=1e-12)

    def test_expectation_two_site(self, rng):
        v = random_state_vector(8, rng)
        s = StateVector(3, 2, v)
        o = Observable((0, 2), np.kron(X2, Z2))
        big = np.zeros((8, 8), dtype=complex)
        zx = np.kron(X2, Z2)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for a2 in range(2):
                        for c2 in range(2):
                            big[a2 * 4 + b * 2 + c2, a * 4 + b * 2 + c] = zx[
                                a2 * 2 + c2, a * 2 + c
                            ]
        assert expectation(s, o) == pytest.approx(np.vdot(v, big @ v).real, abs=1e-12)

    def test_observable_validation(self):
        with pytest.raises(ValueError):
            Observable((1, 0), np.eye(4))
        with pytest.raises(ValueError):
            Observable((0,), np.array([[0, 1], [0, 0]], dtype=complex))
        for shape in ((2, 3), (3,)):
            with pytest.raises(ValueError, match="not square"):
                Observable((0,), np.ones(shape))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="not Hermitian"):
                Observable((0,), np.array([[bad, 0], [0, 1]], dtype=complex))
        s = basis_state(3, 2, 0)
        for o in (
            Observable((0,), np.diag([1.0, -1.0, 1.0, -1.0])),  # was read as acting on qubits 0, 1
            Observable((0,), np.eye(3)),
            Observable((-1,), Z2),
        ):
            with pytest.raises(DimensionMismatch):
                expectation(s, o)

    def test_matrix_element(self):
        c = Circuit(2, 2, [NamedGate("h", (0,)), NamedGate("cnot", (0, 1))])
        assert matrix_element(c, "00", "00") == pytest.approx(1 / math.sqrt(2))
        assert matrix_element(c, "00", "11") == pytest.approx(1 / math.sqrt(2))
        assert matrix_element(c, "00", "01") == pytest.approx(0.0)


class TestCircuitUnitary:
    def test_matches_gate_products(self, rng):
        c = random_shallow_circuit(3, 2, rng)
        u = circuit_unitary(c)
        want = np.eye(8, dtype=complex)
        for g in c.gates:
            full = np.eye(1, dtype=complex)
            mats = {g.support[0]: None}
            m = gate_matrix(g, 2).reshape(2, 2, 2, 2)
            # build via tensordot-free embedding for the 3-qubit case
            i, j = g.support
            big = np.zeros((8, 8), dtype=complex)
            for y in range(8):
                bits = [(y >> (2 - k)) & 1 for k in range(3)]
                for bi in range(2):
                    for bj in range(2):
                        nb = bits[:]
                        nb[i], nb[j] = bi, bj
                        y2 = nb[0] * 4 + nb[1] * 2 + nb[2]
                        big[y2, y] = m[bi, bj, bits[i], bits[j]]
            want = big @ want
        assert np.allclose(u, want, atol=1e-10)

    def test_unitarity(self, rng):
        c = random_shallow_circuit(4, 2, rng)
        u = circuit_unitary(c)
        assert np.allclose(u.conj().T @ u, np.eye(16), atol=1e-10)

    def test_cap(self):
        c = Circuit(8, 2, [NamedGate("h", (0,))])
        with pytest.raises(CapacityExceeded):
            circuit_unitary(c, cap=1 << 10)
        five = Circuit(5, 2, [NamedGate("h", (0,))])
        assert circuit_unitary(five, cap=1 << 10).shape == (32, 32)  # 32 * 32 fits exactly
        with pytest.raises(CapacityExceeded):
            circuit_unitary(five, cap=(1 << 10) - 1)
