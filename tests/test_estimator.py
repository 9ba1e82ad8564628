"""Monomial operator algebra and the sampling sandwich estimator."""

import numpy as np
import pytest

from commsim.errors import SizeMismatch, ZeroAmplitudeSample
from commsim.estimator import (
    Composition,
    DiagonalZExp,
    EstimatorConfig,
    PauliMonomial,
    estimate_monomial_sandwich,
)
from commsim.pauli import PauliOperator, parse_pauli
from commsim.stabilizer import StabilizerState, evolve, random_clifford_circuit


def _pauli_dense(p: PauliOperator) -> np.ndarray:
    """Dense matrix in the bit-packed index convention of to_matrix()."""
    dim = 1 << p.n
    m = np.zeros((dim, dim), dtype=complex)
    for y in range(dim):
        m[y ^ p.a, y] = 1j ** p.phase_exponent_on_basis(y)
    return m


def _state_vec(s) -> np.ndarray:
    return np.array([s.amplitude_raw(y) for y in range(1 << s.n)])


def _random_monomial(n, rng):
    ops = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.integers(2):
            ops.append(
                PauliMonomial(
                    PauliOperator(
                        n,
                        int(rng.integers(4)),
                        int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)),
                    )
                )
            )
        else:
            q = PauliOperator(n, 2 * int(rng.integers(2)), 0, int(rng.integers(1 << n)))
            ops.append(DiagonalZExp(float(rng.uniform(0, 2 * np.pi)), q))
    return Composition(ops)


class TestMonomialAlgebra:
    def test_pauli_monomial_matches_dense(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            p = PauliOperator(
                n, int(rng.integers(4)), int(rng.integers(1 << n)), int(rng.integers(1 << n))
            )
            assert np.allclose(PauliMonomial(p).to_matrix(), _pauli_dense(p), atol=1e-12)

    def test_diagonal_zexp_matches_dense(self, rng):
        theta = 0.9
        q = parse_pauli("-ZIZ")
        m = DiagonalZExp(theta, q).to_matrix()
        want = np.diag(np.exp(1j * theta * np.diag(_pauli_dense(q)).real))
        assert np.allclose(m, want, atol=1e-12)

    def test_zexp_rejects_non_z_type(self):
        with pytest.raises(ValueError):
            DiagonalZExp(0.1, parse_pauli("XZ"))

    def test_composition_is_matrix_product(self, rng):
        for _ in range(15):
            n = 3
            comp = _random_monomial(n, rng)
            want = np.eye(1 << n, dtype=complex)
            for op in comp.ops:
                want = want @ op.to_matrix()
            assert np.allclose(comp.to_matrix(), want, atol=1e-10)

    def test_monomial_structure(self, rng):
        m = _random_monomial(3, rng).to_matrix()
        # exactly one unit-modulus entry per column
        for col in m.T:
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            assert len(nz) == 1
            assert abs(abs(col[nz[0]]) - 1.0) < 1e-12

    def test_permute_inverse(self, rng):
        comp = _random_monomial(4, rng)
        ys = np.arange(16, dtype=np.uint64)
        # a monomial flips a fixed X mask, so it is its own inverse permutation
        assert np.array_equal(comp.permute_many(comp.permute_many(ys)), ys)

    def test_vectorized_matches_scalar(self, rng):
        # up to 70 diagonal factors (two 64-bit parity words), some with zero
        # angle, and Paulis with X parts between them; one factor is the
        # single-monomial case
        cases = [(1, 3, 2), (4, 3, 2), (9, 70, 6), (64, 70, 6), (9, 0, 5), (64, 0, 1), (64, 1, 0)]
        for n, n_diag, n_pauli in cases:
            self._check_vectorized(n, n_diag, n_pauli, rng)

    @staticmethod
    def _check_vectorized(n, n_diag, n_pauli, rng):
        """Phases and flips of a random composition against a per-basis walk."""

        def word():
            return int(rng.integers(0, 2**64, dtype=np.uint64)) & ((1 << n) - 1)

        ops = [
            DiagonalZExp(float(rng.uniform(-4, 4)) * int(rng.integers(2)),
                         PauliOperator(n, 2 * int(rng.integers(2)), 0, word()))
            for _ in range(n_diag)
        ]
        for _ in range(n_pauli):
            p = PauliOperator(n, int(rng.integers(4)), word(), word())
            ops.insert(int(rng.integers(len(ops) + 1)), PauliMonomial(p))
        comp = Composition(ops) if len(ops) > 1 else ops[0]
        ys = rng.integers(0, 2**64, size=300, dtype=np.uint64) & np.uint64((1 << n) - 1)
        # per-basis-state reference: apply the factors right to left
        want_phase, want_perm = [], []
        for y in ys.tolist():
            phase = 1 + 0j
            for op in reversed(ops):
                if isinstance(op, PauliMonomial):
                    lam = 1j ** op.p.phase_exponent_on_basis(y)
                    y ^= op.p.a
                else:  # the eigenvalue of Q at y is 1 - k for k in {0, 2}
                    lam = np.exp(1j * op.theta * (1 - op.q.phase_exponent_on_basis(y)))
                phase *= lam
            want_phase.append(phase)
            want_perm.append(y)
        assert np.allclose(comp.eval_phase_many(ys), want_phase, rtol=0, atol=1e-12)
        assert comp.permute_many(ys).tolist() == want_perm

    def test_identity(self):
        i = PauliMonomial(PauliOperator.identity(2))
        assert np.allclose(i.to_matrix(), np.eye(4))


class TestConfig:
    def test_default_sample_count(self):
        assert EstimatorConfig(epsilon=0.05, delta=0.01).k == 8478

    def test_override(self):
        assert EstimatorConfig(k_override=17).k == 17

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(delta=1.0)
        for k in (0, -3):
            with pytest.raises(ValueError):
                EstimatorConfig(k_override=k)


class TestSandwichEstimator:
    def test_trivial_identity_sandwich(self, rng):
        c = random_clifford_circuit(4, 12, rng)
        psi = evolve(0b0110, c)
        cfg = EstimatorConfig(k_override=200)
        res = estimate_monomial_sandwich(psi, PauliMonomial(PauliOperator.identity(4)), psi, cfg, rng)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.max_modulus_violation == 0.0
        assert res.k == 200

    def test_matches_dense_value(self, rng):
        hits = 0
        for _ in range(15):
            n = int(rng.integers(2, 5))
            # same Clifford, different inputs: equal support sizes, |X| in {0, 1}
            c = random_clifford_circuit(n, 10, rng)
            psi = evolve(int(rng.integers(1 << n)), c)
            phi = evolve(int(rng.integers(1 << n)), c)
            m = _random_monomial(n, rng)
            want = _state_vec(psi).conj() @ m.to_matrix() @ _state_vec(phi)
            cfg = EstimatorConfig(epsilon=0.1, delta=0.05)
            res = estimate_monomial_sandwich(psi, m, phi, cfg, rng)
            assert res.max_modulus_violation < 1e-12
            if abs(res.value - want) <= cfg.epsilon:
                hits += 1
        assert hits >= 14

    def test_samples_bounded(self, rng):
        # |X| in {0, 1} exactly: the clamped mean never leaves the unit disk
        n = 3
        psi = evolve(0, random_clifford_circuit(n, 8, rng))
        phi = evolve(1, random_clifford_circuit(n, 8, rng))
        res = estimate_monomial_sandwich(
            psi, _random_monomial(n, rng), phi, EstimatorConfig(k_override=500), rng
        )
        assert abs(res.value) <= 1.0 + 1e-12

    @pytest.mark.parametrize("k", [5, 8, 40])
    def test_zero_amplitude_sample_raises(self, rng, k):
        # phi's anchor is off its support, so every amplitude it gives is 0
        # and the first sample divides by zero: on 3 qubits k = 5 reads the
        # samples' amplitudes, k = 8 and 40 tabulate all 8 labels
        gens = [parse_pauli(s) for s in ("ZII", "IXI", "IIX")]
        off = next(y for y in range(8) if not StabilizerState(gens).in_support(y))
        phi = StabilizerState(gens, anchor_y=off, anchor_amp=0.5, check=False)
        psi = evolve(0, random_clifford_circuit(3, 6, rng))
        m = PauliMonomial(PauliOperator.identity(3))
        with pytest.raises(ZeroAmplitudeSample):
            estimate_monomial_sandwich(psi, m, phi, EstimatorConfig(k_override=k), rng)

    def test_size_mismatch(self, rng):
        psi = evolve(0, random_clifford_circuit(2, 4, rng))
        phi = evolve(0, random_clifford_circuit(3, 4, rng))
        with pytest.raises(SizeMismatch):
            estimate_monomial_sandwich(
                psi, PauliMonomial(PauliOperator.identity(2)), phi, EstimatorConfig(), rng
            )
