"""Weak simulation of Pauli-exponential circuits vs closed forms and the oracle."""

import itertools
import math

import numpy as np
import pytest
from conftest import bits_of, packed_label, pauli_statevector_matrix, random_commuting_paulis

from commsim import paulisim
from commsim.circuit import Circuit, PauliExpGate
from commsim.errors import (
    CapacityExceeded,
    DimensionMismatch,
    NotCommuting,
    NotHermitian,
    TooManyExtras,
)
from commsim.estimator import EstimatorConfig, estimate_monomial_sandwich
from commsim.oracle import Observable, circuit_unitary, expectation, run_circuit
from commsim.paulisim import (
    ExtraGate,
    MemberGate,
    compile_commuting_pauli,
    simulate_commuting_pauli,
    simulate_noncommuting_pauli,
)
from commsim.pauli import PauliOperator, multiply, parse_pauli
from commsim.stabilizer import evolve

Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def _dense_value(gate_list, n, x, qubit):
    c = Circuit(n, 2, [PauliExpGate(th, p) for th, p in gate_list])
    s = run_circuit(c, x)
    return expectation(s, Observable((qubit,), Z2))


_PINNED_PROGRAMS = {
    "n8": [
        MemberGate(0.3, parse_pauli("-IZZZXZZI")),
        MemberGate(-0.7, parse_pauli("+IZXYIZZI")),
        ExtraGate(0.4, parse_pauli("XYIZIIXI")),
        MemberGate(1.1, parse_pauli("-XIXYIZZI")),
        MemberGate(0.5, parse_pauli("-XIYYYIXZ")),
        ExtraGate(-0.6, parse_pauli("IIZXXIYI")),
        MemberGate(-1.3, parse_pauli("+IIXYXZIZ")),
        MemberGate(0.9, parse_pauli("+IZXXYIXI")),
    ],
    "n3": [
        MemberGate(0.6, parse_pauli("+YIZ")),
        ExtraGate(0.8, parse_pauli("XXI")),
        MemberGate(-1.2, parse_pauli("-YII")),
        ExtraGate(-0.3, parse_pauli("IZY")),
        MemberGate(0.25, parse_pauli("+YZZ")),
    ],
}


def _random_hermitian_pauli(n, rng):
    while True:
        a = int(rng.integers(1 << n))
        b = int(rng.integers(1 << n))
        if a | b:
            return PauliOperator(n, (a & b).bit_count() & 1, a, b)


class TestCompile:
    def test_factorization_dense(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 5))
            ps = random_commuting_paulis(n, int(rng.integers(1, 2 * n)), rng)
            gate_list = [(float(rng.uniform(0, 2 * np.pi)), p) for p in ps]
            c, diag, obs_map = compile_commuting_pauli(gate_list)
            u = circuit_unitary(
                Circuit(n, 2, [PauliExpGate(th, p) for th, p in gate_list])
            )
            uc = circuit_unitary(c.to_circuit())
            d = np.eye(1 << n, dtype=complex)
            for dz in diag:
                # reindex the bit-packed diagonal into the statevector layout
                phases = dz.eval_phase_many(np.arange(1 << n, dtype=np.uint64))
                m = np.zeros_like(d)
                for y in range(1 << n):
                    idx = 0
                    for k in range(n):
                        idx = 2 * idx + ((y >> k) & 1)
                    m[idx, idx] = phases[y]
                d = d @ m
            assert np.allclose(u, uc @ d @ uc.conj().T, atol=1e-9)

    def test_obs_map_is_inverse_conjugation(self, rng):
        n = 3
        ps = random_commuting_paulis(n, 2, rng)
        c, _, obs_map = compile_commuting_pauli([(0.3, p) for p in ps])
        uc = circuit_unitary(c.to_circuit())
        a = parse_pauli("ZII")
        img = obs_map(a)
        assert np.allclose(
            pauli_statevector_matrix(img),
            uc.conj().T @ pauli_statevector_matrix(a) @ uc,
            atol=1e-10,
        )

    def test_validation(self):
        with pytest.raises(NotCommuting):
            compile_commuting_pauli([(0.1, parse_pauli("X")), (0.2, parse_pauli("Z"))])
        with pytest.raises(NotHermitian):
            compile_commuting_pauli([(0.1, parse_pauli("iZ", 1))])
        with pytest.raises(ValueError):
            compile_commuting_pauli([])


class TestCommutingSimulation:
    def test_diagonal_closed_form(self, rng):
        # e^{i theta Z} leaves <Z> = +-1 exact
        cfg = EstimatorConfig(k_override=50)
        res = simulate_commuting_pauli([(0.7, parse_pauli("Z"))], 0, 0, cfg, rng)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        res = simulate_commuting_pauli([(0.7, parse_pauli("Z"))], 1, 0, cfg, rng)
        assert res.value == pytest.approx(-1.0, abs=1e-12)

    def test_x_rotation_closed_form(self, rng):
        theta = 0.6
        cfg = EstimatorConfig(epsilon=0.08, delta=0.02)
        res = simulate_commuting_pauli([(theta, parse_pauli("X"))], 0, 0, cfg, rng)
        assert abs(res.value - math.cos(2 * theta)) <= cfg.epsilon

    def test_empty_circuit(self, rng):
        cfg = EstimatorConfig(k_override=10)
        res = simulate_commuting_pauli([], "01", 1, cfg, rng, n=2)
        assert res.value == pytest.approx(-1.0, abs=1e-12)

    def test_matches_oracle(self, rng):
        misses = 0
        cfg = EstimatorConfig(epsilon=0.12, delta=0.02)
        for _ in range(12):
            n = int(rng.integers(2, 6))
            ps = random_commuting_paulis(n, int(rng.integers(1, n + 2)), rng)
            gate_list = [(float(rng.uniform(0, 2 * np.pi)), p) for p in ps]
            x = packed_label(int(rng.integers(1 << n)), n)
            q = int(rng.integers(n))
            want = _dense_value(gate_list, n, x, q)
            res = simulate_commuting_pauli(gate_list, x, q, cfg, rng)
            if abs(res.value - want) > cfg.epsilon:
                misses += 1
            assert res.max_modulus_violation < 1e-12
            assert -1.0 <= res.value <= 1.0
        assert misses <= 1

    def test_sign_covariance(self, rng):
        # theta -> -theta together with P -> -P is the same circuit
        gl1 = [(0.9, parse_pauli("ZX"))]
        gl2 = [(-0.9, parse_pauli("-ZX"))]
        cfg = EstimatorConfig(epsilon=0.1, delta=0.02)
        r1 = simulate_commuting_pauli(gl1, "01", 0, cfg, np.random.default_rng(7))
        r2 = simulate_commuting_pauli(gl2, "01", 0, cfg, np.random.default_rng(7))
        assert r1.value == pytest.approx(r2.value, abs=1e-12)


class TestNonCommutingSimulation:
    def test_matches_oracle_small_k(self, rng):
        misses = 0
        cfg = EstimatorConfig(epsilon=0.25, delta=0.05)
        for trial in range(8):
            n = int(rng.integers(2, 4))
            k = 1 + trial % 2
            members = [
                MemberGate(float(rng.uniform(0, 2 * np.pi)), p)
                for p in random_commuting_paulis(n, 2, rng)
            ]
            extras = []
            for _ in range(k):
                while True:
                    a = int(rng.integers(1 << n))
                    b = int(rng.integers(1 << n))
                    if a | b:
                        break
                t = (a & b).bit_count() & 1
                extras.append(
                    ExtraGate(float(rng.uniform(0, 2 * np.pi)), PauliOperator(n, t, a, b))
                )
            program = list(members)
            for g in extras:
                program.insert(int(rng.integers(len(program) + 1)), g)
            x = packed_label(int(rng.integers(1 << n)), n)
            q = int(rng.integers(n))
            gate_list = [(g.theta, g.pauli) for g in program]
            want = _dense_value(gate_list, n, x, q)
            res = simulate_noncommuting_pauli(program, x, q, cfg, rng)
            if abs(res.value - want) > cfg.epsilon:
                misses += 1
        assert misses <= 1

    def test_matches_oracle_k3(self, rng):
        cfg = EstimatorConfig(epsilon=0.1, delta=0.05)
        for _ in range(4):
            n = int(rng.integers(2, 5))
            program = [
                MemberGate(float(rng.uniform(0, 2 * np.pi)), p)
                for p in random_commuting_paulis(n, 3, rng)
            ]
            for _ in range(3):
                program.insert(
                    int(rng.integers(len(program) + 1)),
                    ExtraGate(float(rng.uniform(0, 2 * np.pi)), _random_hermitian_pauli(n, rng)),
                )
            x = packed_label(int(rng.integers(1 << n)), n)
            q = int(rng.integers(n))
            want = _dense_value([(g.theta, g.pauli) for g in program], n, x, q)
            res = simulate_noncommuting_pauli(program, x, q, cfg, rng)
            assert abs(res.value - want) <= cfg.epsilon

    def test_total_sample_count(self, rng):
        program = [
            ExtraGate(math.pi / 8, parse_pauli("XI")),
            MemberGate(0.3, parse_pauli("ZZ")),
            ExtraGate(-math.pi / 8, parse_pauli("IY")),
        ]
        cfg = EstimatorConfig(epsilon=0.2, delta=0.1)
        w = (math.cos(math.pi / 8) + math.sin(math.pi / 8)) ** 2
        res = simulate_noncommuting_pauli(program, 0, 0, cfg, rng)
        assert res.k == math.ceil(4 * w**4 * math.log(2 / cfg.delta) / cfg.epsilon**2)
        res = simulate_noncommuting_pauli(program, 0, 0, EstimatorConfig(k_override=37), rng)
        assert res.k == 37

    def test_same_seed_same_value(self, rng):
        program = [
            MemberGate(0.7, parse_pauli("ZZI")),
            ExtraGate(0.4, parse_pauli("XIZ")),
            MemberGate(1.1, parse_pauli("XXI")),
            ExtraGate(-1.2, parse_pauli("YYI")),
        ]
        cfg = EstimatorConfig(epsilon=0.2, delta=0.1)
        r1 = simulate_noncommuting_pauli(program, "011", 1, cfg, np.random.default_rng(5))
        r2 = simulate_noncommuting_pauli(program, "011", 1, cfg, np.random.default_rng(5))
        assert r1.raw_value == r2.raw_value

    def test_k0_matches_commuting_path(self, rng):
        n = 3
        ps = random_commuting_paulis(n, 3, rng)
        gate_list = [(float(rng.uniform(0, 2 * np.pi)), p) for p in ps]
        cfg = EstimatorConfig(epsilon=0.1, delta=0.02)
        r1 = simulate_commuting_pauli(gate_list, 5, 1, cfg, np.random.default_rng(11))
        r2 = simulate_noncommuting_pauli(
            [MemberGate(th, p) for th, p in gate_list], 5, 1, cfg, np.random.default_rng(11)
        )
        assert r1.value == pytest.approx(r2.value, abs=1e-9)

    def test_too_many_extras(self, rng):
        program = [MemberGate(0.1, parse_pauli("ZZ"))] + [
            ExtraGate(0.1, parse_pauli("XI")) for _ in range(11)
        ]
        with pytest.raises(TooManyExtras, match="11 extra gates exceed the cap of 10"):
            simulate_noncommuting_pauli(program, 0, 0, EstimatorConfig(k_override=5), rng)

    @pytest.mark.parametrize("qubit", [-1, 2])
    def test_observable_qubit_outside_register(self, rng, qubit):
        # the members anticommute, so a check after compiling would raise NotCommuting
        gates = [(0.3, parse_pauli("ZZ")), (0.2, parse_pauli("XI"))]
        cfg = EstimatorConfig(k_override=5)
        want = f"observable qubit {qubit} outside the 2-qubit register"
        with pytest.raises(DimensionMismatch, match=want):
            simulate_commuting_pauli(gates, 0, qubit, cfg, rng)
        program = [MemberGate(*g) for g in gates] + [ExtraGate(0.1, parse_pauli("YI"))]
        with pytest.raises(DimensionMismatch, match=want):
            simulate_noncommuting_pauli(program, 0, qubit, cfg, rng)

    def test_wide_register_refused_before_compiling(self, rng, monkeypatch):
        compiled = []
        monkeypatch.setattr(paulisim, "compile_commuting_pauli", lambda *a: compiled.append(a))
        zz = PauliOperator(65, 0, 0, 0b11)
        cfg = EstimatorConfig(k_override=5)
        with pytest.raises(CapacityExceeded, match="at most 64 qubits, got 65"):
            simulate_commuting_pauli([(0.3, zz)], 0, 0, cfg, rng)
        with pytest.raises(CapacityExceeded, match="at most 64 qubits, got 65"):
            simulate_noncommuting_pauli(
                [MemberGate(0.3, zz), ExtraGate(0.2, PauliOperator(65, 0, 1, 0))], 0, 0, cfg, rng
            )
        assert not compiled

    @pytest.mark.parametrize("x", ["0a1", "01", 8])
    def test_bad_label_refused_before_compiling(self, rng, monkeypatch, x):
        compiled = []
        monkeypatch.setattr(paulisim, "compile_commuting_pauli", lambda *a: compiled.append(a))
        zz = parse_pauli("ZZI")
        cfg = EstimatorConfig(k_override=5)
        with pytest.raises(ValueError, match="basis"):
            simulate_commuting_pauli([(0.3, zz)], x, 0, cfg, rng)
        with pytest.raises(ValueError, match="basis"):
            simulate_noncommuting_pauli(
                [MemberGate(0.3, zz), ExtraGate(0.2, parse_pauli("XII"))], x, 0, cfg, rng
            )
        assert not compiled

    @pytest.mark.parametrize(
        "name, x, qubit, cfg, seed, pinned",
        [
            ("n8", "01101001", 2, EstimatorConfig(epsilon=0.1, delta=0.05), 11,
             "0x1.32a2646e3b094p-3"),
            ("n8", "11000101", 5, EstimatorConfig(k_override=3000), 12, "-0x1.ed3907eaa0052p-1"),
            ("n3", "011", 1, EstimatorConfig(k_override=60), 13, "-0x1.75c3fa5332707p-2"),
            ("n3", "100", 0, EstimatorConfig(k_override=200), 14, "0x1.65a59e2cdb301p-1"),
        ],
    )
    def test_outputs_pinned_bit_for_bit(self, monkeypatch, name, x, qubit, cfg, seed, pinned):
        # raw means recorded before the sample variable was tabulated on
        # small registers (the first case again after completion turned
        # Z-type); each case has pairs with fewer samples than 2^n labels
        # (read per sample) and pairs with at least 2^n (tabulated)
        ks = []

        def recorded(psi, m, phi, pair_cfg, rng):
            ks.append(pair_cfg.k)
            return estimate_monomial_sandwich(psi, m, phi, pair_cfg, rng)

        monkeypatch.setattr(paulisim, "estimate_monomial_sandwich", recorded)
        program = _PINNED_PROGRAMS[name]
        n = program[0].pauli.n
        res = simulate_noncommuting_pauli(program, x, qubit, cfg, np.random.default_rng(seed))
        assert float.hex(res.raw_value) == pinned
        assert min(ks) < 1 << n <= max(ks)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_noncommuting_pauli([], 0, 0, EstimatorConfig(), rng)
        with pytest.raises(NotHermitian):
            simulate_noncommuting_pauli(
                [MemberGate(0.1, parse_pauli("Z")), ExtraGate(0.1, parse_pauli("iX", 1))],
                0,
                0,
                EstimatorConfig(k_override=5),
                rng,
            )

    @pytest.mark.parametrize("gate_type", [PauliExpGate, MemberGate, ExtraGate])
    def test_gate_checks_its_own_hermiticity(self, gate_type):
        with pytest.raises(NotHermitian, match="^exponentiated Pauli must be Hermitian$"):
            gate_type(0.3, parse_pauli("iZ", 1))
        assert isinstance(gate_type(0.3, parse_pauli("Z")), PauliExpGate)

    def test_roles_are_distinct_gates(self):
        z = parse_pauli("Z")
        assert MemberGate(0.3, z) == MemberGate(0.3, z)
        assert MemberGate(0.3, z) != ExtraGate(0.3, z) != PauliExpGate(0.3, z)

    def test_program_entry_needs_a_role(self, rng):
        # a plain gate has no role; it was dropped, reading 1.0 for cos 0.6
        program = [MemberGate(0.1, parse_pauli("Z")), PauliExpGate(0.3, parse_pauli("X"))]
        with pytest.raises(TypeError, match="^program entry 1 is neither"):
            simulate_noncommuting_pauli(program, 0, 0, EstimatorConfig(k_override=5), rng)


def _random_program(n, k, rng):
    program = [
        MemberGate(float(rng.uniform(0, 2 * np.pi)), p)
        for p in random_commuting_paulis(n, int(rng.integers(1, n + 2)), rng)
    ]
    for _ in range(k):
        program.insert(
            int(rng.integers(len(program) + 1)),
            ExtraGate(float(rng.uniform(0.1, 1.4)), _random_hermitian_pauli(n, rng)),
        )
    return program


class TestBranches:
    def test_branch_state_is_evolved_basis_state(self, rng):
        # branch a is C^dag Sigma_a |x> = mu C^dag |z> for Sigma_a |x> = mu |z>
        for trial in range(12):
            n = int(rng.integers(1, 9))
            k = trial % 4
            program = _random_program(n, k, rng)
            extras = [g.pauli for g in program if isinstance(g, ExtraGate)]
            members = [(g.theta, g.pauli) for g in program if isinstance(g, MemberGate)]
            c, _, _ = compile_commuting_pauli(members)
            xv = int(rng.integers(1 << n))
            branches = paulisim._branches(program, c, bits_of(xv, n))
            choices = list(itertools.product((0, 1), repeat=k))
            assert len(branches) == len(choices)
            for choice, (_, _, _, psi) in zip(choices, branches):
                sigma = PauliOperator.identity(n)
                for take, p in reversed(list(zip(choice, extras))):
                    if take:
                        sigma = multiply(sigma, p)
                mu, z = 1j ** sigma.phase_exponent_on_basis(xv), xv ^ sigma.a
                want = evolve(bits_of(z, n), c.inverse())
                # same generators, so the same affine form and sample stream
                assert psi.generators == want.generators
                got, ref = psi.affine_form(), want.affine_form()
                assert (got.movers, got.zcons, got.y0) == (ref.movers, ref.zcons, ref.y0)
                ys = np.arange(1 << n, dtype=np.uint64)
                vec = [psi.amplitude_raw(y) for y in range(1 << n)]
                assert np.allclose(vec, [mu * want.amplitude_raw(y) for y in range(1 << n)],
                                   rtol=0, atol=1e-12)
                assert np.allclose(psi.amplitudes_raw_many(ys), mu * want.amplitudes_raw_many(ys),
                                   rtol=0, atol=1e-12)
                assert np.array_equal(psi.sample_many(40, np.random.default_rng(trial)),
                                      want.sample_many(40, np.random.default_rng(trial)))

    def test_one_evolution_per_estimate(self, rng, monkeypatch):
        calls = []

        def counting(x, c):
            calls.append(x)
            return evolve(x, c)

        monkeypatch.setattr(paulisim, "evolve", counting)
        for k in (0, 1, 3):
            calls.clear()
            program = _random_program(4, k, rng)
            simulate_noncommuting_pauli(program, "1010", 1, EstimatorConfig(k_override=64), rng)
            assert len(calls) == 1
