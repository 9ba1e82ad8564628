"""Acceptance gate: end-to-end statistical and exactness contracts.

Each test prints one PASS/FAIL line.  The dense statevector simulator is the
ground truth throughout; Monte-Carlo contracts are checked empirically at
their configured (epsilon, delta) budgets.
"""

import functools
import math
import time

import numpy as np
import pytest
from conftest import (
    commuting_pauli_exp_circuit,
    packed_label,
    pauli_statevector_matrix,
    random_commuting_paulis,
    random_hermitian,
    random_shallow_circuit,
    random_state_vector,
    shared_basis_diagonal_circuit,
)

from commsim.circuit import Circuit, DenseGate, NamedGate, PauliExpGate, check_pairwise_commuting
from commsim.cli import dispatch
from commsim.estimator import EstimatorConfig
from commsim.local2 import ProductState, simulate_2local, simulate_2local_phase_commuting
from commsim.oracle import (
    Observable,
    apply_circuit,
    expectation,
    matrix_element,
    product_state,
    run_circuit,
)
from commsim.pauli import PauliOperator, commutes, multiply
from commsim.paulisim import (
    ExtraGate,
    MemberGate,
    simulate_commuting_pauli,
    simulate_noncommuting_pauli,
)
from commsim.stabilizer import (
    CliffordCircuit,
    diagonalize_commuting_set,
    random_clifford_circuit,
)
from commsim.transformers import (
    DenseOracleExecutor,
    alternate_hadamard_test,
    estimate_cd_clifford_overlap,
    estimate_cd_overlap,
    hadamard_test,
    p0_to_value,
    two_layer_merge,
)

Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def _report(capsys, label: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{label}{tail}"


def _oracle_expectation(c: Circuit, inp: ProductState, obs: Observable) -> float:
    return expectation(apply_circuit(product_state(inp.factors, inp.d), c), obs)


def _dense_z_value(gate_list, n, x, qubit):
    c = Circuit(n, 2, [PauliExpGate(th, p) for th, p in gate_list])
    return expectation(run_circuit(c, x), Observable((qubit,), Z2))


def _p0(test: Circuit) -> float:
    t = run_circuit(test, [0] * test.n).tensor()
    return float(np.sum(np.abs(np.take(t, 0, axis=0)) ** 2))


def test_criterion_01_two_local_contraction_matches_oracle(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        d = 3 if trial % 4 == 3 else 2
        n = int(rng.integers(3, 9))
        if d == 2 and trial % 2:
            c = commuting_pauli_exp_circuit(n, int(rng.integers(2, 2 * n)), rng)
        else:
            c = shared_basis_diagonal_circuit(n, d, int(rng.integers(2, 2 * n)), rng)
        inp = ProductState([random_state_vector(d, rng) for _ in range(n)], d)
        k = int(rng.integers(1, 3))
        sup = tuple(sorted(int(q) for q in rng.choice(n, k, replace=False)))
        obs = Observable(sup, random_hermitian(d**k, rng))
        got = simulate_2local(c, inp, obs)
        worst = max(worst, abs(got - _oracle_expectation(c, inp, obs)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(
        capsys,
        "1 two-local contraction vs oracle",
        ok,
        f"200 instances, max dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_phase_commuting_extension(capsys):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        gates, fulls = [], []
        for _ in range(m):
            k = int(rng.integers(1, 3))
            sup = tuple(sorted(int(q) for q in rng.choice(n, k, replace=False)))
            while True:
                a = int(rng.integers(1 << k))
                b = int(rng.integers(1 << k))
                if a | b:
                    break
            local = PauliOperator(k, int(rng.integers(4)), a, b)
            av = bv = 0
            for pos, q in enumerate(sup):
                av |= ((a >> pos) & 1) << q
                bv |= ((b >> pos) & 1) << q
            fulls.append(PauliOperator(n, local.t, av, bv))
            gates.append(DenseGate(sup, pauli_statevector_matrix(local)))
        gamma = np.ones((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                if i != j and not commutes(fulls[i], fulls[j]):
                    gamma[i, j] = -1.0
        c = Circuit(n, 2, gates)
        inp = ProductState([random_state_vector(2, rng) for _ in range(n)], 2)
        q = int(rng.integers(n))
        obs = Observable((q,), random_hermitian(2, rng))
        got = simulate_2local_phase_commuting(c, gamma, inp, obs)
        worst = max(worst, abs(got - _oracle_expectation(c, inp, obs)))
    ok = worst <= 1e-9
    _report(capsys, "2 phase-commuting contraction vs oracle", ok, f"50 instances, max dev {worst:.2e}")


def test_criterion_03_simultaneous_diagonalization(capsys):
    rng = np.random.default_rng(103)
    all_z = True
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(1, 2 * n + 1))
        ps = random_commuting_paulis(n, m, rng)
        c, qs = diagonalize_commuting_set(ps)
        all_z = all_z and all(q.a == 0 for q in qs)
        if n <= 5:
            from commsim.oracle import circuit_unitary

            u = circuit_unitary(c.to_circuit())
            for p, q in zip(ps, qs):
                dev = np.max(
                    np.abs(
                        pauli_statevector_matrix(q)
                        - u.conj().T @ pauli_statevector_matrix(p) @ u
                    )
                )
                worst = max(worst, float(dev))
    # named regression: the Z-X-Z chain stabilizers of a 1D graph state
    n = 5
    chain = []
    for j in range(n):
        p = PauliOperator.single(n, "X", j)
        if j > 0:
            p = multiply(p, PauliOperator.single(n, "Z", j - 1))
        if j < n - 1:
            p = multiply(p, PauliOperator.single(n, "Z", j + 1))
        chain.append(p)
    c, qs = diagonalize_commuting_set(chain)
    chain_ok = all(q.a == 0 for q in qs)
    from commsim.oracle import circuit_unitary

    u = circuit_unitary(c.to_circuit())
    for p, q in zip(chain, qs):
        dev = np.max(
            np.abs(pauli_statevector_matrix(q) - u.conj().T @ pauli_statevector_matrix(p) @ u)
        )
        worst = max(worst, float(dev))
    ok = all_z and chain_ok and worst <= 1e-9
    _report(
        capsys,
        "3 commuting-set diagonalization",
        ok,
        f"200 sets all Z-type + chain regression, max dense dev {worst:.2e}",
    )


@functools.cache
def _weak_simulation_runs():
    rng = np.random.default_rng(104)
    cfg = EstimatorConfig(epsilon=0.05, delta=0.01)
    errors, violations, times = [], [], []
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 21))
        ps = random_commuting_paulis(n, m, rng, z_weight_cap=None)
        gate_list = [(float(rng.uniform(0, 2 * np.pi)), p) for p in ps]
        x = packed_label(int(rng.integers(1 << n)), n)
        want = _dense_z_value(gate_list, n, x, 0)
        t0 = time.perf_counter()
        res = simulate_commuting_pauli(gate_list, x, 0, cfg, rng)
        times.append(time.perf_counter() - t0)
        errors.append(abs(res.value - want))
        violations.append(res.max_modulus_violation)
    return errors, violations, times, cfg


def test_criterion_04_weak_simulation_contract(capsys):
    errors, _, times, cfg = _weak_simulation_runs()
    hits = sum(1 for e in errors if e <= cfg.epsilon)
    ok = hits >= 99 and max(times) <= 2.0 and cfg.k == 8478
    _report(
        capsys,
        "4 weak-simulation accuracy contract",
        ok,
        f"{hits}/100 within eps at K={cfg.k}, slowest run {max(times):.2f}s",
    )


def test_criterion_05_sample_variable_structure(capsys):
    _, violations, _, _ = _weak_simulation_runs()
    worst = max(violations)
    ok = worst <= 1e-12
    _report(capsys, "5 sample moduli in {0,1}", ok, f"max violation {worst:.2e}")


@functools.cache
def _noncommuting_runs():
    rng = np.random.default_rng(106)
    cfg = EstimatorConfig(epsilon=0.05, delta=0.01)
    errors = []
    for trial in range(50):
        k = 1 if trial < 25 else (2 if trial < 42 else 3)
        n = int(rng.integers(2, 9))
        members = [
            MemberGate(float(rng.uniform(0, 2 * np.pi)), p)
            for p in random_commuting_paulis(n, int(rng.integers(1, 6)), rng)
        ]
        extras = []
        for _ in range(k):
            while True:
                a = int(rng.integers(1 << n))
                b = int(rng.integers(1 << n))
                if a | b:
                    break
            t = (a & b).bit_count() & 1
            extras.append(ExtraGate(float(rng.uniform(0, 2 * np.pi)), PauliOperator(n, t, a, b)))
        program = list(members)
        for g in extras:
            program.insert(int(rng.integers(len(program) + 1)), g)
        x = packed_label(int(rng.integers(1 << n)), n)
        want = _dense_z_value([(g.theta, g.pauli) for g in program], n, x, 0)
        res = simulate_noncommuting_pauli(program, x, 0, cfg, rng)
        errors.append(abs(res.value - want))
    return errors, cfg


def test_criterion_06_noncommuting_extras(capsys):
    errors, cfg = _noncommuting_runs()
    hits = sum(1 for e in errors if e <= cfg.epsilon)
    # the zero-extras path must agree with the plain commuting path per seed
    rng = np.random.default_rng(1060)
    agree = True
    for _ in range(5):
        n = 4
        ps = random_commuting_paulis(n, 3, rng)
        gl = [(float(rng.uniform(0, 2 * np.pi)), p) for p in ps]
        c1 = simulate_commuting_pauli(
            gl, "1100", 0, EstimatorConfig(epsilon=0.1, delta=0.05), np.random.default_rng(77)
        )
        c2 = simulate_noncommuting_pauli(
            [MemberGate(th, p) for th, p in gl],
            "1100",
            0,
            EstimatorConfig(epsilon=0.1, delta=0.05),
            np.random.default_rng(77),
        )
        agree = agree and abs(c1.value - c2.value) <= 1e-9
    ok = hits == 50 and agree
    _report(
        capsys,
        "6 non-commuting extras contract",
        ok,
        f"{hits}/50 within eps, zero-extras path {'agrees' if agree else 'DISAGREES'}",
    )


def test_criterion_07_transformer_identities(capsys):
    rng = np.random.default_rng(107)
    worst = 0.0
    counts_ok = True
    for trial in range(100):
        n = int(rng.integers(2, 9))
        part = "real" if trial % 2 == 0 else "imag"
        kind = trial % 3
        if kind == 0:
            c = commuting_pauli_exp_circuit(n, int(rng.integers(1, n + 3)), rng)
            t = hadamard_test(c, part)
            check_pairwise_commuting(t)
            w = matrix_element(c, "0" * n, "0" * n)
        elif kind == 1:
            c = random_shallow_circuit(n, 2, rng)
            t = alternate_hadamard_test(c, part)
            counts_ok = counts_ok and len(t.gates) == math.ceil(len(c.gates) / 2) + 2
            w = matrix_element(c, "0" * n, "0" * n)
        else:
            c1 = commuting_pauli_exp_circuit(n, int(rng.integers(1, n + 2)), rng)
            c2 = shared_basis_diagonal_circuit(n, 2, int(rng.integers(1, n + 2)), rng)
            t = two_layer_merge(c1, c2, part)
            check_pairwise_commuting(t)
            prod = Circuit(n, 2, list(c2.gates) + list(c1.gates))
            w = matrix_element(prod, "0" * n, "0" * n)
        target = w.real if part == "real" else w.imag
        worst = max(worst, abs(p0_to_value(_p0(t)) - target))
    ok = worst <= 1e-9 and counts_ok
    _report(
        capsys,
        "7 ancilla-test identities",
        ok,
        f"100 instances, max dev {worst:.2e}, gate counts {'ok' if counts_ok else 'BAD'}",
    )


@functools.cache
def _overlap_runs():
    rng = np.random.default_rng(108)
    cfg = EstimatorConfig(epsilon=0.05, delta=0.05)
    ex = DenseOracleExecutor()
    errors = []
    for _ in range(100):
        n = int(rng.integers(4, 11))
        depth = int(rng.integers(1, 3))
        u = random_shallow_circuit(n, depth, rng)
        want = abs(matrix_element(u, "0" * n, "0" * n)) ** 2
        res = estimate_cd_overlap(u, cfg, ex, rng)
        errors.append(abs(res.value - want))
    cliff_errors = []
    for _ in range(20):
        n = int(rng.integers(3, 7))
        u = random_shallow_circuit(n, int(rng.integers(1, 3)), rng)
        c = random_clifford_circuit(n, 10, rng)
        full = Circuit(n, 2, list(u.gates) + list(c.to_circuit().gates))
        want = abs(matrix_element(full, "0" * n, "0" * n)) ** 2
        res = estimate_cd_clifford_overlap(u, c, cfg, ex, rng)
        cliff_errors.append(abs(res.value - want))
    return errors, cliff_errors, cfg


def test_criterion_08_shallow_overlap_pipeline(capsys):
    rng = np.random.default_rng(1080)
    errors, cliff_errors, cfg = _overlap_runs()
    failures = sum(1 for e in errors if e > 0.05)
    cliff_failures = sum(1 for e in cliff_errors if e > 0.05)
    ex = DenseOracleExecutor()
    ident = estimate_cd_overlap(
        Circuit(4, 2, [], layer_sizes=[]), cfg, ex, rng
    ).value
    hlayer = estimate_cd_overlap(
        Circuit(4, 2, [NamedGate("h", (q,)) for q in range(4)], layer_sizes=[4]),
        cfg,
        ex,
        rng,
    ).value
    closed_ok = abs(ident - 1.0) <= cfg.epsilon and abs(hlayer - 0.0625) <= cfg.epsilon
    ok = failures / 100 <= 0.05 and cliff_failures / 20 <= 0.05 and closed_ok
    _report(
        capsys,
        "8 shallow-overlap estimator",
        ok,
        f"{failures}/100 misses, {cliff_failures}/20 with Clifford, "
        f"identity {ident:.3f}, uniform-layer {hlayer:.4f}",
    )


def test_criterion_09_sample_sizing_and_failure_rates(capsys):
    k = EstimatorConfig(epsilon=0.05, delta=0.01).k
    errors4, _, _, cfg4 = _weak_simulation_runs()
    errors6, cfg6 = _noncommuting_runs()
    errors8, cliff8, cfg8 = _overlap_runs()
    rate4 = sum(1 for e in errors4 if e > cfg4.epsilon) / len(errors4)
    rate6 = sum(1 for e in errors6 if e > cfg6.epsilon) / len(errors6)
    rate8 = sum(1 for e in errors8 + cliff8 if e > cfg8.epsilon) / (len(errors8) + len(cliff8))
    ok = (
        k == 8478
        and rate4 <= cfg4.delta
        and rate6 <= cfg6.delta
        and rate8 <= cfg8.delta
    )
    _report(
        capsys,
        "9 sample sizing and failure rates",
        ok,
        f"K={k}, rates {rate4:.3f}/{rate6:.3f}/{rate8:.3f} vs "
        f"deltas {cfg4.delta}/{cfg6.delta}/{cfg8.delta}",
    )


def test_criterion_10_determinism_across_workers(capsys, tmp_path):
    circ = tmp_path / "c.qc"
    circ.write_text("circuit 3\nexppauli 0.4 ZZI\nexppauli 0.9 IZZ\n")
    shallow = tmp_path / "u.qc"
    shallow.write_text("circuit 3\nh 1\nh 2\n---\ncz 2 3\n")
    ok = True
    for argv_base in (
        ["paulisim", str(circ), "--qubit", "2", "--seed", "42", "--epsilon", "0.2", "--delta", "0.1"],
        ["depth-overlap", str(shallow), "--seed", "9", "--epsilon", "0.2", "--delta", "0.1"],
    ):
        outs = []
        for w in ("1", "4", "8"):
            code = dispatch(argv_base + ["--workers", w])
            cap = capsys.readouterr()
            ok = ok and code == 0
            outs.append(cap.out)
        ok = ok and outs[0] == outs[1] == outs[2] and outs[0]
    _report(capsys, "10 determinism across worker counts", bool(ok), "byte-identical stdout")
