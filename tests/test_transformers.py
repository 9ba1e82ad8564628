"""Ancilla-test compilers and the shallow-circuit overlap estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    commuting_pauli_exp_circuit,
    random_shallow_circuit,
    random_unitary,
    shared_basis_diagonal_circuit,
)

from commsim.circuit import (
    Circuit,
    DenseGate,
    NamedGate,
    check_pairwise_commuting,
    embed_matrix,
    gate_matrix,
)
from commsim import oracle, transformers
from commsim.errors import (
    BatchMismatch,
    CapacityExceeded,
    LightconeTooLarge,
    NotCommuting,
    ProbabilityOutOfRange,
    SizeMismatch,
)
from commsim.estimator import EstimatorConfig
from commsim.oracle import DenseOracleExecutor, matrix_element, run_circuit
from commsim.pauli import PauliOperator
from commsim.stabilizer import CliffordCircuit, conjugate_pauli, random_clifford_circuit
from commsim.transformers import (
    alternate_hadamard_test,
    estimate_cd_clifford_overlap,
    estimate_cd_overlap,
    hadamard_test,
    _conjugate_through,
    _subset_plan,
    p0_to_value,
    two_layer_merge,
)


def _p0(test: Circuit) -> float:
    s = run_circuit(test, [0] * test.n)
    t = s.tensor()
    return float(np.sum(np.abs(np.take(t, 0, axis=0)) ** 2))


def _overlap(c: Circuit) -> complex:
    return matrix_element(c, "0" * c.n, "0" * c.n)


def _embedded_p0(pool: Circuit, test: tuple[int, ...]) -> float:
    """p(0) of qudit 0 after a test, each gate embedded on the whole register.

    Independent of the oracle's gate kernel, which the executor shares.
    """
    n, d = pool.n, pool.d
    v = np.zeros(d**n, dtype=complex)
    v[0] = 1.0
    for i in test:
        g = pool.gates[i]
        v = embed_matrix(gate_matrix(g, d), g.support, tuple(range(n)), d) @ v
    return float(np.sum(np.abs(v[: d ** (n - 1)]) ** 2))


class _RecordingExecutor(DenseOracleExecutor):
    """Dense executor that keeps every test it runs, rebuilt as a circuit."""

    def __init__(self):
        super().__init__()
        self.tests: list[Circuit] = []

    def run_counts_many(self, pool, tests, shots, rng):
        self.tests += [Circuit(pool.n, pool.d, [pool.gates[i] for i in t]) for t in tests]
        return super().run_counts_many(pool, tests, shots, rng)


class TestHadamardTest:
    def test_real_and_imag_identity(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            c = commuting_pauli_exp_circuit(n, int(rng.integers(1, 2 * n)), rng)
            w = _overlap(c)
            tr = hadamard_test(c, "real")
            ti = hadamard_test(c, "imag")
            assert p0_to_value(_p0(tr)) == pytest.approx(w.real, abs=1e-9)
            assert p0_to_value(_p0(ti)) == pytest.approx(w.imag, abs=1e-9)

    def test_output_commutes_and_counts(self, rng):
        c = commuting_pauli_exp_circuit(4, 5, rng)
        for part in ("real", "imag"):
            t = hadamard_test(c, part)
            assert t.n == c.n + 1
            assert len(t.gates) == len(c.gates)
            check_pairwise_commuting(t)

    def test_empty_circuit(self):
        t = hadamard_test(Circuit(3, 2, []))
        assert p0_to_value(_p0(t)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_noncommuting(self):
        c = Circuit(1, 2, [NamedGate("x", (0,)), NamedGate("z", (0,))])
        with pytest.raises(NotCommuting):
            hadamard_test(c)


class TestAlternateHadamardTest:
    def test_identity_arbitrary_circuits(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            c = random_shallow_circuit(n, 2, rng)
            w = _overlap(c)
            assert p0_to_value(_p0(alternate_hadamard_test(c, "real"))) == pytest.approx(
                w.real, abs=1e-9
            )
            assert p0_to_value(_p0(alternate_hadamard_test(c, "imag"))) == pytest.approx(
                w.imag, abs=1e-9
            )

    def test_gate_count_halved(self, rng):
        for size in (3, 4, 7):
            c = random_shallow_circuit(6, 1, rng)
            gates = (c.gates * 4)[:size]
            c = Circuit(6, 2, list(gates))
            t = alternate_hadamard_test(c)
            assert len(t.gates) == math.ceil(size / 2) + 2

    def test_noncommuting_input_allowed(self, rng):
        c = Circuit(2, 2, [NamedGate("x", (0,)), NamedGate("z", (0,)), NamedGate("h", (1,))])
        w = _overlap(c)
        got = p0_to_value(_p0(alternate_hadamard_test(c, "real")))
        assert got == pytest.approx(w.real, abs=1e-9)


class TestTwoLayerMerge:
    def test_identity_two_layers(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            c1 = shared_basis_diagonal_circuit(n, 2, int(rng.integers(1, n + 2)), rng)
            c2 = commuting_pauli_exp_circuit(n, int(rng.integers(1, n + 2)), rng)
            # C1 C2 as an operator product: the C2 gates are applied first
            prod = Circuit(n, 2, list(c2.gates) + list(c1.gates))
            w = _overlap(prod)
            tr = two_layer_merge(c1, c2, "real")
            ti = two_layer_merge(c1, c2, "imag")
            assert p0_to_value(_p0(tr)) == pytest.approx(w.real, abs=1e-9)
            assert p0_to_value(_p0(ti)) == pytest.approx(w.imag, abs=1e-9)

    def test_output_commutes(self, rng):
        c1 = commuting_pauli_exp_circuit(4, 4, rng)
        c2 = commuting_pauli_exp_circuit(4, 4, rng)
        for part in ("real", "imag"):
            check_pairwise_commuting(two_layer_merge(c1, c2, part))

    def test_empty_layers(self):
        t = two_layer_merge(Circuit(2, 2, []), Circuit(2, 2, []))
        assert p0_to_value(_p0(t)) == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(SizeMismatch):
            two_layer_merge(Circuit(2, 2, []), Circuit(3, 2, []))


class TestInputChecks:
    """Every ancilla test checks part, then register shape, then d = 2, then commutation."""

    def test_check_order(self):
        shift = np.roll(np.eye(3), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        # a qutrit circuit whose gates do not commute fails the d check first
        q3 = Circuit(1, 3, [DenseGate((0,), shift), DenseGate((0,), clock)])
        bad = Circuit(1, 2, [NamedGate("x", (0,)), NamedGate("z", (0,))])
        for fn in (hadamard_test, alternate_hadamard_test):
            with pytest.raises(ValueError, match="part"):
                fn(q3, "both")
            with pytest.raises(ValueError, match="qubits"):
                fn(q3)
        with pytest.raises(ValueError, match="part"):
            two_layer_merge(q3, Circuit(2, 2, []), "both")
        with pytest.raises(SizeMismatch):
            two_layer_merge(q3, bad)
        with pytest.raises(ValueError, match="qubits"):
            two_layer_merge(q3, q3)
        with pytest.raises(NotCommuting):
            two_layer_merge(bad, bad)
        two_layer_merge(bad, bad, check=False)


class TestExecutor:
    def test_outcomes_follow_born_rule(self, rng):
        c = Circuit(2, 2, [NamedGate("h", (0,))])
        hits = DenseOracleExecutor().run_counts(c, 2000, rng)
        assert 0 <= hits <= 2000
        assert abs(hits / 2000 - 0.5) < 0.05

    def test_counts_match_probability(self, rng):
        c = Circuit(1, 2, [NamedGate("x", (0,))])
        ex = DenseOracleExecutor()
        assert ex.run_counts(c, 100, rng) == 0
        assert ex.run_counts(Circuit(1, 2, []), 100, rng) == 100

    def test_reused_executor_matches_fresh(self, rng):
        g4 = [DenseGate(p, random_unitary(4, rng)) for p in [(0, 1), (2, 3), (1, 2), (0, 3)]]
        g3 = [DenseGate(p, random_unitary(4, rng)) for p in [(0, 1), (1, 2)]]
        batches = [
            (Circuit(4, 2, g4), [(0, 1, 2, 3), (0, 1), (0, 1, 3), (0, 1, 2), (), (1, 2, 3)]),
            (Circuit(3, 2, g3), [(0, 1), (0,)]),
            (Circuit(4, 2, g4), [(0, 1, 2, 3), (0, 1, 2), (0, 1, 2, 3)]),
        ]
        ex = DenseOracleExecutor()  # one executor across batches of different shapes
        for pool, tests in batches:
            p = ex._p_zero(pool, tests)
            for t in tests:
                assert p[t] == DenseOracleExecutor()._p_zero(pool, [t])[t]

    @pytest.mark.parametrize("d", [2, 3])
    def test_p_plus_is_outcome_zero_weight(self, rng, d):
        gates = [
            DenseGate(p, random_unitary(d ** len(p), rng))
            for p in [(0, 2), (1, 3), (0, 1, 3), (2,), (0, 3)]
        ]
        tests = [tuple(range(k)) for k in (5, 3, 4, 1, 5, 0)]  # nested prefixes
        pool = Circuit(4, d, gates)
        p = DenseOracleExecutor()._p_zero(pool, tests)
        for t in tests:
            assert p[t] == pytest.approx(_embedded_p0(pool, t), abs=1e-14)

    def test_saved_states_within_cap(self, rng, monkeypatch):
        gates = [DenseGate(p, random_unitary(4, rng)) for p in [(0, 1), (1, 2), (0, 2)] * 2]
        pool = Circuit(3, 2, gates)
        tests = [tuple(range(k)) for k in (6, 4, 5, 2, 6)]
        refused = []
        push = oracle._Held.push

        def checked_push(self, *args):
            before = len(self.states)
            push(self, *args)
            assert self.size == sum(s.amplitudes.size for _, _, s in self.states) <= self.cap
            refused.append(len(self.states) == before)

        monkeypatch.setattr(oracle._Held, "push", checked_push)
        p = DenseOracleExecutor(cap=20)._p_zero(pool, tests)  # room for two 8-amplitude states
        monkeypatch.undo()
        assert any(refused) and not all(refused)
        want = DenseOracleExecutor()._p_zero(pool, tests)
        for t in tests:
            assert p[t] == pytest.approx(want[t], abs=1e-14)


@st.composite
def _batches(draw):
    """A random pool and tests with duplicates, empty tests and nested prefixes."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        # unsorted qudit tuples, some missing qudit 0, some empty (a phase)
        q = tuple(draw(st.permutations(range(n)))[: draw(st.integers(0, min(n, 3)))])
        gates.append(DenseGate(q, random_unitary(d ** len(q), rng)))
    index = st.integers(0, len(gates) - 1)
    tests = draw(st.lists(st.lists(index, max_size=5).map(tuple), min_size=1, max_size=8))
    tests += [t[: draw(st.integers(0, len(t)))] for t in tests]  # prefixes of tests
    tests += draw(st.lists(st.sampled_from(tests), max_size=3))  # duplicates
    return Circuit(n, d, gates), draw(st.permutations(tests))


class TestBatchExecutor:
    @settings(max_examples=60, deadline=None)
    @given(_batches(), st.data())
    def test_batch_matches_full_register(self, batch, data):
        pool, tests = batch
        ex = DenseOracleExecutor()
        p = ex._p_zero(pool, tests)
        for t in tests:
            assert p[t] == pytest.approx(_embedded_p0(pool, t), abs=1e-14)
        # p of a test depends on its own gates only, whatever the order
        assert ex._p_zero(pool, data.draw(st.permutations(tests))) == p
        size = len(tests)
        shots = data.draw(st.lists(st.integers(0, 50), min_size=size, max_size=size))
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = ex.run_counts_many(pool, tests, shots, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        one_by_one = [
            ex.run_counts(Circuit(pool.n, pool.d, [pool.gates[i] for i in t]), k, rng)
            for t, k in zip(tests, shots)
        ]
        assert got == one_by_one

    # a batch error comes first, even when the pool exceeds the executor's cap
    @pytest.mark.parametrize("ex", [DenseOracleExecutor(), DenseOracleExecutor(cap=2)])
    @pytest.mark.parametrize("tests,shots", [
        ([(0, 2)], [5]),  # index past the pool
        ([(0, -1)], [5]),  # negative index
        ([(0,), (1,)], [5]),  # fewer shot counts than tests
        ([(0,)], [5, 5]),
    ])
    def test_bad_batch_raises_before_any_state(self, ex, tests, shots, monkeypatch):
        pool = Circuit(2, 2, [NamedGate("h", (0,)), NamedGate("x", (1,))])

        def no_state(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(oracle, "StateVector", no_state)
        with pytest.raises(BatchMismatch):
            ex.run_counts_many(pool, tests, shots, np.random.default_rng(0))

    @pytest.mark.parametrize("scale", [1.1, math.nan])
    def test_bad_probability_raises(self, scale, monkeypatch):
        pool = Circuit(2, 2, [DenseGate((0,), np.eye(2, dtype=complex))])
        def scaled(g, d):
            return scale * gate_matrix(g, d)

        monkeypatch.setattr(oracle, "gate_matrix", scaled)
        ex = DenseOracleExecutor()
        with pytest.raises(ProbabilityOutOfRange):
            ex.run_counts_many(pool, [(0,)], [5], np.random.default_rng(0))
        # a full state that the executor keeps fails the norm check instead
        with pytest.raises(ValueError, match="state norm"):
            ex.run_counts_many(pool, [(0, 0)], [5], np.random.default_rng(0))

    def test_capacity_checked_before_any_state(self, monkeypatch):
        # the touched states would be tiny, but the register holds 2^5 > 16
        pool = Circuit(5, 2, [NamedGate("h", (0,))])
        monkeypatch.setattr(oracle, "StateVector", None)
        ex = DenseOracleExecutor(cap=16)
        with pytest.raises(CapacityExceeded):
            ex.run_counts_many(pool, [(0,)], [5], np.random.default_rng(0))


class TestOverlapEstimators:
    def test_identity_circuit_exact(self, rng):
        u = Circuit(4, 2, [], layer_sizes=[])
        cfg = EstimatorConfig(epsilon=0.2, delta=0.1, k_override=64)
        res = estimate_cd_overlap(u, cfg, DenseOracleExecutor(), rng)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_layer_closed_form(self, rng):
        u = Circuit(4, 2, [NamedGate("h", (q,)) for q in range(4)], layer_sizes=[4])
        cfg = EstimatorConfig(epsilon=0.05, delta=0.05)
        res = estimate_cd_overlap(u, cfg, DenseOracleExecutor(), rng)
        assert abs(res.value - 0.0625) <= cfg.epsilon

    def test_random_shallow_matches_dense(self, rng):
        misses = 0
        cfg = EstimatorConfig(epsilon=0.15, delta=0.1)
        for _ in range(5):
            n = int(rng.integers(4, 7))
            u = random_shallow_circuit(n, 2, rng)
            want = abs(_overlap(u)) ** 2
            res = estimate_cd_overlap(u, cfg, DenseOracleExecutor(), rng)
            if abs(res.value - want) > cfg.epsilon:
                misses += 1
            assert 0.0 <= res.value <= 1.0
        assert misses == 0

    def test_lightcone_bound(self, rng):
        # a CNOT staircase: the backward lightcone of Z_10 spans all 10 qubits
        u = Circuit(10, 2, [NamedGate("cnot", (k, k + 1)) for k in range(9)])
        cfg = EstimatorConfig(epsilon=0.3, delta=0.2, k_override=4)
        with pytest.raises(LightconeTooLarge, match="spread to 9 qubits"):
            estimate_cd_overlap(u, cfg, DenseOracleExecutor(), rng)

    def test_clifford_variant_matches_dense(self, rng):
        misses = 0
        cfg = EstimatorConfig(epsilon=0.15, delta=0.1)
        for _ in range(4):
            n = 4
            u = random_shallow_circuit(n, 1, rng)
            c = random_clifford_circuit(n, 8, rng)
            full = Circuit(n, 2, list(u.gates) + list(c.to_circuit().gates))
            want = abs(_overlap(full)) ** 2
            res = estimate_cd_clifford_overlap(u, c, cfg, DenseOracleExecutor(), rng)
            if abs(res.value - want) > cfg.epsilon:
                misses += 1
        assert misses == 0

    def test_conjugation_follows_gate_order_within_a_layer(self, rng):
        # overlapping gates with no layer separators form a single layer
        gates = [DenseGate((0, 1), random_unitary(4, rng)), DenseGate((1, 2), random_unitary(4, rng))]
        probs = [abs(matrix_element(Circuit(3, 2, gates), "000", y)) ** 2 for y in range(8)]
        for sizes in (None, [1, 1]):
            u = Circuit(3, 2, gates, layer_sizes=sizes)
            for j in range(3):
                _, m = _conjugate_through(u, PauliOperator(3, 0, 0, 1 << j))
                # <0|U^dag Z_j U|0> = sum_y |<y|U|0>|^2 (-1)^{y_j}, qubit 1 most significant
                want = sum(p * (-1) ** ((y >> (2 - j)) & 1) for y, p in enumerate(probs))
                assert m[0, 0].real == pytest.approx(want, abs=1e-12)

    def test_estimators_need_qubits(self, rng):
        u = Circuit(2, 3, [])
        cfg = EstimatorConfig(k_override=2)
        with pytest.raises(ValueError, match="defined for qubits"):
            estimate_cd_overlap(u, cfg, DenseOracleExecutor(), rng)
        with pytest.raises(ValueError, match="defined for qubits"):
            estimate_cd_clifford_overlap(
                u, random_clifford_circuit(2, 2, rng), cfg, DenseOracleExecutor(), rng
            )

    def test_estimators_limit_qubits(self, rng):
        u = Circuit(70, 2, [NamedGate("h", (0,))])
        cfg = EstimatorConfig(k_override=2)
        with pytest.raises(CapacityExceeded, match="at most 64 qubits"):
            estimate_cd_overlap(u, cfg, DenseOracleExecutor(), rng)
        with pytest.raises(CapacityExceeded, match="at most 64 qubits"):
            estimate_cd_clifford_overlap(
                u, random_clifford_circuit(70, 2, rng), cfg, DenseOracleExecutor(), rng
            )

    def test_identity_observable_raises_before_any_matrix(self):
        # a 2^40-dimensional identity would not fit in memory
        with pytest.raises(ValueError, match="no pivot"):
            _conjugate_through(Circuit(40, 2, []), PauliOperator.identity(40))

    @pytest.mark.parametrize(
        "seed,n,plain,clifford",
        [
            (61, 5, 0.0399862258953168, -0.009063360881542708),
            (62, 6, 0.046129476584022035, 0.009173553719008277),
        ],
    )
    def test_raw_values_pinned(self, seed, n, plain, clifford):
        # any change of gate order or rng use shows up here as a changed count
        rng = np.random.default_rng(seed)
        u = random_shallow_circuit(n, 2, rng)
        c = random_clifford_circuit(n, 4 * n, rng)
        cfg = EstimatorConfig(epsilon=0.2, delta=0.1, k_override=48)
        a = estimate_cd_overlap(u, cfg, DenseOracleExecutor(), np.random.default_rng(seed + 100))
        b = estimate_cd_clifford_overlap(
            u, c, cfg, DenseOracleExecutor(), np.random.default_rng(seed + 100)
        )
        assert a.raw_value == pytest.approx(plain, abs=1e-12)
        assert b.raw_value == pytest.approx(clifford, abs=1e-12)

    @pytest.mark.parametrize("seed,n", [(71, 1), (72, 3), (73, 5), (74, 7)])
    def test_plain_is_identity_clifford_case(self, seed, n):
        u = random_shallow_circuit(n, 2, np.random.default_rng(seed))
        cfg = EstimatorConfig(epsilon=0.2, delta=0.1, k_override=64)
        a = estimate_cd_overlap(u, cfg, DenseOracleExecutor(), np.random.default_rng(seed))
        b = estimate_cd_clifford_overlap(
            u, CliffordCircuit(n, ()), cfg, DenseOracleExecutor(), np.random.default_rng(seed)
        )
        assert a.raw_value == b.raw_value
        assert a.k == b.k

    def test_clifford_variant_builds_each_merged_gate_once(self, monkeypatch):
        n = 6
        rng = np.random.default_rng(3)  # half the images C^dag Z(S) C have odd phase
        u = random_shallow_circuit(n, 2, rng)
        c = random_clifford_circuit(n, 4 * n, rng)
        cfg = EstimatorConfig(epsilon=0.2, delta=0.1, k_override=200)
        merges = []

        def counting_merge(*args, **kwargs):
            merges.append(args)
            return two_layer_merge(*args, **kwargs)

        monkeypatch.setattr(transformers, "two_layer_merge", counting_merge)
        ex = _RecordingExecutor()
        estimate_cd_clifford_overlap(u, c, cfg, ex, np.random.default_rng(5))
        monkeypatch.undo()
        masks = _subset_plan(n, cfg, np.random.default_rng(5))[0].tolist()
        assert len(ex.tests) == len(masks)
        cx = [_conjugate_through(u, PauliOperator(n, 0, 1 << k, 0)) for k in range(n)]
        cz = [_conjugate_through(u, PauliOperator(n, 0, 0, 1 << k)) for k in range(n)]
        keys, parts = set(), set()
        for test, mask in zip(ex.tests, masks):
            p = conjugate_pauli(c.inverse(), PauliOperator(n, 0, 0, mask))
            part = "real" if p.t % 2 == 0 else "imag"
            parts.add(part)
            layer1 = Circuit(n, 2, [DenseGate(*cx[k]) for k in range(n) if (p.a >> k) & 1])
            layer2 = Circuit(n, 2, [DenseGate(*cz[k]) for k in range(n) if (p.b >> k) & 1])
            assert _p0(test) == pytest.approx(_p0(two_layer_merge(layer1, layer2, part)), abs=1e-12)
            for i, g in enumerate(test.gates):
                sup = tuple(q - 1 for q in g.support[1:])
                a = sum(1 << k for k in range(n) if (p.a >> k) & 1 and cx[k][0] == sup)
                b = sum(1 << k for k in range(n) if (p.b >> k) & 1 and cz[k][0] == sup)
                closing = part == "imag" and i == len(test.gates) - 1
                keys.add((sup, a, b, closing))
                # an Im test ends with its closing gate; every other gate is a Re gate
                want = two_layer_merge(
                    Circuit(n, 2, [DenseGate(*cx[k]) for k in range(n) if (a >> k) & 1]),
                    Circuit(n, 2, [DenseGate(*cz[k]) for k in range(n) if (b >> k) & 1]),
                    "imag" if closing else "real",
                ).gates[0]
                assert g.support == want.support
                assert np.allclose(g.matrix, want.matrix, atol=1e-12)
        assert parts == {"real", "imag"}
        total = sum(len(t.gates) for t in ex.tests)
        distinct = {id(g) for t in ex.tests for g in t.gates}
        assert len(merges) == len(distinct) <= len(keys)
        assert 5 * len(keys) < total

    def test_clifford_variant_size_check(self, rng):
        u = random_shallow_circuit(4, 1, rng)
        c = random_clifford_circuit(3, 4, rng)
        with pytest.raises(SizeMismatch):
            estimate_cd_clifford_overlap(
                u, c, EstimatorConfig(k_override=2), DenseOracleExecutor(), rng
            )
