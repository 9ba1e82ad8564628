"""Circuit IR: gate matrices, commutation checks, text format."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    circuits_equal,
    commuting_pauli_exp_circuit,
    random_unitary,
)

from commsim.circuit import (
    MAX_DIM,
    MAX_QUDITS,
    NAMED_ARITY,
    Circuit,
    ControlledGate,
    DenseGate,
    NamedGate,
    PauliExpGate,
    check_pairwise_commuting,
    embed_matrix,
    gate_matrix,
    is_commuting_pair,
    parse_circuit,
    serialize_circuit,
)
from commsim.errors import NotCommuting, ParseError
from commsim.oracle import circuit_unitary
from commsim.pauli import PauliOperator, parse_pauli

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class TestGateMatrices:
    def test_named(self):
        assert np.allclose(gate_matrix(NamedGate("h", (0,)), 2), H)
        assert np.allclose(gate_matrix(NamedGate("cnot", (0, 1)), 2), CNOT)

    def test_cnot_reversed_control(self):
        m = gate_matrix(NamedGate("cnot", (1, 0)), 2)
        # control is qubit 2, target qubit 1; axes ordered (q1, q2)
        want = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert np.allclose(m, want)

    def test_pauli_exp(self):
        theta = 0.37
        g = PauliExpGate(theta, parse_pauli("XZ"))
        p = np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]]).astype(complex)
        want = math.cos(theta) * np.eye(4) + 1j * math.sin(theta) * p
        assert np.allclose(gate_matrix(g, 2), want)

    def test_pauli_exp_ignores_identity_columns(self):
        g = PauliExpGate(0.5, parse_pauli("IXI"))
        assert g.support == (1,)
        assert gate_matrix(g, 2).shape == (2, 2)

    def test_identity_pauli_exp_is_a_phase(self):
        # its support is empty, so its matrix is 1x1 (it used to be 2x2)
        theta = 0.3
        g = PauliExpGate(theta, parse_pauli("-II"))
        assert gate_matrix(g, 2).shape == (1, 1)
        u = circuit_unitary(Circuit(2, 2, [g, ControlledGate(1, g)]))
        phase = np.exp(-1j * theta)
        assert np.allclose(u, phase * np.diag([1, phase, 1, phase]))

    def test_controlled(self):
        g = ControlledGate(1, NamedGate("x", (0,)))
        # control qubit 2, target qubit 1 -> same matrix as cnot 2 1
        assert np.allclose(gate_matrix(g, 2), gate_matrix(NamedGate("cnot", (1, 0)), 2))

    def test_controlled_control_on_either_side(self, rng):
        # control above, below and between a dense inner gate, against the
        # control-major block diag(I, U) permuted into sorted axis order
        u = random_unitary(4, rng)
        for control, inner in ((0, (1, 2)), (2, (0, 1)), (1, (0, 2))):
            g = ControlledGate(control, DenseGate(inner, u))
            block = np.kron(np.diag([1, 0]), np.eye(4)) + np.kron(np.diag([0, 1]), u)
            order = (control, *inner)
            want = block.reshape((2,) * 6).transpose(
                [order.index(q) for q in range(3)] + [3 + order.index(q) for q in range(3)]
            ).reshape(8, 8)
            assert np.allclose(gate_matrix(g, 2), want)

    def test_controlled_overlapping_control_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            gate_matrix(ControlledGate(0, NamedGate("cnot", (1, 0))), 2)

    @pytest.mark.parametrize(
        "gate",
        [
            lambda: ControlledGate(0, NamedGate("cnot", (1, 0))),
            lambda: ControlledGate(2, ControlledGate(0, NamedGate("x", (0,)))),
            lambda: ControlledGate(0, NamedGate("x", (0,))),
            lambda: ControlledGate(0, ControlledGate(1, NamedGate("x", (0,)))),
        ],
        ids=["gate0", "gate1", "gate2", "gate3"],
    )
    def test_circuit_rejects_overlapping_control(self, gate):
        # built inside the test: the gate refuses itself at construction,
        # before any circuit or run sees it
        with pytest.raises(ValueError, match="^control qubit overlaps inner gate support$"):
            Circuit(3, 2, [gate()])

    @pytest.mark.parametrize(
        "name,qubits,match",
        [
            ("foo", (0,), "no named gate 'foo' on 1 qubit"),
            ("cnot", (0,), "no named gate 'cnot' on 1 qubit"),
            ("h", (0, 1), "no named gate 'h' on 2 qubit"),
            ("cnot", (1, 1), "distinct"),
        ],
    )
    def test_named_gate_checked_by_gate(self, name, qubits, match):
        with pytest.raises(ValueError, match=match):
            NamedGate(name, qubits)

    def test_named_gate_leaves_the_register_to_the_circuit(self):
        g = NamedGate("h", (-1,))  # signs and range are the register's to check
        with pytest.raises(ValueError, match="outside register"):
            Circuit(2, 2, [g])

    def test_dense_unitarity_enforced(self):
        with pytest.raises(ValueError):
            Circuit(1, 2, [DenseGate((0,), np.array([[1, 0], [0, 2.0]]))])

    def test_dense_gate_checked_once_and_frozen(self, rng):
        with pytest.raises(ValueError, match="not square"):
            DenseGate((0,), np.ones((2, 3)))
        with pytest.raises(ValueError, match="not unitary"):
            DenseGate((0,), np.array([[1, 0], [0, 2.0]]))
        m = random_unitary(2, rng)
        g = DenseGate((0,), m)
        m[0, 0] = 5.0  # the gate holds its own copy
        assert np.allclose(g.matrix.conj().T @ g.matrix, np.eye(2))
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dense_rejected(self, bad):
        with pytest.raises(ValueError, match="not unitary"):
            DenseGate((0,), np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_dense_qudits_checked_by_gate(self):
        eye4 = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="distinct"):
            DenseGate((1, 1), eye4)
        with pytest.raises(ValueError, match="negative"):
            DenseGate((-1, 0), eye4)
        # the circuit still checks the register bound and the shape against d
        with pytest.raises(ValueError, match="outside register"):
            Circuit(2, 2, [DenseGate((0, 2), eye4)])
        with pytest.raises(ValueError, match="does not match support"):
            Circuit(3, 3, [DenseGate((0, 2), eye4)])

    def test_embed_matrix_kron_identity(self, rng):
        m = random_unitary(2, rng)
        big = embed_matrix(m, (1,), (0, 1, 2), 2)
        want = np.kron(np.kron(np.eye(2), m), np.eye(2))
        assert np.allclose(big, want)


class TestCommutation:
    def test_disjoint_supports_commute(self):
        assert is_commuting_pair(NamedGate("x", (0,)), NamedGate("z", (1,)))

    def test_xz_anticommute(self):
        assert not is_commuting_pair(NamedGate("x", (0,)), NamedGate("z", (0,)))

    def test_check_reports_pair(self):
        c = Circuit(2, 2, [NamedGate("z", (1,)), NamedGate("x", (0,)), NamedGate("z", (0,))])
        err = pytest.raises(NotCommuting, check_pairwise_commuting, c).value
        assert (err.i, err.j) == (1, 2)

    def test_commuting_pauli_exp_circuit_passes(self, rng):
        check_pairwise_commuting(commuting_pauli_exp_circuit(5, 6, rng))


def _random_gate(n: int, d: int, free: list[int], rng: np.random.Generator):
    """A gate of any kind on the qudits in ``free``, qudits in random order."""
    kinds = ["dense"] if d != 2 else ["named", "dense", "exppauli"] + ["ctrl"] * (len(free) > 1)
    kind = kinds[rng.integers(len(kinds))]

    def pick(k):
        return tuple(int(q) for q in rng.choice(free, size=k, replace=False))

    if kind == "named":
        name = str(rng.choice([g for g, ar in NAMED_ARITY.items() if ar <= len(free)]))
        return NamedGate(name, pick(NAMED_ARITY[name]))
    if kind == "dense":
        k = int(rng.integers(min(2, len(free)) + 1))
        return DenseGate(pick(k), random_unitary(d**k, rng))
    if kind == "exppauli":
        mask = sum(1 << q for q in free)
        a, b = (int(rng.integers(1 << n)) & mask for _ in range(2))
        t = (a & b).bit_count() % 2 + 2 * int(rng.integers(2))
        return PauliExpGate(float(rng.uniform(-4.0, 4.0)), PauliOperator(n, t, a, b))
    control = int(rng.choice(free))
    return ControlledGate(control, _random_gate(n, d, [q for q in free if q != control], rng))


class TestTextFormat:
    def test_header_variants(self):
        assert parse_circuit("circuit 3\n").n == 3
        c = parse_circuit("circuit 2 dim 3\n")
        assert (c.n, c.d) == (2, 3)

    def test_gates_and_layers(self):
        text = (
            "# a comment\n"
            "circuit 3\n"
            "h 1\n"
            "cnot 1 2   # trailing comment\n"
            "---\n"
            "exppauli 0.25 -XZI\n"
            "ctrl 3 x 1\n"
        )
        c = parse_circuit(text)
        assert [type(g).__name__ for g in c.gates] == [
            "NamedGate",
            "NamedGate",
            "PauliExpGate",
            "ControlledGate",
        ]
        assert c.layer_sizes == [2, 2]
        assert c.gates[3].control == 2

    @pytest.mark.parametrize(
        "text,line",
        [
            ("circuit x\n", 1),
            ("circuit 2\nbogus 1\n", 2),
            ("circuit 2\nh 3\n", 2),
            ("circuit 2\ncnot 1 1\n", 2),
            ("circuit 2\nexppauli 0.1 iZ\n", 2),
            ("circuit 2\n\nh 0\n", 3),
            ("circuit 2\ndense 1 1 1.0 0.0\n", 2),
            ("circuit 2\nh 1\ndense 1 2 1 0 0 0 0 0 2 0\n", 3),
            # header: missing, malformed, 'dim' keyword, count, dimension, n, d
            ("", 1),
            ("# only a comment\n\n", 1),
            ("circuit\n", 1),
            ("# c\nqc 2\n", 2),
            ("circuit 2 dim\n", 1),
            ("circuit 2 dum 3\n", 1),
            ("\ncircuit 2.5\n", 2),
            ("circuit 2 dim x\n", 1),
            ("circuit 0\n", 1),
            ("circuit 2 dim 1\n", 1),
            # header bounds, refused before anything is allocated
            (f"circuit {MAX_QUDITS + 1}\n", 1),
            ("circuit 99999999999999999999\n", 1),
            (f"circuit 2 dim {MAX_DIM + 1}\n", 1),
            ("circuit 2 dim 99999999999999999999\n", 1),
            # arity, and a bad or out-of-range index
            ("circuit 2\nh 1 2\n", 2),
            ("circuit 2\ncnot 1\n", 2),
            ("circuit 2\nh a\n", 2),
            ("circuit 2\ncz 1 -1\n", 2),
            # exppauli: arity, angle, non-finite angle, long Pauli, bad letter
            ("circuit 2\nexppauli 0.1\n", 2),
            ("circuit 2\nexppauli x ZZ\n", 2),
            ("circuit 2\nexppauli inf ZZ\n", 2),
            ("circuit 2\nexppauli nan Z\n", 2),
            ("circuit 2\nexppauli 0.1 ZZZ\n", 2),
            ("circuit 2\nexppauli 0.1 ZQ\n", 2),
            # dense: locality, indices, float count and literal, unitarity
            ("circuit 2\ndense\n", 2),
            ("circuit 2\ndense x 1\n", 2),
            ("circuit 2\ndense -1 1 0\n", 2),
            ("circuit 2\ndense 2 1\n", 2),
            ("circuit 2\ndense 1 1 1 0\n", 2),
            ("circuit 2\ndense 1 1 1 0 0 0 0 0 1 zz\n", 2),
            ("circuit 2\ndense 1 1 2 0 0 0 0 0 1 0\n", 2),
            ("circuit 2\ndense 1 1 nan 0 0 0 0 0 1 0\n", 2),
            ("circuit 2\ndense 2 2 2 " + "1 0 " * 16 + "\n", 2),
            # ctrl: arity, bad control, unknown inner gate
            ("circuit 2\nctrl 1\n", 2),
            ("circuit 2\nctrl a x 2\n", 2),
            ("circuit 2\nctrl 1 foo 2\n", 2),
            # d = 3 for named, exppauli and ctrl
            ("circuit 2 dim 3\nh 1\n", 2),
            ("circuit 2 dim 3\nexppauli 0.1 ZZ\n", 2),
            ("circuit 2 dim 3\nctrl 1 x 2\n", 2),
            # an error after a layer separator
            ("circuit 2\nh 1\n---\nh 5\n", 4),
        ],
    )
    def test_parse_error_lines(self, text, line):
        err = pytest.raises(ParseError, parse_circuit, text).value
        assert err.line_no == line

    @pytest.mark.parametrize("text", ["circuit 2\nctrl 1 cnot 2 1\n", "circuit 3\nctrl 3 ctrl 1 x 1\n"])
    def test_parse_rejects_overlapping_control(self, text):
        with pytest.raises(ParseError, match="^line 2: control qubit overlaps inner gate support$"):
            parse_circuit(text)

    def test_readme_example_parses(self):
        # a "<k floats>" placeholder becomes the k floats of an identity
        # matrix when k fits one (zeros otherwise), so the parser checks k
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b for b in readme.split("```")[1::2] if b.lstrip("\n").startswith("circuit ")]
        assert blocks

        def identity_floats(match):
            k = int(match.group(1))
            dim = math.isqrt(k // 2)
            if 2 * dim * dim != k:
                return " ".join(["0"] * k)
            return " ".join("1 0" if i % (dim + 1) == 0 else "0 0" for i in range(dim * dim))

        for block in blocks:
            c = parse_circuit(re.sub(r"<(\d+) floats>", identity_floats, block))
            assert c.gates

    def test_dense_round_trip(self, rng):
        m = random_unitary(4, rng)
        c = Circuit(3, 2, [DenseGate((0, 2), m), NamedGate("h", (1,))])
        c2 = parse_circuit(serialize_circuit(c))
        assert circuits_equal(c, c2)

    def test_unsorted_dense_support_normalized(self):
        # dense on (2, 1): axes given control-major get sorted on parse
        swap = "dense 2 2 1 " + " ".join(
            f"{v:.1f} 0.0" for v in np.eye(4)[[0, 2, 1, 3]].reshape(-1)
        )
        c = parse_circuit(f"circuit 2\n{swap}\n")
        g = c.gates[0]
        assert g.support == (0, 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unsorted_dense_gate_sorts_its_axes(self, rng, d):
        m = random_unitary(d * d, rng)
        # the same two-qudit operator with its axes in sorted order
        swapped = m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        g = DenseGate((2, 1), m)
        assert g.qudits == (1, 2)
        assert np.allclose(g.matrix, swapped, atol=1e-14)
        if d == 2:
            inner = [ControlledGate(0, DenseGate((2, 1), m)),
                     ControlledGate(0, DenseGate((1, 2), swapped))]
            u, want = (circuit_unitary(Circuit(3, 2, [gt])) for gt in inner)
            assert np.allclose(u, want, atol=1e-12)

    def test_unsorted_dense_text_round_trip(self, rng):
        m = random_unitary(4, rng)
        c = Circuit(3, 2, [DenseGate((2, 0), m), NamedGate("h", (1,))])
        text = serialize_circuit(c)
        assert serialize_circuit(parse_circuit(text)) == text
        assert circuits_equal(c, parse_circuit(text))

    def test_round_trip_random(self, rng):
        for _ in range(5):
            c = commuting_pauli_exp_circuit(4, 5, rng)
            assert circuits_equal(c, parse_circuit(serialize_circuit(c)))
        # every gate kind, layers, and a dim 3 register of dense gates
        ops, inner_ops = set(), set()
        for i in range(40):
            n, d = (3, 3) if i % 4 == 3 else (4, 2)
            gates = [_random_gate(n, d, list(range(n)), rng) for _ in range(rng.integers(1, 8))]
            cuts = sorted(int(x) for x in rng.integers(0, len(gates) + 1, size=rng.integers(3)))
            sizes = [b - a for a, b in zip([0, *cuts], [*cuts, len(gates)])]
            c = Circuit(n, d, gates, sizes if cuts else None)
            text = serialize_circuit(c)
            assert serialize_circuit(parse_circuit(text)) == text
            assert circuits_equal(c, parse_circuit(text))
            for line in text.splitlines()[1:]:
                ops.add(line.split()[0])
                if line.startswith("ctrl"):
                    inner_ops.add(line.split()[2])
        assert {"h", "cnot", "cz", "dense", "exppauli", "ctrl", "---"} <= ops
        assert {"dense", "exppauli", "ctrl"} <= inner_ops and inner_ops & set(NAMED_ARITY)

    def test_dense_locality(self):
        # a global phase is a 0-local dense gate; a negative locality is refused
        text = "circuit 1\ndense 0 0.0 1.0\n"
        assert serialize_circuit(parse_circuit(text)) == text
        with pytest.raises(ParseError, match="^line 2: bad locality '-1'$"):
            parse_circuit("circuit 2\ndense -1 1 0\n")

    def test_each_gate_checked_once(self, monkeypatch):
        calls = []
        check = Circuit._check_gate
        monkeypatch.setattr(Circuit, "_check_gate", lambda c, g: calls.append(g) or check(c, g))
        text = "circuit 3\nh 1\ncnot 2 1\nexppauli 0.3 ZZI\n---\ndense 1 3 0 0 1 0 1 0 0 0\ncz 2 3\n"
        c = parse_circuit(text)
        assert calls == c.gates and len(calls) == 5
        assert c.layer_sizes == [3, 2]

    def test_exppauli_theta_precision(self):
        c = parse_circuit("circuit 1\nexppauli 0.1234567890123456 Z\n")
        c2 = parse_circuit(serialize_circuit(c))
        assert c2.gates[0].theta == c.gates[0].theta
