"""The four benchmark workloads: seeded input generators, tasks, references.

Every workload is a closed loop with one caller.  A task calls the
library's public entry points, the same ones the CLI calls, through their
module attributes, so the traced run can wrap them.  Inputs come only from
the ``numpy.random.Generator`` handed to ``make``; the library never sees
the workload seed, only the generated inputs and a sampling generator.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from commsim import circuit, local2, paulisim, transformers
from commsim.circuit import Circuit, DenseGate
from commsim.estimator import EstimatorConfig
from commsim.local2 import ProductState
from commsim.oracle import Observable
from commsim.pauli import PauliOperator
from commsim.paulisim import ExtraGate, MemberGate
from commsim.stabilizer import CliffordCircuit
from commsim.transformers import DenseOracleExecutor

# ---------------------------------------------------------------------------
# input generators


def random_clifford_gates(n: int, n_gates: int, rng: np.random.Generator):
    """Uniform sequence over {h, s, x, z, cnot, cz} with random qubits."""
    names = ("h", "s", "x", "z", "cnot", "cz")
    gates = []
    for _ in range(n_gates):
        name = names[int(rng.integers(len(names)))]
        if name in ("cnot", "cz"):
            q1, q2 = rng.choice(n, size=2, replace=False)
            gates.append((name, (int(q1), int(q2))))
        else:
            gates.append((name, (int(rng.integers(n)),)))
    return gates


def _conjugate_columns(paulis, n: int, gates):
    """``g P g^dag`` for every P and gate, gate by gate.

    Bit-sliced: bit i of xs[q] / zs[q] is the X / Z bit of Pauli i on qubit
    q, and t0/t1 are the two bits of each phase exponent, so one gate costs
    a few big-integer operations however many Paulis ride along.
    """
    xs, zs = [0] * n, [0] * n
    t0 = t1 = 0
    for i, (t, a, b) in enumerate(paulis):
        t0 |= (t & 1) << i
        t1 |= (t >> 1) << i
        for q in range(n):
            xs[q] |= ((a >> q) & 1) << i
            zs[q] |= ((b >> q) & 1) << i
    for name, qs in gates:
        if name == "h":
            q = qs[0]
            t1 ^= xs[q] & zs[q]  # Y -> -Y
            xs[q], zs[q] = zs[q], xs[q]
        elif name == "s":
            q = qs[0]
            t1 ^= t0 & xs[q]  # X -> Y = iXZ, Y -> -X
            t0 ^= xs[q]
            zs[q] ^= xs[q]
        elif name == "x":
            t1 ^= zs[qs[0]]
        elif name == "z":
            t1 ^= xs[qs[0]]
        elif name == "cnot":
            c, t = qs
            xs[t] ^= xs[c]
            zs[c] ^= zs[t]
        else:  # cz
            a, b = qs
            t1 ^= xs[a] & xs[b]
            zs[b] ^= xs[a]
            zs[a] ^= xs[b]
    out = []
    for i in range(len(paulis)):
        a = sum(((xs[q] >> i) & 1) << q for q in range(n))
        b = sum(((zs[q] >> i) & 1) << q for q in range(n))
        out.append((((t0 >> i) & 1) | (((t1 >> i) & 1) << 1), a, b))
    return out


def _inverse_gates(gates):
    inv = []
    for name, qs in reversed(gates):
        inv += [(name, qs)] * (3 if name == "s" else 1)  # S^3 = S^dag
    return inv


def scrambled_family(n: int, m: int, rng: np.random.Generator, qubit: int, n_anti: int):
    """m commuting Hermitian Paulis ``C (+-Z^b) C^dag`` for a random C of 30n gates.

    Exactly ``n_anti`` members, returned as a set of indices, anticommute
    with ``Z_qubit``: Z^b anticommutes with ``C^dag Z_q C`` iff b has odd
    overlap with that image's X part, so each b is drawn with the wanted
    parity.
    """
    ra = 0
    while ra == 0:  # a Clifford leaving Z_q diagonal makes every member commute
        gates = random_clifford_gates(n, 30 * n, rng)
        (_, ra, _), = _conjugate_columns([(0, 0, 1 << qubit)], n, _inverse_gates(gates))
    anti = set(rng.choice(m, size=n_anti, replace=False).tolist())
    frame = []
    for j in range(m):
        while True:
            b = int(rng.integers(1, 1 << n))
            if ((b & ra).bit_count() & 1) != (j in anti):
                b ^= ra & -ra
            if b:
                break
        frame.append((2 * int(rng.integers(2)), 0, b))
    return _conjugate_columns(frame, n, gates), anti


def member_angles(m: int, anti: set[int], rng: np.random.Generator) -> list[float]:
    """Uniform angles, except |theta| <= pi/8 on members anticommuting with Z_q.

    Those are the only members the observable sees; keeping each factor's
    cos(2 theta) >= 0.7 keeps the expectation away from 0, so a check at
    tolerance epsilon can tell a right answer from a wrong one.
    """
    return [
        float(rng.uniform(-np.pi / 8, np.pi / 8) if j in anti else rng.uniform(0.0, 2 * np.pi))
        for j in range(m)
    ]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def near_identity_unitary(dim: int, rng: np.random.Generator, spread: float) -> np.ndarray:
    """``V diag(e^{i phi}) V^dag`` with random V and |phi| <= spread."""
    v = random_unitary(dim, rng)
    return (v * np.exp(1j * rng.uniform(-spread, spread, size=dim))) @ v.conj().T


def brickwork(n: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Brickwork of two-qubit gates: even layers on (0,1), (2,3), ..., odd on (1,2), ...

    The supports are fixed, so every instance does the same work.  Gates are
    random but near the identity, so |<0|U|0>|^2 is of order 1 rather than
    2^-n and the epsilon check has something to check.
    """
    gates, sizes = [], []
    for layer in range(depth):
        pairs = [(q, q + 1) for q in range(layer % 2, n - 1, 2)]
        gates += [DenseGate(p, near_identity_unitary(4, rng, 0.5)) for p in pairs]
        sizes.append(len(pairs))
    return Circuit(n, 2, gates, layer_sizes=sizes)


def _label(x: int, n: int) -> str:
    return "".join(str((x >> k) & 1) for k in range(n))


def _pauli_ops(n: int, family):
    return [PauliOperator(n, t, a, b) for t, a, b in family]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One closed-loop task type; subclasses fix sizes and tolerance."""

    name: str
    tol: float
    # the layer the traced run should find dominant, for the summary line
    predicted: str

    def make(self, rng: np.random.Generator, warmup: bool = False):
        raise NotImplementedError

    def run(self, inst, rng: np.random.Generator) -> list[float]:
        raise NotImplementedError

    def reference(self, inst) -> list[float]:
        raise NotImplementedError


class CommutingN63(Workload):
    """Commuting weak simulation at the largest n the sampler accepts."""

    name = "commuting-n63"
    tol = 0.05
    predicted = "stabilizer"
    n, m = 63, 126
    cfg = EstimatorConfig(epsilon=0.05, delta=0.01)

    def make(self, rng, warmup=False):
        n, m = (8, 16) if warmup else (self.n, self.m)
        qubit = int(rng.integers(n))
        family, anti = scrambled_family(n, m, rng, qubit, int(rng.integers(4, 9)))
        thetas = member_angles(m, anti, rng)
        x = int(rng.integers(1 << n))
        return dict(
            family=family, thetas=thetas, x=x, qubit=qubit,
            gates=list(zip(thetas, _pauli_ops(n, family))), label=_label(x, n),
        )

    def run(self, inst, rng):
        res = paulisim.simulate_commuting_pauli(
            inst["gates"], inst["label"], inst["qubit"], self.cfg, rng
        )
        return [res.value]

    def reference(self, inst):
        return [
            ref.commuting_z_expectation(
                inst["family"], inst["thetas"], inst["x"], inst["qubit"]
            )
        ]


class ExtrasN8(Workload):
    """Two non-commuting extras: 16 branch-pair sandwiches per task."""

    name = "extras-n8"
    tol = 0.05
    predicted = "estimator"
    n, m, k = 8, 16, 2
    cfg = EstimatorConfig(epsilon=0.05, delta=0.01)
    # |cos| + |sin| is the same for every extra angle, so every task draws
    # the same number of samples and tasks differ only in structure
    extra_thetas = (np.pi / 8, -np.pi / 8, 3 * np.pi / 8, -3 * np.pi / 8)

    def make(self, rng, warmup=False):
        n, m, k = (4, 4, 1) if warmup else (self.n, self.m, self.k)
        qubit = int(rng.integers(n))
        family, anti = scrambled_family(n, m, rng, qubit, int(rng.integers(1, 5)))
        program = [
            MemberGate(th, p) for th, p in zip(member_angles(m, anti, rng), _pauli_ops(n, family))
        ]
        for _ in range(k):
            while True:
                a, b = int(rng.integers(1 << n)), int(rng.integers(1 << n))
                if a | b:
                    break
            theta = float(self.extra_thetas[int(rng.integers(4))])
            extra = ExtraGate(theta, PauliOperator(n, (a & b).bit_count() & 1, a, b))
            program.insert(int(rng.integers(len(program) + 1)), extra)
        x = _label(int(rng.integers(1 << n)), n)
        return dict(n=n, program=program, x=x, qubit=qubit)

    def run(self, inst, rng):
        res = paulisim.simulate_noncommuting_pauli(
            inst["program"], inst["x"], inst["qubit"], self.cfg, rng
        )
        return [res.value]

    def reference(self, inst):
        gates = [circuit.PauliExpGate(g.theta, g.pauli) for g in inst["program"]]
        return [ref.statevector_z_expectation(gates, inst["n"], inst["x"], inst["qubit"])]


class Local2Chain(Workload):
    """2-local contraction on ZZ chains of three sizes, parsed from text."""

    name = "local2-chain"
    tol = 1e-9
    predicted = "circuit"
    sizes = (100, 200, 400)

    def make(self, rng, warmup=False):
        chains = []
        for n in (10, 20, 40) if warmup else self.sizes:
            thetas = rng.uniform(0.0, 2 * np.pi, size=n - 1).tolist()
            lines = [f"circuit {n}"]
            for i, th in enumerate(thetas):
                lines.append(f"exppauli {th!r} {'I' * i}ZZ{'I' * (n - i - 2)}")
            factors = [random_unitary(2, rng)[:, 0] for _ in range(n)]
            qubit = int(rng.integers(n))
            v = random_unitary(2, rng)
            obs = (v * rng.uniform(-1.0, 1.0, size=2)) @ v.conj().T
            chains.append(
                dict(n=n, text="\n".join(lines) + "\n", thetas=thetas, qubit=qubit,
                     state=ProductState(factors), obs=Observable((qubit,), obs))
            )
        return chains

    def run(self, inst, rng):
        out = []
        for ch in inst:
            c = circuit.parse_circuit(ch["text"])
            out.append(local2.simulate_2local(c, ch["state"], ch["obs"]))
        return out

    def reference(self, inst):
        return [
            ref.chain_expectation(
                ch["n"], ch["thetas"], ch["state"].factors, ch["qubit"], ch["obs"].matrix
            )
            for ch in inst
        ]


class OverlapShallow(Workload):
    """Depth-2 overlaps: plain at n=12, then times a Clifford at n=10."""

    name = "overlap-shallow"
    tol = 0.05
    predicted = "oracle"
    n_plain, n_cliff = 12, 10
    cfg = EstimatorConfig(epsilon=0.05, delta=0.05)

    def __init__(self):
        self.executor = DenseOracleExecutor()

    def make(self, rng, warmup=False):
        n1, n2 = (6, 4) if warmup else (self.n_plain, self.n_cliff)
        u1 = brickwork(n1, 2, rng)
        u2 = brickwork(n2, 2, rng)
        cliff = CliffordCircuit(n2, tuple(random_clifford_gates(n2, 4 * n2, rng)))
        return dict(u1=u1, u2=u2, cliff=cliff)

    def run(self, inst, rng):
        a = transformers.estimate_cd_overlap(inst["u1"], self.cfg, self.executor, rng)
        b = transformers.estimate_cd_clifford_overlap(
            inst["u2"], inst["cliff"], self.cfg, self.executor, rng
        )
        return [a.value, b.value]

    def reference(self, inst):
        return [ref.overlap_squared(inst["u1"]), ref.overlap_squared(inst["u2"], inst["cliff"])]


WORKLOADS = {w.name: w for w in (CommutingN63, ExtrasN8, Local2Chain, OverlapShallow)}
