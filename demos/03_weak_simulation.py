"""Sampling-based estimation of <Z_i> for Pauli-exponential circuits.

A product of commuting Pauli exponentials factors as C D C^dag with a
Clifford C and a diagonal D.  The observable then becomes a monomial
sandwich between two stabilizer states, whose importance-sampling variable
has modulus 0 or 1 — a Hoeffding-sized mean meets an (epsilon, delta)
contract without ever forming the state.  A few non-commuting extra gates
are handled by branching each one into cos(theta) I + i sin(theta) Q and
sampling branch pairs in proportion to their coefficients' moduli.
"""

import time

import numpy as np

from commsim import (
    EstimatorConfig,
    ExtraGate,
    MemberGate,
    PauliOperator,
    simulate_commuting_pauli,
    simulate_noncommuting_pauli,
)
from commsim.stabilizer import conjugate_pauli, random_clifford_circuit


def random_commuting_family(n, m, rng):
    c = random_clifford_circuit(n, 3 * n, rng)
    return [
        conjugate_pauli(c, PauliOperator(n, 2 * int(rng.integers(2)), 0, int(rng.integers(1, 1 << n))))
        for _ in range(m)
    ]


def main():
    rng = np.random.default_rng(12)
    cfg = EstimatorConfig(epsilon=0.05, delta=0.01)
    print(f"estimator contract: eps={cfg.epsilon}, delta={cfg.delta}  ->  K={cfg.k} samples")

    print("\n=== commuting circuit on 40 qubits ===")
    n = 40
    gates = [(float(rng.uniform(0, 2 * np.pi)), p) for p in random_commuting_family(n, 30, rng)]
    bits = int(rng.integers(1 << 63)) % (1 << n)
    x = "".join(str((bits >> k) & 1) for k in range(n))  # a random basis input
    t0 = time.perf_counter()
    res = simulate_commuting_pauli(gates, x, 7, cfg, rng)
    dt = time.perf_counter() - t0
    print(f"<Z_8> after 30 commuting Pauli exponentials: {res.value:+.4f}  ({dt:.2f} s)")
    print(f"largest |X| deviation from {{0,1}}: {res.max_modulus_violation:.1e}")

    print("\n=== sanity check at desk scale ===")
    import math

    theta = 0.6
    res = simulate_commuting_pauli(
        [(theta, PauliOperator.single(1, "X", 0))], 0, 0, cfg, rng
    )
    print(f"e^(i {theta} X): estimate {res.value:+.4f}, exact cos(2 theta) = {math.cos(2 * theta):+.4f}")

    print("\n=== two non-commuting extra gates ===")
    n = 6
    members = [MemberGate(float(rng.uniform(0, 2 * np.pi)), p) for p in random_commuting_family(n, 4, rng)]
    extras = [
        ExtraGate(0.8, PauliOperator(n, 0, 0b000011, 0)),   # X X on qubits 1,2
        ExtraGate(0.3, PauliOperator(n, 1, 0b000100, 0b000100)),  # Y on qubit 3
    ]
    program = [members[0], extras[0], members[1], members[2], extras[1], members[3]]
    t0 = time.perf_counter()
    res = simulate_noncommuting_pauli(program, 0, 0, cfg, rng)
    dt = time.perf_counter() - t0
    print(f"<Z_1> with 2 extras (K={res.k} samples): {res.value:+.4f}  ({dt:.2f} s)")
    print("K grows as W^4, W = prod(|cos theta| + |sin theta|) over the extras; the members stay free")


if __name__ == "__main__":
    main()
