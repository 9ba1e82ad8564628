"""Estimating |<0|U|0>|^2 for shallow circuits from measurement outcomes only.

Writing |0><0| as an average of Z-subset operators turns the squared overlap
into E_S[ <0| prod_{j in S} U^dag Z_j U |0> ].  For a constant-depth U each
conjugated Z_j stays inside a bounded lightcone, so every sampled subset
becomes a small commuting test circuit handed to a measurement executor.
An extra Clifford factor C is absorbed by conjugating Z(S) through C exactly
and splitting the result into two commuting layers.
"""

import time

import numpy as np

from commsim import (
    Circuit,
    DenseGate,
    EstimatorConfig,
    estimate_cd_clifford_overlap,
    estimate_cd_overlap,
)
from commsim.circuit import NamedGate
from commsim.oracle import DenseOracleExecutor, matrix_element
from commsim.stabilizer import random_clifford_circuit


def brickwork(n, depth, rng):
    gates, sizes = [], []
    for _ in range(depth):
        perm = rng.permutation(n)
        cnt = 0
        for i in range(0, n - 1, 2):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, r = np.linalg.qr(m)
            gates.append(DenseGate(tuple(sorted((int(perm[i]), int(perm[i + 1])))), q * (np.diag(r) / abs(np.diag(r)))))
            cnt += 1
        sizes.append(cnt)
    return Circuit(n, 2, gates, layer_sizes=sizes)


def main():
    rng = np.random.default_rng(5)
    cfg = EstimatorConfig(epsilon=0.05, delta=0.05)
    ex = DenseOracleExecutor()

    print("=== closed forms ===")
    ident = Circuit(4, 2, [], layer_sizes=[])
    print(f"identity circuit: {estimate_cd_overlap(ident, cfg, ex, rng).value:.4f}  (exact 1)")
    hl = Circuit(4, 2, [NamedGate('h', (q,)) for q in range(4)], layer_sizes=[4])
    print(f"uniform layer on 4 qubits: {estimate_cd_overlap(hl, cfg, ex, rng).value:.4f}  (exact 0.0625)")

    print("\n=== random depth-2 circuit on 10 qubits ===")
    u = brickwork(10, 2, rng)
    want = abs(matrix_element(u, "0" * 10, "0" * 10)) ** 2
    t0 = time.perf_counter()
    res = estimate_cd_overlap(u, cfg, ex, rng)
    print(f"estimate {res.value:.4f}, exact {want:.4f}  "
          f"({res.k} subset draws, {time.perf_counter() - t0:.1f} s)")

    print("\n=== extra Clifford factor ===")
    n = 6
    u = brickwork(n, 1, rng)
    c = random_clifford_circuit(n, 12, rng)
    full = Circuit(n, 2, list(u.gates) + list(c.to_circuit().gates))
    want = abs(matrix_element(full, "0" * n, "0" * n)) ** 2
    res = estimate_cd_clifford_overlap(u, c, cfg, ex, rng)
    print(f"|<0|C U|0>|^2: estimate {res.value:.4f}, exact {want:.4f}")
    print("(the Clifford is handled exactly; only U must be shallow)")


if __name__ == "__main__":
    main()
