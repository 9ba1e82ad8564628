"""Circuit-to-circuit compilers around ancilla interference tests.

Every transformer emits an ordinary circuit whose Z statistics on the first
qubit encode a matrix element of the input circuit: controlled-gate folding
for commuting circuits, the halved "alternate" test for arbitrary circuits,
the two-layer merge for products of two commuting layers, and on top of
those, one sampling estimator for |<0|C U|0>|^2 with U of constant depth and
C a Clifford circuit; the plain |<0|U|0>|^2 estimate is its C = I case.  The
estimator only ever talks to an executor that returns measurement outcomes,
never to state amplitudes; that executor, :class:`oracle.DenseOracleExecutor`,
lives beside the statevector simulator that runs it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .circuit import (
    NAMED_MATRICES,
    Circuit,
    DenseGate,
    Gate,
    NamedGate,
    _restrict_pauli,
    _two_branch_block,
    check_pairwise_commuting,
    embed_matrix,
    gate_matrix,
)
from .errors import CapacityExceeded, LightconeTooLarge, SizeMismatch
from .estimator import EstimateResult, EstimatorConfig, hoeffding_count
# bench/workloads.py imports DenseOracleExecutor from here and bench/run.py wraps it here
from .oracle import DenseOracleExecutor
from .pauli import PauliOperator
from .stabilizer import CliffordCircuit, _conj_rows

_SDG = np.diag([1, -1j]).astype(complex)
_HSDG = NAMED_MATRICES["h"] @ _SDG  # final ancilla rotation for the imaginary part
# Re(i^t w) = +-Re w (t even) or -+Im w (t odd)
_RE_SIGN = (1.0, -1.0, -1.0, 1.0)

LIGHTCONE_BOUND = 8
# the subset sampler draws each subset as one uint64 bit mask
MAX_SUBSET_QUBITS = 64


# ---------------------------------------------------------------------------
# ancilla gadgets


def _ancilla_fold(m: np.ndarray, k_rest: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(left (x) I) m (right (x) I) with the single-qubit factors on the ancilla.

    Contracting only the two ancilla axes keeps this quadratic in the gate
    dimension rather than cubic.
    """
    dim = 1 << k_rest
    t = m.reshape(2, dim, 2, dim)
    return np.einsum("ia,axby,bj->ixjy", left, t, right).reshape(2 * dim, 2 * dim)


def p0_to_value(p0: float) -> float:
    """Invert the interference relation p(0) = (1 + value) / 2."""
    return 2.0 * p0 - 1.0


def _check_test(part: str, *circuits: Circuit):
    """The checks every ancilla test makes first: part, register shape, qubits."""
    if part not in ("real", "imag"):
        raise ValueError("part must be 'real' or 'imag'")
    c = circuits[0]
    if any((o.n, o.d) != (c.n, c.d) for o in circuits[1:]):
        raise SizeMismatch("layers disagree on register shape")
    if c.d != 2:
        raise ValueError("the ancilla test is defined for qubits")


def _folded_test(n: int, blocks: list, part: str) -> Circuit:
    """Ancilla test on n + 1 qubits with one folded gate per (support, m0, m1) block.

    Each block becomes (A (x) I) diag(m0, m1) (H (x) I) on the ancilla (qubit
    0) and the support shifted up by one, with A = H, except that for
    part="imag" the last gate closes with H S^dag.  Blocks whose m0 and m1
    each pairwise commute give pairwise commuting gates.  No blocks gives the
    bare test on the ancilla alone: p(0) = 1 (real) encodes <0|I|0> = 1.
    """
    h = NAMED_MATRICES["h"]
    blocks = blocks or [((), np.eye(1), np.eye(1))]
    out: list[Gate] = []
    for i, (sup, m0, m1) in enumerate(blocks):
        left = _HSDG if (part == "imag" and i == len(blocks) - 1) else h
        w = _ancilla_fold(_two_branch_block(m0, m1), len(sup), left, h)
        out.append(DenseGate((0, *(q + 1 for q in sup)), w))
    return Circuit(n + 1, 2, out)


def hadamard_test(c: Circuit, part: str = "real") -> Circuit:
    """Fold a commuting circuit into an ancilla test for Re/Im <0|C|0>.

    Each gate G becomes the folded block diag(I, G), i.e. controlled-G
    between ancilla Hadamards.  The folded gates still pairwise commute.
    """
    _check_test(part, c)
    check_pairwise_commuting(c)
    ms = [(g.support, gate_matrix(g, 2)) for g in c.gates]
    return _folded_test(c.n, [(sup, np.eye(len(m)), m) for sup, m in ms], part)


def alternate_hadamard_test(c: Circuit, part: str = "real") -> Circuit:
    """Halved ancilla test for Re/Im <0|U|0> of an arbitrary circuit.

    Gates are consumed in pairs from both ends: the ancilla-0 branch runs the
    adjoints of the second half in reverse, the ancilla-1 branch the first
    half, so the gate count is ceil(size/2) + 2 (odd sizes get an identity).
    """
    _check_test(part, c)
    gates = list(c.gates)
    if len(gates) % 2:
        gates.append(DenseGate((0,), np.eye(2, dtype=complex)))
    m = len(gates) // 2
    out: list[Gate] = [NamedGate("h", (0,))]
    for i in range(m):
        ga = gates[i]  # 1-branch, first half in order
        gb = gates[2 * m - 1 - i]  # 0-branch, second half reversed, adjointed
        rest = tuple(sorted(set(ga.support) | set(gb.support)))
        m0 = embed_matrix(gate_matrix(gb, 2), gb.support, rest, 2).conj().T
        m1 = embed_matrix(gate_matrix(ga, 2), ga.support, rest, 2)
        out.append(DenseGate((0, *(q + 1 for q in rest)), _two_branch_block(m0, m1)))
    out.append(
        NamedGate("h", (0,)) if part == "real" else DenseGate((0,), _HSDG)
    )
    return Circuit(c.n + 1, 2, out)


def two_layer_merge(
    c1: Circuit, c2: Circuit, part: str = "real", check: bool = True
) -> Circuit:
    """Ancilla test for Re/Im <0|C1 C2|0> of two commuting layers.

    Gates are merged by support subset (missing partners become identities);
    each support yields the folded block diag(M1^dag, M2), so the output is
    (k+1)-local and pairwise commuting whenever each input layer is.
    """
    _check_test(part, c1, c2)
    if check:
        check_pairwise_commuting(c1)
        check_pairwise_commuting(c2)
    merged1 = _merge_by_support(c1)
    merged2 = _merge_by_support(c2)
    blocks = []
    for sup in sorted(set(merged1) | set(merged2)):
        eye = np.eye(1 << len(sup), dtype=complex)
        blocks.append((sup, merged1.get(sup, eye).conj().T, merged2.get(sup, eye)))
    return _folded_test(c1.n, blocks, part)


def _merge_by_support(c: Circuit) -> dict[tuple[int, ...], np.ndarray]:
    """Product of all gates sharing a support subset, in input order."""
    merged: dict[tuple[int, ...], np.ndarray] = {}
    for g in c.gates:
        sup = g.support
        m = gate_matrix(g, c.d)
        if sup in merged:
            merged[sup] = m @ merged[sup]
        else:
            merged[sup] = m
    return merged


# ---------------------------------------------------------------------------
# constant-depth overlap estimation


def _conjugate_through(u: Circuit, p: PauliOperator):
    """Dense ``U^dag P U`` restricted to the backward lightcone.

    Returns (support tuple, matrix).  Gates outside the cone cancel between
    U and its adjoint, so only intersecting gates are applied.
    """
    sup = tuple(q for q in range(u.n) if ((p.a | p.b) >> q) & 1)
    if not sup:
        raise ValueError("identity observable has no pivot")
    m = _restrict_pauli(p).to_matrix()
    # U = G_m ... G_1, so U^dag P U conjugates by the last gate first
    for g in reversed(u.gates):
        if not set(g.support) & set(sup):
            continue
        reg = tuple(sorted(set(sup) | set(g.support)))
        gm = embed_matrix(gate_matrix(g, u.d), g.support, reg, u.d)
        om = embed_matrix(m, sup, reg, u.d)
        m = gm.conj().T @ om @ gm
        sup = reg
        if len(sup) > LIGHTCONE_BOUND:
            raise LightconeTooLarge(
                f"conjugated observable spread to {len(sup)} qubits (bound {LIGHTCONE_BOUND})"
            )
    return sup, m


def _subset_plan(n: int, cfg: EstimatorConfig, rng: np.random.Generator):
    """Uniform subset draws, merged by distinct subset, plus the shot budget."""
    if cfg.k_override is not None:
        k_sub = cfg.k_override
    else:
        k_sub = hoeffding_count(16.0 * math.log(4.0 / cfg.delta), cfg.epsilon)
    draws = rng.integers(0, 1 << n, size=k_sub, dtype=np.uint64)
    masks, counts = np.unique(draws, return_counts=True)
    delta_term = cfg.delta / (2.0 * k_sub)
    shots_per = hoeffding_count(16.0 * math.log(2.0 / delta_term), cfg.epsilon)
    return masks, counts, k_sub, shots_per


def _require_qubits(u: Circuit):
    if u.d != 2:
        raise ValueError("the overlap estimators are defined for qubits")
    if u.n > MAX_SUBSET_QUBITS:
        raise CapacityExceeded(
            f"the subset sampler supports at most {MAX_SUBSET_QUBITS} qubits, got {u.n}"
        )


def estimate_cd_overlap(
    u: Circuit,
    cfg: EstimatorConfig,
    executor: DenseOracleExecutor,
    rng: np.random.Generator,
) -> EstimateResult:
    """Estimate ``|<0|U|0>|^2`` for a shallow circuit via subset sampling.

    Writes the squared overlap as the subset average of F(S) =
    <0| prod_{j in S} U^dag Z_j U |0> and estimates Re F(S) for sampled S
    with ancilla tests run on the executor; the budget is split half/half
    between subset sampling and the per-subset tests.  This is the C = I
    case of :func:`estimate_cd_clifford_overlap`.
    """
    return _estimate_overlap(u, CliffordCircuit(u.n, ()), cfg, executor, rng)


def estimate_cd_clifford_overlap(
    u: Circuit,
    c: CliffordCircuit,
    cfg: EstimatorConfig,
    executor: DenseOracleExecutor,
    rng: np.random.Generator,
) -> EstimateResult:
    """Estimate ``|<0|C U|0>|^2`` for shallow U times an arbitrary Clifford C.

    Each sampled subset S turns C^dag Z(S) C = i^t X^a Z^b into two
    internally-commuting layers of conjugated single-qubit Paulis, merged
    into one ancilla test; the exact phase i^t picks the Re or Im variant.
    A merged gate depends only on its support, the X and Z bits of the image
    there and whether it closes an Im test, so each is built once per call.
    """
    return _estimate_overlap(u, c, cfg, executor, rng)


def _estimate_overlap(
    u: Circuit,
    c: CliffordCircuit,
    cfg: EstimatorConfig,
    executor: DenseOracleExecutor,
    rng: np.random.Generator,
) -> EstimateResult:
    """The one overlap estimator behind both public entry points.

    With C = I every image C^dag Z(S) C is Z(S) itself, so the X layer
    stays empty and every test is a Re test.
    """
    t0 = time.perf_counter()
    _require_qubits(u)
    n = u.n
    if c.n != n:
        raise SizeMismatch("Clifford and circuit act on different registers")
    conj_z = [
        DenseGate(*_conjugate_through(u, PauliOperator(n, 0, 0, 1 << k)))
        for k in range(n)
    ]
    masks, counts, k_sub, shots_per = _subset_plan(n, cfg, rng)
    # C^dag Z_j C for every qubit j, then C^dag Z(S) C = i^t X^a Z^b per mask
    rows = [PauliOperator(n, 0, 0, 1 << j) for j in range(n)]
    rows += [PauliOperator(n, 0, 0, m) for m in masks.tolist()]
    images = _conj_rows(rows, c.inverse().gates)
    # X_k goes through U only where some image has an X part (nowhere at C = I)
    x_used = 0
    for p in images[n:]:
        x_used |= p.a
    conj_x = {
        k: DenseGate(*_conjugate_through(u, PauliOperator(n, 0, 1 << k, 0)))
        for k in range(n)
        if (x_used >> k) & 1
    }
    # X_k and Z_k share one lightcone, so each support groups the qubits k
    # whose conjugated X_k and Z_k both act there, as one bit mask
    groups: dict[tuple[int, ...], int] = {}
    for k in range(n):
        groups[conj_z[k].support] = groups.get(conj_z[k].support, 0) | 1 << k

    def lowest_bit_touching(group) -> int:
        return min((j for j in range(n) if (images[j].a | images[j].b) & group[1]), default=n)

    # a group's gate depends only on the mask bits whose image touches it;
    # groups that depend on high bits only go first, so tests of nearby
    # masks share long leading runs of gates.  The executor sorts the tests
    # itself and applies each distinct run once, so this order sets the size
    # of its prefix trie
    order = sorted(groups.items(), key=lowest_bit_touching, reverse=True)
    pool: list[Gate] = []
    pooled: dict[tuple, int] = {}

    def merged_gate(key: tuple) -> int:
        """Pool index of the merged gate for ``key``, built on first use."""
        if key not in pooled:
            sup, a, b, closing = key
            layer1 = Circuit(n, 2, [conj_x[k] for k in range(n) if (a >> k) & 1])
            layer2 = Circuit(n, 2, [conj_z[k] for k in range(n) if (b >> k) & 1])
            part = "imag" if closing else "real"
            pooled[key] = len(pool)
            pool.append(two_layer_merge(layer1, layer2, part, check=False).gates[0])
        return pooled[key]

    tests, shots = [], []
    for p, count in zip(images[n:], counts.tolist()):
        keys = [
            (sup, p.a & m, p.b & m, False) for sup, m in order if (p.a | p.b) & m
        ] or [((), 0, 0, False)]  # empty subset: bare ancilla, F = 1
        if p.t & 1:  # the merged gates commute, so any of them may close the Im test
            keys[-1] = (*keys[-1][:3], True)
        tests.append(tuple(merged_gate(key) for key in keys))
        shots.append(shots_per * count)
    hits = executor.run_counts_many(Circuit(n + 1, 2, pool), tests, shots, rng)
    total = 0.0
    for p, count, hit in zip(images[n:], counts.tolist(), hits):
        total += _RE_SIGN[p.t] * p0_to_value(hit / (shots_per * count)) * count
    raw = total / k_sub
    return EstimateResult(
        value=min(1.0, max(0.0, raw)),
        raw_value=raw,
        epsilon=cfg.epsilon,
        delta=cfg.delta,
        k=k_sub,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )
