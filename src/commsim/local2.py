"""Strong simulation of 2-local commuting qudit circuits on product inputs.

The observable's support acts as a pivot block.  Every gate that misses the
block entirely cancels inside the conjugation and is stripped; the remaining
gates each straddle the block and one outside qudit, so conjugating the
effective observable and contracting with that qudit's input factor removes
one qudit at a time.  The per-step cost is independent of n.

Gates that only commute up to scalar phases are handled by the same
contraction: reordering phases appear once in the circuit and conjugated in
its adjoint, so they cancel exactly; the declared phase table is only
verified, never consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    Circuit,
    check_pairwise_commuting,
    embed_matrix,
    gate_matrix,
    union_matrices,
)
from .errors import (
    DimensionMismatch,
    LocalityExceeded,
    NotHermitian,
    PhaseMismatch,
    SizeMismatch,
)
from .oracle import Observable, parse_basis_label

FACTOR_NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-9
PHASE_TOL = 1e-9

MAX_BLOCK = 3


@dataclass
class ProductState:
    """Tensor product of per-qudit unit vectors."""

    factors: list[np.ndarray] = field(repr=False)
    d: int = 2

    def __post_init__(self):
        self.factors = [np.asarray(f, dtype=complex) for f in self.factors]
        for i, f in enumerate(self.factors):
            if f.shape != (self.d,):
                raise DimensionMismatch(f"factor {i} has shape {f.shape}, want ({self.d},)")
            if not abs(np.linalg.norm(f) - 1.0) <= FACTOR_NORM_TOL:  # NaN fails too
                raise ValueError(f"factor {i} is not normalized")

    @property
    def n(self) -> int:
        return len(self.factors)

    @classmethod
    def from_basis(cls, n: int, d: int, label) -> "ProductState":
        digits = parse_basis_label(label, n, d)
        factors = []
        for v in digits:
            f = np.zeros(d, dtype=complex)
            f[v] = 1.0
            factors.append(f)
        return cls(factors, d)


def _strip_block(c: Circuit, block: tuple[int, ...]) -> list:
    bset = set(block)
    return [g for g in c.gates if bset & set(g.support)]


def _check_2local(c: Circuit):
    for i, g in enumerate(c.gates):
        if len(g.support) > 2:
            raise LocalityExceeded(f"gate {i} acts on {len(g.support)} qudits")


def _contract(
    gates: list, block: tuple[int, ...], obs_matrix: np.ndarray, inp: ProductState, d: int
) -> float:
    """Core elimination loop shared by both entry points."""
    o = np.array(obs_matrix, dtype=complex)
    outside: dict[int, list] = {}
    inner: list = []
    bset = set(block)
    for g in gates:
        ext = [q for q in g.support if q not in bset]
        if not ext:
            inner.append(g)
        else:
            outside.setdefault(ext[0], []).append(g)
    for j in sorted(outside):
        reg = tuple(sorted((*block, j)))
        gj = np.eye(d ** len(reg), dtype=complex)
        for g in outside[j]:
            gj = embed_matrix(gate_matrix(g, d), g.support, reg, d) @ gj
        big = gj.conj().T @ embed_matrix(o, block, reg, d) @ gj
        # sandwich the outside qudit's input factor: O <- (I (x) <a_j|) big (I (x) |a_j>)
        k = len(reg)
        pos = reg.index(j)
        t = big.reshape((d,) * (2 * k))
        t = np.tensordot(t, inp.factors[j], axes=([k + pos], [0]))
        t = np.tensordot(inp.factors[j].conj(), t, axes=([0], [pos]))
        # remaining axes are the block rows then block columns, already in order
        dim = d ** len(block)
        o = t.reshape(dim, dim)
        herm = np.linalg.norm(o - o.conj().T)
        if herm >= HERMITICITY_TOL:
            raise NotHermitian(f"effective observable drifted from Hermitian by {herm}")
    # gates entirely inside the block conjugate the observable once at the end
    ub = np.eye(d ** len(block), dtype=complex)
    for g in inner:
        ub = embed_matrix(gate_matrix(g, d), g.support, block, d) @ ub
    o = ub.conj().T @ o @ ub
    alpha = np.array([1.0 + 0.0j])
    for q in block:
        alpha = np.kron(alpha, inp.factors[q])
    val = alpha.conj() @ o @ alpha
    if abs(val.imag) >= 1e-9:
        raise NotHermitian(f"expectation has imaginary part {val.imag}")
    return float(val.real)


def simulate_2local(
    c: Circuit,
    inp: ProductState,
    obs: Observable,
    check: bool = True,
) -> float:
    """Exact ``<a|C^dag O C|a>`` in time independent of the register size."""
    if inp.n != c.n or inp.d != c.d:
        raise DimensionMismatch("input state and circuit disagree on register shape")
    if any(not 0 <= q < c.n for q in obs.support):
        raise DimensionMismatch("observable support outside the register")
    if len(obs.support) > MAX_BLOCK:
        raise LocalityExceeded(
            f"observable touches {len(obs.support)} qudits (block cap {MAX_BLOCK})"
        )
    _check_2local(c)
    if check:
        check_pairwise_commuting(c)
    gates = _strip_block(c, obs.support)
    return _contract(gates, obs.support, obs.matrix, inp, c.d)


def verify_phase_table(c: Circuit, gamma: np.ndarray):
    """Check ``G_i G_j = gamma_ij G_j G_i`` densely for every gate pair."""
    m = len(c.gates)
    gamma = np.asarray(gamma, dtype=complex)
    if gamma.shape != (m, m):
        raise SizeMismatch(f"phase table must be {m}x{m}")
    for i in range(m):
        for j in range(i + 1, m):
            if not abs(abs(gamma[i, j]) - 1.0) <= PHASE_TOL:  # NaN fails too
                raise PhaseMismatch(i, j)
            m1, m2, _ = union_matrices(c.gates[i], c.gates[j], c.d)
            if not np.linalg.norm(m1 @ m2 - gamma[i, j] * (m2 @ m1)) <= PHASE_TOL:
                raise PhaseMismatch(i, j)


def simulate_2local_phase_commuting(
    c: Circuit,
    gamma: np.ndarray,
    inp: ProductState,
    obs: Observable,
) -> float:
    """As :func:`simulate_2local` for gates commuting up to declared phases.

    The reordering phases cancel between the circuit and its adjoint, so after
    verifying the table the plain contraction applies unchanged.
    """
    verify_phase_table(c, gamma)
    return simulate_2local(c, inp, obs, check=False)
