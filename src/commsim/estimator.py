"""Monomial operators and the sampling estimator for stabilizer sandwiches.

A monomial unitary maps every basis state to a single basis state times a
unit phase, ``M|y> = lambda_y |pi(y)>``.  Sandwiched between two stabilizer
states of equal support modulus, the importance-sampling variable

    X(y) = lambda_y * conj(<pi(y)|psi>) / conj(<y|phi>),   y ~ |<y|phi>|^2

has modulus 0 or 1 and mean ``<psi|M|phi>``, so a plain Hoeffding-sized mean
meets an (epsilon, delta) contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch, ZeroAmplitudeSample
from .pauli import _I4, PauliOperator
from .stabilizer import StabilizerState

MODULUS_TOL = 1e-12
# largest sample count numpy's samplers take
_MAX_SAMPLES = np.iinfo(np.int64).max


def hoeffding_count(scale: float, epsilon: float) -> int:
    """``ceil(scale / epsilon^2)``; ValueError when that is no int64 count.

    A tiny epsilon underflows epsilon^2 to zero or the quotient to inf.
    """
    k = scale / epsilon**2 if epsilon**2 > 0 else math.inf
    if not k <= _MAX_SAMPLES:
        raise ValueError(
            f"epsilon={epsilon!r} needs {k:.3g} samples, more than {_MAX_SAMPLES}"
        )
    return math.ceil(k)


@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy/confidence target and the derived sample count."""

    epsilon: float = 0.05
    delta: float = 0.01
    seed: int | None = None
    k_override: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.k_override is not None and self.k_override < 1:
            raise ValueError("sample count must be at least 1")

    @property
    def k(self) -> int:
        """Hoeffding sample count ceil(4 ln(2/delta) / epsilon^2)."""
        if self.k_override is not None:
            return self.k_override
        return hoeffding_count(4.0 * math.log(2.0 / self.delta), self.epsilon)


@dataclass
class EstimateResult:
    value: complex | float
    raw_value: complex | float
    epsilon: float
    delta: float
    k: int
    seed: int | None
    elapsed_ms: float
    max_modulus_violation: float = 0.0


# ---------------------------------------------------------------------------
# monomial operators


class MonomialOperator:
    """Interface: ``M|y> = eval_phase_many(y) |permute_many(y)>`` with unit phases.

    Both methods act on uint64 arrays of basis states (n <= 64).
    """

    n: int

    def adjoint(self) -> "MonomialOperator":
        raise NotImplementedError

    def eval_phase_many(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def permute_many(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_matrix(self) -> np.ndarray:
        """Dense matrix for desk-scale checks; qubit 0 is bit 0 of the index."""
        ys = np.arange(1 << self.n, dtype=np.uint64)
        m = np.zeros((len(ys), len(ys)), dtype=complex)
        m[self.permute_many(ys).astype(np.int64), np.arange(len(ys))] = self.eval_phase_many(ys)
        return m


def _parity_many(xs: np.ndarray, mask: int) -> np.ndarray:
    return np.bitwise_count(xs & np.uint64(mask)).astype(np.int64) & 1


class PauliMonomial(MonomialOperator):
    """A Pauli operator viewed as a monomial: phase i^t (-1)^{b.y}, flip by a."""

    def __init__(self, p: PauliOperator):
        self.p = p
        self.n = p.n

    def adjoint(self) -> "PauliMonomial":
        return PauliMonomial(self.p.adjoint())

    def eval_phase_many(self, ys: np.ndarray) -> np.ndarray:
        k = (self.p.t + 2 * _parity_many(ys, self.p.b)) % 4
        return np.array(_I4)[k]

    def permute_many(self, ys: np.ndarray) -> np.ndarray:
        return ys ^ np.uint64(self.p.a)


class DiagonalZExp(MonomialOperator):
    """``e^{i theta Q}`` for a signed Z-type Pauli Q; diagonal, phases e^{+-i theta}."""

    def __init__(self, theta: float, q: PauliOperator):
        if not q.is_z_type():
            raise ValueError("exponent must be a signed Z-type Pauli")
        self.theta = float(theta)
        self.q = q
        self.n = q.n

    def adjoint(self) -> "DiagonalZExp":
        return DiagonalZExp(-self.theta, self.q)

    def angle_many(self, ys: np.ndarray) -> np.ndarray:
        """theta times the eigenvalue of Q on each basis state."""
        s = -self.theta if self.q.t == 2 else self.theta
        return s * (1 - 2 * _parity_many(ys, self.q.b))

    def eval_phase_many(self, ys: np.ndarray) -> np.ndarray:
        return np.exp(1j * self.angle_many(ys))

    def permute_many(self, ys: np.ndarray) -> np.ndarray:
        return ys


class Composition(MonomialOperator):
    """Matrix product of monomials; ``ops[0]`` is the leftmost factor."""

    def __init__(self, ops: list[MonomialOperator]):
        if not ops:
            raise ValueError("empty composition")
        self.ops = list(ops)
        self.n = ops[0].n
        if any(m.n != self.n for m in ops):
            raise SizeMismatch("composed monomials act on different registers")

    def adjoint(self) -> "Composition":
        return Composition([m.adjoint() for m in reversed(self.ops)])

    def eval_phase_many(self, ys: np.ndarray) -> np.ndarray:
        # diagonal factors add their angles; one exp covers all of them
        phase = np.ones(ys.shape, dtype=complex)
        angle = np.zeros(ys.shape)
        for m in reversed(self.ops):
            if isinstance(m, DiagonalZExp):
                angle += m.angle_many(ys)
            else:
                phase *= m.eval_phase_many(ys)
                ys = m.permute_many(ys)
        return phase * np.exp(1j * angle)

    def permute_many(self, ys: np.ndarray) -> np.ndarray:
        for m in reversed(self.ops):
            ys = m.permute_many(ys)
        return ys


# ---------------------------------------------------------------------------
# the sandwich estimator


def estimate_monomial_sandwich(
    psi: StabilizerState,
    m: MonomialOperator,
    phi: StabilizerState,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> EstimateResult:
    """Monte-Carlo estimate of ``<psi|M|phi>`` to within epsilon, w.p. 1-delta."""
    if psi.n != phi.n or m.n != psi.n:
        raise SizeMismatch("state/operator widths differ")
    t0 = time.perf_counter()
    k = cfg.k
    xs = _draw_samples(psi, m, phi, k, rng)
    absx = np.abs(xs)
    violation = float(np.max(np.minimum(np.abs(absx - 1.0), absx), initial=0.0))
    raw = complex(xs.mean())
    value = raw if abs(raw) <= 1.0 else raw / abs(raw)  # clamp to the unit disk
    elapsed = (time.perf_counter() - t0) * 1e3
    return EstimateResult(
        value=value,
        raw_value=raw,
        epsilon=cfg.epsilon,
        delta=cfg.delta,
        k=k,
        seed=cfg.seed,
        elapsed_ms=elapsed,
        max_modulus_violation=violation,
    )


def _draw_samples(
    psi: StabilizerState,
    m: MonomialOperator,
    phi: StabilizerState,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    ys = phi.sample_many(k, rng)
    denom = np.conj(phi.amplitudes_raw_many(ys))
    if np.any(denom == 0):
        raise ZeroAmplitudeSample("sampled a basis state outside the support")
    lam = m.eval_phase_many(ys)
    num = np.conj(psi.amplitudes_raw_many(m.permute_many(ys)))
    return lam * num / denom
