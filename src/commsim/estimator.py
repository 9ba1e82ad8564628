"""Monomial operators and the sampling estimator for stabilizer sandwiches.

A monomial unitary maps every basis state to a single basis state times a
unit phase, ``M|y> = lambda_y |pi(y)>``.  Sandwiched between two stabilizer
states of equal support modulus, the importance-sampling variable

    X(y) = lambda_y * conj(<pi(y)|psi>) / conj(<y|phi>),   y ~ |<y|phi>|^2

has modulus 0 or 1 and mean ``<psi|M|phi>``, so a plain Hoeffding-sized mean
meets an (epsilon, delta) contract.

Every monomial here is a Pauli, a diagonal ``e^{i theta Q}`` or a product of
them.  A product applied right to left flips y by the XOR of its Paulis' X
parts, and its phase is a constant times one unit factor w_j for each factor
j whose Z mask b_j has odd parity on y: a Pauli's X shift only flips the sign
of the factors after it, so every parity is read at the input y.  The phase
of a sample batch is then read through byte tables (one gather from the bytes
of y to the parity word, one complex product per byte of that word), with no
per-factor pass over the samples and no ``exp``.  A gather table depends
only on n and the Z masks, which the branch pairs of one estimate share, so
the last few are kept.

Small registers are tabulated: when 2^n <= k, X is evaluated once on all
2^n basis states, by the same kernels in the same order, and each of the k
samples is one ``take`` from that table, so every sample equals its
per-sample value bit for bit.  The amplitudes are then read from each
state's own dense table (:meth:`StabilizerState.amplitudes_raw_many`).
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch, ZeroAmplitudeSample
from .pauli import _I4, PauliOperator
from .stabilizer import StabilizerState, _byte_table, _word_bytes, _xor_lookup

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
    k_override: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.k_override is not None and not 1 <= self.k_override <= _MAX_SAMPLES:
            raise ValueError(f"sample count must be in 1..{_MAX_SAMPLES}, got {self.k_override}")

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
    elapsed_ms: float
    max_modulus_violation: float = 0.0


# ---------------------------------------------------------------------------
# monomial operators


class MonomialOperator:
    """``M|y> = c prod_j w_j^{parity(b_j & y)} |y ^ a>`` with c and every w_j unit.

    Every monomial here is a Pauli, a diagonal Z exponential or a product of
    them: it flips the fixed X mask ``shift`` (a), and :meth:`phase_form`
    gives its phase as (c, [b_j], [w_j]), every parity read at the input y.
    The vectorized methods act on uint64 arrays of basis states (n <= 64).
    """

    n: int
    shift: int

    def phase_form(self) -> tuple[complex, list[int], list[complex]]:
        raise NotImplementedError

    def eval_phase_many(self, ys: np.ndarray) -> np.ndarray:
        """The phase on each y, through byte tables.

        For each run of up to 64 factors, one gather table maps the bytes of
        y to the parity word (bit j = parity(b_j & y)), and one product table
        per byte of that word maps it to the product of its factors' w_j.
        """
        c, masks, ws = self.phase_form()
        yb = _word_bytes(ys)
        out = np.full(len(ys), c, dtype=complex)
        for lo in range(0, len(masks), 64):
            par = _word_bytes(_xor_lookup(_gather_table(self.n, tuple(masks[lo : lo + 64])), yb))
            for u, row in enumerate(_byte_table(ws[lo : lo + 64], np.multiply)):
                out *= row.take(par[:, u])
        return out

    def permute_many(self, ys: np.ndarray) -> np.ndarray:
        return ys ^ np.uint64(self.shift)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix for desk-scale checks; qubit 0 is bit 0 of the index."""
        ys = np.arange(1 << self.n, dtype=np.uint64)
        m = np.zeros((len(ys), len(ys)), dtype=complex)
        m[self.permute_many(ys).astype(np.int64), np.arange(len(ys))] = self.eval_phase_many(ys)
        return m


@functools.lru_cache(maxsize=8)
def _gather_table(n: int, masks: tuple[int, ...]) -> np.ndarray:
    """Read-only byte table from the bytes of y to bit j = parity(masks[j] & y).

    The branch pairs of one estimate share a few Z-mask sets and differ in
    their angles, so each set's table is built once and kept.
    """
    b = np.array(masks, dtype=np.uint64)
    bits = (b[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    # bit j of cols[q] is factor j's Z bit on qubit q
    cols = np.bitwise_or.reduce(bits << np.arange(len(b), dtype=np.uint64)[:, None])
    tab = _byte_table(cols)
    tab.flags.writeable = False
    return tab


class PauliMonomial(MonomialOperator):
    """A Pauli operator viewed as a monomial: phase i^t (-1)^{b.y}, flip by a."""

    def __init__(self, p: PauliOperator):
        self.p = p
        self.n = p.n
        self.shift = p.a

    def phase_form(self) -> tuple[complex, list[int], list[complex]]:
        return _I4[self.p.t], [self.p.b], [-1 + 0j]

    # the benchmark's trace hooks wrap this entry in each class's own body
    eval_phase_many = MonomialOperator.eval_phase_many


class DiagonalZExp(MonomialOperator):
    """``e^{i theta Q}`` for a signed Z-type Pauli Q; diagonal, phases e^{+-i theta}."""

    shift = 0

    def __init__(self, theta: float, q: PauliOperator):
        if not q.is_z_type():
            raise ValueError("exponent must be a signed Z-type Pauli")
        self.theta = float(theta)
        self.q = q
        self.n = q.n

    def phase_form(self) -> tuple[complex, list[int], list[complex]]:
        # e^{i s theta (1 - 2 parity(b.y))} with s the sign of Q
        angle = -self.theta if self.q.t == 2 else self.theta
        return cmath.exp(1j * angle), [self.q.b], [cmath.exp(-2j * angle)]


class Composition(MonomialOperator):
    """Matrix product of monomials; ``ops[0]`` is the leftmost factor."""

    def __init__(self, ops: list[MonomialOperator]):
        if not ops:
            raise ValueError("empty composition")
        self.ops = list(ops)
        self.n = ops[0].n
        if any(m.n != self.n for m in ops):
            raise SizeMismatch("composed monomials act on different registers")
        self.shift = 0
        for m in ops:
            self.shift ^= m.shift

    def phase_form(self) -> tuple[complex, list[int], list[complex]]:
        # a factor sees y ^ s, s the X shifts of the factors applied before it;
        # where parity(b & s) = 1, w^{parity(b & (y ^ s))} = w conj(w)^{parity(b & y)}
        c, masks, ws, s = 1 + 0j, [], [], 0
        for m in reversed(self.ops):
            mc, mb, mw = m.phase_form()
            c *= mc
            for b, w in zip(mb, mw):
                if (b & s).bit_count() & 1:
                    c *= w
                    w = w.conjugate()
                masks.append(b)
                ws.append(w)
            s ^= m.shift
        return c, masks, ws

    eval_phase_many = MonomialOperator.eval_phase_many


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
    # with no more basis states than samples, X is tabulated on every label
    # and each sample read from the table; entries off phi's support divide
    # by zero, and no sample reads them
    tabulated = 1 << phi.n <= k
    labels = np.arange(1 << phi.n, dtype=np.uint64) if tabulated else ys
    denom = np.conj(phi.amplitudes_raw_many(labels))
    if np.any((denom.take(ys) if tabulated else denom) == 0):
        raise ZeroAmplitudeSample("sampled a basis state outside the support")
    lam = m.eval_phase_many(labels)
    num = np.conj(psi.amplitudes_raw_many(m.permute_many(labels)))
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = lam * num / denom
    return xs.take(ys) if tabulated else xs
