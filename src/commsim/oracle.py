"""Brute-force statevector simulator for qudits, and the executor built on it.

Ground truth for everything else in the package.  Amplitudes are stored as a
flat complex array with qudit 1 as the most significant digit, so the basis
string ``x1 x2 ... xn`` sits at flat index ``sum x_k d^(n-k)``.

One kernel applies every dense gate.  It acts on a tensor over the touched
qudits in ascending order, all others still |0>, and returns the same
layout; the full register is the case where every qudit is touched.  The
measurement executor that runs the overlap estimators' ancilla tests keeps
its states in this layout, so a touched qudit 0 is the most significant
digit and its outcome 0 is the leading size/d amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index

import numpy as np

from .circuit import Circuit, Gate, gate_matrix
from .errors import (
    BatchMismatch,
    CapacityExceeded,
    DimensionMismatch,
    NotHermitian,
    ProbabilityOutOfRange,
)

DEFAULT_CAP = 1 << 26  # amplitudes

NORM_TOL = 1e-9
HERM_TOL = 1e-10


@dataclass
class StateVector:
    n: int
    d: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = self.amplitudes
        if _exceeds(self.n, self.d, a.size) or a.shape != (self.d**self.n,):
            raise DimensionMismatch("amplitude array has wrong length")
        norm = np.sqrt(np.vdot(a, a).real)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state norm {norm} deviates from 1")

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.d,) * self.n)


@dataclass
class Observable:
    """Hermitian matrix on a sorted qudit support."""

    support: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.support = tuple(self.support)
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("observable support must be sorted and distinct")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"observable matrix of shape {self.matrix.shape} is not square")
        with np.errstate(invalid="ignore"):  # inf entries give NaN
            err = np.linalg.norm(self.matrix - self.matrix.conj().T)
        if not err <= HERM_TOL:  # NaN fails too
            raise ValueError("observable is not Hermitian")


def _exceeds(n: int, d: int, cap: int) -> bool:
    """``d**n > cap``, settled by n alone when it is that large (d >= 2)."""
    return (d >= 2 and n >= cap.bit_length()) or d**n > cap


def _check_capacity(n: int, d: int, cap: int):
    if _exceeds(n, d, cap):
        raise CapacityExceeded(f"{d}^{n} amplitudes exceed the cap of {cap}")


def basis_state(n: int, d: int, x, cap: int = DEFAULT_CAP) -> StateVector:
    """|x> for a basis label given as digit string, digit sequence, or int index."""
    _check_capacity(n, d, cap)
    amps = np.zeros(d**n, dtype=complex)
    amps[_basis_index(x, n, d)] = 1.0
    return StateVector(n, d, amps)


def _basis_index(x, n: int, d: int) -> int:
    """Flat amplitude index of a basis label, qudit 1 most significant."""
    idx = 0
    for v in parse_basis_label(x, n, d):
        idx = idx * d + v
    return idx


def parse_basis_label(x, n: int, d: int) -> list[int]:
    """Digits of a basis label, qudit 1 first; the package's one label reader.

    An int is the flat index with qudit 1 most significant; a digit string or
    sequence lists the digits in qudit order.
    """
    if isinstance(x, (int, np.integer)):
        digits = []
        v = int(x)
        for _ in range(n):
            digits.append(v % d)
            v //= d
        digits.reverse()
        if v:
            raise ValueError(f"basis index {x} out of range")
    else:
        try:  # a sequence holds integers: 1.5 is no digit
            digits = [int(ch) for ch in x.strip()] if isinstance(x, str) else list(map(index, x))
        except (TypeError, ValueError):
            raise ValueError(f"basis label {x!r} is not a digit string or sequence") from None
    if len(digits) != n:
        raise ValueError(f"basis label needs {n} digits, got {len(digits)}")
    if any(not 0 <= v < d for v in digits):
        raise ValueError("basis digit out of range")
    return digits


def product_state(factors: list[np.ndarray], d: int, cap: int = DEFAULT_CAP) -> StateVector:
    n = len(factors)
    _check_capacity(n, d, cap)
    amps = np.array([1.0 + 0j])
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if f.shape != (d,):
            raise DimensionMismatch("product factor has wrong length")
        amps = np.kron(amps, f)
    return StateVector(n, d, amps)


def _gate_product(axes, t: np.ndarray, m: np.ndarray, sup: tuple[int, ...], d: int):
    """``m`` on the qudits ``sup`` times ``t``, as a (rows, rest) matrix.

    The leading axes of ``t`` are the touched qudits ``axes``, sorted; any
    trailing axes ride along as columns.  Returns the product and the
    touched qudits along its columns, ahead of the trailing axes; its rows
    follow ``sup``.  Gate qudits not yet touched are |0>, so only the matrix
    columns where they read 0 take part.  A half-row matrix ``m[: rows // d]``
    gives the rows where the leading gate qudit reads 0.
    """
    k = len(sup)
    if m.shape[1] != d**k:
        raise DimensionMismatch(
            f"a matrix with {m.shape[1]} columns does not act on {k} qudits of dimension {d}"
        )
    if any(q not in axes for q in sup):
        cols = tuple(slice(None) if q in axes else 0 for q in sup)
        m = m.reshape((m.shape[0],) + (d,) * k)[(slice(None), *cols)]
        m = m.reshape(m.shape[0], -1)
    rest = [i for i, q in enumerate(axes) if q not in sup]
    perm = [axes.index(q) for q in sup if q in axes] + rest
    if t.ndim > len(axes):
        perm += range(len(axes), t.ndim)
    x = t.transpose(perm).reshape(m.shape[1], -1)
    return m @ x, [axes[i] for i in rest]


def _apply_touched(axes, t: np.ndarray, m: np.ndarray, sup: tuple[int, ...], d: int):
    """``m`` on the qudits ``sup`` of ``t``; the one place a gate is applied.

    Returns the touched qudits afterwards, the union of ``axes`` and
    ``sup`` in ascending order, and the new tensor with them as its leading
    axes and the trailing axes of ``t`` after them.  The whole register is
    the case ``axes = range(n)``.
    """
    out, rest = _gate_product(axes, t, m, sup, d)
    labels = (*sup, *rest)
    new = tuple(sorted(labels))
    perm = [labels.index(q) for q in new]
    trail = t.shape[len(axes) :]
    if trail:
        perm += range(len(labels), len(labels) + len(trail))
    return new, out.reshape((d,) * len(labels) + trail).transpose(perm)


def apply_gate(s: StateVector, g: Gate, cap: int = DEFAULT_CAP) -> StateVector:
    _check_capacity(s.n, s.d, cap)
    sup = g.support
    if sup and not 0 <= min(sup) <= max(sup) < s.n:
        raise DimensionMismatch("gate support outside the register")
    out = _apply_touched(range(s.n), s.tensor(), gate_matrix(g, s.d), sup, s.d)[1]
    return StateVector(s.n, s.d, out.reshape(-1))


def apply_circuit(s: StateVector, c: Circuit, cap: int = DEFAULT_CAP) -> StateVector:
    if c.n != s.n or c.d != s.d:
        raise DimensionMismatch("circuit and state disagree on register shape")
    for g in c.gates:
        s = apply_gate(s, g, cap=cap)
    return s


def run_circuit(c: Circuit, x, cap: int = DEFAULT_CAP) -> StateVector:
    return apply_circuit(basis_state(c.n, c.d, x, cap=cap), c, cap=cap)


def expectation(s: StateVector, o: Observable) -> float:
    """Real part of <s|O|s>; a non-negligible imaginary part raises NotHermitian."""
    sup = o.support
    if sup and not 0 <= min(sup) <= max(sup) < s.n:
        raise DimensionMismatch("observable support outside the register")
    t = s.tensor()
    ot = _apply_touched(range(s.n), t, o.matrix, sup, s.d)[1]
    val = np.vdot(t, ot)
    if abs(val.imag) >= 1e-9:
        raise NotHermitian(f"expectation has imaginary part {val.imag}")
    return float(val.real)


def matrix_element(c: Circuit, x, y, cap: int = DEFAULT_CAP) -> complex:
    """<y| U_c |x> via one statevector run."""
    s = run_circuit(c, x, cap=cap)
    return complex(s.amplitudes[_basis_index(y, c.n, c.d)])


def circuit_unitary(c: Circuit, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Full dense unitary; only sensible for desk-scale n."""
    if _exceeds(2 * c.n, c.d, cap):  # dim * dim entries
        raise CapacityExceeded("unitary would exceed the amplitude cap")
    dim = c.d**c.n
    # rows carry the qudit axes, columns ride along as a trailing axis
    u = np.eye(dim, dtype=complex).reshape((c.d,) * c.n + (dim,))
    for g in c.gates:
        u = _apply_touched(range(c.n), u, gate_matrix(g, c.d), g.support, c.d)[1]
    return u.reshape(dim, dim)


# ---------------------------------------------------------------------------
# executors


class DenseOracleExecutor:
    """Measurement device: runs circuits on |0...0> and measures Z on qudit 0.

    It returns only outcome counts, never amplitudes, so the overlap
    estimators see what a quantum device would report.  A batch of tests
    comes as a pool circuit that holds each distinct gate once and, per
    test, a tuple of indices into the pool; the register and each pooled
    gate are checked once, by the pool.

    The statevector simulator runs the tests.  A batch visits its distinct
    tests in lexicographic order of their index tuples, a depth-first walk
    of their prefix trie, so each distinct gate prefix is applied once.  A
    state holds only the qudits its gates have touched, in the kernel's
    layout; the others are still |0> and leave p(0) alone.  p(0) of a test
    comes from the state before its last gate, by :func:`_last_weight`, so
    it does not depend on the other tests in the batch; the state after that
    gate is built and held only when the next test extends the test.  The
    executor keeps nothing between calls; within a call, ``cap`` bounds the
    full register and the total size of the states held for later tests.
    """

    def __init__(self, cap: int | None = None):
        self.cap = DEFAULT_CAP if cap is None else cap

    def _p_zero(
        self, pool: Circuit, tests: list[tuple[int, ...]]
    ) -> dict[tuple[int, ...], float]:
        """p(0) of qudit 0 after each distinct test, from |0...0>."""
        _check_capacity(pool.n, pool.d, self.cap)
        d = pool.d
        ops = [(gate_matrix(g, d), g.support) for g in pool.gates]
        order = sorted(set(tests))
        held = _Held(self.cap, StateVector(0, d, np.ones(1, dtype=complex)))
        p = {}
        for i, t in enumerate(order):
            share = _common_prefix(t, order[i + 1] if i + 1 < len(order) else ())
            # later tests share at most `share` leading gates with this one
            depth, axes, s = held.states[-1]
            for j in range(depth, len(t) - 1):
                axes, s = _step(axes, s, *ops[t[j]], d)
                if j < share:
                    held.push(j + 1, axes, s)
            if not t:
                p[t] = 1.0  # no gate has touched qudit 0
            else:
                m, sup = ops[t[-1]]
                p[t] = _last_weight(axes, s, m, sup, d)
                if share == len(t):  # the next test extends this one
                    held.push(len(t), *_step(axes, s, m, sup, d))
            held.pop_above(share)
        return p

    def run_counts(self, c: Circuit, shots: int, rng: np.random.Generator) -> int:
        """Number of +1 outcomes among ``shots`` runs of ``c``."""
        return self.run_counts_many(c, [tuple(range(len(c.gates)))], [shots], rng)[0]

    def run_counts_many(
        self,
        pool: Circuit,
        tests: list[tuple[int, ...]],
        shots: list[int],
        rng: np.random.Generator,
    ) -> list[int]:
        """Number of +1 outcomes of each test's pool gates, in input order."""
        if len(tests) != len(shots):
            raise BatchMismatch(f"{len(tests)} tests but {len(shots)} shot counts")
        tests = [tuple(t) for t in tests]
        m = len(pool.gates)
        for t in tests:
            if t and not (min(t) >= 0 and max(t) < m):
                raise BatchMismatch(f"test {t} names a gate outside the pool of {m}")
        p = self._p_zero(pool, tests)
        # every p depends on its own gates only, so drawing after the walk
        # and in input order spends the rng as test-by-test runs would
        return [int(rng.binomial(k, p[t])) for t, k in zip(tests, shots)]


class _Held:
    """States along the current test, shallowest first; ``cap`` amplitudes in all."""

    def __init__(self, cap: int, root: StateVector):
        self.cap = cap
        self.states: list[tuple[int, tuple[int, ...], StateVector]] = [(0, (), root)]
        self.size = root.amplitudes.size

    def push(self, depth: int, axes: tuple[int, ...], s: StateVector):
        if self.size + s.amplitudes.size <= self.cap:
            self.states.append((depth, axes, s))
            self.size += s.amplitudes.size

    def pop_above(self, depth: int):
        while self.states[-1][0] > depth:
            self.size -= self.states.pop()[2].amplitudes.size


def _common_prefix(a: tuple, b: tuple) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def _step(axes: tuple[int, ...], s: StateVector, m: np.ndarray, sup: tuple[int, ...], d: int):
    """``m`` on a held state; the new state passes the norm check."""
    axes, t = _apply_touched(axes, s.tensor(), m, sup, d)
    return axes, StateVector(len(axes), d, t.reshape(-1))


def _last_weight(
    axes: tuple[int, ...], s: StateVector, m: np.ndarray, sup: tuple[int, ...], d: int
) -> float:
    """p(0) after the gate ``m`` on ``sup``, computed from the state before it.

    A gate that misses qudit 0 leaves p(0) as it was; when qudit 0 leads the
    gate's axes, the rows where it reads 0 are all that p(0) needs.  So p of
    a test depends on its own gates only, not on which tests ran with it.
    """
    if 0 not in sup:
        return _zero_weight(axes, s, d)
    if sup[0] == 0:
        half = m[: m.shape[0] // d]
        return _checked_weight(_gate_product(axes, s.tensor(), half, sup, d)[0])
    return _zero_weight(*_step(axes, s, m, sup, d), d)


def _zero_weight(axes: tuple[int, ...], s: StateVector, d: int) -> float:
    # qudit 0 is the most significant touched digit, so its outcome 0 is
    # the leading size/d amplitudes; an untouched qudit 0 is still |0>
    a = s.amplitudes
    return _checked_weight(a[: a.size // d] if axes[:1] == (0,) else a)


def _checked_weight(h: np.ndarray) -> float:
    p = float(np.vdot(h, h).real)
    if not p <= 1.0 + NORM_TOL:  # NaN fails too
        raise ProbabilityOutOfRange(f"outcome probability {p} is not in [0, 1]")
    return min(1.0, p)
