"""Brute-force statevector simulator for qudits.

Ground truth for everything else in the package.  Amplitudes are stored as a
flat complex array with qudit 1 as the most significant digit, so the basis
string ``x1 x2 ... xn`` sits at flat index ``sum x_k d^(n-k)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, DenseGate, Gate, gate_matrix
from .errors import CapacityExceeded, DimensionMismatch, NotHermitian

DEFAULT_CAP = 1 << 26  # amplitudes

NORM_TOL = 1e-9
HERM_TOL = 1e-10


@dataclass
class StateVector:
    n: int
    d: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.amplitudes.shape != (self.d**self.n,):
            raise DimensionMismatch("amplitude array has wrong length")
        a = self.amplitudes
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


def _check_capacity(n: int, d: int, cap: int):
    if d**n > cap:
        raise CapacityExceeded(f"{d}^{n} amplitudes exceed the cap of {cap}")


def basis_state(n: int, d: int, x, cap: int = DEFAULT_CAP) -> StateVector:
    """|x> for a basis label given as digit string, digit sequence, or int index."""
    _check_capacity(n, d, cap)
    digits = parse_basis_label(x, n, d)
    idx = 0
    for v in digits:
        idx = idx * d + v
    amps = np.zeros(d**n, dtype=complex)
    amps[idx] = 1.0
    return StateVector(n, d, amps)


def parse_basis_label(x, n: int, d: int) -> list[int]:
    if isinstance(x, str):
        digits = [int(ch) for ch in x.strip()]
    elif isinstance(x, int):
        digits = []
        v = x
        for _ in range(n):
            digits.append(v % d)
            v //= d
        digits.reverse()
        if v:
            raise ValueError(f"basis index {x} out of range")
    else:
        digits = [int(v) for v in x]
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


def _apply_matrix(tensor: np.ndarray, m: np.ndarray, support: tuple[int, ...], d: int) -> np.ndarray:
    """``m`` on the ``support`` axes of ``tensor``; any other axis rides along.

    The support axes go to the front, one matmul acts on the (d^k, rest)
    view, and the inverse transpose puts the axes back.
    """
    rest = [ax for ax in range(tensor.ndim) if ax not in support]
    perm = [*support, *rest]
    x = tensor.transpose(perm)
    out = (m @ x.reshape(m.shape[1], -1)).reshape(x.shape)
    inv = [0] * len(perm)
    for i, ax in enumerate(perm):
        inv[ax] = i
    return out.transpose(inv)


def apply_gate(s: StateVector, g: Gate, cap: int = DEFAULT_CAP) -> StateVector:
    _check_capacity(s.n, s.d, cap)
    sup = g.support
    if sup and max(sup) >= s.n:
        raise DimensionMismatch("gate support outside the register")
    m = gate_matrix(g, s.d)
    out = _apply_matrix(s.tensor(), m, sup, s.d)
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
    if o.support and max(o.support) >= s.n:
        raise DimensionMismatch("observable support outside the register")
    t = s.tensor()
    ot = _apply_matrix(t, o.matrix, o.support, s.d)
    val = np.vdot(t, ot)
    if abs(val.imag) >= 1e-9:
        raise NotHermitian(f"expectation has imaginary part {val.imag}")
    return float(val.real)


def matrix_element(c: Circuit, x, y, cap: int = DEFAULT_CAP) -> complex:
    """<y| U_c |x> via one statevector run."""
    s = run_circuit(c, x, cap=cap)
    digits = parse_basis_label(y, c.n, c.d)
    idx = 0
    for v in digits:
        idx = idx * c.d + v
    return complex(s.amplitudes[idx])


def sample_measurement(s: StateVector, qudit: int, rng: np.random.Generator) -> int:
    """Born-rule outcome of a standard basis measurement on one qudit."""
    t = s.tensor()
    axes = tuple(ax for ax in range(s.n) if ax != qudit)
    marg = np.sum(np.abs(t) ** 2, axis=axes)
    marg = marg / marg.sum()
    return int(rng.choice(s.d, p=marg))


def circuit_unitary(c: Circuit, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Full dense unitary; only sensible for desk-scale n."""
    dim = c.d**c.n
    if dim * dim > cap:
        raise CapacityExceeded("unitary would exceed the amplitude cap")
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        m = gate_matrix(g, c.d)
        # rows carry the qudit axes, columns ride along as a batch axis
        t = u.reshape((c.d,) * c.n + (dim,))
        u = _apply_matrix(t, m, g.support, c.d).reshape(dim, dim)
    return u


def inverse_circuit(c: Circuit) -> Circuit:
    """Reverse gate order with each gate replaced by a dense adjoint."""
    gates = []
    for g in reversed(c.gates):
        m = gate_matrix(g, c.d)
        gates.append(DenseGate(g.support, m.conj().T))
    return Circuit(c.n, c.d, gates)
