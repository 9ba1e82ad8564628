"""Exact symbolic algebra of n-qubit Pauli operators.

An operator is stored in the normal form ``i^t * X^a * Z^b`` with the phase
exponent ``t`` in Z_4 and the X/Z supports ``a``, ``b`` packed into Python
integers (bit k = qubit k, 0-based).  All arithmetic is exact; no floating
point enters this module except for the optional dense-matrix export used by
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SizeMismatch

_I4 = (1 + 0j, 1j, -1 + 0j, -1j)


def _parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True, slots=True)
class PauliOperator:
    """``i^t * prod_k X_k^{a_k} Z_k^{b_k}`` on ``n`` qubits."""

    n: int
    t: int
    a: int
    b: int

    def __post_init__(self):
        if not 0 <= self.t < 4:
            object.__setattr__(self, "t", self.t % 4)
        mask = (1 << self.n) - 1
        if self.a & ~mask or self.b & ~mask:
            raise ValueError("bit-vector exceeds qubit count")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, kind: str, qubit: int) -> "PauliOperator":
        """X/Y/Z on one qubit (0-based), identity elsewhere."""
        m = 1 << qubit
        if kind == "X":
            return cls(n, 0, m, 0)
        if kind == "Z":
            return cls(n, 0, 0, m)
        if kind == "Y":
            return cls(n, 1, m, m)
        raise ValueError(f"unknown Pauli kind {kind!r}")

    # -- algebra ------------------------------------------------------

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    @property
    def r(self) -> int:
        """Symplectic vector (a, b) packed as a single 2n-bit integer."""
        return self.a | (self.b << self.n)

    def is_hermitian(self) -> bool:
        # Hermitian iff overall phase is +-1, i.e. t == a.b (mod 2).
        return (self.t & 1) == _parity(self.a & self.b)

    def is_z_type(self) -> bool:
        """No X part and a real +-1 phase (signed Z-type)."""
        return self.a == 0 and self.t in (0, 2)

    def phase_exponent_on_basis(self, y: int) -> int:
        """Exponent k with P|y> = i^k |y XOR a|."""
        return (self.t + 2 * _parity(self.b & y)) % 4

    # -- dense export (test support, n small) -------------------------

    def to_matrix(self, scale: complex = 1) -> np.ndarray:
        """Dense matrix of ``scale * P``; qubit 0 is the leftmost (most significant) factor.

        Qubit k is bit n - 1 - k of an index, so with a and b read in that
        order column y holds ``scale * i^(t + 2 parity(b & y))`` in row ``y ^ a``.
        """
        def index_bits(v: int) -> int:
            return int(format(v, f"0{self.n}b")[::-1], 2)

        ys = np.arange(1 << self.n)
        k = (self.t + 2 * (np.bitwise_count(ys & index_bits(self.b)) & 1)) & 3
        out = np.zeros((len(ys), len(ys)), dtype=complex)
        out[ys ^ index_bits(self.a), ys] = (scale * np.array(_I4)).take(k)
        return out

    def __str__(self) -> str:
        return format_pauli(self)


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Canonical form of the matrix product ``P @ Q``."""
    if p.n != q.n:
        raise SizeMismatch(f"operators on {p.n} and {q.n} qubits")
    # Z^{b_p} X^{a_q} = (-1)^{b_p . a_q} X^{a_q} Z^{b_p}
    t = (p.t + q.t + 2 * _parity(p.b & q.a)) % 4
    return PauliOperator(p.n, t, p.a ^ q.a, p.b ^ q.b)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff PQ = QP, via the symplectic product mod 2."""
    if p.n != q.n:
        raise SizeMismatch(f"operators on {p.n} and {q.n} qubits")
    return (_parity(p.a & q.b) ^ _parity(p.b & q.a)) == 0


def parse_pauli(text: str, n: int | None = None, line_no: int = 1) -> PauliOperator:
    """Parse a signed Pauli string such as ``+XZ``, ``-iYI`` or ``ZZ``.

    The optional sign prefix is one of ``+``, ``-``, ``+i``, ``-i``, ``i``;
    letters are over ``IXYZ`` with qubit 1 leftmost.  ``n`` pads/validates the
    width when given.
    """
    s = text.strip()
    t = 0
    if s.startswith(("+", "-")):
        if s[0] == "-":
            t = 2
        s = s[1:]
    if s[:1] == "i":  # lowercase i is the phase; uppercase I is the identity letter
        t = (t + 1) % 4
        s = s[1:]
    if not s:
        raise ParseError(line_no, "empty Pauli string")
    a = b = 0
    for k, ch in enumerate(s.upper()):
        m = 1 << k
        if ch == "I":
            continue
        if ch == "X":
            a |= m
        elif ch == "Z":
            b |= m
        elif ch == "Y":
            a |= m
            b |= m
            t = (t + 1) % 4
        else:
            raise ParseError(line_no, f"invalid Pauli letter {ch!r}")
    width = len(s)
    if n is not None:
        if width > n:
            raise ParseError(line_no, f"Pauli string longer than register ({width} > {n})")
        width = n
    return PauliOperator(width, t, a, b)


def format_pauli(p: PauliOperator) -> str:
    """Inverse of :func:`parse_pauli`; Y factors absorb one ``i`` each."""
    letters = []
    n_y = 0
    for k in range(p.n):
        ak = (p.a >> k) & 1
        bk = (p.b >> k) & 1
        if ak and bk:
            letters.append("Y")
            n_y += 1
        elif ak:
            letters.append("X")
        elif bk:
            letters.append("Z")
        else:
            letters.append("I")
    t = (p.t - n_y) % 4
    prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[t]
    return prefix + "".join(letters)
