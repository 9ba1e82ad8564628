"""Qudit circuit intermediate representation and text format.

Gates come in four kinds: named single/two-qubit Cliffords (d = 2 only),
dense k-local unitaries, exponentials ``e^{i theta P}`` of Hermitian Pauli
operators (d = 2 only), and controlled wrappers.  Qudit indices are 1-based
in files and error messages, 0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotCommuting, NotHermitian, ParseError
from .pauli import PauliOperator, format_pauli, parse_pauli

UNITARY_TOL = 1e-10
COMMUTE_TOL = 1e-10
# file headers above these bounds are refused before anything is allocated
MAX_QUDITS = 1 << 16
MAX_DIM = 16

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)

NAMED_MATRICES = {"h": _H, "s": _S, "x": _X, "z": _Z, "cnot": _CNOT, "cz": _CZ}
NAMED_ARITY = {"h": 1, "s": 1, "x": 1, "z": 1, "cnot": 2, "cz": 2}


@dataclass(frozen=True)
class NamedGate:
    """One of h/s/x/z/cnot/cz on distinct ``qubits``, control first; checked here."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if NAMED_ARITY.get(self.name) != len(self.qubits):
            raise ValueError(f"no named gate {self.name!r} on {len(self.qubits)} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate support indices must be distinct")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.qubits))


@dataclass(frozen=True)
class DenseGate:
    """Explicit unitary on ``qudits``; the matrix's axes follow the given order.

    The gate stores its qudits sorted and its matrix permuted to match, so
    ``qudits`` is the sorted support and ``matrix`` has the sorted axis order
    every kernel assumes.  The qudits (distinct, non-negative) and the
    matrix's unitarity are checked once, here, and the matrix is kept as a
    read-only copy, so a constructed gate stays valid and its identity can
    key caches.
    """

    qudits: tuple[int, ...]
    matrix: np.ndarray = field(hash=False)

    def __post_init__(self):
        q = tuple(self.qudits)
        if len(set(q)) != len(q):
            raise ValueError("gate support indices must be distinct")
        if q and min(q) < 0:
            raise ValueError(f"gate support {q} has a negative index")
        m = np.array(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"dense matrix of shape {m.shape} is not square")
        if list(q) != sorted(q):
            d = round(m.shape[0] ** (1 / len(q)))
            if d ** len(q) != m.shape[0]:
                raise ValueError(f"a {m.shape[0]}-wide matrix fits no {len(q)} equal qudits")
            m = _permute_axes(m, q, tuple(sorted(q)), d)
            q = tuple(sorted(q))
        object.__setattr__(self, "qudits", q)
        with np.errstate(invalid="ignore", over="ignore"):  # inf entries give NaN
            err = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
        if not err <= UNITARY_TOL:  # NaN fails too
            raise ValueError(f"dense matrix is not unitary (deviation {err:.2e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def support(self) -> tuple[int, ...]:
        return self.qudits


@dataclass(frozen=True)
class PauliExpGate:
    """``e^{i theta P}`` for a Pauli operator over the register, checked Hermitian here."""

    theta: float
    pauli: PauliOperator

    def __post_init__(self):
        if not self.pauli.is_hermitian():
            raise NotHermitian("exponentiated Pauli must be Hermitian")

    @property
    def support(self) -> tuple[int, ...]:
        bits = self.pauli.a | self.pauli.b
        return tuple(k for k in range(self.pauli.n) if (bits >> k) & 1)


@dataclass(frozen=True)
class ControlledGate:
    """Inner gate applied when ``control``, outside its support, is |1>; d = 2; checked here."""

    control: int
    inner: "Gate"

    def __post_init__(self):
        if self.control in self.inner.support:
            raise ValueError("control qubit overlaps inner gate support")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({self.control, *self.inner.support}))


Gate = NamedGate | DenseGate | PauliExpGate | ControlledGate


@dataclass
class Circuit:
    """Ordered gate list on ``n`` qudits of local dimension ``d``.

    ``layer_sizes`` partitions the gate list into depth layers (from the
    ``---`` separators in the text format); a circuit without separators is a
    single layer.
    """

    n: int
    d: int = 2
    gates: list[Gate] = field(default_factory=list)
    layer_sizes: list[int] | None = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("local dimension must be >= 2")
        for g in self.gates:
            self._check_gate(g)
        if self.layer_sizes is not None and sum(self.layer_sizes) != len(self.gates):
            raise ValueError("layer sizes do not sum to the gate count")

    def _check_gate(self, g: Gate):
        sup = g.support  # distinct: every gate type guarantees it
        if sup and (min(sup) < 0 or max(sup) >= self.n):
            raise ValueError(f"gate support {sup} outside register of size {self.n}")
        if isinstance(g, DenseGate):  # the gate checked the rest of itself
            dim = self.d ** len(sup)
            if g.matrix.shape != (dim, dim):
                raise ValueError("dense matrix shape does not match support")
            return
        if self.d != 2 and isinstance(g, (NamedGate, PauliExpGate, ControlledGate)):
            raise ValueError("named, Pauli-exponential and controlled gates need d = 2")
        if isinstance(g, PauliExpGate) and g.pauli.n != self.n:
            raise ValueError("Pauli width must equal the register size")
        if isinstance(g, ControlledGate):
            self._check_gate(g.inner)


# ---------------------------------------------------------------------------
# dense matrices of gates


def gate_matrix(g: Gate, d: int) -> np.ndarray:
    """Dense unitary of ``g`` with axes ordered by sorted support."""
    if isinstance(g, NamedGate):
        m = NAMED_MATRICES[g.name]
        if list(g.qubits) != sorted(g.qubits):
            m = _permute_axes(m, g.qubits, tuple(sorted(g.qubits)), d)
        return m
    if isinstance(g, DenseGate):
        return g.matrix
    if isinstance(g, PauliExpGate):
        # cos(theta) I + i sin(theta) P: the scaled Pauli, then the diagonal
        m = _restrict_pauli(g.pauli).to_matrix(1j * math.sin(g.theta))
        m.flat[:: len(m) + 1] += math.cos(g.theta)
        return m
    if isinstance(g, ControlledGate):
        inner = gate_matrix(g.inner, d)
        block = _two_branch_block(np.eye(inner.shape[0]), inner)
        return _permute_axes(block, (g.control, *g.inner.support), g.support, d)
    raise TypeError(f"unknown gate {g!r}")


def _two_branch_block(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """diag(m0, m1): the leading qubit selects the branch, m0 when it is |0>."""
    dim = m0.shape[0]
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    out[:dim, :dim] = m0
    out[dim:, dim:] = m1
    return out


def _restrict_pauli(p: PauliOperator) -> PauliOperator:
    """Project a Pauli onto its own support, keeping the phase."""
    bits = p.a | p.b
    sup = [k for k in range(p.n) if (bits >> k) & 1]
    a = b = 0
    for i, k in enumerate(sup):
        a |= ((p.a >> k) & 1) << i
        b |= ((p.b >> k) & 1) << i
    return PauliOperator(len(sup), p.t, a, b)


def _permute_axes(
    m: np.ndarray, order_from: tuple[int, ...], order_to: tuple[int, ...], d: int
) -> np.ndarray:
    """Reinterpret ``m`` (axes = qudits in ``order_from``) for ``order_to``."""
    k = len(order_from)
    perm = [order_from.index(q) for q in order_to]
    t = m.reshape((d,) * (2 * k))
    t = t.transpose(perm + [k + p for p in perm])
    return t.reshape(d**k, d**k)


def embed_matrix(
    m: np.ndarray, sup: tuple[int, ...], target: tuple[int, ...], d: int
) -> np.ndarray:
    """Embed ``m`` (on sorted ``sup``) into the larger sorted register ``target``."""
    extra = tuple(q for q in target if q not in sup)
    if not extra:
        if sup == target:
            return m
        return _permute_axes(m, sup, target, d)
    big = np.kron(m, np.eye(d ** len(extra), dtype=complex))
    return _permute_axes(big, sup + extra, target, d)


def union_matrices(g1: Gate, g2: Gate, d: int):
    """Dense matrices of both gates on their sorted union support."""
    union = tuple(sorted(set(g1.support) | set(g2.support)))
    m1 = embed_matrix(gate_matrix(g1, d), g1.support, union, d)
    m2 = embed_matrix(gate_matrix(g2, d), g2.support, union, d)
    return m1, m2, union


def is_commuting_pair(g1: Gate, g2: Gate, d: int = 2) -> bool:
    """Frobenius commutator test on the union support; disjoint is free."""
    if not set(g1.support) & set(g2.support):
        return True
    m1, m2, _ = union_matrices(g1, g2, d)
    return bool(np.linalg.norm(m1 @ m2 - m2 @ m1) < COMMUTE_TOL)


def check_pairwise_commuting(c: Circuit):
    """Raise :class:`NotCommuting` with the offending (0-based) pair indices."""
    for i in range(len(c.gates)):
        for j in range(i + 1, len(c.gates)):
            if not is_commuting_pair(c.gates[i], c.gates[j], c.d):
                raise NotCommuting(i, j)


# ---------------------------------------------------------------------------
# text format


def text_lines(text: str):
    """``(line number, line)`` of each line left non-blank once its ``#`` comment goes."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield no, line


def parse_angle(tok: str, no: int) -> float:
    """The finite float ``tok``; ParseError on line ``no`` names it otherwise."""
    try:
        theta = float(tok)
    except ValueError:
        raise ParseError(no, f"bad angle {tok!r}") from None
    if not math.isfinite(theta):
        raise ParseError(no, f"angle {tok!r} is not finite")
    return theta


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format (see README for the grammar).

    Each gate is checked once, by its own type and :meth:`Circuit._check_gate`,
    and a failure becomes a ParseError on its line.
    """
    lines = text_lines(text)
    header_no, header = next(lines, (1, None))
    if header is None:
        raise ParseError(1, "missing 'circuit' header")
    toks = header.split()
    if toks[0] != "circuit" or len(toks) not in (2, 4):
        raise ParseError(header_no, "header must be 'circuit <n> [dim <d>]'")
    try:
        n = int(toks[1])
    except ValueError:
        raise ParseError(header_no, f"bad qudit count {toks[1]!r}") from None
    d = 2
    if len(toks) == 4:
        if toks[2] != "dim":
            raise ParseError(header_no, "expected 'dim' keyword")
        try:
            d = int(toks[3])
        except ValueError:
            raise ParseError(header_no, f"bad dimension {toks[3]!r}") from None
    if not (1 <= n <= MAX_QUDITS and 2 <= d <= MAX_DIM):
        raise ParseError(header_no, f"need 1 <= n <= {MAX_QUDITS} and 2 <= d <= {MAX_DIM}")

    c = Circuit(n, d)
    layer_sizes: list[int] | None = None
    in_layer = 0
    for no, line in lines:
        if line == "---":
            if layer_sizes is None:
                layer_sizes = []
            layer_sizes.append(in_layer)
            in_layer = 0
            continue
        try:
            g = _parse_gate_line(line, no, n, d)
            c._check_gate(g)
        except (NotHermitian, ValueError) as exc:
            raise ParseError(no, str(exc)) from None
        c.gates.append(g)
        in_layer += 1
    if layer_sizes is not None:
        layer_sizes.append(in_layer)
        c.layer_sizes = layer_sizes
    return c


def _parse_gate_line(line: str, no: int, n: int, d: int) -> Gate:
    """The gate a line names; only its tokens are checked here."""
    toks = line.split()
    op = toks[0].lower()
    if op in NAMED_ARITY:
        return NamedGate(op, tuple(_parse_index(t, no, n) for t in toks[1:]))
    if op == "exppauli":
        if len(toks) != 3:
            raise ParseError(no, "exppauli expects '<theta> <pauli string>'")
        return PauliExpGate(parse_angle(toks[1], no), parse_pauli(toks[2], n=n, line_no=no))
    if op == "dense":
        if len(toks) < 2:
            raise ParseError(no, "dense expects '<k> <q1..qk> <floats>'")
        try:
            k = int(toks[1])
        except ValueError:
            k = -1
        if k < 0:
            raise ParseError(no, f"bad locality {toks[1]!r}")
        if len(toks) < 2 + k:
            raise ParseError(no, "missing qudit indices for dense gate")
        qudits = tuple(_parse_index(t, no, n) for t in toks[2 : 2 + k])
        dim = d**k
        vals = toks[2 + k :]
        if len(vals) != 2 * dim * dim:
            raise ParseError(no, f"dense gate needs {2 * dim * dim} floats, got {len(vals)}")
        try:
            flat = np.array([float(v) for v in vals], dtype=float)
        except ValueError:
            raise ParseError(no, "bad float literal in dense gate") from None
        return DenseGate(qudits, (flat[0::2] + 1j * flat[1::2]).reshape(dim, dim))
    if op == "ctrl":
        if len(toks) < 3:
            raise ParseError(no, "ctrl expects '<q> <gate-line>'")
        control = _parse_index(toks[1], no, n)
        return ControlledGate(control, _parse_gate_line(" ".join(toks[2:]), no, n, d))
    raise ParseError(no, f"unknown gate {op!r}")


def _parse_index(tok: str, no: int, n: int) -> int:
    try:
        q = int(tok)
    except ValueError:
        raise ParseError(no, f"bad qudit index {tok!r}") from None
    if not 1 <= q <= n:
        raise ParseError(no, f"qudit index {q} out of range 1..{n}")
    return q - 1


def serialize_circuit(c: Circuit) -> str:
    """Emit circuit text that reparses to a structurally identical circuit."""
    head = f"circuit {c.n}" + (f" dim {c.d}" if c.d != 2 else "")
    lines = [head]
    sizes = c.layer_sizes if c.layer_sizes is not None else [len(c.gates)]
    pos = 0
    for li, size in enumerate(sizes):
        if li > 0:
            lines.append("---")
        lines += [_format_gate(g) for g in c.gates[pos : pos + size]]
        pos += size
    return "\n".join(lines) + "\n"


def _format_gate(g: Gate) -> str:
    if isinstance(g, NamedGate):
        return " ".join([g.name] + [str(q + 1) for q in g.qubits])
    if isinstance(g, PauliExpGate):
        return f"exppauli {g.theta!r} {format_pauli(g.pauli)}"
    if isinstance(g, DenseGate):
        parts = [f"dense {len(g.qudits)}"] + [str(q + 1) for q in g.qudits]
        for v in g.matrix.reshape(-1):
            parts.append(repr(float(v.real)))
            parts.append(repr(float(v.imag)))
        return " ".join(parts)
    if isinstance(g, ControlledGate):
        return f"ctrl {g.control + 1} {_format_gate(g.inner)}"
    raise TypeError(f"unknown gate {g!r}")
