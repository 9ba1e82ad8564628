"""Stabilizer-tableau engine.

Clifford circuits are gate lists over {h, s, x, z, cnot, cz}.  One rule,
``_conj_gate``, conjugates a Pauli by one gate with the Aaronson-Gottesman
bit updates on the (t, a, b) normal form; :func:`conjugate_pauli` pushes a
single Pauli through a circuit with it, and :class:`CliffordTableau` keeps
the images of all X_k and Z_k for callers that conjugate many Paulis.

A stabilizer state is stored as its generator list plus a phased anchor
amplitude, from which an affine-subspace form (support coset + exact phases)
is derived lazily.  That form yields exact amplitudes, Born sampling, and the
amplitude convention used across the package: the lexicographically least
support element has a real positive coefficient.  The affine form and prep
synthesis share one X-block elimination, ``_reduce_x_block``; basis labels
are ints with bit k = qubit k, or digit strings read by
:func:`oracle.parse_basis_label`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .circuit import Circuit, NamedGate
from .errors import (
    DependentInput,
    MinusIdentity,
    NotCommuting,
    NotHermitian,
    SizeMismatch,
)
from .oracle import parse_basis_label
from .pauli import _I4, PauliOperator, commutes, multiply

CLIFFORD_GATES = {"h": 1, "s": 1, "x": 1, "z": 1, "cnot": 2, "cz": 2}


@dataclass(frozen=True)
class CliffordCircuit:
    """Ordered list of named Clifford gates on n qubits (0-based indices)."""

    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        for name, qs in self.gates:
            if name not in CLIFFORD_GATES or len(qs) != CLIFFORD_GATES[name]:
                raise ValueError(f"bad Clifford gate {(name, qs)!r}")
            if any(not 0 <= q < self.n for q in qs) or len(set(qs)) != len(qs):
                raise ValueError(f"bad qubit indices in {(name, qs)!r}")

    def __len__(self):
        return len(self.gates)

    def inverse(self) -> "CliffordCircuit":
        inv = []
        for name, qs in reversed(self.gates):
            if name == "s":
                inv += [("s", qs)] * 3  # S^3 = S^dagger
            else:
                inv.append((name, qs))
        return CliffordCircuit(self.n, tuple(inv))

    def then(self, other: "CliffordCircuit") -> "CliffordCircuit":
        if other.n != self.n:
            raise SizeMismatch("circuits act on different registers")
        return CliffordCircuit(self.n, self.gates + other.gates)

    def to_circuit(self) -> Circuit:
        return Circuit(self.n, 2, [NamedGate(name, qs) for name, qs in self.gates])


# ---------------------------------------------------------------------------
# conjugation


def _conj_gate(p: PauliOperator, name: str, qs: tuple[int, ...]) -> PauliOperator:
    """Image ``g P g^dag`` for a single named Clifford gate.

    The Aaronson-Gottesman update rules act directly on the (t, a, b) form.
    """
    t, a, b = p.t, p.a, p.b
    q = qs[0]
    x, z = (a >> q) & 1, (b >> q) & 1
    if name == "h":  # X <-> Z, and XZ -> ZX = -XZ
        t += 2 * (x & z)
        a ^= (x ^ z) << q
        b ^= (x ^ z) << q
    elif name == "s":  # X -> Y = iXZ
        t += x
        b ^= x << q
    elif name == "x":
        t += 2 * z
    elif name == "z":
        t += 2 * x
    elif name == "cnot":  # X_c -> X_c X_t, Z_t -> Z_c Z_t
        a ^= x << qs[1]
        b ^= ((b >> qs[1]) & 1) << q
    else:  # cz: X_1 -> X_1 Z_2, X_2 -> Z_1 X_2
        x2 = (a >> qs[1]) & 1
        t += 2 * (x & x2)
        b ^= (x << qs[1]) | (x2 << q)
    return PauliOperator(p.n, t % 4, a, b)


class CliffordTableau:
    """Images of all X_k and Z_k under a composed Clifford circuit."""

    def __init__(self, n: int):
        self.n = n
        self.x_images = [PauliOperator(n, 0, 1 << k, 0) for k in range(n)]
        self.z_images = [PauliOperator(n, 0, 0, 1 << k) for k in range(n)]

    @classmethod
    def from_circuit(cls, c: CliffordCircuit) -> "CliffordTableau":
        tab = cls(c.n)
        for name, qs in c.gates:
            tab.x_images = [_conj_gate(p, name, qs) for p in tab.x_images]
            tab.z_images = [_conj_gate(p, name, qs) for p in tab.z_images]
        return tab

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        """Image ``U P U^dag`` where U is the composed circuit."""
        if p.n != self.n:
            raise SizeMismatch("Pauli width differs from tableau width")
        out = PauliOperator(self.n, p.t, 0, 0)
        a, b = p.a, p.b
        while a:
            k = gf2.lowest_bit(a)
            out = multiply(out, self.x_images[k])
            a &= a - 1
        while b:
            k = gf2.lowest_bit(b)
            out = multiply(out, self.z_images[k])
            b &= b - 1
        return out


def conjugate_pauli(
    c: CliffordCircuit, p: PauliOperator, direction: str = "forward"
) -> PauliOperator:
    """``U P U^dag`` (forward) or ``U^dag P U`` (inverse) for U = circuit of c."""
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    if p.n != c.n:
        raise SizeMismatch("Pauli width differs from circuit width")
    for name, qs in (c if direction == "forward" else c.inverse()).gates:
        p = _conj_gate(p, name, qs)
    return p


# ---------------------------------------------------------------------------
# stabilizer states


def _as_int_label(x, n: int) -> int:
    """Basis label as an int with bit k = qubit k; strings list qubits in order."""
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < 1 << n:
            raise ValueError(f"basis index {x} out of range for {n} qubits")
        return int(x)
    return sum(bit << k for k, bit in enumerate(parse_basis_label(x, n, 2)))


def _reduce_x_block(rows: list[PauliOperator]) -> dict[int, int]:
    """Row-reduce the X parts of ``rows`` in place; return {pivot qubit: row index}.

    Pivot qubits come in ascending order, each pivot row is the only row with
    an X on its pivot qubit, and the rows without a pivot end with no X part.
    """
    piv_of: dict[int, int] = {}
    used: set[int] = set()
    for q in range(rows[0].n):
        hit = next(
            (i for i, g in enumerate(rows) if i not in used and (g.a >> q) & 1), None
        )
        if hit is None:
            continue
        piv_of[q] = hit
        used.add(hit)
        for i, g in enumerate(rows):
            if i != hit and (g.a >> q) & 1:
                rows[i] = multiply(g, rows[hit])
    return piv_of


@dataclass
class _AffineForm:
    movers: list[tuple[PauliOperator, int]]  # (generator product, pivot qubit)
    zcons: list[PauliOperator]  # pure Z-type constraints
    y_particular: int
    y0: int  # lexicographically least support element
    min_basis: dict[int, int]

    @property
    def s(self) -> int:
        return len(self.movers)


class StabilizerState:
    """n-qubit stabilizer state with a phased anchor amplitude.

    ``anchor_amp`` is the exact coefficient ``<anchor_y|psi>`` for whatever
    global phase the state was constructed with; :meth:`amplitude` defaults
    to the package-wide convention instead (least support element positive).
    """

    def __init__(
        self,
        generators: list[PauliOperator],
        anchor_y: int | None = None,
        anchor_amp: complex | None = None,
        check: bool = True,
    ):
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n
        if any(g.n != n for g in generators):
            raise SizeMismatch("generators act on different registers")
        if len(generators) != n:
            raise ValueError(f"need exactly n={n} generators, got {len(generators)}")
        if check:
            for i, g in enumerate(generators):
                if not g.is_hermitian():
                    raise NotHermitian(f"generator {i} is not Hermitian")
                for j in range(i + 1, n):
                    if not commutes(g, generators[j]):
                        raise NotCommuting(i, j)
            if len(gf2.independent_indices([g.r for g in generators])) != n:
                raise DependentInput("generators are dependent over GF(2)")
        self.n = n
        self.generators = list(generators)
        self._affine: _AffineForm | None = None
        if anchor_y is None:
            aff = self.affine_form()
            self.anchor_y = aff.y0
            self.anchor_amp = complex(2.0 ** (-aff.s / 2.0))
        else:
            self.anchor_y = anchor_y
            self.anchor_amp = complex(anchor_amp)

    # -- affine form ---------------------------------------------------

    def affine_form(self) -> _AffineForm:
        if self._affine is not None:
            return self._affine
        rows = list(self.generators)
        piv_of = _reduce_x_block(rows)
        movers = [(rows[i], q) for q, i in piv_of.items()]
        pivoted = set(piv_of.values())
        zcons = [g for i, g in enumerate(rows) if i not in pivoted]
        for h in zcons:
            if h.a != 0:
                raise AssertionError("elimination left an X part behind")
            if h.t not in (0, 2):
                raise MinusIdentity("a generator product carries an imaginary phase")
        # membership constraints: parity(b.y) == 1 iff sign is -1
        sys_rows = [h.b for h in zcons]
        sys_rhs = [0 if h.t == 0 else 1 for h in zcons]
        y_p = gf2.solve(sys_rows, sys_rhs)
        if y_p is None:
            raise MinusIdentity("constraints are inconsistent (-I in the group)")
        basis = gf2.reduced_basis([g.a for g, _ in movers])
        y0 = gf2.coset_min(y_p, basis)
        self._affine = _AffineForm(movers, zcons, y_p, y0, basis)
        return self._affine

    def in_support(self, y: int) -> bool:
        aff = self.affine_form()
        for h in aff.zcons:
            rhs = 0 if h.t == 0 else 1
            if ((h.b & y).bit_count() & 1) != rhs:
                return False
        return True

    def _mover_product(self, v: int) -> PauliOperator | None:
        """Stabilizer with X part ``v``, or None if v is outside the span."""
        aff = self.affine_form()
        g = PauliOperator.identity(self.n)
        for mover, piv in aff.movers:
            if (v >> piv) & 1:
                g = multiply(g, mover)
        if g.a != v:
            return None
        return g

    def amplitude_raw(self, y: int) -> complex:
        """Exact ``<y|psi>`` in the global phase fixed by the anchor."""
        if not self.in_support(y):
            return 0.0 + 0.0j
        g = self._mover_product(y ^ self.anchor_y)
        if g is None:
            return 0.0 + 0.0j
        # <y|psi> = phi_g(y ^ a_g) <y ^ a_g|psi> with y ^ a_g = anchor
        k = g.phase_exponent_on_basis(self.anchor_y)
        return _I4[k] * self.anchor_amp

    def amplitude(self, y, phased: bool = False) -> complex:
        """Exact ``<y|psi>``; by convention the least support element is positive."""
        y = _as_int_label(y, self.n)
        if phased:
            return self.amplitude_raw(y)
        aff = self.affine_form()
        a0 = self.amplitude_raw(aff.y0)
        ay = self.amplitude_raw(y)
        if ay == 0:
            return 0.0 + 0.0j
        return ay / a0 * 2.0 ** (-aff.s / 2.0)

    def global_phase(self) -> complex:
        """Phase by which the tracked state differs from the convention."""
        aff = self.affine_form()
        a0 = self.amplitude_raw(aff.y0)
        return a0 / abs(a0)

    def label(self, y: int) -> str:
        return "".join(str((y >> k) & 1) for k in range(self.n))

    # -- sampling ------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> int:
        aff = self.affine_form()
        y = aff.y0
        if aff.movers:
            bits = rng.integers(0, 2, size=len(aff.movers))
            for (g, _), bit in zip(aff.movers, bits):
                if bit:
                    y ^= g.a
        return y

    def sample_many(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """k uniform support samples as a uint64 array (requires n <= 64)."""
        aff = self.affine_form()
        if self.n > 64:
            raise ValueError("vectorized sampling supports n <= 64")
        ys = np.full(k, np.uint64(aff.y0), dtype=np.uint64)
        if aff.movers:
            bits = rng.integers(0, 2, size=(k, len(aff.movers)), dtype=np.uint64)
            for j, (g, _) in enumerate(aff.movers):
                ys ^= bits[:, j] * np.uint64(g.a)
        return ys

    def amplitudes_raw_many(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`amplitude_raw` for uint64 samples (n <= 64)."""
        aff = self.affine_form()
        if self.n > 64:
            raise ValueError("vectorized amplitudes support n <= 64")
        ys = ys.astype(np.uint64)
        ok = np.ones(ys.shape, dtype=bool)
        for h in aff.zcons:
            rhs = 0 if h.t == 0 else 1
            par = _popcount64(ys & np.uint64(h.b)) & 1
            ok &= par == rhs
        v = ys ^ np.uint64(self.anchor_y)
        t_run = np.zeros(ys.shape, dtype=np.int64)
        b_run = np.zeros(ys.shape, dtype=np.uint64)
        a_run = np.zeros(ys.shape, dtype=np.uint64)
        for g, piv in aff.movers:
            sel = ((v >> np.uint64(piv)) & np.uint64(1)).astype(bool)
            cross = _popcount64(b_run & np.uint64(g.a)) & 1
            t_run = np.where(sel, t_run + g.t + 2 * cross, t_run)
            b_run = np.where(sel, b_run ^ np.uint64(g.b), b_run)
            a_run = np.where(sel, a_run ^ np.uint64(g.a), a_run)
        ok &= a_run == v
        k = (t_run + 2 * (_popcount64(b_run & np.uint64(self.anchor_y)) & 1)) % 4
        phases = np.array(_I4)[k]
        return np.where(ok, phases * self.anchor_amp, 0.0 + 0.0j)


def _popcount64(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64)


# ---------------------------------------------------------------------------
# evolution with exact phase tracking


def _monomial_action(name: str, qs: tuple[int, ...], y: int) -> tuple[int, int]:
    """(phase exponent k with g|y> = i^k |y'>, y') for monomial gates."""
    if name == "s":
        q = qs[0]
        return ((y >> q) & 1, y)
    if name == "x":
        return (0, y ^ (1 << qs[0]))
    if name == "z":
        return (2 * ((y >> qs[0]) & 1), y)
    if name == "cnot":
        c, t = qs
        return (0, y ^ (((y >> c) & 1) << t))
    if name == "cz":
        a, b = qs
        return (2 * (((y >> a) & (y >> b)) & 1), y)
    raise ValueError(name)


def evolve(x, c: CliffordCircuit) -> StabilizerState:
    """``C|x>`` with the exact global phase tracked gate by gate."""
    n = c.n
    xv = _as_int_label(x, n)
    gens = [
        PauliOperator(n, 2 * ((xv >> k) & 1), 0, 1 << k) for k in range(n)
    ]
    state = StabilizerState(gens, anchor_y=xv, anchor_amp=1.0 + 0.0j, check=False)
    for name, qs in c.gates:
        new_gens = [_conj_gate(g, name, qs) for g in state.generators]
        if name == "h":
            q = qs[0]
            w = _support_element(new_gens, n)
            w0 = w & ~(1 << q)
            w1 = w | (1 << q)
            amp = (
                state.amplitude_raw(w0)
                + (-1.0 if (w >> q) & 1 else 1.0) * state.amplitude_raw(w1)
            ) / math.sqrt(2.0)
            state = StabilizerState(new_gens, anchor_y=w, anchor_amp=amp, check=False)
        else:
            k, y2 = _monomial_action(name, qs, state.anchor_y)
            state = StabilizerState(
                new_gens,
                anchor_y=y2,
                anchor_amp=_I4[k] * state.anchor_amp,
                check=False,
            )
    return state


def _support_element(generators: list[PauliOperator], n: int) -> int:
    probe = StabilizerState(generators, anchor_y=0, anchor_amp=1.0, check=False)
    return probe.affine_form().y_particular


# ---------------------------------------------------------------------------
# generator completion / prep synthesis / diagonalization


def _validate_commuting_hermitian(paulis: list[PauliOperator]):
    for i, p in enumerate(paulis):
        if not p.is_hermitian():
            raise NotHermitian(f"operator {i} is not Hermitian")
        for j in range(i + 1, len(paulis)):
            if not commutes(p, paulis[j]):
                raise NotCommuting(i, j)


def complete_generators(indep: list[PauliOperator], n: int | None = None) -> StabilizerState:
    """Extend an independent commuting Hermitian set to a full stabilizer state.

    The returned state's first ``len(indep)`` generators are the inputs.
    """
    if indep:
        n = indep[0].n
    elif n is None:
        raise ValueError("need n for an empty input set")
    _validate_commuting_hermitian(indep)
    for i, p in enumerate(indep):
        if p.r == 0:
            raise (
                MinusIdentity(f"operator {i} is -I")
                if p.t == 2
                else DependentInput(f"operator {i} is the identity")
            )
    rows = [p.r for p in indep]
    if len(gf2.independent_indices(rows)) != len(rows):
        raise DependentInput("input operators are dependent over GF(2)")
    gens = list(indep)
    while len(gens) < n:
        # symplectic orthogonality: v commutes with w iff parity(v & swap(w)) = 0
        cons = [_swap_halves(g.r, n) for g in gens]
        for v in gf2.nullspace(cons, 2 * n):
            if not gf2.in_span(v, [g.r for g in gens]):
                a = v & ((1 << n) - 1)
                b = v >> n
                t = (a & b).bit_count() & 1  # smallest Hermitian phase
                gens.append(PauliOperator(n, t, a, b))
                break
        else:
            raise AssertionError("isotropic extension failed")
    return StabilizerState(gens)


def _swap_halves(r: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((r & mask) << n) | (r >> n)


def synthesize_prep(s: StabilizerState) -> CliffordCircuit:
    """Clifford circuit c with evolve(0, c) stabilized by s's generator group."""
    n = s.n
    rows = list(s.generators)
    applied: list[tuple[str, tuple[int, ...]]] = []

    def conj_all(name: str, *qs: int):
        nonlocal rows
        applied.append((name, qs))
        rows = [_conj_gate(g, name, qs) for g in rows]

    piv_of = _reduce_x_block(rows)
    pivots = list(piv_of)
    used = set(piv_of.values())
    # CNOTs: shrink each pivot row's X part to its pivot qubit
    for q in pivots:
        i = piv_of[q]
        a = rows[i].a & ~(1 << q)
        while a:
            j = gf2.lowest_bit(a)
            conj_all("cnot", q, j)
            a = rows[i].a & ~(1 << q)
    # Gauss-Jordan on the pure-Z rows: commutation keeps them off the pivot
    # columns, and they span the rest, so full reduction yields +-Z singletons.
    zrows = [i for i in range(n) if i not in used]
    zindex: dict[int, int] = {}
    for i in zrows:
        while rows[i].b and gf2.lowest_bit(rows[i].b) in zindex:
            rows[i] = multiply(rows[i], rows[zindex[gf2.lowest_bit(rows[i].b)]])
        if rows[i].b == 0:
            raise AssertionError("dependent pure-Z rows")
        zindex[gf2.lowest_bit(rows[i].b)] = i
    for p in sorted(zindex):
        for j in zrows:
            if j != zindex[p] and (rows[j].b >> p) & 1:
                rows[j] = multiply(rows[j], rows[zindex[p]])
    # clear pivot-row Z parts on non-pivot columns using the Z singletons
    for q in pivots:
        i = piv_of[q]
        for p, j in zindex.items():
            if (rows[i].b >> p) & 1:
                rows[i] = multiply(rows[i], rows[j])
    # CZ for symmetric off-diagonal pivot-column Z entries
    for ii, q in enumerate(pivots):
        for q2 in pivots[ii + 1 :]:
            if (rows[piv_of[q]].b >> q2) & 1:
                conj_all("cz", q, q2)
    # S for diagonal Y entries
    for q in pivots:
        if (rows[piv_of[q]].b >> q) & 1:
            conj_all("s", q)
    # H turns the +-X rows into +-Z rows
    for q in pivots:
        conj_all("h", q)
    # now every row is +-Z_k; read off the basis state
    v = 0
    for i in range(n):
        g = rows[i]
        if g.a != 0 or g.b.bit_count() != 1 or g.t not in (0, 2):
            raise AssertionError("reduction did not reach +-Z form")
        if g.t == 2:
            v |= g.b
    flips = CliffordCircuit(n, tuple(("x", (k,)) for k in range(n) if (v >> k) & 1))
    return flips.then(CliffordCircuit(n, tuple(applied)).inverse())


def diagonalize_commuting_set(
    paulis: list[PauliOperator],
) -> tuple[CliffordCircuit, list[PauliOperator]]:
    """Clifford c and Z-type images q_i with ``c^dag P_i c = q_i``.

    Dependent inputs are filtered before completion, then conjugated
    directly, so their signed Z-type images come out exact.
    """
    if not paulis:
        raise ValueError("need at least one Pauli operator")
    n = paulis[0].n
    _validate_commuting_hermitian(paulis)
    keep = gf2.independent_indices([p.r for p in paulis])
    indep = [paulis[i] for i in keep if paulis[i].r != 0]
    if indep:
        state = complete_generators(indep)
    else:
        state = StabilizerState(
            [PauliOperator(n, 0, 0, 1 << k) for k in range(n)]
        )
    c = synthesize_prep(state)
    inv_tab = CliffordTableau.from_circuit(c.inverse())
    qs = [inv_tab.conjugate(p) for p in paulis]
    for i, q in enumerate(qs):
        if not q.is_z_type():
            raise AssertionError(f"image {i} is not Z-type; diagonalization bug")
    return c, qs


def random_clifford_circuit(
    n: int, n_gates: int, rng: np.random.Generator
) -> CliffordCircuit:
    """Random gate-sequence Clifford; good enough for tests and demos."""
    pool = [g for g, ar in CLIFFORD_GATES.items() if ar <= n]
    gates = []
    for _ in range(n_gates):
        name = rng.choice(pool)
        if CLIFFORD_GATES[name] == 1:
            gates.append((name, (int(rng.integers(n)),)))
        else:
            q1, q2 = rng.choice(n, size=2, replace=False)
            gates.append((name, (int(q1), int(q2))))
    return CliffordCircuit(n, tuple(gates))
