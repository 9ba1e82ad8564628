"""Stabilizer-tableau engine.

Clifford circuits are gate lists over {h, s, x, z, cnot, cz}.  One rule,
``_conj_rows``, conjugates a list of Paulis through a gate list: it
bit-slices the rows that have a bit on a qubit the gates touch into X/Z
columns of those qubits and two phase bit-planes, applies the
Aaronson-Gottesman updates column-wise, and transposes back once.
:func:`conjugate_pauli` uses it for one Pauli, and
:func:`diagonalize_commuting_set` and :func:`synthesize_prep` for their whole
row sets.

A stabilizer state is stored as its generator list plus a phased anchor
amplitude, from which an affine-subspace form (support coset + exact phases)
is derived lazily.  That form yields exact amplitudes, Born sampling, and the
amplitude convention used across the package: the lexicographically least
support element has a real positive coefficient.  The vectorized sampler and
amplitude kernel (n <= 64) read the form through 256-entry byte tables built
once per form: a sample XORs one table entry per byte of its random word
into y0, and an amplitude gathers the mover coordinates x of
``y ^ anchor`` byte by byte, checks membership as ``span(x) == y ^ anchor``
and reads the phase as a linear plus quadratic form in x (the affine form
of Dehaene and De Moor, quant-ph/0304125).  A state asked for at least
2^n amplitudes at once runs that kernel on every basis state and keeps the
dense table.  Sample i takes word i of the generator's full-range uint64
stream, r, and is y0 XOR the X parts a_j of the movers whose pivot bit is
set in r; successive calls continue that stream.
:func:`evolve` moves the anchor through monomial gates and
conjugates the generators only at each ``h``, where one affine form gives
both the new anchor and the new state's form.
:meth:`StabilizerState.apply_pauli` needs no elimination: a Pauli image
keeps the affine form and byte tables up to signs and a shifted support.

One column-mask elimination, ``_reduce_block``, reduces Pauli rows over
their X or their Z parts.  The affine form runs it on the X block, which
gives the movers, and then on the Z parts of the remaining constraints,
whose pivot-row signs give a particular support element.  Prep synthesis
reuses the state's affine form and runs it once more on the Z rows after
its CNOTs.  Public basis labels are read by :func:`oracle.parse_basis_label`,
so an int is the flat index with qubit 1 most significant.  Only the raw
layer (``anchor_y``, ``in_support``, ``amplitude_raw``,
``amplitudes_raw_many``, ``sample_many``) takes and returns bit-packed ints
with bit k = qubit k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import or_

import numpy as np

from . import gf2
from .circuit import NAMED_ARITY, Circuit, NamedGate
from .errors import (
    DependentInput,
    MinusIdentity,
    NotCommuting,
    NotHermitian,
    SizeMismatch,
)
from .oracle import parse_basis_label
from .pauli import _I4, PauliOperator, commutes, multiply

@dataclass(frozen=True)
class CliffordCircuit:
    """Ordered list of named Clifford gates on n qubits (0-based indices)."""

    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        for name, qs in self.gates:
            NamedGate(name, qs)  # the gate checks its name, arity and distinct qubits
            if any(not 0 <= q < self.n for q in qs):
                raise ValueError(f"bad qubit indices in {(name, qs)!r}")

    @classmethod
    def _unchecked(cls, n: int, gates: tuple) -> "CliffordCircuit":
        """A circuit whose gates are valid by construction, built without the check."""
        c = object.__new__(cls)
        c.__dict__.update(n=n, gates=gates)
        return c

    def __len__(self):
        return len(self.gates)

    def inverse(self) -> "CliffordCircuit":
        """The inverse circuit, built once per circuit.

        Its gates are this circuit's checked gates reversed, with S runs
        folded, so they are not checked again.
        """
        inv = self.__dict__.get("_inverse")
        if inv is None:
            inv = CliffordCircuit._unchecked(self.n, _inverse_gates(self.gates))
            object.__setattr__(self, "_inverse", inv)  # gates are immutable
        return inv

    def to_circuit(self) -> Circuit:
        return Circuit(self.n, 2, [NamedGate(name, qs) for name, qs in self.gates])


def _inverse_gates(gates) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Gates of the inverse circuit; a run of S on one qubit folds mod 4."""
    inv: list[tuple[str, tuple[int, ...]]] = []
    for name, qs in reversed(gates):
        if name == "s":
            run = 3  # S^dag = S^3
            while inv and inv[-1] == ("s", qs):
                inv.pop()
                run += 1
            inv += [("s", qs)] * (run % 4)  # S^4 = I
        else:
            inv.append((name, qs))
    return tuple(inv)


# ---------------------------------------------------------------------------
# conjugation


def _bits(v: int) -> list[int]:
    """Set bit positions of v, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def _transpose(vals: list[int], width: int, picks) -> list[int]:
    """Bit columns of ``vals``: bit i of the column for q is bit q of vals[i].

    Returns the columns for the positions in ``picks``, in that order; every
    value must be below ``2**width``.  The values are written as one string
    of fixed-width binary numerals, the last value first, so the numeral of
    column q is the stride-``width`` slice from character ``width - 1 - q``:
    a few calls per value and per column, none per bit.
    """
    fmt, zero = f"0{width}b", "0" * width
    s = "".join([format(v, fmt) if v else zero for v in reversed(vals)])
    return [int(s[width - 1 - q :: width], 2) for q in picks]


def _conj_rows(rows: list[PauliOperator], gates) -> list[PauliOperator]:
    """Images ``U P U^dag`` of every row, U the product of ``gates`` in order.

    Bit-sliced Aaronson-Gottesman updates: bit j of xs[q] / zs[q] is the X / Z
    bit of live row j on qubit q, and t0 / t1 are the two bits of each live
    row's phase exponent, so one gate costs a few integer operations however
    many rows ride along.  Only the qubits the gates touch are sliced, and
    only the live rows, those with a bit on one of them: every other bit of
    a row, and every other row, comes out as it went in.  Python ints put
    no limit on the number of qubits or rows.
    """
    touched = sorted({q for _, qs in gates for q in qs})
    mask = sum(1 << q for q in touched)
    live = [i for i, p in enumerate(rows) if (p.a | p.b) & mask]
    if not live:  # also an empty circuit: no bit transposes
        return list(rows)
    n = rows[0].n
    xs = dict(zip(touched, _transpose([rows[i].a for i in live], n, touched)))
    zs = dict(zip(touched, _transpose([rows[i].b for i in live], n, touched)))
    t0 = t1 = 0
    for j, i in enumerate(live):
        t0 |= (rows[i].t & 1) << j
        t1 |= (rows[i].t >> 1) << j
    for name, qs in gates:
        q = qs[0]
        if name == "h":  # X <-> Z, and Y -> -Y
            t1 ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        elif name == "s":  # X -> Y = iXZ, Y -> -X
            t1 ^= t0 & xs[q]
            t0 ^= xs[q]
            zs[q] ^= xs[q]
        elif name == "x":
            t1 ^= zs[q]
        elif name == "z":
            t1 ^= xs[q]
        elif name == "cnot":  # X_c -> X_c X_t, Z_t -> Z_c Z_t
            xs[qs[1]] ^= xs[q]
            zs[q] ^= zs[qs[1]]
        else:  # cz: X_1 -> X_1 Z_2, X_2 -> Z_1 X_2
            t1 ^= xs[q] & xs[qs[1]]
            zs[qs[1]] ^= xs[q]
            zs[q] ^= xs[qs[1]]
    # back to rows: the untouched columns are zero and are kept from the input
    m = len(live)
    a_new = _transpose([xs.get(q, 0) for q in range(n)], m, range(m))
    b_new = _transpose([zs.get(q, 0) for q in range(n)], m, range(m))
    out = list(rows)
    for j, i in enumerate(live):
        p = rows[i]
        t = ((t0 >> j) & 1) | (((t1 >> j) & 1) << 1)
        out[i] = PauliOperator(n, t, (p.a & ~mask) | a_new[j], (p.b & ~mask) | b_new[j])
    return out


class CliffordTableau:
    """Images of all X_k and Z_k under a Clifford circuit; no package code uses it.

    Only the benchmark's trace hook wraps ``from_circuit``; ROADMAP item 1 deletes both.
    """

    def __init__(self, n: int):
        self.n = n
        self.x_images = [PauliOperator(n, 0, 1 << k, 0) for k in range(n)]
        self.z_images = [PauliOperator(n, 0, 0, 1 << k) for k in range(n)]

    @classmethod
    def from_circuit(cls, c: CliffordCircuit) -> "CliffordTableau":
        tab = cls(c.n)
        images = _conj_rows(tab.x_images + tab.z_images, c.gates)
        tab.x_images, tab.z_images = images[: c.n], images[c.n :]
        return tab


def conjugate_pauli(c: CliffordCircuit, p: PauliOperator) -> PauliOperator:
    """``U P U^dag`` for U = circuit of c; pass ``c.inverse()`` for ``U^dag P U``."""
    if p.n != c.n:
        raise SizeMismatch("Pauli width differs from circuit width")
    return _conj_rows([p], c.gates)[0]


# ---------------------------------------------------------------------------
# stabilizer states


def _label_mask(x, n: int) -> int:
    """Bitmask (bit k = qubit k) of a public basis label."""
    return sum(bit << k for k, bit in enumerate(parse_basis_label(x, n, 2)))


def _reduce_block(rows: list[PauliOperator], part: str, eligible: int) -> dict[int, int]:
    """Row-reduce the X (``part="a"``) or Z (``"b"``) parts of ``rows`` in place.

    Returns {pivot qubit: row index}, pivots taken only from the rows whose
    bit is set in ``eligible``.  Pivot qubits come in ascending order, each
    is the lowest ``part`` bit of its row, each pivot row is the only row
    with a ``part`` bit on its pivot qubit, and eligible rows without a pivot
    end with no ``part`` bits.  Bit i of col[q] is row i's bit on qubit q, so
    each pivot is the lowest unused eligible row in one mask, and clearing a
    column XORs the cleared rows into the later columns of the pivot row's
    part.  The row operations are :func:`pauli.multiply` on plain (t, a, b)
    lists, and only the rows they changed are built again at the end.
    """
    if not rows:
        return {}
    n = rows[0].n
    ts = [g.t for g in rows]
    xs = [g.a for g in rows]
    zs = [g.b for g in rows]
    own = xs if part == "a" else zs
    # row operations keep every part inside the union of the input parts
    qs = _bits(reduce(or_, own, 0))
    col = dict(zip(qs, _transpose(own, n, qs)))
    piv_of: dict[int, int] = {}
    changed = 0
    for q in qs:
        c = col[q]
        free = c & eligible
        if not free:
            continue
        low = free & -free
        hit = low.bit_length() - 1
        piv_of[q] = hit
        eligible ^= low
        clear = c ^ low
        if clear:
            changed |= clear
            tp, ap, bp = ts[hit], xs[hit], zs[hit]
            for i in _bits(clear):  # row i <- row i * pivot row
                ts[i] = (ts[i] + tp + 2 * ((zs[i] & ap).bit_count() & 1)) & 3
                xs[i] ^= ap
                zs[i] ^= bp
            for q2 in _bits(own[hit] >> (q + 1)):
                col[q + 1 + q2] ^= clear
    for i in _bits(changed):
        rows[i] = PauliOperator(n, ts[i], xs[i], zs[i])
    return piv_of


@dataclass
class _AffineForm:
    movers: list[tuple[PauliOperator, int]]  # (generator product, pivot qubit)
    zcons: list[PauliOperator]  # Z-type constraints, Z parts reduced, by pivot
    y_particular: int
    y0: int  # lexicographically least support element
    tables: _ByteTables | None = None  # built on first vectorized use

    @property
    def s(self) -> int:
        return len(self.movers)


def _byte_table(vals, op=np.bitwise_xor) -> np.ndarray:
    """Row u, entry b: ``op`` over vals[8u + p] for the set bits p of b.

    ``op`` is ``np.bitwise_xor`` on uint64 words or ``np.multiply`` on
    complex numbers.  There is at least one row, so an empty ``vals`` maps
    every byte to the identity of ``op``.
    """
    dtype = np.uint64 if op is np.bitwise_xor else complex
    v = np.full((max(1, -(-len(vals) // 8)), 8), op.identity, dtype=dtype)
    v.flat[: len(vals)] = vals
    tab = np.full((len(v), 256), op.identity, dtype=dtype)
    for p in range(8):
        tab[:, 1 << p : 2 << p] = op(tab[:, : 1 << p], v[:, p : p + 1])
    return tab


def _word_bytes(words: np.ndarray) -> np.ndarray:
    """(k, 8) view of k uint64 words; column u holds bits 8u .. 8u + 7."""
    return np.asarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)


def _xor_lookup(tab: np.ndarray, by: np.ndarray) -> np.ndarray:
    """XOR over the rows u of ``tab`` of ``tab[u, by[:, u]]``."""
    out = tab[0].take(by[:, 0])
    for u in range(1, len(tab)):
        out ^= tab[u].take(by[:, u])
    return out


@dataclass
class _ByteTables:
    """Byte tables of an affine form: row u maps byte u of a word to a word.

    Let v = y ^ anchor and x its pivot coordinates (bit j = v's bit on mover
    j's pivot).  y is in the support iff v is the XOR of the movers' X parts
    a_j over x, and then ``<y|psi> = i^k <anchor|psi>`` for the product of
    those movers in order, as in :meth:`StabilizerState.amplitude_raw`:

        k = sum_j x_j l_j + 2 sum_{i<j} x_i x_j parity(b_i & a_j)   (mod 4)
        l_j = t_j + 2 parity(b_j & anchor).

    The low bits of the l_j add up mod 4, and their high bits are the
    diagonal of the quadratic form, so
    ``k = popcount(x & odd) + 2 parity(x & (rows(x) ^ high))`` with rows(x)
    the XOR over x of R_i = {j > i : parity(b_i & a_j) = 1}.  Only ``high``
    depends on the anchor; it is computed per call, not tabulated.
    """

    draw: np.ndarray  # byte of a random word -> XOR of the a_j pivoted in it
    gather: np.ndarray  # byte of v -> its pivot bits, as bits of x
    span: np.ndarray  # byte of x -> XOR of its movers' X parts
    rows: np.ndarray  # byte of x -> XOR of its movers' R_i
    odd: int  # bit j = t_j & 1
    high: int  # bit j = t_j >> 1
    zparts: list[int]  # b_j, for the anchor's share of ``high``

    @classmethod
    def build(cls, n: int, movers: list[tuple[PauliOperator, int]]) -> "_ByteTables":
        coord, pivoted = [0] * n, [0] * n
        for j, (g, piv) in enumerate(movers):
            coord[piv], pivoted[piv] = 1 << j, g.a
        rows = [
            sum(((g.b & h.a).bit_count() & 1) << j for j, (h, _) in enumerate(movers) if j > i)
            for i, (g, _) in enumerate(movers)
        ]
        return cls(
            draw=_byte_table(pivoted),
            gather=_byte_table(coord),
            span=_byte_table([g.a for g, _ in movers]),
            rows=_byte_table(rows),
            odd=sum((g.t & 1) << j for j, (g, _) in enumerate(movers)),
            high=sum((g.t >> 1) << j for j, (g, _) in enumerate(movers)),
            zparts=[g.b for g, _ in movers],
        )


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
        if check and len(_independent_commuting(generators)) != n:
            raise DependentInput("generators are dependent over GF(2)")
        self.n = n
        self.generators = list(generators)
        self._affine: _AffineForm | None = None
        # ((anchor_y, anchor_amp), amplitudes of all 2^n labels), see amplitudes_raw_many
        self._dense: tuple[tuple[int, complex], np.ndarray] | None = None
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
        piv_of = _reduce_block(rows, "a", (1 << len(rows)) - 1)
        movers = [(rows[i], q) for q, i in piv_of.items()]
        pivoted = set(piv_of.values())
        zcons = [g for i, g in enumerate(rows) if i not in pivoted]
        for h in zcons:
            if h.a != 0:
                raise AssertionError("elimination left an X part behind")
            if h.t not in (0, 2):
                raise MinusIdentity("a generator product carries an imaginary phase")
        # membership: parity(b & y) == 1 iff the sign is -1.  In reduced form
        # each pivot row fixes y's bit on its pivot qubit, and a row reduced
        # to the identity must carry no sign
        zpiv = _reduce_block(zcons, "b", (1 << len(zcons)) - 1)
        if any(h.t for h in zcons if not h.b):
            raise MinusIdentity("constraints are inconsistent (-I in the group)")
        zcons = [zcons[i] for i in zpiv.values()]
        y_p = sum(1 << q for q, h in zip(zpiv, zcons) if h.t == 2)
        # the movers' X parts come out fully reduced, each keyed by its pivot,
        # which is its lowest X bit
        y0 = gf2.coset_min(y_p, {q: g.a for g, q in movers})
        self._affine = _AffineForm(movers, zcons, y_p, y0)
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

    def amplitude(self, y) -> complex:
        """Exact ``<y|psi>``; by convention the least support element is positive."""
        y = _label_mask(y, self.n)
        aff = self.affine_form()
        a0 = self.amplitude_raw(aff.y0)
        ay = self.amplitude_raw(y)
        if ay == 0:
            return 0.0 + 0.0j
        return ay / a0 * 2.0 ** (-aff.s / 2.0)

    def apply_pauli(self, p: PauliOperator) -> "StabilizerState":
        """``P|psi>`` with its exact global phase.

        Generators that anticommute with P flip sign, the anchor moves by P's
        X part, and its amplitude picks up P's phase i^{t + 2 b.anchor} there.
        The affine form carries over the same way: its movers and Z
        constraints flip sign and its support shifts by P's X part.  So does
        the byte-table set (n <= 64), in which a sign is one bit of ``high``.
        """
        if p.n != self.n:
            raise SizeMismatch("Pauli width differs from state width")

        def image(g: PauliOperator) -> PauliOperator:
            return g if commutes(g, p) else PauliOperator(g.n, g.t ^ 2, g.a, g.b)

        k = p.phase_exponent_on_basis(self.anchor_y)
        out = StabilizerState(
            [image(g) for g in self.generators],
            self.anchor_y ^ p.a,
            _I4[k] * self.anchor_amp,
            check=False,
        )
        aff = self.affine_form()
        movers = [(image(g), q) for g, q in aff.movers]
        y_p = aff.y_particular ^ p.a
        y0 = gf2.coset_min(y_p, {q: g.a for g, q in movers})
        out._affine = _AffineForm(movers, [image(h) for h in aff.zcons], y_p, y0)
        if self.n <= 64:
            tab = self._tables()
            flips = sum(1 << j for j, (g, _) in enumerate(aff.movers) if not commutes(g, p))
            out._affine.tables = replace(tab, high=tab.high ^ flips)
        return out

    # -- sampling ------------------------------------------------------

    def _tables(self) -> _ByteTables:
        if self.n > 64:
            raise ValueError("vectorized sampling and amplitudes support n <= 64")
        aff = self.affine_form()
        if aff.tables is None:
            aff.tables = _ByteTables.build(self.n, aff.movers)
        return aff.tables

    def sample_many(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """k uniform support samples as a uint64 array (requires n <= 64).

        Sample i takes the next word r of ``rng.integers(0, 2**64 - 1,
        endpoint=True, dtype=np.uint64)`` and is y0 XOR the X parts a_j of
        the movers whose pivot bit is set in r.  Each sample takes one word,
        with or without movers, so successive calls continue one stream.
        """
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError(f"sample count must be a non-negative int, got {k!r}")
        tab = self._tables()
        r = rng.integers(0, 2**64 - 1, size=k, endpoint=True, dtype=np.uint64)
        return np.uint64(self.affine_form().y0) ^ _xor_lookup(tab.draw, _word_bytes(r))

    def amplitudes_raw_many(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`amplitude_raw` for a 1-D uint64 array (n <= 64).

        Small registers are tabulated: when 2^n <= len(ys), or the state
        already keeps a table, the byte-table kernel runs once on all 2^n
        basis states and each call is one ``take`` from the result.  The
        table is kept per state and keyed on (anchor_y, anchor_amp), so a
        reassigned anchor rebuilds it.  Other calls, and batches with a
        label of 2^n or more (amplitude 0, as the kernel gives it), run the
        kernel on ys.
        """
        ys = np.asarray(ys, dtype=np.uint64)
        key = (self.anchor_y, self.anchor_amp)
        if self._dense is not None or 1 << self.n <= len(ys):
            if self._dense is None or self._dense[0] != key:
                every = np.arange(1 << self.n, dtype=np.uint64)
                self._dense = (key, self._amplitudes_kernel(every))
            if ys.max(initial=0) < 1 << self.n:
                return self._dense[1].take(ys)
        return self._amplitudes_kernel(ys)

    def _amplitudes_kernel(self, ys: np.ndarray) -> np.ndarray:
        """The byte-table amplitudes of the labels ys, read through :class:`_ByteTables`."""
        tab = self._tables()
        anchor = self.anchor_y
        v = ys ^ np.uint64(anchor)
        if not self.in_support(anchor):  # no support element is reached from it
            return np.zeros(v.shape, dtype=complex)
        x = _xor_lookup(tab.gather, _word_bytes(v))
        xb = _word_bytes(x)
        ok = _xor_lookup(tab.span, xb) == v
        high = tab.high ^ sum(
            ((b & anchor).bit_count() & 1) << j for j, b in enumerate(tab.zparts)
        )
        quad = _xor_lookup(tab.rows, xb) ^ np.uint64(high)
        k = (np.bitwise_count(x & np.uint64(tab.odd)) + 2 * np.bitwise_count(x & quad)) & 3
        return np.where(ok, (np.array(_I4) * self.anchor_amp).take(k), 0.0 + 0.0j)


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
    """``C|x>`` with the exact global phase tracked gate by gate.

    Monomial gates only move the anchor and its phase; the generators are
    conjugated at each ``h``, through the pending monomial gates and the
    ``h`` in one pass, and at the end.  At an ``h`` on qubit q the new anchor
    w is a support element of the new state, and its amplitude is
    ``(<w0|phi> +- <w1|phi>) / sqrt 2`` with w0, w1 = w with bit q cleared,
    set.  ``phi = M|prev>``, M the pending monomial gates and ``prev`` the
    state left by the last ``h``, so ``<w|phi>`` is read from ``prev`` at w
    pulled back through M.  The new state's affine form is the one computed
    to find w, so each ``h`` costs one X-block elimination.
    """
    n = c.n
    xv = _label_mask(x, n)
    gens = [
        PauliOperator(n, 2 * ((xv >> k) & 1), 0, 1 << k) for k in range(n)
    ]
    state = StabilizerState(gens, anchor_y=xv, anchor_amp=1.0 + 0.0j, check=False)
    anchor_y, anchor_amp = state.anchor_y, state.anchor_amp
    pending: list[tuple[str, tuple[int, ...]]] = []

    def pulled_back(w: int) -> complex:
        """``<w|M|prev>``: x and cnot are involutions, s, z and cz phases."""
        k = 0
        for name, qs in reversed(pending):
            dk, w = _monomial_action(name, qs, w)
            k += dk
        return _I4[k % 4] * state.amplitude_raw(w)

    for name, qs in c.gates:
        if name != "h":
            k, anchor_y = _monomial_action(name, qs, anchor_y)
            anchor_amp = _I4[k] * anchor_amp
            pending.append((name, qs))
            continue
        q = qs[0]
        nxt = StabilizerState(
            _conj_rows(state.generators, pending + [(name, qs)]),
            anchor_y=0,
            anchor_amp=1.0,
            check=False,
        )
        w = nxt.affine_form().y_particular
        anchor_amp = (
            pulled_back(w & ~(1 << q))
            + (-1.0 if (w >> q) & 1 else 1.0) * pulled_back(w | (1 << q))
        ) / math.sqrt(2.0)
        anchor_y = nxt.anchor_y = w
        nxt.anchor_amp = anchor_amp
        state, pending = nxt, []
    if pending:
        state = StabilizerState(
            _conj_rows(state.generators, pending),
            anchor_y=anchor_y,
            anchor_amp=anchor_amp,
            check=False,
        )
    return state


# ---------------------------------------------------------------------------
# generator completion / prep synthesis / diagonalization


def _validate_commuting_hermitian(paulis: list[PauliOperator]):
    for i, p in enumerate(paulis):
        if not p.is_hermitian():
            raise NotHermitian(f"operator {i} is not Hermitian")
        for j in range(i + 1, len(paulis)):
            if not commutes(p, paulis[j]):
                raise NotCommuting(i, j)


def _independent_commuting(paulis: list[PauliOperator]) -> list[int]:
    """``gf2.independent_indices`` of a set checked to commute and be Hermitian.

    Checks every member's width and Hermiticity, and only the pairs of the
    independent members: the symplectic form is bilinear, so those pairs
    cover every pair.  Only a failed check runs the full pairwise scan,
    which reports the first failing member or pair in input order.
    """
    keep = gf2.independent_indices([p.r for p in paulis])
    indep = [paulis[i] for i in keep]
    if not (
        all(p.n == paulis[0].n and p.is_hermitian() for p in paulis)
        and all(commutes(p, q) for i, p in enumerate(indep) for q in indep[i + 1 :])
    ):
        _validate_commuting_hermitian(paulis)
    return keep


def complete_generators(indep: list[PauliOperator], n: int | None = None) -> StabilizerState:
    """Extend an independent commuting Hermitian set to a full stabilizer state.

    The returned state's first ``len(indep)`` generators are the inputs,
    and the rest are Z-type.
    """
    if indep:
        n = indep[0].n
    elif n is None:
        raise ValueError("need n for an empty input set")
    keep = _independent_commuting(indep)
    for i, p in enumerate(indep):
        if p.r == 0:
            raise (
                MinusIdentity(f"operator {i} is -I")
                if p.t == 2
                else DependentInput(f"operator {i} is the identity")
            )
    if len(keep) != len(indep):
        raise DependentInput("input operators are dependent over GF(2)")
    return _complete(indep, n)


def _complete(indep: list[PauliOperator], n: int) -> StabilizerState:
    """:func:`complete_generators` for an input already known to be valid.

    Adds only Z-type generators.  Z^b commutes with every member iff b is
    orthogonal to every member's X part: if r is the X parts' rank, that is
    an (n - r)-dimensional space, of which the k members' span holds only
    k - r dimensions.  So n - k independent Z^b outside the span always
    exist, the state needs no check of its own, and the prep circuit needs
    at most r H gates.
    """
    if len(indep) == n:  # already complete: skip both eliminations
        return StabilizerState(list(indep), check=False)
    rows = [g.r for g in indep]
    zs = gf2.nullspace([g.a for g in indep], n)
    # the rows are independent, so the indices kept past them pick the
    # Z^b outside the running span
    keep = gf2.independent_indices(rows + [b << n for b in zs])[len(rows) :]
    if len(rows) + len(keep) != n:
        raise AssertionError("isotropic extension failed")
    added = [PauliOperator(n, 0, 0, zs[i - len(rows)]) for i in keep]
    return StabilizerState(list(indep) + added, check=False)


def synthesize_prep(s: StabilizerState) -> CliffordCircuit:
    """Clifford circuit c with evolve(0, c) stabilized by s's generator group.

    Each stage's gates are read off the rows first and conjugated through
    them in one pass: a CNOT (q, j) changes only pivot row q's X bit j, and
    the CZ and S gates read the pivot rows' Z parts, which no CZ of the
    stage changes where a later gate reads them.
    """
    n = s.n
    aff = s.affine_form()
    pivots = [q for _, q in aff.movers]
    rows = [g for g, _ in aff.movers] + aff.zcons
    # CNOTs: shrink each mover's X part to its pivot qubit
    cnots = [
        ("cnot", (q, j)) for i, q in enumerate(pivots) for j in _bits(rows[i].a & ~(1 << q))
    ]
    rows = _conj_rows(rows, cnots)
    # commutation with the X singletons keeps the Z rows off the pivot
    # columns, and they span the rest, so reducing their Z parts leaves +-Z
    # singletons and clears those columns from the movers' Z parts
    _reduce_block(rows, "b", ((1 << len(aff.zcons)) - 1) << len(pivots))
    # CZ for symmetric off-diagonal pivot-column Z entries, S for diagonal Y
    # entries, then H turns the +-X rows into +-Z rows
    rest = [
        ("cz", (q, q2))
        for i, q in enumerate(pivots)
        for q2 in pivots[i + 1 :]
        if (rows[i].b >> q2) & 1
    ]
    rest += [("s", (q,)) for i, q in enumerate(pivots) if (rows[i].b >> q) & 1]
    rest += [("h", (q,)) for q in pivots]
    rows = _conj_rows(rows, rest)
    # now every row is +-Z_k; read off the basis state
    if len(rows) != n:
        raise AssertionError("dependent generators")
    v = 0
    for g in rows:
        if g.a != 0 or g.b.bit_count() != 1 or g.t not in (0, 2):
            raise AssertionError("reduction did not reach +-Z form")
        if g.t == 2:
            v |= g.b
    flips = tuple(("x", (k,)) for k in _bits(v))
    # every gate acts on distinct qubits of the state's register
    return CliffordCircuit._unchecked(n, flips + _inverse_gates(cnots + rest))


def diagonalize_commuting_set(
    paulis: list[PauliOperator],
) -> tuple[CliffordCircuit, list[PauliOperator]]:
    """Clifford c and Z-type images q_i with ``c^dag P_i c = q_i``.

    Dependent inputs are filtered before completion, then conjugated
    directly, so their signed Z-type images come out exact.  Commutation is
    checked once, on the way to the independent subset.
    """
    if not paulis:
        raise ValueError("need at least one Pauli operator")
    n = paulis[0].n
    indep = [paulis[i] for i in _independent_commuting(paulis)]
    c = synthesize_prep(_complete(indep, n))
    qs = _conj_rows(paulis, c.inverse().gates)
    for i, q in enumerate(qs):
        if not q.is_z_type():
            raise AssertionError(f"image {i} is not Z-type; diagonalization bug")
    return c, qs


def random_clifford_circuit(
    n: int, n_gates: int, rng: np.random.Generator
) -> CliffordCircuit:
    """Random gate-sequence Clifford; good enough for tests and demos."""
    pool = [g for g, ar in NAMED_ARITY.items() if ar <= n]
    gates = []
    for _ in range(n_gates):
        name = rng.choice(pool)
        if NAMED_ARITY[name] == 1:
            gates.append((name, (int(rng.integers(n)),)))
        else:
            q1, q2 = rng.choice(n, size=2, replace=False)
            gates.append((name, (int(q1), int(q2))))
    return CliffordCircuit(n, tuple(gates))
