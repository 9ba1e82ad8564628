"""Stabilizer engine vs the dense oracle: conjugation, evolution, synthesis."""

import numpy as np
import pytest
from conftest import (
    bits_of,
    pauli_statevector_matrix,
    random_commuting_paulis,
    state_from_packed_amplitudes,
)

from commsim import gf2, stabilizer
from commsim.errors import (
    DependentInput,
    MinusIdentity,
    NotCommuting,
    NotHermitian,
    SizeMismatch,
)
from commsim.oracle import circuit_unitary, run_circuit
from commsim.pauli import PauliOperator, commutes, format_pauli, multiply, parse_pauli
from commsim.stabilizer import (
    CliffordCircuit,
    CliffordTableau,
    StabilizerState,
    _reduce_block,
    complete_generators,
    conjugate_pauli,
    diagonalize_commuting_set,
    evolve,
    random_clifford_circuit,
    synthesize_prep,
)


def _random_pauli(n, rng):
    return PauliOperator(
        n,
        int(rng.integers(4)),
        int(rng.integers(1 << n)),
        int(rng.integers(1 << n)),
    )


def _evolved_with_support(n, s, rng):
    """evolve(x, c) with an s-dimensional support and, for s > 0, an anchor
    other than the least support element.

    H on s distinct qubits, then random monomial gates (cnot, cz, s, x, z),
    which move the support without changing its dimension.
    """
    qs = rng.choice(n, size=s, replace=False)
    mono = [g for g in random_clifford_circuit(n, 4 * n, rng).gates if g[0] != "h"]
    gates = tuple(("h", (int(q),)) for q in qs) + tuple(mono)
    x = int(rng.integers(0, 1 << n, dtype=np.uint64))
    st = evolve(x, CliffordCircuit(n, gates))
    aff = st.affine_form()
    if s and st.anchor_y == aff.y0:
        # X on a mover's X part maps the support onto itself and moves the anchor
        flips = tuple(("x", (q,)) for q in range(n) if (aff.movers[0][0].a >> q) & 1)
        st = evolve(x, CliffordCircuit(n, gates + flips))
    return st


def _words(rng, k):
    """The next k words of the full-range uint64 stream that samples read."""
    return rng.integers(0, 2**64 - 1, size=k, endpoint=True, dtype=np.uint64)


def _sample_many_per_mover(st, k, rng):
    """The sampling rule as a per-sample, per-pivot loop over words: sample i
    is y0 XOR the movers' X parts whose pivot bit is set in word i."""
    aff = st.affine_form()
    ys = []
    for r in _words(rng, k).tolist():
        y = aff.y0
        for g, piv in aff.movers:
            if (r >> piv) & 1:
                y ^= g.a
        ys.append(y)
    return np.array(ys, dtype=np.uint64)


def _same_state(a, b) -> bool:
    """Equal ``bit_generator.state`` dicts; some values are arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def _state_vector(s: StabilizerState) -> np.ndarray:
    return state_from_packed_amplitudes(s.amplitude_raw, s.n)


def _random_wide_pauli(n, rng):
    """Random Pauli at any n (``rng.integers`` stops at 64 bits)."""

    def bits():
        return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)

    return PauliOperator(n, int(rng.integers(4)), bits(), bits())


def _monomial_runs_circuit(n, n_h, rng):
    """Three to eight random monomial gates before each of n_h ``h`` gates."""
    pool = ["s", "x", "z"] + (["cnot", "cz"] if n > 1 else [])
    gates = []
    for _ in range(n_h):
        for name in rng.choice(pool, size=int(rng.integers(3, 9))):
            qs = rng.choice(n, size=2 if name in ("cnot", "cz") else 1, replace=False)
            gates.append((str(name), tuple(int(q) for q in qs)))
        gates.append(("h", (int(rng.integers(n)),)))
    return CliffordCircuit(n, tuple(gates))


class TestConjugation:
    @pytest.mark.parametrize("name,k", [("h", 1), ("s", 1), ("x", 1), ("z", 1), ("cnot", 2), ("cz", 2)])
    def test_single_gate_vs_dense(self, name, k, rng):
        n = 3
        qs = (1,) if k == 1 else (2, 0)
        c = CliffordCircuit(n, ((name, qs),))
        u = circuit_unitary(c.to_circuit())
        for _ in range(20):
            p = _random_pauli(n, rng)
            img = conjugate_pauli(c, p)
            assert np.allclose(
                pauli_statevector_matrix(img), u @ pauli_statevector_matrix(p) @ u.conj().T,
                atol=1e-12,
            )

    def test_random_circuit_vs_dense(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 5))
            c = random_clifford_circuit(n, 12, rng)
            u = circuit_unitary(c.to_circuit())
            p = _random_pauli(n, rng)
            assert np.allclose(
                pauli_statevector_matrix(conjugate_pauli(c, p)),
                u @ pauli_statevector_matrix(p) @ u.conj().T,
                atol=1e-10,
            )

    def test_empty_circuit_returns_input(self, rng):
        for n in (1, 5, 70):
            c = CliffordCircuit(n, ())
            for _ in range(5):
                p = _random_wide_pauli(n, rng)
                assert conjugate_pauli(c, p) == p
                assert conjugate_pauli(c.inverse(), p) == p

    def test_inverse_direction(self, rng):
        c = random_clifford_circuit(3, 10, rng)
        p = _random_pauli(3, rng)
        assert conjugate_pauli(c.inverse(), conjugate_pauli(c, p)) == p

    def test_circuit_inverse_is_unitary_inverse(self, rng):
        c = random_clifford_circuit(3, 10, rng)
        u = circuit_unitary(c.to_circuit())
        ui = circuit_unitary(c.inverse().to_circuit())
        assert np.allclose(ui @ u, np.eye(8), atol=1e-10)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_inverse_folds_s_runs(self, k):
        s0 = ("s", (0,))
        c = CliffordCircuit(2, (s0,) * k + (("h", (1,)),) + (s0,) * (k + 1))
        inv = c.inverse()
        assert inv.gates == (s0,) * ((3 * k + 3) % 4) + (("h", (1,)),) + (s0,) * (3 * k % 4)
        u = circuit_unitary(c.to_circuit())
        ui = circuit_unitary(inv.to_circuit())
        assert np.allclose(ui @ u, np.eye(4), atol=1e-12)

    def test_untouched_qubits_and_rows_vs_dense(self, rng):
        # gates on a subset of the qubits: rows with no bit there ride along
        for _ in range(20):
            n = int(rng.integers(2, 5))
            on = sorted(int(q) for q in rng.choice(n, int(rng.integers(1, n)), replace=False))
            c = random_clifford_circuit(len(on), int(rng.integers(1, 8)), rng)
            c = CliffordCircuit(n, tuple((name, tuple(on[q] for q in qs)) for name, qs in c.gates))
            u = circuit_unitary(c.to_circuit())
            rows = [_random_pauli(n, rng) for _ in range(6)]
            off = sum(1 << q for q in range(n) if q not in on)
            rows.append(PauliOperator(n, int(rng.integers(4)), off & int(rng.integers(1 << n)), off))
            for p, img in zip(rows, stabilizer._conj_rows(rows, c.gates)):
                assert np.allclose(
                    pauli_statevector_matrix(img),
                    u @ pauli_statevector_matrix(p) @ u.conj().T,
                    atol=1e-12,
                )
                if not (p.a | p.b) & ~off:
                    assert img == p

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            CliffordCircuit(2, (("t", (0,)),))
        with pytest.raises(ValueError):
            CliffordCircuit(2, (("cnot", (0, 0)),))
        with pytest.raises(ValueError):
            CliffordCircuit(1, (("h", (1,)),))


class TestConjugationBeyond64:
    """Exact identities where a basis state no longer fits a machine word."""

    @pytest.mark.parametrize("n", [100, 130])
    def test_inverse_round_trip(self, n, rng):
        c = random_clifford_circuit(n, 10 * n, rng)
        for _ in range(5):
            p = _random_wide_pauli(n, rng)
            assert conjugate_pauli(c.inverse(), conjugate_pauli(c, p)) == p

    @pytest.mark.parametrize("n", [100, 130])
    def test_tableau_matches_conjugate_pauli(self, n, rng):
        c = random_clifford_circuit(n, 10 * n, rng)
        tab = CliffordTableau.from_circuit(c)
        for k in range(n):
            assert tab.x_images[k] == conjugate_pauli(c, PauliOperator.single(n, "X", k))
            assert tab.z_images[k] == conjugate_pauli(c, PauliOperator.single(n, "Z", k))

    @pytest.mark.parametrize("n", [100, 130])
    def test_multiplicative(self, n, rng):
        c = random_clifford_circuit(n, 10 * n, rng)
        for _ in range(5):
            p, q = _random_wide_pauli(n, rng), _random_wide_pauli(n, rng)
            assert conjugate_pauli(c, multiply(p, q)) == multiply(
                conjugate_pauli(c, p), conjugate_pauli(c, q)
            )

    def test_diagonalize_scrambled_family(self, rng):
        n = 100
        scramble = random_clifford_circuit(n, 10 * n, rng)
        ps = []
        for _ in range(n + 20):  # more members than qubits: some are dependent
            z = _random_wide_pauli(n, rng)
            ps.append(conjugate_pauli(scramble, PauliOperator(n, 2 * (z.t & 1), 0, z.b)))
        c, qs = diagonalize_commuting_set(ps)
        for p, q in zip(ps, qs):
            assert q.is_z_type()
            assert conjugate_pauli(c, q) == p


class TestEvolve:
    def test_matches_oracle_with_phase(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            c = random_clifford_circuit(n, 15, rng)
            x = int(rng.integers(1 << n))
            want = run_circuit(c.to_circuit(), x).amplitudes
            assert np.allclose(_state_vector(evolve(x, c)), want, atol=1e-12)

    def test_monomial_runs_between_h(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            c = _monomial_runs_circuit(n, 15, rng)
            assert len(c) >= 60
            x = int(rng.integers(1 << n))
            want = run_circuit(c.to_circuit(), x).amplitudes
            assert np.allclose(_state_vector(evolve(x, c)), want, atol=1e-12)

    def test_consecutive_h(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            hs = tuple(("h", (int(q),)) for q in rng.integers(n, size=8))
            c = CliffordCircuit(n, _monomial_runs_circuit(n, 2, rng).gates + hs)
            x = int(rng.integers(1 << n))
            want = run_circuit(c.to_circuit(), x).amplitudes
            assert np.allclose(_state_vector(evolve(x, c)), want, atol=1e-12)

    def test_inverse_of_prep(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            ps = random_commuting_paulis(n, n, rng)
            keep = gf2.independent_indices([p.r for p in ps])
            inv = synthesize_prep(complete_generators([ps[i] for i in keep])).inverse()
            x = int(rng.integers(1 << n))
            want = run_circuit(inv.to_circuit(), x).amplitudes
            assert np.allclose(_state_vector(evolve(x, inv)), want, atol=1e-12)

    def test_string_input(self):
        s = evolve("10", CliffordCircuit(2))
        assert s.amplitude_raw(0b01) == 1.0

    @pytest.mark.parametrize("x", ["21", "1", "101", 4, -1])
    def test_rejects_bad_input_label(self, x):
        with pytest.raises(ValueError):
            evolve(x, CliffordCircuit(2))

    @pytest.mark.parametrize("y", ["20", "0", 4])
    def test_amplitude_rejects_bad_label(self, y):
        s = evolve(0, CliffordCircuit(2))
        assert s.amplitude("00") == 1.0
        with pytest.raises(ValueError):
            s.amplitude(y)

    def test_amplitude_convention(self, rng):
        c = random_clifford_circuit(3, 12, rng)
        s = evolve(0, c)
        aff = s.affine_form()
        a0 = s.amplitude(bits_of(aff.y0, 3))
        assert a0.imag == pytest.approx(0.0, abs=1e-12)
        assert a0.real == pytest.approx(2.0 ** (-aff.s / 2))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 33, 64, 70])
    def test_affine_basis_is_reduced_basis(self, n, rng):
        # the movers' X parts come out of _reduce_block already reduced, and
        # y_particular meets every Z constraint the X block leaves behind
        for _ in range(4):
            c = random_clifford_circuit(n, 4 * n, rng)
            x = _random_wide_pauli(n, rng).a
            st = evolve(x, c)
            aff = st.affine_form()
            want = gf2.reduced_basis([g.a for g, _ in aff.movers])
            assert {q: g.a for g, q in aff.movers} == want
            assert aff.y0 == gf2.coset_min(aff.y_particular, want)
            rows = list(st.generators)
            movers = set(_reduce_block(rows, "a", (1 << n) - 1).values())
            zcons = [h for i, h in enumerate(rows) if i not in movers]
            assert len(zcons) == n - aff.s
            for h in zcons:
                assert h.a == 0 and (h.b & aff.y_particular).bit_count() % 2 == h.t // 2

    def test_vectorized_matches_scalar(self, rng):
        # widths on both sides of each byte boundary, support dimensions s
        # from 0 to n, anchors other than the least support element
        for n in (1, 8, 9, 16, 17, 63, 64):
            for s in sorted({0, 1, 7, 8, 9, 15, 16, 17, n} & set(range(n + 1))):
                st = _evolved_with_support(n, s, rng)
                assert st.affine_form().s == s
                assert s == 0 or st.anchor_y != st.affine_form().y0
                self._check_vectorized(st, rng)
        # general circuits, h gates anywhere
        for n in (4, 8, 9, 17):
            c = random_clifford_circuit(n, 6 * n, rng)
            self._check_vectorized(evolve(int(rng.integers(1 << n)), c), rng)

    @staticmethod
    def _check_vectorized(st, rng):
        """Exact equality with amplitude_raw on samples and on off-support labels."""
        n, aff = st.n, st.affine_form()
        ys = st.sample_many(200, rng)
        if n <= 9:
            labels = np.arange(1 << n, dtype=np.uint64)
        else:
            labels = rng.integers(0, 1 << n, size=200, dtype=np.uint64)
        if aff.zcons:  # breaking one constraint's parity leaves the support
            flip = np.uint64(1 << gf2.lowest_bit(aff.zcons[0].b))
            labels = np.concatenate([labels, ys[:50] ^ flip])
        off = 0
        for batch in (ys, labels):
            want = [st.amplitude_raw(y) for y in batch.tolist()]
            assert st.amplitudes_raw_many(batch).tolist() == want
            off += want.count(0)
        assert st.amplitudes_raw_many(ys).all()
        assert off >= (50 if aff.zcons else 0)

    def test_apply_pauli_is_the_pauli_image(self, rng):
        # exact global phase; the carried affine form and byte tables agree
        # with the image's own
        for n in (1, 4, 9, 64):
            for s in sorted({0, 1, n // 2, n}):
                st = _evolved_with_support(n, s, rng)
                p = _random_wide_pauli(n, rng)
                img = st.apply_pauli(p)
                if n <= 4:
                    want = pauli_statevector_matrix(p) @ _state_vector(st)
                    assert np.allclose(_state_vector(img), want, rtol=0, atol=1e-12)
                fresh = StabilizerState(img.generators, img.anchor_y, img.anchor_amp).affine_form()
                aff = img.affine_form()
                assert (aff.movers, aff.zcons, aff.y0) == (fresh.movers, fresh.zcons, fresh.y0)
                self._check_vectorized(img, rng)

    def test_vectorized_off_support_anchor(self):
        # an anchor outside the support reaches no support element
        st = StabilizerState([parse_pauli("ZI"), parse_pauli("IX")], anchor_y=0b01, anchor_amp=1.0)
        ys = np.arange(4, dtype=np.uint64)
        assert st.amplitudes_raw_many(ys).tolist() == [st.amplitude_raw(y) for y in range(4)]
        assert not st.amplitudes_raw_many(ys).any()

    def test_dense_table_matches_scalar(self, rng):
        # on 4 qubits a batch of 10 runs the kernel, one of 40 builds the
        # table of all 16 amplitudes, and every later batch reads it; a
        # reassigned anchor, on or off the support, rebuilds it
        for _ in range(20):
            st = evolve(int(rng.integers(16)), random_clifford_circuit(4, 24, rng))
            short = rng.integers(0, 16, size=10, dtype=np.uint64)
            long = rng.integers(0, 16, size=40, dtype=np.uint64)

            def check(*batches):
                for batch in batches:
                    want = [st.amplitude_raw(y) for y in batch.tolist()]
                    assert st.amplitudes_raw_many(batch).tolist() == want

            check(short)
            assert st._dense is None
            check(long, short)
            assert st._dense is not None
            support = [y for y in range(16) if st.amplitude_raw(y)]
            y = support[int(rng.integers(len(support)))]
            st.anchor_y, st.anchor_amp = y, 1j * st.amplitude_raw(y)
            check(short, long)
            st.anchor_amp = -0.5 * st.anchor_amp
            check(short, long)
            off = [y for y in range(16) if not st.in_support(y)]
            if off:
                st.anchor_y = off[0]
                check(short, long)
                assert not st.amplitudes_raw_many(long).any()

    def test_labels_outside_register_read_zero(self, rng):
        # like amplitude_raw and the kernel, the table path gives 0 for a
        # label of 2^n or more, before and after the table exists; on
        # |++++> the label 2^64 - 1 must not wrap to the table's last entry
        plus = evolve(0, CliffordCircuit(4, tuple(("h", (q,)) for q in range(4))))
        states = [plus] + [
            evolve(int(rng.integers(16)), random_clifford_circuit(4, 24, rng)) for _ in range(5)
        ]
        outside = np.array([16, 20, 2**64 - 1], dtype=np.uint64)
        for st in states:
            wide = np.concatenate([rng.integers(0, 16, size=20, dtype=np.uint64), outside])

            def check(*batches):
                for batch in batches:
                    want = [st.amplitude_raw(y) for y in batch.tolist()]
                    assert st.amplitudes_raw_many(batch).tolist() == want

            check(outside)
            assert st._dense is None
            check(wide)  # 23 labels build the table
            assert st._dense is not None
            check(outside, wide)
        assert not plus.amplitudes_raw_many(outside).any()

    @pytest.mark.parametrize("n", [8, 17, 64])
    def test_sample_many_pinned_to_per_mover_loop(self, n, rng):
        for s in sorted({0, 1, 8, 9, n} & set(range(n + 1))):
            st = _evolved_with_support(n, s, rng)
            for k in (1, 1023, 3000):
                seed = int(rng.integers(1 << 32))
                got = st.sample_many(k, np.random.default_rng(seed))
                want = _sample_many_per_mover(st, k, np.random.default_rng(seed))
                assert got.dtype == np.uint64 and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox, np.random.MT19937],
    )
    def test_sample_many_stream_concatenates(self, bit_generator, rng):
        # each sample takes one word, so successive calls, and a draw
        # between calls, continue one stream on every bit generator
        st = _evolved_with_support(17, 9, rng)
        seed = int(rng.integers(1 << 32))
        got_rng = np.random.Generator(bit_generator(seed))
        want_rng = np.random.Generator(bit_generator(seed))
        for k in (7, 1000, 8001, 1):
            got = st.sample_many(k, got_rng)
            want = _sample_many_per_mover(st, k, want_rng)
            assert np.array_equal(got, want)
            assert _same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)
            assert got_rng.integers(0, 2) == want_rng.integers(0, 2)

    def test_sample_many_split_draws_equal_one_draw(self, rng):
        for s in (0, 3, 12):
            st = _evolved_with_support(12, s, rng)
            seed = int(rng.integers(1 << 32))
            k1, k2 = (int(v) for v in rng.integers(0, 2000, size=2))
            gen = np.random.default_rng(seed)
            split = np.concatenate([st.sample_many(k1, gen), st.sample_many(k2, gen)])
            assert np.array_equal(split, st.sample_many(k1 + k2, np.random.default_rng(seed)))

    def test_product_state_samples_mask_the_word(self, rng):
        # H on the qubits P of |x>: the movers are the single-qubit X's on P,
        # so sample i is y0 ^ (r_i & P) for word r_i of the stream
        for n in (5, 40, 64):
            x = int(rng.integers(0, (1 << n) - 1, endpoint=True, dtype=np.uint64))
            qs = [int(q) for q in rng.choice(n, size=int(rng.integers(n + 1)), replace=False)]
            st = evolve(x, CliffordCircuit(n, tuple(("h", (q,)) for q in qs)))
            aff = st.affine_form()
            assert sorted((g.a, piv) for g, piv in aff.movers) == sorted((1 << q, q) for q in qs)
            mask = np.uint64(sum(1 << q for q in qs))
            y0 = np.uint64(aff.y0)
            assert y0 & mask == 0
            seed = int(rng.integers(1 << 32))
            got = st.sample_many(500, np.random.default_rng(seed))
            assert np.array_equal(got, y0 ^ (_words(np.random.default_rng(seed), 500) & mask))

    def test_sample_many_uniform_on_support(self):
        # a fixed-seed chi-square test over a 16-element support at n = 6;
        # 37.70 is the 0.001 upper quantile of chi-square with 15 degrees
        st = _evolved_with_support(6, 4, np.random.default_rng(5))
        k = 16000
        ys = st.sample_many(k, np.random.default_rng(6))
        counts = np.bincount(ys.astype(np.int64), minlength=64)
        support = [y for y in range(64) if st.in_support(y)]
        assert len(support) == 16 and counts[support].sum() == k
        chi2 = float((((counts[support] - k / 16) ** 2) / (k / 16)).sum())
        assert chi2 < 37.70

    def test_sample_many_without_draws_leaves_generator(self, rng):
        moving = _evolved_with_support(8, 3, rng)
        gen = np.random.default_rng(int(rng.integers(1 << 32)))
        gen.integers(0, 2)  # leaves half a word buffered
        before = gen.bit_generator.state
        assert moving.sample_many(0, gen).shape == (0,)
        assert _same_state(gen.bit_generator.state, before)

    def test_sample_many_without_movers_takes_a_word_per_sample(self, rng):
        fixed = _evolved_with_support(8, 0, rng)
        seed = int(rng.integers(1 << 32))
        gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        assert fixed.sample_many(5, gen).tolist() == [fixed.affine_form().y0] * 5
        _words(twin, 5)
        assert _same_state(gen.bit_generator.state, twin.bit_generator.state)

    @pytest.mark.parametrize("k", [-2, 2.5])
    def test_sample_many_refuses_bad_count(self, k, rng):
        st = _evolved_with_support(8, 3, rng)
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(ValueError, match=f"^sample count must be .*, got {k}$"):
            st.sample_many(k, gen)
        assert _same_state(gen.bit_generator.state, before)

    def test_sample_many_distribution(self, rng):
        # |+>^2: all four outcomes occur with similar frequency
        c = CliffordCircuit(2, (("h", (0,)), ("h", (1,))))
        ys = evolve(0, c).sample_many(2000, rng)
        counts = np.bincount(ys.astype(int), minlength=4)
        assert counts.min() > 380


class TestStateValidation:
    def test_not_hermitian(self):
        g = [PauliOperator(2, 1, 0, 1), PauliOperator.single(2, "Z", 1)]
        with pytest.raises(NotHermitian):
            StabilizerState(g)

    def test_not_commuting(self):
        g = [PauliOperator.single(2, "X", 0), PauliOperator.single(2, "Z", 0)]
        err = pytest.raises(NotCommuting, StabilizerState, g).value
        assert (err.i, err.j) == (0, 1)

    def test_dependent(self):
        g = [parse_pauli("ZZ"), parse_pauli("ZZ")]
        with pytest.raises(DependentInput):
            StabilizerState(g)

    def test_minus_identity_literal(self):
        with pytest.raises(MinusIdentity):
            complete_generators([parse_pauli("-II")])

    def test_minus_identity_inconsistent_signs(self):
        # Z1 and -Z1 both declared stabilizers: the support system is infeasible
        with pytest.raises(MinusIdentity):
            StabilizerState([parse_pauli("ZI"), parse_pauli("-ZI")], check=False)


class TestCompletionAndSynthesis:
    def test_complete_preserves_inputs(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            ps = random_commuting_paulis(n, 2 * n, rng)
            keep = gf2.independent_indices([p.r for p in ps])[:m]
            indep = [ps[i] for i in keep]
            state = complete_generators(indep)
            assert state.generators[: len(indep)] == indep
            gens = state.generators
            for i, g in enumerate(gens):
                assert g.is_hermitian()
                for h in gens[i + 1 :]:
                    assert commutes(g, h)
            # n independent generators, every added one Z-type, so the prep
            # circuit needs an H only per unit of the inputs' X rank
            assert len(gf2.independent_indices([g.r for g in gens])) == n
            assert all(g.is_z_type() for g in gens[len(indep) :])
            x_rank = len(gf2.independent_indices([p.a for p in indep]))
            hs = [name for name, _ in synthesize_prep(state).gates if name == "h"]
            assert len(hs) <= x_rank

    def test_signed_z_members_need_no_hadamard(self):
        ps = [parse_pauli("ZZI"), parse_pauli("-IZZ")]
        c, qs = diagonalize_commuting_set(ps)
        assert all(name != "h" for name, _ in c.gates)
        assert [format_pauli(q) for q in qs] == ["+ZZI", "+IZZ"]

    @pytest.mark.parametrize(
        "n, m, density, part, eligible",
        [
            # plain ids for n rows of density 1/2 and the X block over all
            # rows, the call the affine form makes
            pytest.param(n, m, density, part, eligible, id=(
                (str(n) if (part, eligible) == ("a", "all") else f"{n}-{part}-{eligible}")
                if (m, density) == (n, 0.5)
                else f"{n}x{m}-{density}-{part}-{eligible}"
            ))
            # fewer and more rows than qubits, and rows as sparse as evolve's
            for n, m, density in [(3, 3, 0.5), (8, 8, 0.5), (70, 70, 0.5),
                                  (5, 9, 0.5), (33, 20, 0.1), (70, 40, 0.03)]
            for part in "ab"
            for eligible in ("all", "some")
        ],
    )
    def test_reduce_x_block_matches_row_scan(self, n, m, density, part, eligible, rng):
        def row_scan(rows, mask):  # one Python scan of all rows per qubit, as the oracle
            piv_of, used = {}, set()
            for q in range(n):
                hit = next(
                    (
                        i
                        for i, g in enumerate(rows)
                        if i not in used and (mask >> i) & 1 and (getattr(g, part) >> q) & 1
                    ),
                    None,
                )
                if hit is None:
                    continue
                piv_of[q] = hit
                used.add(hit)
                for i, g in enumerate(rows):
                    if i != hit and (getattr(g, part) >> q) & 1:
                        rows[i] = multiply(g, rows[hit])
            return piv_of

        def bits(k):
            return int("".join("1" if u < density else "0" for u in rng.random(k)), 2)

        for _ in range(5):
            rows = [PauliOperator(n, int(rng.integers(4)), bits(n), bits(n)) for _ in range(m)]
            rows[-1] = multiply(rows[0], rows[1])  # a dependent X and Z part
            mask = (1 << m) - 1 if eligible == "all" else bits(m)
            got, want = list(rows), list(rows)
            assert list(_reduce_block(got, part, mask).items()) == list(
                row_scan(want, mask).items()
            )
            assert got == want

    def test_compile_checks_commutation_once(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(
            stabilizer, "commutes", lambda p, q: calls.append(1) or commutes(p, q)
        )
        ps = random_commuting_paulis(12, 20, rng)
        r = len(gf2.independent_indices([p.r for p in ps]))
        diagonalize_commuting_set(ps)
        # the pairs of the independent members only: bilinearity covers the rest
        assert len(calls) == r * (r - 1) // 2
        # the public completion still checks its own input
        with pytest.raises(NotCommuting) as err:
            complete_generators([parse_pauli("XI"), parse_pauli("ZI")])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_synthesize_prep_stabilizes(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = random_clifford_circuit(n, 12, rng)
            gens = [conjugate_pauli(c, PauliOperator.single(n, "Z", k)) for k in range(n)]
            state = StabilizerState(gens)
            prep = synthesize_prep(state)
            assert CliffordCircuit(prep.n, prep.gates) == prep  # built unchecked
            vec = _state_vector(evolve(0, prep))
            for g in gens:
                assert np.allclose(pauli_statevector_matrix(g) @ vec, vec, atol=1e-10)

    def test_diagonalize_random_sets(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            ps = random_commuting_paulis(n, int(rng.integers(1, 2 * n)), rng)
            c, qs = diagonalize_commuting_set(ps)
            assert CliffordCircuit(c.n, c.gates) == c  # built unchecked
            u = circuit_unitary(c.to_circuit())
            for p, q in zip(ps, qs):
                assert q.is_z_type()
                assert np.allclose(
                    pauli_statevector_matrix(q),
                    u.conj().T @ pauli_statevector_matrix(p) @ u,
                    atol=1e-10,
                )

    def test_diagonalize_keeps_dependent_inputs(self, rng):
        ps = [parse_pauli("ZZI"), parse_pauli("IZZ"), parse_pauli("ZIZ")]
        c, qs = diagonalize_commuting_set(ps)
        assert len(qs) == 3 and all(q.is_z_type() for q in qs)

    def test_chain_stabilizers_give_basis_change_plus_entanglers(self):
        # Z_{j-1} X_j Z_{j+1} generators reduce to a layer of basis-change
        # gates followed by two-qubit entanglers, preparing a graph state.
        n = 4
        gens = []
        for j in range(n):
            p = PauliOperator.single(n, "X", j)
            if j > 0:
                p = multiply(p, PauliOperator.single(n, "Z", j - 1))
            if j < n - 1:
                p = multiply(p, PauliOperator.single(n, "Z", j + 1))
            gens.append(p)
        state = complete_generators(gens)
        prep = synthesize_prep(state)
        names = [name for name, _ in prep.gates]
        assert set(names) <= {"h", "cz"}
        assert names.count("h") == n
        vec = _state_vector(evolve(0, prep))
        for g in gens:
            assert np.allclose(pauli_statevector_matrix(g) @ vec, vec, atol=1e-12)

    @pytest.mark.parametrize(
        "texts, error, i, j",
        [
            # ZZ is dependent (ZI * IZ) and anticommutes with XI, as ZI does
            (["ZI", "IZ", "ZZ", "XI"], NotCommuting, 0, 3),
            # -YY is dependent (XX * ZZ up to phase) and anticommutes with XI
            (["XX", "ZZ", "-YY", "XI"], NotCommuting, 1, 3),
            # a non-Hermitian member after an anticommuting pair
            (["XI", "ZI", "IZ", "iZZ"], NotCommuting, 0, 1),
            (["ZI", "iZZ", "XI"], NotCommuting, 0, 2),
            (["ZI", "iZZ", "IZ"], NotHermitian, None, None),
        ],
    )
    def test_compile_errors_match_full_scan(self, texts, error, i, j):
        # padded with one qubit per member, the same defects in a generator list
        padded = [t + "I" * (len(texts) - 2) for t in texts]
        for ps in ([parse_pauli(t, 2) for t in texts], [parse_pauli(t) for t in padded]):
            with pytest.raises(error) as want:
                stabilizer._validate_commuting_hermitian(ps)  # every pair, in input order
            checks = [diagonalize_commuting_set, complete_generators]
            if len(ps) == ps[0].n:
                checks.append(StabilizerState)
            for check in checks:
                with pytest.raises(error) as got:
                    check(ps)
                assert str(got.value) == str(want.value)
                if error is NotCommuting:
                    assert (got.value.i, got.value.j) == (want.value.i, want.value.j) == (i, j)

    def test_generator_checks_scan_independent_pairs_once(self, rng, monkeypatch):
        gens = list(evolve(int(rng.integers(64)), random_clifford_circuit(6, 24, rng)).generators)
        gens[-1] = multiply(gens[0], gens[1])  # commuting, Hermitian and dependent
        pairs, scans = [], []
        scan = gf2.independent_indices
        monkeypatch.setattr(stabilizer, "commutes", lambda p, q: pairs.append(1) or commutes(p, q))
        monkeypatch.setattr(gf2, "independent_indices", lambda rows: scans.append(1) or scan(rows))
        for check in (complete_generators, StabilizerState):
            pairs.clear()
            scans.clear()
            with pytest.raises(DependentInput):
                check(gens)
            assert len(scans) == 1
            assert len(pairs) == 5 * 4 // 2  # the pairs of the five independent members

    def test_compile_width_mismatch(self):
        with pytest.raises(SizeMismatch):
            diagonalize_commuting_set([parse_pauli("ZI"), parse_pauli("Z")])

    def test_diagonalize_rejects_bad_inputs(self):
        with pytest.raises(NotCommuting):
            diagonalize_commuting_set([parse_pauli("X"), parse_pauli("Z")])
        with pytest.raises(NotHermitian):
            diagonalize_commuting_set([parse_pauli("iZ", 1)])
        with pytest.raises(ValueError):
            diagonalize_commuting_set([])
