"""Exact Pauli algebra against dense matrices and parser round trips."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsim.errors import ParseError, SizeMismatch
from commsim.pauli import (
    PauliOperator,
    commutes,
    format_pauli,
    multiply,
    parse_pauli,
)

_I4 = (1, 1j, -1, -1j)


def paulis(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 3),
            st.integers(0, (1 << n) - 1),
            st.integers(0, (1 << n) - 1),
        )
    ).map(lambda t: PauliOperator(*t))


class TestAlgebra:
    @given(paulis(), paulis())
    @settings(max_examples=200, deadline=None)
    def test_multiply_matches_dense(self, p, q):
        if p.n != q.n:
            with pytest.raises(SizeMismatch):
                multiply(p, q)
            return
        r = multiply(p, q)
        assert np.allclose(r.to_matrix(), p.to_matrix() @ q.to_matrix(), atol=1e-12)

    def test_to_matrix_is_the_kron_product(self):
        # every Pauli on up to 3 qubits: i^t times X^a_k Z^b_k per qubit,
        # qubit 0 the leftmost tensor factor
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        for n in (1, 2, 3):
            for t, a, b in itertools.product(range(4), range(1 << n), range(1 << n)):
                want = np.array([[_I4[t]]], dtype=complex)
                for k in range(n):
                    f = np.eye(2, dtype=complex)
                    if (a >> k) & 1:
                        f = f @ x
                    if (b >> k) & 1:
                        f = f @ z
                    want = np.kron(want, f)
                assert np.array_equal(PauliOperator(n, t, a, b).to_matrix(), want)

    @given(paulis(), paulis(), paulis())
    @settings(max_examples=100, deadline=None)
    def test_multiply_associative(self, p, q, r):
        n = max(p.n, q.n, r.n)
        p, q, r = (PauliOperator(n, x.t, x.a, x.b) for x in (p, q, r))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))

    @given(paulis(), paulis())
    @settings(max_examples=200, deadline=None)
    def test_commutes_matches_dense(self, p, q):
        n = max(p.n, q.n)
        p, q = (PauliOperator(n, x.t, x.a, x.b) for x in (p, q))
        mp, mq = p.to_matrix(), q.to_matrix()
        dense = np.allclose(mp @ mq, mq @ mp, atol=1e-12)
        assert commutes(p, q) == dense

    @given(paulis())
    @settings(max_examples=100, deadline=None)
    def test_hermitian_matches_dense(self, p):
        m = p.to_matrix()
        assert p.is_hermitian() == np.allclose(m, m.conj().T, atol=1e-12)

    @given(paulis(), st.integers(0, 15))
    @settings(max_examples=150, deadline=None)
    def test_act_on_basis(self, p, y):
        # P|y> = i^k |y ^ a> with k = phase_exponent_on_basis(y), checked densely
        y &= (1 << p.n) - 1
        phase, y2 = 1j ** p.phase_exponent_on_basis(y), y ^ p.a
        vec = np.zeros(1 << p.n, dtype=complex)
        # qubit 0 is the leftmost tensor factor in to_matrix
        idx = int("".join(str((y >> k) & 1) for k in range(p.n)), 2)
        vec[idx] = 1.0
        out = p.to_matrix() @ vec
        idx2 = int("".join(str((y2 >> k) & 1) for k in range(p.n)), 2)
        assert abs(out[idx2] - phase) < 1e-12
        assert np.linalg.norm(out) == pytest.approx(1.0)


class TestPredicates:
    def test_single_constructors(self):
        x = PauliOperator.single(3, "X", 1)
        y = PauliOperator.single(3, "Y", 0)
        z = PauliOperator.single(3, "Z", 2)
        assert (x.a, x.b, x.t) == (2, 0, 0)
        assert (y.a, y.b, y.t) == (1, 1, 1)
        assert (z.a, z.b, z.t) == (0, 4, 0)
        assert all(p.is_hermitian() for p in (x, y, z))

    def test_z_and_x_type(self):
        assert parse_pauli("-ZZ").is_z_type()
        assert not parse_pauli("iZ", 1).is_z_type()
        assert not parse_pauli("Y", 1).is_z_type()


class TestParsing:
    @pytest.mark.parametrize(
        "text,t,a,b",
        [
            ("XZ", 0, 1, 2),
            ("+XZ", 0, 1, 2),
            ("-XZ", 2, 1, 2),
            ("iXZ", 1, 1, 2),
            ("-iXZ", 3, 1, 2),
            ("Y", 1, 1, 1),
            ("-Y", 3, 1, 1),
            ("II", 0, 0, 0),
        ],
    )
    def test_parse_cases(self, text, t, a, b):
        p = parse_pauli(text)
        assert (p.t, p.a, p.b) == (t, a, b)

    def test_parse_pads_to_n(self):
        p = parse_pauli("X", 3)
        assert (p.n, p.a) == (3, 1)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_pauli("XQ")
        with pytest.raises(ParseError):
            parse_pauli("")
        with pytest.raises(ParseError):
            parse_pauli("XXX", 2)
        err = pytest.raises(ParseError, parse_pauli, "A", None, 7).value
        assert err.line_no == 7

    @given(paulis())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, p):
        assert parse_pauli(format_pauli(p), p.n) == p

    def test_format_examples(self):
        assert format_pauli(parse_pauli("-iYX")) == "-iYX"
        assert format_pauli(PauliOperator.single(2, "Y", 0)) == "+YI"
