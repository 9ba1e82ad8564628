"""Weak simulation of Pauli-exponential circuits.

A product of commuting Pauli exponentials factors as C D C^dag with a single
Clifford C and a diagonal D.  A few non-commuting extra gates e^{i theta Q}
expand as cos(theta) I + i sin(theta) Q; moving each chosen Q to the input
side flips the sign of the members it anticommutes with, so every branch a is
a coefficient c_a times C D_a C^dag Sigma_a.  The observable then becomes a
sum over branch pairs (a, b) of monomial sandwiches
conj(c_a) c_b <psi_a| M_ab |psi_b>, where M_ab keeps only the diagonal
factors that do not cancel.  The branch states psi_a = C^dag Sigma_a |x> are
not evolved one by one: C^dag|x> is evolved once, and psi_a is its exact
image under the Pauli C^dag Sigma_a C, whose generators, affine form and
byte tables differ from it only in signs and a shifted support.

All pairs are estimated as one mean: a pair is drawn with probability
|c_a c_b| / W^2, W = sum_a |c_a| = prod_j (|cos theta_j| + |sin theta_j|),
and its sample is weighted by W^2 and the pair's unit phase.  Every sample is
bounded by W^2, so K = ceil(4 W^4 ln(2/delta) / epsilon^2) samples meet the
(epsilon, delta) contract.  Commuting circuits are the zero-extras case,
with W = 1.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .circuit import PauliExpGate
from .errors import CapacityExceeded, DimensionMismatch, SizeMismatch, TooManyExtras
from .estimator import (
    Composition,
    DiagonalZExp,
    EstimateResult,
    EstimatorConfig,
    MonomialOperator,
    PauliMonomial,
    estimate_monomial_sandwich,
)
from .oracle import parse_basis_label
from .pauli import PauliOperator, commutes, multiply
from .stabilizer import (
    CliffordCircuit,
    conjugate_pauli,
    diagonalize_commuting_set,
    evolve,
)

K_MAX = 10
# the sampler and amplitude kernel hold a basis label in one uint64
MAX_QUBITS = 64


class MemberGate(PauliExpGate):
    """``e^{i theta P}`` belonging to the commuting family."""


class ExtraGate(PauliExpGate):
    """``e^{i theta Q}`` outside the commuting family."""


def compile_commuting_pauli(
    gates: list[tuple[float, PauliOperator]], n: int | None = None
):
    """Factor ``prod e^{i theta_j P_j}`` as ``C D C^dag``.

    Returns (c, diag, obs_map): the Clifford c, the diagonal factors
    DiagonalZExp(theta_j, c^dag P_j c), and obs_map(A) = c^dag A c.
    diagonalize_commuting_set checks the members: SizeMismatch, NotHermitian
    or NotCommuting for the first member or pair that fails.
    """
    if gates:
        c, qs = diagonalize_commuting_set([p for _, p in gates])
    elif n is None:
        raise ValueError("need n for an empty gate list")
    else:
        c = CliffordCircuit(n, ())
        qs = []
    diag = [DiagonalZExp(theta, q) for (theta, _), q in zip(gates, qs)]
    return c, diag, lambda p: conjugate_pauli(c.inverse(), p)


def simulate_commuting_pauli(
    gates: list[tuple[float, PauliOperator]],
    x,
    qubit: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    n: int | None = None,
) -> EstimateResult:
    """Estimate ``<Z_qubit>`` after the commuting circuit applied to ``|x>``.

    The zero-extras case of :func:`simulate_noncommuting_pauli`; ``n`` is
    needed only for an empty gate list.
    """
    program = [MemberGate(theta, p) for theta, p in gates]
    return simulate_noncommuting_pauli(program, x, qubit, cfg, rng, n=n)


def simulate_noncommuting_pauli(
    program: list[MemberGate | ExtraGate],
    x,
    qubit: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    n: int | None = None,
) -> EstimateResult:
    """Estimate ``<Z_qubit>`` for members interleaved with a few extras.

    Branch pairs (a, b) are importance-sampled in proportion to |c_a c_b|:
    one multinomial draw splits the K samples over the pairs, each pair's
    share is drawn by the monomial-sandwich estimator, and the weighted
    shares add up to one mean.  K = ceil(4 W^4 ln(2/delta) / epsilon^2) with
    W = prod_j (|cos theta_j| + |sin theta_j|) over the k extras, or
    ``cfg.k_override`` when set; ``EstimateResult.k`` reports that total.
    Registers wider than 64 qubits raise CapacityExceeded before any work,
    and an entry that is neither a member nor an extra raises TypeError.
    """
    t0 = time.perf_counter()
    if not program and n is None:
        raise ValueError("need n for an empty program")
    for i, g in enumerate(program):
        if not isinstance(g, (MemberGate, ExtraGate)):
            raise TypeError(f"program entry {i} is neither a MemberGate nor an ExtraGate")
    members = [g for g in program if isinstance(g, MemberGate)]
    extras = [g for g in program if isinstance(g, ExtraGate)]
    n = program[0].pauli.n if n is None else n
    if n > MAX_QUBITS:
        raise CapacityExceeded(
            f"the Pauli simulators support at most {MAX_QUBITS} qubits, got {n}"
        )
    if any(g.pauli.n != n for g in program):
        raise SizeMismatch("gates act on different registers")
    if not 0 <= qubit < n:
        raise DimensionMismatch(f"observable qubit {qubit} outside the {n}-qubit register")
    digits = parse_basis_label(x, n, 2)
    k = len(extras)
    if k > K_MAX:
        raise TooManyExtras(f"{k} extra gates exceed the cap of {K_MAX}")
    c, diag, obs_map = compile_commuting_pauli(
        [(g.theta, g.pauli) for g in members], n
    )
    p_obs = obs_map(PauliOperator(n, 0, 0, 1 << qubit))
    # sign of conjugating each member's exponent past the observable Pauli
    # (commutation is Clifford-invariant, so compare in the diagonal frame)
    f_obs = [1 if commutes(d.q, p_obs) else -1 for d in diag]
    branches = _branches(program, c, digits)
    weight = sum(b[0] for b in branches)
    if cfg.k_override is not None:
        k_total = cfg.k_override
    else:
        pair_eps = min(1.0, cfg.epsilon / weight**2)
        k_total = EstimatorConfig(epsilon=pair_eps, delta=cfg.delta).k
    pairs = list(itertools.product(branches, repeat=2))
    counts = rng.multinomial(k_total, [a[0] * b[0] / weight**2 for a, b in pairs])

    total = 0 + 0j
    max_violation = 0.0
    for ((_, u_a, s_a, psi_a), (_, u_b, s_b, psi_b)), k_ab in zip(pairs, counts):
        if not k_ab:
            continue
        # D_a^dag P D_b = P * prod_j e^{i theta_j (s_b[j] - s_a[j] f_j) Q_j}
        ops: list[MonomialOperator] = [PauliMonomial(p_obs)]
        for j, d in enumerate(diag):
            theta = members[j].theta * (s_b[j] - s_a[j] * f_obs[j])
            if theta:
                ops.append(DiagonalZExp(theta, d.q))
        m = Composition(ops) if len(ops) > 1 else ops[0]
        res = estimate_monomial_sandwich(
            psi_a, m, psi_b, EstimatorConfig(k_override=int(k_ab)), rng
        )
        max_violation = max(max_violation, res.max_modulus_violation)
        total += k_ab * np.conj(u_a) * u_b * complex(res.raw_value)
    raw = float((weight**2 * total / k_total).real)
    return EstimateResult(
        value=min(1.0, max(-1.0, raw)),
        raw_value=raw,
        epsilon=cfg.epsilon,
        delta=cfg.delta,
        k=k_total,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        max_modulus_violation=max_violation,
    )


def _branches(program, c: CliffordCircuit, digits: list[int]) -> list:
    """(|c_a|, c_a / |c_a|, member signs, C^dag Sigma_a |x>) per branch with c_a != 0.

    Branches come in ``itertools.product`` order of the extras' choices.
    ``C^dag|x>`` is evolved once; each branch state is its exact image under
    C^dag Sigma_a C, the product of the chosen extras' images.
    """
    members = [(i, g) for i, g in enumerate(program) if isinstance(g, MemberGate)]
    extras = [(i, g) for i, g in enumerate(program) if isinstance(g, ExtraGate)]
    psi0 = evolve(digits, c.inverse())
    images = [conjugate_pauli(c.inverse(), g.pauli) for _, g in extras]
    branches = []
    for choice in itertools.product((0, 1), repeat=len(extras)):
        coeff = 1 + 0j
        for take, (_, g) in zip(choice, extras):
            if take:
                coeff *= 1j * np.sin(g.theta)
            else:
                coeff *= np.cos(g.theta)
        if coeff == 0:
            continue
        # chosen extras commute to the front (input side); each member applied
        # before a chosen extra picks up that extra's anticommutation sign
        signs = []
        for j, g in members:
            s = 1
            for take, (l, e) in zip(choice, extras):
                if take and l > j and not commutes(g.pauli, e.pauli):
                    s = -s
            signs.append(s)
        sigma = PauliOperator.identity(c.n)
        for take, image in reversed(list(zip(choice, images))):  # later extras on the left
            if take:
                sigma = multiply(sigma, image)
        branches.append((abs(coeff), coeff / abs(coeff), signs, psi0.apply_pauli(sigma)))
    return branches
