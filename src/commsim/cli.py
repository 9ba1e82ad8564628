"""Command-line front end.

One JSON object per result line on stdout; human-readable notes on stderr.
All qubit indices on the command line and in files are 1-based.  Exit codes:
0 success, 1 failure with a diagnostic, 2 usage error.  Output on stdout is
deterministic given (argv, seed); timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys

import numpy as np

from . import __version__
from .circuit import (
    MAX_QUDITS,
    Circuit,
    NamedGate,
    PauliExpGate,
    _restrict_pauli,
    parse_angle,
    parse_circuit,
    serialize_circuit,
    text_lines,
)
from .errors import CommsimError, NotHermitian, ParseError
from .estimator import EstimateResult, EstimatorConfig
from .local2 import ProductState, simulate_2local
from .oracle import DEFAULT_CAP, DenseOracleExecutor, Observable, expectation, run_circuit
from .pauli import PauliOperator, format_pauli, parse_pauli
from .paulisim import ExtraGate, MemberGate, simulate_noncommuting_pauli
from .stabilizer import CliffordCircuit, diagonalize_commuting_set
from .transformers import (
    alternate_hadamard_test,
    estimate_cd_clifford_overlap,
    estimate_cd_overlap,
    hadamard_test,
    two_layer_merge,
)

CAP_ENV = "COMMSIM_MAX_AMPLITUDES"

_PAULI_LETTERS = {"X", "Y", "Z"}


def _emit(obj: dict):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _note(msg: str):
    sys.stderr.write(msg + "\n")


def _emit_circuit(c: Circuit) -> int:
    """The stdout line of the commands that emit a test circuit."""
    _emit({"circuit": serialize_circuit(c), "gates": len(c.gates)})
    return 0


def _emit_estimate(res: EstimateResult, seed: int) -> int:
    """The stderr timing note and the stdout line of the sampling estimators."""
    _note(f"elapsed_ms: {res.elapsed_ms:.1f}")
    _emit(
        {
            "value": res.value,
            "raw_value": res.raw_value,
            "epsilon": res.epsilon,
            "delta": res.delta,
            "K": res.k,
            "seed": seed,
        }
    )
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_circuit(path: str) -> Circuit:
    return parse_circuit(_read(path))


def _load_paulis(path: str) -> list[PauliOperator]:
    """A ``.pauli`` file: optional ``paulis <n>`` header, one operator per line."""
    n = None
    ops: list[PauliOperator] = []
    for no, line in text_lines(_read(path)):
        toks = line.split()
        if toks[0] == "paulis":
            if ops or n is not None:
                raise ParseError(no, "header must come first")
            if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) > MAX_QUDITS:
                raise ParseError(no, f"header is 'paulis <n>' with n <= {MAX_QUDITS}")
            n = int(toks[1])
            continue
        ops.append(parse_pauli(line, n, line_no=no))
    if not ops:
        raise ParseError(1, "no Pauli operators in file")
    width = max(p.n for p in ops)
    return [PauliOperator(width, p.t, p.a, p.b) for p in ops]


def _parse_obs(spec: str, n: int, d: int) -> Observable:
    """``Z1``-style single-qubit Pauli, a full Pauli string, or ``file@q1,q2``."""
    if "@" in spec:
        path, _, qs = spec.partition("@")
        try:
            support = tuple(sorted(int(t) - 1 for t in qs.split(",")))
        except ValueError:
            raise ValueError(
                f"observable {spec!r} needs comma-separated qubit numbers after '@'"
            ) from None
        for q in support:
            if not 0 <= q < n:
                raise ValueError(f"observable qubit {q + 1} outside the register")
        rows = []
        for no, line in text_lines(_read(path)):
            try:
                vals = [float(t) for t in line.split()]
            except ValueError as exc:
                raise ParseError(no, str(exc)) from None
            if len(vals) % 2:
                raise ParseError(no, "matrix row needs a real and an imaginary part per entry")
            rows.append([complex(r, i) for r, i in zip(vals[::2], vals[1::2])])
        m = np.array(rows, dtype=complex)
        dim = d ** len(support)
        if m.shape != (dim, dim):
            raise ValueError(
                f"observable matrix has shape {m.shape}, expected ({dim}, {dim})"
                f" for {len(support)} qudit(s) of dimension {d}"
            )
        return Observable(support, m)
    if d != 2:
        raise ValueError("named Pauli observables need d = 2; use a matrix file")
    if spec[:1].upper() in _PAULI_LETTERS and spec[1:].isdecimal():
        q = int(spec[1:]) - 1
        if not 0 <= q < n:
            raise ValueError(f"observable qubit {q + 1} outside the register")
        p = PauliOperator.single(1, spec[0].upper(), 0)
        return Observable((q,), p.to_matrix())
    p = parse_pauli(spec, n)
    bits = p.a | p.b
    support = tuple(k for k in range(n) if (bits >> k) & 1)
    if not support:
        raise ValueError("identity observable is trivial; pick a Pauli with support")
    return Observable(support, _restrict_pauli(p).to_matrix())


def _resolve_seed(args) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    _note(f"seed: {seed}")
    return seed


def _cap(args) -> int:
    if args.max_amplitudes is not None:
        return args.max_amplitudes
    env = os.environ.get(CAP_ENV)
    if not env:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"${CAP_ENV} must be a positive integer, got {env!r}")
    return cap


def _gate_list(c: Circuit) -> list[MemberGate]:
    if c.d != 2:
        raise ValueError(f"paulisim needs qubits (d = 2), got d = {c.d}")
    gates = []
    for i, g in enumerate(c.gates):
        if not isinstance(g, PauliExpGate):
            raise ValueError(f"gate {i + 1} is not a Pauli exponential")
        gates.append(MemberGate(g.theta, g.pauli))
    return gates


def _load_extras(path: str, n: int) -> list[tuple[int, ExtraGate]]:
    """Extras file: one ``<slot> <theta> <pauli>`` per line.

    ``slot`` counts how many member gates are applied before the extra; a
    slot past the last member puts the extra at the end.
    """
    out = []
    for no, line in text_lines(_read(path)):
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(no, "extras line is '<slot> <theta> <pauli>'")
        try:
            slot = int(toks[0])
        except ValueError as exc:
            raise ParseError(no, str(exc)) from None
        if slot < 0:
            raise ParseError(no, f"slot {slot} is negative")
        theta = parse_angle(toks[1], no)
        try:
            out.append((slot, ExtraGate(theta, parse_pauli(toks[2], n, line_no=no))))
        except NotHermitian as exc:
            raise ParseError(no, str(exc)) from None
    return out


def _load_clifford(path: str) -> CliffordCircuit:
    c = _load_circuit(path)
    gates = []
    for i, g in enumerate(c.gates):
        if not isinstance(g, NamedGate):
            raise ValueError(f"gate {i + 1} is not a named Clifford gate")
        gates.append((g.name, g.qubits))
    return CliffordCircuit(c.n, tuple(gates))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_oracle(args) -> int:
    c = _load_circuit(args.circuit)
    x = args.input if args.input is not None else "0" * c.n
    s = run_circuit(c, x, cap=_cap(args))
    obs = _parse_obs(args.obs, c.n, c.d)
    _emit({"value": expectation(s, obs), "n": c.n, "d": c.d})
    return 0


def _cmd_sim2local(args) -> int:
    c = _load_circuit(args.circuit)
    x = args.input if args.input is not None else "0" * c.n
    inp = ProductState.from_basis(c.n, c.d, x)
    obs = _parse_obs(args.obs, c.n, c.d)
    _emit({"value": simulate_2local(c, inp, obs), "n": c.n, "d": c.d})
    return 0


def _cmd_paulisim(args) -> int:
    c = _load_circuit(args.circuit)
    gates = _gate_list(c)
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    x = args.input if args.input is not None else "0" * c.n
    qubit = args.qubit - 1
    if not 0 <= qubit < c.n:
        raise ValueError(f"qubit {args.qubit} outside the register")
    extras = sorted(_load_extras(args.extras, c.n) if args.extras else [], key=lambda e: e[0])
    program: list[MemberGate | ExtraGate] = []
    pos = 0
    for j in range(len(gates) + 1):
        while pos < len(extras) and extras[pos][0] <= j:
            program.append(extras[pos][1])
            pos += 1
        if j < len(gates):
            program.append(gates[j])
    program.extend(e for _, e in extras[pos:])  # slots past the end go last
    res = simulate_noncommuting_pauli(program, x, qubit, args.cfg, rng, n=c.n)
    return _emit_estimate(res, seed)


def _cmd_diagonalize(args) -> int:
    paulis = _load_paulis(args.paulis)
    c, qs = diagonalize_commuting_set(paulis)
    _emit(
        {
            "circuit": serialize_circuit(c.to_circuit()),
            "images": [format_pauli(q) for q in qs],
            "gates": len(c),
        }
    )
    return 0


def _part(args) -> str:
    return {"re": "real", "im": "imag"}[args.part]


def _cmd_hadamard_test(args) -> int:
    return _emit_circuit(hadamard_test(_load_circuit(args.circuit), _part(args)))


def _cmd_alt_hadamard_test(args) -> int:
    return _emit_circuit(alternate_hadamard_test(_load_circuit(args.circuit), _part(args)))


def _cmd_merge_layers(args) -> int:
    c1 = _load_circuit(args.layer1)
    c2 = _load_circuit(args.layer2)
    return _emit_circuit(two_layer_merge(c1, c2, _part(args)))


def _cmd_depth_overlap(args) -> int:
    u = _load_circuit(args.circuit)
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    executor = DenseOracleExecutor(cap=_cap(args))
    if args.clifford:
        cliff = _load_clifford(args.clifford)
        res = estimate_cd_clifford_overlap(u, cliff, args.cfg, executor, rng)
    else:
        res = estimate_cd_overlap(u, args.cfg, executor, rng)
    return _emit_estimate(res, seed)


# ---------------------------------------------------------------------------
# dispatch


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="commsim", description="Classical simulators for commuting quantum circuits"
    )
    top.add_argument("--version", action="version", version=f"commsim {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def cap(p):
        p.add_argument(
            "--max-amplitudes",
            type=int,
            default=None,
            help=f"statevector capacity cap (default from ${CAP_ENV})",
        )

    def estimator(p, shots_help="total sample count (overrides the derived K)"):
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        p.add_argument("--workers", type=int, default=1, help="parallelism hint")
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--delta", type=float, default=0.01)
        p.add_argument("--shots", type=int, default=None, help=shots_help)

    p = sub.add_parser("oracle", help="exact statevector expectation")
    p.add_argument("circuit")
    p.add_argument("--input", default=None, help="basis-state digit string")
    p.add_argument("--obs", required=True, help="Z1-style Pauli, Pauli string, or file@q1,q2")
    cap(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sim2local", help="strong simulation of 2-local commuting circuits")
    p.add_argument("circuit")
    p.add_argument("--input", default=None, help="basis-state digit string")
    p.add_argument("--obs", required=True)
    p.set_defaults(func=_cmd_sim2local)

    p = sub.add_parser("paulisim", help="weak simulation of Pauli-exponential circuits")
    p.add_argument("circuit")
    p.add_argument("--qubit", type=int, required=True, help="1-based Z observable qubit")
    p.add_argument("--input", default=None)
    p.add_argument("--extras", default=None, help="file of non-commuting extra gates")
    estimator(p)
    p.set_defaults(func=_cmd_paulisim)

    p = sub.add_parser("diagonalize", help="simultaneously diagonalize commuting Paulis")
    p.add_argument("paulis", help=".pauli file")
    p.set_defaults(func=_cmd_diagonalize)

    for name, fn in (
        ("hadamard-test", _cmd_hadamard_test),
        ("alt-hadamard-test", _cmd_alt_hadamard_test),
    ):
        p = sub.add_parser(name, help="emit an ancilla interference test circuit")
        p.add_argument("circuit")
        p.add_argument("--part", choices=("re", "im"), default="re")
        p.set_defaults(func=fn)

    p = sub.add_parser("merge-layers", help="merge two commuting layers into one test")
    p.add_argument("layer1")
    p.add_argument("layer2")
    p.add_argument("--part", choices=("re", "im"), default="re")
    p.set_defaults(func=_cmd_merge_layers)

    p = sub.add_parser("depth-overlap", help="estimate |<0|U|0>|^2 for shallow circuits")
    p.add_argument("circuit")
    p.add_argument("--clifford", default=None, help="extra Clifford factor (.qc file)")
    estimator(
        p,
        shots_help="number of subset draws (overrides the derived K); "
        "the shots per subset still follow --epsilon/--delta",
    )
    cap(p)
    p.set_defaults(func=_cmd_depth_overlap)

    return top


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_amplitudes", None) is not None and args.max_amplitudes < 1:
        parser.error("--max-amplitudes must be a positive integer")
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be a positive integer")
    if hasattr(args, "epsilon"):
        try:
            args.cfg = EstimatorConfig(args.epsilon, args.delta, k_override=args.shots)
            args.cfg.k  # without --shots, the derived K must be a usable count
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except (CommsimError, ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 1


def main():
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
