"""Instances and runners of the golden cases in ``paulisim.json``.

``tests/test_golden.py`` replays each case with :func:`run_library` or
:func:`run_paulisim_command` and compares the result with the recorded one.
Running this file re-records every case on the current tree:

    PYTHONPATH=src python tests/golden/record.py

Only a change that means to move these outputs may do so, and CHANGES.md
then says which values moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from commsim.cli import dispatch
from commsim.estimator import EstimatorConfig
from commsim.pauli import PauliOperator, commutes, format_pauli, parse_pauli
from commsim.paulisim import (
    ExtraGate,
    MemberGate,
    simulate_commuting_pauli,
    simulate_noncommuting_pauli,
)

GOLDEN = Path(__file__).resolve().parent / "paulisim.json"


def run_library(case) -> dict:
    """``raw_value``, ``k`` and ``max_modulus_violation`` of one library case."""
    kinds = {"member": MemberGate, "extra": ExtraGate}
    program = [kinds[kind](theta, parse_pauli(p)) for kind, theta, p in case["program"]]
    cfg = EstimatorConfig(
        epsilon=case["epsilon"], delta=case["delta"], k_override=case["k_override"]
    )
    rng = np.random.default_rng(case["seed"])
    if case["fn"] == "simulate_commuting_pauli":
        gates = [(g.theta, g.pauli) for g in program]
        res = simulate_commuting_pauli(gates, case["x"], case["qubit"], cfg, rng, n=case["n"])
    else:
        res = simulate_noncommuting_pauli(program, case["x"], case["qubit"], cfg, rng, n=case["n"])
    return {
        "raw_value": float(res.raw_value),
        "k": res.k,
        "max_modulus_violation": float(res.max_modulus_violation),
    }


def run_paulisim_command(case, tmp: Path) -> dict:
    """The one stdout object of ``commsim paulisim`` on the case's files and flags."""
    circuit = tmp / "c.qc"
    circuit.write_text(case["circuit"])
    argv = ["paulisim", str(circuit)] + case["argv"]
    if case["extras"] is not None:
        extras = tmp / "e.ex"
        extras.write_text(case["extras"])
        argv += ["--extras", str(extras)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    if code != 0:
        raise RuntimeError(f"paulisim exited with {code}: {err.getvalue()}")
    (line,) = out.getvalue().splitlines()
    return json.loads(line)


def _hermitian(n, rng) -> PauliOperator:
    while True:
        a, b = int(rng.integers(1 << n)), int(rng.integers(1 << n))
        if a | b:
            return PauliOperator(n, (a & b).bit_count() & 1, a, b)


def _family(n, m, k, rng, qubit, extra_thetas=None) -> list:
    """m commuting members, some not commuting with Z_qubit, and k extras at random slots."""
    from conftest import random_commuting_paulis

    z = PauliOperator.single(n, "Z", qubit)
    while True:
        members = random_commuting_paulis(n, m, rng)
        if not all(commutes(p, z) for p in members):
            break
    prog = [["member", float(rng.uniform(-np.pi, np.pi)), format_pauli(p)] for p in members]
    for i in range(k):
        p = format_pauli(_hermitian(n, rng))
        theta = extra_thetas[i] if extra_thetas else float(rng.uniform(-np.pi, np.pi))
        prog.insert(int(rng.integers(len(prog) + 1)), ["extra", theta, p])
    return prog


def instances() -> tuple[list[dict], list[dict]]:
    """The library and command cases, generated from one fixed seed."""
    lib = []

    def add(name, fn, n, prog, x, qubit, seed, epsilon=0.1, delta=0.05, k_override=None):
        lib.append(dict(name=name, fn=fn, n=n, program=prog, x=x, qubit=qubit, seed=seed,
                        epsilon=epsilon, delta=delta, k_override=k_override))

    rng = np.random.default_rng(1204_4570)
    sc, snc = "simulate_commuting_pauli", "simulate_noncommuting_pauli"
    add("commuting-n3", sc, 3, _family(3, 4, 0, rng, 1), 5, 1, 11)
    add("commuting-n8", sc, 8, _family(8, 16, 0, rng, 3), "10110010", 3, 12)
    add("commuting-n40", sc, 40, _family(40, 30, 0, rng, 17), int(rng.integers(1 << 40)), 17, 13,
        epsilon=0.2)
    add("commuting-empty", sc, 2, [], "01", 1, 14, k_override=10)
    add("extras-k0", snc, 5, _family(5, 6, 0, rng, 2), 9, 2, 21)
    add("extras-k1", snc, 4, _family(4, 5, 1, rng, 0), 3, 0, 22)
    add("extras-k1-zero-angle", snc, 4, _family(4, 5, 1, rng, 3, [0.0]), 6, 3, 23)
    add("extras-k2-n8", snc, 8, _family(8, 16, 2, rng, 5, [np.pi / 8, -3 * np.pi / 8]),
        "01101001", 5, 24, epsilon=0.2)
    add("extras-k3", snc, 6, _family(6, 8, 3, rng, 4), 44, 4, 25, epsilon=0.5, delta=0.1)
    add("extras-k3-override", snc, 5, _family(5, 6, 3, rng, 0), 17, 0, 26, k_override=3001)

    circuit = "circuit 3\nexppauli 0.4 ZZI\nexppauli 0.9 XXX\nexppauli -1.3 YYX\n"
    cli = [
        dict(name="paulisim", circuit=circuit, extras=None,
             argv=["--qubit", "2", "--input", "101", "--seed", "7",
                   "--epsilon", "0.1", "--delta", "0.05"]),
        dict(name="paulisim-extras", circuit=circuit, extras="0 0.3 XII\n2 -0.7 IZX\n",
             argv=["--qubit", "1", "--input", "011", "--seed", "8",
                   "--epsilon", "0.2", "--delta", "0.1"]),
        dict(name="paulisim-extras-shots", circuit=circuit, extras="1 1.1 YIZ\n",
             argv=["--qubit", "3", "--seed", "9", "--shots", "5000"]),
    ]
    return lib, cli


def main():
    sys.path.insert(0, str(GOLDEN.parents[1]))  # tests/, for conftest
    lib, cli = instances()
    for case in lib:
        case["want"] = run_library(case)
    with tempfile.TemporaryDirectory() as tmp:
        for case in cli:
            case["want"] = run_paulisim_command(case, Path(tmp))
    GOLDEN.write_text(json.dumps({"library": lib, "cli": cli}, indent=1) + "\n")


if __name__ == "__main__":
    main()
