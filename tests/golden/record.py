"""Instances and runners of the golden cases in ``paulisim.json`` and ``cli.json``.

``tests/test_golden.py`` replays each case with :func:`run_library`,
:func:`run_overlap`, :func:`run_paulisim_command` or :func:`run_command` and
compares the result with the recorded one by :func:`_same`.  Running this
file re-records every case of both files on the current tree:

    PYTHONPATH=src python tests/golden/record.py

A file is rewritten only when its case list changed or some recorded value
moved by more than the replay tolerance, so last-bit float noise stays out
of the file a re-record was not meant for.  The run prints each case added
or removed and each moved value as old -> new.  Only a change that means to
move these outputs may re-record, and CHANGES.md then says which values
moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from commsim.circuit import parse_circuit
from commsim.cli import dispatch
from commsim.estimator import EstimatorConfig
from commsim.oracle import DenseOracleExecutor
from commsim.pauli import PauliOperator, commutes, format_pauli, multiply, parse_pauli
from commsim.paulisim import (
    ExtraGate,
    MemberGate,
    simulate_commuting_pauli,
    simulate_noncommuting_pauli,
)
from commsim.stabilizer import CliffordCircuit, conjugate_pauli, random_clifford_circuit
from commsim.transformers import estimate_cd_clifford_overlap, estimate_cd_overlap

GOLDEN = Path(__file__).resolve().parent / "paulisim.json"
GOLDEN_CLI = GOLDEN.with_name("cli.json")
FLOAT_TOL = 1e-12


def _token(tok: str):
    try:
        return float(tok)
    except ValueError:
        return tok


def _same(got, want) -> bool:
    """Ints, strings and bools exactly, floats to FLOAT_TOL, containers per item."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= FLOAT_TOL
    if isinstance(want, str) and isinstance(got, str) and got != want:
        toks = [_token(t) for t in got.split()], [_token(t) for t in want.split()]
        # two different single words stay unequal rather than split again
        return toks != ([got], [want]) and _same(*toks)
    return type(got) is type(want) and got == want


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


def run_overlap(case) -> dict:
    """``raw_value`` and ``k`` of one overlap estimator case."""
    u = parse_circuit(case["circuit"])
    cfg = EstimatorConfig(
        epsilon=case["epsilon"], delta=case["delta"], k_override=case["k_override"]
    )
    rng = np.random.default_rng(case["seed"])
    if case["clifford"] is None:
        res = estimate_cd_overlap(u, cfg, DenseOracleExecutor(), rng)
    else:
        c = CliffordCircuit(u.n, tuple((name, tuple(qs)) for name, qs in case["clifford"]))
        res = estimate_cd_clifford_overlap(u, c, cfg, DenseOracleExecutor(), rng)
    return {"raw_value": float(res.raw_value), "k": res.k}


def _stdout_object(argv: list[str]) -> dict:
    """The one JSON object a successful ``commsim`` call prints on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with {code}: {err.getvalue()}")
    (line,) = out.getvalue().splitlines()
    return json.loads(line)


def run_paulisim_command(case, tmp: Path) -> dict:
    """The one stdout object of ``commsim paulisim`` on the case's files and flags."""
    circuit = tmp / "c.qc"
    circuit.write_text(case["circuit"])
    argv = ["paulisim", str(circuit)] + case["argv"]
    if case["extras"] is not None:
        extras = tmp / "e.ex"
        extras.write_text(case["extras"])
        argv += ["--extras", str(extras)]
    return _stdout_object(argv)


def run_command(case, tmp: Path) -> dict:
    """The stdout object of one ``cli.json`` case.

    The case's files are written to ``tmp``, and ``{tmp}`` in its argv
    names that directory.
    """
    for name, text in case["files"].items():
        (tmp / name).write_text(text)
    return _stdout_object([arg.replace("{tmp}", str(tmp)) for arg in case["argv"]])


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
    add("commuting-n3", sc, 3, _family(3, 4, 0, rng, 1), "101", 1, 11)
    add("commuting-n8", sc, 8, _family(8, 16, 0, rng, 3), "10110010", 3, 12)
    prog = _family(40, 30, 0, rng, 17)
    x = int(rng.integers(1 << 40))  # bit k is the digit of qubit k + 1
    add("commuting-n40", sc, 40, prog, "".join(str((x >> k) & 1) for k in range(40)), 17, 13,
        epsilon=0.2)
    add("commuting-empty", sc, 2, [], "01", 1, 14, k_override=10)
    add("extras-k0", snc, 5, _family(5, 6, 0, rng, 2), "10010", 2, 21)
    add("extras-k1", snc, 4, _family(4, 5, 1, rng, 0), "1100", 0, 22)
    add("extras-k1-zero-angle", snc, 4, _family(4, 5, 1, rng, 3, [0.0]), "0110", 3, 23)
    add("extras-k2-n8", snc, 8, _family(8, 16, 2, rng, 5, [np.pi / 8, -3 * np.pi / 8]),
        "01101001", 5, 24, epsilon=0.2)
    add("extras-k3", snc, 6, _family(6, 8, 3, rng, 4), "001101", 4, 25, epsilon=0.5, delta=0.1)
    add("extras-k3-override", snc, 5, _family(5, 6, 3, rng, 0), "10001", 0, 26,
        k_override=3001)

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


def overlap_instances() -> list[dict]:
    """Overlap estimator cases: each estimator on one shallow circuit at two seeds."""
    u = ("circuit 4\nh 1\nh 4\nexppauli 0.6 XZII\nexppauli -0.4 IZXI\n"
         "exppauli 1.1 IIZZ\nexppauli 0.3 ZIIX\n")
    # 0-based gates whose images of Z(S) carry every phase i^t
    clifford = [["cz", [0, 1]], ["z", [0]], ["h", [2]], ["cz", [2, 1]], ["s", [2]],
                ["h", [0]], ["s", [1]], ["h", [2]], ["h", [3]], ["cnot", [3, 0]]]
    return [
        dict(name=f"{name}-seed{seed}", circuit=u, clifford=c, seed=seed,
             epsilon=0.2, delta=0.1, k_override=None)
        for name, c in (("plain", None), ("clifford", clifford))
        for seed in (41, 42)
    ]


def cli_instances() -> list[dict]:
    """Command cases for every subcommand but ``paulisim``, from one fixed seed."""
    rng = np.random.default_rng(1204_4571)
    # signed Z-types on 70 qubits through a random Clifford: 40 members, one a
    # product of two others, so completion adds generators too
    c = random_clifford_circuit(70, 400, rng)
    zs = [PauliOperator(70, 2 * int(rng.integers(2)), 0, int.from_bytes(rng.bytes(9)) >> 2)
          for _ in range(39)]
    zs.append(multiply(zs[0], zs[1]))
    wide = "paulis 70\n" + "".join(format_pauli(conjugate_pauli(c, z)) + "\n" for z in zs)
    chain = "circuit 3\nexppauli 0.4 ZZI\nexppauli 0.9 IZZ\n"
    xchain = "circuit 3\nexppauli 0.4 XXI\nexppauli -0.9 IXX\n"
    bellish = "circuit 2\nexppauli 0.4 ZZ\nexppauli 0.9 ZI\n"
    mixed = "circuit 3\nh 1\ncnot 1 2\nexppauli 0.7 XZY\ns 3\ncz 2 3\n"
    shallow = "circuit 3\nh 1\nexppauli 0.6 XZI\nexppauli -0.4 IZX\n"
    # images of Z(S) under this Clifford carry every phase i^t, t = 0..3
    phased = "circuit 3\ncz 1 2\nz 1\nh 3\ncz 3 2\ns 3\nh 1\ns 2\nh 3\n"
    # two gates on one support, and controlled gates whose control sits above
    # and below (or between) the inner support
    ctrl = ("circuit 3\nexppauli 0.4 ZZI\nexppauli -0.7 ZZI\nctrl 3 z 1\nctrl 1 z 3\n"
            "ctrl 2 cz 1 3\nexppauli 0.3 IIZ\n")
    # a non-symmetric two-qubit unitary, given with its qudits out of order
    cyc = " ".join(["0 0 1 0 0 0 0 0", "0 0 0 0 0 1 0 0", "0 0 0 0 0 0 1 0",
                    "0 1 0 0 0 0 0 0"])
    ctrl_dense = (f"circuit 3\nh 1\nh 3\nctrl 1 h 2\nctrl 3 h 1\nctrl 3 dense 2 2 1 {cyc}\n"
                  f"ctrl 2 dense 2 3 1 {cyc}\nctrl 1 dense 2 2 3 {cyc}\n")
    # a two-qubit Hermitian observable as a matrix file, re-im pairs per entry
    obs = (
        "1 0 0.5 0 0 0 0 0.2\n0.5 0 -0.5 0 0.3 0 0 0\n"
        "0 0 0.3 0 0.25 0 0 0\n0 -0.2 0 0 0 0 2 0\n"
    )

    def case(name, argv, files):
        return dict(name=name, argv=argv, files=files)

    # layers with two gates on one support each, merged into one gate per support
    shared1 = "circuit 3\nexppauli 0.3 ZZI\nexppauli -0.6 ZZI\nexppauli 0.2 IIZ\n"
    shared2 = "circuit 3\nexppauli 0.5 XXI\nexppauli 0.4 XIX\nexppauli -1.1 XXI\n"
    estimate = ["--epsilon", "0.2", "--delta", "0.1", "--shots", "40"]
    return [
        case("diagonalize-full-rank", ["diagonalize", "{tmp}/s.pauli"],
             {"s.pauli": "paulis 3\nZZI\nIZZ\nXXX\n"}),
        case("diagonalize-rank-deficient", ["diagonalize", "{tmp}/s.pauli"],
             {"s.pauli": "paulis 5\nZZIII\n-IZZII\nZIZII\nXXXII\n-ZZIII\nIIIYY\n+IIIYY\n"}),
        case("diagonalize-n70", ["diagonalize", "{tmp}/s.pauli"], {"s.pauli": wide}),
        case("oracle-pauli-string", ["oracle", "{tmp}/c.qc", "--input", "101", "--obs", "XXZ"],
             {"c.qc": mixed}),
        case("oracle-matrix-file",
             ["oracle", "{tmp}/c.qc", "--input", "011", "--obs", "{tmp}/o.txt@1,3"],
             {"c.qc": mixed, "o.txt": obs}),
        case("oracle-controlled", ["oracle", "{tmp}/c.qc", "--input", "010", "--obs", "YXZ"],
             {"c.qc": ctrl_dense}),
        case("sim2local-z", ["sim2local", "{tmp}/c.qc", "--input", "01", "--obs", "Z1"],
             {"c.qc": bellish}),
        case("sim2local-matrix-file",
             ["sim2local", "{tmp}/c.qc", "--input", "001", "--obs", "{tmp}/o.txt@2,3"],
             {"c.qc": xchain, "o.txt": obs}),
        case("hadamard-test-re", ["hadamard-test", "{tmp}/c.qc"], {"c.qc": chain}),
        case("hadamard-test-im", ["hadamard-test", "{tmp}/c.qc", "--part", "im"],
             {"c.qc": bellish}),
        case("hadamard-test-empty-re", ["hadamard-test", "{tmp}/c.qc"], {"c.qc": "circuit 2\n"}),
        case("hadamard-test-empty-im", ["hadamard-test", "{tmp}/c.qc", "--part", "im"],
             {"c.qc": "circuit 2\n"}),
        case("hadamard-test-controlled", ["hadamard-test", "{tmp}/c.qc", "--part", "im"],
             {"c.qc": ctrl}),
        case("alt-hadamard-test-re", ["alt-hadamard-test", "{tmp}/c.qc"], {"c.qc": mixed}),
        case("alt-hadamard-test-im", ["alt-hadamard-test", "{tmp}/c.qc", "--part", "im"],
             {"c.qc": shallow}),
        case("merge-layers-re", ["merge-layers", "{tmp}/l1.qc", "{tmp}/l2.qc"],
             {"l1.qc": "circuit 2\nexppauli 0.3 ZZ\n", "l2.qc": "circuit 2\nexppauli 0.5 ZI\n"}),
        case("merge-layers-im", ["merge-layers", "{tmp}/l1.qc", "{tmp}/l2.qc", "--part", "im"],
             {"l1.qc": chain, "l2.qc": "circuit 3\nexppauli -0.8 XIX\nexppauli 0.2 IXI\n"}),
        case("merge-layers-shared-re", ["merge-layers", "{tmp}/l1.qc", "{tmp}/l2.qc"],
             {"l1.qc": shared1, "l2.qc": shared2}),
        case("merge-layers-shared-im",
             ["merge-layers", "{tmp}/l1.qc", "{tmp}/l2.qc", "--part", "im"],
             {"l1.qc": shared1, "l2.qc": shared2}),
        case("depth-overlap", ["depth-overlap", "{tmp}/u.qc", "--seed", "31", *estimate],
             {"u.qc": shallow}),
        case("depth-overlap-clifford",
             ["depth-overlap", "{tmp}/u.qc", "--clifford", "{tmp}/c.qc", "--seed", "32",
              *estimate],
             {"u.qc": shallow, "c.qc": phased}),
    ]


def main():
    sys.path.insert(0, str(GOLDEN.parents[1]))  # tests/, for conftest
    lib, cli = instances()
    for case in lib:
        case["want"] = run_library(case)
    overlap = overlap_instances()
    for case in overlap:
        case["want"] = run_overlap(case)
    commands = cli_instances()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cli:
            case["want"] = run_paulisim_command(case, Path(tmp))
        for case in commands:
            case["want"] = run_command(case, Path(tmp))
    _write_if_moved(GOLDEN, {"library": lib, "overlap": overlap, "cli": cli})
    _write_if_moved(GOLDEN_CLI, {"commands": commands})


def _write_if_moved(path: Path, data: dict):
    """Write ``data`` unless ``path`` already holds the same cases and values.

    A value that moved by no more than the replay tolerance keeps its
    recorded form.  Prints one line per case added or removed and per
    recorded value moved.
    """
    data = json.loads(json.dumps(data))
    old = json.loads(path.read_text()) if path.exists() else {}
    lines = _changes(old, data)
    if not lines and data.keys() == old.keys():
        print(f"{path.name}: unchanged")
        return
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{path.name}: written")
    for line in lines:
        print(f"  {line}")


def _changes(old: dict, new: dict) -> list[str]:
    """Cases added or removed, changed instances and moved values, per group/case.

    Settles each case of ``new`` that ``old`` also holds, as :func:`_settle`.
    """
    lines = []
    for group in dict.fromkeys([*new, *old]):
        was = {c["name"]: c for c in old.get(group, [])}
        now = {c["name"]: c for c in new.get(group, [])}
        lines += [f"{group}/{name}: removed" for name in was if name not in now]
        for name, case in now.items():
            if name not in was:
                lines.append(f"{group}/{name}: added")
                continue
            instance = {k: v for k, v in case.items() if k != "want"}
            if not _same(instance, {k: v for k, v in was[name].items() if k != "want"}):
                lines.append(f"{group}/{name}: instance changed")
            moved = []
            case["want"] = _settle(was[name]["want"], case["want"], "want", moved)
            lines += [f"{group}/{name} {key}: {_short(w)} -> {_short(g)}" for key, w, g in moved]
    return lines


def _settle(want, got, key: str, moved: list):
    """``got`` with each leaf that :func:`_same` cannot tell from ``want`` as
    recorded; appends (key, old, new) of every other leaf to ``moved``."""
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        return {k: _settle(want[k], got[k], f"{key}.{k}", moved) for k in got}
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [_settle(w, g, f"{key}[{i}]", moved) for i, (w, g) in enumerate(zip(want, got))]
    if _same(got, want):
        return want
    moved.append((key, want, got))
    return got


def _short(value, width: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= width else f"{text[: width - 3]}..."


if __name__ == "__main__":
    main()
