"""Command-line front end: JSON output, exit codes, determinism."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import random_commuting_paulis
from hypothesis import given, settings
from hypothesis import strategies as st

from commsim.circuit import MAX_DIM, MAX_QUDITS, parse_circuit
from commsim.cli import _build_parser, dispatch
from commsim.estimator import EstimatorConfig
from commsim.pauli import format_pauli, parse_pauli
from commsim.paulisim import ExtraGate, MemberGate, simulate_noncommuting_pauli


@pytest.fixture
def qc(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def jline(out):
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1
    return json.loads(lines[0])


BELLISH = "circuit 2\nexppauli 0.4 ZZ\nexppauli 0.9 ZI\n"
XROT = "circuit 1\nexppauli 0.6 X\n"


class TestExactCommands:
    def test_oracle_value(self, qc, capsys):
        path = qc("c.qc", XROT)
        code, out, _ = run_cli(capsys, "oracle", path, "--obs", "Z1")
        assert code == 0
        obj = jline(out)
        assert obj["value"] == pytest.approx(math.cos(1.2), abs=1e-12)
        assert (obj["n"], obj["d"]) == (1, 2)

    def test_oracle_input_flag(self, qc, capsys):
        path = qc("c.qc", "circuit 2\ncnot 1 2\n")
        code, out, _ = run_cli(capsys, "oracle", path, "--input", "10", "--obs", "Z2")
        assert code == 0
        assert jline(out)["value"] == pytest.approx(-1.0)

    def test_obs_matrix_file(self, qc, capsys):
        cpath = qc("c.qc", "circuit 2\nh 1\n")
        # X observable as a matrix file, applied on qubit 1
        opath = qc("x.mat", "0.0 0.0 1.0 0.0\n1.0 0.0 0.0 0.0\n")
        code, out, _ = run_cli(capsys, "oracle", cpath, "--obs", f"{opath}@1")
        assert code == 0
        assert jline(out)["value"] == pytest.approx(1.0)

    def test_sim2local_matches_oracle(self, qc, capsys):
        path = qc("c.qc", BELLISH)
        _, out1, _ = run_cli(capsys, "oracle", path, "--obs", "Z1", "--input", "01")
        _, out2, _ = run_cli(capsys, "sim2local", path, "--obs", "Z1", "--input", "01")
        assert jline(out1)["value"] == pytest.approx(jline(out2)["value"], abs=1e-9)

    def test_diagonalize(self, qc, capsys):
        path = qc("s.pauli", "paulis 3\nZZI\nIZZ\n")
        code, out, _ = run_cli(capsys, "diagonalize", path)
        assert code == 0
        obj = jline(out)
        assert len(obj["images"]) == 2
        for s in obj["images"]:
            assert parse_pauli(s).is_z_type()
        parse_circuit(obj["circuit"])  # the emitted circuit is well-formed


class TestEstimatorCommands:
    def test_paulisim_output_fields(self, qc, capsys):
        path = qc("c.qc", XROT)
        code, out, err = run_cli(
            capsys, "paulisim", path, "--qubit", "1", "--seed", "5",
            "--epsilon", "0.1", "--delta", "0.05",
        )
        assert code == 0
        obj = jline(out)
        assert set(obj) == {"value", "raw_value", "epsilon", "delta", "K", "seed"}
        assert obj["seed"] == 5
        assert obj["K"] == math.ceil(4 * math.log(2 / 0.05) / 0.1**2)
        assert abs(obj["value"] - math.cos(1.2)) <= 0.1
        assert "seed: 5" in err and "elapsed_ms" in err

    def test_paulisim_default_k(self, qc, capsys):
        path = qc("c.qc", XROT)
        _, out, _ = run_cli(capsys, "paulisim", path, "--qubit", "1", "--seed", "1")
        assert jline(out)["K"] == 8478

    def test_paulisim_extras(self, qc, capsys):
        cpath = qc("c.qc", "circuit 2\nexppauli 0.4 ZZ\n")
        epath = qc("e.ex", "1 0.3 XI\n")
        code, out, _ = run_cli(
            capsys, "paulisim", cpath, "--qubit", "1", "--seed", "3",
            "--epsilon", "0.2", "--delta", "0.1",
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "paulisim", cpath, "--qubit", "1", "--seed", "3",
            "--extras", epath, "--epsilon", "0.2", "--delta", "0.1",
        )
        assert code == 0
        assert -1.0 <= jline(out)["value"] <= 1.0

    def test_depth_overlap(self, qc, capsys):
        path = qc("u.qc", "circuit 2\nh 1\nh 2\n")
        code, out, _ = run_cli(
            capsys, "depth-overlap", path, "--seed", "9",
            "--epsilon", "0.1", "--delta", "0.1",
        )
        assert code == 0
        assert abs(jline(out)["value"] - 0.25) <= 0.1

    def test_depth_overlap_clifford(self, qc, capsys):
        upath = qc("u.qc", "circuit 2\nh 1\n")
        cpath = qc("c.qc", "circuit 2\ncnot 1 2\n")
        code, out, _ = run_cli(
            capsys, "depth-overlap", upath, "--clifford", cpath, "--seed", "9",
            "--epsilon", "0.15", "--delta", "0.1",
        )
        assert code == 0
        assert abs(jline(out)["value"] - 0.5) <= 0.15

    def test_depth_overlap_empty_clifford_is_plain(self, qc, capsys):
        upath = qc("u.qc", "circuit 2\nh 1\nexppauli 0.7 XZ\n")
        cpath = qc("c.qc", "circuit 2\n")
        code, plain, _ = run_cli(capsys, "depth-overlap", upath, "--seed", "9")
        assert code == 0
        code, cliff, _ = run_cli(
            capsys, "depth-overlap", upath, "--clifford", cpath, "--seed", "9"
        )
        assert code == 0
        assert cliff == plain


class TestTransformerCommands:
    def test_hadamard_test(self, qc, capsys):
        path = qc("c.qc", BELLISH)
        code, out, _ = run_cli(capsys, "hadamard-test", path, "--part", "im")
        assert code == 0
        obj = jline(out)
        assert obj["gates"] == 2
        assert parse_circuit(obj["circuit"]).n == 3

    def test_alt_hadamard_test_count(self, qc, capsys):
        path = qc("c.qc", "circuit 2\nh 1\nx 2\ncnot 1 2\n")
        _, out, _ = run_cli(capsys, "alt-hadamard-test", path)
        assert jline(out)["gates"] == math.ceil(3 / 2) + 2

    def test_merge_layers(self, qc, capsys):
        p1 = qc("l1.qc", "circuit 2\nexppauli 0.3 ZZ\n")
        p2 = qc("l2.qc", "circuit 2\nexppauli 0.5 ZI\n")
        code, out, _ = run_cli(capsys, "merge-layers", p1, p2)
        assert code == 0
        assert parse_circuit(jline(out)["circuit"]).n == 3


class TestErrorsAndDeterminism:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "/nonexistent.qc", "--obs", "Z1")
        assert code == 1 and not out and "error:" in err

    def test_parse_error_diagnostic(self, qc, capsys):
        path = qc("bad.qc", "circuit 2\nbogus 1\n")
        code, _, err = run_cli(capsys, "oracle", path, "--obs", "Z1")
        assert code == 1
        assert "line 2" in err

    def test_noncommuting_rejected(self, qc, capsys):
        path = qc("c.qc", "circuit 1\nexppauli 0.3 X\nexppauli 0.3 Z\n")
        code, _, err = run_cli(capsys, "paulisim", path, "--qubit", "1", "--seed", "1")
        assert code == 1 and "error:" in err

    def test_capacity_cap(self, qc, capsys):
        path = qc("c.qc", "circuit 3\nh 1\n")
        code, _, err = run_cli(
            capsys, "oracle", path, "--obs", "Z1", "--max-amplitudes", "4"
        )
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_cap_is_usage_error(self, qc, capsys, value):
        path = qc("c.qc", "circuit 3\nh 1\n")
        with pytest.raises(SystemExit) as exc:
            dispatch(["oracle", path, "--obs", "Z1", "--max-amplitudes", value])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert not cap.out and "--max-amplitudes" in cap.err

    @pytest.mark.parametrize("command", ["paulisim", "depth-overlap"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_workers_is_usage_error(self, qc, capsys, command, value):
        path = qc("c.qc", "circuit 2\nh 1\n")
        extra = ["--qubit", "1"] if command == "paulisim" else []
        with pytest.raises(SystemExit) as exc:
            dispatch([command, path, *extra, "--seed", "1", "--workers", value])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert not cap.out and "--workers" in cap.err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_cap_env(self, qc, capsys, monkeypatch, value):
        monkeypatch.setenv("COMMSIM_MAX_AMPLITUDES", value)
        path = qc("c.qc", "circuit 3\nh 1\n")
        code, out, err = run_cli(capsys, "oracle", path, "--obs", "Z1")
        assert code == 1 and not out and "COMMSIM_MAX_AMPLITUDES" in err

    def test_depth_overlap_needs_qubits(self, qc, capsys):
        eye3 = " ".join(f"{v:.1f} 0.0" for v in np.eye(3).reshape(-1))
        path = qc("u.qc", f"circuit 2 dim 3\ndense 1 1 {eye3}\n")
        code, out, err = run_cli(capsys, "depth-overlap", path, "--seed", "1")
        assert code == 1 and not out and "defined for qubits" in err

    def test_paulisim_needs_qubits(self, qc, capsys):
        # a gate-free qutrit register used to print a qubit estimate
        path = qc("c.qc", "circuit 2 dim 3\n")
        code, out, err = run_cli(capsys, "paulisim", path, "--qubit", "1", "--seed", "1")
        assert code == 1 and not out and "d = 2" in err and "seed:" not in err

    def test_depth_overlap_qubit_limit(self, qc, capsys):
        path = qc("u.qc", "circuit 70\nh 1\n")
        code, out, err = run_cli(capsys, "depth-overlap", path, "--seed", "1")
        assert code == 1 and not out and "at most 64 qubits" in err

    @pytest.mark.parametrize("command", ["oracle", "sim2local"])
    @pytest.mark.parametrize("qubit", ["0", "4"])
    def test_obs_matrix_file_qubit_outside(self, qc, capsys, command, qubit):
        cpath = qc("c.qc", "circuit 3\nexppauli 0.4 ZZI\nexppauli 0.9 IZZ\n")
        opath = qc("z.txt", "1 0 0 0\n0 0 -1 0\n")
        code, out, err = run_cli(
            capsys, command, cpath, "--obs", f"{opath}@{qubit}", "--input", "001"
        )
        assert code == 1 and not out
        assert f"observable qubit {qubit} outside the register" in err

    def test_obs_matrix_odd_row_rejected(self, qc, capsys):
        # the trailing 5 used to be dropped and the value printed as 1.0
        cpath = qc("c.qc", "circuit 2\nexppauli 0.4 ZZ\n")
        opath = qc("z.txt", "1 0 0 0 5\n0 0 -1 0 7\n")
        code, out, err = run_cli(capsys, "oracle", cpath, "--obs", f"{opath}@1")
        assert code == 1 and not out and "line 1" in err

    def test_obs_matrix_bad_token_names_its_line(self, qc, capsys):
        cpath = qc("c.qc", "circuit 2\nexppauli 0.4 ZZ\n")
        opath = qc("z.txt", "1 0 0 0\n0 0 x 0\n")
        code, out, err = run_cli(capsys, "oracle", cpath, "--obs", f"{opath}@1")
        assert code == 1 and not out and "line 2" in err and "'x'" in err

    @pytest.mark.parametrize("template", ["{o}@a", "{o}@1,b", "{o}@", "@"])
    def test_obs_bad_qubit_list_names_the_spec(self, qc, capsys, template):
        cpath = qc("c.qc", "circuit 2\nexppauli 0.4 ZZ\n")
        spec = template.format(o=qc("z.txt", "1 0 0 0\n0 0 -1 0\n"))
        code, out, err = run_cli(capsys, "oracle", cpath, "--obs", spec)
        assert code == 1 and not out
        assert f"observable {spec!r}" in err and "invalid literal" not in err

    def test_obs_non_ascii_digit_named(self, qc, capsys):
        # int() refused the superscript after isdigit() let it through
        cpath = qc("c.qc", "circuit 2\nh 1\n")
        code, out, err = run_cli(capsys, "oracle", cpath, "--obs", "Z\u00b2")
        assert code == 1 and not out and "'\u00b2'" in err and "invalid literal" not in err

    def test_obs_matrix_shape_mismatch(self, qc, capsys):
        cpath = qc("c.qc", "circuit 2\nh 1\n")
        opath = qc("m.mat", "1 0 0 0 0 0\n0 0 1 0 0 0\n0 0 0 0 1 0\n")
        code, out, err = run_cli(capsys, "oracle", cpath, "--obs", f"{opath}@1")
        assert code == 1 and not out
        assert "shape (3, 3), expected (2, 2)" in err

    @pytest.mark.parametrize("flag,value", [("--epsilon", "0"), ("--delta", "1.5")])
    def test_bad_accuracy_is_usage_error(self, qc, capsys, flag, value):
        path = qc("c.qc", XROT)
        with pytest.raises(SystemExit) as exc:
            dispatch(["paulisim", path, "--qubit", "1", "--seed", "1", flag, value])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert not cap.out and "must be in" in cap.err

    @pytest.mark.parametrize("command", ["paulisim", "depth-overlap"])
    @pytest.mark.parametrize("eps", ["1e-300", "1e-160", "1e-100"])
    def test_tiny_epsilon_is_usage_error(self, qc, capsys, command, eps):
        # epsilon^2 underflows to 0 (1e-300), the count to inf (1e-160), or
        # the count is finite but too large for a sampler (1e-100)
        path = qc("c.qc", XROT if command == "paulisim" else "circuit 2\ncnot 1 2\n")
        extra = ["--qubit", "1"] if command == "paulisim" else []
        with pytest.raises(SystemExit) as exc:
            dispatch([command, path, *extra, "--seed", "1", "--epsilon", eps])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert not cap.out and f"epsilon={float(eps)!r} needs" in cap.err

    def test_tiny_epsilon_with_shots(self, qc, capsys):
        path = qc("c.qc", XROT)
        args = ["paulisim", path, "--qubit", "1", "--seed", "3", "--epsilon", "1e-300"]
        code, out, _ = run_cli(capsys, *args, "--shots", "200")
        assert code == 0
        obj = jline(out)
        assert obj["K"] == 200 and obj["epsilon"] == 1e-300
        assert abs(obj["value"] - math.cos(1.2)) < 0.3
        # the overlap estimator still sizes its shots per subset from epsilon
        path = qc("d.qc", "circuit 2\ncnot 1 2\n")
        args = ["depth-overlap", path, "--seed", "3", "--epsilon", "1e-300"]
        code, out, err = run_cli(capsys, *args, "--shots", "5")
        assert code == 1 and not out and "epsilon=1e-300 needs inf samples" in err

    def test_depth_overlap_shots_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["depth-overlap", "-h"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "number of subset draws" in help_text
        assert "total sample count" not in help_text

    def test_usage_error_exit_2(self, qc, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_qubit(self, qc, capsys):
        path = qc("c.qc", XROT)
        code, _, err = run_cli(capsys, "paulisim", path, "--qubit", "9", "--seed", "1")
        assert code == 1 and "outside the register" in err

    @pytest.mark.parametrize("command", ["paulisim", "depth-overlap"])
    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_nonpositive_shots_is_usage_error(self, qc, capsys, command, shots):
        # refused while parsing, before the command notes its seed
        path = qc("c.qc", XROT)
        extra = ["--qubit", "1"] if command == "paulisim" else []
        with pytest.raises(SystemExit) as exc:
            dispatch([command, path, *extra, "--seed", "1", "--shots", shots])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert not cap.out and "sample count" in cap.err and "seed: 1" not in cap.err

    @pytest.mark.parametrize("command", ["paulisim", "depth-overlap"])
    @pytest.mark.parametrize("shots", [str(2**63), str(2**70)])
    def test_shots_beyond_int64_is_usage_error(self, qc, capsys, command, shots):
        # paulisim escaped with OverflowError, depth-overlap failed inside numpy
        path = qc("c.qc", XROT)
        extra = ["--qubit", "1"] if command == "paulisim" else []
        with pytest.raises(SystemExit) as exc:
            dispatch([command, path, *extra, "--seed", "1", "--shots", shots])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert not cap.out and "sample count" in cap.err and "seed: 1" not in cap.err

    @pytest.mark.parametrize("extras", [[], ["--extras"]])
    def test_paulisim_rejects_wide_register(self, qc, capsys, extras):
        path = qc("c.qc", "circuit 65\nexppauli 0.4 " + "ZZ" + "I" * 63 + "\n")
        if extras:
            extras.append(qc("e.txt", "1 0.2 X" + "I" * 64 + "\n"))
        code, out, err = run_cli(capsys, "paulisim", path, "--qubit", "1", "--seed", "1", *extras)
        assert code == 1 and not out and "at most 64 qubits" in err

    def test_paulisim_rejects_bad_input_digit(self, qc, capsys):
        path = qc("c.qc", "circuit 3\nexppauli 0.4 ZZI\n")
        code, out, err = run_cli(
            capsys, "paulisim", path, "--qubit", "1", "--seed", "1", "--input", "210"
        )
        assert code == 1 and not out and "error:" in err

    @pytest.mark.parametrize("command", ["oracle", "paulisim"])
    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_rejected(self, qc, capsys, command, angle):
        # NaN passed every tolerance check and came out as a NaN value
        path = qc("c.qc", f"circuit 1\nexppauli {angle} Z\n")
        obs = ["--obs", "Z1"] if command == "oracle" else ["--qubit", "1", "--seed", "1"]
        code, out, err = run_cli(capsys, command, path, *obs)
        assert code == 1 and not out and "line 2" in err and "not finite" in err

    def test_nan_dense_gate_rejected(self, qc, capsys):
        path = qc("c.qc", "circuit 1\ndense 1 1 nan 0 0 0 0 0 1 0\n")
        code, out, err = run_cli(capsys, "oracle", path, "--obs", "Z1")
        assert code == 1 and not out and "not unitary" in err

    def test_nan_observable_rejected(self, qc, capsys):
        cpath = qc("c.qc", "circuit 1\nh 1\n")
        opath = qc("z.mat", "nan 0 0 0\n0 0 -1 0\n")
        code, out, err = run_cli(capsys, "oracle", cpath, "--obs", f"{opath}@1")
        assert code == 1 and not out and "not Hermitian" in err

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_extra_angle_rejected(self, qc, capsys, angle):
        path = qc("c.qc", BELLISH)
        extras = qc("e.txt", f"1 {angle} XI\n")
        code, out, err = run_cli(
            capsys, "paulisim", path, "--qubit", "1", "--seed", "1", "--extras", extras
        )
        assert code == 1 and not out and "not finite" in err

    def test_bad_extra_angle_named(self, qc, capsys):
        # the extras reader and the .qc reader share one angle reader
        path = qc("c.qc", BELLISH)
        extras = qc("e.txt", "\n1 x XI\n")
        code, out, err = run_cli(
            capsys, "paulisim", path, "--qubit", "1", "--seed", "1", "--extras", extras
        )
        assert code == 1 and not out and "line 2: bad angle 'x'" in err

    def test_non_hermitian_extra_names_its_line(self, qc, capsys):
        path = qc("c.qc", BELLISH)
        extras = qc("e.txt", "1 0.3 XI\n0 0.3 iXI\n")
        code, out, err = run_cli(
            capsys, "paulisim", path, "--qubit", "1", "--seed", "1", "--extras", extras
        )
        assert code == 1 and not out and "line 2: exponentiated Pauli must be Hermitian" in err

    def test_negative_extras_slot_rejected(self, qc, capsys):
        # slot -2 used to be read as slot 0
        path = qc("c.qc", "circuit 2\nexppauli 0.4 ZZ\n")
        extras = qc("e.txt", "# slot theta pauli\n-2 0.3 XI\n")
        code, out, err = run_cli(
            capsys, "paulisim", path, "--qubit", "1", "--seed", "1", "--extras", extras
        )
        assert code == 1 and not out and "line 2" in err and "negative" in err

    def test_stdout_deterministic_across_workers(self, qc, capsys):
        path = qc("c.qc", BELLISH)
        outs = []
        for w in ("1", "4", "8"):
            _, out, _ = run_cli(
                capsys, "paulisim", path, "--qubit", "2", "--seed", "42",
                "--epsilon", "0.2", "--delta", "0.1", "--workers", w,
            )
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_random_seed_echoed(self, qc, capsys):
        path = qc("c.qc", XROT)
        code, out, err = run_cli(
            capsys, "paulisim", path, "--qubit", "1", "--epsilon", "0.3", "--delta", "0.2"
        )
        assert code == 0
        seed_line = [l for l in err.splitlines() if l.startswith("seed:")]
        assert len(seed_line) == 1
        assert jline(out)["seed"] == int(seed_line[0].split()[1])


ESTIMATOR_FLAGS = ["--seed", "--workers", "--epsilon", "--delta", "--shots"]
FLAGS = {
    "oracle": ["--input", "--obs", "--max-amplitudes"],
    "sim2local": ["--input", "--obs"],
    "paulisim": ["--qubit", "--input", "--extras", *ESTIMATOR_FLAGS],
    "diagonalize": [],
    "hadamard-test": ["--part"],
    "alt-hadamard-test": ["--part"],
    "merge-layers": ["--part"],
    "depth-overlap": ["--clifford", *ESTIMATOR_FLAGS, "--max-amplitudes"],
}
# the arguments each command requires, so a parse fails only on the flag tested
REQUIRED = {
    "oracle": ["c.qc", "--obs", "Z1"],
    "sim2local": ["c.qc", "--obs", "Z1"],
    "paulisim": ["c.qc", "--qubit", "1"],
    "diagonalize": ["s.pauli"],
    "merge-layers": ["l1.qc", "l2.qc"],
}


class TestFlagsHaveReaders:
    def test_option_table(self):
        (sub,) = [a for a in _build_parser()._actions if a.choices and a.dest == "command"]
        got = {
            name: [o for a in p._actions if a.dest != "help" for o in a.option_strings]
            for name, p in sub.choices.items()
        }
        assert got == FLAGS

    @pytest.mark.parametrize(
        "command,flag",
        [(c, "--seed") for c, f in FLAGS.items() if "--seed" not in f]
        + [(c, "--max-amplitudes") for c, f in FLAGS.items() if "--max-amplitudes" not in f],
    )
    def test_unread_flag_is_usage_error(self, capsys, command, flag):
        argv = [command, *REQUIRED.get(command, ["c.qc"]), flag, "4"]
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert not cap.out and flag in cap.err


# the arguments after the circuit file that make each .qc command run
QC_COMMANDS = {
    "oracle": ["--obs", "Z1"],
    "sim2local": ["--obs", "Z1"],
    "paulisim": ["--qubit", "1", "--seed", "1", "--shots", "8"],
    "hadamard-test": [],
    "alt-hadamard-test": [],
    "depth-overlap": ["--seed", "1", "--shots", "8"],
}


def _argv(command: str, path: str) -> list[str]:
    if command == "merge-layers":
        return [command, path, path]
    if command == "diagonalize":
        return [command, path]
    return [command, path, *QC_COMMANDS[command]]


def _dispatch_captured(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process run; a usage error exits too."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = dispatch(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class TestHeaderBounds:
    @pytest.mark.parametrize("command", [*QC_COMMANDS, "merge-layers"])
    @pytest.mark.parametrize(
        "header",
        [
            f"circuit {10**20}",
            f"circuit {MAX_QUDITS + 1}",
            f"circuit 2 dim {10**20}",
            f"circuit 2 dim {MAX_DIM + 1}",
        ],
    )
    def test_circuit_header_over_bound(self, qc, capsys, command, header):
        code, out, err = run_cli(capsys, *_argv(command, qc("c.qc", header + "\n")))
        assert (code, out) == (1, "")
        assert "line 1:" in err

    @pytest.mark.parametrize("n", [10**20, MAX_QUDITS + 1])
    def test_pauli_header_over_bound(self, qc, capsys, n):
        code, out, err = run_cli(capsys, "diagonalize", qc("s.pauli", f"paulis {n}\nZ\n"))
        assert (code, out) == (1, "")
        assert "line 1:" in err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([0, 1, 2, 3, MAX_QUDITS + 1, 10**20, -1, "x"]),
    d=st.sampled_from([None, 1, 2, 3, MAX_DIM + 1, 10**20]),
    command=st.sampled_from([*QC_COMMANDS, "merge-layers", "diagonalize"]),
)
def test_header_exit_contract(n, d, command):
    """Any header ends in one JSON line and exit 0, or exit 1 or 2 and no stdout."""
    if command == "diagonalize":  # a .pauli header has no dimension
        text = f"paulis {n}\nZ\n"
    else:
        text = f"circuit {n}" + ("" if d is None else f" dim {d}") + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_text(text)
        code, out = _dispatch_captured(_argv(command, str(path)))
    if code == 0:
        (line,) = out.splitlines()
        assert isinstance(json.loads(line), dict)
    else:
        assert code in (1, 2) and out == ""


_LETTERS = st.text("IXYZ", min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    members=st.integers(0, 5),
    family_seed=st.integers(0, 2**32 - 1),
    extras=st.lists(
        st.tuples(st.integers(0, 7), st.floats(-3.0, 3.0), st.sampled_from("+-"), _LETTERS),
        max_size=3,
    ),
    qubit=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    shots=st.integers(1, 64),
)
def test_paulisim_extras_match_library(n, members, family_seed, extras, qubit, seed, shots):
    """``paulisim --extras`` runs the program the README describes, bit for bit.

    Extras go in slot order, file order among equal slots, and an extra with
    slot s follows the first min(s, m) members: slots past the end go last.
    """
    rng = np.random.default_rng(family_seed)
    thetas = rng.uniform(-3.0, 3.0, size=members)
    paulis = random_commuting_paulis(n, members, rng)
    member_gates = [MemberGate(float(t), p) for t, p in zip(thetas, paulis)]
    extra_gates = [
        (slot, ExtraGate(theta, parse_pauli(sign + letters[:n].ljust(n, "I"))))
        for slot, theta, sign, letters in extras
    ]
    program = []
    by_slot = sorted(extra_gates, key=lambda e: e[0])  # stable: file order among ties
    for j in range(members + 1):
        program += [e for slot, e in by_slot if min(slot, members) == j]
        program += member_gates[j : j + 1]
    qubit = min(qubit, n)
    want = simulate_noncommuting_pauli(
        program, "0" * n, qubit - 1, EstimatorConfig(k_override=shots),
        np.random.default_rng(seed), n=n,
    )

    qc_text = f"circuit {n}\n" + "".join(
        f"exppauli {g.theta!r} {format_pauli(g.pauli)}\n" for g in member_gates
    )
    extras_text = "".join(
        f"{slot} {e.theta!r} {format_pauli(e.pauli)}\n" for slot, e in extra_gates
    )
    with tempfile.TemporaryDirectory() as tmp:
        cpath, epath = Path(tmp) / "c.qc", Path(tmp) / "e.ex"
        cpath.write_text(qc_text)
        epath.write_text(extras_text)
        code, out = _dispatch_captured([
            "paulisim", str(cpath), "--qubit", str(qubit), "--extras", str(epath),
            "--seed", str(seed), "--shots", str(shots),
        ])
    assert code == 0
    got = jline(out)
    assert (got["raw_value"], got["K"]) == (want.raw_value, want.k)
