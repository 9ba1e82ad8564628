"""Golden outputs of the Pauli-exponential simulators and of every command.

Each case in ``golden/paulisim.json`` stores its instance (Pauli strings,
angles, input, seed) and the outputs recorded for it: the library's
``raw_value``, ``k`` and ``max_modulus_violation``, and the command's stdout
object.  Its overlap cases store a circuit, an optional Clifford and a seed,
and the overlap estimators' ``raw_value`` and ``k``.  Each case in
``golden/cli.json`` stores the argv and input files of one command and its
stdout object.  Ints and strings must match exactly and floats to 1e-12:
any change to a sample stream moves an estimate by about 1/K, far above
that, while another BLAS or SIMD ``exp`` may still round the last bits
differently.  The matrix entries in a serialized circuit are
floats too, so two strings that differ are compared token by token.
``golden/record.py`` holds the instances and re-records them.
"""

import json
import math

import pytest
from golden.record import (
    GOLDEN,
    GOLDEN_CLI,
    _changes,
    _same,
    run_command,
    run_library,
    run_overlap,
    run_paulisim_command,
)

from commsim.cli import _build_parser

CASES = json.loads(GOLDEN.read_text())
COMMANDS = json.loads(GOLDEN_CLI.read_text())["commands"]


@pytest.mark.parametrize("case", CASES["library"], ids=lambda c: c["name"])
def test_library_outputs(case):
    got = run_library(case)
    assert _same(got, case["want"]), (got, case["want"])


@pytest.mark.parametrize("case", CASES["overlap"], ids=lambda c: c["name"])
def test_overlap_outputs(case):
    got = run_overlap(case)
    assert _same(got, case["want"]), (got, case["want"])


@pytest.mark.parametrize("case", CASES["cli"], ids=lambda c: c["name"])
def test_paulisim_command_stdout(case, tmp_path):
    got = run_paulisim_command(case, tmp_path)
    assert _same(got, case["want"]), (got, case["want"])


@pytest.mark.parametrize("case", COMMANDS, ids=lambda c: c["name"])
def test_command_stdout(case, tmp_path):
    got = run_command(case, tmp_path)
    assert _same(got, case["want"]), (got, case["want"])


def test_every_subcommand_has_a_golden_case():
    (sub,) = [a for a in _build_parser()._actions if a.choices and a.dest == "command"]
    covered = {c["argv"][0] for c in COMMANDS} | ({"paulisim"} if CASES["cli"] else set())
    assert set(sub.choices) <= covered, set(sub.choices) - covered


def test_comparison_rule():
    assert _same({"a": 1, "b": [0.5, "x"]}, {"a": 1, "b": [0.5 + 1e-13, "x"]})
    assert not _same(1.0, 1.0 + 1e-11)
    assert not _same(math.nan, math.nan)
    assert not _same(1, 1.0) and not _same(True, 1)
    assert _same("dense 1 0.25 0.5\nh 2\n", "dense 1 0.25000000000000006 0.5\nh 2\n")
    assert not _same("h 1\n", "h 2\n") and not _same("h 1\n", "h 1 1\n")
    assert not _same("+IZ", "-IZ") and not _same(["+IZ"], ["-IZ"])


def test_rerecord_names_what_moved():
    old = {"g": [{"name": "a", "want": {"v": 0.5, "s": [1, "x"]}},
                 {"name": "b", "want": {"v": 1.0}}]}
    new = {"g": [{"name": "a", "want": {"v": 0.5 + 1e-13, "s": [2, "x"]}},
                 {"name": "c", "want": {"v": 1.0}}]}
    assert _changes(old, new) == ["g/b: removed", "g/a want.s[0]: 1 -> 2", "g/c: added"]
    # a value inside the replay tolerance keeps its recorded form
    assert new["g"][0]["want"] == {"v": 0.5, "s": [2, "x"]}
