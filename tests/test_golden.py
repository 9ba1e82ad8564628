"""Golden outputs of the Pauli-exponential simulators and the ``paulisim`` command.

Each case in ``golden/paulisim.json`` stores its instance (Pauli strings,
angles, input, seed) and the outputs recorded for it: the library's
``raw_value``, ``k`` and ``max_modulus_violation``, and the command's stdout
object.  Ints and strings must match exactly and floats to 1e-12: any change
to a sample stream moves an estimate by about 1/K, far above that, while
another BLAS or SIMD ``exp`` may still round the last bits differently.
``golden/record.py`` holds the instances and re-records them.
"""

import json
import math

import pytest
from golden.record import GOLDEN, run_library, run_paulisim_command

FLOAT_TOL = 1e-12
CASES = json.loads(GOLDEN.read_text())


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
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("case", CASES["library"], ids=lambda c: c["name"])
def test_library_outputs(case):
    got = run_library(case)
    assert _same(got, case["want"]), (got, case["want"])


@pytest.mark.parametrize("case", CASES["cli"], ids=lambda c: c["name"])
def test_paulisim_command_stdout(case, tmp_path):
    got = run_paulisim_command(case, tmp_path)
    assert _same(got, case["want"]), (got, case["want"])


def test_comparison_rule():
    assert _same({"a": 1, "b": [0.5, "x"]}, {"a": 1, "b": [0.5 + 1e-13, "x"]})
    assert not _same(1.0, 1.0 + 1e-11)
    assert not _same(math.nan, math.nan)
    assert not _same(1, 1.0) and not _same(True, 1)
