"""Runtime checks must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "commsim"


def test_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert used as a runtime check at {found}"
