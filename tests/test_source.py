"""Source-level checks on the package."""

import ast
import pathlib

import qweights

SRC = pathlib.Path(qweights.__file__).parent


def test_no_assert_statements():
    # invariants must survive ``python -O``, which strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SRC.joinpath("lusztig.py").exists()
    assert found == []
