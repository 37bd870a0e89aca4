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


def test_packed_table_stays_in_qkostant():
    # the layout of the kernel table (cells, strides, bits per coefficient,
    # cells per carry-free sum) is read only inside qkostant.py
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "qkostant.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} .{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("table", "strides", "width", "chunk")]
    assert SRC.joinpath("qkostant.py").exists()
    assert found == []
