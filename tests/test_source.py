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
    # the layout of the kernel table (cells, strides, bits per coefficient)
    # is read only inside qkostant.py
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "qkostant.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} .{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("table", "strides", "width")]
    assert SRC.joinpath("qkostant.py").exists()
    assert found == []


def test_caches_live_in_one_registry():
    # every per-root-system cache is a slot of root_system.Context, held by
    # the one registry; build_root_system's cache holds only static data
    allowed = {"root_system.py:_contexts", "root_system.py:_build_cached"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value \
                    and ast.unparse(stmt.value) in ("{}", "[]", "set()", "dict()"):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                found += [f"{path.name}:{ast.unparse(t)}" for t in targets]
            names = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for n in ast.walk(stmt)}
            if names & {"lru_cache", "cache"}:
                found.append(f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}")
    assert sorted(set(found) - allowed) == []
    assert "root_system.py:_contexts" in found
