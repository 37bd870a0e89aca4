"""Source-level checks on the package."""

import ast
import io
import os
import pathlib
import subprocess
import sys
import tokenize

import qweights

SRC = pathlib.Path(qweights.__file__).parent
LAYERBENCH = pathlib.Path(__file__).resolve().parent.parent / "layerbench"

# Code lines in src/qweights, counted by ``code_lines``.  The count must
# equal it: a change that adds code raises it and says in CHANGES.md what
# the lines buy, and a change that removes code lowers it.
CODE_LINE_CEILING = 1591


def code_lines(path) -> int:
    """Lines holding a token of code: no blank lines, comments or docstrings
    (the string that opens a module, class or function)."""
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


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


def test_weight_arguments_are_checked_in_root_system():
    # RootSystem.weight is the one check of a weight argument: only
    # root_system.py raises its messages, and no check_dominant or
    # check_rank is left.
    # The CLI's "--lambda ... must be dominant", pinned by golden_cli.json,
    # is the one refusal of a weight elsewhere
    phrases = ("is not dominant", "is not a weight of", "must be dominant")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            where = f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}"
            for node in ast.walk(stmt):
                for old in ("check_dominant", "check_rank"):
                    if old in (getattr(node, "attr", None), getattr(node, "id", None),
                               getattr(node, "name", None)):
                        found.append(f"{where} {old}")
                if isinstance(node, ast.Raise) and any(
                        isinstance(n, ast.Constant) and isinstance(n.value, str)
                        and any(p in n.value for p in phrases) for n in ast.walk(node)):
                    found.append(where)
    assert sorted(set(found)) == ["cli.py:_cmd_table", "root_system.py:RootSystem"]


def test_reflection_rule_stays_in_weyl():
    # s_i lowers coordinate k of a weight by a[k][i] times coordinate i; the
    # columns that hold the rule are made in root_system.py and read only in
    # weyl.py
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("root_system.py", "weyl.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "cartan_columns"]
    assert SRC.joinpath("weyl.py").exists()
    assert found == []


def test_weyl_keeps_no_context():
    # the Weyl layer is pure functions of the root system: weyl.py names
    # neither the registry nor its accessor, in an import or anywhere else
    tree = ast.parse(SRC.joinpath("weyl.py").read_text(), filename="weyl.py")
    names = [getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
             for n in ast.walk(tree)]
    assert "descend" in names
    assert {"context", "_contexts"} & set(names) == set()


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


def _makes_or_registers_a_context(node) -> bool:
    """Whether ``node`` calls ``Context(...)`` or writes into ``_contexts``."""
    mutators = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            if getattr(f, "id", None) == "Context" or getattr(f, "attr", None) == "Context":
                return True
            if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "_contexts" \
                    and f.attr in mutators:
                return True
        if isinstance(n, ast.Subscript) and getattr(n.value, "id", None) == "_contexts" \
                and isinstance(n.ctx, (ast.Store, ast.Del)):
            return True
    return False


def test_only_context_makes_a_context():
    # root_system.context is the one maker of a per-root-system context, and
    # clear_caches the one other writer of the registry: callers hand the
    # context they looked up (or None) on, and write through context(rs)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if _makes_or_registers_a_context(stmt):
                found.append(f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}")
    assert found == ["root_system.py:context", "root_system.py:clear_caches"]


def test_only_qkostant_makes_an_engine():
    # qkostant owns what a table holds: PartitionEngine(rs, lam) seeds
    # itself, and read makes the missing engines, so no other module builds
    # one or hands it a numerator
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "PartitionEngine" in (getattr(node.func, "id", None),
                                            getattr(node.func, "attr", None))]
    assert found and {f.split(":")[0] for f in found} == {"qkostant.py"}, found


def test_only_read_looks_up_a_cell():
    # qkostant.read is the one code that looks up a table cell: the one
    # call of .compute( in the package, which only grows a table, is there
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            found += [f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}"
                      for n in ast.walk(stmt)
                      if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "compute"]
    assert found == ["qkostant.py:read"]


def test_only_qkostant_and_the_cli_read_the_cell_budget():
    # the induction route counts what its walk holds, not a box of cells:
    # lusztig imports only read from qkostant, and the cell budget is read
    # by qkostant and by the CLI's pre-checks of table and cherednik
    imported, users = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "qkostant":
                imported.setdefault(path.name, set()).update(a.name for a in node.names)
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("_check_cells", "MAX_TABLE_CELLS"):
                users.add(path.name)
    assert imported["lusztig.py"] == {"read"}
    assert users == {"qkostant.py", "cli.py"}, users


# The package's modules, lowest first: each imports only modules below it
LAYERS = ("poly", "root_system", "weyl", "qkostant", "lusztig", "identities", "cli")


def _package_imports(path) -> set:
    """The modules of the package that ``path`` imports anywhere, function
    bodies included; ``from . import identities as idn`` names identities,
    and a name imported from the package itself names its ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mod = ".".join(filter(None, ("qweights" if node.level else "", node.module)))
            mods = [f"{mod}.{a.name}" for a in node.names] if mod == "qweights" else [mod]
        else:
            continue
        for mod in mods:
            parts = mod.split(".")
            if parts[0] == "qweights":
                found.add(parts[1] if len(parts) > 1 and parts[1] in LAYERS else "__init__")
    return found


def test_each_module_imports_only_modules_below_it():
    # no import cycle, not even one dodged inside a function: root_system
    # owns the orbit-point budget it counts against, so it imports nothing
    # of the package
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS + ("__init__",))
    found = []
    for place, name in enumerate(LAYERS):
        found += [f"{name} imports {mod}" for mod in sorted(_package_imports(SRC / f"{name}.py"))
                  if mod not in LAYERS[:place]]
    assert found == []
    assert _package_imports(SRC / "root_system.py") == set()
    # the cli's ``from . import identities as idn`` is read as an import
    assert "identities" in _package_imports(SRC / "cli.py")


def test_code_line_ceiling():
    counts = {path.name: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    assert counts["lusztig.py"] > 0
    assert sum(counts.values()) == CODE_LINE_CEILING, counts


def test_cli_import_path_stays_light():
    # dataclasses (with inspect), fractions (with decimal and numbers), json
    # and csv are imported where they are used, so importing the CLI loads
    # none of them that a bare `python -S` has not loaded already.  Nor does
    # the package or the CLI load re (with enum), which no module of the
    # package imports, or argparse (with gettext and locale), which the
    # CLI's own parser replaced.  A text-format `verify all` loads none
    # but fractions: height duality reads root multiples through the
    # Fraction view, which still returns Fractions
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "numbers", "json", "csv")
    parsing = ("argparse", "gettext", "locale", "re", "enum")
    script = ("import sys\n"
              "bare = set(sys.modules)\n"
              f"heavy = set({heavy!r})\n"
              "import qweights\n"
              "print(sorted({'re', 'enum'} & set(sys.modules)), file=sys.stderr)\n"
              "import qweights.cli\n"
              f"print(sorted(set({parsing!r}) & set(sys.modules)), file=sys.stderr)\n"
              "print(sorted(heavy & set(sys.modules) - bare), file=sys.stderr)\n"
              "code = qweights.cli.main(['verify', 'all', 'F4'])\n"
              "heavy -= {'fractions', 'decimal', 'numbers'}\n"
              "print(code, sorted(heavy & set(sys.modules) - bare), file=sys.stderr)\n"
              "rs = qweights.build_root_system('B2')\n"
              "rc = rs.weight_to_root_coords(rs.fundamental_weight(1))\n"
              "print([type(x).__name__ for x in rc], rc, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS adjoint F4\n")
    assert done.stderr == ("[]\n[]\n[]\n0 []\n['Fraction', 'Fraction'] "
                           "(Fraction(1, 2), Fraction(1, 1))\n")


def test_benchmark_tracer_installs():
    # layerbench/tracer.py wraps package functions and methods by name, so a
    # refactor that deletes or renames one of them fails here at once
    script = ("import sys, qweights, qweights.cli\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "from tracer import Tracer\n"
              "Tracer().install()\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script, str(LAYERBENCH)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
