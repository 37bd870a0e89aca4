"""Command-line interface.

Subcommands
    roots          static root-system data (Cartan matrix, roots, exponents)
    qanalogue      one graded multiplicity polynomial
    table          all weights of an irreducible with multiplicities and polynomials
    cherednik      zero-weight coefficients over the positive root-lattice cone
    gen-exponents  exponent multiset of the zero-weight polynomial
    verify         run identity verifiers (one, or `all`)

Each subcommand makes only the output its ``--format`` prints.  Every
``--format json`` result is printed by ``_json`` where it is made, before
any text row is built; ``roots``, ``table`` and ``cherednik`` print every
other format through one renderer, ``_render``: the rows as CSV, LaTeX or
captioned text.  ``COMMANDS`` names each subcommand's handler, positionals
and flags; ``main`` reads the command line against it, and ``-h`` or
``--help`` prints it.  A flag's value follows it (``--mu -1,-1``) or is
joined to it (``--mu=-1,-1``).
``VERIFY`` maps each identity name to the flags it reads and its verifier
with its default inputs; ``verify NAME`` runs one entry and refuses any
other flag, and ``verify all`` runs every entry that applies and takes none.
Under ``all`` an identity refused for its budget is reported ``REFUSED``
with its error, and the others still run.

Exit status: 0 success, 1 a verifier reported failures, 2 usage error
(every one a ``ValueError``, a refused budget included), a ``MemoryError``
(``error: input too large: out of memory``: a table whose cells fit the
cell budget and whose bytes do not), or ``verify all`` with an identity
refused and none failed.  A reader that closes the pipe
ends the command with 1, and Ctrl-C with 130, neither with a traceback.
"""

from __future__ import annotations

import os
import sys
from math import comb
from types import SimpleNamespace

from . import identities as idn
from .lusztig import (
    character,
    cherednik_coefficient,
    generalized_exponents,
    lusztig_q_analogue,
)
from .poly import QPoly
from .qkostant import MAX_TABLE_CELLS, _check_cells, module_box
from .root_system import BudgetError, RootSystem, Weight, _check_points, build_root_system


def _parse_weight(text: str, rank: int, flag: str) -> Weight:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")
    if len(coords) != rank:
        raise ValueError(
            f"{flag} has {len(coords)} coordinates; the root system has rank {rank}"
        )
    return Weight(coords)


def _spaced(coords) -> str:
    return " ".join(map(str, coords))


def _poly_cell(p: QPoly, fmt: str) -> str:
    """One polynomial as a table cell: ``$...$`` for latex, else ``str``."""
    if fmt != "latex":
        return str(p)
    parts = []
    for e, c in sorted(p.terms().items()):
        mag = "" if abs(c) == 1 and e else str(abs(c))
        power = "" if e == 0 else "q" if e == 1 else f"q^{{{e}}}"
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(f"{sign}{mag}{power}")
    return f"${' '.join(parts) or '0'}$"


def _json(obj) -> int:
    """Print the result of a ``--format json`` call."""
    import json

    print(json.dumps(obj, sort_keys=True, indent=2))
    return 0


def _render(fmt: str, header, rows, caption: str) -> int:
    """Print one table-shaped result: ``rows`` under ``header`` as CSV, a
    LaTeX tabular, or aligned text below ``caption``."""
    if fmt == "csv":
        import csv

        # each row ends in "\r\n", the last one too
        csv.writer(sys.stdout).writerows([header, *rows])
    elif fmt == "latex":
        lines = [r"\begin{tabular}{" + "l" * len(header) + "}", r"\hline",
                 " & ".join(header) + r" \\", r"\hline"]
        lines += [" & ".join(map(str, row)) + r" \\" for row in rows]
        print("\n".join(lines + [r"\hline", r"\end{tabular}"]))
    else:
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
                  for i, h in enumerate(header)]
        print("\n".join([caption] + ["  ".join(str(x).ljust(w) for x, w in zip(row, widths))
                                     for row in [header] + rows]))
    return 0


# -- subcommands -----------------------------------------------------------


def _cmd_roots(rs: RootSystem, args) -> int:
    """Static root-system data."""
    header = ["root_coords", "weight_coords", "height", "length"]
    roots = [(list(root), list(rs.root_to_weight_basis(root).coords), sum(root),
              "short" if rs.root_length[root] == 1 else "long")
             for root in rs.positive_roots]
    if args.format == "json":
        return _json({
            "name": rs.name,
            "rank": rs.rank,
            "cartan": [list(r) for r in rs.cartan],
            "symmetrizer": list(rs.symmetrizer),
            "exponents": list(rs.exponents),
            "coxeter_number": rs.coxeter_number,
            "weyl_order": rs.weyl_order,
            "highest_root": list(rs.theta.coords),
            "short_dominant_root": list(rs.theta_s.coords),
            "positive_roots": [dict(zip(header, root)) for root in roots],
        })
    caption = (
        f"{rs.name}: exponents {list(rs.exponents)}, "
        f"coxeter number {rs.coxeter_number}, weyl order {rs.weyl_order}\n"
        f"highest root {rs.theta}, short dominant root {rs.theta_s}"
    )
    rows = [(_spaced(rc), _spaced(wc), hot, length) for rc, wc, hot, length in roots]
    return _render(args.format, header, rows, caption)


def _cmd_qanalogue(rs: RootSystem, args) -> int:
    """One graded multiplicity polynomial."""
    lam = _parse_weight(args.lam, rs.rank, "--lambda")
    mu = _parse_weight(args.mu, rs.rank, "--mu")
    poly = lusztig_q_analogue(rs, lam, mu)
    if args.format == "json":
        return _json({
            "root_system": rs.name,
            "lambda": list(lam.coords),
            "mu": list(mu.coords),
            "poly": poly.json_pairs(),
            "text": str(poly),
        })
    print(_poly_cell(poly, args.format))
    return 0


def _cmd_table(rs: RootSystem, args) -> int:
    """All weights of one irreducible."""
    lam = _parse_weight(args.lam, rs.rank, "--lambda")
    if not lam.is_dominant():
        raise ValueError(f"--lambda {lam} must be dominant")
    # the rows fill lam's module box: a box over the cell budget is refused
    # before the character is walked
    _check_cells(module_box(rs, lam.coords))
    items = character(rs, lam).items()
    # lowest weights first: the kernel table is sized once, by the largest box
    polys = {mu: lusztig_q_analogue(rs, lam, mu) for mu, _ in reversed(items)}
    if args.format == "json":
        return _json({
            "root_system": rs.name,
            "lambda": list(lam.coords),
            "rows": [{"weight": list(mu.coords), "multiplicity": mult,
                      "poly": polys[mu].json_pairs(), "text": str(polys[mu])}
                     for mu, mult in items],
        })
    rows = [(_spaced(mu.coords), mult, _poly_cell(polys[mu], args.format))
            for mu, mult in items]
    return _render(args.format, ["weight", "multiplicity", "q-analogue"], rows,
                   f"{rs.name}, highest weight {lam}")


def _iter_cone(rank: int, bound: int, prefix=()):
    if len(prefix) == rank:
        yield prefix
        return
    for c in range(bound - sum(prefix) + 1):
        yield from _iter_cone(rank, bound, prefix + (c,))


def _cmd_cherednik(rs: RootSystem, args) -> int:
    """Zero-weight coefficients on the cone."""
    bound = args.max_height
    if bound < 0:
        raise ValueError("--max-height must be nonnegative")
    # the cone holds C(bound + rank, rank) points, one row each
    _check_points(comb(bound + rs.rank, rs.rank), f"the cone up to height {bound}")
    if (bound + 1) ** rs.rank <= MAX_TABLE_CELLS:
        # the corner's box holds the cone, so the table is built once
        cherednik_coefficient(rs, rs.root_to_weight_basis((bound,) * rs.rank))
    items = []
    for rc in sorted(_iter_cone(rs.rank, bound), key=lambda t: (sum(t), t)):
        nu = rs.root_to_weight_basis(rc)
        items.append((rc, rc in rs.root_length, cherednik_coefficient(rs, nu)))
    if args.format == "json":
        return _json({
            "root_system": rs.name,
            "max_height": bound,
            "rows": [{"root_coords": list(rc), "is_root": is_root,
                      "poly": poly.json_pairs(), "text": str(poly)}
                     for rc, is_root, poly in items],
        })
    rows = [(_spaced(rc), sum(rc), "yes" if is_root else "no", _poly_cell(poly, args.format))
            for rc, is_root, poly in items]
    return _render(args.format, ["root_coords", "height", "is_root", "coefficient"], rows,
                   f"{rs.name} zero-weight coefficients")


def _cmd_gen_exponents(rs: RootSystem, args) -> int:
    """Exponent multiset of the zero-weight polynomial."""
    lam = _parse_weight(args.lam, rs.rank, "--lambda")
    exps = generalized_exponents(rs, lam)
    if args.format == "json":
        return _json({"root_system": rs.name, "lambda": list(lam.coords),
                      "exponents": exps})
    print(_spaced(exps) if exps else "(empty)")
    return 0


# -- verify ----------------------------------------------------------------
#
# Each entry of VERIFY names the flags its identity reads, which are the
# only ones ``verify NAME`` takes, and runs the identity on its inputs from
# the command line, ``lam`` parsed from --lambda or None, with the
# identity's default inputs.  It reads ``idn.verify_...`` when it runs, so
# that a wrapper installed on the module later is the one called.


def _gamma(rs: RootSystem, args, default: Weight) -> Weight:
    return default if args.gamma is None else _parse_weight(args.gamma, rs.rank, "--gamma")


def _minuscule_fundamentals(rs: RootSystem):
    return [w for w in map(rs.fundamental_weight, range(rs.rank))
            if idn.is_minuscule(rs, w)]


def _verify_minuscule(rs: RootSystem, lam, args):
    weights = _minuscule_fundamentals(rs) if lam is None else [lam]
    if not weights:
        raise ValueError(f"{rs.name} has no minuscule weights")
    return [idn.verify_minuscule(rs, w) for w in weights]


def _verify_induction(rs: RootSystem, lam, args):
    gam = _gamma(rs, args, -rs.theta)
    # by default the first simple root that gamma pairs negatively with
    ai = args.alpha_index if args.alpha_index is not None else next(
        (i for i, c in enumerate(gam.coords) if c < 0), None)
    if ai is None:
        raise ValueError(f"--gamma {gam} has no negative pairing with a simple root")
    return [idn.verify_induction_lemma(rs, lam or rs.theta, gam, ai)]


VERIFY = {
    "adjoint": ((), lambda rs, lam, args: [idn.verify_adjoint(rs)]),
    "little-adjoint": ((), lambda rs, lam, args: [idn.verify_little_adjoint(rs)]),
    "main": (("--lambda", "--gamma"), lambda rs, lam, args: [idn.verify_main_identity(
        rs, lam or rs.theta, _gamma(rs, args, rs.theta_s))]),
    "minuscule": (("--lambda",), _verify_minuscule),
    "coxeter": ((), lambda rs, lam, args: [idn.verify_coxeter_identity(rs)]),
    "height-duality": (("--lambda",), lambda rs, lam, args: [
        idn.verify_height_duality(rs, lam or rs.theta)]),
    "induction": (("--lambda", "--gamma", "--alpha-index"), _verify_induction),
    # the default is the first short simple root, the first with d_i = 1
    "subregular": (("--lambda", "--alpha-index"), lambda rs, lam, args: [
        idn.verify_subregular_identity(
            rs, lam or rs.theta_s,
            rs.symmetrizer.index(1) if args.alpha_index is None else args.alpha_index)]),
}
IDENTITIES = tuple(VERIFY)


def _cmd_verify(rs: RootSystem, args) -> int:
    """Run one identity verifier, or all that apply."""
    lam = None if args.lam is None else _parse_weight(args.lam, rs.rank, "--lambda")
    if args.identity != "all":
        names = [args.identity]
    else:
        # little-adjoint needs two root lengths, minuscule a minuscule weight
        names = [name for name in IDENTITIES
                 if not (name == "little-adjoint" and max(rs.symmetrizer) == 1)
                 and not (name == "minuscule" and not _minuscule_fundamentals(rs))]
    reports = []
    for name in names:
        try:
            reports += VERIFY[name][1](rs, lam, args)
        except BudgetError as exc:
            # one identity alone keeps its error and exit status
            if args.identity != "all":
                raise
            reports.append(idn.Report(name, rs.name, {}, "refused", details={"error": str(exc)}))
    if args.format == "json":
        _json([r.to_dict() for r in reports])
    else:
        for r in reports:
            inputs = " ".join(f"{k}={v}" for k, v in sorted(r.inputs.items()))
            print(f"{r.status.upper()} {r.identity} {r.root_system} {inputs}".rstrip())
            for failure in r.failures:
                print(f"     check={failure['check']!r} mu={failure['mu']} "
                      f"expected={failure['expected']} actual={failure['actual']}")
            if r.status == "refused":
                print(f"     {r.details['error']}")
    statuses = {r.status for r in reports}
    return 1 if "fail" in statuses else 2 if "refused" in statuses else 0


# -- command line ----------------------------------------------------------
#
# One table says what each command takes: COMMANDS gives its handler, whose
# docstring is its help, its positionals, the flags it needs and the flags
# it may take besides --format.  FLAGS gives each flag's attribute on
# ``args``, its default and its metavar: an N value is read as an int, and
# a metavar of alternatives lists the values the flag accepts.  ``verify
# NAME`` takes only the flags that VERIFY says NAME reads, ``verify all``
# none.

FLAGS = {"--format": ("format", "text", "text|json|csv|latex"),
         "--lambda": ("lam", None, "WEIGHT"), "--mu": ("mu", None, "WEIGHT"),
         "--gamma": ("gamma", None, "WEIGHT"), "--max-height": ("max_height", 4, "N"),
         "--alpha-index": ("alpha_index", None, "N")}
COMMANDS = {
    "roots": (_cmd_roots, "TYPE", (), ()),
    "qanalogue": (_cmd_qanalogue, "TYPE", ("--lambda", "--mu"), ()),
    "table": (_cmd_table, "TYPE", ("--lambda",), ()),
    "cherednik": (_cmd_cherednik, "TYPE", (), ("--max-height",)),
    "gen-exponents": (_cmd_gen_exponents, "TYPE", ("--lambda",), ()),
    "verify": (_cmd_verify, "IDENTITY TYPE", (), ("--lambda", "--gamma", "--alpha-index")),
}


def _help() -> int:
    print("usage: qweights COMMAND [IDENTITY] TYPE [--FLAG VALUE | --FLAG=VALUE ...], where\n"
          "TYPE is a root system such as B3, WEIGHT comma-separated fundamental coordinates\n"
          "such as -1,0 and N an integer\n\ncommands:")
    for name, (handler, positionals, needs, takes) in COMMANDS.items():
        flags = [f"{f} {FLAGS[f][2]}" if f in needs else f"[{f} {FLAGS[f][2]}]"
                 for f in (*needs, *takes, "--format")]
        # python -OO strips the docstrings, and then the help names the commands only
        print(f"  {' '.join([name, positionals, *flags])}\n      {handler.__doc__ or ''}")
    print(f"\nIDENTITY is all or one of: {', '.join(IDENTITIES)}")
    return 0


def _parse(argv):
    """The args of one command line, with the command's handler, or None
    for -h or --help; a malformed line raises ValueError."""
    words = iter([p for w in argv for p in (w.split("=", 1) if w.startswith("--") else [w])])
    positionals, given = [], {}
    for word in words:
        if word in ("-h", "--help"):
            return None
        if word.startswith("-"):
            # a value may start with "-", so the word after a flag is its value
            given[word] = next(words, None)
        else:
            positionals.append(word)
    command, *rest = positionals or [""]
    if command not in COMMANDS or len(rest) != len(COMMANDS[command][1].split()):
        raise ValueError(f"expected COMMAND [IDENTITY] TYPE, not {' '.join(positionals)!r}")
    handler, names, needs, takes = COMMANDS[command]
    args = {dest: default for dest, default, _ in FLAGS.values()}
    args.update(zip(names.lower().split(), rest), handler=handler)
    name = args.get("identity", command)
    if command == "verify":
        if name not in (*VERIFY, "all"):
            raise ValueError(f"unknown identity {name!r}")
        takes = VERIFY[name][0] if name in VERIFY else ()
    # a flag that is needed and missing is read as one given no value
    for flag, value in {**dict.fromkeys(needs), **given}.items():
        if flag not in (*needs, *takes, "--format"):
            raise ValueError(f"unknown flag {flag}" if flag not in FLAGS
                             else f"{flag} applies to one identity, not to all" if name == "all"
                             else f"{flag} does not apply to {name}")
        dest, _, metavar = FLAGS[flag]
        try:
            if value is None or "|" in metavar and value not in metavar.split("|"):
                raise ValueError
            args[dest] = int(value) if metavar == "N" else value
        except ValueError:
            raise ValueError(f"{command} needs {flag} {metavar}"
                             + ("" if value is None else f", not {value!r}")) from None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args.handler(build_root_system(args.type), args) if args else _help()
        # a reader that closed the pipe shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except (ValueError, OverflowError) as exc:
        # a BudgetError is a ValueError whose message starts "input too large"; an
        # OverflowError is a coordinate too large to size a list or a table by
        too_large = "input too large: " if isinstance(exc, OverflowError) else ""
        print(f"error: {too_large}{exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a table whose cells fit the cell budget and whose bytes do not
        print("error: input too large: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the Python docs' advice: point stdout at devnull, so that the
        # flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
