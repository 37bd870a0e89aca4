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
captioned text.  Each subparser names its handler (``common``).
``VERIFY`` maps each identity name to its verifier with its default inputs;
``verify NAME`` runs one entry and ``verify all`` every entry that applies.
Under ``all`` an identity refused for its budget is reported ``REFUSED``
with its error, and the others still run.

Exit status: 0 success, 1 a verifier reported failures, 2 usage error
(every one a ``ValueError``, a refused budget included), or ``verify all``
with an identity refused and none failed.
"""

from __future__ import annotations

import argparse
import sys
from math import comb

from . import identities as idn
from .lusztig import (
    character,
    cherednik_coefficient,
    generalized_exponents,
    lusztig_q_analogue,
)
from .poly import QPoly
from .qkostant import MAX_TABLE_CELLS, _check_cells, module_box
from .root_system import BudgetError, RootSystem, Weight, build_root_system
from .weyl import _check_points


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
        items.append((rc, rs.is_positive_root_weight(nu), cherednik_coefficient(rs, nu)))
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
    lam = _parse_weight(args.lam, rs.rank, "--lambda")
    exps = generalized_exponents(rs, lam)
    if args.format == "json":
        return _json({"root_system": rs.name, "lambda": list(lam.coords),
                      "exponents": exps})
    print(_spaced(exps) if exps else "(empty)")
    return 0


# -- verify ----------------------------------------------------------------
#
# Each entry of VERIFY runs one identity on its inputs from the command line,
# ``lam`` parsed from --lambda or None, and holds the identity's default
# inputs.  It reads ``idn.verify_...`` when it runs, so that a wrapper
# installed on the module later is the one called.


def _gamma(rs: RootSystem, args, default: Weight) -> Weight:
    return default if args.gamma is None else _parse_weight(args.gamma, rs.rank, "--gamma")


def _minuscule_fundamentals(rs: RootSystem):
    return [w for w in map(rs.fundamental_weight, range(rs.rank))
            if idn.is_minuscule(rs, w)]


def _verify_minuscule(rs: RootSystem, lam, args):
    if lam is not None:
        return [idn.verify_minuscule(rs, lam)]
    fundamentals = _minuscule_fundamentals(rs)
    if not fundamentals:
        raise ValueError(f"{rs.name} has no minuscule weights")
    return [idn.verify_minuscule(rs, w) for w in fundamentals]


def _verify_induction(rs: RootSystem, lam, args):
    gam = _gamma(rs, args, -rs.theta)
    ai = args.alpha_index
    if ai is None:
        # the first simple root that gamma pairs negatively with
        ai = next((i for i, c in enumerate(gam.coords) if c < 0), None)
        if ai is None:
            raise ValueError(f"--gamma {gam} has no negative pairing with a simple root")
    return [idn.verify_induction_lemma(rs, lam or rs.theta, gam, ai)]


VERIFY = {
    "adjoint": lambda rs, lam, args: [idn.verify_adjoint(rs)],
    "little-adjoint": lambda rs, lam, args: [idn.verify_little_adjoint(rs)],
    "main": lambda rs, lam, args: [idn.verify_main_identity(
        rs, lam or rs.theta, _gamma(rs, args, rs.theta_s))],
    "minuscule": _verify_minuscule,
    "coxeter": lambda rs, lam, args: [idn.verify_coxeter_identity(rs)],
    "height-duality": lambda rs, lam, args: [idn.verify_height_duality(rs, lam or rs.theta)],
    "induction": _verify_induction,
    # the default is the first short simple root, the first with d_i = 1
    "subregular": lambda rs, lam, args: [idn.verify_subregular_identity(
        rs, lam or rs.theta_s,
        rs.symmetrizer.index(1) if args.alpha_index is None else args.alpha_index)],
}
IDENTITIES = tuple(VERIFY)


def _cmd_verify(rs: RootSystem, args) -> int:
    lam = None if args.lam is None else _parse_weight(args.lam, rs.rank, "--lambda")
    if args.identity != "all":
        names = [args.identity]
    else:
        # each of these inputs suits some identities and refuses others
        for flag, value in (("--lambda", args.lam), ("--gamma", args.gamma),
                            ("--alpha-index", args.alpha_index)):
            if value is not None:
                raise ValueError(f"{flag} applies to one identity, not to all")
        # little-adjoint needs two root lengths, minuscule a minuscule weight
        names = [name for name in IDENTITIES
                 if not (name == "little-adjoint" and max(rs.symmetrizer) == 1)
                 and not (name == "minuscule" and not _minuscule_fundamentals(rs))]
    reports = []
    for name in names:
        try:
            reports += VERIFY[name](rs, lam, args)
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


# -- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qweights",
        description="Exact graded weight multiplicities for simple Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.add_argument("type", help="root system, e.g. A2, B3, F4")
        p.add_argument("--format", choices=("text", "json", "csv", "latex"),
                       default="text")
        p.set_defaults(handler=handler)

    p = sub.add_parser("roots", help="print static root-system data")
    common(p, _cmd_roots)

    p = sub.add_parser("qanalogue", help="one graded multiplicity polynomial")
    common(p, _cmd_qanalogue)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="highest weight, comma-separated fundamental coordinates")
    p.add_argument("--mu", required=True,
                   help="target weight, comma-separated fundamental coordinates")

    p = sub.add_parser("table", help="all weights of one irreducible")
    common(p, _cmd_table)
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("cherednik", help="zero-weight coefficients on the cone")
    common(p, _cmd_cherednik)
    p.add_argument("--max-height", type=int, default=4)

    p = sub.add_parser("gen-exponents",
                       help="exponent multiset of the zero-weight polynomial")
    common(p, _cmd_gen_exponents)
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("verify", help="run identity verifiers")
    p.add_argument("identity", choices=IDENTITIES + ("all",))
    common(p, _cmd_verify)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--alpha-index", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(build_root_system(args.type), args)
    except ValueError as exc:
        # a BudgetError is a ValueError whose message starts "input too large"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a coordinate too large to size a list or a table by
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
