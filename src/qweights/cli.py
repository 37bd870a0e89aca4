"""Command-line interface.

Subcommands
    roots          static root-system data (Cartan matrix, roots, exponents)
    qanalogue      one graded multiplicity polynomial
    table          all weights of an irreducible with multiplicities and polynomials
    cherednik      zero-weight coefficients over the positive root-lattice cone
    gen-exponents  exponent multiset of the zero-weight polynomial
    verify         run identity verifiers (one, or `all`)

Exit status: 0 success, 1 a verifier reported failures, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import identities as idn
from .lusztig import (
    character,
    cherednik_coefficient,
    generalized_exponents,
    lusztig_q_analogue,
)
from .poly import QPoly
from .root_system import RootSystem, Weight, build_root_system


class UsageError(Exception):
    pass


def _parse_weight(text: str, rank: int, flag: str) -> Weight:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")
    if len(coords) != rank:
        raise UsageError(
            f"{flag} has {len(coords)} coordinates; the root system has rank {rank}"
        )
    return Weight(coords)


def _poly_latex(p: QPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in sorted(p.terms().items()):
        if e == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            power = "q" if e == 1 else f"q^{{{e}}}"
            body = f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _emit_rows(fmt: str, header, rows, caption: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "latex":
        lines = [r"\begin{tabular}{" + "l" * len(header) + "}", r"\hline"]
        lines.append(" & ".join(str(h) for h in header) + r" \\")
        lines.append(r"\hline")
        for row in rows:
            lines.append(" & ".join(str(x) for x in row) + r" \\")
        lines.extend([r"\hline", r"\end{tabular}"])
        return "\n".join(lines)
    widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
              for i, h in enumerate(header)]
    out = [caption] if caption else []
    out.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        out.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    return "\n".join(out)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# -- subcommands -----------------------------------------------------------


def _cmd_roots(rs: RootSystem, args) -> int:
    rows = []
    for root in rs.positive_roots:
        w = rs.root_to_weight_basis(root)
        rows.append((
            " ".join(map(str, root)),
            " ".join(map(str, w.coords)),
            sum(root),
            "short" if rs.root_length[root] == 1 else "long",
        ))
    if args.format == "json":
        payload = {
            "name": rs.name,
            "rank": rs.rank,
            "cartan": [list(r) for r in rs.cartan],
            "symmetrizer": list(rs.symmetrizer),
            "exponents": list(rs.exponents),
            "coxeter_number": rs.coxeter_number,
            "weyl_order": rs.weyl_order,
            "highest_root": list(rs.theta.coords),
            "short_dominant_root": list(rs.theta_s.coords),
            "positive_roots": [
                {"root_coords": list(root),
                 "weight_coords": list(rs.root_to_weight_basis(root).coords),
                 "height": sum(root),
                 "length": "short" if rs.root_length[root] == 1 else "long"}
                for root in rs.positive_roots
            ],
        }
        print(_dumps(payload))
        return 0
    caption = (
        f"{rs.name}: exponents {list(rs.exponents)}, "
        f"coxeter number {rs.coxeter_number}, weyl order {rs.weyl_order}\n"
        f"highest root {rs.theta}, short dominant root {rs.theta_s}"
    )
    print(_emit_rows(args.format, ["root_coords", "weight_coords", "height", "length"],
                     rows, caption if args.format == "text" else ""))
    return 0


def _cmd_qanalogue(rs: RootSystem, args) -> int:
    lam = _parse_weight(args.lam, rs.rank, "--lambda")
    mu = _parse_weight(args.mu, rs.rank, "--mu")
    poly = lusztig_q_analogue(rs, lam, mu)
    if args.format == "json":
        print(_dumps({
            "root_system": rs.name,
            "lambda": list(lam.coords),
            "mu": list(mu.coords),
            "poly": poly.json_pairs(),
            "text": str(poly),
        }))
    elif args.format == "latex":
        print(f"${_poly_latex(poly)}$")
    else:
        print(str(poly))
    return 0


def _cmd_table(rs: RootSystem, args) -> int:
    lam = _parse_weight(args.lam, rs.rank, "--lambda")
    if not lam.is_dominant():
        raise UsageError(f"--lambda {lam} must be dominant")
    items = character(rs, lam).items()
    # lowest weights first: the kernel table is sized once, by the largest box
    polys = {mu: lusztig_q_analogue(rs, lam, mu) for mu, _ in reversed(items)}
    entries = [(mu, mult, polys[mu]) for mu, mult in items]
    if args.format == "json":
        print(_dumps({
            "root_system": rs.name,
            "lambda": list(lam.coords),
            "rows": [
                {"weight": list(mu.coords), "multiplicity": mult,
                 "poly": poly.json_pairs(), "text": str(poly)}
                for mu, mult, poly in entries
            ],
        }))
        return 0
    if args.format == "latex":
        rows = [(" ".join(map(str, mu.coords)), mult, f"${_poly_latex(poly)}$")
                for mu, mult, poly in entries]
    else:
        rows = [(" ".join(map(str, mu.coords)), mult, str(poly))
                for mu, mult, poly in entries]
    print(_emit_rows(args.format, ["weight", "multiplicity", "q-analogue"], rows,
                     f"{rs.name}, highest weight {lam}" if args.format == "text" else ""))
    return 0


def _iter_cone(rank: int, bound: int, prefix=()):
    if len(prefix) == rank:
        yield prefix
        return
    for c in range(bound - sum(prefix) + 1):
        yield from _iter_cone(rank, bound, prefix + (c,))


def _cmd_cherednik(rs: RootSystem, args) -> int:
    bound = args.max_height
    if bound < 0:
        raise UsageError("--max-height must be nonnegative")
    items = []
    for rc in sorted(_iter_cone(rs.rank, bound), key=lambda t: (sum(t), t)):
        nu = rs.root_to_weight_basis(rc)
        poly = cherednik_coefficient(rs, nu)
        items.append((rc, rs.is_positive_root_weight(nu), poly))
    if args.format == "json":
        print(_dumps({
            "root_system": rs.name,
            "max_height": bound,
            "rows": [
                {"root_coords": list(rc), "is_root": is_root,
                 "poly": poly.json_pairs(), "text": str(poly)}
                for rc, is_root, poly in items
            ],
        }))
        return 0
    rows = [(" ".join(map(str, rc)), sum(rc), "yes" if is_root else "no",
             f"${_poly_latex(poly)}$" if args.format == "latex" else str(poly))
            for rc, is_root, poly in items]
    print(_emit_rows(args.format, ["root_coords", "height", "is_root", "coefficient"],
                     rows, f"{rs.name} zero-weight coefficients" if args.format == "text" else ""))
    return 0


def _cmd_gen_exponents(rs: RootSystem, args) -> int:
    lam = _parse_weight(args.lam, rs.rank, "--lambda")
    exps = generalized_exponents(rs, lam)
    if args.format == "json":
        print(_dumps({"root_system": rs.name, "lambda": list(lam.coords),
                      "exponents": exps}))
    else:
        print(" ".join(map(str, exps)) if exps else "(empty)")
    return 0


# -- verify ----------------------------------------------------------------

IDENTITIES = ("adjoint", "little-adjoint", "main", "minuscule", "coxeter",
              "height-duality", "induction", "subregular")


def _is_simply_laced(rs: RootSystem) -> bool:
    return all(d == 1 for d in rs.symmetrizer)


def _minuscule_fundamentals(rs: RootSystem):
    out = []
    for i in range(rs.rank):
        w = rs.fundamental_weight(i)
        if idn.is_minuscule(rs, w):
            out.append(w)
    return out


def _default_gamma_alpha(rs: RootSystem, args):
    if args.gamma is not None:
        gam = _parse_weight(args.gamma, rs.rank, "--gamma")
    else:
        gam = -rs.theta
    neg = [i for i in range(rs.rank) if gam.coords[i] < 0]
    if args.alpha_index is not None:
        return gam, args.alpha_index
    if not neg:
        raise UsageError(f"--gamma {gam} has no negative pairing with a simple root")
    return gam, neg[0]


def _run_verify(rs: RootSystem, which: str, args):
    """Yield reports for one named identity with CLI or default inputs."""
    lam = (_parse_weight(args.lam, rs.rank, "--lambda")
           if args.lam is not None else None)
    if which == "adjoint":
        yield idn.verify_adjoint(rs)
    elif which == "little-adjoint":
        yield idn.verify_little_adjoint(rs)
    elif which == "main":
        gam = (_parse_weight(args.gamma, rs.rank, "--gamma")
               if args.gamma is not None else rs.theta_s)
        yield idn.verify_main_identity(rs, lam if lam else rs.theta, gam)
    elif which == "minuscule":
        if lam is not None:
            yield idn.verify_minuscule(rs, lam)
        else:
            fundamentals = _minuscule_fundamentals(rs)
            if not fundamentals:
                raise ValueError(f"{rs.name} has no minuscule weights")
            for w in fundamentals:
                yield idn.verify_minuscule(rs, w)
    elif which == "coxeter":
        yield idn.verify_coxeter_identity(rs)
    elif which == "height-duality":
        yield idn.verify_height_duality(rs, lam if lam else rs.theta)
    elif which == "induction":
        gam, ai = _default_gamma_alpha(rs, args)
        yield idn.verify_induction_lemma(rs, lam if lam else rs.theta, gam, ai)
    elif which == "subregular":
        if args.alpha_index is not None:
            ai = args.alpha_index
        else:
            ai = next(i for i in range(rs.rank)
                      if rs.root_length[tuple(1 if j == i else 0
                                              for j in range(rs.rank))] == 1)
        yield idn.verify_subregular_identity(rs, lam if lam else rs.theta_s, ai)
    else:
        raise UsageError(f"unknown identity {which!r}")


def _cmd_verify(rs: RootSystem, args) -> int:
    if args.identity == "all":
        reports = []
        for which in IDENTITIES:
            if which == "little-adjoint" and _is_simply_laced(rs):
                continue
            if which == "minuscule" and not _minuscule_fundamentals(rs):
                continue
            reports.extend(_run_verify(rs, which, args))
    else:
        reports = list(_run_verify(rs, args.identity, args))
    if args.format == "json":
        print(_dumps([r.to_dict() for r in reports]))
    else:
        for r in reports:
            flag = "PASS" if r.passed else "FAIL"
            inputs = " ".join(f"{k}={v}" for k, v in sorted(r.inputs.items()))
            line = f"{flag} {r.identity} {r.root_system}"
            print(f"{line} {inputs}".rstrip())
            for failure in r.failures:
                print(f"     check={failure['check']!r} mu={failure['mu']} "
                      f"expected={failure['expected']} actual={failure['actual']}")
    return 0 if all(r.passed for r in reports) else 1


# -- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qweights",
        description="Exact graded weight multiplicities for simple Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("type", help="root system, e.g. A2, B3, F4")
        p.add_argument("--format", choices=("text", "json", "csv", "latex"),
                       default="text")

    p = sub.add_parser("roots", help="print static root-system data")
    common(p)

    p = sub.add_parser("qanalogue", help="one graded multiplicity polynomial")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="highest weight, comma-separated fundamental coordinates")
    p.add_argument("--mu", required=True,
                   help="target weight, comma-separated fundamental coordinates")

    p = sub.add_parser("table", help="all weights of one irreducible")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("cherednik", help="zero-weight coefficients on the cone")
    common(p)
    p.add_argument("--max-height", type=int, default=4)

    p = sub.add_parser("gen-exponents",
                       help="exponent multiset of the zero-weight polynomial")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("verify", help="run identity verifiers")
    p.add_argument("identity", choices=IDENTITIES + ("all",))
    common(p)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--alpha-index", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rs = build_root_system(args.type)
        handler = {
            "roots": _cmd_roots,
            "qanalogue": _cmd_qanalogue,
            "table": _cmd_table,
            "cherednik": _cmd_cherednik,
            "gen-exponents": _cmd_gen_exponents,
            "verify": _cmd_verify,
        }[args.command]
        return handler(rs, args)
    except (UsageError, ValueError) as exc:
        # a BudgetError is a ValueError whose message starts "input too large"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a coordinate too large to size a list or a table by
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
