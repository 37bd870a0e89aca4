"""Seeded inputs and output checks for the layered benchmark.

Runs in a process of its own, so the runner stays small (a CLI child
inherits the peak RSS of the process that spawns it) and the timed
processes never see the oracle's caches.  It uses only the public qweights
API, and every check rests on a route other than the one that produced the
answer: Freudenthal multiplicities, the Weyl dimension formula, the
exponents of the root system and m(0) = delta.

    python3 oracle.py inputs WORKLOAD SEED   -> JSON inputs on stdout
    python3 oracle.py check                  <- JSON {workload, items} on stdin
"""

from __future__ import annotations

import json
import random
import re
import sys
from collections import Counter
from functools import lru_cache
from itertools import permutations

import qweights
from qweights import Weight, build_root_system

# cli-qanalogue: calls per type in one pass.  |W| sets the cost of a call,
# so a fixed mix keeps the work of a pass the same for every seed; the seed
# picks lambda, mu and the order.
QANALOGUE_MIX = (("A6", 1), ("B5", 2), ("D5", 4), ("F4", 3), ("A5", 4),
                 ("B4", 4), ("D4", 4), ("C4", 5), ("A4", 11), ("G2", 12))

# cli-table: one module per entry; where the Dynkin diagram has symmetries
# the seed picks an image of the highest weight under them (same size, same
# work), otherwise only the order changes.
TABLE_MODULES = (
    ("G2", ((6, 6),)),
    ("A3", ((3, 4, 5), (5, 4, 3))),
    ("B3", ((2, 2, 2),)),
    ("C3", ((2, 2, 2),)),
    ("D4", tuple((p[0], 1, p[1], p[2]) for p in sorted(set(permutations((2, 1, 0)))))),
    ("F4", ((1, 0, 0, 1),)),
    ("F4", ((2, 0, 0, 0),)),
)

VERIFY_TYPES = ("G2", "B3", "C3", "A4", "D4", "B4", "C4", "A5", "F4", "D5")

SESSION_TYPES = ("G2", "A3", "B3", "C3", "A4", "D4", "B4", "C4", "F4")
SESSION_CHECKED = 24  # q queries per pass that are checked by all three routes


def _csv(coords):
    return ",".join(str(c) for c in coords)


def _qanalogue_inputs(rng):
    calls = []
    for name, count in QANALOGUE_MIX:
        rs = build_root_system(name)
        zero = (0,) * rs.rank
        calls.append(("qanalogue", name, rs.theta.coords, zero))
        for _ in range(count - 1):
            i, j = rng.randrange(rs.rank), rng.randrange(rs.rank)
            lam = rng.choice((rs.theta, rs.theta_s, rs.fundamental_weight(i),
                              rs.fundamental_weight(i) + rs.fundamental_weight(j)))
            mu = lam
            for k in range(rs.rank):
                mu = mu - rng.randrange(3) * rs.simple_roots[k]
            calls.append(("qanalogue", name, lam.coords, mu.coords))
    rng.shuffle(calls)
    return [[cmd, name, "--lambda", _csv(lam), "--mu=" + _csv(mu)]
            for cmd, name, lam, mu in calls]


def _table_inputs(rng):
    calls = [["table", name, "--lambda", _csv(rng.choice(pool))]
             for name, pool in TABLE_MODULES]
    rng.shuffle(calls)
    return calls


def _verify_inputs(rng):
    names = list(VERIFY_TYPES)
    rng.shuffle(names)
    return [["verify", "all", name] for name in names]


def _session_inputs(rng):
    """character of each module, then a q-analogue at each of its weights;
    about half of the q queries are asked again later in the stream."""
    groups = []
    for name in SESSION_TYPES:
        rs = build_root_system(name)
        highest = {rs.theta.coords, rs.theta_s.coords, (rs.theta + rs.theta_s).coords}
        for lam in sorted(highest):
            weights = [mu.coords for mu in qweights.character(rs, Weight(lam))]
            rng.shuffle(weights)
            groups.append([["char", name, lam]]
                          + [["q", name, lam, mu] for mu in weights])
    rng.shuffle(groups)
    firsts = [query for group in groups for query in group]
    keyed = [(float(i), query) for i, query in enumerate(firsts)]
    n = len(firsts)
    for i, query in enumerate(firsts):
        if query[0] == "q" and rng.random() < 0.5:
            keyed.append((rng.uniform(i + 0.5, n), query))
    keyed.sort(key=lambda pair: pair[0])
    queries = [query for _, query in keyed]
    q_indices = [i for i, query in enumerate(firsts) if query[0] == "q"]
    checked = sorted(rng.sample(q_indices, SESSION_CHECKED))
    return {"types": list(SESSION_TYPES), "queries": queries,
            "checked": [firsts[i] for i in checked]}


INPUTS = {
    "cli-qanalogue": _qanalogue_inputs,
    "cli-table": _table_inputs,
    "cli-verify": _verify_inputs,
    "lib-session": _session_inputs,
}


def inputs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    data = INPUTS[workload](rng)
    if workload != "lib-session":
        types = sorted({argv[2] if argv[0] == "verify" else argv[1] for argv in data})
        data = {"types": types, "calls": data}
    return data


# -- checks -----------------------------------------------------------------


def parse_poly(text):
    """{exponent: coefficient} from the canonical text form 'c*q^e + ...'."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        coeff, exp = term.split("*q^")
        out[int(exp)] = int(coeff)
    return out


@lru_cache(maxsize=None)
def _character(name, lam):
    return qweights.character(build_root_system(name), Weight(lam))


def _coords(text):
    return tuple(int(x) for x in text.split(","))


def check_poly(name, lam, mu, poly):
    """Problems with one q-analogue, judged by routes that do not compute it."""
    rs = build_root_system(name)
    mult = _character(name, lam).get(Weight(mu))
    problems = []
    if sum(poly.values()) != mult:
        problems.append(f"m(1) = {sum(poly.values())}, Freudenthal gives {mult}")
    if mult and poly.get(0, 0) != (1 if mu == lam else 0):
        problems.append(f"m(0) = {poly.get(0, 0)} at a weight of the module")
    if lam == rs.theta.coords and not any(mu):
        exps = dict(Counter(rs.exponents))
        if poly != exps:
            problems.append(f"adjoint zero weight {poly} != sum q^e over {exps}")
    return problems


def _check_qanalogue(argv, stdout):
    lam, mu = _coords(argv[3]), _coords(argv[4].split("=", 1)[1])
    return check_poly(argv[1], lam, mu, parse_poly(stdout))


def _check_table(argv, stdout):
    name, lam = argv[1], _coords(argv[3])
    rs = build_root_system(name)
    lines = stdout.rstrip("\n").split("\n")
    if len(lines) < 3 or lines[0] != f"{name}, highest weight ({argv[3]})":
        return ["table header missing"]
    problems = []
    seen = set()
    total = 0
    for line in lines[2:]:
        cols = re.split(r" {2,}", line.strip())
        mu = tuple(int(x) for x in cols[0].split())
        mult = int(cols[1])
        poly = parse_poly(cols[2])
        if mu in seen:
            problems.append(f"weight {mu} listed twice")
        seen.add(mu)
        total += mult
        if sum(poly.values()) != mult:
            problems.append(f"row {mu}: m(1) = {sum(poly.values())} != {mult}")
        if poly.get(0, 0) != (1 if mu == lam else 0):
            problems.append(f"row {mu}: m(0) = {poly.get(0, 0)}")
    dim = qweights.weyl_dimension(rs, Weight(lam))
    if total != dim:
        problems.append(f"multiplicities sum to {total}, Weyl dimension is {dim}")
    return problems


def _check_verify(argv, stdout):
    lines = stdout.rstrip("\n").split("\n")
    bad = [line for line in lines
           if not line.startswith("PASS ") or argv[2] not in line.split()]
    return [f"not a PASS line: {line!r}" for line in bad]


CHECKS = {
    "cli-qanalogue": _check_qanalogue,
    "cli-table": _check_table,
    "cli-verify": _check_verify,
}


def check(workload, items):
    """items: [argv, returncode, stdout] -> list of problems per item."""
    out = []
    for argv, returncode, stdout in items:
        if returncode != 0:
            out.append([f"exit code {returncode}"])
            continue
        try:
            out.append(CHECKS[workload](argv, stdout))
        except (ValueError, IndexError) as exc:
            out.append([f"unreadable output: {exc}"])
    return out


def main(argv):
    if argv[:1] == ["inputs"] and len(argv) == 3:
        data = inputs(argv[1], int(argv[2]))
        data["backend"] = qweights.kernel_backend()
        json.dump(data, sys.stdout)
        return 0
    if argv == ["check"]:
        request = json.load(sys.stdin)
        json.dump(check(request["workload"], request["items"]), sys.stdout)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
