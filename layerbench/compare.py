#!/usr/bin/env python3
"""Compare two records written by run.py.

    python3 layerbench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) to compare records of different workloads, trace modes or
kernel backends: a pure and a compiled kernel are different programs.  When
both records ran the same inputs (same digest) on the same git revision,
every count and ratio must repeat exactly; a difference exits 1.
"""

from __future__ import annotations

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    a, b = records
    for key in ("workload", "trace", "backend"):
        if a["meta"][key] != b["meta"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['meta'][key]!r} vs {b['meta'][key]!r})", file=sys.stderr)
            return 2
    same_inputs = a["meta"]["inputs_digest"] == b["meta"]["inputs_digest"]
    same_rev = a["meta"]["git_rev"] == b["meta"]["git_rev"] != "unknown"
    print(f"{a['meta']['workload']}  {a['meta']['git_rev'][:12]} -> "
          f"{b['meta']['git_rev'][:12]}  backend {a['meta']['backend']}  "
          f"same inputs: {same_inputs}")
    mismatches = []
    for name, before in a["metrics"].items():
        after = b["metrics"].get(name)
        if after is None:
            print(f"  {name:<36} {before['value']:>14.6g}  (missing after)")
            continue
        x, y = before["value"], after["value"]
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        print(f"  {name:<36} {x:>14.6g} {y:>14.6g} {change:>8} {before['unit']}")
        if same_inputs and same_rev and before["unit"] in ("count", "ratio") and x != y:
            mismatches.append(name)
    if mismatches:
        print("counts differ on identical inputs: " + ", ".join(mismatches))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
