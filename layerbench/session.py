"""The lib-session worker: one process answers a stream of API queries.

Reads {"types", "queries", "checked"} as JSON on stdin and writes per-query
latencies with their CPU-speed factors (from the reference task run
between chunks of the stream), the peak RSS of the timed stream, an output
digest and the problems the checks found as JSON on stdout.  The checks run after the
timed stream: every q-analogue against the Freudenthal multiplicity of its
module, every character against the Weyl dimension, and the "checked"
queries by all three routes.

    python3 session.py [TRACE_SUMMARY_PATH]
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

# queries between two runs of the reference task (reference.py)
CHUNK = 150


def main(argv):
    request = json.load(sys.stdin)
    t0 = time.perf_counter_ns()
    import qweights
    import_ns = time.perf_counter_ns() - t0
    tracer = None
    if argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from oracle import check_poly
    from reference import NOMINAL_S, loop_seconds

    Weight = qweights.Weight
    systems = {name: qweights.build_root_system(name) for name in request["types"]}
    calls = []
    for query in request["queries"]:
        rs = systems[query[1]]
        if query[0] == "char":
            calls.append((qweights.character, (rs, Weight(query[2]))))
        else:
            calls.append((qweights.lusztig_q_analogue,
                          (rs, Weight(query[2]), Weight(query[3]))))

    clock = time.perf_counter_ns
    latencies = []
    factors = []
    results = []
    refs = [loop_seconds()]
    for first in range(0, len(calls), CHUNK):
        chunk = calls[first:first + CHUNK]
        for i, (fn, args) in enumerate(chunk, first):
            if tracer:
                tracer.request_id = i
            t = clock()
            result = fn(*args)
            latencies.append(clock() - t)
            results.append(result)
        refs.append(loop_seconds())
        factors += [NOMINAL_S * 2 / (refs[-2] + refs[-1])] * len(chunk)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = []
    digest = hashlib.sha256()
    for i, (query, result) in enumerate(zip(request["queries"], results)):
        name, lam = query[1], tuple(query[2])
        if query[0] == "char":
            text = " ".join(f"{mu}:{m}" for mu, m in result.items())
            dim = qweights.weyl_dimension(systems[name], Weight(lam))
            if result.total_mass() != dim:
                problems.append([i, f"character mass {result.total_mass()} != {dim}"])
        else:
            text = str(result)
            for problem in check_poly(name, lam, tuple(query[3]), result.terms()):
                problems.append([i, problem])
        digest.update(text.encode() + b"\n")
    answers = {json.dumps(q): r for q, r in zip(request["queries"], results)}
    for query in request["checked"]:
        rs, lam, mu = systems[query[1]], Weight(query[2]), Weight(query[3])
        want = answers[json.dumps(query)]
        for route in (qweights.q_analogue_by_induction, qweights.q_analogue_via_kernel):
            got = route(rs, lam, mu)
            if got != want:
                problems.append([request["queries"].index(query),
                                 f"{route.__name__} gives {got}, the sum gives {want}"])

    if tracer:
        summary = tracer.summary()
        summary["import_ns"] = [import_ns]
        summary["cache"] = list(qweights.q_partition_cache_stats())
        with open(argv[0], "w") as fh:
            json.dump(summary, fh)
    json.dump({"latencies_ns": latencies, "factors": factors, "maxrss_kb": maxrss_kb,
               "digest": digest.hexdigest(), "problems": problems,
               "backend": qweights.kernel_backend()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
