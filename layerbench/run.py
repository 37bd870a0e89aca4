#!/usr/bin/env python3
"""Layered benchmark of the qweights user paths.

    python3 layerbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: the next call starts when
the previous one has ended.  A pass runs the seeded input list once; a run
makes at least two passes (with --trace 1, one plain and one traced pass)
and starts another while it is expected to end within --seconds.

  cli-qanalogue  `qweights qanalogue`, one fresh process per call, over a
                 fixed mix of types with |W| <= 5040.  Weyl enumeration and
                 weight->root conversion dominate; the kernel does little.
  cli-table      `qweights table` on hundreds-of-rows modules of G2, A3, B3,
                 C3, D4 and F4.  The partition kernel dominates; |W| <= 1152.
  cli-verify     `qweights verify all` over ten types: W is built once per
                 process and ~90 shifted orbits go through the conversion;
                 the only workload running klimyk, exact_div and verifiers.
  lib-session    one process answers a stream of ~2200 API queries
                 (character, then lusztig_q_analogue at every weight of
                 theta, theta_s and theta+theta_s, G2 to F4), about half of
                 the q-analogues asked twice, so caches are read far more
                 than filled.

BENCHMARK.json lists cli-verify and lib-session, which between them reach
every layer.  cli-qanalogue and cli-table run the same way when named, but
are left out of it: four workloads allow runs of at most ~20 s in the
gated budget, and on a host whose CPU speed drifts over minutes that gave
run-to-run spreads of 0.2-0.3.

The end-to-end call times are corrected for that drift: a fixed task of the
benchmark's own (reference.py) runs next to the calls, and each call is
scaled by NOMINAL_S over the task's time.  The raw times are in the record.

Outputs are checked after the timed part by oracle.py (Freudenthal
multiplicities, the Weyl dimension, exponents, m(0) = delta, PASS lines,
three-route agreement); a wrong output counts as a failed call.  The last
stdout line is the JSON result; the full record, with the Python version,
kernel backend, git revision, CPU count, seed and a digest of the inputs,
is written to layerbench/out/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
PROBES_PER_PASS = 5
CALL_TIMEOUT_S = 60.0
# No pass starts once RUN_BUDGET_S of a run has gone, and every child is
# killed at PASS_DEADLINE_S, so a run ends within three minutes even when
# the code under test is slow.
RUN_BUDGET_S = 100.0
PASS_DEADLINE_S = 160.0

WORKLOADS = ("cli-qanalogue", "cli-table", "cli-verify", "lib-session")

END_TO_END_UNITS = {
    "setup_s": "s", "call_p50_s": "s", "wall_s": "s",
    "rows_per_s": "1/s", "queries_per_s": "1/s", "peak_rss_mb": "MB",
}
# call_p90_s goes into the record, not the result: it needs 100 samples,
# which only cli-qanalogue and lib-session have, and it follows the host's
# CPU-speed drift more than any other metric (run-to-run spread 0.24-0.33).
P90_MIN_SAMPLES = 100

VERIFIERS = ("adjoint", "little_adjoint", "main", "minuscule", "coxeter",
             "height_duality", "induction", "subregular")

# The layers each workload was chosen to stress: a traced run fails its
# self-test when one of them records no span.
STRESSED = {
    "cli-qanalogue": ("root_system.build", "weyl.elements", "weyl.act",
                      "root_system.to_root_coords", "qkostant.compute",
                      "lusztig.q_analogue", "cli.main"),
    "cli-table": ("qkostant.compute", "lusztig.q_analogue", "lusztig.character",
                  "weyl.orbit", "cli.main"),
    "cli-verify": ("root_system.to_root_coords", "weyl.dominant_rep", "weyl.orbit",
                   "lusztig.character", "lusztig.klimyk", "poly.mul",
                   "poly.exact_div") + tuple(f"identities.{v}" for v in VERIFIERS),
    "lib-session": ("lusztig.q_analogue", "lusztig.character", "qkostant.compute",
                    "lusztig.induction", "lusztig.via_kernel"),
}


def _layer_metrics(agg):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    layers = agg["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_ns", 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    entries, hits = agg["cache"]
    m = {"process.import_s": (statistics.median(agg["import_ns"]) / 1e9, "s"),
         "root_system.build.s": (self_s("root_system.build"), "s")}
    for name in ("root_system.to_root_coords", "weyl.elements", "weyl.act",
                 "weyl.dominant_rep", "weyl.orbit", "qkostant.compute"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (self_s(name), "s")
    m["weyl.elements.count"] = (agg["counts"]["weyl.elements.count"], "count")
    m["qkostant.memo_entries"] = (entries, "count")
    m["qkostant.memo_hits"] = (hits, "count")
    m["qkostant.memo_hit_ratio"] = (ratio(hits, hits + entries), "ratio")
    q = layers.get("lusztig.q_analogue", {})
    m["lusztig.q_analogue.calls"] = (calls("lusztig.q_analogue"), "count")
    m["lusztig.q_analogue.self_s"] = (self_s("lusztig.q_analogue"), "s")
    m["lusztig.q_analogue.memo_hit_ratio"] = (
        ratio(q.get("leaf_calls", 0), q.get("calls", 0)), "ratio")
    m["lusztig.useful_ratio"] = (
        ratio(calls("qkostant.compute"), calls("weyl.act")), "ratio")
    m["lusztig.character.calls"] = (calls("lusztig.character"), "count")
    m["lusztig.character.s"] = (self_s("lusztig.character"), "s")
    for name in ("lusztig.klimyk", "lusztig.induction", "lusztig.via_kernel"):
        m[f"{name}.s"] = (self_s(name), "s")
    for name in ("poly.mul", "poly.exact_div"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (self_s(name), "s")
    for v in VERIFIERS:
        m[f"identities.{v}.s"] = (self_s(f"identities.{v}"), "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["trace.spans"] = (agg["spans"], "count")
    return m


# -- child processes ---------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    paths = [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


ENV = _child_env()


# One finished child; returncode is None when it was killed on timeout.
Result = collections.namedtuple("Result", "returncode stdout stderr seconds maxrss_kb")


def spawn(argv, stdin_path=None, timeout=CALL_TIMEOUT_S):
    """Run argv to completion; time it from spawn to reap and take its
    peak RSS from wait4, which only the parent can see."""
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=ENV, cwd=ROOT)
    finally:
        if stdin_path:
            stdin.close()
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in chunks:
        pipe.close()
    out, err = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    return Result(None if timed_out else proc.returncode, out, err, seconds,
                  usage.ru_maxrss)


def _scratch(name):
    """A per-process file under OUT for data passed to or from a child."""
    return os.path.join(OUT, f"{name}-{os.getpid()}.json")


def _python(*args):
    return [sys.executable, *args]


def setup_probe(module, names):
    """Seconds from spawn until `import module` and build_root_system(t)
    for each t in names have returned."""
    code = (f"import time, {module}\n"
            f"for t in {list(names)!r}: qweights.build_root_system(t)\n"
            "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    r = spawn(_python("-c", code))
    if r.returncode != 0:
        raise RuntimeError(f"setup probe failed: {r.stderr.strip()}")
    return (int(r.stdout.strip()) - t0) / 1e9


# -- passes -------------------------------------------------------------------


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.attempted = 0
        self.latencies = []
        self.factors = []      # NOMINAL_S / reference time, per call
        self.rows = 0
        self.maxrss_kb = 0
        self.outputs = []      # (call index, returncode, stdout)
        self.failed = 0        # timeouts and crashes, before the oracle
        self.problems = []
        self.summaries = []
        self.backends = set()
        self.digest = None


def _rows(workload, stdout):
    lines = stdout.rstrip("\n").split("\n") if stdout.strip() else []
    if workload == "cli-table":
        return max(len(lines) - 2, 0)
    if workload == "cli-verify":
        return len(lines)
    return 1


def reference_s():
    r = spawn(_python(os.path.join(HERE, "reference.py")))
    if r.returncode != 0:
        raise RuntimeError(f"reference task failed: {r.stderr.strip()}")
    return float(r.stdout)


def cli_pass(workload, calls, traced, deadline):
    """One pass over the calls; the reference task runs before each call
    and after the last, and a call's factor uses the runs on both sides."""
    p = Pass(traced)
    refs = [reference_s()]
    for i, argv in enumerate(calls):
        trace_path = _scratch("trace")
        if traced:
            cmd = _python(os.path.join(HERE, "traced_cli.py"), trace_path, *argv)
        else:
            cmd = _python("-m", "qweights.cli", *argv)
        r = spawn(cmd, timeout=min(CALL_TIMEOUT_S, deadline - time.perf_counter()))
        p.attempted += 1
        p.latencies.append(r.seconds)
        refs.append(reference_s())
        p.factors.append(NOMINAL_S * 2 / (refs[-2] + refs[-1]))
        p.maxrss_kb = max(p.maxrss_kb, r.maxrss_kb)
        if r.returncode is None:
            p.failed += 1
            p.problems.append(f"{argv}: timed out")
            break
        p.outputs.append((i, r.returncode, r.stdout))
        p.rows += _rows(workload, r.stdout)
        if traced and os.path.exists(trace_path):
            with open(trace_path) as fh:
                summary = json.load(fh)
            os.remove(trace_path)
            p.backends.add(summary["backend"])
            p.summaries.append(summary)
    p.wall = sum(p.latencies)
    return p


def session_pass(request_path, n_queries, traced, deadline):
    p = Pass(traced)
    p.attempted = n_queries
    trace_path = _scratch("trace")
    cmd = _python(os.path.join(HERE, "session.py"), *([trace_path] if traced else []))
    r = spawn(cmd, stdin_path=request_path, timeout=deadline - time.perf_counter())
    if r.returncode != 0:
        p.failed = n_queries
        p.problems.append(f"session worker exited with {r.returncode}: "
                          f"{r.stderr.strip()[-500:]}")
        return p
    reply = json.loads(r.stdout)
    p.latencies = [ns / 1e9 for ns in reply["latencies_ns"]]
    p.factors = reply["factors"]
    p.wall = sum(p.latencies)
    p.rows = n_queries
    p.maxrss_kb = reply["maxrss_kb"]
    p.digest = reply["digest"]
    p.backends.add(reply["backend"])
    bad = {i for i, _ in reply["problems"]}
    p.failed = len(bad)
    p.problems.extend(f"query {i}: {msg}" for i, msg in reply["problems"])
    if traced:
        with open(trace_path) as fh:
            p.summaries.append(json.load(fh))
        os.remove(trace_path)
    return p


def run_passes(run_pass, probe, seconds, trace):
    """Whole passes until the next is expected to overrun `seconds`.  Plain
    runs take set-up probes before every pass, so that set-up is sampled
    across the run like everything else."""
    unit = (False, True) if trace else (False,)
    min_units = 1 if trace else 2
    passes = []
    probes = []
    start = time.perf_counter()
    units = 0
    while True:
        t = time.perf_counter()
        if not trace:
            probes.extend(probe() for _ in range(PROBES_PER_PASS))
        for traced in unit:
            passes.append(run_pass(traced))
        units += 1
        now = time.perf_counter()
        elapsed, last = now - start, now - t
        if any(p.failed for p in passes):
            break
        if units >= min_units and elapsed + last > seconds:
            break
        if elapsed + last > RUN_BUDGET_S:
            break
    return passes, probes


# -- the oracle ---------------------------------------------------------------


def oracle(*args, stdin_path=None):
    r = spawn(_python(os.path.join(HERE, "oracle.py"), *args),
              stdin_path=stdin_path, timeout=RUN_BUDGET_S)
    if r.returncode != 0:
        raise RuntimeError(f"oracle {args[0]} failed: {r.stderr.strip()[-2000:]}")
    return json.loads(r.stdout)


def check_cli_outputs(workload, calls, passes):
    """Send each distinct (call, exit code, stdout) to the oracle once and
    count every execution that produced a bad one."""
    distinct = sorted({out for p in passes for out in p.outputs})
    path = _scratch("check")
    with open(path, "w") as fh:
        json.dump({"workload": workload,
                   "items": [[calls[i], rc, stdout] for i, rc, stdout in distinct]}, fh)
    verdicts = oracle("check", stdin_path=path)
    os.remove(path)
    bad = {}
    for item, problems in zip(distinct, verdicts):
        if problems:
            bad[item] = problems
    for p in passes:
        for item in p.outputs:
            if item in bad:
                p.failed += 1
                p.problems.append(f"{calls[item[0]]}: {'; '.join(bad[item][:3])}")


# -- results --------------------------------------------------------------------


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def _merge(summaries):
    """One traced pass's process summaries, summed."""
    layers = {}
    for s in summaries:
        for name, row in s["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0,
                                           "leaf_calls": 0, "min_self_ns": 0})
            for key in ("calls", "self_ns", "total_ns", "leaf_calls"):
                acc[key] += row[key]
            acc["min_self_ns"] = min(acc["min_self_ns"], row["min_self_ns"])
    counts = {}
    for s in summaries:
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {
        "layers": layers,
        "counts": counts,
        "cache": [sum(s["cache"][k] for s in summaries) for k in (0, 1)],
        "import_ns": [ns for s in summaries for ns in s["import_ns"]],
        "spans": sum(s["spans"] for s in summaries),
    }


def end_to_end(plain, probes):
    """Every plain pass runs the same calls.  Each call's time is scaled by
    its CPU-speed factor (reference.py), and a call counts with its median
    over the passes; the raw figures go into the record."""
    per_call = [statistics.median(ts) for ts in zip(*(
        [t * f for t, f in zip(p.latencies, p.factors)] for p in plain))]
    wall = sum(per_call)
    return {
        "setup_s": statistics.median(probes),
        # the lower median is always one call's time; cli-verify's calls
        # cluster by type, and an even count would average two clusters
        "call_p50_s": statistics.median_low(per_call),
        "wall_s": wall,
        "rows_per_s": plain[0].rows / wall,
        "queries_per_s": len(per_call) / wall,
        "peak_rss_mb": statistics.median(p.maxrss_kb for p in plain) / 1024,
    }


def per_layer(workload, plain, traced, problems):
    per_pass = [_layer_metrics(_merge(p.summaries)) for p in traced]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "s":
            value = statistics.median(values)
        elif any(v != value for v in values):
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = (value, unit)
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    # self-test of the tracing itself
    for p in traced:
        agg = _merge(p.summaries)
        for name in STRESSED[workload]:
            if agg["layers"].get(name, {}).get("calls", 0) == 0:
                problems.append(f"self-test: no {name} span on {workload}")
        for name, row in agg["layers"].items():
            if row["min_self_ns"] < 0:
                problems.append(f"self-test: negative self time in {name}")
    return metrics


def _load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, spec):
    """One run of one workload: (record, printable lines)."""
    deadline = time.perf_counter() + PASS_DEADLINE_S
    data = oracle("inputs", workload, str(seed))
    backend = data.pop("backend")
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    if workload == "lib-session":
        request_path = _scratch("session")
        with open(request_path, "w") as fh:
            json.dump(data, fh)
        n_queries = len(data["queries"])
        passes, probes = run_passes(
            lambda traced: session_pass(request_path, n_queries, traced, deadline),
            lambda: setup_probe("qweights", data["types"]), seconds, trace)
        os.remove(request_path)
        if len({p.digest for p in passes if p.digest}) > 1:
            passes[-1].failed += 1
            passes[-1].problems.append("answers differ between passes")
        calls_per_pass = n_queries
    else:
        calls = data["calls"]
        probe_types = itertools.cycle(data["types"])
        passes, probes = run_passes(
            lambda traced: cli_pass(workload, calls, traced, deadline),
            lambda: setup_probe("qweights.cli", [next(probe_types)]),
            seconds, trace)
        check_cli_outputs(workload, calls, passes)
        calls_per_pass = len(calls)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    problems = [msg for p in passes for msg in p.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    backends = set().union(*(p.backends for p in passes)) - {backend}
    if backends:
        problems.append(f"backend changed during the run: {backend} vs {backends}")

    if failed or problems:
        metrics = {}
    elif trace:
        metrics = per_layer(workload, plain, traced, problems)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(plain, probes).items()}
    if spec and metrics:
        listed = spec["per_layer" if trace else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in listed}
        if expected != {k: unit for k, (_, unit) in metrics.items()}:
            problems.append("metrics differ from the list in BENCHMARK.json")

    latencies = [x for p in plain for x in p.latencies]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "backend": backend,
        "git_rev": git_rev(), "nproc": os.cpu_count(), "inputs_digest": digest,
        "calls_per_pass": calls_per_pass, "passes": len(plain),
        "traced_passes": len(traced),
        "samples": len(latencies),
        "call_p90_s": (statistics.quantiles(latencies, n=10)[8]
                       if len(latencies) >= P90_MIN_SAMPLES else None),
        "pass_walls_s": [p.wall for p in plain],
        "pass_latencies_s": [p.latencies for p in plain],
        "pass_factors": [p.factors for p in plain],
        "traced_pass_walls_s": [p.wall for p in traced],
        "setup_probes_s": probes, "error_rate": failed / attempted,
    }
    record = {"meta": meta, "correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "problems": problems[:50],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    lines = ["# meta " + json.dumps(meta)]
    lines += [f"# problem: {msg}" for msg in problems[:20]]
    lines += [f"{workload}  {name:<36} {value:>14.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    if meta["call_p90_s"] is not None and not trace:
        lines.append(f"{workload}  {'call_p90_s':<36} {meta['call_p90_s']:>14.6g} s "
                     f"(record only, {len(latencies)} samples)")
    lines.append(f"{workload}  {'error_rate':<36} {failed / attempted:>14.6g} "
                 f"({failed}/{attempted})")
    return record, lines


def main(argv=None):
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else 24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "qweights", "__init__.py")):
        print(f"error: no qweights sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # byte-compile once, as an installed package would be, so no timed
    # process pays for it
    subprocess.run(_python("-m", "compileall", "-q", SRC, HERE), env=ENV,
                   check=True, stdout=subprocess.DEVNULL)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        record, lines = run_workload(workload, args.seed, args.seconds, args.trace, spec)
        print("\n".join(lines), flush=True)
        result["correct"] = result["correct"] and record["correct"]
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, value in record["metrics"].items():
            result["metrics"][prefix + name] = value
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
