"""Run one qweights CLI call with span tracing on.

The same call as `python -m qweights.cli ARG...`, with the tracer installed
between the import and `cli.main`; the trace summary goes to a JSON file so
stdout stays the CLI's own.

    python3 traced_cli.py TRACE_SUMMARY_PATH ARG...
"""

from __future__ import annotations

import json
import sys
import time


def main(argv):
    path, args = argv[0], argv[1:]
    t0 = time.perf_counter_ns()
    import qweights
    import qweights.cli
    import_ns = time.perf_counter_ns() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = qweights.cli.main(args)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_ns"] = [import_ns]
    summary["cache"] = list(qweights.q_partition_cache_stats())
    summary["backend"] = qweights.kernel_backend()
    with open(path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
