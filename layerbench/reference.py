"""A fixed pure-Python task that gauges the host's momentary CPU speed.

The benchmark's host (a 2-vCPU VM) runs the same work 15-50 % slower for
seconds to minutes at a time.  Running this task next to each timed call and
scaling the call by NOMINAL_S / (the task's time) removes most of that
drift: on the same host, a `verify all B4` call's raw time spread 0.33
(interquartile range / median) while its ratio to the adjacent reference
task spread 0.10.

    python3 reference.py   -> prints the task's time in seconds
"""

from __future__ import annotations

import time

ITERATIONS = 1_000_000
# the task's time on the host at its fast phases; it scales corrected
# times back to seconds on such a host
NOMINAL_S = 0.070


def loop_seconds():
    t = time.perf_counter()
    s = 0
    for i in range(ITERATIONS):
        s += i * i
    return time.perf_counter() - t


if __name__ == "__main__":
    print(loop_seconds())
