# Known-bad fixture for REP103 (wall-clock reads in hot paths).
# The test feeds this source to check_source() under a synthetic
# hot-path name (repro/runtime/...); on its real path REP103 is silent.
# Line numbers are asserted by tests/test_analysis.py — append only.
import time
from time import perf_counter


def timed_call(clock, fn):
    t0 = time.perf_counter()  # REP103 line 10: no function is exempt
    fn()
    return time.perf_counter() - t0  # REP103 line 12


def hot_loop(values):
    started = time.time()  # REP103 line 16
    tick = perf_counter()  # REP103 line 17
    total = 0.0
    for v in values:
        total += v
    return total, started, tick
