"""Reference-speed timing for a shared machine.

On a shared virtual machine the speed of the CPU drifts by 20-40 %
over seconds to minutes, with the load of other tenants, so raw wall
times of the same work differ more between runs than the changes the
benchmark must resolve.  Every timed job is therefore bracketed by a
short fixed probe in plain Python (tuple-keyed dict, string values,
sort, set; garbage collector off), and its wall time is scaled by
``REFERENCE_S / probe time``: seconds at the speed the probe had on the
reference box.  The probe never calls autodiss, so a change to autodiss
moves scaled and raw times alike; raw figures are printed beside them.
"""

from __future__ import annotations

import gc
import time

# Median probe time on the reference box (2-core x86-64 VM, Python 3.11).
REFERENCE_S = 0.003

_KEYS = [(f"s{i}", f"x{i % 7}") for i in range(6000)]


def probe() -> float:
    """Wall time of the fixed task: build a dict of tuple keys and string
    values, sort it and collect a set, as autodiss's graph passes do."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {k: (k[0] + "|" + k[1], len(k[0])) for k in _KEYS}
        ordered = sorted(table.items(), key=lambda kv: kv[1])
        {v[0] for _, v in ordered}
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference seconds for work that ran
    between two probes."""
    return 2 * REFERENCE_S / (before + after)
