"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the speed of one vCPU drifts by tens of percent
over seconds, and CPU time drifts with it (the loss is not steal time, so
``time.process_time`` does not remove it).  The benchmark therefore times
this kernel right before and right after each operation and reports the
operation's time scaled to the kernel's nominal speed:

    normalised = wall * NOMINAL_S / kernel_wall

The kernel is pure Python with the program's instruction mix: it splits
bodyfile-like lines, converts their fields to integers, builds a small dict
per line, runs case-insensitive regex searches on the names and sorts the
hits.  Its input is fixed, so no change to the program can move its time.
``NOMINAL_S`` is roughly its median on the 2-vCPU x86_64 VM the benchmark was
defined on, so normalised values stay close to seconds on that host.
"""

from __future__ import annotations

import random
import re
from time import perf_counter

NOMINAL_S = 0.022

_rng = random.Random(0)
_LINES = tuple(
    "0|C:/Documents and Settings/u/{}.dat|{}-128-1|r/rrwxrwxrwx|0|0|{}|{}|{}|{}|{}".format(
        "".join(_rng.choice("abcdefgh/") for _ in range(30)), _rng.randrange(30, 90000),
        _rng.randrange(4_000_000), *(_rng.randrange(10 ** 9, 2 * 10 ** 9) for _ in range(4)))
    for _ in range(2000)
)
_PATTERNS = tuple(re.compile(p, re.IGNORECASE) for p in (
    r".*/ab[0-9a-h]+/c", r"hh/g.*\.dat$", r"/fe+d", r"^C:/Documents and Settings/u/a"))


def _kernel() -> int:
    hits = []
    for line in _LINES:
        fields = line.split("|")
        times = {"a": int(fields[7]), "m": int(fields[8]), "c": int(fields[9]),
                 "b": int(fields[10])}
        for pattern in _PATTERNS:
            if pattern.search(fields[1]) is not None:
                hits.append((times["m"], fields[1]))
    hits.sort()
    return len(hits)


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
