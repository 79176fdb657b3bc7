"""A fixed piece of work that measures how fast the host runs right now.

On a shared host the same iteration took 1.30 s in one run and 2.00 s in a
run three minutes later, with CPU time equal to wall time throughout: the
host's speed drifts by half over minutes, far more than any code change a
comparison has to resolve.  :func:`calibration_seconds` times this kernel
next to every timed iteration and set-up, on the same CPU, and ``run.py``
scales each timing by ``REFERENCE_SECONDS / calibration_seconds()``: it
reports seconds on a host where the kernel takes ``REFERENCE_SECONDS``.

The kernel does what the program's python backend does most -- bitwise
evaluation of a netlist over 64-bit words into a growing list, with dict
bookkeeping per gate -- over a working set of a few megabytes, so memory
contention from other tenants slows it as it slows the program.  A tight
arithmetic loop tracked the drift far less.  It imports nothing from the
program, so a change to the program never changes it.  Changing the kernel
or ``REFERENCE_SECONDS`` changes every figure: never do it in a commit that
is compared with its parent.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: Calibration seconds that scale a timing by exactly one; the kernel's
#: median on a 2-CPU shared virtual machine when it ran fast.
REFERENCE_SECONDS = 0.010
#: Kernel runs per calibration; their median is the calibration.
REPEATS = 3

_GATES = 6000
_WORDS = 6
_MASK = (1 << 64) - 1


def _netlist(seed: int = 12345) -> list[tuple[int, int, int]]:
    rng = random.Random(seed)
    return [
        (rng.randrange(4), rng.randrange(64 + index), rng.randrange(64 + index))
        for index in range(_GATES)
    ]


NETLIST = _netlist()


def kernel() -> int:
    """Evaluate the fixed random netlist over a few random words."""
    rng = random.Random(7)
    total = 0
    for _ in range(_WORDS):
        values = [rng.getrandbits(64) for _ in range(64)]
        fanout: dict[int, list[int]] = {}
        for op, left, right in NETLIST:
            x, y = values[left], values[right]
            if op == 0:
                value = x & y
            elif op == 1:
                value = x | y
            elif op == 2:
                value = x ^ y
            else:
                value = ~(x & y) & _MASK
            values.append(value)
            fanout.setdefault(left % 512, []).append(value & 0xFF)
        total += values[-1] & 0xFFFF
    return total


def kernel_seconds() -> float:
    """Seconds of one kernel run, garbage collection off.

    With collection off the kernel's cost does not depend on how many
    objects the calling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibration_seconds() -> float:
    """Median seconds of ``REPEATS`` kernel runs."""
    return statistics.median(kernel_seconds() for _ in range(REPEATS))
