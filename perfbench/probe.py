"""Speed probe: a fixed piece of pure-Python work that belongs to the benchmark.

The reference machine is a shared virtual machine whose host slows each vCPU
by up to 80%, switching within a fraction of a second, in proportions that
drift over minutes.  No statistic over a 60 s run removes that, so the
benchmark measures the program against the probe instead.  Run as a script,
this file is a companion: pinned to one CPU, it runs the probe back to back
for the whole measurement, so every job on that CPU shares it with exactly
one probe process and both see the same slow phases.  A job's time
multiplied by ``REFERENCE_S / CPU time of the probes that overlapped it`` is
its time on a machine on which the probe takes ``REFERENCE_S``.  The probe
does not touch the program, so a change to the program moves the scaled time
in full.

The probe enumerates, one by one, every antichain of the void of the
staircase semigroup staircase(8, 6, 2) (gaps: 1..50 except the multiples of
8), where x <= y iff y - x is not a gap.  It uses only ints, lists and calls,
like the program's ideal search.

    python3 perfbench/probe.py   # companion: writes "ready", then probes
                                 # until a line arrives on stdin, then writes
                                 # [[start, end, cpu_s], ...] as JSON
"""

from __future__ import annotations

import json
import select
import sys
import time

REFERENCE_S = 0.040  # the probe on the reference machine at its quiet speed
GAPS = tuple(x for x in range(1, 51) if x % 8)
ANTICHAINS = 134456


def _comparable() -> list[int]:
    gap_set = set(GAPS)
    frobenius = max(GAPS)
    void = [x for x in GAPS if frobenius - x in gap_set]
    comparable = [0] * len(void)
    for i, x in enumerate(void):
        for j in range(i + 1, len(void)):
            if void[j] - x not in gap_set:
                comparable[i] |= 1 << j
                comparable[j] |= 1 << i
    return comparable


_COMPARABLE = _comparable()
_ALL = (1 << len(_COMPARABLE)) - 1


def _antichains(mask: int) -> int:
    if not mask:
        return 1
    low = mask & -mask
    rest = mask ^ low
    return _antichains(rest) + _antichains(rest & ~_COMPARABLE[low.bit_length() - 1])


def probe() -> tuple[float, float, float]:
    """One probe: its start and end on the monotonic clock, shared by all
    processes of the machine, and the CPU seconds it took."""
    start, cpu = time.monotonic(), time.thread_time()
    count = _antichains(_ALL)
    cpu, end = time.thread_time() - cpu, time.monotonic()
    if count != ANTICHAINS:
        raise RuntimeError(f"probe counted {count} antichains, expected {ANTICHAINS}")
    return start, end, cpu


def companion() -> None:
    records = [probe()]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], 0)[0]:
        records.append(probe())
    print(json.dumps(records), flush=True)


if __name__ == "__main__":
    companion()
