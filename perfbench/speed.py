"""Speed probe: how fast the machine runs Python right now.

The small shared machines the benchmark runs on change speed by up to half
for seconds to minutes at a time (a fixed pure-Python loop shows the same
swings as the program).  Some slow spells slow arithmetic, others slow memory
access more.  ``probe()`` times a fixed kernel that is independent of coxrep
and does some of each; the benchmark runs it between jobs and scales each
job's wall time by ``REFERENCE_S / probe``, which reports the time the job
would take at the reference speed.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

# The probe's time in the fast state of a 2-vCPU Intel Xeon VM (Python
# 3.11.7).  Only the scale of the scaled times depends on it, not their ratios.
REFERENCE_S = 0.0014

# Reads scattered over a buffer four times the size of that machine's 2 MiB
# L2 cache, so most of them go to L3 or memory; successive probes read
# different bytes.  The buffer is made by the first probe, so that a worker
# counts its cost as probing, not as set-up.
_BUFFER_SIZE = 8 << 20
_READS = 2500
_buffer = b""
_next_read = itertools.count(0, _READS)

_ROWS = [[Fraction((3 * i + 5 * j) % 7 + (i == j) * 4, 1 + (i + j) % 3) for j in range(6)] for i in range(6)]


def _kernel() -> int:
    """Exact elimination on a 6x6 rational matrix plus dict and tuple work:
    the operations the program spends its time on."""
    rows = [row[:] for row in _ROWS]
    rank = 0
    for col in range(6):
        pivot = next((r for r in range(rank, 6) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(6):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    table = {}
    for k in range(300):
        key = (k % 17, k % 5, k // 7)
        table[key] = table.get(key, 0) + k
    return rank + len(table)


def _memory() -> int:
    global _buffer
    if not _buffer:
        _buffer = bytes(range(256)) * (_BUFFER_SIZE // 256)
    first = next(_next_read)
    return sum(_buffer[k * 2654435761 % _BUFFER_SIZE] for k in range(first, first + _READS))


def probe(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of both kernels together, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        _memory()
        best = min(best, time.perf_counter() - t0)
    return best


if __name__ == "__main__":
    print(f"{probe(20):.6f}")
