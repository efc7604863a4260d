"""The reference program: a fixed amount of interpreter work.

``run.py`` runs this before and after every timed invocation and divides
by how long it took, so that a metric says how much the program under
test does *in the time this takes at the same moment*. The machine's
speed drifts by tens of percent for half a minute at a time; this drifts
with it, the ratio does not. The work resembles the simulator's (a heap
of tuples, a dict that is written and overwritten, small allocations)
and must never change: every recorded number is relative to it. (The
self-test passes a smaller iteration count; measurements never do.)
"""

import heapq
import sys

ITERATIONS = 300_000


def main(iterations: int = ITERATIONS) -> int:
    heap: list = []
    table: dict = {}
    total = 0
    for i in range(iterations):
        entry = (i * 7919 % 10007, i, (i, total))
        heapq.heappush(heap, entry)
        table[i % 4096] = entry
        if i % 3 == 0:
            total += heapq.heappop(heap)[1]
    return total


if __name__ == "__main__":
    main(*map(int, sys.argv[1:2]))
